//! Flat cosine-similarity index with removal support.
//!
//! The paper computes cache retrieval as a single batched cosine-similarity
//! matmul on GPU (0.05 s over 100k entries, §5.2). A flat scan over 64-d
//! vectors reproduces that cost profile in simulation and keeps results
//! exact; removals (FIFO eviction) are O(1) via slot recycling.
//!
//! The index keeps its f64 rows and, beside them, a blocked f32
//! [`ShadowMatrix`] of the same rows. [`EmbeddingIndex::nearest`] scores
//! the shadow (half the bytes, a vectorised inner loop) and rescores a row
//! in f64 with `unit_dot`, in slot order, unless its f32 score is more
//! than the derived rounding bound [`score_slack`](crate::shadow::score_slack)
//! (≈ 3.9e-6 at dim 64) below the best so far. The key and similarity
//! bits it returns are therefore those of the sequential f64 scan, ties
//! included (the lowest slot wins).

use std::collections::HashMap;

use crate::probe::unit_f32_into;
use crate::shadow::ShadowMatrix;
use crate::space::Embedding;

/// Dot product of two unit vectors, clamped to the cosine range. Stored
/// embeddings and queries are normalized by [`Embedding::from_vec`], so this
/// equals the cosine at a third of the flops.
#[inline]
pub(crate) fn unit_dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc.clamp(-1.0, 1.0)
}

/// A search hit: the key of the stored embedding and its cosine similarity
/// to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<K> {
    /// Key of the matching entry.
    pub key: K,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f64,
}

/// An exact nearest-neighbor index over embeddings, keyed by `K`.
///
/// # Example
///
/// ```
/// use modm_embedding::{EmbeddingIndex, Embedding};
///
/// let mut idx = EmbeddingIndex::new();
/// idx.insert(1u64, Embedding::from_vec(vec![1.0, 0.0]));
/// idx.insert(2u64, Embedding::from_vec(vec![0.0, 1.0]));
/// let q = Embedding::from_vec(vec![0.9, 0.1]);
/// let best = idx.nearest(&q).unwrap();
/// assert_eq!(best.key, 1);
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingIndex<K> {
    keys: Vec<Option<K>>,
    /// Slot-indexed `dim`-strided rows in one contiguous allocation: the
    /// values every returned similarity is computed from. Rows of removed
    /// slots keep their stale values (skipped via `keys`) until recycled.
    vectors: Vec<f64>,
    /// f32 shadow of `vectors`, slot for slot, driving the certified scan.
    shadow: ShadowMatrix,
    /// Row stride; learned from the first inserted embedding.
    dim: usize,
    /// Slots to reserve once `dim` is known (see [`EmbeddingIndex::with_capacity`]).
    reserve: usize,
    free_slots: Vec<usize>,
    by_key: HashMap<K, usize>,
    live: usize,
}

impl<K: Copy + Eq + std::hash::Hash> Default for EmbeddingIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + std::hash::Hash> EmbeddingIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty index that reserves its row storage for
    /// `capacity` entries on the first insert (when the dimension is
    /// learned), so a cache filling to its capacity never reallocates.
    /// The reservation is best effort: a capacity whose storage overflows
    /// or cannot be allocated leaves the index to grow lazily.
    pub fn with_capacity(capacity: usize) -> Self {
        EmbeddingIndex {
            keys: Vec::new(),
            vectors: Vec::new(),
            shadow: ShadowMatrix::new(0),
            dim: 0,
            reserve: capacity,
            free_slots: Vec::new(),
            by_key: HashMap::new(),
            live: 0,
        }
    }

    /// Learns the row stride and makes the one up-front reservation.
    fn init_dim(&mut self, dim: usize) {
        self.dim = dim;
        self.shadow = ShadowMatrix::new(dim);
        let rows = self.reserve;
        if self.keys.try_reserve_exact(rows).is_ok() {
            if let Some(n) = rows.checked_mul(dim) {
                let _ = self.vectors.try_reserve_exact(n);
            }
            self.shadow.try_reserve_rows(rows);
        }
    }

    /// The `dim`-length row stored at `slot`.
    #[inline]
    fn row(&self, slot: usize) -> &[f64] {
        &self.vectors[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts (or replaces) the embedding for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `embedding`'s dimension differs from earlier inserts.
    pub fn insert(&mut self, key: K, embedding: Embedding) {
        let values = embedding.as_slice();
        if self.dim == 0 {
            self.init_dim(values.len());
        }
        assert_eq!(values.len(), self.dim, "embedding dimension mismatch");
        if let Some(&slot) = self.by_key.get(&key) {
            self.vectors[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(values);
            self.shadow.set_row(slot, values, 1.0);
            return;
        }
        let slot = if let Some(s) = self.free_slots.pop() {
            self.keys[s] = Some(key);
            self.vectors[s * self.dim..(s + 1) * self.dim].copy_from_slice(values);
            s
        } else {
            self.keys.push(Some(key));
            self.vectors.extend_from_slice(values);
            self.keys.len() - 1
        };
        self.shadow.set_row(slot, values, 1.0);
        self.by_key.insert(key, slot);
        self.live += 1;
    }

    /// Removes the entry for `key`; returns whether it existed.
    pub fn remove(&mut self, key: &K) -> bool {
        if let Some(slot) = self.by_key.remove(key) {
            self.keys[slot] = None;
            self.free_slots.push(slot);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// The single most similar entry to `query`, if any entry is live.
    ///
    /// Bit-identical to scoring every live slot with the clamped f64 dot in slot
    /// order and keeping the first strict maximum; the [`ShadowMatrix`]
    /// scan only skips rows it proves cannot win.
    ///
    /// # Panics
    ///
    /// Panics if `query`'s dimension differs from the stored rows'.
    pub fn nearest(&self, query: &Embedding) -> Option<Neighbor<K>> {
        if self.live == 0 {
            return None;
        }
        let q = query.as_slice();
        let mut q32 = Vec::with_capacity(self.dim);
        unit_f32_into(q, 1.0, &mut q32);
        self.shadow
            .argmax(
                &q32,
                std::iter::once(0..self.keys.len()),
                |slot| self.keys[slot],
                |slot| unit_dot(q, self.row(slot)),
            )
            .map(|(key, similarity)| Neighbor { key, similarity })
    }

    /// The most similar entry at or above `threshold`, mirroring the paper's
    /// retrieval rule "retrieve only if S(q, I*) >= tau".
    pub fn nearest_above(&self, query: &Embedding, threshold: f64) -> Option<Neighbor<K>> {
        self.nearest(query).filter(|n| n.similarity >= threshold)
    }

    /// The `k` most similar entries, best first.
    pub fn top_k(&self, query: &Embedding, k: usize) -> Vec<Neighbor<K>> {
        let q = query.as_slice();
        let mut hits: Vec<Neighbor<K>> = self
            .keys
            .iter()
            .enumerate()
            .filter_map(|(slot, key)| {
                key.map(|k| Neighbor {
                    key: k,
                    similarity: unit_dot(q, self.row(slot)),
                })
            })
            .collect();
        hits.sort_by(|a, b| b.similarity.partial_cmp(&a.similarity).expect("NaN sim"));
        hits.truncate(k);
        hits
    }

    /// Total bytes of embedding storage currently live (f32 accounting, as
    /// the paper's 0.29 GB figure uses GPU f32 tensors).
    pub fn storage_bytes(&self) -> usize {
        self.live * (self.dim * 4 + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(v: Vec<f64>) -> Embedding {
        Embedding::from_vec(v)
    }

    #[test]
    fn nearest_finds_best_match() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0, 0.0]));
        idx.insert(2, emb(vec![0.0, 1.0, 0.0]));
        idx.insert(3, emb(vec![0.7, 0.7, 0.0]));
        let q = emb(vec![0.6, 0.8, 0.0]);
        let n = idx.nearest(&q).unwrap();
        assert_eq!(n.key, 3);
    }

    #[test]
    fn threshold_filters_weak_matches() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        let q = emb(vec![0.0, 1.0]);
        assert!(idx.nearest_above(&q, 0.25).is_none());
        assert!(idx.nearest_above(&q, -1.0).is_some());
    }

    #[test]
    fn removal_frees_and_recycles_slots() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        idx.insert(2, emb(vec![0.0, 1.0]));
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1));
        assert_eq!(idx.len(), 1);
        // Removed entries never match.
        let q = emb(vec![1.0, 0.0]);
        assert_eq!(idx.nearest(&q).unwrap().key, 2);
        // Slot is recycled.
        idx.insert(3, emb(vec![1.0, 0.0]));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.nearest(&q).unwrap().key, 3);
    }

    #[test]
    fn top_k_sorted_descending() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        idx.insert(2, emb(vec![0.9, 0.1]));
        idx.insert(3, emb(vec![0.0, 1.0]));
        let q = emb(vec![1.0, 0.0]);
        let hits = idx.top_k(&q, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].key, 1);
        assert_eq!(hits[1].key, 2);
        assert!(hits[0].similarity >= hits[1].similarity);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(7, emb(vec![1.0, 0.0]));
        idx.insert(7, emb(vec![0.0, 1.0]));
        assert_eq!(idx.len(), 1);
        let q = emb(vec![0.0, 1.0]);
        let n = idx.nearest(&q).unwrap();
        assert!((n.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_returns_none() {
        let idx: EmbeddingIndex<u64> = EmbeddingIndex::new();
        assert!(idx.nearest(&emb(vec![1.0, 0.0])).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn storage_bytes_scale() {
        let mut idx = EmbeddingIndex::new();
        for i in 0..100u64 {
            idx.insert(i, emb(vec![1.0; 64]));
        }
        assert_eq!(idx.storage_bytes(), 100 * (64 * 4 + 16));
    }
}
