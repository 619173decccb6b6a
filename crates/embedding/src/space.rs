//! The joint text/image semantic space and its encoders.

use std::cell::RefCell;
use std::collections::HashMap;

use modm_numerics::vector;
use modm_simkit::SimRng;

/// Dimensionality used throughout the reproduction. 64 is large enough that
/// random token directions are nearly orthogonal (so unrelated prompts score
/// near zero) and small enough that the exact scan of the paper's 10k-entry
/// cache takes ~0.1 ms on one x86-64 core (~0.5 ms as a plain f64 scan; see
/// `cache_retrieve_*/exact_10k` in the `probe_ops` bench).
pub const DEFAULT_DIM: usize = 64;

/// Configuration of the shared semantic space.
///
/// The space is defined entirely by its dimension and a hash seed: any token
/// string maps to a deterministic unit direction, so two encoders built from
/// equal spaces agree exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticSpace {
    dim: usize,
    seed: u64,
}

impl Default for SemanticSpace {
    fn default() -> Self {
        SemanticSpace {
            dim: DEFAULT_DIM,
            seed: 0x6D6F_646D, // "modm"
        }
    }
}

impl SemanticSpace {
    /// Creates a space with an explicit dimension and hash seed.
    ///
    /// # Panics
    ///
    /// Panics if `dim < 2`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim >= 2, "semantic space needs at least 2 dimensions");
        SemanticSpace { dim, seed }
    }

    /// The dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Deterministic unit direction for a vocabulary token.
    pub fn token_direction(&self, token: &str) -> Vec<f64> {
        // FNV-1a over the token bytes, mixed with the space seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in token.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut rng = SimRng::seed_from(h);
        let mut v: Vec<f64> = (0..self.dim).map(|_| rng.standard_normal()).collect();
        vector::normalize(&mut v);
        v
    }
}

/// An embedding vector in the joint space. Always unit-normalized on
/// construction (zero vectors stay zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    values: Vec<f64>,
}

impl Embedding {
    /// Wraps and normalizes a raw vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_vec(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "embedding must be non-empty");
        vector::normalize(&mut values);
        Embedding { values }
    }

    /// The vector components.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Cosine similarity with another embedding (Eq. 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        vector::cosine_similarity(&self.values, &other.values)
    }

    /// Approximate in-memory size, for the paper's "0.29 GB for 100k
    /// embeddings" storage accounting (stored as f32 on GPU; we count 4
    /// bytes per component plus a small header).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + 16
    }
}

/// Encodes prompt text into the semantic space.
///
/// Tokenization is lowercase whitespace splitting with punctuation stripped —
/// the workload generator produces structured (topic/style/detail) token
/// streams, so nothing fancier is needed.
///
/// Token directions are pure functions of `(space, token)`, so the encoder
/// memoizes them: a vocabulary token costs one hash-and-normal-sample walk
/// the first time and a map lookup afterwards. The memo is capacity-bounded
/// so adversarial vocabularies (e.g. per-session nonce tokens in
/// million-request traces) cannot grow it without bound; on overflow the
/// direction is simply recomputed, which returns bit-identical values.
#[derive(Debug, Clone)]
pub struct TextEncoder {
    space: SemanticSpace,
    memo: RefCell<HashMap<String, Vec<f64>>>,
}

impl TextEncoder {
    /// Upper bound on memoized token directions (64-d f64 ≈ 512 B each, so
    /// the memo tops out around 32 MB plus key storage).
    const MEMO_CAPACITY: usize = 65_536;

    /// Creates an encoder over `space`.
    pub fn new(space: SemanticSpace) -> Self {
        TextEncoder {
            space,
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The underlying space.
    pub fn space(&self) -> &SemanticSpace {
        &self.space
    }

    /// Encodes a prompt. Empty prompts map to a fixed "null" direction so the
    /// result is always a valid unit vector.
    pub fn encode(&self, prompt: &str) -> Embedding {
        let mut acc = vec![0.0; self.space.dim()];
        let mut any = false;
        let mut memo = self.memo.borrow_mut();
        for raw in prompt.split_whitespace() {
            let token: String = raw
                .chars()
                .filter(|c| c.is_alphanumeric() || *c == '-')
                .collect::<String>()
                .to_lowercase();
            if token.is_empty() {
                continue;
            }
            match memo.get(&token) {
                Some(dir) => vector::axpy(&mut acc, 1.0, dir),
                None => {
                    let dir = self.space.token_direction(&token);
                    vector::axpy(&mut acc, 1.0, &dir);
                    if memo.len() < Self::MEMO_CAPACITY {
                        memo.insert(token, dir);
                    }
                }
            }
            any = true;
        }
        if !any {
            acc = self.space.token_direction("<empty>");
        }
        Embedding::from_vec(acc)
    }
}

/// Encodes a generated image into the joint space.
///
/// An image produced for a prompt with text embedding `t` embeds as
/// `normalize(alignment * t + n)` with `n` a fresh unit Gaussian direction.
/// `alignment` is the model-specific text-image alignment strength; it is the
/// single knob that calibrates CLIPScore (see crate docs).
#[derive(Debug, Clone)]
pub struct ImageEncoder {
    space: SemanticSpace,
    alignment: f64,
}

impl ImageEncoder {
    /// Relative per-image jitter of the alignment strength used by
    /// [`ImageEncoder::encode`], producing the CLIPScore spread visible in
    /// the paper's Fig 2 distributions.
    pub const ALIGNMENT_JITTER: f64 = 0.20;

    /// Creates an image encoder with the given alignment strength.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is not in `(0, 4]`.
    pub fn new(space: SemanticSpace, alignment: f64) -> Self {
        assert!(
            alignment > 0.0 && alignment <= 4.0,
            "alignment out of range: {alignment}"
        );
        ImageEncoder { space, alignment }
    }

    /// The alignment strength.
    pub fn alignment(&self) -> f64 {
        self.alignment
    }

    /// Embeds an image generated from `text` using randomness from `rng`.
    /// The effective alignment is jittered per image (see
    /// [`ImageEncoder::ALIGNMENT_JITTER`]).
    pub fn encode(&self, text: &Embedding, rng: &mut SimRng) -> Embedding {
        let jitter = 1.0 + Self::ALIGNMENT_JITTER * rng.standard_normal();
        let alignment = (self.alignment * jitter).max(0.02);
        self.encode_with_alignment(text, alignment, rng)
    }

    /// Embeds with an explicit alignment override (used for refined images,
    /// whose alignment blends the cache source and the refining model).
    pub fn encode_with_alignment(
        &self,
        text: &Embedding,
        alignment: f64,
        rng: &mut SimRng,
    ) -> Embedding {
        let dim = self.space.dim();
        assert_eq!(text.dim(), dim, "dimension mismatch");
        let mut noise: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
        modm_numerics::vector::normalize(&mut noise);
        let mut v = vec![0.0; dim];
        vector::axpy(&mut v, alignment, text.as_slice());
        vector::axpy(&mut v, 1.0, &noise);
        Embedding::from_vec(v)
    }

    /// Blends an existing image embedding toward a new prompt, modelling a
    /// refinement pass: the refined image keeps `1 - pull` of the cached
    /// image's direction and gains `pull` of a fresh generation for the new
    /// prompt.
    pub fn refine(
        &self,
        cached: &Embedding,
        new_text: &Embedding,
        pull: f64,
        rng: &mut SimRng,
    ) -> Embedding {
        let fresh = self.encode(new_text, rng);
        let mixed = vector::lerp(cached.as_slice(), fresh.as_slice(), pull.clamp(0.0, 1.0));
        Embedding::from_vec(mixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_directions_deterministic_and_unit() {
        let s = SemanticSpace::default();
        let a = s.token_direction("watercolor");
        let b = s.token_direction("watercolor");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_tokens_nearly_orthogonal() {
        let s = SemanticSpace::default();
        let a = s.token_direction("mountain");
        let b = s.token_direction("robot");
        let cos = modm_numerics::cosine_similarity(&a, &b);
        assert!(cos.abs() < 0.5, "random 64-d directions: {cos}");
    }

    #[test]
    fn shared_tokens_raise_similarity() {
        let enc = TextEncoder::new(SemanticSpace::default());
        let a = enc.encode("a castle on a hill at sunset oil painting");
        let b = enc.encode("a castle on a hill at dawn oil painting");
        let c = enc.encode("neon robot city cyberpunk skyline");
        assert!(a.cosine(&b) > 0.7, "near-duplicates: {}", a.cosine(&b));
        assert!(a.cosine(&c) < 0.4, "unrelated: {}", a.cosine(&c));
    }

    #[test]
    fn tokenization_case_and_punctuation_insensitive() {
        let enc = TextEncoder::new(SemanticSpace::default());
        let a = enc.encode("Sunset, Over The Lake!");
        let b = enc.encode("sunset over the lake");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn encode_memo_is_bit_identical() {
        // A warm memo must return exactly the vectors a cold encoder
        // computes: token directions are pure, so reuse cannot drift.
        let prompts = [
            "a castle on a hill at sunset oil painting",
            "neon robot city cyberpunk skyline",
            "a castle on a hill at dawn oil painting",
            "  Sunset, Over The Lake!  ",
            "",
        ];
        let warm = TextEncoder::new(SemanticSpace::default());
        for _ in 0..3 {
            for p in &prompts {
                let cold = TextEncoder::new(SemanticSpace::default());
                assert_eq!(warm.encode(p), cold.encode(p));
            }
        }
    }

    #[test]
    fn encode_memo_capacity_is_bounded() {
        let enc = TextEncoder::new(SemanticSpace::default());
        // Distinct nonce tokens may not grow the memo past its cap; the
        // cap is large, so just check the insert guard math directly on a
        // small prefix plus the invariant that repeats don't re-insert.
        for i in 0..100 {
            enc.encode(&format!("nonce-token-{i}"));
        }
        let len_after_unique = enc.memo.borrow().len();
        assert_eq!(len_after_unique, 100);
        for i in 0..100 {
            enc.encode(&format!("nonce-token-{i}"));
        }
        assert_eq!(enc.memo.borrow().len(), len_after_unique);
    }

    #[test]
    fn empty_prompt_is_valid() {
        let enc = TextEncoder::new(SemanticSpace::default());
        let e = enc.encode("   ");
        assert!((modm_numerics::l2_norm(e.as_slice()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn image_alignment_controls_t2i_cosine() {
        let space = SemanticSpace::default();
        let enc = TextEncoder::new(space.clone());
        let img_lo = ImageEncoder::new(space.clone(), 0.2);
        let img_hi = ImageEncoder::new(space, 0.6);
        let t = enc.encode("ancient forest spirits fantasy digital art");
        let mut rng = SimRng::seed_from(5);
        let n = 200;
        let mean = |ie: &ImageEncoder, rng: &mut SimRng| {
            (0..n).map(|_| t.cosine(&ie.encode(&t, rng))).sum::<f64>() / n as f64
        };
        let lo = mean(&img_lo, &mut rng);
        let hi = mean(&img_hi, &mut rng);
        assert!(lo < hi, "higher alignment -> higher t2i: {lo} vs {hi}");
        // alpha/sqrt(1+alpha^2): 0.2 -> ~0.196, 0.6 -> ~0.514.
        assert!((lo - 0.196).abs() < 0.05, "lo = {lo}");
        assert!((hi - 0.514).abs() < 0.05, "hi = {hi}");
    }

    #[test]
    fn refine_moves_cached_toward_new_prompt() {
        let space = SemanticSpace::default();
        let enc = TextEncoder::new(space.clone());
        let imgenc = ImageEncoder::new(space, 0.3);
        let mut rng = SimRng::seed_from(9);
        let old_t = enc.encode("red sports car desert road");
        let new_t = enc.encode("blue sports car desert road");
        let cached = imgenc.encode(&old_t, &mut rng);
        let refined = imgenc.refine(&cached, &new_t, 0.7, &mut rng);
        // The refined image should stay correlated with the cached one...
        assert!(refined.cosine(&cached) > 0.2);
        // ...and not be a pure copy.
        assert!(refined.cosine(&cached) < 0.999);
    }

    #[test]
    fn storage_accounting_matches_paper_scale() {
        // 100k embeddings at 64-d f32 should be well under 0.29 GB.
        let e = Embedding::from_vec(vec![1.0; DEFAULT_DIM]);
        let total = e.storage_bytes() * 100_000;
        assert!(total < 300_000_000, "total = {total}");
    }
}
