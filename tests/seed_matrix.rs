//! Seed-matrix equivalence suite for the O(1) DES rebuild.
//!
//! PR 9 swapped the simulator's inner structures — positional deque
//! scans in the cache became arena-backed intrusive lists, the event
//! queue grew a front-slot fast path, and the affinity clusterer moved
//! to a flat matrix with cached norms — under a strict contract: every
//! run stays bit-identical. These tests pin that contract from both
//! ends, swept across the CI seed matrix:
//!
//! * **reference models** — the rebuilt structures replayed op-for-op
//!   against naive models with the documented semantics (a stably
//!   sorted vector for the event queue, a `VecDeque` for the intrusive
//!   list, an admission-ordered linear scan for the clusterer, a
//!   slot-ordered linear scan for the flat index — the last two pin the
//!   shadow-matrix argmax kernel to the sequential f64 scans, down to
//!   the similarity bits);
//! * **run-to-run determinism** — every serving tier (single node,
//!   fleet, elastic, scenario) executed twice per seed and compared on
//!   its full debug rendering, so any hidden iteration-order or
//!   float-reassociation drift fails loudly.

use std::collections::{HashMap, VecDeque};

use modm::cache::IndexedList;
use modm::cluster::GpuKind;
use modm::core::MoDMConfig;
use modm::deploy::{Deployment, ServingBackend};
use modm::embedding::{Embedding, EmbeddingIndex, IndexPolicy};
use modm::fleet::{Fleet, Router, RoutingConfig, RoutingPolicy, SemanticClusterer};
use modm::scenario::RetryPolicy;
use modm::simkit::{EventQueue, SimRng, SimTime};
use modm::workload::TraceBuilder;
use modm_experiments::elastic::{diurnal_trace, elastic_fleet, predictive};
use modm_experiments::scenarios::storm_scenario_for;

/// Seeds the equivalence sweeps run under. Defaults to `[1]`; CI's
/// seed-matrix job widens the sweep with e.g. `MODM_TEST_SEEDS="1 7 42"`.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("MODM_TEST_SEEDS") {
        Ok(s) => {
            let seeds: Vec<u64> = s
                .split_whitespace()
                .map(|tok| tok.parse().expect("MODM_TEST_SEEDS: u64 seeds"))
                .collect();
            assert!(!seeds.is_empty(), "MODM_TEST_SEEDS set but empty");
            seeds
        }
        Err(_) => vec![1],
    }
}

/// Reference model for [`EventQueue`]: a vector stably ordered by
/// `(time, insertion sequence)`, with the same monotonic-clock clamp on
/// pop.
#[derive(Default)]
struct NaiveQueue {
    entries: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    last_popped: SimTime,
}

impl NaiveQueue {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.entries.remove(best);
        let at = at.max(self.last_popped);
        self.last_popped = at;
        Some((at, payload))
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

#[test]
fn event_queue_matches_stably_sorted_reference() {
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9) ^ 0xE7E7);
        let mut queue = EventQueue::new();
        let mut model = NaiveQueue::default();
        let mut payload = 0u32;
        for step in 0..4_000 {
            // A small time palette forces frequent exact ties, the case
            // where only the insertion sequence keeps order defined.
            let action = rng.index(5);
            if action < 3 {
                let at = SimTime::from_secs_f64(rng.index(8) as f64 * 0.5);
                queue.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
            } else if action < 4 {
                assert_eq!(
                    queue.pop(),
                    model.pop(),
                    "seed {seed}: pop diverged at step {step}"
                );
            } else if rng.chance(0.02) {
                queue.clear();
                model.clear();
            }
            assert_eq!(queue.len(), model.entries.len(), "seed {seed}, step {step}");
            assert_eq!(queue.is_empty(), model.entries.is_empty());
        }
        // Drain: the full remaining order must match, ties and all.
        while let Some(expected) = model.pop() {
            assert_eq!(queue.pop(), Some(expected), "seed {seed}: drain diverged");
        }
        assert!(queue.pop().is_none());
    }
}

#[test]
fn indexed_list_matches_deque_reference_under_arbitrary_ops() {
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x51_7C_C1) ^ 0xBEEF);
        let mut list = IndexedList::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next_key = 0u64;
        for step in 0..6_000 {
            match rng.index(8) {
                0..=2 => {
                    list.push_back(next_key);
                    model.push_back(next_key);
                    next_key += 1;
                }
                3 => {
                    assert_eq!(
                        list.pop_front(),
                        model.pop_front(),
                        "seed {seed}, step {step}"
                    );
                }
                4..=5 => {
                    // Remove a random *resident* key half the time, a
                    // random absent key otherwise.
                    let key = if !model.is_empty() && rng.chance(0.5) {
                        model[rng.index(model.len())]
                    } else {
                        next_key + 1 + rng.index(16) as u64
                    };
                    let in_model = model.iter().position(|&k| k == key);
                    if let Some(i) = in_model {
                        model.remove(i);
                    }
                    assert_eq!(
                        list.remove(key),
                        in_model.is_some(),
                        "seed {seed}, step {step}"
                    );
                }
                6 => {
                    let key = if !model.is_empty() && rng.chance(0.5) {
                        model[rng.index(model.len())]
                    } else {
                        next_key + 1
                    };
                    assert_eq!(list.contains(key), model.contains(&key));
                }
                _ => {
                    if rng.chance(0.05) {
                        list.clear();
                        model.clear();
                    }
                }
            }
            assert_eq!(list.len(), model.len(), "seed {seed}, step {step}");
            assert_eq!(list.front(), model.front().copied());
            if step % 64 == 0 {
                // Full link-integrity walk: forward pointers, backward
                // pointers and the key index must all agree.
                let walked = list.check_links();
                assert!(
                    walked.iter().copied().eq(model.iter().copied()),
                    "seed {seed}, step {step}: links {walked:?} vs model {model:?}"
                );
            }
        }
        assert!(
            list.iter().eq(model.iter().copied()),
            "seed {seed}: final order"
        );
    }
}

/// Dimensions the kernel sweeps run at: partial 16-row blocks
/// everywhere, and widths that are not multiples of any vector width.
const KERNEL_DIMS: [usize; 5] = [2, 3, 17, 64, 100];

/// A query or row palette entry: mostly Gaussian directions, plus
/// lattice vectors with components in {-1, 0, 1}, whose dot products tie
/// exactly (in f32 and in f64) and so exercise the first-strict-max rule.
fn kernel_vector(rng: &mut SimRng, dim: usize) -> Vec<f64> {
    if rng.chance(0.4) {
        (0..dim).map(|_| rng.index(3) as f64 - 1.0).collect()
    } else {
        (0..dim).map(|_| rng.standard_normal()).collect()
    }
}

/// `base` nudged by ~1e-7 per component: its scores differ from `base`'s
/// by less than the f32 rounding, so the shadow alone cannot order the
/// two, and only the certified f64 rescoring can.
fn near_copy(rng: &mut SimRng, base: &[f64]) -> Embedding {
    Embedding::from_vec(
        base.iter()
            .map(|x| x + 1e-7 * rng.standard_normal())
            .collect(),
    )
}

/// The sequential scan's score: `acc += x * y` in order, clamped.
fn sequential_unit_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc.clamp(-1.0, 1.0)
}

/// Reference model for [`EmbeddingIndex`]: slots recycled last-freed
/// first, replacement in place, and `nearest` as one sequential f64 pass
/// in slot order keeping the first strict maximum.
#[derive(Default)]
struct NaiveIndex {
    slots: Vec<Option<(u64, Vec<f64>)>>,
    free: Vec<usize>,
    by_key: HashMap<u64, usize>,
}

impl NaiveIndex {
    fn insert(&mut self, key: u64, e: &Embedding) {
        let row = (key, e.as_slice().to_vec());
        if let Some(&slot) = self.by_key.get(&key) {
            self.slots[slot] = Some(row);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(row);
                slot
            }
            None => {
                self.slots.push(Some(row));
                self.slots.len() - 1
            }
        };
        self.by_key.insert(key, slot);
    }

    fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.by_key.remove(&key) else {
            return false;
        };
        self.slots[slot] = None;
        self.free.push(slot);
        true
    }

    fn nearest(&self, q: &Embedding) -> Option<(u64, u64)> {
        let mut best: Option<(u64, f64)> = None;
        for (key, row) in self.slots.iter().flatten() {
            let sim = sequential_unit_dot(q.as_slice(), row);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((*key, sim));
            }
        }
        best.map(|(key, sim)| (key, sim.to_bits()))
    }
}

#[test]
fn flat_index_matches_sequential_scan_reference() {
    for seed in sweep_seeds() {
        for dim in KERNEL_DIMS {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0x5EED_F1A7) ^ dim as u64);
            let mut fast: EmbeddingIndex<u64> = EmbeddingIndex::with_capacity(48);
            let mut naive = NaiveIndex::default();
            let zero = Embedding::from_vec(vec![0.0; dim]);
            assert!(fast.nearest(&zero).is_none(), "empty index");
            let mut stored: Vec<Embedding> = Vec::new();
            let mut next_key = 0u64;
            let mut queries = 0usize;
            for step in 0..1_500 {
                let live: Vec<u64> = naive.by_key.keys().copied().collect();
                match rng.index(10) {
                    // Fresh key: a new vector, a duplicate of a stored
                    // row (the tie must go to the lowest slot), or a
                    // near-copy of one (a near-tie below f32 resolution).
                    0..=2 => {
                        let e = if stored.is_empty() || rng.chance(0.4) {
                            Embedding::from_vec(kernel_vector(&mut rng, dim))
                        } else if rng.chance(0.5) {
                            stored[rng.index(stored.len())].clone()
                        } else {
                            let i = rng.index(stored.len());
                            near_copy(&mut rng, stored[i].as_slice())
                        };
                        fast.insert(next_key, e.clone());
                        naive.insert(next_key, &e);
                        stored.push(e);
                        next_key += 1;
                    }
                    // Replacement insert under a live key.
                    3 if !live.is_empty() => {
                        let key = live[rng.index(live.len())];
                        let e = Embedding::from_vec(kernel_vector(&mut rng, dim));
                        fast.insert(key, e.clone());
                        naive.insert(key, &e);
                    }
                    // Removal (slot recycling), now and then of every
                    // entry, leaving an all-dead index.
                    4..=5 => {
                        let doomed: Vec<u64> = if rng.chance(0.03) {
                            live
                        } else if live.is_empty() {
                            vec![next_key + 7]
                        } else {
                            vec![live[rng.index(live.len())]]
                        };
                        for key in doomed {
                            assert_eq!(fast.remove(&key), naive.remove(key));
                        }
                    }
                    _ => {
                        let q = match rng.index(6) {
                            0 => zero.clone(),
                            1 if !stored.is_empty() => stored[rng.index(stored.len())].clone(),
                            2 if !stored.is_empty() => {
                                let i = rng.index(stored.len());
                                near_copy(&mut rng, stored[i].as_slice())
                            }
                            _ => Embedding::from_vec(kernel_vector(&mut rng, dim)),
                        };
                        assert_eq!(
                            fast.nearest(&q).map(|n| (n.key, n.similarity.to_bits())),
                            naive.nearest(&q),
                            "seed {seed}, dim {dim}, step {step}"
                        );
                        queries += 1;
                    }
                }
                assert_eq!(fast.len(), naive.by_key.len());
            }
            assert!(queries > 500, "seed {seed}, dim {dim}: {queries} queries");
            // All dead: every slot allocated, none live.
            for key in naive.by_key.keys().copied().collect::<Vec<_>>() {
                assert!(fast.remove(&key) && naive.remove(key));
            }
            assert!(fast.nearest(&zero).is_none(), "all-dead index");
        }
    }
}

/// Reference model for [`SemanticClusterer`]: leaders in admission
/// order, probed with [`Embedding::cosine`], first strict maximum wins,
/// oldest leader retired when the table is full.
struct NaiveClusterer {
    threshold: f64,
    max_leaders: usize,
    leaders: VecDeque<(u64, Embedding)>,
    next_id: u64,
}

impl NaiveClusterer {
    fn nearest(&self, query: &Embedding) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (id, leader) in &self.leaders {
            let sim = query.cosine(leader);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((*id, sim));
            }
        }
        best
    }

    fn cluster_of(&mut self, query: &Embedding) -> u64 {
        if let Some((id, sim)) = self.nearest(query) {
            if sim >= self.threshold {
                return id;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.leaders.push_back((id, query.clone()));
        if self.leaders.len() > self.max_leaders {
            self.leaders.pop_front();
        }
        id
    }
}

#[test]
fn clusterer_matches_naive_admission_order_scan() {
    for seed in sweep_seeds() {
        for dim in KERNEL_DIMS {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0xA5A5) ^ 0xC10C ^ dim as u64);
            let max_leaders = 12;
            let threshold = 0.7;
            let mut fast = SemanticClusterer::new(threshold, max_leaders);
            let mut naive = NaiveClusterer {
                threshold,
                max_leaders,
                leaders: VecDeque::new(),
                next_id: 0,
            };
            // A handful of base directions plus jitter: enough reuse to
            // exercise joins, enough novelty to exercise ring retirement.
            // Lattice queries and the zero query tie several leaders
            // exactly, where the oldest must win; the bisector of two
            // live leaders, nudged, ties them to within f32 resolution.
            let bases: Vec<Vec<f64>> = (0..8)
                .map(|_| (0..dim).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
                .collect();
            for step in 0..2_000 {
                let v: Vec<f64> = match rng.index(9) {
                    0 => vec![0.0; dim],
                    1..=2 => kernel_vector(&mut rng, dim),
                    3 if naive.leaders.len() >= 2 => {
                        let a = naive.leaders[rng.index(naive.leaders.len())].1.as_slice();
                        let b = naive.leaders[rng.index(naive.leaders.len())].1.as_slice();
                        let mid: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
                        near_copy(&mut rng, &mid).as_slice().to_vec()
                    }
                    _ => {
                        let base = &bases[rng.index(bases.len())];
                        base.iter().map(|x| x + rng.uniform_in(-0.4, 0.4)).collect()
                    }
                };
                let e = Embedding::from_vec(v);
                assert_eq!(
                    fast.nearest_leader(&e).map(|(id, sim)| (id, sim.to_bits())),
                    naive.nearest(&e).map(|(id, sim)| (id, sim.to_bits())),
                    "seed {seed}, dim {dim}: nearest leader diverged at step {step}"
                );
                assert_eq!(
                    fast.cluster_of(&e),
                    naive.cluster_of(&e),
                    "seed {seed}, dim {dim}: cluster assignment diverged at step {step}"
                );
            }
            assert_eq!(fast.num_leaders(), naive.leaders.len(), "seed {seed}");
            assert!(
                naive.next_id > 2 * max_leaders as u64,
                "seed {seed}, dim {dim}: the leader ring must wrap ({} mints)",
                naive.next_id
            );
        }
    }
}

#[test]
fn single_and_fleet_tiers_are_bit_identical_run_to_run() {
    for seed in sweep_seeds() {
        let trace = TraceBuilder::diffusion_db(seed)
            .requests(300)
            .rate_per_min(30.0)
            .build();
        let config = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(400)
            .index_policy(IndexPolicy::Exact)
            .build();

        let single = |trace| {
            let mut outcome = Deployment::single(config.clone()).run(trace);
            format!("{:?}", outcome.summary(2.0))
        };
        assert_eq!(single(&trace), single(&trace), "seed {seed}: single tier");

        // `Exact` is the default: a builder that never mentions the index
        // policy must produce the byte-identical run.
        let default_config = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(400)
            .build();
        let default_run = {
            let mut outcome = Deployment::single(default_config).run(&trace);
            format!("{:?}", outcome.summary(2.0))
        };
        assert_eq!(
            single(&trace),
            default_run,
            "seed {seed}: Exact must be the default index policy"
        );

        for policy in [RoutingPolicy::CacheAffinity, RoutingPolicy::HybridAffinity] {
            let fleet_run = |trace| {
                let fleet = Fleet::new(config.clone(), Router::new(policy, 4));
                format!("{:?}", fleet.run(trace))
            };
            assert_eq!(
                fleet_run(&trace),
                fleet_run(&trace),
                "seed {seed}: fleet tier under {}",
                policy.name()
            );
        }
    }
}

#[test]
fn elastic_and_scenario_tiers_are_bit_identical_run_to_run() {
    for seed in sweep_seeds() {
        let trace = diurnal_trace(seed, 400);
        let elastic = |trace| {
            let mut scaler = predictive();
            format!("{:?}", elastic_fleet(6, 3, 6).run(trace, &mut scaler))
        };
        assert_eq!(
            elastic(&trace),
            elastic(&trace),
            "seed {seed}: elastic tier"
        );

        let scenario = || {
            format!(
                "{:?}",
                storm_scenario_for(seed, RetryPolicy::honoring(), true).run()
            )
        };
        assert_eq!(scenario(), scenario(), "seed {seed}: scenario tier");
    }
}

#[test]
fn approx_routing_agrees_with_exact_across_seed_matrix() {
    // The approximate leader probe is an opt-in speed/fidelity trade; the
    // contract pinned here is that across the CI seed matrix it lands
    // each request on the same node as the exact scan at least 95% of the
    // time (the verify-before-mint fallback bounds the divergence to f32
    // rounding at the admission threshold).
    for seed in sweep_seeds() {
        let trace = TraceBuilder::diffusion_db(seed ^ 0xA99A)
            .requests(600)
            .rate_per_min(60.0)
            .build();
        let encoder = modm::embedding::TextEncoder::new(modm::embedding::SemanticSpace::default());
        let nodes = 8;
        let mut exact = RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
            .index_policy(IndexPolicy::Exact)
            .build();
        let mut approx = RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
            .index_policy(IndexPolicy::Approx)
            .build();
        let loads = vec![0.0f64; nodes];
        let mut agree = 0usize;
        for req in trace.iter() {
            let e = encoder.encode(&req.prompt);
            if exact.route(&e, &loads) == approx.route(&e, &loads) {
                agree += 1;
            }
        }
        let frac = agree as f64 / trace.len() as f64;
        assert!(
            frac >= 0.95,
            "seed {seed}: approx routing agreement {frac:.3} < 0.95"
        );
    }
}
