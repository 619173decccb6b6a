//! The Pinecone baseline: retrieval-only serving.
//!
//! Pinecone (paper §6) retrieves the image whose *prompt text* is most
//! similar to the query (CLIP text-embedding similarity) and serves it
//! verbatim — no refinement. Misses generate from scratch on the large
//! model. Fast, but image-text alignment suffers (lowest CLIP in Table 2),
//! which is exactly what the refinement step of MoDM buys back.

use std::collections::{HashMap, VecDeque};

use modm_cache::CacheStats;
use modm_cluster::GpuKind;
use modm_core::report::ServingReport;
use modm_core::RunOptions;
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler, TOTAL_STEPS};
use modm_embedding::{Embedding, EmbeddingIndex, SemanticSpace, TextEncoder};
use modm_simkit::{SimRng, SimTime};
use modm_workload::{Request, Trace};

use crate::engine::{BaselineEngine, BaselineJob, BaselinePolicy, JobPayload};

/// Text-to-text similarity required to serve a cached image verbatim.
/// Strict, because the image will not be refined to fit the prompt.
pub const SERVE_THRESHOLD: f64 = 0.92;

/// The Pinecone serving system.
pub struct PineconeSystem {
    engine: BaselineEngine<PineconePolicy>,
}

/// Policy backing [`PineconeSystem`]: a text-keyed image cache.
pub struct PineconePolicy {
    model: ModelId,
    encoder: TextEncoder,
    sampler: Sampler,
    capacity: usize,
    index: EmbeddingIndex<u64>,
    images: HashMap<u64, GeneratedImage>,
    fifo: VecDeque<u64>,
    next_key: u64,
    stats: CacheStats,
}

impl PineconeSystem {
    /// Creates a Pinecone system with the given image-cache capacity.
    pub fn new(model: ModelId, gpu: GpuKind, num_gpus: usize, cache_capacity: usize) -> Self {
        Self::with_fid_floor(model, gpu, num_gpus, cache_capacity, 6.29)
    }

    /// Same, with an explicit dataset FID floor.
    pub fn with_fid_floor(
        model: ModelId,
        gpu: GpuKind,
        num_gpus: usize,
        cache_capacity: usize,
        floor: f64,
    ) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be positive");
        let space = SemanticSpace::default();
        let policy = PineconePolicy {
            model,
            encoder: TextEncoder::new(space.clone()),
            sampler: Sampler::new(QualityModel::new(space, 0xCC33, floor)),
            capacity: cache_capacity,
            index: EmbeddingIndex::with_capacity(cache_capacity),
            images: HashMap::new(),
            fifo: VecDeque::new(),
            next_key: 0,
            stats: CacheStats::new(),
        };
        PineconeSystem {
            engine: BaselineEngine::new(policy, gpu, num_gpus),
        }
    }

    /// Serves the trace.
    pub fn run(&mut self, trace: &Trace) -> ServingReport {
        self.engine.run(trace)
    }

    /// Serves the trace with options.
    pub fn run_with(&mut self, trace: &Trace, options: RunOptions) -> ServingReport {
        self.engine.run_with(trace, options)
    }
}

impl PineconePolicy {
    fn insert(&mut self, text_embedding: Embedding, image: GeneratedImage) {
        while self.images.len() >= self.capacity {
            let Some(victim) = self.fifo.pop_front() else {
                break;
            };
            self.images.remove(&victim);
            self.index.remove(&victim);
            self.stats.record_eviction();
        }
        let key = self.next_key;
        self.next_key += 1;
        self.index.insert(key, text_embedding);
        self.fifo.push_back(key);
        self.images.insert(key, image);
        self.stats.record_insertion();
    }
}

impl BaselinePolicy for PineconePolicy {
    fn model(&self) -> ModelId {
        self.model
    }

    fn warm(&mut self, request: &Request, rng: &mut SimRng) {
        let emb = self.encoder.encode(&request.prompt);
        let img = self.sampler.generate_for(self.model, &emb, request.id, rng);
        self.insert(emb, img);
    }

    fn classify(&mut self, now: SimTime, request: &Request, _rng: &mut SimRng) -> BaselineJob {
        let emb = self.encoder.encode(&request.prompt);
        let hit = self
            .index
            .nearest_above(&emb, SERVE_THRESHOLD)
            .map(|n| (n.key, n.similarity));
        match hit {
            Some((key, sim)) => {
                let image = self.images.get(&key).expect("index/images in sync").clone();
                self.stats
                    .record_lookup(Some((now.saturating_since(SimTime::ZERO), sim)));
                BaselineJob {
                    request_id: request.id,
                    arrival: request.arrival,
                    prompt_embedding: emb,
                    steps: 0, // served straight from the cache
                    k: TOTAL_STEPS,
                    is_hit: true,
                    payload: JobPayload::ServeCached { image },
                }
            }
            None => {
                self.stats.record_lookup(None);
                BaselineJob {
                    request_id: request.id,
                    arrival: request.arrival,
                    prompt_embedding: emb,
                    steps: self.model.spec().default_steps,
                    k: 0,
                    is_hit: false,
                    payload: JobPayload::FullGeneration,
                }
            }
        }
    }

    fn produce(&mut self, job: &BaselineJob, rng: &mut SimRng) -> GeneratedImage {
        match &job.payload {
            JobPayload::FullGeneration => {
                self.sampler
                    .generate_for(self.model, &job.prompt_embedding, job.request_id, rng)
            }
            JobPayload::ServeCached { image } => {
                self.sampler
                    .serve_unrefined(image, &job.prompt_embedding, job.request_id)
            }
            JobPayload::ResumeLatent { .. } => unreachable!("pinecone never refines"),
        }
    }

    fn on_complete(&mut self, _now: SimTime, job: &BaselineJob, image: &GeneratedImage) {
        if image.is_full_generation() {
            self.insert(job.prompt_embedding.clone(), image.clone());
        }
    }

    fn cache_stats(&self) -> CacheStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TraceBuilder;

    #[test]
    fn pinecone_hits_cost_nothing() {
        let trace = TraceBuilder::diffusion_db(5)
            .requests(300)
            .rate_per_min(10.0)
            .build();
        let mut sys = PineconeSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16, 2_000);
        let report = sys.run(&trace);
        assert!(report.hits > 0, "some verbatim-ish repeats must hit");
        // Hit rate is below MoDM's because the serve threshold is strict.
        assert!(report.hit_rate() < 0.9);
    }

    #[test]
    fn pinecone_quality_suffers_on_alignment() {
        let trace = TraceBuilder::diffusion_db(6)
            .requests(400)
            .rate_per_min(10.0)
            .build();
        let opts = RunOptions {
            warmup: 100,
            saturate: true,
        };
        let mut pinecone = PineconeSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16, 2_000);
        let p = pinecone.run_with(&trace, opts);
        let mut vanilla = crate::VanillaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16);
        let v = vanilla.run_with(&trace, opts);
        assert!(
            p.quality.mean_clip() < v.quality.mean_clip(),
            "pinecone {} vs vanilla {}",
            p.quality.mean_clip(),
            v.quality.mean_clip()
        );
        // But it is faster.
        assert!(p.requests_per_minute() > v.requests_per_minute());
    }
}
