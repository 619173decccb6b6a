//! The simulated deployment's metrics: a deterministic function of the
//! seed, so every repetition of a run must reproduce them bit for bit.

use modm_deploy::{RunOutcome, Summary, TierKind};

/// Everything a run reports about the simulated system.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    pub offered: u64,
    pub completed: u64,
    /// Offers refused at admission that were never served.
    pub refused: u64,
    pub shed: u64,
    /// Closed-loop clients that gave up after their retry budget.
    pub abandoned: u64,
    pub hits: u64,
    /// Completions within `SLO_MULTIPLE` × the large-model latency.
    pub goodput: u64,
    pub p50_secs: f64,
    pub p99_secs: f64,
    pub gpu_hours: f64,
    /// Mean CLIP score of the served images, where the tier reports it.
    pub mean_clip: Option<f64>,
    pub cache_inserts: u64,
    pub cache_evictions: u64,
    pub load_imbalance: f64,
    pub offers: u64,
    pub reoffers: u64,
    pub redelivered: u64,
    pub amplification: f64,
}

impl SimMetrics {
    /// Flattens one run. `offered` is the number of requests the
    /// deployment was given.
    pub fn from_outcome(outcome: RunOutcome, summary: &Summary, offered: u64) -> SimMetrics {
        // One node is perfectly balanced.
        let load_imbalance = outcome.load_imbalance().unwrap_or(1.0);
        let mut m = SimMetrics {
            offered,
            completed: summary.completed,
            refused: summary.rejected,
            shed: summary.shed,
            abandoned: 0,
            hits: summary.hits,
            goodput: summary.goodput,
            p50_secs: f64::NAN,
            p99_secs: f64::NAN,
            gpu_hours: summary.gpu_hours,
            mean_clip: None,
            cache_inserts: 0,
            cache_evictions: 0,
            load_imbalance,
            offers: offered,
            reoffers: 0,
            redelivered: 0,
            amplification: 1.0,
        };
        let tier_report = "the outcome holds its tier's report";
        let mut latency = match outcome.tier() {
            TierKind::Single => {
                let r = outcome.into_single().expect(tier_report);
                m.mean_clip = Some(r.quality.mean_clip());
                m.cache_inserts = r.cache_stats.insertions();
                m.cache_evictions = r.cache_stats.evictions();
                r.latency
            }
            TierKind::Fleet => {
                let r = outcome.into_fleet().expect(tier_report);
                let served: u64 = r.nodes.iter().map(|n| n.report.quality.count()).sum();
                let clip_sum: f64 = r
                    .nodes
                    .iter()
                    .map(|n| n.report.quality.mean_clip() * n.report.quality.count() as f64)
                    .sum();
                m.mean_clip = Some(clip_sum / served.max(1) as f64);
                m.cache_inserts = r.cache.insertions;
                m.cache_evictions = r.cache.evictions;
                r.latency
            }
            TierKind::Elastic => outcome.into_elastic().expect(tier_report).latency,
            TierKind::Scenario => {
                let r = outcome.into_scenario().expect(tier_report);
                // The scenario's `rejected` counts requests whose clients
                // abandoned them, not refused offers.
                m.abandoned = r.retry.abandoned;
                m.refused = r.rejected.saturating_sub(r.retry.abandoned);
                m.offers = r.retry.offers;
                m.reoffers = r.retry.reoffers;
                m.redelivered = r.retry.redelivered;
                m.amplification = r.retry.amplification();
                let routed = &r.routed_per_node;
                let max = routed.iter().copied().max().unwrap_or(0) as f64;
                let mean = routed.iter().sum::<u64>() as f64 / routed.len().max(1) as f64;
                m.load_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
                r.latency
            }
        };
        m.p50_secs = latency.quantile_secs(0.5).unwrap_or(f64::NAN);
        m.p99_secs = latency.quantile_secs(0.99).unwrap_or(f64::NAN);
        m
    }

    /// Offered requests that did not complete.
    pub fn failed(&self) -> u64 {
        self.refused + self.shed + self.abandoned
    }

    /// Checks request conservation: every offered request completed, was
    /// refused, shed or abandoned — exactly once.
    pub fn check_conservation(&self) -> Result<(), String> {
        let ended = self.completed + self.refused + self.shed + self.abandoned;
        if ended != self.offered {
            return Err(format!(
                "conservation: completed {} + refused {} + shed {} + abandoned {} = {ended}, \
                 offered {}",
                self.completed, self.refused, self.shed, self.abandoned, self.offered
            ));
        }
        if !(self.p50_secs.is_finite() && self.p99_secs.is_finite()) {
            return Err("no completions to take latency quantiles over".into());
        }
        Ok(())
    }

    /// Bit-for-bit equality: the shortest round-trip rendering of each
    /// float differs whenever its bits do.
    pub fn identical(&self, other: &SimMetrics) -> bool {
        format!("{self:?}") == format!("{other:?}")
    }

    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.completed as f64
    }

    /// Share of offered requests that completed within the SLO; refused,
    /// shed and abandoned requests count as misses.
    pub fn slo_attainment(&self) -> f64 {
        self.goodput as f64 / self.offered as f64
    }

    pub fn served_frac(&self) -> f64 {
        self.completed as f64 / self.offered as f64
    }
}
