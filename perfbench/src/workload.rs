//! The benchmark's workloads: each turns a seed into a trace and builds
//! the deployment that serves it.
//!
//! Every workload replays open-loop arrivals in simulated time at a rate
//! below its SLO knee, so latency measures serving rather than backlog
//! drain. Why each one exists is written down in `NOTES.md`.

use modm_cluster::GpuKind;
use modm_core::{IndexPolicy, MoDMConfig, TenancyPolicy, TenantShare};
use modm_deploy::{DeployOptions, Deployment, ServingBackend};
use modm_fleet::{RoutingConfig, RoutingPolicy, SemanticClusterer};
use modm_scenario::{RetryPolicy, Scenario, ScenarioAction, ScenarioScript, TwoRegion};
use modm_workload::{QosClass, TenantId, TenantMix, Trace, TraceBuilder};

/// SLO multiple (× large-model latency) every workload is judged at.
pub const SLO_MULTIPLE: f64 = 2.0;

/// The named workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleMjhq,
    FleetDiffusionDb,
    ScenarioStormFailover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SingleMjhq,
        Workload::FleetDiffusionDb,
        Workload::ScenarioStormFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleMjhq => "single-mjhq",
            Workload::FleetDiffusionDb => "fleet-diffusiondb",
            Workload::ScenarioStormFailover => "scenario-storm-failover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace this workload replays for `seed`: a pure function of
    /// the seed.
    pub fn trace(self, seed: u64) -> Trace {
        match self {
            Workload::SingleMjhq => TraceBuilder::mjhq(seed)
                .requests(single::WARMUP + single::SERVED)
                .rate_per_min(single::RATE_PER_MIN)
                .build(),
            Workload::FleetDiffusionDb => TraceBuilder::diffusion_db(seed)
                .requests(fleet::REQUESTS)
                .rate_per_min(fleet::RATE_PER_MIN)
                .build(),
            Workload::ScenarioStormFailover => {
                let script = storm::script();
                TraceBuilder::diffusion_db(seed)
                    .tenants(script.workload_tenants())
                    .build_over(script.horizon_mins())
            }
        }
    }

    /// Builds the deployment; it depends on nothing but the workload.
    pub fn deploy(self) -> Deployed {
        match self {
            Workload::SingleMjhq => Deployed {
                backend: Box::new(Deployment::single(MoDMConfig::builder().build())),
                options: DeployOptions {
                    warmup: single::WARMUP,
                    saturate: false,
                },
            },
            Workload::FleetDiffusionDb => Deployed {
                backend: Box::new(fleet::deployment(IndexPolicy::Approx)),
                options: DeployOptions::default(),
            },
            Workload::ScenarioStormFailover => Deployed {
                backend: Box::new(storm::scenario()),
                options: DeployOptions::default(),
            },
        }
    }

    /// The same deployment with every similarity probe forced to
    /// `Exact`, for the traced pass's approximation-drift shadow run;
    /// `None` when the workload already probes exactly.
    pub fn exact_shadow(self) -> Option<Deployed> {
        match self {
            Workload::FleetDiffusionDb => Some(Deployed {
                backend: Box::new(fleet::deployment(IndexPolicy::Exact)),
                options: DeployOptions::default(),
            }),
            _ => None,
        }
    }

    /// Requests the deployment serves and reports on (the single tier's
    /// cache warm-up prefix is excluded from its metrics).
    pub fn offered(self, trace: &Trace) -> u64 {
        match self {
            Workload::SingleMjhq => (trace.len() - single::WARMUP) as u64,
            _ => trace.len() as u64,
        }
    }

    /// Whether the workload attaches the operator's telemetry and trace
    /// observers to every run.
    pub fn watched(self) -> bool {
        self == Workload::ScenarioStormFailover
    }
}

/// A constructed deployment and the options it runs under.
pub struct Deployed {
    pub backend: Box<dyn ServingBackend>,
    pub options: DeployOptions,
}

/// The paper's cluster: 16× MI210, a 10k-entry FIFO cache and the exact
/// index, all `MoDMConfig` defaults.
mod single {
    /// Requests that fill the 10k-entry cache before serving starts, so
    /// every miss inserts into a full cache and evicts.
    pub const WARMUP: usize = 10_000;
    pub const SERVED: usize = 10_000;
    pub const RATE_PER_MIN: f64 = 14.0;
}

/// The million-request bench's fleet shape.
mod fleet {
    use super::*;

    pub const NODES: usize = 64;
    pub const GPUS_PER_NODE: usize = 2;
    pub const CACHE_PER_NODE: usize = 128;
    pub const MAX_LEADERS: usize = 512;
    pub const REQUESTS: usize = 100_000;
    pub const RATE_PER_MIN: f64 = 30.0;

    pub fn deployment(index_policy: IndexPolicy) -> Deployment {
        let node = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, GPUS_PER_NODE)
            .cache_capacity(CACHE_PER_NODE)
            .index_policy(index_policy)
            .build();
        let clusterer = SemanticClusterer::new(SemanticClusterer::DEFAULT_THRESHOLD, MAX_LEADERS);
        Deployment::fleet(
            node,
            RoutingConfig::new(RoutingPolicy::CacheAffinity, NODES)
                .clusterer(clusterer)
                .index_policy(index_policy)
                .build(),
        )
    }
}

/// Two regions under weighted-fair tenancy. Four token-bucket-limited
/// tenants each go viral once (a script gives a tenant one flash crowd),
/// two homed in each region; region 1 is lost mid-run and its backlog is
/// redelivered to region 0 with half of its cache handed off.
mod storm {
    use super::*;

    const STEADY: TenantId = TenantId(1);
    const INTERACTIVE: TenantId = TenantId(4);
    /// `(tenant, minute its crowd arrives)`; tenants home in region
    /// `id % 2`, and the third crowd hits after the region loss.
    const CROWDS: [(TenantId, f64); 4] = [
        (TenantId(2), 200.0),
        (TenantId(3), 600.0),
        (TenantId(6), 1_100.0),
        (TenantId(7), 1_500.0),
    ];
    const CROWD_BASE_PER_MIN: f64 = 1.0;
    const CROWD_MINS: f64 = 3.0;
    const CROWD_MULTIPLIER: f64 = 10.0;
    /// Per-node token bucket of every crowd tenant: 2 req/min across a
    /// region, twice its base rate, so surges are refused and retried.
    const CROWD_LIMIT_PER_MIN: f64 = 1.0;
    const CROWD_BURST: f64 = 4.0;
    const NODES_PER_REGION: usize = 4;
    const GPUS_PER_NODE: usize = 6;
    const CACHE_PER_NODE: usize = 400;
    const CACHE_RESERVE: usize = 40;
    const HORIZON_MINS: f64 = 1_700.0;
    const LOSS_AT_MINS: f64 = 900.0;

    pub fn script() -> ScenarioScript {
        let mut tenants = vec![
            TenantMix::new(STEADY, QosClass::Standard, 5.0),
            TenantMix::new(INTERACTIVE, QosClass::Interactive, 3.0),
        ];
        tenants.extend(
            CROWDS
                .iter()
                .map(|&(tenant, _)| TenantMix::new(tenant, QosClass::Standard, CROWD_BASE_PER_MIN)),
        );
        let mut script = ScenarioScript::new(HORIZON_MINS, tenants);
        for (tenant, at_mins) in CROWDS {
            script = script.with_action(ScenarioAction::FlashCrowd {
                tenant,
                at_mins,
                duration_mins: CROWD_MINS,
                multiplier: CROWD_MULTIPLIER,
            });
        }
        script.with_action(ScenarioAction::RegionLoss {
            at_mins: LOSS_AT_MINS,
            region: 1,
        })
    }

    pub fn scenario() -> Scenario {
        let mut shares = vec![
            TenantShare::new(STEADY, 1.0).with_cache_reserve(CACHE_RESERVE),
            TenantShare::new(INTERACTIVE, 2.0).with_cache_reserve(CACHE_RESERVE),
        ];
        shares.extend(
            CROWDS.iter().map(|&(tenant, _)| {
                TenantShare::new(tenant, 1.0).with_cache_reserve(CACHE_RESERVE)
            }),
        );
        let tenancy = CROWDS.iter().fold(
            TenancyPolicy::weighted_fair(shares),
            |policy, &(tenant, _)| policy.with_rate_limit(tenant, CROWD_LIMIT_PER_MIN, CROWD_BURST),
        );
        let node = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, GPUS_PER_NODE)
            .cache_capacity(CACHE_PER_NODE)
            .tenancy(tenancy)
            .build();
        // Clients honour `retry_after` and keep retrying until served: the
        // surges are refused and re-offered, never abandoned.
        let retry = RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::honoring()
        };
        Scenario::new(
            node,
            script(),
            TwoRegion::new(NODES_PER_REGION).with_handoff_fraction(0.5),
        )
        .expect("the storm-failover script validates against its policy")
        .with_retry(retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.trace(7);
            let b = w.trace(7);
            assert_eq!(
                a.requests(),
                b.requests(),
                "{} is not reproducible",
                w.name()
            );
            assert!(
                w.offered(&a) >= 10_000,
                "{} completes too few requests",
                w.name()
            );
            let other = w.trace(8);
            assert_ne!(
                a.requests(),
                other.requests(),
                "{} ignores its seed",
                w.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("elastic-diurnal"), None);
    }
}
