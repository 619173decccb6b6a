//! Benchmark of the MoDM serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded process builds the workload's trace from the seed
//! and its deployment (set-up, repeated), runs one untimed warm-up
//! simulation, then repeats timed simulations for `--seconds`. With
//! `--trace 1` it finally runs the same seed once more under the
//! self-profiler, a span recorder and timing wrappers around the
//! workload's own observers, and reports per-layer metrics instead of the
//! end-to-end ones. Every simulation is checked for request conservation
//! and for bit-identical simulated metrics. The last line of standard
//! output is the JSON result; a human-readable log goes to standard
//! error. `NOTES.md` explains the workloads and metrics.

mod host;
mod metrics;
mod observe;
mod sim;
mod workload;

use std::collections::HashSet;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use modm_cluster::GpuKind;
use modm_deploy::{MultiObserver, RunOutcome};
use modm_diffusion::ModelId;
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_metrics::SloThresholds;
use modm_simkit::profile::{ProfileReport, Profiler, Subsystem};
use modm_telemetry::{TelemetryConfig, TelemetryObserver};
use modm_trace::{TraceConfig, TraceObserver};
use modm_workload::Trace;

use crate::host::{median, quantile, Calibration};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::observe::{SpanRecorder, TimedObserver};
use crate::sim::SimMetrics;
use crate::workload::{Deployed, Workload, SLO_MULTIPLE};

/// Set-up samples taken before the warm-up, and again after every timed
/// repetition. One set-up takes milliseconds, too short for a single
/// sample to be steady, and host speed drifts within a run; samples spread
/// over the run see the same host the repetitions see.
const SETUP_FIRST: usize = 5;
const SETUP_PER_REPETITION: usize = 3;
/// Every deployment's large model, the reference for "small model" share.
const LARGE_MODEL: ModelId = ModelId::Sd35Large;
/// Where the traced run writes its spans, relative to the checkout.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(catalog));
    ExitCode::SUCCESS
}

/// The operator's observers the watched workload runs under.
struct Watch {
    telemetry: TelemetryObserver,
    trace: TraceObserver,
}

impl Watch {
    fn new() -> Self {
        let slo = SloThresholds::for_deployment(GpuKind::Mi210, LARGE_MODEL);
        Watch {
            telemetry: TelemetryObserver::new(TelemetryConfig::new(slo.bound_secs(SLO_MULTIPLE))),
            trace: TraceObserver::new(TraceConfig::new()),
        }
    }
}

/// One simulation of the deployment, under the workload's own observers.
fn simulate(workload: Workload, deployed: &mut Deployed, trace: &Trace) -> RunOutcome {
    let Deployed { backend, options } = deployed;
    if workload.watched() {
        let mut watch = Watch::new();
        let mut all = MultiObserver::new()
            .with(&mut watch.telemetry)
            .with(&mut watch.trace);
        backend.run_observed(trace, *options, &mut all)
    } else {
        backend.run_with(trace, *options)
    }
}

/// Checks every simulation of a run against the first and keeps the
/// attempted/failed tally.
struct Ledger {
    offered: u64,
    reference: Option<SimMetrics>,
    outcome: Outcome,
}

impl Ledger {
    /// Records one simulation; `identity` is false for the shadow run,
    /// whose index differs on purpose.
    fn record(&mut self, label: &str, m: SimMetrics, identity: bool) {
        self.outcome.attempted += m.offered;
        let mut ok = true;
        if let Err(e) = m.check_conservation() {
            self.outcome.failures.push(format!("{label}: {e}"));
            ok = false;
        }
        if identity {
            match &self.reference {
                None => self.reference = Some(m),
                Some(r) if !r.identical(&m) => {
                    self.outcome.failures.push(format!(
                        "{label}: simulated metrics differ from the warm-up run"
                    ));
                    ok = false;
                }
                Some(_) => {}
            }
        }
        self.outcome.failed += if ok { m.failed() } else { m.offered };
    }

    fn fail(&mut self, message: String) {
        self.outcome.failures.push(message);
        self.outcome.failed += self.offered;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host time of each set-up: trace build from the seed, then deployment
/// construction.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    trace_build_s: Vec<f64>,
}

impl SetupTimes {
    fn sample(&mut self, w: Workload, seed: u64) -> (Trace, Deployed) {
        let start = Instant::now();
        let trace = w.trace(seed);
        let built = start.elapsed();
        let deployed = w.deploy();
        self.setup_s.push(secs(start.elapsed()));
        self.trace_build_s.push(secs(built));
        (trace, deployed)
    }
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let rss_base = host::status_bytes("VmRSS").unwrap_or(0);
    let calibration = Calibration::new();
    let calib_before = calibration.scan_ns();

    let mut setup = SetupTimes::default();
    for _ in 1..SETUP_FIRST {
        drop(setup.sample(w, args.seed));
    }
    let (trace, mut deployed) = setup.sample(w, args.seed);
    let offered = w.offered(&trace);
    let mut ledger = Ledger {
        offered,
        reference: None,
        outcome: Outcome::default(),
    };

    // One untimed warm-up simulation, then timed repetitions: each times
    // the deployment run plus building its summary.
    let mut warm = simulate(w, &mut deployed, &trace);
    let summary = warm.summary(SLO_MULTIPLE);
    ledger.record(
        "warm-up",
        SimMetrics::from_outcome(warm, &summary, offered),
        true,
    );

    let mut rates = Vec::new();
    let mut run_s = Vec::new();
    let mut summary_s = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let wait_before = host::runqueue_wait_ns();
    let section = Instant::now();
    while rates.is_empty() || section.elapsed() < budget {
        let start = Instant::now();
        let mut outcome = simulate(w, &mut deployed, &trace);
        let ran = start.elapsed();
        let summary = outcome.summary(SLO_MULTIPLE);
        let total = secs(start.elapsed());
        rates.push(summary.completed as f64 / total);
        run_s.push(total);
        summary_s.push(total - secs(ran));
        let label = format!("repetition {}", rates.len());
        ledger.record(
            &label,
            SimMetrics::from_outcome(outcome, &summary, offered),
            true,
        );
        for _ in 0..SETUP_PER_REPETITION {
            drop(setup.sample(w, args.seed));
        }
    }
    let section_s = secs(section.elapsed());
    let runqueue_wait_frac = match (wait_before, host::runqueue_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9 / section_s,
        _ => 0.0,
    };
    let calib_after = calibration.scan_ns();
    let peak_rss = host::status_bytes("VmHWM").unwrap_or(0);
    let untraced_s = median(&run_s);

    eprintln!(
        "{} seed {}: {} requests offered, {} timed repetitions of {:.3} s median \
         (min {:.3}, max {:.3}); set-up {:.4} s; calibration scan {:.0} ns before, {:.0} ns after; \
         run-queue wait {:.2}% of the timed section",
        w.name(),
        args.seed,
        offered,
        run_s.len(),
        untraced_s,
        quantile(&run_s, 0.0),
        quantile(&run_s, 1.0),
        median(&setup.setup_s),
        calib_before,
        calib_after,
        runqueue_wait_frac * 100.0
    );

    let Some(m) = ledger.reference else {
        ledger.fail("no simulation completed".into());
        return ledger.outcome;
    };
    if !args.trace {
        let o = &mut ledger.outcome;
        o.set("sim_req_per_s", median(&rates));
        o.set("setup_s", median(&setup.setup_s));
        o.set("peak_rss_mib", peak_rss as f64 / (1024.0 * 1024.0));
        o.set("hit_rate", m.hit_rate());
        o.set("slo_attainment", m.slo_attainment());
        o.set("sim_p50_latency_s", m.p50_secs);
        o.set("sim_p99_latency_s", m.p99_secs);
        o.set("served_frac", m.served_frac());
        o.set("gpu_hours", m.gpu_hours);
        return ledger.outcome;
    }

    // The traced run: the same seed once more under the profiler, the
    // span recorder and timing wrappers around the workload's observers.
    let mut recorder = SpanRecorder::new(LARGE_MODEL);
    let mut watch = Watch::new();
    let (mut outcome, traced_run_s, prof, telemetry, tracing) = {
        let mut telemetry = TimedObserver::new(&mut watch.telemetry);
        let mut tracing = TimedObserver::new(&mut watch.trace);
        let profiler = Profiler::start();
        let start = Instant::now();
        let outcome = if w.watched() {
            let mut all = MultiObserver::new()
                .with(&mut telemetry)
                .with(&mut tracing)
                .with(&mut recorder);
            deployed
                .backend
                .run_observed(&trace, deployed.options, &mut all)
        } else {
            deployed
                .backend
                .run_observed(&trace, deployed.options, &mut recorder)
        };
        let ran = secs(start.elapsed());
        let report = profiler.report();
        let timings = (
            (telemetry.nanos, telemetry.ns_per_event()),
            (tracing.nanos, tracing.ns_per_event()),
        );
        (outcome, ran, report, timings.0, timings.1)
    };
    let start = Instant::now();
    let summary = outcome.summary(SLO_MULTIPLE);
    let traced_summary_s = secs(start.elapsed());
    let traced_wall_s = traced_run_s + traced_summary_s;
    let traced = SimMetrics::from_outcome(outcome, &summary, offered);
    ledger.record("traced run", traced, true);
    match recorder.finish(offered) {
        Ok(t) => {
            if (t.completed, t.shed, t.refused) != (m.completed, m.shed, m.refused + m.abandoned) {
                ledger.fail(format!(
                    "traced terminals {t:?} disagree with the report \
                     (completed {}, shed {}, refused {} + abandoned {})",
                    m.completed, m.shed, m.refused, m.abandoned
                ));
            }
        }
        Err(violations) => ledger.fail(format!("traced run: {}", violations.join("; "))),
    }
    write_spans(&recorder, w, args.seed);

    // Approximation drift: the same deployment with exact probes.
    let drift = match w.exact_shadow() {
        Some(mut shadow) => {
            let mut outcome = simulate(w, &mut shadow, &trace);
            let summary = outcome.summary(SLO_MULTIPLE);
            let exact = SimMetrics::from_outcome(outcome, &summary, offered);
            ledger.record("exact shadow run", exact, false);
            (m.hit_rate() - exact.hit_rate()).abs()
        }
        None => 0.0,
    };

    // Prompt encoding replayed through a fresh encoder, as the
    // simulation does once per request.
    let encoder = TextEncoder::new(SemanticSpace::default());
    let start = Instant::now();
    for request in trace.iter() {
        std::hint::black_box(encoder.encode(std::hint::black_box(&request.prompt)));
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / trace.len() as f64;
    let mut seen = HashSet::new();
    let repeats = trace
        .iter()
        .filter(|r| !seen.insert(r.prompt.as_str()))
        .count();

    let o = &mut ledger.outcome;
    o.set("workload.trace_build_s", median(&setup.trace_build_s));
    o.set(
        "workload.repeat_prompt_frac",
        repeats as f64 / trace.len() as f64,
    );
    o.set("embedding.encode_ns", encode_ns);
    o.set("embedding.encode_calls", trace.len() as f64);
    o.set("embedding.approx_hit_drift", drift);
    profiled(
        o,
        &prof,
        Subsystem::ImageCache,
        &["cache.calls", "cache.self_s", "cache.ns_per_call"],
    );
    o.set("cache.inserts", m.cache_inserts as f64);
    o.set("cache.evictions", m.cache_evictions as f64);
    profiled(
        o,
        &prof,
        Subsystem::Routing,
        &[
            "fleet.routing.calls",
            "fleet.routing.self_s",
            "fleet.routing.ns_per_call",
        ],
    );
    o.set("fleet.load_imbalance", m.load_imbalance);
    profiled(
        o,
        &prof,
        Subsystem::EventHeap,
        &[
            "simkit.event_heap.calls",
            "simkit.event_heap.self_s",
            "simkit.event_heap.ns_per_call",
        ],
    );
    profiled(
        o,
        &prof,
        Subsystem::FairQueue,
        &["core.fair_queue.calls", "core.fair_queue.self_s"],
    );
    profiled(
        o,
        &prof,
        Subsystem::Admission,
        &["core.admission.calls", "core.admission.self_s"],
    );
    profiled(
        o,
        &prof,
        Subsystem::ShedSweep,
        &["core.shed_sweep.calls", "core.shed_sweep.self_s"],
    );
    o.set("core.rejected", recorder.refusals as f64);
    o.set("core.shed", m.shed as f64);
    let waits = &recorder.queue_waits_secs;
    let wait_q = |q: f64| {
        if waits.is_empty() {
            0.0
        } else {
            quantile(waits, q)
        }
    };
    o.set("core.queue_wait_p50_s", wait_q(0.5));
    o.set("core.queue_wait_p99_s", wait_q(0.99));
    o.set(
        "core.small_model_frac",
        recorder.small_dispatches as f64 / recorder.dispatches.max(1) as f64,
    );
    o.set("core.model_switches", recorder.model_switches as f64);
    o.set("metrics.mean_clip_score", m.mean_clip.unwrap_or(0.0));
    o.set("scenario.offers", m.offers as f64);
    o.set("scenario.reoffers", m.reoffers as f64);
    o.set("scenario.abandoned", m.abandoned as f64);
    o.set("scenario.redelivered", m.redelivered as f64);
    o.set("scenario.amplification", m.amplification);
    let (telemetry_ns, telemetry_per_event) = telemetry;
    let (trace_ns, trace_per_event) = tracing;
    o.set("telemetry.self_s", telemetry_ns as f64 / 1e9);
    o.set("telemetry.ns_per_event", telemetry_per_event);
    o.set("trace.self_s", trace_ns as f64 / 1e9);
    o.set("trace.ns_per_event", trace_per_event);
    o.set("deploy.summary_s", median(&summary_s));
    o.set("deploy.events", recorder.events as f64);
    o.set(
        "mem.bytes_per_request",
        peak_rss.saturating_sub(rss_base) as f64 / offered as f64,
    );
    let attributed_s =
        (prof.total_nanos() + telemetry_ns + trace_ns) as f64 / 1e9 + traced_summary_s;
    o.set("profile.attributed_frac", attributed_s / traced_wall_s);
    o.set("profile.unattributed_s", traced_wall_s - attributed_s);
    o.set("profile.overhead_frac", traced_wall_s / untraced_s - 1.0);
    o.set("host.calib_ns", median(&[calib_before, calib_after]));
    o.set("host.runqueue_wait_frac", runqueue_wait_frac);
    ledger.outcome
}

/// Sets a profiler scope's `[calls, self_s, ns_per_call]` metrics; the
/// per-call mean is optional.
fn profiled(o: &mut Outcome, report: &ProfileReport, sub: Subsystem, names: &[&'static str]) {
    o.set(names[0], report.calls(sub) as f64);
    o.set(names[1], report.nanos(sub) as f64 / 1e9);
    if let Some(name) = names.get(2) {
        o.set(name, report.mean_nanos(sub));
    }
}

/// Writes the traced run's spans as CSV under `SPAN_DIR`. The spans are
/// a by-product for inspection, so a failed write is logged, not fatal.
fn write_spans(recorder: &SpanRecorder, w: Workload, seed: u64) {
    let path = Path::new(SPAN_DIR).join(format!("spans-{}-{seed}.csv", w.name()));
    let written = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| File::create(&path))
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            recorder.write_csv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!(
            "wrote {} spans to {}",
            recorder.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
