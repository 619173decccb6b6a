//! The metric catalog (names and units, as `BENCHMARK.json` lists them)
//! and the one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A reported metric: its name and unit.
pub type Def = (&'static str, &'static str);

/// What a user of the simulator sees, printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    ("sim_req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("hit_rate", "ratio"),
    ("slo_attainment", "ratio"),
    ("sim_p50_latency_s", "sim_s"),
    ("sim_p99_latency_s", "sim_s"),
    ("served_frac", "ratio"),
    ("gpu_hours", "gpu_h"),
];

/// One layer each, printed by the traced run. Layers a workload does not
/// exercise report 0.
pub const PER_LAYER: &[Def] = &[
    ("workload.trace_build_s", "s"),
    ("workload.repeat_prompt_frac", "ratio"),
    ("embedding.encode_ns", "ns"),
    ("embedding.encode_calls", "count"),
    ("embedding.approx_hit_drift", "ratio"),
    ("cache.calls", "count"),
    ("cache.self_s", "s"),
    ("cache.ns_per_call", "ns"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("fleet.routing.calls", "count"),
    ("fleet.routing.self_s", "s"),
    ("fleet.routing.ns_per_call", "ns"),
    ("fleet.load_imbalance", "ratio"),
    ("simkit.event_heap.calls", "count"),
    ("simkit.event_heap.self_s", "s"),
    ("simkit.event_heap.ns_per_call", "ns"),
    ("core.fair_queue.calls", "count"),
    ("core.fair_queue.self_s", "s"),
    ("core.admission.calls", "count"),
    ("core.admission.self_s", "s"),
    ("core.shed_sweep.calls", "count"),
    ("core.shed_sweep.self_s", "s"),
    ("core.rejected", "count"),
    ("core.shed", "count"),
    ("core.queue_wait_p50_s", "sim_s"),
    ("core.queue_wait_p99_s", "sim_s"),
    ("core.small_model_frac", "ratio"),
    ("core.model_switches", "count"),
    ("metrics.mean_clip_score", "score"),
    ("scenario.offers", "count"),
    ("scenario.reoffers", "count"),
    ("scenario.abandoned", "count"),
    ("scenario.redelivered", "count"),
    ("scenario.amplification", "ratio"),
    ("telemetry.self_s", "s"),
    ("telemetry.ns_per_event", "ns"),
    ("trace.self_s", "s"),
    ("trace.ns_per_event", "ns"),
    ("deploy.summary_s", "s"),
    ("deploy.events", "count"),
    ("mem.bytes_per_request", "B"),
    ("profile.attributed_frac", "ratio"),
    ("profile.unattributed_s", "s"),
    ("profile.overhead_frac", "ratio"),
    ("host.calib_ns", "ns"),
    ("host.runqueue_wait_frac", "ratio"),
];

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; the run is correct when this is empty.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for `catalog`. A metric the run did not produce,
    /// or one that is not a finite number, fails the run.
    pub fn to_json(&self, catalog: &[Def]) -> String {
        let mut failures = self.failures.clone();
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    failures.push(format!("{name} is {v}"));
                    0.0
                }
                None => {
                    failures.push(format!("{name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that round-trips the f64.
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_trace::{parse_json, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalog: &[Def]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        for catalog in [END_TO_END, PER_LAYER] {
            let mut outcome = Outcome {
                attempted: 10,
                ..Outcome::default()
            };
            for (i, (name, _)) in catalog.iter().enumerate() {
                outcome.set(name, i as f64 + 0.25);
            }
            let line = parse_json(&outcome.to_json(catalog)).expect("valid JSON");
            assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
            let metrics = line.get("metrics").expect("metrics");
            for (i, (name, unit)) in catalog.iter().enumerate() {
                let m = metrics.get(name).expect(name);
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
                assert_eq!(
                    m.get("value").and_then(JsonValue::as_f64),
                    Some(i as f64 + 0.25)
                );
            }
        }
    }

    #[test]
    fn missing_or_non_finite_metric_fails_the_run() {
        let mut outcome = Outcome::default();
        outcome.set("sim_req_per_s", f64::NAN);
        let line = parse_json(&outcome.to_json(END_TO_END)).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(false)));
    }
}
