//! The benchmark's own observers: a span recorder that checks request
//! conservation, and a wrapper that times another observer from outside.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

use modm_core::events::{Observer, SimEvent};
use modm_diffusion::ModelId;
use modm_simkit::SimTime;

/// The stages a request's spans cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First offer to final terminal; the parent of every other span.
    Request,
    /// Admitted → cache hit/miss decision.
    Admit,
    /// Cache decision (or admission) → dispatched to a worker.
    Queue,
    /// Dispatched → completed.
    Service,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Admit => "admit",
            Stage::Queue => "queue",
            Stage::Service => "service",
        }
    }
}

/// One span: host and simulated stamps at both ends, and the index of
/// the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub stage: Stage,
    pub parent: Option<u32>,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start: SimTime,
    pub sim_end: SimTime,
}

/// How a request's closed loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Shed,
    /// Refused at admission; provisional, since a retry or a redelivery
    /// may offer the same id again.
    Refused,
}

/// An in-flight request: its root span and the open child span.
#[derive(Debug, Clone, Copy)]
struct Open {
    root: u32,
    child: Option<u32>,
    admitted_at: Option<SimTime>,
}

/// Terminal counts a finished stream must agree with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Terminals {
    pub completed: u64,
    pub shed: u64,
    pub refused: u64,
}

const MAX_REPORTED_VIOLATIONS: usize = 8;

/// Folds the event stream into per-request spans, stamping host and
/// simulated time on every event, and checks that every request id ends
/// in exactly one terminal.
pub struct SpanRecorder {
    start: Instant,
    large_model: ModelId,
    open: HashMap<u64, Open>,
    outcome: HashMap<u64, Outcome>,
    spans: Vec<Span>,
    violations: Vec<String>,
    violation_count: u64,
    pub events: u64,
    pub refusals: u64,
    pub queue_waits_secs: Vec<f64>,
    pub dispatches: u64,
    pub small_dispatches: u64,
    worker_model: HashMap<(usize, usize), ModelId>,
    pub model_switches: u64,
}

impl SpanRecorder {
    pub fn new(large_model: ModelId) -> Self {
        SpanRecorder {
            start: Instant::now(),
            large_model,
            open: HashMap::new(),
            outcome: HashMap::new(),
            spans: Vec::new(),
            violations: Vec::new(),
            violation_count: 0,
            events: 0,
            refusals: 0,
            queue_waits_secs: Vec::new(),
            dispatches: 0,
            small_dispatches: 0,
            worker_model: HashMap::new(),
            model_switches: 0,
        }
    }

    fn violation(&mut self, message: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED_VIOLATIONS {
            self.violations.push(message);
        }
    }

    fn open_span(&mut self, request: u64, stage: Stage, parent: Option<u32>, at: SimTime) -> u32 {
        let host = self.start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request,
            stage,
            parent,
            host_start_ns: host,
            host_end_ns: host,
            sim_start: at,
            sim_end: at,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    fn close_span(&mut self, span: u32, at: SimTime) {
        let host = self.start.elapsed().as_nanos() as u64;
        let span = &mut self.spans[span as usize];
        span.host_end_ns = host;
        span.sim_end = at;
    }

    /// The request's open state, starting its root span if this is the
    /// first event seen for it (or its first re-offer after a refusal).
    fn open_request(&mut self, id: u64, at: SimTime) -> Open {
        if let Some(open) = self.open.get(&id) {
            return *open;
        }
        let root = self.open_span(id, Stage::Request, None, at);
        let open = Open {
            root,
            child: None,
            admitted_at: None,
        };
        self.open.insert(id, open);
        open
    }

    /// Moves an open request to its next child span.
    fn advance(&mut self, id: u64, at: SimTime, next: Option<Stage>) -> Open {
        let mut open = self.open_request(id, at);
        if let Some(child) = open.child.take() {
            self.close_span(child, at);
        }
        open.child = next.map(|stage| self.open_span(id, stage, Some(open.root), at));
        self.open.insert(id, open);
        open
    }

    fn terminate(&mut self, id: u64, at: SimTime, outcome: Outcome) {
        match self.outcome.get(&id) {
            Some(Outcome::Completed | Outcome::Shed) => {
                self.violation(format!(
                    "request {id}: second terminal ({outcome:?}) at {:.3}s",
                    at.as_secs_f64()
                ));
                return;
            }
            Some(Outcome::Refused) | None => {}
        }
        let open = self.advance(id, at, None);
        self.close_span(open.root, at);
        self.open.remove(&id);
        self.outcome.insert(id, outcome);
    }

    /// Ends the stream: every request must have reached exactly one
    /// final terminal, and exactly `offered` ids must have been seen.
    /// Returns the terminal counts, or the violations found.
    pub fn finish(&mut self, offered: u64) -> Result<Terminals, Vec<String>> {
        if !self.open.is_empty() {
            let n = self.open.len();
            self.violation(format!("{n} requests never reached a terminal"));
        }
        if self.outcome.len() as u64 != offered {
            let seen = self.outcome.len();
            self.violation(format!("{seen} request ids terminated, {offered} offered"));
        }
        if self.violation_count > 0 {
            let mut report = self.violations.clone();
            report.push(format!("{} violations in total", self.violation_count));
            return Err(report);
        }
        let mut t = Terminals::default();
        for outcome in self.outcome.values() {
            match outcome {
                Outcome::Completed => t.completed += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::Refused => t.refused += 1,
            }
        }
        Ok(t)
    }

    /// Writes every span as CSV: the causal parent is a row index.
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "span,request,stage,parent,host_start_ns,host_end_ns,sim_start_s,sim_end_s"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{},{parent},{},{},{},{}",
                s.request,
                s.stage.label(),
                s.host_start_ns,
                s.host_end_ns,
                s.sim_start.as_secs_f64(),
                s.sim_end.as_secs_f64()
            )?;
        }
        Ok(())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Observer for SpanRecorder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events += 1;
        match *event {
            SimEvent::Admitted { request_id, .. } => {
                if matches!(
                    self.outcome.get(&request_id),
                    Some(Outcome::Completed | Outcome::Shed)
                ) {
                    self.violation(format!("request {request_id}: admitted after its terminal"));
                }
                // A refusal was provisional: the id is offered again.
                self.outcome.remove(&request_id);
                // A re-admission of an open id is a redelivery.
                let mut open = self.advance(request_id, at, Some(Stage::Admit));
                open.admitted_at = Some(at);
                self.open.insert(request_id, open);
            }
            SimEvent::CacheHit { request_id, .. } | SimEvent::CacheMiss { request_id, .. } => {
                self.advance(request_id, at, Some(Stage::Queue));
            }
            SimEvent::Dispatched {
                node,
                worker,
                request_id,
                model,
                ..
            } => {
                let open = self.advance(request_id, at, Some(Stage::Service));
                if let Some(admitted) = open.admitted_at {
                    self.queue_waits_secs
                        .push(at.saturating_since(admitted).as_secs_f64());
                }
                self.dispatches += 1;
                if model != self.large_model {
                    self.small_dispatches += 1;
                }
                if let Some(previous) = self.worker_model.insert((node, worker), model) {
                    if previous != model {
                        self.model_switches += 1;
                    }
                }
            }
            SimEvent::Completed { request_id, .. } => {
                let ended = matches!(
                    self.outcome.get(&request_id),
                    Some(Outcome::Completed | Outcome::Shed)
                );
                if !ended && !self.open.contains_key(&request_id) {
                    self.violation(format!(
                        "request {request_id}: completed but never admitted"
                    ));
                }
                self.terminate(request_id, at, Outcome::Completed);
            }
            SimEvent::ShedDeadline { request_id, .. } => {
                self.terminate(request_id, at, Outcome::Shed);
            }
            SimEvent::Rejected { request_id, .. } => {
                self.refusals += 1;
                self.terminate(request_id, at, Outcome::Refused);
            }
            SimEvent::ScaleUp { .. }
            | SimEvent::NodeActive { .. }
            | SimEvent::ScaleDown { .. }
            | SimEvent::Decommissioned { .. }
            | SimEvent::Crash { .. }
            | SimEvent::RecoveryStarted { .. } => {}
        }
    }
}

/// Times every `on_event` of the wrapped observer from outside.
pub struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    pub nanos: u64,
    pub events: u64,
}

impl<'a> TimedObserver<'a> {
    pub fn new(inner: &'a mut dyn Observer) -> Self {
        TimedObserver {
            inner,
            nanos: 0,
            events: 0,
        }
    }

    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.nanos as f64 / self.events as f64
        }
    }
}

impl Observer for TimedObserver<'_> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        let start = Instant::now();
        self.inner.on_event(at, event);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TenantId;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn feed(events: &[(f64, SimEvent)]) -> SpanRecorder {
        let mut recorder = SpanRecorder::new(ModelId::Sd35Large);
        for (secs, event) in events {
            recorder.on_event(at(*secs), event);
        }
        recorder
    }

    fn admitted(id: u64) -> SimEvent {
        SimEvent::Admitted {
            node: 0,
            request_id: id,
            tenant: TenantId::DEFAULT,
        }
    }

    fn miss(id: u64) -> SimEvent {
        SimEvent::CacheMiss {
            node: 0,
            request_id: id,
            tenant: TenantId::DEFAULT,
        }
    }

    fn dispatched(id: u64, model: ModelId) -> SimEvent {
        SimEvent::Dispatched {
            node: 0,
            worker: 0,
            request_id: id,
            tenant: TenantId::DEFAULT,
            model,
        }
    }

    fn completed(id: u64) -> SimEvent {
        SimEvent::Completed {
            node: 0,
            request_id: id,
            tenant: TenantId::DEFAULT,
            latency_secs: 1.0,
            hit: false,
        }
    }

    fn rejected(id: u64) -> SimEvent {
        SimEvent::Rejected {
            node: 0,
            request_id: id,
            tenant: TenantId::DEFAULT,
            retry_after_secs: 5.0,
        }
    }

    #[test]
    fn well_formed_stream_folds_into_parented_spans() {
        let mut r = feed(&[
            (0.0, admitted(1)),
            (0.0, miss(1)),
            (2.0, dispatched(1, ModelId::Sd35Large)),
            (9.0, completed(1)),
            (1.0, rejected(2)),
            (6.0, admitted(2)),
            (6.0, miss(2)),
            (6.5, dispatched(2, ModelId::Sdxl)),
            (8.0, completed(2)),
        ]);
        let t = r.finish(2).expect("conserved");
        assert_eq!(
            t,
            Terminals {
                completed: 2,
                shed: 0,
                refused: 0
            }
        );
        assert_eq!(r.refusals, 1);
        assert_eq!(r.queue_waits_secs, vec![2.0, 0.5]);
        assert_eq!(
            (r.dispatches, r.small_dispatches, r.model_switches),
            (2, 1, 1)
        );
        let spans = r.spans();
        let root = spans[0];
        assert_eq!((root.stage, root.parent), (Stage::Request, None));
        assert_eq!(root.sim_end, at(9.0));
        assert!(spans[1..4].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[3].stage, Stage::Service);
        assert_eq!((spans[3].sim_start, spans[3].sim_end), (at(2.0), at(9.0)));
    }

    #[test]
    fn rejects_two_terminals_for_one_request() {
        let mut r = feed(&[
            (0.0, admitted(1)),
            (0.0, miss(1)),
            (1.0, dispatched(1, ModelId::Sd35Large)),
            (5.0, completed(1)),
            (6.0, completed(1)),
        ]);
        let err = r.finish(1).expect_err("a second terminal is a violation");
        assert!(err.iter().any(|e| e.contains("second terminal")), "{err:?}");
        assert_eq!(err.len(), 2, "one violation plus the total: {err:?}");
    }

    #[test]
    fn rejects_unterminated_and_missing_requests() {
        let mut r = feed(&[(0.0, admitted(1)), (0.0, miss(1))]);
        let err = r.finish(2).expect_err("request 1 never ended");
        assert!(err.iter().any(|e| e.contains("never reached a terminal")));
        assert!(err.iter().any(|e| e.contains("2 offered")));
    }

    #[test]
    fn redelivery_readmission_is_allowed() {
        let mut r = feed(&[
            (0.0, admitted(1)),
            (0.0, miss(1)),
            (3.0, admitted(1)),
            (3.0, miss(1)),
            (4.0, dispatched(1, ModelId::Sd35Large)),
            (8.0, completed(1)),
        ]);
        assert_eq!(r.finish(1).expect("conserved").completed, 1);
    }
}
