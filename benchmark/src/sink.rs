//! The benchmark's own `Tracer`: turns the event stream a `Net` or
//! `Runtime` emits into in-memory spans with counts, one tree per op.
//!
//! A span is a cost scope (`begin_scope` / `end_scope`); the root span is
//! the op itself. Rounds are not spans of their own — an op runs
//! thousands — but every `RoundEnd`, `RoundWall`, `NodeCompute` and
//! `WorkerSpan` is counted into the innermost open span, so each span
//! carries the rounds, messages, words and host time spent directly in
//! it. A span's self time is its duration minus its child spans.

use cc_trace::{Event, Json, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What happened directly inside one span (children excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub messages: u64,
    pub words: u64,
    /// Sum of `RoundWall`.
    pub round_wall_ns: u64,
    /// Node callbacks: sum of `NodeCompute`, or the slowest `WorkerSpan`
    /// of each round (a round waits for its slowest worker).
    pub compute_ns: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.round_wall_ns += other.round_wall_ns;
        self.compute_ns += other.compute_ns;
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for the op root.
    pub parent: Option<usize>,
    pub counts: Counts,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Every span of one op; `spans[0]` is the op itself.
#[derive(Clone, Debug, Default)]
pub struct OpTrace {
    pub op: u64,
    pub spans: Vec<Span>,
    /// Events the traced component delivered, message batches included.
    pub events: u64,
    /// Sum of every `WorkerSpan`.
    pub worker_ns: u64,
    /// Worker threads seen in `WorkerSpan`s.
    pub workers: u32,
}

impl OpTrace {
    /// Self time per span: duration minus the child spans' durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Counts per span with every descendant's folded in.
    fn inclusive_counts(&self) -> Vec<Counts> {
        let mut all: Vec<Counts> = self.spans.iter().map(|s| s.counts).collect();
        // A child is always pushed after its parent.
        for i in (1..self.spans.len()).rev() {
            if let Some(p) = self.spans[i].parent {
                let child = all[i];
                all[p].add(&child);
            }
        }
        all
    }

    /// The span dump: name, start, end, cause, op id and counts.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("op", Json::UInt(self.op)),
                    ("rounds", Json::UInt(s.counts.rounds)),
                    ("messages", Json::UInt(s.counts.messages)),
                    ("words", Json::UInt(s.counts.words)),
                    ("round_wall_ns", Json::UInt(s.counts.round_wall_ns)),
                    ("compute_ns", Json::UInt(s.counts.compute_ns)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("op", Json::UInt(self.op)),
            ("events", Json::UInt(self.events)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Where finished op traces collect; the harness keeps one handle and
/// gives each op's sink a clone.
pub type Collected = Arc<Mutex<Vec<OpTrace>>>;

/// The tracer attached to one op's `Net` or `Runtime`. It keeps its state
/// to itself while the op runs and hands the finished trace to the shared
/// collection when the traced component drops it, so the per-event path
/// takes no lock.
pub struct Sink {
    epoch: Instant,
    trace: OpTrace,
    open: Vec<usize>,
    round_compute_ns: u64,
    round_slowest_worker_ns: u64,
    out: Collected,
}

impl Sink {
    /// Opens the root span of op `op`; times are relative to `epoch`.
    pub fn new(op: u64, epoch: Instant, out: &Collected) -> Sink {
        let mut sink = Sink {
            epoch,
            trace: OpTrace {
                op,
                ..OpTrace::default()
            },
            open: Vec::new(),
            round_compute_ns: 0,
            round_slowest_worker_ns: 0,
            out: Arc::clone(out),
        };
        let now = sink.now_ns();
        sink.enter_at("op", now);
        sink
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span the benchmark itself wraps around a call.
    pub fn enter(&mut self, name: &str) {
        let now = self.now_ns();
        self.enter_at(name, now);
    }

    /// Closes the innermost span opened by [`Sink::enter`].
    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    pub fn enter_at(&mut self, name: &str, now_ns: u64) {
        self.trace.spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns,
            end_ns: now_ns,
            parent: self.open.last().copied(),
            counts: Counts::default(),
        });
        self.open.push(self.trace.spans.len() - 1);
    }

    pub fn exit_at(&mut self, now_ns: u64) {
        if let Some(i) = self.open.pop() {
            self.trace.spans[i].end_ns = now_ns;
        }
    }

    fn current(&mut self) -> &mut Counts {
        let i = *self
            .open
            .last()
            .expect("the op span stays open until finish");
        &mut self.trace.spans[i].counts
    }

    pub fn record_at(&mut self, event: &Event, now_ns: u64) {
        self.trace.events += 1;
        match event {
            Event::ScopeEnter { name, .. } => self.enter_at(name, now_ns),
            // The root is closed by `finish`, never by an unbalanced exit.
            Event::ScopeExit { .. } if self.open.len() > 1 => self.exit_at(now_ns),
            Event::NodeCompute { nanos, .. } => self.round_compute_ns += nanos,
            Event::WorkerSpan { nanos, worker, .. } => {
                self.trace.worker_ns += nanos;
                self.trace.workers = self.trace.workers.max(worker + 1);
                self.round_slowest_worker_ns = self.round_slowest_worker_ns.max(*nanos);
            }
            Event::RoundWall { nanos, .. } => {
                let compute = self.round_compute_ns + self.round_slowest_worker_ns;
                self.round_compute_ns = 0;
                self.round_slowest_worker_ns = 0;
                let c = self.current();
                c.round_wall_ns += nanos;
                c.compute_ns += compute;
            }
            Event::RoundEnd {
                messages, words, ..
            } => {
                let c = self.current();
                c.rounds += 1;
                c.messages += messages;
                c.words += words;
            }
            Event::FastForward { rounds, .. } => self.current().rounds += rounds,
            _ => {}
        }
    }

    /// Closes every open span at `now_ns` and returns the trace.
    pub fn finish_at(&mut self, now_ns: u64) -> OpTrace {
        while !self.open.is_empty() {
            self.exit_at(now_ns);
        }
        std::mem::take(&mut self.trace)
    }
}

impl Tracer for Sink {
    fn record(&mut self, event: Event) {
        // Only spans need the clock; message batches, most of the stream,
        // must not pay for reading it.
        let now = match event {
            Event::ScopeEnter { .. } | Event::ScopeExit { .. } => self.now_ns(),
            _ => 0,
        };
        self.record_at(&event, now);
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        if self.trace.spans.is_empty() {
            return; // already finished by hand
        }
        let now = self.now_ns();
        let trace = self.finish_at(now);
        if let Ok(mut out) = self.out.lock() {
            out.push(trace);
        }
    }
}

/// The per-layer metric a scope's self time is charged to. Scopes that
/// name none are transparent: their self time goes to the nearest
/// enclosing scope that does, so the layers of an op add up.
fn scope_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "phase1" | "phase1:cc-mst" | "phase1:component-graph" => "core.gc.phase1_ms",
        "phase2" => "core.gc.phase2_ms",
        "output-broadcast" => "core.gc.output_ms",
        "exact-mst:component-graph" => "core.mst.component_graph_ms",
        "exact-mst:sq-mst-sample" => "core.mst.sq_sample_ms",
        "exact-mst:sq-mst-light" => "core.mst.sq_light_ms",
        "sq-mst:sketches" => "core.sq.sketches_ms",
        "sq-mst:filter" => "core.sq.filter_ms",
        "kt1-mst:mwoe-search" => "core.kt1.mwoe_ms",
        "kt1-mst:merge-report" => "core.kt1.merge_ms",
        "kt1-mst:relabel" => "core.kt1.relabel_ms",
        "route:all-to-all" | "route:all-to-all-personalized" => "route.a2a_ms",
        "route:route" => "route.route_ms",
        "route:sort" => "route.sort_ms",
        "route:gather" => "route.gather_ms",
        "route:broadcast-small" | "route:broadcast-large" => "route.bcast_ms",
        n if n.starts_with("lotker-phase-") => "lotker.local_ms",
        _ => return None,
    })
}

/// Calls and inclusive simulated cost of one scope name, per op: the
/// exact counts that show which layers a workload does and does not use.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScopeCount {
    pub calls: f64,
    pub rounds: f64,
    pub messages: f64,
    pub words: f64,
}

/// What the sink's traces say about the layers, per op.
#[derive(Clone, Debug, Default)]
pub struct SinkReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub scopes: BTreeMap<String, ScopeCount>,
}

const MS: f64 = 1e-6;

/// Folds the traced ops of one workload into per-layer metrics.
///
/// A time metric appears only if a scope charged to it ran; the counts
/// (`net.*`, `route.calls`, `lotker.phases`) always appear, so a layer a
/// workload leaves idle reads as an exact 0.
pub fn report(traces: &[OpTrace]) -> SinkReport {
    let mut out = SinkReport::default();
    if traces.is_empty() {
        return out;
    }
    let ops = traces.len() as f64;
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = Counts::default();
    let (mut op_ns, mut events, mut worker_ns, mut workers) = (0u64, 0u64, 0u64, 0u32);
    let (mut route_calls, mut route_rounds) = (0u64, 0u64);
    let (mut lotker_phases, mut lotker_ns) = (0u64, 0u64);

    for trace in traces {
        let own = trace.self_ns();
        let inclusive = trace.inclusive_counts();
        op_ns += trace.spans[0].duration_ns();
        events += trace.events;
        worker_ns += trace.worker_ns;
        workers = workers.max(trace.workers);
        for (i, span) in trace.spans.iter().enumerate() {
            total.add(&span.counts);
            if i == 0 {
                continue;
            }
            if span.name.starts_with("route:") {
                route_calls += 1;
                route_rounds += span.counts.rounds;
            }
            if span.name.starts_with("lotker-phase-") {
                lotker_phases += 1;
                lotker_ns += span.duration_ns();
            }
            let mut at = Some(i);
            while let Some(j) = at.filter(|&j| j != 0) {
                if let Some(metric) = scope_metric(&trace.spans[j].name) {
                    *self_ns.entry(metric).or_default() += own[i];
                    break;
                }
                at = trace.spans[j].parent;
            }
            let scope = out.scopes.entry(span.name.clone()).or_default();
            scope.calls += 1.0 / ops;
            scope.rounds += inclusive[i].rounds as f64 / ops;
            scope.messages += inclusive[i].messages as f64 / ops;
            scope.words += inclusive[i].words as f64 / ops;
        }
    }

    let m = &mut out.metrics;
    for (metric, ns) in self_ns {
        m.insert(metric, ns as f64 * MS / ops);
    }
    if total.rounds == 0 {
        return out; // nothing simulated: the spans are the benchmark's own
    }
    m.insert("trace.events_per_op", events as f64 / ops);
    m.insert("net.rounds", total.rounds as f64 / ops);
    m.insert("net.messages", total.messages as f64 / ops);
    m.insert("net.words", total.words as f64 / ops);
    m.insert("net.round_wall_ms", total.round_wall_ns as f64 * MS / ops);
    m.insert("net.node_compute_ms", total.compute_ns as f64 * MS / ops);
    let overhead_ns = total.round_wall_ns.saturating_sub(total.compute_ns);
    m.insert("net.overhead_ms", overhead_ns as f64 * MS / ops);
    if total.messages > 0 {
        m.insert(
            "net.host_ns_per_message",
            overhead_ns as f64 / total.messages as f64,
        );
    }
    m.insert(
        "core.driver_share",
        1.0 - total.round_wall_ns as f64 / op_ns.max(1) as f64,
    );
    m.insert("route.calls", route_calls as f64 / ops);
    if route_calls > 0 {
        m.insert(
            "route.rounds_per_call",
            route_rounds as f64 / route_calls as f64,
        );
    }
    m.insert("lotker.phases", lotker_phases as f64 / ops);
    if lotker_phases > 0 {
        m.insert("lotker.phase_ms", lotker_ns as f64 * MS / ops);
    }
    if workers > 0 && total.round_wall_ns > 0 {
        m.insert("runtime.threads", f64::from(workers));
        m.insert(
            "runtime.worker_busy_share",
            worker_ns as f64 / (f64::from(workers) * total.round_wall_ns as f64),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_trace::CostSnapshot;

    fn enter(name: &str) -> Event {
        Event::ScopeEnter {
            name: name.into(),
            round: 0,
        }
    }

    fn exit(name: &str) -> Event {
        Event::ScopeExit {
            name: name.into(),
            delta: CostSnapshot::default(),
        }
    }

    fn round(sink: &mut Sink, wall: u64, compute: &[u64], messages: u64) {
        for (node, &nanos) in compute.iter().enumerate() {
            let ev = Event::NodeCompute {
                round: 0,
                node: node as u32,
                nanos,
            };
            sink.record_at(&ev, 0);
        }
        sink.record_at(
            &Event::RoundWall {
                round: 0,
                nanos: wall,
            },
            0,
        );
        sink.record_at(
            &Event::RoundEnd {
                round: 0,
                messages,
                words: 2 * messages,
            },
            0,
        );
    }

    /// op[0..1000] { phase1[100..700] { lotker-phase-0[200..600] {
    /// route:all-to-all[300..400] } } phase2[700..900] { sq-mst:rank[750..800] } }
    fn synthetic() -> OpTrace {
        let out = Collected::default();
        let mut sink = Sink::new(9, Instant::now(), &out);
        sink.trace.spans[0].start_ns = 0;
        sink.record_at(&enter("phase1"), 100);
        sink.record_at(&enter("lotker-phase-0"), 200);
        round(&mut sink, 50, &[10, 20], 6);
        sink.record_at(&enter("route:all-to-all"), 300);
        round(&mut sink, 80, &[5, 5], 30);
        sink.record_at(&exit("route:all-to-all"), 400);
        sink.record_at(&exit("lotker-phase-0"), 600);
        sink.record_at(&exit("phase1"), 700);
        sink.record_at(&enter("phase2"), 700);
        sink.record_at(&enter("sq-mst:rank"), 750);
        sink.record_at(&exit("sq-mst:rank"), 800);
        sink.record_at(&exit("phase2"), 900);
        sink.finish_at(1000)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = synthetic();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "op",
                "phase1",
                "lotker-phase-0",
                "route:all-to-all",
                "phase2",
                "sq-mst:rank"
            ]
        );
        assert_eq!(trace.self_ns(), [200, 200, 300, 100, 150, 50]);
        assert_eq!(trace.spans[3].parent, Some(2));
        assert_eq!(trace.spans[4].parent, Some(0));
        // Rounds count into the innermost open span only.
        assert_eq!(trace.spans[2].counts.messages, 6);
        assert_eq!(trace.spans[3].counts.messages, 30);
        assert_eq!(trace.spans[3].counts.compute_ns, 10);
        assert_eq!(trace.spans[0].counts, Counts::default());
    }

    #[test]
    fn report_charges_layers_and_counts_exactly() {
        let r = report(&[synthetic()]);
        let m = &r.metrics;
        assert_eq!(m["core.gc.phase1_ms"], 200.0 * MS);
        assert_eq!(m["lotker.local_ms"], 300.0 * MS);
        assert_eq!(m["lotker.phase_ms"], 400.0 * MS);
        assert_eq!(m["route.a2a_ms"], 100.0 * MS);
        // sq-mst:rank names no metric: its 50 ns go to phase2.
        assert_eq!(m["core.gc.phase2_ms"], 200.0 * MS);
        assert!(!m.contains_key("route.sort_ms"));
        assert_eq!(m["net.rounds"], 2.0);
        assert_eq!(m["net.messages"], 36.0);
        assert_eq!(m["net.words"], 72.0);
        assert_eq!(m["net.round_wall_ms"], 130.0 * MS);
        assert_eq!(m["net.node_compute_ms"], 40.0 * MS);
        assert_eq!(m["net.overhead_ms"], 90.0 * MS);
        assert_eq!(m["net.host_ns_per_message"], 2.5);
        assert_eq!(m["core.driver_share"], 1.0 - 130.0 / 1000.0);
        assert_eq!(m["route.calls"], 1.0);
        assert_eq!(m["route.rounds_per_call"], 1.0);
        assert_eq!(m["lotker.phases"], 1.0);
        // Inclusive counts per scope name.
        assert_eq!(r.scopes["phase1"].messages, 36.0);
        assert_eq!(r.scopes["phase2"].messages, 0.0);
        assert_eq!(r.scopes["route:all-to-all"].rounds, 1.0);
    }

    #[test]
    fn parallel_rounds_wait_for_the_slowest_worker() {
        let out = Collected::default();
        let mut sink = Sink::new(0, Instant::now(), &out);
        for (worker, nanos) in [(0u32, 40u64), (1, 60)] {
            let ev = Event::WorkerSpan {
                round: 0,
                worker,
                node_lo: 0,
                node_hi: 1,
                nanos,
            };
            sink.record_at(&ev, 0);
        }
        round(&mut sink, 100, &[], 1);
        drop(sink);
        let traces = out.lock().unwrap();
        assert_eq!(traces.len(), 1, "a dropped sink hands its trace over");
        assert_eq!(traces[0].spans[0].counts.compute_ns, 60);
        let m = report(&traces).metrics;
        assert_eq!(m["runtime.threads"], 2.0);
        assert_eq!(m["runtime.worker_busy_share"], 0.5);
    }
}
