//! The benchmark's vocabulary: every workload and every metric, by name.
//!
//! `BENCHMARK.json`, `ccbench list`, `ccbench compare` and the result
//! files all read these tables, so a name means one thing everywhere
//! (a unit test pins `BENCHMARK.json` to them).

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move before `compare` calls it a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the base median by which the metric may get worse.
    Share(f64),
    /// Must be 0 in every run (`fail_share`).
    Zero,
    /// Must repeat bit for bit per seed (simulated cost, fingerprints).
    Exact,
    /// Reported, never gated (per-layer metrics).
    None,
}

impl Bound {
    pub fn describe(self) -> String {
        match self {
            Bound::Share(s) => format!("{:.0} %", s * 100.0),
            Bound::Zero => "0 absolute".into(),
            Bound::Exact => "exact".into(),
            Bound::None => "-".into(),
        }
    }
}

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The untraced run: client-side clocks and `/proc`.
    Run,
    /// The benchmark's own `Tracer` attached through `set_tracer`.
    Sink,
    /// A layer's public functions timed alone on the workload's inputs.
    Replay,
    /// The daemon's `stats` / `spans` / `metrics` / `health` ops.
    Proto,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Run => "run",
            Source::Sink => "sink",
            Source::Replay => "replay",
            Source::Proto => "proto",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub source: Source,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        source: Source::Run,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Bound::None,
        source,
        what,
    }
}

/// A per-layer count that must repeat bit for bit per seed.
const fn exact(
    name: &'static str,
    unit: &'static str,
    source: Source,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better: Lower,
        bound: Bound::Exact,
        source,
        what,
    }
}

use Better::{Higher, Lower};
use Source::{Proto, Replay, Sink};

/// The ten end-to-end metrics, reported for every workload by the
/// untraced run. The first six are never 0 and carry a relative bound,
/// so they are the ones `BENCHMARK.json` lists; `fail_share` and the
/// three simulated costs are gated by `compare` (0 absolute / exact).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        Bound::Share(0.25),
        "round start to first timed op: input generation, daemon spawn to first health ok, warm-up",
    ),
    e2e(
        "op_p50_ms",
        "ms",
        Lower,
        Bound::Share(0.25),
        "median op latency",
    ),
    e2e(
        "op_tail_ms",
        "ms",
        Lower,
        Bound::Share(0.25),
        "the workload's tail percentile, lowered until 10 samples lie beyond it",
    ),
    e2e(
        "ops_per_s",
        "1/s",
        Higher,
        Bound::Share(0.25),
        "timed ops over the wall time of the timed section",
    ),
    e2e(
        "cpu_ms_per_op",
        "ms",
        Lower,
        Bound::Share(0.25),
        "user+sys CPU of the work process over ops",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        Bound::Share(0.25),
        "VmHWM of the work process",
    ),
    e2e(
        "fail_share",
        "ratio",
        Lower,
        Bound::Zero,
        "failed over attempted ops",
    ),
    e2e(
        "sim_rounds_per_op",
        "rounds",
        Lower,
        Bound::Exact,
        "simulated rounds over ops",
    ),
    e2e(
        "sim_messages_per_op",
        "messages",
        Lower,
        Bound::Exact,
        "simulated messages over ops",
    ),
    e2e(
        "sim_words_per_op",
        "words",
        Lower,
        Bound::Exact,
        "simulated words over ops",
    ),
];

/// The per-layer metrics of the traced run, prefixed by crate.
pub const PER_LAYER: &[Metric] = &[
    // cc-graph
    layer("graph.gen_ms", "ms", Lower, Replay, "generate one input"),
    layer(
        "graph.oracle_ms",
        "ms",
        Lower,
        Replay,
        "validate one output against the oracle",
    ),
    // cc-sketch
    layer(
        "sketch.build_ns_per_incidence",
        "ns",
        Lower,
        Replay,
        "sketch_neighborhood_with over the workload's adjacency",
    ),
    layer(
        "sketch.wire_ns_per_word",
        "ns",
        Lower,
        Replay,
        "to_words + sketch_from_words",
    ),
    layer(
        "sketch.merge_ns_per_word",
        "ns",
        Lower,
        Replay,
        "add_assign_sketch",
    ),
    layer("sketch.sample_ns", "ns", Lower, Replay, "one sample_edge"),
    layer(
        "sketch.sample_fail_share",
        "ratio",
        Lower,
        Replay,
        "Fail over non-zero sample attempts",
    ),
    layer(
        "sketch.span_ms",
        "ms",
        Lower,
        Replay,
        "spanning_forest_via_sketches over all families",
    ),
    layer(
        "sketch.words_per_sketch",
        "words",
        Lower,
        Replay,
        "wire words of one sketch",
    ),
    exact(
        "sketch.fingerprint",
        "hash",
        Replay,
        "FNV fold of every built sketch's wire words, mod 1e9+7",
    ),
    // cc-net
    exact(
        "net.rounds",
        "rounds",
        Sink,
        "simulated rounds per op, counted at RoundEnd/FastForward",
    ),
    exact(
        "net.messages",
        "messages",
        Sink,
        "simulated messages per op",
    ),
    exact("net.words", "words", Sink, "simulated words per op"),
    layer(
        "net.round_wall_ms",
        "ms",
        Lower,
        Sink,
        "sum of RoundWall per op",
    ),
    layer(
        "net.node_compute_ms",
        "ms",
        Lower,
        Sink,
        "node callbacks per op: NodeCompute, or the slowest WorkerSpan of each round",
    ),
    layer(
        "net.overhead_ms",
        "ms",
        Lower,
        Sink,
        "round wall minus node compute: delivery, metering, admission, barriers",
    ),
    layer(
        "net.host_ns_per_message",
        "ns",
        Lower,
        Sink,
        "net.overhead_ms over net.messages",
    ),
    layer(
        "net.us_per_empty_round",
        "us",
        Lower,
        Replay,
        "one step with a no-op callback at the workload's n",
    ),
    layer(
        "net.new_ms",
        "ms",
        Lower,
        Replay,
        "Net::new and drop at the workload's n",
    ),
    // cc-route
    layer(
        "route.a2a_ms",
        "ms",
        Lower,
        Sink,
        "self time of route:all-to-all* scopes per op",
    ),
    layer(
        "route.route_ms",
        "ms",
        Lower,
        Sink,
        "self time of route:route scopes per op",
    ),
    layer(
        "route.sort_ms",
        "ms",
        Lower,
        Sink,
        "self time of route:sort scopes per op",
    ),
    layer(
        "route.gather_ms",
        "ms",
        Lower,
        Sink,
        "self time of route:gather scopes per op",
    ),
    layer(
        "route.bcast_ms",
        "ms",
        Lower,
        Sink,
        "self time of route:broadcast-* scopes per op",
    ),
    layer("route.calls", "count", Lower, Sink, "route:* scopes per op"),
    layer(
        "route.rounds_per_call",
        "rounds",
        Lower,
        Sink,
        "rounds inside route:* scopes over calls",
    ),
    layer(
        "route.a2a_ns_per_message",
        "ns",
        Lower,
        Replay,
        "all_to_all_share at the workload's n",
    ),
    layer(
        "route.skew_ns_per_message",
        "ns",
        Lower,
        Replay,
        "route with every packet addressed to node 0",
    ),
    layer(
        "route.sort_ns_per_key",
        "ns",
        Lower,
        Replay,
        "distributed_sort of n keys per node",
    ),
    layer(
        "route.fragment_ns_per_word",
        "ns",
        Lower,
        Replay,
        "fragment + reassemble of one sketch bundle",
    ),
    // cc-lotker
    layer(
        "lotker.phase_ms",
        "ms",
        Lower,
        Sink,
        "inclusive time of lotker-phase-* scopes per op",
    ),
    layer(
        "lotker.local_ms",
        "ms",
        Lower,
        Sink,
        "lotker-phase-* self time (nested route:* excluded) per op",
    ),
    layer(
        "lotker.phases",
        "count",
        Lower,
        Sink,
        "lotker-phase-* scopes per op",
    ),
    // cc-kkt
    layer(
        "kkt.sample_ns_per_edge",
        "ns",
        Lower,
        Replay,
        "sample_edges at p = 1/sqrt(n)",
    ),
    layer(
        "kkt.classify_ns_per_edge",
        "ns",
        Lower,
        Replay,
        "FLightClassifier::new + f_light_edges",
    ),
    layer(
        "kkt.light_share",
        "ratio",
        Lower,
        Replay,
        "F-light edges over input edges",
    ),
    // cc-core
    layer(
        "core.gc.phase1_ms",
        "ms",
        Lower,
        Sink,
        "self time of phase1* scopes per op",
    ),
    layer(
        "core.gc.phase2_ms",
        "ms",
        Lower,
        Sink,
        "self time of phase2 (SKETCHANDSPAN) per op",
    ),
    layer(
        "core.gc.output_ms",
        "ms",
        Lower,
        Sink,
        "self time of output-broadcast per op",
    ),
    layer(
        "core.mst.component_graph_ms",
        "ms",
        Lower,
        Sink,
        "self time of exact-mst:component-graph per op",
    ),
    layer(
        "core.mst.sq_sample_ms",
        "ms",
        Lower,
        Sink,
        "self time of exact-mst:sq-mst-sample and its unlisted sq-mst:* scopes",
    ),
    layer(
        "core.mst.sq_light_ms",
        "ms",
        Lower,
        Sink,
        "self time of exact-mst:sq-mst-light and its unlisted sq-mst:* scopes",
    ),
    layer(
        "core.sq.sketches_ms",
        "ms",
        Lower,
        Sink,
        "self time of sq-mst:sketches per op",
    ),
    layer(
        "core.sq.filter_ms",
        "ms",
        Lower,
        Sink,
        "self time of sq-mst:filter per op",
    ),
    layer(
        "core.kt1.mwoe_ms",
        "ms",
        Lower,
        Sink,
        "self time of kt1-mst:mwoe-search per op",
    ),
    layer(
        "core.kt1.merge_ms",
        "ms",
        Lower,
        Sink,
        "self time of kt1-mst:merge-report per op",
    ),
    layer(
        "core.kt1.relabel_ms",
        "ms",
        Lower,
        Sink,
        "self time of kt1-mst:relabel per op",
    ),
    layer(
        "core.driver_share",
        "ratio",
        Lower,
        Sink,
        "share of op time outside any RoundWall",
    ),
    // cc-runtime
    layer(
        "runtime.serial_op_ms",
        "ms",
        Lower,
        Replay,
        "the op on Runtime::serial (the workload's own p50)",
    ),
    layer(
        "runtime.parallel_op_ms",
        "ms",
        Lower,
        Replay,
        "the same op replayed on Runtime::parallel_with_threads(2)",
    ),
    layer(
        "runtime.parallel_over_serial",
        "ratio",
        Lower,
        Replay,
        "parallel over serial op time (base: serial)",
    ),
    layer(
        "runtime.us_per_round_serial",
        "us",
        Lower,
        Replay,
        "serial op time over rounds",
    ),
    layer(
        "runtime.us_per_round_parallel",
        "us",
        Lower,
        Replay,
        "parallel op time over rounds",
    ),
    layer(
        "runtime.worker_busy_share",
        "ratio",
        Higher,
        Sink,
        "sum of WorkerSpan over threads x sum of RoundWall",
    ),
    layer(
        "runtime.threads",
        "threads",
        Higher,
        Sink,
        "worker threads of the parallel backend",
    ),
    // cc-serve
    layer(
        "serve.queue_wait_p50_ms",
        "ms",
        Lower,
        Proto,
        "median admission-to-pickup of cold jobs",
    ),
    layer(
        "serve.compute_p50_ms",
        "ms",
        Lower,
        Proto,
        "median pickup-to-finish of cold jobs",
    ),
    layer(
        "serve.stream_p50_ms",
        "ms",
        Lower,
        Proto,
        "median client latency minus the daemon's own span",
    ),
    layer(
        "serve.cache_hit_share",
        "ratio",
        Higher,
        Proto,
        "cache hits over submissions",
    ),
    layer(
        "serve.coalesced_share",
        "ratio",
        Higher,
        Proto,
        "coalesced answers over submissions",
    ),
    layer(
        "serve.cold_runs",
        "count",
        Lower,
        Proto,
        "jobs executed by a worker",
    ),
    layer(
        "serve.evictions",
        "count",
        Lower,
        Proto,
        "result-cache evictions",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        Proto,
        "submissions turned away",
    ),
    layer(
        "serve.tcp_rtt_ms",
        "ms",
        Lower,
        Proto,
        "health round trip over TCP, idle daemon",
    ),
    layer(
        "serve.stdio_rtt_ms",
        "ms",
        Lower,
        Proto,
        "health round trip over stdio, idle daemon",
    ),
    layer(
        "serve.response_bytes_per_job",
        "bytes",
        Lower,
        Proto,
        "bytes the client read per job",
    ),
    layer(
        "serve.lines_per_job",
        "lines",
        Lower,
        Proto,
        "response lines per job",
    ),
    layer(
        "serve.spawn_ms",
        "ms",
        Lower,
        Proto,
        "daemon spawn to first health ok",
    ),
    layer(
        "serve.parse_us_per_submit",
        "us",
        Lower,
        Replay,
        "parse_request on the workload's submit lines",
    ),
    layer(
        "serve.digest_us_per_job",
        "us",
        Lower,
        Replay,
        "JobSpec::cache_key",
    ),
    layer(
        "serve.execute_ms",
        "ms",
        Lower,
        Replay,
        "execute with NullTracer, median over the job mix",
    ),
    layer(
        "serve.instrumented_over_bare",
        "ratio",
        Lower,
        Replay,
        "daemon compute p50 over serve.execute_ms (base: bare)",
    ),
    // cc-trace, cc-lens, cc-profile, cc-obs, and the benchmark itself
    layer(
        "trace.events_per_op",
        "events",
        Lower,
        Replay,
        "trace events one op emits",
    ),
    layer(
        "trace.recording_over_null",
        "ratio",
        Lower,
        Replay,
        "execute under a recording tracer over NullTracer (base: null)",
    ),
    layer(
        "trace.jsonl_ns_per_event",
        "ns",
        Lower,
        Replay,
        "JsonlTracer into memory",
    ),
    layer(
        "lens.fold_ns_per_event",
        "ns",
        Lower,
        Replay,
        "CommLedger::fold",
    ),
    layer(
        "profile.fold_ns_per_event",
        "ns",
        Lower,
        Replay,
        "Profile::from_events",
    ),
    layer(
        "obs.exposition_ms",
        "ms",
        Lower,
        Proto,
        "metrics op round trip after the load",
    ),
    layer(
        "bench.trace_overhead",
        "ratio",
        Lower,
        Replay,
        "traced over untraced op_p50_ms of this workload (base: untraced)",
    ),
];

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Timed ops of the fixed-count `run` (split over [`ROUNDS`] rounds).
    pub ops: usize,
    /// The tail percentile reported when enough samples support it.
    pub tail_pct: u32,
    /// One line for `BENCHMARK.json` and `list`.
    pub why: &'static str,
}

/// Rounds per workload and run; each is a child process of the runner.
pub const ROUNDS: usize = 3;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "gc-reduce",
        ops: 60,
        tail_pct: 75,
        why: "Theorem 4 at paper parameters, n=512: Phase 1 finishes the forest, so Lotker all-to-all, routing and broadcast do the work and cc-sketch is idle",
    },
    Workload {
        name: "gc-span",
        ops: 90,
        tail_pct: 75,
        why: "SKETCHANDSPAN alone (phases=0), n=48: every vertex ships its sketches to v*, so skewed routing, fragments and sketch Boruvka do the work and cc-lotker is idle",
    },
    Workload {
        name: "mst-kkt",
        ops: 360,
        tail_pct: 90,
        why: "Theorem 7 with one Lotker phase on a dense clique, n=64: KKT sampling, F-light filtering, distributed sort and both SQ-MST calls run",
    },
    Workload {
        name: "kt1-sparse",
        ops: 90,
        tail_pct: 75,
        why: "Theorem 13 low-message regime, n=96, degree 6: thousands of near-empty rounds and small sketches, so per-round and per-sketch fixed costs dominate",
    },
    Workload {
        name: "rt-engines",
        ops: 600,
        tail_pct: 95,
        why: "run_connectivity on the serial cc-runtime backend, n=32: the only in-tree program on cc-runtime, a thousand rounds of the engine's own exchange; the parallel backend is replayed per layer",
    },
    Workload {
        name: "sketch-kernel",
        ops: 300,
        tail_pct: 90,
        why: "F_p kernels alone, n=8192: build every neighbourhood sketch, merge to zero, sample 256; no simulator, so kernel work has a place to show",
    },
    Workload {
        name: "serve-dup",
        ops: 420,
        tail_pct: 95,
        why: "serve over TCP, 2 closed-loop clients, 9 in 10 jobs repeat a recent key: cache, coalescing, response writer and the socket path dominate",
    },
    Workload {
        name: "serve-cold",
        ops: 240,
        tail_pct: 90,
        why: "serve over stdio, 8 jobs in flight, every job distinct, cache of 8: queue wait, traced execute, lens fold and artifact streaming dominate",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_trace::Json;

    #[test]
    fn counts_match_the_issue() {
        assert_eq!(WORKLOADS.len(), 8);
        assert_eq!(END_TO_END.len(), 10);
        assert_eq!(PER_LAYER.len(), 79);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above (names, units, directions, bounds, reasons).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let listed: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bounded: Vec<&Metric> = END_TO_END
            .iter()
            .filter(|m| matches!(m.bound, Bound::Share(_)))
            .collect();
        assert_eq!(e2e.len(), bounded.len());
        for (j, m) in e2e.iter().zip(&bounded) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.tag());
            assert_eq!(
                Bound::Share(j.get("bound").and_then(Json::as_f64).unwrap()),
                m.bound
            );
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.tag());
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            &[Json::Str("benchmark".into())]
        );
    }
}
