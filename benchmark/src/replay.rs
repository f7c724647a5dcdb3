//! Replay metrics: a layer's public functions timed alone, on the
//! workload's own inputs.
//!
//! The sink says how long an op spent inside a scope; a replay says what
//! one unit of a layer's work costs at that workload's `n`, universe and
//! degree distribution. A workload replays only the layers it calls.

use crate::sink::{self, Collected, Sink, SinkReport};
use crate::stats;
use crate::workloads::{
    adjacency, graph_adjacency, Gc, Kt1Sparse, Library, MstKkt, RtEngines, SketchKernel,
};
use cc_graph::{mst, WEdge, WGraph};
use cc_kkt::{sample_edges, FLightClassifier};
use cc_net::NetConfig;
use cc_route::{
    all_to_all_share, distributed_sort, fragment, reassemble, route, Net, Packet, RoutedPacket,
    SortItem,
};
use cc_sketch::{
    recommended_families, spanning_forest_via_sketches, EdgeSample, GraphSketchSpace,
    NeighborhoodScratch, Sketch,
};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// How long one replay item keeps repeating its call.
const ITEM_BUDGET: Duration = Duration::from_millis(40);

/// Worker threads of the parallel backend `rt-engines` replays: the
/// host's two cores.
const PARALLEL_THREADS: usize = 2;

/// Parallel ops `rt-engines` replays under a sink, for the worker spans.
const TRACED_PARALLEL_OPS: u64 = 3;

/// Sketches kept from a build pass for the wire, merge and sample items.
const KEPT_SKETCHES: usize = 256;

/// Median seconds of one call of `f`: at least three calls, then as many
/// as fit [`ITEM_BUDGET`].
pub fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (began.elapsed() < ITEM_BUDGET && samples.len() < 1000) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// What the traced section of the round already established.
pub struct Context<'a> {
    pub seed: u64,
    pub report: &'a SinkReport,
    /// Median latency of the round's untraced ops.
    pub untraced_p50_ms: f64,
}

pub trait Replay {
    fn replay(&self, ctx: &Context, m: &mut Metrics);
}

/// Which `cc-sketch` items a workload's code path reaches.
struct SketchItems {
    wire: bool,
    span: bool,
}

/// Unit costs of the `F_p` kernels over `adjacency` (vertex → neighbours).
fn sketch(m: &mut Metrics, adjacency: &[Vec<usize>], seed: u64, items: SketchItems) {
    let n = adjacency.len();
    let space = GraphSketchSpace::new(n, seed);
    let mut scratch = NeighborhoodScratch::default();
    let build = |v: usize, scratch: &mut NeighborhoodScratch| {
        space.sketch_neighborhood_with(v, adjacency[v].iter().copied(), scratch)
    };
    let incidences: usize = adjacency.iter().map(Vec::len).sum();
    let build_s = time(|| {
        for v in 0..n {
            black_box(build(v, &mut scratch));
        }
    });
    m.insert(
        "sketch.build_ns_per_incidence",
        build_s * 1e9 / incidences.max(1) as f64,
    );

    // One more pass, untimed: the fingerprint of everything built, and a
    // sample of sketches for the items below.
    let stride = n.div_ceil(KEPT_SKETCHES);
    let mut kept: Vec<Sketch> = Vec::new();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for v in 0..n {
        let sk = build(v, &mut scratch);
        for w in sk.to_words() {
            fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3) ^ w;
        }
        if v % stride == 0 {
            kept.push(sk);
        }
    }
    let words = space.sketch_words();
    let kept_words = (kept.len() * words) as f64;
    m.insert("sketch.fingerprint", (fingerprint % 1_000_000_007) as f64);
    m.insert("sketch.words_per_sketch", words as f64);

    if items.wire {
        let wire_s = time(|| {
            for sk in &kept {
                black_box(space.sketch_from_words(sk.to_words()));
            }
        });
        m.insert("sketch.wire_ns_per_word", wire_s * 1e9 / kept_words);
    }
    let merge_s = time(|| {
        let mut sum = space.zero_sketch();
        for sk in &kept {
            sum.add_assign_sketch(sk);
        }
        sum
    });
    m.insert("sketch.merge_ns_per_word", merge_s * 1e9 / kept_words);

    let mut outcomes = Vec::new();
    let sample_s = time(|| {
        outcomes.clear();
        outcomes.extend(kept.iter().map(|sk| space.sample_edge(sk)));
    });
    m.insert("sketch.sample_ns", sample_s * 1e9 / kept.len() as f64);
    let attempts = outcomes.iter().filter(|&&s| s != EdgeSample::Zero).count();
    let fails = outcomes.iter().filter(|&&s| s == EdgeSample::Fail).count();
    m.insert(
        "sketch.sample_fail_share",
        fails as f64 / attempts.max(1) as f64,
    );

    if items.span {
        let spaces = GraphSketchSpace::family(n, recommended_families(n), seed);
        let sketches: Vec<Vec<Sketch>> = spaces
            .iter()
            .map(|sp| {
                (0..n)
                    .map(|v| {
                        sp.sketch_neighborhood_with(v, adjacency[v].iter().copied(), &mut scratch)
                    })
                    .collect()
            })
            .collect();
        let ids: Vec<usize> = (0..n).collect();
        let span_s = time(|| spanning_forest_via_sketches(&spaces, &ids, &sketches));
        m.insert("sketch.span_ms", span_s * 1e3);
    }
}

/// Fixed costs of the round engine at the workload's `n`.
fn net(m: &mut Metrics, n: usize) {
    let cfg = NetConfig::kt1(n).with_seed(1);
    m.insert("net.new_ms", time(|| Net::new(cfg.clone())) * 1e3);
    const ROUNDS: usize = 64;
    let mut net = Net::new(cfg);
    let rounds_s = time(|| {
        for _ in 0..ROUNDS {
            net.step(|_, _, _| {})
                .expect("an empty round sends nothing");
        }
    });
    m.insert("net.us_per_empty_round", rounds_s * 1e6 / ROUNDS as f64);
}

/// Seconds per call and simulated messages per call of one collective.
fn per_message(net: &mut Net, mut call: impl FnMut(&mut Net)) -> f64 {
    let before = net.cost();
    call(net);
    let messages = net.cost().since(&before).messages;
    time(|| call(net)) * 1e9 / messages.max(1) as f64
}

/// Unit costs of the collectives the traced ops actually entered.
fn route_layer(m: &mut Metrics, n: usize, report: &SinkReport, fragments: bool) {
    let mut net = Net::new(NetConfig::kt1(n).with_seed(2));
    let link_words = net.config().link_words as usize;
    let ran = |metric: &str| report.metrics.contains_key(metric);

    if ran("route.a2a_ms") {
        let values: Vec<u64> = (0..n as u64).collect();
        let ns = per_message(&mut net, |net| {
            all_to_all_share(net, &values).expect("all-to-all");
        });
        m.insert("route.a2a_ns_per_message", ns);
    }
    if ran("route.route_ms") {
        // Every node ships a few full-size fragments to node 0, the way
        // SKETCHANDSPAN ships sketches to the coordinator.
        let payload: Packet = vec![7u64; link_words.saturating_sub(3).max(1)].into();
        let packets: Vec<RoutedPacket> = (1..n)
            .flat_map(|src| {
                std::iter::repeat_n(
                    RoutedPacket {
                        src,
                        dst: 0,
                        payload: payload.clone(),
                    },
                    8,
                )
            })
            .collect();
        let ns = per_message(&mut net, |net| {
            route(net, packets.clone()).expect("route");
        });
        m.insert("route.skew_ns_per_message", ns);
    }
    if ran("route.sort_ms") {
        let mut rng = crate::seed::rng(3, "replay/sort", 0);
        let items: Vec<Vec<SortItem>> = (0..n)
            .map(|v| (0..n).map(|j| [rng.gen(), v as u64, j as u64]).collect())
            .collect();
        let sort_s = time(|| distributed_sort(&mut net, items.clone()).expect("sort"));
        m.insert("route.sort_ns_per_key", sort_s * 1e9 / (n * n) as f64);
    }
    if fragments {
        let bundle: Vec<u64> = (0..16_384).collect();
        let chunk = link_words.saturating_sub(3).max(1);
        let frag_s = time(|| reassemble(fragment(&bundle, chunk)));
        m.insert(
            "route.fragment_ns_per_word",
            frag_s * 1e9 / bundle.len() as f64,
        );
    }
}

/// KKT sampling and F-light filtering on one input clique.
fn kkt(m: &mut Metrics, g: &WGraph, seed: u64) {
    let n = g.n();
    let edges: Vec<WEdge> = g.edges();
    let p = 1.0 / (n as f64).sqrt();
    let mut rng = crate::seed::rng(seed, "replay/kkt", 0);
    let sample_s = time(|| sample_edges(&edges, p, &mut rng));
    m.insert(
        "kkt.sample_ns_per_edge",
        sample_s * 1e9 / edges.len() as f64,
    );
    let sampled = WGraph::from_edges(n, sample_edges(&edges, p, &mut rng));
    let forest = mst::kruskal(&sampled);
    let mut light = 0;
    let classify_s = time(|| {
        light = FLightClassifier::new(n, &forest)
            .f_light_edges(&edges)
            .len();
    });
    m.insert(
        "kkt.classify_ns_per_edge",
        classify_s * 1e9 / edges.len() as f64,
    );
    m.insert("kkt.light_share", light as f64 / edges.len() as f64);
}

fn weighted_adjacency(g: &WGraph) -> Vec<Vec<usize>> {
    adjacency(g.n(), |v| g.neighbors(v).iter().map(|&(u, _)| u as usize))
}

impl Replay for Gc {
    fn replay(&self, ctx: &Context, m: &mut Metrics) {
        let g = &self.graphs[0];
        net(m, g.n());
        // Phase 2 is where GC sketches and fragments; a run that never
        // sends a Phase 2 message replays neither.
        let spans = ctx
            .report
            .scopes
            .get("phase2")
            .is_some_and(|s| s.messages > 0.0);
        route_layer(m, g.n(), ctx.report, spans);
        if spans {
            let items = SketchItems {
                wire: true,
                span: true,
            };
            sketch(m, &graph_adjacency(g), ctx.seed, items);
        }
    }
}

impl Replay for MstKkt {
    fn replay(&self, ctx: &Context, m: &mut Metrics) {
        let g = &self.graphs[0];
        net(m, g.n());
        route_layer(m, g.n(), ctx.report, true);
        kkt(m, g, ctx.seed);
        // SQ-MST sketches the KKT sample, not the clique.
        let p = 1.0 / (g.n() as f64).sqrt();
        let mut rng = crate::seed::rng(ctx.seed, "replay/sq-sample", 0);
        let sampled = WGraph::from_edges(g.n(), sample_edges(&g.edges(), p, &mut rng));
        let items = SketchItems {
            wire: true,
            span: true,
        };
        sketch(m, &weighted_adjacency(&sampled), ctx.seed, items);
    }
}

impl Replay for Kt1Sparse {
    fn replay(&self, ctx: &Context, m: &mut Metrics) {
        let g = &self.graphs[0];
        net(m, g.n());
        route_layer(m, g.n(), ctx.report, true);
        let items = SketchItems {
            wire: true,
            span: false,
        };
        sketch(m, &weighted_adjacency(g), ctx.seed, items);
    }
}

impl Replay for RtEngines {
    /// The workload's ops run the serial engine; this replays them on
    /// the parallel one, timed and then under a sink of its own.
    fn replay(&self, ctx: &Context, m: &mut Metrics) {
        let parallel = RtEngines::new(ctx.seed, PARALLEL_THREADS);
        let mut index = 0;
        let mut rounds = 0;
        let parallel_ms = 1e3
            * time(|| {
                let (_, cost) = parallel.op(index, None).expect("parallel rt-conn");
                index += 1;
                rounds = cost.rounds;
            });
        let serial_ms = ctx.untraced_p50_ms;
        m.insert("runtime.serial_op_ms", serial_ms);
        m.insert("runtime.parallel_op_ms", parallel_ms);
        m.insert("runtime.parallel_over_serial", parallel_ms / serial_ms);
        let rounds = rounds.max(1) as f64;
        m.insert("runtime.us_per_round_serial", serial_ms * 1e3 / rounds);
        m.insert("runtime.us_per_round_parallel", parallel_ms * 1e3 / rounds);

        let collected = Collected::default();
        let epoch = Instant::now();
        for index in 0..TRACED_PARALLEL_OPS {
            let sink = Sink::new(index, epoch, &collected);
            parallel.op(index, Some(sink)).expect("parallel rt-conn");
        }
        let traces = collected.lock().expect("sink collection");
        let workers = sink::report(&traces).metrics;
        for name in ["runtime.threads", "runtime.worker_busy_share"] {
            m.extend(workers.get_key_value(name).map(|(k, v)| (*k, *v)));
        }

        let items = SketchItems {
            wire: true,
            span: true,
        };
        sketch(m, &graph_adjacency(&self.graphs[0]), ctx.seed, items);
    }
}

impl Replay for SketchKernel {
    fn replay(&self, ctx: &Context, m: &mut Metrics) {
        let g = &self.graphs[0];
        let adjacency = adjacency(g.n(), |v| g.neighbors(v).iter().map(|&u| u as usize));
        let items = SketchItems {
            wire: false,
            span: false,
        };
        sketch(m, &adjacency, ctx.seed, items);
    }
}
