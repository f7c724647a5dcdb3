//! The six library workloads: inputs from the seed, one op, its oracle.
//!
//! An op is one solve through a layer's public functions, from building
//! the `Net` or `Runtime` to dropping it. Outputs are returned, not
//! checked, so the harness can validate them after the timed section.

use crate::seed;
use crate::sink::Sink;
use cc_core::{
    exact_mst, gc, kt1_mst, run_connectivity, validate_gc, validate_mst_minimal, ExactMstConfig,
    GcConfig, GcOutput, Kt1MstConfig,
};
use cc_graph::{connectivity, generators, CsrGraph, Graph, WEdge, WGraph};
use cc_net::{Cost, NetConfig};
use cc_route::Net;
use cc_runtime::Runtime;
use cc_sketch::{EdgeSample, GraphSketchSpace, NeighborhoodScratch};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Distinct input graphs per workload; op `i` runs on graph `i % GRAPHS`
/// with a net seed of its own.
pub const GRAPHS: usize = 8;

/// The MST workloads' op cost is set by the draw of the graph far more
/// than the others' is (one clique leaves twice the components of the
/// next after a Lotker phase), and their graphs are cheap: they cycle
/// through many more, so that a run's tail says less about its seed.
const MST_GRAPHS: usize = 128;

/// Round cap of the runtime workload (its runs take about a thousand).
const RT_MAX_ROUNDS: u64 = 200_000;

/// Vertices whose sketches `sketch-kernel` samples an edge from.
const KERNEL_SAMPLES: usize = 256;

/// A workload the benchmark calls as a library.
pub trait Library {
    type Out;

    /// Runs op `index`, traced by `sink` when one is given.
    fn op(&self, index: u64, sink: Option<Sink>) -> Result<(Self::Out, Cost), String>;

    /// Checks an op's output against an independent oracle.
    fn check(&self, index: u64, out: &Self::Out) -> Result<(), String>;

    /// Milliseconds each input took to generate.
    fn gen_ms(&self) -> &[f64];
}

/// Generates the workload's inputs, timing each.
fn generate<G>(
    seed: u64,
    label: &str,
    count: usize,
    make: impl Fn(&mut ChaCha8Rng) -> G,
) -> (Vec<G>, Vec<f64>) {
    (0..count as u64)
        .map(|i| {
            let t = Instant::now();
            let g = make(&mut seed::rng(seed, label, i));
            (g, t.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// Neighbour lists of vertices `0..n`, from any graph type's accessor.
pub fn adjacency<I: Iterator<Item = usize>>(
    n: usize,
    neighbors: impl Fn(usize) -> I,
) -> Vec<Vec<usize>> {
    (0..n).map(|v| neighbors(v).collect()).collect()
}

/// Neighbour lists of an unweighted graph.
pub fn graph_adjacency(g: &Graph) -> Vec<Vec<usize>> {
    adjacency(g.n(), |v| g.neighbors(v).iter().map(|&u| u as usize))
}

fn pick<G>(inputs: &[G], index: u64) -> &G {
    &inputs[index as usize % inputs.len()]
}

/// A fresh KT1 net for op `index`, traced when a sink is given.
fn net_for(n: usize, seed: u64, label: &str, index: u64, sink: Option<Sink>) -> Net {
    let net_seed = seed::derive(seed, &format!("{label}/net"), index);
    let mut net = Net::new(NetConfig::kt1(n).with_seed(net_seed));
    if let Some(sink) = sink {
        net.set_tracer(Box::new(sink));
    }
    net
}

/// `gc-reduce` and `gc-span`: Theorem 4 through `gc::run_on`.
pub struct Gc {
    seed: u64,
    label: &'static str,
    cfg: GcConfig,
    pub graphs: Vec<Graph>,
    gen_ms: Vec<f64>,
}

impl Gc {
    fn new(seed: u64, label: &'static str, n: usize, cfg: GcConfig) -> Gc {
        let (graphs, gen_ms) = generate(seed, label, GRAPHS, |rng| {
            generators::random_connected_graph(n, 3.0 / n as f64, rng)
        });
        Gc {
            seed,
            label,
            cfg,
            graphs,
            gen_ms,
        }
    }

    /// Paper parameters: Phase 1 finishes the forest and Phase 2 is idle.
    pub fn reduce(seed: u64) -> Gc {
        Gc::new(seed, "gc-reduce", 512, GcConfig::default())
    }

    /// No Lotker phase: SKETCHANDSPAN does everything.
    pub fn span(seed: u64) -> Gc {
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        Gc::new(seed, "gc-span", 48, cfg)
    }
}

impl Library for Gc {
    type Out = GcOutput;

    fn op(&self, index: u64, sink: Option<Sink>) -> Result<(GcOutput, Cost), String> {
        let g = pick(&self.graphs, index);
        let mut net = net_for(g.n(), self.seed, self.label, index, sink);
        let out = gc::run_on(&mut net, g, &self.cfg).map_err(|e| e.to_string())?;
        Ok((out, net.cost()))
    }

    fn check(&self, index: u64, out: &GcOutput) -> Result<(), String> {
        validate_gc(pick(&self.graphs, index), out)
    }

    fn gen_ms(&self) -> &[f64] {
        &self.gen_ms
    }
}

/// `mst-kkt`: Theorem 7 with one Lotker phase on a weighted clique.
pub struct MstKkt {
    seed: u64,
    pub graphs: Vec<WGraph>,
    gen_ms: Vec<f64>,
}

impl MstKkt {
    pub fn new(seed: u64) -> MstKkt {
        let (graphs, gen_ms) = generate(seed, "mst-kkt", MST_GRAPHS, |rng| {
            generators::complete_wgraph(64, rng)
        });
        MstKkt {
            seed,
            graphs,
            gen_ms,
        }
    }
}

impl Library for MstKkt {
    type Out = Vec<WEdge>;

    fn op(&self, index: u64, sink: Option<Sink>) -> Result<(Vec<WEdge>, Cost), String> {
        let g = pick(&self.graphs, index);
        let mut net = net_for(g.n(), self.seed, "mst-kkt", index, sink);
        let cfg = ExactMstConfig {
            phases: Some(1),
            ..ExactMstConfig::default()
        };
        let run = exact_mst(&mut net, g, &cfg).map_err(|e| e.to_string())?;
        Ok((run.mst, run.cost))
    }

    fn check(&self, index: u64, out: &Vec<WEdge>) -> Result<(), String> {
        validate_mst_minimal(pick(&self.graphs, index), out)
    }

    fn gen_ms(&self) -> &[f64] {
        &self.gen_ms
    }
}

/// `kt1-sparse`: Theorem 13 on a degree-6 weighted graph.
pub struct Kt1Sparse {
    seed: u64,
    pub graphs: Vec<WGraph>,
    gen_ms: Vec<f64>,
}

impl Kt1Sparse {
    pub fn new(seed: u64) -> Kt1Sparse {
        let n = 96;
        let (graphs, gen_ms) = generate(seed, "kt1-sparse", MST_GRAPHS, |rng| {
            generators::random_connected_wgraph(n, 6.0 / n as f64, 1_000_000, rng)
        });
        Kt1Sparse {
            seed,
            graphs,
            gen_ms,
        }
    }
}

impl Library for Kt1Sparse {
    /// The forest and whether every component converged.
    type Out = (Vec<WEdge>, bool);

    fn op(&self, index: u64, sink: Option<Sink>) -> Result<(Self::Out, Cost), String> {
        let g = pick(&self.graphs, index);
        let mut net = net_for(g.n(), self.seed, "kt1-sparse", index, sink);
        let run = kt1_mst(&mut net, g, &Kt1MstConfig::default()).map_err(|e| e.to_string())?;
        Ok(((run.mst, run.complete), run.cost))
    }

    fn check(&self, index: u64, (mst, complete): &Self::Out) -> Result<(), String> {
        if !complete {
            return Err("phase cap reached before every component converged".into());
        }
        validate_mst_minimal(pick(&self.graphs, index), mst)
    }

    fn gen_ms(&self) -> &[f64] {
        &self.gen_ms
    }
}

/// `rt-engines`: sketch connectivity as a `cc-runtime` program.
///
/// The timed ops run the serial backend. The parallel backend spawns
/// threads twice a round, and what a wake-up costs on this VM flips
/// between two regimes from one ten-second run to the next (102 and
/// 147 ms per op, a 30 % spread no bound covers); it is replayed per
/// layer instead (`runtime.parallel_*`).
pub struct RtEngines {
    seed: u64,
    /// Worker threads of the parallel backend; 0 runs the serial one.
    threads: usize,
    pub graphs: Vec<Graph>,
    adjacency: Vec<Vec<Vec<usize>>>,
    gen_ms: Vec<f64>,
}

impl RtEngines {
    pub fn new(seed: u64, threads: usize) -> RtEngines {
        let n = 32;
        let (graphs, gen_ms) = generate(seed, "rt-engines", GRAPHS, |rng| {
            generators::random_connected_graph(n, 4.0 / n as f64, rng)
        });
        let adjacency = graphs.iter().map(graph_adjacency).collect();
        RtEngines {
            seed,
            threads,
            graphs,
            adjacency,
            gen_ms,
        }
    }
}

impl Library for RtEngines {
    /// Component label per node.
    type Out = Vec<usize>;

    fn op(&self, index: u64, sink: Option<Sink>) -> Result<(Vec<usize>, Cost), String> {
        fn run<B: cc_runtime::Backend>(
            mut rt: Runtime<B>,
            adj: &[Vec<usize>],
            sink: Option<Sink>,
        ) -> Result<(Vec<usize>, Cost), String> {
            if let Some(sink) = sink {
                rt.set_tracer(Box::new(sink));
            }
            let out =
                run_connectivity(&mut rt, adj, None, RT_MAX_ROUNDS).map_err(|e| e.to_string())?;
            Ok((out.labels, rt.cost()))
        }
        let adj = pick(&self.adjacency, index);
        let cfg =
            NetConfig::kt1(adj.len()).with_seed(seed::derive(self.seed, "rt-engines/net", index));
        match self.threads {
            0 => run(Runtime::serial(cfg), adj, sink),
            t => run(Runtime::parallel_with_threads(cfg, t), adj, sink),
        }
    }

    fn check(&self, index: u64, labels: &Vec<usize>) -> Result<(), String> {
        let want = connectivity::component_labels(pick(&self.graphs, index));
        if *labels == want {
            Ok(())
        } else {
            Err("component labels differ from cc_graph::connectivity".into())
        }
    }

    fn gen_ms(&self) -> &[f64] {
        &self.gen_ms
    }
}

/// `sketch-kernel`: the `F_p` kernels with no simulator around them.
pub struct SketchKernel {
    seed: u64,
    pub graphs: Vec<CsrGraph>,
    gen_ms: Vec<f64>,
}

/// What one kernel op leaves to check.
pub struct KernelOut {
    /// Whether the sum of all vertex sketches is zero (every edge is
    /// sketched once from each end, with opposite signs).
    merged_zero: bool,
    samples: Vec<(usize, EdgeSample)>,
}

impl SketchKernel {
    pub fn new(seed: u64) -> SketchKernel {
        let n = 8192;
        let (graphs, gen_ms) = generate(seed, "sketch-kernel", GRAPHS, |rng| {
            cc_graph::random_connected_csr(n, 2 * n, rng)
        });
        SketchKernel {
            seed,
            graphs,
            gen_ms,
        }
    }
}

impl Library for SketchKernel {
    type Out = KernelOut;

    fn op(&self, index: u64, mut sink: Option<Sink>) -> Result<(KernelOut, Cost), String> {
        // No component emits events here, so the spans are the
        // benchmark's own, around the calls into the layer.
        let mut span = |name: Option<&str>| {
            if let Some(sink) = sink.as_mut() {
                match name {
                    Some(name) => sink.enter(name),
                    None => sink.exit(),
                }
            }
        };
        let g = pick(&self.graphs, index);
        let n = g.n();
        span(Some("sketch:space"));
        let space = GraphSketchSpace::new(n, seed::derive(self.seed, "sketch-kernel/space", index));
        span(None);

        span(Some("sketch:build-merge"));
        let mut scratch = NeighborhoodScratch::default();
        let mut merged = space.zero_sketch();
        let stride = n / KERNEL_SAMPLES;
        let mut kept = Vec::with_capacity(KERNEL_SAMPLES);
        for v in 0..n {
            let neighbors = g.neighbors(v).iter().map(|&u| u as usize);
            let sketch = space.sketch_neighborhood_with(v, neighbors, &mut scratch);
            merged.add_assign_sketch(&sketch);
            if v % stride == 0 {
                kept.push((v, sketch));
            }
        }
        span(None);

        span(Some("sketch:sample"));
        let samples = kept
            .iter()
            .map(|(v, sketch)| (*v, space.sample_edge(sketch)))
            .collect();
        span(None);
        let out = KernelOut {
            merged_zero: merged.is_zero(),
            samples,
        };
        Ok((out, Cost::default()))
    }

    fn check(&self, index: u64, out: &KernelOut) -> Result<(), String> {
        let g = pick(&self.graphs, index);
        if !out.merged_zero {
            return Err("the sum of all vertex sketches is not zero".into());
        }
        for &(v, sample) in &out.samples {
            match sample {
                // A sampler may fail; it may not invent an edge.
                EdgeSample::Fail => {}
                EdgeSample::Zero => return Err(format!("vertex {v} has edges but sampled Zero")),
                EdgeSample::Edge(a, b) => {
                    let other = if a == v { b } else { a };
                    if (a != v && b != v) || !g.neighbors(v).contains(&(other as u32)) {
                        return Err(format!("vertex {v} sampled {a}-{b}, not an incident edge"));
                    }
                }
            }
        }
        Ok(())
    }

    fn gen_ms(&self) -> &[f64] {
        &self.gen_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graphs_other_seed_other_graphs() {
        let edges = |w: &Gc| w.graphs.iter().map(Graph::edges).collect::<Vec<_>>();
        let (a, b, c) = (Gc::span(5), Gc::span(5), Gc::span(6));
        assert_eq!(edges(&a), edges(&b));
        assert_ne!(edges(&a), edges(&c));
        assert_eq!(a.graphs.len(), GRAPHS);
    }

    #[test]
    fn ops_repeat_exactly_and_pass_their_oracle() {
        let w = Gc::span(11);
        let (out1, cost1) = w.op(3, None).unwrap();
        let (out2, cost2) = w.op(3, None).unwrap();
        assert_eq!((&out1, cost1), (&out2, cost2));
        w.check(3, &out1).unwrap();
        let (_, other) = w.op(4, None).unwrap();
        assert_ne!(cost1, other, "another op index is another input");
    }

    #[test]
    fn kernel_oracle_rejects_a_foreign_edge() {
        let w = SketchKernel::new(1);
        let g = &w.graphs[0];
        let v = 0usize;
        let stranger = (1..g.n())
            .find(|&u| !g.neighbors(v).contains(&(u as u32)))
            .unwrap();
        let good = g.neighbors(v)[0] as usize;
        let out = |sample| KernelOut {
            merged_zero: true,
            samples: vec![(v, sample)],
        };
        w.check(0, &out(EdgeSample::Edge(v.min(good), v.max(good))))
            .unwrap();
        w.check(0, &out(EdgeSample::Fail)).unwrap();
        assert!(w.check(0, &out(EdgeSample::Edge(v, stranger))).is_err());
        assert!(w.check(0, &out(EdgeSample::Zero)).is_err());
    }
}
