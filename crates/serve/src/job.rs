//! Typed job requests and their execution over the existing engines.
//!
//! A [`JobSpec`] is everything a simulation needs to be reproducible: the
//! graph (explicit edge list or generator + seed), the algorithm, the
//! engine, and the simulator seed. Two specs with equal
//! [`JobSpec::cache_key`]s denote the same computation, which is what
//! lets the serve cache answer repeats in O(1).
//!
//! [`execute`] runs a validated spec on the engine it names — the direct
//! `CliqueNet` simulator for the paper's GC/MST pipelines, or a
//! `cc-runtime` backend for the reactive connectivity port — with an
//! arbitrary [`Tracer`] attached, so the worker pool can stream per-phase
//! progress from the same event stream it later folds into metrics.

use crate::hash::{generated_digest, graph_digest, job_digest, wgraph_digest, Digest};
use cc_core::catalog::{Answer, Entry};
use cc_core::run_connectivity;
use cc_graph::{generators, Graph, WGraph};
use cc_net::NetConfig;
use cc_route::Net;
use cc_runtime::Runtime;
use cc_trace::{CostSnapshot, Json, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Largest clique size a job may request. Keeps a single request from
/// holding a worker for minutes; raise when the O(n²) memory work of
/// ROADMAP item 4 lands.
pub const MAX_N: usize = 4096;

/// Largest explicit edge list a job may carry.
pub const MAX_EDGES: usize = 1 << 20;

/// Round cap applied to every served run — a wedged protocol must come
/// back as an error, not hold a worker forever.
pub const SERVE_ROUND_CAP: u64 = 500_000;

/// The graph a job runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// An explicit unweighted edge list on `n` nodes.
    Edges {
        /// Node count.
        n: usize,
        /// Undirected edges, any order, duplicates tolerated.
        edges: Vec<(u32, u32)>,
    },
    /// An explicit weighted edge list on `n` nodes.
    WEdges {
        /// Node count.
        n: usize,
        /// Undirected weighted edges, any order, duplicates tolerated.
        edges: Vec<(u32, u32, u64)>,
    },
    /// `generators::random_connected_graph(n, degree_milli/1000/n, seed)`.
    RandomConnected {
        /// Node count.
        n: usize,
        /// Expected average degree × 1000 (kept integral so the cache
        /// key never hashes a float).
        degree_milli: u64,
        /// Generator seed.
        seed: u64,
    },
    /// `generators::complete_wgraph(n, seed)` — the EXACT-MST workload.
    CompleteWeighted {
        /// Node count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Node count of the graph this spec defines.
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::Edges { n, .. }
            | GraphSpec::WEdges { n, .. }
            | GraphSpec::RandomConnected { n, .. }
            | GraphSpec::CompleteWeighted { n, .. } => n,
        }
    }

    /// Whether the spec defines a weighted graph.
    pub fn weighted(&self) -> bool {
        matches!(
            self,
            GraphSpec::WEdges { .. } | GraphSpec::CompleteWeighted { .. }
        )
    }

    /// Canonical content digest (see the `hash` module).
    pub fn digest(&self) -> Digest {
        match self {
            GraphSpec::Edges { n, edges } => graph_digest(*n, edges),
            GraphSpec::WEdges { n, edges } => wgraph_digest(*n, edges),
            GraphSpec::RandomConnected {
                n,
                degree_milli,
                seed,
            } => generated_digest("random-connected", *n, &[*degree_milli, *seed]),
            GraphSpec::CompleteWeighted { n, seed } => {
                generated_digest("complete-weighted", *n, &[*seed])
            }
        }
    }

    /// JSON form (`kind`-tagged object).
    pub fn to_json(&self) -> Json {
        match self {
            GraphSpec::Edges { n, edges } => Json::obj(vec![
                ("kind", Json::Str("edges".into())),
                ("n", Json::UInt(*n as u64)),
                (
                    "edges",
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(u, v)| {
                                Json::Arr(vec![Json::UInt(u as u64), Json::UInt(v as u64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
            GraphSpec::WEdges { n, edges } => Json::obj(vec![
                ("kind", Json::Str("wedges".into())),
                ("n", Json::UInt(*n as u64)),
                (
                    "edges",
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(u, v, w)| {
                                Json::Arr(vec![
                                    Json::UInt(u as u64),
                                    Json::UInt(v as u64),
                                    Json::UInt(w),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            GraphSpec::RandomConnected {
                n,
                degree_milli,
                seed,
            } => Json::obj(vec![
                ("kind", Json::Str("random-connected".into())),
                ("n", Json::UInt(*n as u64)),
                ("degree_milli", Json::UInt(*degree_milli)),
                ("seed", Json::UInt(*seed)),
            ]),
            GraphSpec::CompleteWeighted { n, seed } => Json::obj(vec![
                ("kind", Json::Str("complete-weighted".into())),
                ("n", Json::UInt(*n as u64)),
                ("seed", Json::UInt(*seed)),
            ]),
        }
    }

    /// Parses the `kind`-tagged object form.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<GraphSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("graph: missing `kind`")?;
        let n = v
            .get("n")
            .and_then(Json::as_u64)
            .ok_or("graph: missing `n`")? as usize;
        let u = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("graph: missing u64 field `{name}`"))
        };
        match kind {
            "edges" => {
                let edges = parse_pairs(v, false)?
                    .into_iter()
                    .map(|(a, b, _)| (a, b))
                    .collect();
                Ok(GraphSpec::Edges { n, edges })
            }
            "wedges" => Ok(GraphSpec::WEdges {
                n,
                edges: parse_pairs(v, true)?,
            }),
            "random-connected" => Ok(GraphSpec::RandomConnected {
                n,
                degree_milli: u("degree_milli")?,
                seed: u("seed")?,
            }),
            "complete-weighted" => Ok(GraphSpec::CompleteWeighted {
                n,
                seed: u("seed")?,
            }),
            other => Err(format!("graph: unknown kind `{other}`")),
        }
    }
}

fn parse_pairs(v: &Json, weighted: bool) -> Result<Vec<(u32, u32, u64)>, String> {
    let want = if weighted { 3 } else { 2 };
    v.get("edges")
        .and_then(Json::as_arr)
        .ok_or("graph: missing `edges` array")?
        .iter()
        .map(|e| {
            let parts = e
                .as_arr()
                .filter(|p| p.len() == want)
                .ok_or_else(|| format!("graph: edge is not a {want}-tuple"))?;
            let nums = parts
                .iter()
                .map(|p| p.as_u64().ok_or("graph: non-integer edge entry"))
                .collect::<Result<Vec<_>, _>>()?;
            let endpoint = |x: u64| -> Result<u32, String> {
                u32::try_from(x).map_err(|_| "graph: endpoint exceeds u32".to_string())
            };
            Ok((
                endpoint(nums[0])?,
                endpoint(nums[1])?,
                if weighted { nums[2] } else { 0 },
            ))
        })
        .collect()
}

/// The algorithm a job runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Theorem 4 sketch connectivity (full GC pipeline, direct simulator).
    GcSketch,
    /// Theorem 7 EXACT-MST (direct simulator).
    ExactMst,
    /// Sketch connectivity as a reactive runtime program.
    RtConn,
}

impl Algorithm {
    /// Stable string tag (protocol + cache key).
    pub fn tag(&self) -> &'static str {
        match self {
            Algorithm::GcSketch => "gc-sketch",
            Algorithm::ExactMst => "exact-mst",
            Algorithm::RtConn => "rt-conn",
        }
    }

    /// Parses a tag.
    ///
    /// # Errors
    ///
    /// Lists the valid tags.
    pub fn parse(tag: &str) -> Result<Algorithm, String> {
        match tag {
            "gc-sketch" => Ok(Algorithm::GcSketch),
            "exact-mst" => Ok(Algorithm::ExactMst),
            "rt-conn" => Ok(Algorithm::RtConn),
            other => Err(format!(
                "unknown algorithm `{other}` (expected gc-sketch, exact-mst, or rt-conn)"
            )),
        }
    }
}

/// The engine a job runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The direct `CliqueNet` simulator.
    Net,
    /// The serial runtime backend.
    Serial,
    /// The parallel runtime backend.
    Parallel,
}

impl Engine {
    /// Stable string tag (protocol + cache key).
    pub fn tag(&self) -> &'static str {
        match self {
            Engine::Net => "net",
            Engine::Serial => "serial",
            Engine::Parallel => "parallel",
        }
    }

    /// Parses a tag.
    ///
    /// # Errors
    ///
    /// Lists the valid tags.
    pub fn parse(tag: &str) -> Result<Engine, String> {
        match tag {
            "net" => Ok(Engine::Net),
            "serial" => Ok(Engine::Serial),
            "parallel" => Ok(Engine::Parallel),
            other => Err(format!(
                "unknown engine `{other}` (expected net, serial, or parallel)"
            )),
        }
    }
}

/// A fully-specified, reproducible job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The input graph.
    pub graph: GraphSpec,
    /// The algorithm to run on it.
    pub algorithm: Algorithm,
    /// The engine to run it on.
    pub engine: Engine,
    /// Simulator seed (per-node RNG streams, port permutations).
    pub seed: u64,
}

impl JobSpec {
    /// The canonical `(graph-hash, algorithm, engine, seed)` digest the
    /// result cache is keyed by.
    pub fn cache_key(&self) -> Digest {
        job_digest(
            self.graph.digest(),
            self.algorithm.tag(),
            self.engine.tag(),
            self.seed,
        )
    }

    /// Checks the spec is well-formed and names the first problem.
    ///
    /// # Errors
    ///
    /// A one-line description suitable for a `rejected` response.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.graph.n();
        if !(2..=MAX_N).contains(&n) {
            return Err(format!("n = {n} outside supported 2..={MAX_N}"));
        }
        let check_explicit = |m: usize, ends: &mut dyn Iterator<Item = (u32, u32)>| {
            if m > MAX_EDGES {
                return Err(format!("{m} edges exceed the {MAX_EDGES} cap"));
            }
            for (u, v) in ends {
                if u == v {
                    return Err(format!("self-loop at node {u}"));
                }
                if u as usize >= n || v as usize >= n {
                    return Err(format!("edge ({u}, {v}) outside 0..{n}"));
                }
            }
            Ok(())
        };
        match &self.graph {
            GraphSpec::Edges { edges, .. } => {
                check_explicit(edges.len(), &mut edges.iter().copied())?
            }
            GraphSpec::WEdges { edges, .. } => {
                check_explicit(edges.len(), &mut edges.iter().map(|&(u, v, _)| (u, v)))?
            }
            GraphSpec::RandomConnected { .. } | GraphSpec::CompleteWeighted { .. } => {}
        }
        match (self.algorithm, self.graph.weighted()) {
            (Algorithm::ExactMst, false) => {
                return Err("exact-mst needs a weighted graph (wedges or complete-weighted)".into())
            }
            (Algorithm::GcSketch | Algorithm::RtConn, true) => {
                return Err(format!(
                    "{} needs an unweighted graph (edges or random-connected)",
                    self.algorithm.tag()
                ))
            }
            _ => {}
        }
        match (self.algorithm, self.engine) {
            (Algorithm::RtConn, Engine::Net) => {
                Err("rt-conn runs on a runtime engine (serial or parallel)".into())
            }
            (Algorithm::GcSketch | Algorithm::ExactMst, Engine::Serial | Engine::Parallel) => {
                Err(format!(
                    "{} runs on the direct simulator (engine net)",
                    self.algorithm.tag()
                ))
            }
            _ => Ok(()),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("graph", self.graph.to_json()),
            ("algorithm", Json::Str(self.algorithm.tag().into())),
            ("engine", Json::Str(self.engine.tag().into())),
            ("seed", Json::UInt(self.seed)),
        ])
    }

    /// Parses the object form (does not [`validate`](Self::validate)).
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let tag = |name: &str| -> Result<&str, String> {
            v.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("job: missing string field `{name}`"))
        };
        Ok(JobSpec {
            graph: GraphSpec::from_json(v.get("graph").ok_or("job: missing `graph`")?)?,
            algorithm: Algorithm::parse(tag("algorithm")?)?,
            engine: Engine::parse(tag("engine")?)?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("job: missing `seed`")?,
        })
    }
}

/// What a finished job hands back to the pool: the human-facing summary
/// rows plus the metered cost (both deterministic per spec).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// `(metric, value)` rows for the artifact's summary table.
    pub summary: Vec<(String, String)>,
    /// Total metered cost of the run.
    pub cost: CostSnapshot,
}

/// The graph a spec builds: unweighted for `gc-sketch` and `rt-conn`,
/// weighted for `exact-mst`.
enum Built {
    Plain(Graph),
    Weighted(WGraph),
}

fn build_graph(spec: &GraphSpec) -> Result<Built, String> {
    match spec {
        GraphSpec::Edges { n, edges } => {
            let mut g = Graph::new(*n);
            for &(u, v) in edges {
                g.add_edge(u as usize, v as usize);
            }
            Ok(Built::Plain(g))
        }
        GraphSpec::WEdges { n, edges } => {
            let mut g = WGraph::new(*n);
            for &(u, v, w) in edges {
                if let Some(existing) = g.weight_of(u as usize, v as usize) {
                    if existing != w {
                        return Err(format!(
                            "conflicting weights {existing} and {w} for edge ({u}, {v})"
                        ));
                    }
                    continue;
                }
                g.add_edge(u as usize, v as usize, w);
            }
            Ok(Built::Weighted(g))
        }
        GraphSpec::RandomConnected {
            n,
            degree_milli,
            seed,
        } => {
            let p = (*degree_milli as f64 / 1000.0) / *n as f64;
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            Ok(Built::Plain(generators::random_connected_graph(
                *n, p, &mut rng,
            )))
        }
        GraphSpec::CompleteWeighted { n, seed } => {
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            Ok(Built::Weighted(generators::complete_wgraph(*n, &mut rng)))
        }
    }
}

/// Runs one catalog entry on the direct simulator and checks its answer.
/// A failed check is a job error, so the daemon never caches an answer
/// its oracle rejected.
fn run_entry(
    entry: Entry,
    cfg: NetConfig,
    tracer: Box<dyn Tracer>,
    summary: &mut Vec<(String, String)>,
) -> Result<cc_net::Cost, String> {
    let id = entry.id();
    let mut net = Net::new(cfg);
    net.set_tracer(tracer);
    let answer = entry.run(&mut net).map_err(|e| format!("{id}: {e}"))?;
    entry
        .check(&answer)
        .map_err(|why| format!("{id}: answer failed its check: {why}"))?;
    let rows = match &answer {
        Answer::Gc(out) => [
            ("connected", out.connected.to_string()),
            ("components", out.component_count.to_string()),
            ("forest_edges", out.spanning_forest.len().to_string()),
        ],
        Answer::ExactMst(run) => [
            ("mst_edges", run.mst.len().to_string()),
            ("mst_weight", WGraph::total_weight(&run.mst).to_string()),
            ("lotker_phases", run.phases.to_string()),
        ],
        Answer::Kt1Mst(run) => [
            ("mst_edges", run.mst.len().to_string()),
            ("mst_weight", WGraph::total_weight(&run.mst).to_string()),
            ("boruvka_phases", run.phases.to_string()),
        ],
    };
    summary.extend(rows.map(|(k, v)| (k.to_string(), v)));
    Ok(net.cost())
}

/// Runs the reactive connectivity port on the runtime engine `rt`.
fn run_rt_conn<B: cc_runtime::Backend>(
    mut rt: Runtime<B>,
    tracer: Box<dyn Tracer>,
    g: &Graph,
    summary: &mut Vec<(String, String)>,
) -> Result<cc_net::Cost, String> {
    rt.set_tracer(tracer);
    let out = run_connectivity(&mut rt, &g.adjacency_lists(), None, SERVE_ROUND_CAP)
        .map_err(|e| format!("rt-conn: {e}"))?;
    summary.push(("connected".into(), out.connected.to_string()));
    summary.push(("components".into(), out.component_count.to_string()));
    Ok(rt.cost())
}

/// Executes a **validated** spec with `tracer` attached to the engine.
///
/// Model-event streams (and therefore everything in the returned
/// [`ExecOutcome`]) are deterministic per spec; only wall-clock varies.
/// `gc-sketch` and `exact-mst` run through [`cc_core::catalog`], and
/// their answers are checked before they are returned.
///
/// # Errors
///
/// Graph-construction problems, simulator violations, round-cap overruns,
/// Monte Carlo sketch exhaustion, and answers that fail their check,
/// rendered as one line.
pub fn execute(spec: &JobSpec, tracer: Box<dyn Tracer>) -> Result<ExecOutcome, String> {
    let n = spec.graph.n();
    let cfg = NetConfig::kt1(n)
        .with_seed(spec.seed)
        .with_round_cap(SERVE_ROUND_CAP);
    let built = build_graph(&spec.graph)?;
    let m = match &built {
        Built::Plain(g) => g.m(),
        Built::Weighted(g) => g.m(),
    };
    let mut summary: Vec<(String, String)> = vec![
        ("algorithm".into(), spec.algorithm.tag().into()),
        ("engine".into(), spec.engine.tag().into()),
        ("n".into(), n.to_string()),
        ("seed".into(), spec.seed.to_string()),
        ("m".into(), m.to_string()),
    ];
    let cost = match (spec.algorithm, spec.engine, &built) {
        (Algorithm::GcSketch, Engine::Net, Built::Plain(g)) => {
            run_entry(Entry::GcSketch(g), cfg, tracer, &mut summary)?
        }
        (Algorithm::ExactMst, Engine::Net, Built::Weighted(g)) => {
            run_entry(Entry::ExactMst(g), cfg, tracer, &mut summary)?
        }
        (Algorithm::RtConn, Engine::Serial, Built::Plain(g)) => {
            run_rt_conn(Runtime::serial(cfg), tracer, g, &mut summary)?
        }
        (Algorithm::RtConn, Engine::Parallel, Built::Plain(g)) => {
            run_rt_conn(Runtime::parallel(cfg), tracer, g, &mut summary)?
        }
        // `JobSpec::validate` refuses every other combination first.
        _ => {
            return Err(format!(
                "{} cannot run on this engine or graph",
                spec.algorithm.tag()
            ))
        }
    }
    .snapshot();
    summary.push(("rounds".into(), cost.rounds.to_string()));
    summary.push(("messages".into(), cost.messages.to_string()));
    summary.push(("words".into(), cost.words.to_string()));
    Ok(ExecOutcome { summary, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_trace::NullTracer;

    fn gc_spec(n: usize, seed: u64) -> JobSpec {
        JobSpec {
            graph: GraphSpec::RandomConnected {
                n,
                degree_milli: 3000,
                seed: 11,
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let specs = vec![
            gc_spec(16, 3),
            JobSpec {
                graph: GraphSpec::Edges {
                    n: 4,
                    edges: vec![(0, 1), (2, 3)],
                },
                algorithm: Algorithm::RtConn,
                engine: Engine::Parallel,
                seed: 9,
            },
            JobSpec {
                graph: GraphSpec::WEdges {
                    n: 3,
                    edges: vec![(0, 1, 5), (1, 2, 2)],
                },
                algorithm: Algorithm::ExactMst,
                engine: Engine::Net,
                seed: 0,
            },
            JobSpec {
                graph: GraphSpec::CompleteWeighted { n: 8, seed: 2 },
                algorithm: Algorithm::ExactMst,
                engine: Engine::Net,
                seed: 1,
            },
        ];
        for spec in specs {
            let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec);
            parsed.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        let mut bad_engine = gc_spec(16, 1);
        bad_engine.engine = Engine::Serial;
        assert!(bad_engine.validate().unwrap_err().contains("net"));

        let rt_on_net = JobSpec {
            algorithm: Algorithm::RtConn,
            ..gc_spec(16, 1)
        };
        assert!(rt_on_net.validate().unwrap_err().contains("runtime"));

        let mst_unweighted = JobSpec {
            algorithm: Algorithm::ExactMst,
            ..gc_spec(16, 1)
        };
        assert!(mst_unweighted.validate().unwrap_err().contains("weighted"));

        let self_loop = JobSpec {
            graph: GraphSpec::Edges {
                n: 4,
                edges: vec![(1, 1)],
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed: 0,
        };
        assert!(self_loop.validate().unwrap_err().contains("self-loop"));

        let oob = JobSpec {
            graph: GraphSpec::Edges {
                n: 4,
                edges: vec![(0, 9)],
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed: 0,
        };
        assert!(oob.validate().unwrap_err().contains("outside"));

        let tiny = JobSpec {
            graph: GraphSpec::Edges {
                n: 1,
                edges: vec![],
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed: 0,
        };
        assert!(tiny.validate().is_err());
    }

    #[test]
    fn cache_key_separates_spec_dimensions() {
        let base = gc_spec(16, 1);
        assert_eq!(base.cache_key(), gc_spec(16, 1).cache_key());
        assert_ne!(base.cache_key(), gc_spec(16, 2).cache_key());
        assert_ne!(base.cache_key(), gc_spec(32, 1).cache_key());
        let rt = JobSpec {
            algorithm: Algorithm::RtConn,
            engine: Engine::Serial,
            ..gc_spec(16, 1)
        };
        assert_ne!(base.cache_key(), rt.cache_key());
    }

    #[test]
    fn execute_runs_all_three_algorithms_deterministically() {
        let specs = [
            gc_spec(16, 5),
            JobSpec {
                graph: GraphSpec::CompleteWeighted { n: 8, seed: 3 },
                algorithm: Algorithm::ExactMst,
                engine: Engine::Net,
                seed: 4,
            },
            JobSpec {
                graph: GraphSpec::RandomConnected {
                    n: 16,
                    degree_milli: 4000,
                    seed: 6,
                },
                algorithm: Algorithm::RtConn,
                engine: Engine::Serial,
                seed: 7,
            },
        ];
        for spec in &specs {
            spec.validate().unwrap();
            let a = execute(spec, Box::new(NullTracer)).unwrap();
            let b = execute(spec, Box::new(NullTracer)).unwrap();
            assert_eq!(a, b, "outcome must be deterministic per spec");
            assert!(a.cost.rounds > 0);
            assert!(a
                .summary
                .iter()
                .any(|(k, v)| k == "algorithm" && v == spec.algorithm.tag()));
        }
    }

    #[test]
    fn execute_reports_conflicting_duplicate_weights() {
        let spec = JobSpec {
            graph: GraphSpec::WEdges {
                n: 3,
                edges: vec![(0, 1, 5), (1, 0, 6)],
            },
            algorithm: Algorithm::ExactMst,
            engine: Engine::Net,
            seed: 0,
        };
        spec.validate().unwrap();
        let err = execute(&spec, Box::new(NullTracer)).unwrap_err();
        assert!(err.contains("conflicting weights"), "{err}");
    }
}
