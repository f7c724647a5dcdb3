//! The `perf` record: the model cost of the reproduction's hot paths,
//! printed as [`Table`]s. `scripts/model_record.sh` writes the default
//! build's output to `docs/perf_tables.txt`, and CI diffs it against the
//! committed copy (see DESIGN.md §12). Wall-clock time lives in the
//! `benchmark/` package, not here.
//!
//! Case selection mirrors the crates the north star cares about: the
//! Theorem 4 sketch-GC pipeline on the direct simulator, Theorem 7's
//! EXACT-MST, the Lenzen routing collective the algorithms lean on
//! (including one `n = 2048` case, where the pooled delivery path earns
//! its keep), the runtime port of connectivity on *both* engine backends
//! (which must agree on model cost), the batched sketch kernel at
//! `n = 16 384`, and one in-process `loadgen` run.
//!
//! Every network and kernel case runs twice with a fixed seed, so the
//! model quantities — rounds, messages, words — must be bit-identical
//! across the two runs; [`perf_tables`] panics if they are not, because
//! that would mean nondeterminism. The sketch-GC and EXACT-MST cases run
//! through [`cc_core::catalog`], so a wrong answer panics too. Built
//! with `--features count-allocs`, the cost and sketch tables gain the
//! first run's allocation columns.

use crate::loadgen::{run, LoadgenConfig};
use crate::Table;
use cc_core::catalog::Entry;
use cc_core::run_connectivity;
use cc_graph::generators;
use cc_net::{Cost, NetConfig};
use cc_route::{all_to_all_share, Net};
use cc_runtime::{Backend, Runtime};
use cc_sketch::{GraphSketchSpace, NeighborhoodScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const COUNTING: bool = cfg!(feature = "count-allocs");

#[cfg(feature = "count-allocs")]
fn alloc_counts() -> (u64, u64) {
    cc_profile::alloc::CountingAlloc::counts()
}
#[cfg(not(feature = "count-allocs"))]
fn alloc_counts() -> (u64, u64) {
    (0, 0)
}

/// One case's model cost, plus its first run's allocation traffic (zero
/// unless built with `count-allocs`).
struct Measured {
    cost: Cost,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs `f` twice and keeps its model cost.
///
/// # Panics
///
/// Panics if the two runs' model costs differ (the cases are seeded; a
/// mismatch means nondeterminism).
fn measure<F: FnMut() -> Cost>(key: &str, mut f: F) -> Measured {
    let (a0, b0) = alloc_counts();
    let cost = f();
    let (a1, b1) = alloc_counts();
    assert_eq!(cost, f(), "case {key}: model cost drifted between runs");
    Measured {
        cost,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// `base` plus the allocation columns when counting.
fn headers(base: &[&'static str]) -> Vec<&'static str> {
    let mut h = base.to_vec();
    if COUNTING {
        h.extend(["allocs", "alloc_bytes"]);
    }
    h
}

/// Appends `cells` plus `m`'s allocation cells when counting.
fn push(t: &mut Table, mut cells: Vec<String>, m: &Measured) {
    if COUNTING {
        cells.extend([m.allocs.to_string(), m.alloc_bytes.to_string()]);
    }
    t.push_row(cells);
}

/// Runs `entry` on a fresh seeded net via [`measure`], then panics unless
/// its answer passes the entry's check (outside the measured region, so
/// the allocation columns stay the algorithm's own).
fn catalog_case(n: usize, entry: Entry) -> Measured {
    let key = format!("{}/n={n}", entry.id());
    let mut answer = None;
    let measured = measure(&key, || {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(n as u64));
        answer = Some(entry.run(&mut net).unwrap_or_else(|e| panic!("{key}: {e}")));
        net.cost()
    });
    entry
        .check(&answer.expect("measure runs the case"))
        .unwrap_or_else(|why| panic!("{key}: {why}"));
    measured
}

/// Theorem 4 sketch-GC, full pipeline on the direct simulator.
fn gc_case(n: usize) -> Measured {
    let mut rng = ChaCha8Rng::seed_from_u64(4000 + n as u64);
    let g = generators::random_connected_graph(n, 3.0 / n as f64, &mut rng);
    catalog_case(n, Entry::GcSketch(&g))
}

/// Theorem 7 EXACT-MST on a random weighted clique.
fn mst_case(n: usize) -> Measured {
    let mut rng = ChaCha8Rng::seed_from_u64(1000 + n as u64);
    let g = generators::complete_wgraph(n, &mut rng);
    catalog_case(n, Entry::ExactMst(&g))
}

/// The all-to-all collective (1 round, Θ(n²) messages), 8 times on one
/// `Net` so the measured region is not dominated by `Net` construction.
fn a2a_case(n: usize) -> Measured {
    let values: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
    measure(&format!("route-a2a/n={n}"), || {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(7));
        let before = net.cost();
        for _ in 0..8 {
            let shared = all_to_all_share(&mut net, &values).expect("collective");
            assert_eq!(shared.len(), n);
        }
        net.cost().since(&before)
    })
}

/// Runtime connectivity on the backend `runtime` builds.
fn rt_case<B: Backend>(n: usize, runtime: fn(NetConfig) -> Runtime<B>) -> Measured {
    let mut rng = ChaCha8Rng::seed_from_u64(9000 + n as u64);
    let g = generators::random_connected_graph(n, 4.0 / n as f64, &mut rng);
    let adj = g.adjacency_lists();
    measure(&format!("rt-conn/n={n}"), || {
        let mut rt = runtime(NetConfig::kt1(n).with_seed(n as u64));
        let out = run_connectivity(&mut rt, &adj, None, 200_000).expect("rt gc");
        assert!(out.connected);
        rt.cost()
    })
}

/// Every vertex's neighborhood sketch through the batched SoA kernels,
/// fed from a streamed CSR graph (never the `C(n, 2)` pair sweep). No
/// network runs, so the case reports `(incidences, fingerprint)` in the
/// `messages`/`words` slots of its [`Cost`]: the incidence count `2m`,
/// and an FNV-1a-style fold over every sketch's wire words (vertex
/// order) reduced mod 1e9+7. Any numeric drift in the batched `F_p`
/// kernels — a changed hash draw, a mis-reduced product, a scatter to
/// the wrong cell — flips the fingerprint, extending the scalar-vs-batched
/// proptests to a size proptest cannot reach.
fn sketch_build_case(n: usize) -> Measured {
    let mut rng = ChaCha8Rng::seed_from_u64(16_000 + n as u64);
    let g = cc_graph::random_connected_csr(n, 2 * n, &mut rng);
    measure(&format!("sketch-build/n={n}"), || {
        let space = GraphSketchSpace::new(n, 9_000 + n as u64);
        let mut scratch = NeighborhoodScratch::default();
        let mut incidences = 0u64;
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for v in 0..n {
            let sk = space.sketch_neighborhood_with(
                v,
                g.neighbors(v).iter().map(|&u| u as usize),
                &mut scratch,
            );
            incidences += g.degree(v) as u64;
            for w in sk.to_words() {
                fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3) ^ w;
            }
        }
        Cost {
            rounds: 0,
            messages: incidences,
            words: fingerprint % 1_000_000_007,
            bits: 0,
        }
    })
}

/// The network cases: one row per (case, backend, n).
pub fn cost_table() -> Table {
    let mut t = Table::new(
        "P1",
        "model cost of the hot-path cases (each run twice, seeded; the two runs must agree)",
        &headers(&["case", "backend", "n", "rounds", "messages", "words"]),
    );
    let mut row = |case: &str, backend: &str, n: usize, m: Measured| {
        let c = m.cost;
        let cells = vec![
            case.to_string(),
            backend.to_string(),
            n.to_string(),
            c.rounds.to_string(),
            c.messages.to_string(),
            c.words.to_string(),
        ];
        push(&mut t, cells, &m);
    };
    for n in [32, 64, 128] {
        row("gc-sketch", "net", n, gc_case(n));
    }
    for n in [16, 32, 64] {
        row("exact-mst", "net", n, mst_case(n));
    }
    for n in [32, 64, 128, 2048] {
        row("route-a2a", "net", n, a2a_case(n));
    }
    for n in [32, 64, 128] {
        row("rt-conn", "serial", n, rt_case(n, Runtime::serial));
        row("rt-conn", "parallel", n, rt_case(n, Runtime::parallel));
    }
    t
}

/// The batched sketch kernel at `n = 16 384`.
pub fn sketch_build_table() -> Table {
    let n = 16_384;
    let mut t = Table::new(
        "P2",
        "sketch-build: every neighborhood sketch of a streamed CSR graph (fingerprint = FNV fold of all sketch words mod 1e9+7)",
        &headers(&["n", "incidences", "fingerprint"]),
    );
    let m = sketch_build_case(n);
    let cells = vec![
        n.to_string(),
        m.cost.messages.to_string(),
        m.cost.words.to_string(),
    ];
    push(&mut t, cells, &m);
    t
}

/// One in-process `loadgen` run at [`LoadgenConfig::default`]: its
/// deterministic serve counts and the summed model cost of its cold
/// runs (latency is not a model quantity and is not recorded here).
///
/// # Panics
///
/// Panics if the run breaks a serving invariant.
pub fn serve_table() -> Table {
    let cfg = LoadgenConfig::default();
    let r = run(&cfg).expect("loadgen run");
    let mut t = Table::new(
        "P3",
        &format!(
            "serve: {} clients × {} jobs over {} distinct keys, {} workers, n = {}",
            cfg.clients, cfg.jobs_per_client, cfg.distinct, cfg.serve.workers, cfg.n
        ),
        &[
            "jobs",
            "cold",
            "dup",
            "hit_milli",
            "rejected",
            "evictions",
            "cold_rounds",
            "cold_messages",
            "cold_words",
        ],
    );
    t.push_row(
        [
            r.total_jobs,
            r.cold_runs,
            r.dup_answers,
            r.hit_milli,
            r.rejected,
            r.evictions,
            r.cold_model.0,
            r.cold_model.1,
            r.cold_model.2,
        ]
        .iter()
        .map(u64::to_string)
        .collect(),
    );
    t
}

/// The whole record, in the order `perf` prints it.
pub fn perf_tables() -> Vec<Table> {
    vec![cost_table(), sketch_build_table(), serve_table()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_the_model_cost() {
        let m = measure("toy", || Cost {
            rounds: 2,
            messages: 10,
            words: 20,
            bits: 240,
        });
        assert_eq!((m.cost.rounds, m.cost.messages, m.cost.words), (2, 10, 20));
    }

    #[test]
    #[should_panic(expected = "model cost drifted")]
    fn nondeterministic_model_cost_panics() {
        let mut r = 0u64;
        let _ = measure("toy", || {
            r += 1;
            Cost {
                rounds: r,
                messages: 0,
                words: 0,
                bits: 0,
            }
        });
    }

    #[test]
    fn runtime_backends_agree_on_model_cost() {
        assert_eq!(
            rt_case(32, Runtime::serial).cost,
            rt_case(32, Runtime::parallel).cost
        );
    }

    #[test]
    fn sketch_build_case_counts_every_incidence() {
        let m = sketch_build_case(96);
        let mut rng = ChaCha8Rng::seed_from_u64(16_000 + 96);
        let g = cc_graph::random_connected_csr(96, 192, &mut rng);
        assert_eq!(m.cost.messages, 2 * g.m() as u64);
        assert_eq!(m.cost.rounds, 0);
        assert!(m.cost.words < 1_000_000_007);
    }
}
