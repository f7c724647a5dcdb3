//! Backend equivalence: the serial and parallel runtime backends must
//! produce identical program states, identical cost totals, and identical
//! errors on the same inputs.

use cc_net::{Cost, Envelope, NetConfig, NetError};
use cc_runtime::program::examples::FloodEcho;
use cc_runtime::{Ctx, Program, Runtime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn flood_programs(adj: &[Vec<usize>], root: usize) -> Vec<FloodEcho> {
    adj.iter()
        .enumerate()
        .map(|(v, nb)| FloodEcho::new(nb.clone(), v == root))
        .collect()
}

/// `(parent, subtree, reached)` per node — FloodEcho's full observable
/// output.
fn outputs(programs: &[FloodEcho]) -> Vec<(Option<usize>, u64, bool)> {
    programs
        .iter()
        .map(|p| (p.parent, p.subtree, p.reached()))
        .collect()
}

fn random_adjacency(n: usize, edge_prob: f64, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(edge_prob) {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
    }
    adj
}

/// Runs FloodEcho on both backends and asserts identical outputs and
/// identical cost.
fn assert_backends_agree(adj: &[Vec<usize>], root: usize, max_rounds: u64) {
    let n = adj.len();
    let cfg = NetConfig::kt1(n);

    let mut serial = Runtime::serial(cfg.clone());
    let s = serial.run(flood_programs(adj, root), max_rounds).unwrap();

    let mut parallel = Runtime::parallel_with_threads(cfg, 4);
    let p = parallel.run(flood_programs(adj, root), max_rounds).unwrap();

    assert_eq!(outputs(&p), outputs(&s), "parallel backend diverged");
    assert_eq!(parallel.cost(), serial.cost(), "parallel cost diverged");
}

#[test]
fn flood_echo_path_with_isolated_node() {
    let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2], vec![]];
    assert_backends_agree(&adj, 0, 100);
    let mut rt = Runtime::serial(NetConfig::kt1(adj.len()));
    let out = rt.run(flood_programs(&adj, 0), 100).unwrap();
    assert_eq!(out[0].subtree, 4, "root counts its component");
    assert!(!out[4].reached(), "isolated node untouched");
}

#[test]
fn flood_echo_ring() {
    let n = 16;
    let mut adj = vec![Vec::new(); n];
    for v in 0..n {
        adj[v].push((v + 1) % n);
        adj[(v + 1) % n].push(v);
    }
    assert_backends_agree(&adj, 5, 100);
}

#[test]
fn flood_echo_random_graphs() {
    for (seed, prob) in [(1u64, 0.05), (2, 0.15), (3, 0.4)] {
        let adj = random_adjacency(24, prob, seed);
        assert_backends_agree(&adj, 0, 200);
    }
}

#[test]
fn flood_echo_worker_count_is_invisible() {
    let adj = random_adjacency(20, 0.2, 99);
    let cfg = NetConfig::kt1(adj.len());

    let run_with = |threads: usize| -> (Vec<(Option<usize>, u64, bool)>, Cost) {
        let mut rt = Runtime::parallel_with_threads(cfg.clone(), threads);
        let out = rt.run(flood_programs(&adj, 0), 200).unwrap();
        (outputs(&out), rt.cost())
    };

    let base = run_with(1);
    for threads in [2, 3, 7, 32] {
        assert_eq!(run_with(threads), base, "threads={threads} diverged");
    }
}

#[test]
fn transcripts_match_between_backends() {
    let adj = random_adjacency(12, 0.3, 7);
    let cfg = NetConfig::kt1(adj.len()).with_transcript();

    let mut serial = Runtime::serial(cfg.clone());
    serial.run(flood_programs(&adj, 0), 200).unwrap();

    let mut parallel = Runtime::parallel_with_threads(cfg, 5);
    parallel.run(flood_programs(&adj, 0), 200).unwrap();

    assert!(!serial.transcript().is_empty());
    assert_eq!(serial.transcript(), parallel.transcript());
}

#[test]
fn model_event_streams_match_between_backends() {
    // The net emits every model event for both backends, so the two must
    // produce byte-identical model streams — rounds, per-link message
    // batches, totals. (Timing events — NodeCompute, WorkerSpan — are
    // backend-shaped by design and excluded by `is_model`.)
    let adj = random_adjacency(18, 0.25, 11);
    let cfg = NetConfig::kt1(adj.len());

    let rec_s = cc_trace::RecordingTracer::new();
    let mut serial = Runtime::serial(cfg.clone());
    serial.set_tracer(Box::new(rec_s.clone()));
    serial.run(flood_programs(&adj, 0), 200).unwrap();

    let rec_p = cc_trace::RecordingTracer::new();
    let mut parallel = Runtime::parallel_with_threads(cfg, 5);
    parallel.set_tracer(Box::new(rec_p.clone()));
    parallel.run(flood_programs(&adj, 0), 200).unwrap();

    let s_model = rec_s.model_events();
    let p_model = rec_p.model_events();
    assert!(!s_model.is_empty());
    assert_eq!(s_model, p_model, "model-event streams diverged");

    // The event stream also reproduces the metered totals exactly.
    let summed: u64 = s_model
        .iter()
        .filter_map(|e| match e {
            cc_trace::Event::RoundEnd { messages, .. } => Some(*messages),
            _ => None,
        })
        .sum();
    assert_eq!(summed, serial.cost().messages);
    assert_eq!(serial.cost(), parallel.cost());

    // The parallel engine reported spans from more than one worker, and the
    // serial engine per-node compute spans instead — the only allowed
    // divergence.
    let workers = |rec: &cc_trace::RecordingTracer| {
        let mut ws: Vec<u32> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                cc_trace::Event::WorkerSpan { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    };
    assert!(workers(&rec_s).is_empty());
    assert!(rec_s
        .events()
        .iter()
        .any(|e| matches!(e, cc_trace::Event::NodeCompute { .. })));
    assert!(workers(&rec_p).len() > 1);
}

/// Node 1 and the last node send one legal message every round; from
/// round `bad` on, node `hog` (between them) sends two full-budget
/// messages to the same destination, which the second overruns.
#[derive(Debug)]
struct Overrun {
    bad: u64,
    hog: usize,
}

impl Overrun {
    fn send(&self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        let dst = (ctx.me() + 1) % ctx.n();
        if ctx.me() == 1 || ctx.me() == ctx.n() - 1 {
            let _ = ctx.send(dst, vec![ctx.round()]);
        }
        if ctx.me() == self.hog && ctx.round() >= self.bad {
            let full = vec![0; ctx.budget_left(dst) as usize];
            let _ = ctx.send(dst, full.clone());
            let _ = ctx.send(dst, full);
        }
    }
}

impl Program for Overrun {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        self.send(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, _: &[Envelope<Vec<u64>>]) -> bool {
        self.send(ctx);
        false
    }
}

#[test]
fn an_aborted_round_fails_and_meters_identically_on_every_thread_count() {
    let n = 9;
    let (bad, hog) = (3, 6);
    let cfg = NetConfig::kt1(n);
    let programs = || (0..n).map(|_| Overrun { bad, hog }).collect::<Vec<_>>();

    let mut serial = Runtime::serial(cfg.clone());
    let err = serial.run(programs(), 100).unwrap_err();
    assert!(
        matches!(err, NetError::LinkBusy { round, src, .. } if round == bad && src == hog),
        "{err:?}"
    );
    let cost = serial.cost();
    assert_eq!(cost.rounds, bad, "the aborted round is not counted");
    assert_eq!(
        cost.messages,
        2 * bad + 1,
        "in the aborted round only the sender below the offender is metered"
    );

    for threads in [1, 3, n] {
        let mut rt = Runtime::parallel_with_threads(cfg.clone(), threads);
        assert_eq!(
            rt.run(programs(), 100).unwrap_err(),
            err,
            "threads={threads}"
        );
        assert_eq!(rt.cost(), cost, "threads={threads}");
    }
}

#[test]
fn graph_helper_agrees_with_component_count() {
    // Cross-check against cc-graph: the root's subtree size equals its
    // component's size.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = cc_graph::generators::gnp(30, 0.08, &mut rng);
    let mut adj = vec![Vec::new(); 30];
    for e in g.edges() {
        adj[e.u as usize].push(e.v as usize);
        adj[e.v as usize].push(e.u as usize);
    }
    let labels = cc_graph::connectivity::component_labels(&g);
    let component_size = labels.iter().filter(|&&l| l == labels[0]).count() as u64;

    let mut rt = Runtime::parallel_with_threads(NetConfig::kt1(30), 4);
    let out = rt.run(flood_programs(&adj, 0), 400).unwrap();
    assert_eq!(out[0].subtree, component_size);
}
