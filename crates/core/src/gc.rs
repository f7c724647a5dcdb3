//! The `O(log log log n)`-round Graph Connectivity algorithm (Theorem 4).
//!
//! Phase 1 ([`crate::reduce_components::reduce_components`]) shrinks the
//! number of components with `⌈log log log n⌉ + 3` Lotker phases; Phase 2
//! ([`sketch_and_span`], Algorithm 2 SKETCHANDSPAN) finishes the maximal
//! spanning forest by shipping `Θ(log n)` linear sketches per unfinished
//! component leader to the coordinator `v*`, which completes the forest
//! locally by Borůvka-over-sketches and broadcasts the result.
//!
//! The run reports the full cost split (`phase1:*` vs `phase2:*` scopes),
//! which experiments E1/E4/E9 read.

use crate::component_graph::ComponentGraph;
use crate::error::CoreError;
use crate::reduce_components::{reduce_components, ReduceOutcome};
use cc_graph::{Edge, Graph, UnionFind};
use cc_net::{Cost, Defect, NetConfig};
use cc_route::{
    broadcast_large, gather_direct, malformed, route_bundles, shared_seed, Bundles, Net, Packet,
};
use cc_sketch::{
    decode_bundle, encode_bundle, recommended_families, spanning_forest_via_sketches,
    GraphSketchSpace, Sketch,
};
use std::collections::HashMap;

/// Tuning knobs for a GC run.
#[derive(Clone, Debug, Default)]
pub struct GcConfig {
    /// Phase-1 Lotker phase count (`None` = the paper's
    /// `⌈log log log n⌉ + 3`). Experiments pass small values to force
    /// Phase 2 to do real work at laptop scale.
    pub phases: Option<usize>,
    /// Independent sketch families `t` (`None` = `Θ(log n)` per Theorem 1).
    pub families: Option<usize>,
}

/// What GC establishes (replicated at every node by the final broadcast).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcOutput {
    /// Whether the input graph is connected.
    pub connected: bool,
    /// Number of connected components.
    pub component_count: usize,
    /// Component label (minimum member) per node.
    pub labels: Vec<usize>,
    /// A maximal spanning forest of the input graph.
    pub spanning_forest: Vec<Edge>,
}

/// A completed GC run with its measured cost.
#[derive(Clone, Debug)]
pub struct GcRun {
    /// The algorithm's output.
    pub output: GcOutput,
    /// Total metered cost.
    pub cost: Cost,
    /// Phase-1 (Lotker + component graph) cost.
    pub phase1: Cost,
    /// Phase-2 (sketch and span) cost.
    pub phase2: Cost,
}

/// Phase 2 result: the spanning forest `T2` of the component graph plus
/// the real witness edges it maps to.
#[derive(Clone, Debug)]
pub struct SpanOutcome {
    /// Component-graph forest edges as (leader, leader) pairs.
    pub t2: Vec<(usize, usize)>,
    /// One real input edge per `T2` edge.
    pub witnesses: Vec<Edge>,
}

/// Reads `sender`'s routed sketch bundle at `referee` and pushes its
/// sketches, one per space, onto `rows`: the one checked read of every
/// sketch shipment.
///
/// # Errors
///
/// [`NetError::Malformed`](cc_net::NetError::Malformed) if the bundle
/// lost or duplicated a middle fragment ([`Defect::Sequence`]), or arrived
/// short (its last fragment lost, which sequence numbers cannot see) or
/// not at all ([`Defect::SketchSize`], `found` 0).
pub(crate) fn take_sketches<'a, 'r>(
    bundles: &mut Bundles,
    referee: usize,
    sender: usize,
    spaces: impl IntoIterator<Item = &'a GraphSketchSpace>,
    rows: impl IntoIterator<Item = &'r mut Vec<Sketch>>,
) -> Result<(), CoreError> {
    // A bundle that never arrived reads as an empty one; no sketch space
    // is zero words wide, so the size check catches both.
    let words = bundles.take(referee, sender)?.unwrap_or_default();
    let sketches = decode_bundle(spaces, &words).map_err(|e| {
        let defect = Defect::SketchSize {
            expected: e.expected,
            found: e.found,
        };
        bundles.malformed(sender, referee, defect)
    })?;
    for (row, sk) in rows.into_iter().zip(sketches) {
        row.push(sk);
    }
    Ok(())
}

/// Algorithm 2: SKETCHANDSPAN on the component graph `g1`.
///
/// Unfinished leaders compute `t` linear sketches of their component-graph
/// neighborhood (over the compacted leader universe), ship them to the
/// coordinator via balanced routing, and the coordinator completes a
/// maximal spanning forest locally, then broadcasts it.
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations, and with
///   [`NetError::Malformed`](cc_net::NetError::Malformed) if a sketch
///   bundle lost or duplicated a fragment on the way, arrived short (its
///   last fragment lost) or not at all, or if a gathered witness is not
///   two words ([`Defect::Length`]) or not the edge its sender owes
///   ([`Defect::Endpoints`]).
/// * [`CoreError::SketchExhausted`] if sampling fails too often (Monte
///   Carlo failure, probability `1/n^{Ω(1)}`).
pub fn sketch_and_span(
    net: &mut Net,
    g1: &ComponentGraph,
    families: Option<usize>,
) -> Result<SpanOutcome, CoreError> {
    let coordinator = 0usize;
    let unfinished = g1.unfinished_leaders();
    if unfinished.is_empty() {
        return Ok(SpanOutcome {
            t2: Vec::new(),
            witnesses: Vec::new(),
        });
    }
    let l_count = unfinished.len();
    let t = families.unwrap_or_else(|| recommended_families(l_count));
    let compact: HashMap<usize, usize> = unfinished
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, i))
        .collect();

    // Theorem 1 preprocessing: shared randomness for the hash functions.
    let seed = shared_seed(net)?;
    let spaces = GraphSketchSpace::family(l_count.max(2), t, seed);

    // Each unfinished leader sketches its neighborhood in the compacted
    // component graph, once per family, and ships the concatenation.
    let mut scratch = cc_sketch::NeighborhoodScratch::default();
    let bundles = unfinished
        .iter()
        .map(|&l| {
            let neigh: Vec<usize> = g1.adj[&l].iter().map(|nb| compact[nb]).collect();
            let words = encode_bundle(&spaces, compact[&l], neigh.iter().copied(), &mut scratch);
            (l, coordinator, words)
        })
        .collect();
    let mut delivered = route_bundles(net, bundles)?;

    // Coordinator reads each sender's bundle and deserializes t sketches.
    let mut sketches: Vec<Vec<Sketch>> = vec![Vec::with_capacity(l_count); t];
    for &l in &unfinished {
        take_sketches(&mut delivered, coordinator, l, &spaces, &mut sketches)?;
    }

    // Local Borůvka over sketches at the coordinator.
    let ids: Vec<usize> = (0..l_count).collect();
    let result = spanning_forest_via_sketches(&spaces, &ids, &sketches);
    if result.exhausted {
        return Err(CoreError::SketchExhausted {
            failures: result.sample_failures,
        });
    }
    let t2: Vec<(usize, usize)> = result
        .edges
        .iter()
        .map(|e| {
            let (a, b) = (unfinished[e.u as usize], unfinished[e.v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();

    // Broadcast T2 so the smaller-ID leader of each pair can contribute its
    // witness real edge (paper: "one of the leaders, say the one with
    // smaller ID, picks an edge in G").
    let mut t2_words = Vec::with_capacity(t2.len() * 2 + 1);
    t2_words.push(t2.len() as u64);
    for &(a, b) in &t2 {
        t2_words.extend_from_slice(&[a as u64, b as u64]);
    }
    broadcast_large(net, coordinator, t2_words.into())?;

    let mut items: Vec<Vec<Packet>> = vec![Vec::new(); net.n()];
    let mut witnesses: Vec<Edge> = Vec::new();
    // `(leader, [u, v])`: the witnesses the coordinator is owed, sorted
    // so each arrival is checked against its sender's.
    let mut owed: Vec<(usize, [u64; 2])> = Vec::new();
    for &(a, b) in &t2 {
        let w = g1.min_edge[&(a, b)];
        if a == coordinator {
            witnesses.push(w.edge()); // coordinator's own witnesses are local
        } else {
            let words = [u64::from(w.u), u64::from(w.v)];
            items[a].push(Packet::of(&words));
            owed.push((a, words));
        }
    }
    owed.sort_unstable();
    let collected = gather_direct(net, coordinator, items)?;
    for (src, p) in collected {
        let refused = |defect| malformed(net, src, coordinator, defect);
        let &[u, v] = &p[..] else {
            return Err(refused(Defect::Length {
                found: p.len(),
                expected: 2,
            })
            .into());
        };
        // A pair its sender owes is two distinct nodes of the clique.
        if owed.binary_search(&(src, [u, v])).is_err() {
            return Err(refused(Defect::Endpoints { u, v }).into());
        }
        witnesses.push(Edge::new(u as usize, v as usize));
    }
    witnesses.sort();

    Ok(SpanOutcome { t2, witnesses })
}

/// Runs the full GC algorithm on an existing network.
///
/// # Errors
///
/// See [`sketch_and_span`].
pub fn run_on(net: &mut Net, g: &Graph, cfg: &GcConfig) -> Result<GcOutput, CoreError> {
    run_phases(net, g, cfg).map(|(output, _, _)| output)
}

/// [`run_on`], also returning the `phase1` and `phase2` scope deltas.
fn run_phases(
    net: &mut Net,
    g: &Graph,
    cfg: &GcConfig,
) -> Result<(GcOutput, Cost, Cost), CoreError> {
    let n = net.n();
    let coordinator = 0usize;
    // Under KT0 the algorithm first buys KT1 knowledge with an ID
    // broadcast (Section 2: the models are equivalent at Θ(n²) messages).
    if net.config().knowledge == cc_net::Knowledge::Kt0 {
        net.begin_scope("kt0-bootstrap");
        cc_route::kt0_bootstrap(net)?;
        net.end_scope();
    }
    net.begin_scope("phase1");
    let ReduceOutcome { t1, g1, .. } = reduce_components(net, g, cfg.phases)?;
    let phase1 = net.end_scope();

    net.begin_scope("phase2");
    let span = sketch_and_span(net, &g1, cfg.families)?;
    let phase2 = net.end_scope();

    // Assemble the maximal spanning forest and broadcast it so every node
    // knows it (the paper's output requirement for the forest version).
    let mut forest: Vec<Edge> = t1.iter().map(|e| e.edge()).collect();
    forest.extend(span.witnesses.iter().copied());
    forest.sort();
    forest.dedup();
    let mut words = Vec::with_capacity(forest.len() * 2 + 1);
    words.push(forest.len() as u64);
    for e in &forest {
        words.extend_from_slice(&[e.u as u64, e.v as u64]);
    }
    net.begin_scope("output-broadcast");
    broadcast_large(net, coordinator, words.into())?;
    net.end_scope();

    let mut uf = UnionFind::new(n);
    for e in &forest {
        uf.union(e.u as usize, e.v as usize);
    }
    let labels = uf.min_labels();
    let component_count = uf.set_count();
    let output = GcOutput {
        connected: component_count == 1,
        component_count,
        labels,
        spanning_forest: forest,
    };
    Ok((output, phase1, phase2))
}

/// Convenience: run GC on a fresh network built from `net_cfg` with default
/// algorithm parameters, returning outputs plus the measured costs.
///
/// # Errors
///
/// See [`sketch_and_span`].
pub fn run(g: &Graph, net_cfg: &NetConfig) -> Result<GcRun, CoreError> {
    run_with(g, net_cfg, &GcConfig::default())
}

/// Like [`run`] but with explicit algorithm knobs.
///
/// # Errors
///
/// See [`sketch_and_span`].
pub fn run_with(g: &Graph, net_cfg: &NetConfig, cfg: &GcConfig) -> Result<GcRun, CoreError> {
    let mut net = Net::new(net_cfg.clone());
    let (output, phase1, phase2) = run_phases(&mut net, g, cfg)?;
    Ok(GcRun {
        output,
        cost: net.cost(),
        phase1,
        phase2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{connectivity, generators};
    use cc_net::{MalformedMessage, NetError};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_against_reference(g: &Graph, run: &GcRun) {
        assert_eq!(run.output.connected, connectivity::is_connected(g));
        assert_eq!(run.output.component_count, connectivity::component_count(g));
        assert_eq!(run.output.labels, connectivity::component_labels(g));
        // Forest validity.
        let mut uf = UnionFind::new(g.n());
        for e in &run.output.spanning_forest {
            assert!(
                g.has_edge(e.u as usize, e.v as usize),
                "foreign forest edge"
            );
            assert!(uf.union(e.u as usize, e.v as usize), "cycle in forest");
        }
        assert_eq!(
            run.output.spanning_forest.len(),
            g.n() - connectivity::component_count(g),
            "forest not maximal"
        );
    }

    #[test]
    fn connected_graph_default_config() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::random_connected_graph(48, 0.08, &mut rng);
        let run = run(&g, &NetConfig::kt1(48).with_seed(7)).unwrap();
        assert!(run.output.connected);
        check_against_reference(&g, &run);
        assert!(run.cost.rounds > 0 && run.phase1.rounds > 0);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::with_k_components(40, 3, 0.4, &mut rng);
        let run = run(&g, &NetConfig::kt1(40).with_seed(8)).unwrap();
        assert!(!run.output.connected);
        assert_eq!(run.output.component_count, 3);
        check_against_reference(&g, &run);
    }

    #[test]
    fn forced_phase2_path_is_exercised() {
        // With a single Lotker phase on a long path, Phase 2 must stitch
        // many components via sketches.
        let g = generators::path(64);
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        let run = run_with(&g, &NetConfig::kt1(64).with_seed(9), &cfg).unwrap();
        assert!(run.output.connected);
        check_against_reference(&g, &run);
        assert!(
            run.phase2.messages > 0,
            "phase 2 must have moved sketches across the network"
        );
    }

    #[test]
    fn forced_phase2_on_disconnected_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::with_k_components(60, 4, 0.05, &mut rng);
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        let run = run_with(&g, &NetConfig::kt1(60).with_seed(10), &cfg).unwrap();
        assert_eq!(run.output.component_count, 4);
        check_against_reference(&g, &run);
    }

    #[test]
    fn edgeless_and_tiny_graphs() {
        let g = Graph::new(8);
        let r = run(&g, &NetConfig::kt1(8).with_seed(1)).unwrap();
        assert!(!r.output.connected);
        assert_eq!(r.output.component_count, 8);
        assert!(r.output.spanning_forest.is_empty());

        let mut g2 = Graph::new(2);
        g2.add_edge(0, 1);
        let r2 = super::run(&g2, &NetConfig::kt1(2).with_seed(1)).unwrap();
        assert!(r2.output.connected);
    }

    #[test]
    fn many_random_graphs_match_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for trial in 0..8u64 {
            let n = 30 + (trial as usize % 3) * 10;
            let g = generators::gnp(n, 0.06, &mut rng);
            let cfg = GcConfig {
                phases: Some((trial as usize) % 2),
                families: None,
            };
            let r = run_with(&g, &NetConfig::kt1(n).with_seed(trial), &cfg).unwrap();
            check_against_reference(&g, &r);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::path(32);
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        let a = run_with(&g, &NetConfig::kt1(32).with_seed(5), &cfg).unwrap();
        let b = run_with(&g, &NetConfig::kt1(32).with_seed(5), &cfg).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.cost, b.cost);
    }

    /// Drops every message the predicate picks out by `(round, src,
    /// dst)`.
    struct DropWhere<F>(F);

    impl<F: Fn(u64, usize, usize) -> bool + Send + Sync> cc_net::FaultInjector for DropWhere<F> {
        fn decision(&self, round: u64, src: usize, dst: usize, _: u32) -> cc_net::FaultDecision {
            if (self.0)(round, src, dst) {
                cc_net::FaultDecision::Drop
            } else {
                cc_net::FaultDecision::Deliver
            }
        }
    }

    /// A path at `phases: Some(0)`, where every vertex is an unfinished
    /// leader and ships its sketches to the coordinator.
    fn span_setup() -> (Graph, NetConfig, GcConfig) {
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        (generators::path(32), NetConfig::kt1(32).with_seed(5), cfg)
    }

    /// The first round of the sketch shipment (the first `route:route`
    /// scope inside `phase2`) and the `(round, dst, words)` batches
    /// leader 1 sends from it on, in a fault-free run.
    fn leader1_shipment() -> (u64, Vec<(u64, u32, u64)>) {
        use cc_trace::{Event, RecordingTracer};
        let (g, net_cfg, cfg) = span_setup();
        let mut net = Net::new(net_cfg);
        let rec = RecordingTracer::new();
        net.set_tracer(Box::new(rec.clone()));
        run_on(&mut net, &g, &cfg).unwrap();
        let events = rec.events();
        let phase2 = events
            .iter()
            .position(|e| matches!(e, Event::ScopeEnter { name, .. } if name == "phase2"))
            .expect("phase 2 ran");
        let start = events[phase2..]
            .iter()
            .find_map(|e| match e {
                Event::ScopeEnter { name, round } if name == "route:route" => Some(*round),
                _ => None,
            })
            .expect("phase 2 routed its sketches");
        let sent = events
            .iter()
            .filter_map(|e| match *e {
                Event::MessageBatch {
                    round,
                    src: 1,
                    dst,
                    words,
                    ..
                } if round >= start => Some((round, dst, words)),
                _ => None,
            })
            .collect();
        (start, sent)
    }

    fn run_dropping(pick: impl Fn(u64, usize, usize) -> bool + Send + Sync + 'static) -> CoreError {
        let (g, net_cfg, cfg) = span_setup();
        let mut net = Net::new(net_cfg);
        net.set_fault_injector(Box::new(DropWhere(pick)));
        run_on(&mut net, &g, &cfg).expect_err("a lost sketch bundle is an error")
    }

    #[test]
    fn a_sketch_bundle_that_never_arrives_is_an_error() {
        // Leader 1's is the first bundle the coordinator reads off the
        // network; everything it sends from the shipment on is lost.
        let (start, _) = leader1_shipment();
        let err = run_dropping(move |round, src, _| src == 1 && round >= start);
        assert!(
            matches!(
                err,
                CoreError::Net(NetError::Malformed(MalformedMessage {
                    sender: 1,
                    receiver: 0,
                    defect: Defect::SketchSize { expected, found: 0 },
                    ..
                })) if expected > 0
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_sketch_bundle_that_arrives_short_is_an_error() {
        // Leader 1 relays only toward the coordinator, so what it sends
        // anywhere else is its own frames, one per intermediary per round;
        // the one shorter frame among them is its bundle's last fragment.
        let (_, sent) = leader1_shipment();
        let own: Vec<_> = sent.into_iter().filter(|&(_, dst, _)| dst != 0).collect();
        let full = own
            .iter()
            .map(|&(_, _, w)| w)
            .max()
            .expect("leader 1 spread frames");
        let tails: Vec<_> = own.iter().filter(|&&(_, _, w)| w < full).collect();
        assert_eq!(tails.len(), 1, "one ragged last fragment: {own:?}");
        let &(at, to, _) = tails[0];
        let err =
            run_dropping(move |round, src, dst| round == at && src == 1 && dst == to as usize);
        assert!(
            matches!(
                err,
                CoreError::Net(NetError::Malformed(MalformedMessage {
                    sender: 1,
                    receiver: 0,
                    defect: Defect::SketchSize { expected, found },
                    ..
                })) if 0 < found && found < expected
            ),
            "{err:?}"
        );
    }

    /// The round of the witness gather and a leader that sends the
    /// coordinator exactly one witness in it, in a fault-free run.
    fn a_lone_witness() -> (u64, usize) {
        use cc_trace::{Event, RecordingTracer};
        let (g, net_cfg, cfg) = span_setup();
        let mut net = Net::new(net_cfg);
        let rec = RecordingTracer::new();
        net.set_tracer(Box::new(rec.clone()));
        run_on(&mut net, &g, &cfg).unwrap();
        let events = rec.events();
        let gather = events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::ScopeEnter { name, round } if name == "route:gather" => Some(*round),
                _ => None,
            })
            .expect("phase 2 gathered its witnesses");
        let src = events
            .iter()
            .find_map(|e| match *e {
                Event::MessageBatch {
                    round,
                    src,
                    dst: 0,
                    count: 1,
                    ..
                } if round == gather => Some(src as usize),
                _ => None,
            })
            .expect("some leader owes one witness");
        (gather, src)
    }

    #[test]
    fn a_corrupted_witness_is_an_error() {
        use cc_net::{FaultPlan, LinkSelector, RoundRange};
        // One bit of the leader's one witness is flipped on the gather
        // (under plan seed 0, bit 12 of its second word: an endpoint far
        // past n). The coordinator must refuse the pair, not index with it.
        let (round, src) = a_lone_witness();
        let (g, net_cfg, cfg) = span_setup();
        let mut net = Net::new(net_cfg);
        let plan = FaultPlan::new(0).corrupt_messages(
            RoundRange::only(round),
            LinkSelector::Link(src, 0),
            1.0,
        );
        net.set_fault_injector(Box::new(plan));
        let err = run_on(&mut net, &g, &cfg).expect_err("a corrupted witness is an error");
        assert!(
            matches!(
                err,
                CoreError::Net(NetError::Malformed(MalformedMessage {
                    sender,
                    receiver: 0,
                    defect: Defect::Endpoints { .. },
                    ..
                })) if sender == src
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wide_bandwidth_reduces_rounds() {
        // Theorem 4 "furthermore": with Θ(log⁵ n)-bit links the sketch
        // transfer collapses to O(1) rounds.
        let g = generators::path(48);
        let cfg = GcConfig {
            phases: Some(0),
            families: None,
        };
        let narrow = run_with(&g, &NetConfig::kt1(48).with_seed(6), &cfg).unwrap();
        let wide_cfg = NetConfig::kt1(48)
            .with_seed(6)
            .with_link_words(NetConfig::polylog_bandwidth(48));
        let wide = run_with(&g, &wide_cfg, &cfg).unwrap();
        check_against_reference(&g, &wide);
        assert!(
            wide.phase2.rounds < narrow.phase2.rounds,
            "wide {} vs narrow {}",
            wide.phase2.rounds,
            narrow.phase2.rounds
        );
    }
}
