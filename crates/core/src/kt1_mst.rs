//! Theorem 13: MST in the KT1 Congested Clique with `O(n polylog n)`
//! messages and `O(polylog n)` rounds.
//!
//! A Borůvka outer loop of `O(log n)` phases. In each phase every active
//! component finds its minimum-weight outgoing edge (MWOE) with the
//! sketch-and-threshold search of the paper:
//!
//! 1. the component leader draws `Θ(log² n)` fresh random bits and sends
//!    them to its members *directly over clique links* (members are known
//!    in KT1; no `Θ(n²)` broadcast needed);
//! 2. every member sketches its **original** neighborhood restricted to
//!    edges not heavier than the current threshold, and ships the
//!    `Θ(log⁴ n)`-bit sketch to the leader over its single link
//!    (`Θ(log³ n)` messages, `Θ(log³ n)` rounds — exactly the paper's
//!    accounting);
//! 3. the leader adds the sketches (intra-component edges cancel), decodes
//!    outgoing-edge candidates, queries their weights from the incident
//!    members, lowers the threshold to the lightest seen, and tells the
//!    members to prune. Repeating `O(log n)` times shrinks the candidate
//!    set to the MWOE w.h.p.;
//! 4. leaders report MWOEs to the coordinator, which merges Borůvka-style
//!    and hands back the new component labels through the leaders.
//!
//! Pruning state **resets every phase** ("a linear sketch of its
//! neighborhood with respect to the original graph"): within a phase all
//! members share every threshold, so intra-component edges are pruned
//! consistently and cancellation stays exact; thresholds are weights of
//! genuine outgoing edges, so the MWOE itself is never pruned.
//!
//! Nothing in the algorithm sends `Θ(n²)` messages; experiment E8 verifies
//! the `O(n polylog n)` message growth against EXACT-MST's `Θ(n²)`.

use crate::error::CoreError;
use cc_graph::{UnionFind, WEdge, WGraph, Weight};
use cc_lotker::{read_edge, read_pair, MalformedMessage};
use cc_net::Cost;
use cc_route::{broadcast_large, route, ship_direct, Net, Packet, RoutedPacket};
use cc_sketch::{EdgeSample, GraphSketchSpace, Sketch};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Sentinel first word of a leader's "my component is finished" report.
const FINISHED: u64 = u64::MAX;

/// Tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct Kt1MstConfig {
    /// Borůvka phase cap (`None` = `2⌈log₂ n⌉ + 6`).
    pub max_phases: Option<usize>,
    /// Threshold-search iterations per phase (`None` = `⌈log₂ n⌉ + 4`).
    pub mwoe_iters: Option<usize>,
}

/// A completed KT1 MST run.
#[derive(Clone, Debug)]
pub struct Kt1MstRun {
    /// The minimum spanning forest (sorted real edges).
    pub mst: Vec<WEdge>,
    /// Per machine: its incident MST edges (the paper's output
    /// requirement: "each machine knows which of its incident edges belong
    /// to the output MST").
    pub incident: Vec<Vec<WEdge>>,
    /// Borůvka phases executed.
    pub phases: usize,
    /// Whether every component converged within the phase cap.
    pub complete: bool,
    /// Total metered cost.
    pub cost: Cost,
}

/// Runs the Theorem 13 algorithm on a (typically sparse) weighted graph.
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations.
/// * [`CoreError::Fragment`] if a shipped bundle lost or duplicated a
///   fragment on the way.
/// * [`CoreError::SketchSize`] if a member's sketch arrived with the
///   wrong word count.
/// * [`CoreError::Malformed`] if a weight query, its answer or a merge
///   report arrived with the wrong word count or with a word that names
///   no node (or an edge whose endpoints coincide).
///
/// # Panics
///
/// Panics if `g.n() != net.n()`.
pub fn kt1_mst(net: &mut Net, g: &WGraph, cfg: &Kt1MstConfig) -> Result<Kt1MstRun, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    assert_eq!(
        net.config().knowledge,
        cc_net::Knowledge::Kt1,
        "Theorem 13 is a KT1 algorithm: leaders must know their members' \
         IDs without a Θ(n²) bootstrap (which KT0 would require, see \
         Theorem 9)"
    );
    let coordinator = 0usize;
    let start = net.cost();
    let lg = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
    let max_phases = cfg.max_phases.unwrap_or(2 * lg + 6);
    let iters = cfg.mwoe_iters.unwrap_or(lg + 4);

    let mut labels: Vec<usize> = (0..n).collect();
    let mut finished_labels: HashSet<usize> = HashSet::new();
    // The coordinator's view (it has seen every merge edge).
    let mut uf = UnionFind::new(n);
    let mut chosen: Vec<WEdge> = Vec::new();
    let mut phases = 0usize;
    let mut complete = false;

    while phases < max_phases {
        // Member lists of the current partition.
        let mut members_of: HashMap<usize, Vec<usize>> = HashMap::new();
        for (v, &l) in labels.iter().enumerate() {
            members_of.entry(l).or_default().push(v);
        }
        let active: Vec<usize> = {
            let mut a: Vec<usize> = members_of
                .keys()
                .copied()
                .filter(|l| !finished_labels.contains(l))
                .collect();
            a.sort_unstable();
            a
        };
        if active.is_empty() {
            complete = true;
            break;
        }
        phases += 1;

        // Per-phase pruning state (reset to the original graph).
        let mut thresh: Vec<Option<Weight>> = vec![None; n];
        let mut best: HashMap<usize, WEdge> = HashMap::new();
        let mut newly_finished: HashSet<usize> = HashSet::new();
        let mut searching: HashSet<usize> = active.iter().copied().collect();

        // Cost scopes use constant names (not per-phase) so per-phase
        // repetitions aggregate by name in trace reports.
        net.begin_scope("kt1-mst:mwoe-search");
        for _iter in 0..iters {
            if searching.is_empty() {
                break;
            }
            // (1) Leaders distribute fresh shared randomness to members.
            // Leaders act in ascending order, so the run (and the first
            // error it reports) is the same in every process.
            let mut leaders: Vec<usize> = searching.iter().copied().collect();
            leaders.sort_unstable();
            let seeds: HashMap<usize, u64> = leaders
                .iter()
                .map(|&l| (l, net.node_rng(l).gen()))
                .collect();
            net.step(|node, _inbox, out| {
                if let Some(&seed) = seeds.get(&node) {
                    for &m in &members_of[&node] {
                        if m != node {
                            let _ = out.send(m, Packet::of(&[seed & 0xFFFF_FFFF, seed >> 32]));
                        }
                    }
                }
            })?;
            net.step(|_node, _inbox, _out| {})?;

            // (2) Members sketch their thresholded original neighborhood
            // and ship it to the leader over their single link.
            let spaces: HashMap<usize, GraphSketchSpace> = seeds
                .iter()
                .map(|(&l, &s)| (l, GraphSketchSpace::new(n, s)))
                .collect();
            let mut uploads = Vec::new();
            let mut leader_sums: HashMap<usize, Sketch> = HashMap::new();
            let mut scratch = cc_sketch::NeighborhoodScratch::default();
            for &l in &searching {
                let sp = &spaces[&l];
                for &v in &members_of[&l] {
                    let sk = sp.sketch_neighborhood_with(
                        v,
                        g.neighbors(v).iter().filter_map(|&(u, w)| {
                            let wt = Weight::new(w, v, u as usize);
                            match thresh[v] {
                                Some(t) if wt > t => None,
                                _ => Some(u as usize),
                            }
                        }),
                        &mut scratch,
                    );
                    if v == l {
                        leader_sums.insert(l, sk);
                    } else {
                        uploads.push((v, l, sk.to_words()));
                    }
                }
            }
            // Pipelined member → leader transfer (one link each); leaders
            // read and add member sketches.
            let mut arrived = ship_direct(net, uploads)?;
            for &l in &leaders {
                let sp = &spaces[&l];
                let sum = leader_sums.entry(l).or_insert_with(|| sp.zero_sketch());
                for &m in &members_of[&l] {
                    if let Some(words) = arrived.take(l, m)? {
                        let sk = Sketch::try_from_words(sp.inner(), words).map_err(|e| {
                            CoreError::SketchSize {
                                leader: l,
                                member: m,
                                expected: e.expected,
                                found: e.found,
                            }
                        })?;
                        sum.add_assign_sketch(&sk);
                    }
                }
            }

            // (3) Decode candidates; query weights; lower thresholds.
            let mut queries: HashMap<usize, Vec<(usize, usize, usize)>> = HashMap::new(); // member -> (leader, x, y)
            let mut answers: HashMap<usize, Vec<WEdge>> = HashMap::new();
            let mut zero_now: Vec<usize> = Vec::new();
            for &l in &leaders {
                let sp = &spaces[&l];
                let sum = &leader_sums[&l];
                let mut cands = sp.decode_all_edges(sum);
                if cands.is_empty() {
                    match sp.sample_edge(sum) {
                        EdgeSample::Zero => {
                            zero_now.push(l);
                            continue;
                        }
                        EdgeSample::Fail => continue, // retry next iteration
                        EdgeSample::Edge(x, y) => cands.push((x, y)),
                    }
                }
                for (x, y) in cands {
                    let (in_x, in_y) = (labels[x] == l, labels[y] == l);
                    if in_x == in_y {
                        continue; // defensive: garbage decode
                    }
                    let member = if in_x { x } else { y };
                    if member == l {
                        // Leader answers its own query locally.
                        if let Some(w) = g.weight_of(x, y) {
                            answers.entry(l).or_default().push(WEdge::new(x, y, w));
                        }
                    } else {
                        queries.entry(member).or_default().push((l, x, y));
                    }
                }
            }
            for l in zero_now {
                searching.remove(&l);
                newly_finished.insert(l);
            }
            // Query rounds: leader → member [x, y]; member → leader [w, x, y].
            let mut request_queues: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); n];
            for (member, qs) in queries {
                for (l, x, y) in qs {
                    request_queues[l].push((member, Packet::of(&[x as u64, y as u64])));
                }
            }
            let mut answer_queues: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); n];
            loop {
                let work = request_queues.iter().any(|q| !q.is_empty())
                    || answer_queues.iter().any(|q| !q.is_empty())
                    || net.has_pending();
                if !work {
                    break;
                }
                let round = net.cost().rounds;
                let mut malformed = None;
                net.step(|node, inbox, out| {
                    // Queue answers for arrived 2-word requests; collect
                    // 3-word answers. The first message that is neither
                    // ends the run once the round is over.
                    for env in inbox {
                        let read = match *env.msg {
                            [x, y] => read_pair(x, y, n).map(|(x, y)| {
                                if let Some(w) = g.weight_of(x, y) {
                                    answer_queues[node]
                                        .push((env.src, Packet::of(&[w, x as u64, y as u64])));
                                }
                            }),
                            _ => read_edge(&env.msg, n)
                                .map(|e| answers.entry(node).or_default().push(e)),
                        };
                        if let Err(defect) = read {
                            malformed.get_or_insert(MalformedMessage {
                                round,
                                sender: env.src,
                                receiver: node,
                                defect,
                            });
                        }
                    }
                    // Send queued answers, then pending requests, under the
                    // per-link budget; what does not fit waits a round.
                    let queued_answers = std::mem::take(&mut answer_queues[node]);
                    for (dst, a) in queued_answers {
                        if out.budget_left(dst) >= a.len() as u64 {
                            let _ = out.send(dst, a);
                        } else {
                            answer_queues[node].push((dst, a));
                        }
                    }
                    let queue = std::mem::take(&mut request_queues[node]);
                    for (member, q) in queue {
                        if out.budget_left(member) >= q.len() as u64 {
                            let _ = out.send(member, q);
                        } else {
                            request_queues[node].push((member, q));
                        }
                    }
                })?;
                if let Some(e) = malformed {
                    return Err(CoreError::Malformed(e));
                }
            }

            // Threshold update + broadcast to members.
            let mut new_thresh: HashMap<usize, WEdge> = HashMap::new();
            for (&l, es) in &answers {
                if !searching.contains(&l) {
                    continue;
                }
                if let Some(&min_e) = es.iter().min_by_key(|e| e.weight()) {
                    let cur_best = best.get(&l).copied();
                    if cur_best.is_none_or(|b| min_e.weight() < b.weight()) {
                        best.insert(l, min_e);
                    }
                    new_thresh.insert(l, min_e);
                }
            }
            net.step(|node, _inbox, out| {
                if let Some(e) = new_thresh.get(&node) {
                    for &m in &members_of[&node] {
                        if m != node {
                            let _ = out.send(m, Packet::of(&[e.w, e.u as u64, e.v as u64]));
                        }
                    }
                }
            })?;
            net.step(|_node, _inbox, _out| {})?;
            for (&l, e) in &new_thresh {
                for &m in &members_of[&l] {
                    thresh[m] = Some(e.weight());
                }
            }
        }
        net.end_scope();

        // (4) Report MWOEs / finished status to the coordinator and merge.
        net.begin_scope("kt1-mst:merge-report");
        let mut reports: HashMap<usize, Packet> = HashMap::new();
        for &l in &active {
            if newly_finished.contains(&l) {
                reports.insert(l, Packet::one(FINISHED));
            } else if let Some(e) = best.get(&l) {
                reports.insert(l, Packet::of(&[e.w, e.u as u64, e.v as u64]));
            }
            // A leader with neither (all decodes failed) stays silent and
            // retries next phase.
        }
        let mut received: Vec<(usize, Packet)> = Vec::new();
        if let Some(own) = reports.get(&coordinator) {
            received.push((coordinator, own.clone()));
        }
        net.step(|node, _inbox, out| {
            if node != coordinator {
                if let Some(msg) = reports.get(&node) {
                    let _ = out.send(coordinator, msg.clone());
                }
            }
        })?;
        let report_round = net.cost().rounds;
        net.step(|node, inbox, _out| {
            if node == coordinator {
                for env in inbox {
                    received.push((env.src, env.msg.clone()));
                }
            }
        })?;
        received.sort_by_key(|&(src, _)| src);
        let mut merged_any = false;
        let mut finished_roots: HashSet<usize> =
            finished_labels.iter().map(|&l| uf.find(l)).collect();
        for (src, msg) in received {
            if *msg == [FINISHED] {
                finished_roots.insert(uf.find(src));
            } else {
                let e = read_edge(&msg, n).map_err(|defect| {
                    CoreError::Malformed(MalformedMessage {
                        round: report_round,
                        sender: src,
                        receiver: coordinator,
                        defect,
                    })
                })?;
                if uf.union(e.u as usize, e.v as usize) {
                    chosen.push(e);
                    merged_any = true;
                }
            }
        }
        net.end_scope();
        // Re-root the finished set after the merges.
        let finished_roots: HashSet<usize> = finished_roots.iter().map(|&l| uf.find(l)).collect();

        // New labels: coordinator → old leaders → members (two metered
        // hops).
        net.begin_scope("kt1-mst:relabel");
        let new_labels = uf.min_labels();
        let old_leaders = active.clone();
        net.step(|node, _inbox, out| {
            if node == coordinator {
                for &l in &old_leaders {
                    if l != coordinator {
                        let _ = out.send(l, Packet::one(new_labels[l] as u64));
                    }
                }
            }
        })?;
        net.step(|_node, _inbox, _out| {})?;
        net.step(|node, _inbox, out| {
            if members_of.contains_key(&node) {
                for &m in &members_of[&node] {
                    if m != node {
                        let _ = out.send(m, Packet::one(new_labels[m] as u64));
                    }
                }
            }
        })?;
        net.step(|_node, _inbox, _out| {})?;
        net.end_scope();
        finished_labels = finished_roots.iter().map(|&r| new_labels[r]).collect();
        labels = new_labels;

        let all_finished = labels.iter().all(|l| finished_labels.contains(l));
        if all_finished {
            complete = true;
            break;
        }
        if !merged_any && newly_finished.is_empty() {
            // No progress this phase (decode failures everywhere) — the
            // next phase retries with fresh randomness; the phase cap
            // bounds the total.
        }
    }
    if !complete {
        complete = labels.iter().all(|l| finished_labels.contains(l));
    }

    // Output distribution: every machine learns its incident MST edges.
    net.begin_scope("kt1-mst:output");
    chosen.sort();
    chosen.dedup();
    let mut packets = Vec::new();
    for e in &chosen {
        for dst in [e.u as usize, e.v as usize] {
            packets.push(RoutedPacket {
                src: coordinator,
                dst,
                payload: Packet::of(&[e.w, e.u as u64, e.v as u64]),
            });
        }
    }
    let delivered = route(net, packets)?;
    let incident: Vec<Vec<WEdge>> = delivered
        .iter()
        .map(|msgs| {
            let mut es: Vec<WEdge> = msgs
                .iter()
                .map(|(_, p)| WEdge::new(p[1] as usize, p[2] as usize, p[0]))
                .collect();
            es.sort();
            es
        })
        .collect();
    // Convenience broadcast of the full forest (counts toward the
    // O(n polylog n) budget; the paper's output requirement is the
    // incident knowledge above).
    let mut words = Vec::with_capacity(chosen.len() * 3 + 1);
    words.push(chosen.len() as u64);
    for e in &chosen {
        words.extend_from_slice(&[e.w, e.u as u64, e.v as u64]);
    }
    broadcast_large(net, coordinator, words.into())?;
    net.end_scope();

    Ok(Kt1MstRun {
        mst: chosen,
        incident,
        phases,
        complete,
        cost: net.cost().since(&start),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, mst};
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize, seed: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(seed))
    }

    fn check(g: &WGraph, run: &Kt1MstRun) {
        assert!(run.complete, "did not converge in {} phases", run.phases);
        assert_eq!(run.mst, mst::kruskal(g));
        // Incident knowledge is consistent with the forest.
        for (v, es) in run.incident.iter().enumerate() {
            for e in es {
                assert!(e.u as usize == v || e.v as usize == v);
                assert!(run.mst.contains(e));
            }
        }
        for e in &run.mst {
            assert!(run.incident[e.u as usize].contains(e));
            assert!(run.incident[e.v as usize].contains(e));
        }
    }

    #[test]
    fn small_connected_graphs() {
        for seed in 0..4 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::random_connected_wgraph(16, 0.25, 1000, &mut rng);
            let mut nt = net(16, seed);
            let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
            check(&g, &run);
        }
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let base = generators::with_k_components(20, 3, 0.4, &mut rng);
        let g = generators::with_random_weights(&base, 500, &mut rng);
        let mut nt = net(20, 2);
        let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
        check(&g, &run);
    }

    #[test]
    fn edgeless_graph_finishes_immediately() {
        let g = WGraph::new(8);
        let mut nt = net(8, 1);
        let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
        assert!(run.complete);
        assert!(run.mst.is_empty());
    }

    #[test]
    fn path_graph_worst_case_boruvka() {
        let mut g = WGraph::new(24);
        for v in 1..24 {
            g.add_edge(v - 1, v, (v * 13 % 97) as u64);
        }
        let mut nt = net(24, 3);
        let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
        check(&g, &run);
    }

    #[test]
    fn message_complexity_is_subquadratic() {
        // The whole point of Theorem 13: messages ≪ n² for sparse inputs.
        let n = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::random_connected_wgraph(n, 4.0 / n as f64, 10_000, &mut rng);
        let mut nt = net(n, 4);
        let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
        check(&g, &run);
        // Theorem 13's own bound with constant 1: n · ⌈log₂ n⌉⁵.
        let lg = (usize::BITS - (n - 1).leading_zeros()) as u64;
        let bound = n as u64 * lg.pow(5);
        assert!(
            run.cost.messages <= bound,
            "messages {} exceed n·log⁵n = {bound}",
            run.cost.messages
        );
    }

    #[test]
    fn equal_weights_tie_break() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let base = generators::random_connected_graph(14, 0.3, &mut rng);
        let mut g = WGraph::new(14);
        for e in base.edges() {
            g.add_edge(e.u as usize, e.v as usize, 5);
        }
        let mut nt = net(14, 5);
        let run = kt1_mst(&mut nt, &g, &Kt1MstConfig::default()).unwrap();
        check(&g, &run);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_connected_wgraph(18, 0.2, 100, &mut rng);
        let a = kt1_mst(&mut net(18, 9), &g, &Kt1MstConfig::default()).unwrap();
        let b = kt1_mst(&mut net(18, 9), &g, &Kt1MstConfig::default()).unwrap();
        assert_eq!(a.mst, b.mst);
        assert_eq!(a.cost, b.cost);
    }
}
