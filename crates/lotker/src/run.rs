//! The distributed CC-MST driver (Lotker et al., Theorem 2).
//!
//! The algorithm runs in phases of a constant number of rounds each. At the
//! start of phase `k` the node set is partitioned into fragments of size at
//! least `s = 2^{2^{k-2}}` and every node knows the partition and the tree
//! edges chosen so far. One phase:
//!
//! 1. **Share** — all-to-all broadcast of fragment labels (1 round,
//!    `n(n−1)` messages; keeps "every node knows `F_k`" literal).
//! 2. **Candidates up** — every node sends, for each other fragment `F'`,
//!    its lightest edge into `F'` to `F'`'s leader (≤ `m − 1` messages per
//!    node to distinct receivers → 1 round). Clique links that are not
//!    input edges count with weight `∞`, exactly as Algorithm 1 builds its
//!    weighted clique.
//! 3. **Leader exchange** — each leader now knows, per fragment `F`, the
//!    minimum-weight edge `F → F'`; it returns that value to `F`'s leader
//!    (≤ `m` messages to distinct receivers → 1 round). Each leader ends
//!    with its fragment's full minimum-edge row.
//! 4. **Candidates to coordinator** — each leader selects its `s` lightest
//!    candidates (to distinct fragments) and routes them to the
//!    coordinator `v* = 0`; `m·s ≤ n` packets, within the routing
//!    contract.
//! 5. **Controlled merge** — `v*` runs the capped Borůvka of
//!    [`merge`](crate::merge) locally.
//! 6. **Broadcast down** — `v*` broadcasts the relabeling and the chosen
//!    edges (≤ `O(n)` words) with the distribute-and-rebroadcast
//!    collective; every node updates its fragment table and forest copy.
//!
//! Every edge a node reads in steps 2, 3 and 5 is checked before use: its
//! word count, its endpoints, its sender, and that it joins the fragments
//! it was sent between ([`NetError::Malformed`]).

use crate::merge::{controlled_boruvka, Candidate};
use cc_graph::{WEdge, WGraph};
use cc_net::{Defect, NetError};
use cc_route::{
    all_to_all_share, broadcast_large, malformed, read_inbox, route, Net, Packet, RoutedPacket,
};

/// Result of running CC-MST for some number of phases.
#[derive(Clone, Debug)]
pub struct CcMstRun {
    /// Fragment leader (minimum member ID) of every node.
    pub fragment_of: Vec<usize>,
    /// All tree edges chosen so far — always *real* input edges: the merge
    /// never selects `∞` closure links (a component whose minimum outgoing
    /// edge is `∞` already spans its finite connected component), so
    /// Algorithm 1 step 3's "discard ∞ edges" is a no-op by construction
    /// and unfinished trees can never be fragmented by it (Lemma 3).
    pub forest: Vec<WEdge>,
    /// Phases actually executed (may stop early once no merges remain).
    pub phases_run: usize,
    /// Whether no further merges are possible: every fragment spans a
    /// connected component of the input (one fragment total iff the input
    /// is connected).
    pub finished: bool,
}

/// Guaranteed minimum fragment size entering phase `k` (1-based):
/// `s_0 = 1`, `s_k = s_{k-1}²` — i.e. `2^{2^{k-2}}`, saturating at `n`.
pub fn min_fragment_size_before_phase(k: usize, n: usize) -> usize {
    let mut s = 1usize;
    for _ in 1..k {
        // A phase leaves components of > s fragments, each of ≥ s nodes:
        // new size ≥ s(s+1) ≥ max(s + 1, s²).
        s = s.saturating_mul(s).max(s + 1).min(n.max(1));
        if s >= n {
            break;
        }
    }
    s.min(n.max(1))
}

/// `⌈log log log n⌉ + 3`, the phase count Algorithm 1 (REDUCECOMPONENTS)
/// runs CC-MST for.
pub fn reduce_components_phases(n: usize) -> usize {
    let lg = |x: f64| x.log2();
    let mut v = lg(lg(lg(n.max(4) as f64).max(1.0)).max(1.0));
    if v < 0.0 {
        v = 0.0;
    }
    v.ceil() as usize + 3
}

/// The words `u`, `v` as two distinct nodes of an `n`-clique.
///
/// # Errors
///
/// [`Defect::Endpoints`] if either names no node or both name the same.
pub fn read_pair(u: u64, v: u64, n: usize) -> Result<(usize, usize), Defect> {
    let node = |x: u64| usize::try_from(x).ok().filter(|&x| x < n);
    match (node(u), node(v)) {
        (Some(a), Some(b)) if a != b => Ok((a, b)),
        _ => Err(Defect::Endpoints { u, v }),
    }
}

/// The edge a `[w, u, v]` message carries, if it has three words and its
/// endpoint words name two distinct nodes of an `n`-clique.
///
/// # Errors
///
/// [`Defect::Length`] for any other word count, else as [`read_pair`].
pub fn read_edge(msg: &[u64], n: usize) -> Result<WEdge, Defect> {
    let &[w, u, v] = msg else {
        return Err(Defect::Length {
            found: msg.len(),
            expected: 3,
        });
    };
    read_pair(u, v, n).map(|(a, b)| WEdge::new(a, b, w))
}

/// `edge` if `joins` holds for its endpoints, else the defect naming it.
fn joining(edge: WEdge, joins: impl Fn(usize, usize) -> bool) -> Result<WEdge, Defect> {
    let (u, v) = edge.endpoints();
    if joins(u, v) {
        Ok(edge)
    } else {
        Err(Defect::Fragments { u, v })
    }
}

/// Runs CC-MST on the weighted-clique closure of `g` (absent clique links
/// weigh `∞`) for at most `phases` phases (`None` = to completion).
///
/// Requires `g.n() == net.n()`.
///
/// # Errors
///
/// * Propagates simulator errors.
/// * [`NetError::Malformed`] names the first message (lowest receiver,
///   then inbox order) that the protocol cannot have sent — what a
///   corrupting or deferring fault plan produces.
///
/// # Panics
///
/// Panics if the graph and network sizes disagree.
pub fn cc_mst(net: &mut Net, g: &WGraph, phases: Option<usize>) -> Result<CcMstRun, NetError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    let coordinator = 0usize;
    let mut frag_of: Vec<usize> = (0..n).collect();
    let mut forest: Vec<WEdge> = Vec::new();
    let max_phases = phases.unwrap_or(usize::MAX);
    let mut phases_run = 0usize;
    let mut finished = false;

    while phases_run < max_phases && !finished {
        let k = phases_run + 1;
        let cap = min_fragment_size_before_phase(k, n);
        net.begin_scope(format!("lotker-phase-{k}"));

        // ---- Step 1: share fragment labels (cost parity; the table is
        // already replicated knowledge).
        let labels: Vec<u64> = frag_of.iter().map(|&l| l as u64).collect();
        all_to_all_share(net, &labels)?;

        let mut leaders: Vec<usize> = frag_of.clone();
        leaders.sort_unstable();
        leaders.dedup();
        if leaders.len() == 1 {
            net.end_scope();
            finished = true;
            break;
        }

        // Dense fragment index shared by steps 2, 3, and 5: fragment labels
        // are leader node IDs, so an `n`-sized table maps label → compact
        // index in `leaders`. The per-node/per-leader minimum reductions
        // below run over epoch-stamped dense arrays instead of hash maps —
        // the sent message multiset is unchanged (minima under the total
        // `Weight` order are unique, so reduction order is irrelevant), only
        // the local compute is cheaper.
        let m = leaders.len();
        let mut frag_idx: Vec<u32> = vec![u32::MAX; n];
        for (j, &l) in leaders.iter().enumerate() {
            frag_idx[l] = j as u32;
        }
        let mut best: Vec<WEdge> = vec![WEdge::new(0, 1, 0); m];
        let mut mark: Vec<u32> = vec![0; m];
        let mut epoch: u32 = 0;

        // ---- Step 2: every node sends its lightest edge into each other
        // fragment to that fragment's leader. Fragments with no real edge
        // from `v` get the clique-closure link `(v, leader')` of weight ∞.
        let mut inbound: Vec<Vec<WEdge>> = vec![Vec::new(); n];
        net.step(|v, _inbox, out| {
            epoch += 1;
            let fv = frag_of[v];
            for &(u, w) in g.neighbors(v) {
                let fu = frag_of[u as usize];
                if fu == fv {
                    continue;
                }
                let j = frag_idx[fu] as usize;
                let e = WEdge::new(v, u as usize, w);
                if mark[j] != epoch {
                    mark[j] = epoch;
                    best[j] = e;
                } else if e.weight() < best[j].weight() {
                    best[j] = e;
                }
            }
            for (j, &l) in leaders.iter().enumerate() {
                if l == fv {
                    continue;
                }
                let e = if mark[j] == epoch {
                    best[j]
                } else {
                    WEdge::new(v, l, cc_graph::weight::INFINITE_W)
                };
                let _ = out.send(l, Packet::of(&[e.w, e.u as u64, e.v as u64]));
            }
        })?;
        // An edge from its sender into this leader's fragment.
        read_inbox(
            net,
            |node, src, msg| {
                read_edge(msg, n).and_then(|e| {
                    joining(e, |u, v| {
                        frag_of[src] != node
                            && ((u == src && frag_of[v] == node)
                                || (v == src && frag_of[u] == node))
                    })
                })
            },
            |node, e| inbound[node].push(e),
        )?;

        // ---- Step 3: leader of F' reduces per source fragment and returns
        // the row entries to each source fragment's leader.
        // reduce: (source fragment, this fragment) -> min edge.
        let mut rows: Vec<Vec<WEdge>> = vec![Vec::new(); n]; // candidate row per leader
        net.step(|node, _inbox, out| {
            if frag_idx[node] == u32::MAX {
                return; // not a leader this phase
            }
            epoch += 1;
            for e in &inbound[node] {
                // The endpoint inside the *sender's* fragment is the one not
                // in this leader's fragment.
                let (u, v) = e.endpoints();
                let src_frag = if frag_of[u] == node {
                    frag_of[v]
                } else {
                    frag_of[u]
                };
                let j = frag_idx[src_frag] as usize;
                if mark[j] != epoch {
                    mark[j] = epoch;
                    best[j] = *e;
                } else if e.weight() < best[j].weight() {
                    best[j] = *e;
                }
            }
            for (j, &dst) in leaders.iter().enumerate() {
                if mark[j] == epoch {
                    let e = best[j];
                    let _ = out.send(dst, Packet::of(&[e.w, e.u as u64, e.v as u64]));
                }
            }
        })?;
        // A row entry from another fragment's leader: an edge between
        // its fragment and this one.
        read_inbox(
            net,
            |node, src, msg| {
                if frag_of[src] != src {
                    return Err(Defect::Sender);
                }
                read_edge(msg, n).and_then(|e| {
                    joining(e, |u, v| {
                        let (fu, fv) = (frag_of[u], frag_of[v]);
                        (fu == node && fv == src) || (fu == src && fv == node)
                    })
                })
            },
            |node, e| rows[node].push(e),
        )?;

        // ---- Step 4: each leader keeps its `cap` lightest row entries and
        // routes them to the coordinator.
        let mut packets = Vec::new();
        for &l in &leaders {
            rows[l].sort();
            for e in rows[l].iter().take(cap) {
                packets.push(RoutedPacket {
                    src: l,
                    dst: coordinator,
                    payload: Packet::of(&[e.w, e.u as u64, e.v as u64]),
                });
            }
        }
        let delivered = route(net, packets)?;

        // ---- Step 5: coordinator merges locally.
        let mut cand_lists: Vec<Vec<Candidate>> = vec![Vec::new(); leaders.len()];
        for &(src, ref payload) in &delivered[coordinator] {
            // A row entry of leader `src`: an edge leaving its fragment.
            let edge = if src < n && frag_of[src] == src {
                read_edge(payload, n)
                    .and_then(|e| joining(e, |u, v| (frag_of[u] == src) != (frag_of[v] == src)))
            } else {
                Err(Defect::Sender)
            };
            let e = edge.map_err(|defect| malformed(net, src, coordinator, defect))?;
            let (u, v) = e.endpoints();
            let src_frag = src; // sender leader == its fragment label
            let far = if frag_of[u] == src_frag {
                frag_of[v]
            } else {
                frag_of[u]
            };
            cand_lists[frag_idx[src_frag] as usize].push(Candidate {
                edge: e,
                far_fragment: far,
            });
        }
        let outcome = controlled_boruvka(&leaders, &cand_lists, cap);

        // ---- Step 6: broadcast relabeling + chosen edges; everyone
        // updates its replicated state.
        let mut words: Vec<u64> = Vec::new();
        words.push(leaders.len() as u64);
        for &l in &leaders {
            words.push(outcome.relabel[&l] as u64);
        }
        words.push(outcome.chosen.len() as u64);
        for e in &outcome.chosen {
            words.extend_from_slice(&[e.w, e.u as u64, e.v as u64]);
        }
        broadcast_large(net, coordinator, words.into())?;

        let merged_any = !outcome.chosen.is_empty();
        for f in frag_of.iter_mut() {
            *f = outcome.relabel[&*f];
        }
        forest.extend(outcome.chosen.iter().copied());
        net.end_scope();
        phases_run += 1;
        if !merged_any {
            finished = true;
        }
        let mut remaining = frag_of.clone();
        remaining.sort_unstable();
        remaining.dedup();
        if remaining.len() == 1 {
            finished = true;
        }
    }

    forest.sort();
    forest.dedup();
    Ok(CcMstRun {
        fragment_of: frag_of,
        forest,
        phases_run,
        finished,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, mst};
    use cc_net::{FaultDecision, FaultInjector, MalformedMessage, NetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn net(n: usize, seed: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(seed))
    }

    #[test]
    fn size_schedule() {
        assert_eq!(min_fragment_size_before_phase(1, 1024), 1);
        assert_eq!(min_fragment_size_before_phase(2, 1024), 2);
        assert_eq!(min_fragment_size_before_phase(3, 1024), 4);
        assert_eq!(min_fragment_size_before_phase(4, 1024), 16);
        assert_eq!(min_fragment_size_before_phase(5, 1024), 256);
        assert_eq!(
            min_fragment_size_before_phase(6, 1024),
            1024,
            "saturates at n"
        );
    }

    #[test]
    fn reduce_phase_counts_are_tiny() {
        assert_eq!(reduce_components_phases(1024), 5);
        assert!(reduce_components_phases(1 << 20) <= 6);
        assert!(reduce_components_phases(16) >= 3);
    }

    #[test]
    fn full_run_matches_kruskal_on_cliques() {
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::complete_wgraph(24, &mut rng);
            let mut nt = net(24, seed);
            let run = cc_mst(&mut nt, &g, None).unwrap();
            assert!(run.finished);
            assert_eq!(run.forest, mst::kruskal(&g), "seed={seed}");
            assert!(run.fragment_of.iter().all(|&l| l == 0));
        }
    }

    #[test]
    fn sparse_graph_clique_closure_never_bridges_with_infinity() {
        // Two far-apart components: the merge refuses ∞ closure links, so
        // the run finishes with one fragment per input component and the
        // forest equals the true minimum spanning forest.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = generators::random_connected_wgraph(8, 0.4, 50, &mut rng);
        let mut g = cc_graph::WGraph::new(16);
        for e in a.edges() {
            g.add_edge(e.u as usize, e.v as usize, e.w);
        }
        let b = generators::random_connected_wgraph(8, 0.4, 50, &mut rng);
        for e in b.edges() {
            g.add_edge(8 + e.u as usize, 8 + e.v as usize, e.w);
        }
        let mut nt = net(16, 1);
        let run = cc_mst(&mut nt, &g, None).unwrap();
        assert!(run.finished);
        assert!(
            run.forest
                .iter()
                .all(|e| e.w != cc_graph::weight::INFINITE_W),
            "no ∞ edge may ever be chosen"
        );
        assert_eq!(run.forest, mst::kruskal(&g), "forest is the true MSF");
        let mut frags = run.fragment_of.clone();
        frags.sort_unstable();
        frags.dedup();
        assert_eq!(frags, vec![0, 8], "one fragment per input component");
    }

    #[test]
    fn phase_limited_run_grows_fragments_per_schedule() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::complete_wgraph(32, &mut rng);
        for k in 1..=3usize {
            let mut nt = net(32, 7);
            let run = cc_mst(&mut nt, &g, Some(k)).unwrap();
            // Growth is a lower bound: the run may converge early.
            assert!(run.phases_run <= k);
            assert!(run.phases_run == k || run.finished);
            // Fragment sizes ≥ schedule bound (or a single fragment).
            let mut sizes: HashMap<usize, usize> = HashMap::new();
            for &l in &run.fragment_of {
                *sizes.entry(l).or_default() += 1;
            }
            let bound = min_fragment_size_before_phase(k + 1, 32);
            if sizes.len() > 1 {
                for (&l, &s) in &sizes {
                    assert!(s >= bound, "phase {k}: fragment {l} has size {s} < {bound}");
                }
            }
            // All chosen finite edges are MST edges.
            let mst_set: std::collections::BTreeSet<WEdge> = mst::kruskal(&g).into_iter().collect();
            for e in &run.forest {
                assert!(mst_set.contains(e), "non-MST edge chosen in phase ≤ {k}");
            }
        }
    }

    #[test]
    fn rounds_per_phase_are_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::complete_wgraph(64, &mut rng);
        let mut nt = net(64, 2);
        let run = cc_mst(&mut nt, &g, None).unwrap();
        assert!(run.finished);
        let rounds = nt.cost().rounds;
        let per_phase = rounds as f64 / run.phases_run as f64;
        assert!(
            per_phase <= 40.0,
            "expected O(1) rounds per phase, got {per_phase} over {} phases",
            run.phases_run
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::complete_wgraph(20, &mut rng);
        let r1 = cc_mst(&mut net(20, 3), &g, None).unwrap();
        let r2 = cc_mst(&mut net(20, 3), &g, None).unwrap();
        assert_eq!(r1.forest, r2.forest);
        assert_eq!(r1.fragment_of, r2.fragment_of);
    }

    /// Applies `decision` to the one message `src → dst` sends in
    /// `round`, and delivers everything else.
    struct OneFault {
        round: u64,
        src: usize,
        dst: usize,
        decision: FaultDecision,
    }

    impl FaultInjector for OneFault {
        fn decision(&self, round: u64, src: usize, dst: usize, _index: u32) -> FaultDecision {
            if (round, src, dst) == (self.round, self.src, self.dst) {
                self.decision
            } else {
                FaultDecision::Deliver
            }
        }
    }

    /// Phase 1 at n = 8: round 0 shares labels, round 2 sends every
    /// node's candidate to every other node (all are leaders), round 3
    /// reads them, round 4 returns the row entries and round 5 reads
    /// those. A fault on link 5 → 0 surfaces as a typed error.
    fn faulted_run(round: u64, decision: FaultDecision) -> NetError {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::complete_wgraph(8, &mut rng);
        let mut nt = net(8, 1);
        nt.set_fault_injector(Box::new(OneFault {
            round,
            src: 5,
            dst: 0,
            decision,
        }));
        cc_mst(&mut nt, &g, None).unwrap_err()
    }

    #[test]
    fn malformed_candidates_are_typed_errors() {
        let at_round_3 = |defect| {
            NetError::Malformed(MalformedMessage {
                round: 3,
                sender: 5,
                receiver: 0,
                defect,
            })
        };
        // A label deferred into the candidate round: one word, not three.
        assert_eq!(
            faulted_run(0, FaultDecision::Defer { rounds: 2 }),
            at_round_3(Defect::Length {
                found: 1,
                expected: 3
            })
        );
        // Bit 40 of the first endpoint word: no such node.
        let err = faulted_run(2, FaultDecision::Corrupt { bit: 64 + 40 });
        assert!(
            matches!(&err, NetError::Malformed(m) if m.round == 3
                && matches!(m.defect, Defect::Endpoints { u, v: 5 } if u == 1 << 40)),
            "{err:?}"
        );
        // Bit 0 of the second endpoint word: edge {0, 5} becomes {0, 4},
        // two real nodes, but not the sender's edge into node 0.
        assert_eq!(
            faulted_run(2, FaultDecision::Corrupt { bit: 2 * 64 }),
            at_round_3(Defect::Fragments { u: 0, v: 4 })
        );
        // The same flip on leader 5's row entry for leader 0 (round 4,
        // read in round 5).
        assert_eq!(
            faulted_run(4, FaultDecision::Corrupt { bit: 2 * 64 }),
            NetError::Malformed(MalformedMessage {
                round: 5,
                sender: 5,
                receiver: 0,
                defect: Defect::Fragments { u: 0, v: 4 },
            })
        );
    }

    #[test]
    fn two_node_clique() {
        let mut g = cc_graph::WGraph::new(2);
        g.add_edge(0, 1, 7);
        let mut nt = net(2, 0);
        let run = cc_mst(&mut nt, &g, None).unwrap();
        assert!(run.finished);
        assert_eq!(run.forest, vec![WEdge::new(0, 1, 7)]);
    }

    #[test]
    fn scope_costs_recorded_per_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::complete_wgraph(16, &mut rng);
        let mut nt = net(16, 4);
        let rec = cc_trace::RecordingTracer::new();
        nt.set_tracer(Box::new(rec.clone()));
        let run = cc_mst(&mut nt, &g, None).unwrap();
        let events = rec.take_events();
        for k in 1..=run.phases_run {
            let phase = format!("lotker-phase-{k}");
            let c = events
                .iter()
                .find_map(|e| match e {
                    cc_trace::Event::ScopeExit { name, delta } if *name == phase => Some(*delta),
                    _ => None,
                })
                .unwrap();
            assert!(c.rounds > 0);
            assert!(c.messages > 0);
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use cc_graph::{generators, mst, UnionFind};
    use cc_net::NetConfig;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Invariants of phase-limited runs over random weighted cliques:
        /// (i)  every fragment has at least the schedule's size bound
        ///      (Theorem 2(i));
        /// (ii) the chosen forest is a subset of the true MST;
        /// (iii') ∞-safety — the part of Theorem 2(iii) that Lemma 3
        ///      consumes: a fragment whose tree contains an ∞ edge has no
        ///      finite outgoing edge (so discarding ∞ edges never
        ///      fragments an *unfinished* tree). Full 2(iii) is specific
        ///      to Lotker's merge schedule; simultaneous Borůvka merges
        ///      (ours) satisfy the weaker form, which is all the paper's
        ///      Phase 1 uses.
        #[test]
        fn theorem2_invariants(seed in any::<u64>(), n in 8usize..28, phases in 1usize..3) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::complete_wgraph(n, &mut rng);
            let mut net = Net::new(NetConfig::kt1(n).with_seed(seed));
            let run = cc_mst(&mut net, &g, Some(phases)).unwrap();

            // (ii) forest ⊆ MST.
            let mst_set: std::collections::BTreeSet<WEdge> =
                mst::kruskal(&g).into_iter().collect();
            for e in &run.forest {
                prop_assert!(mst_set.contains(e), "non-MST edge selected");
            }

            // (i) fragment size bound (unless converged to one fragment).
            let mut sizes: HashMap<usize, usize> = HashMap::new();
            for &l in &run.fragment_of {
                *sizes.entry(l).or_default() += 1;
            }
            if sizes.len() > 1 {
                let bound = min_fragment_size_before_phase(run.phases_run + 1, n);
                for (&l, &s) in &sizes {
                    prop_assert!(s >= bound, "fragment {l}: size {s} < {bound}");
                }
            }

            // (iii') ∞-safety: fragments whose tree holds an ∞ edge have
            // no finite outgoing edge. Exercise it on the clique closure
            // of a *sparse* graph (cliques themselves have no ∞ edges).
            let sparse = generators::gnp_weighted(n, 0.2, 1000, &mut rng);
            let mut net2 = Net::new(NetConfig::kt1(n).with_seed(seed ^ 1));
            let run2 = cc_mst(&mut net2, &sparse, Some(phases)).unwrap();
            let mut uf = UnionFind::new(n);
            for e in &run2.forest {
                uf.union(e.u as usize, e.v as usize);
            }
            let has_inf: std::collections::HashSet<usize> = run2
                .forest
                .iter()
                .filter(|e| e.w == cc_graph::weight::INFINITE_W)
                .map(|e| run2.fragment_of[e.u as usize])
                .collect();
            for e in sparse.edges() {
                let (a, b) = (run2.fragment_of[e.u as usize], run2.fragment_of[e.v as usize]);
                if a != b {
                    prop_assert!(
                        !has_inf.contains(&a) && !has_inf.contains(&b),
                        "fragment with an ∞ tree edge still has finite outgoing edge {e:?}"
                    );
                }
            }
        }
    }
}
