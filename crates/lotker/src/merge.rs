//! The coordinator's controlled Borůvka merge.
//!
//! In each Lotker phase the coordinator `v*` receives, for every fragment,
//! its `s` lightest minimum-weight edges to *distinct* other fragments
//! (its "candidate list", `s` = the current guaranteed minimum fragment
//! size). It then merges fragments along minimum outgoing candidates,
//! **freezing** any merged super-fragment that exceeds `s` member
//! fragments.
//!
//! Why this is safe and sufficient (the heart of Lotker et al.'s analysis):
//!
//! * *Safety*: while a super-fragment `S` has at most `s` member fragments,
//!   the minimum outgoing candidate of `S` equals its true minimum-weight
//!   outgoing edge. If the true minimum `e` left member `F` but were
//!   missing from `F`'s list, the list would hold `s` per-fragment minima
//!   all lighter than `e`; at most `|S| − 1 ≤ s − 1` of them lead inside
//!   `S`, so one leads outside and is lighter than `e` — contradiction.
//!   Merging along true minimum outgoing edges is a Borůvka step, so every
//!   chosen edge is an MST edge (weights are tie-broken distinct).
//! * *Growth*: the input graph is a (weighted) clique, so the fragment
//!   graph is complete; an unfrozen component always finds an outgoing
//!   candidate unless it already spans all fragments. Hence every
//!   component ends frozen (> `s` member fragments, each of ≥ `s` nodes,
//!   so the new minimum fragment size is > `s²`) or complete — which is
//!   exactly the `2^{2^{k−1}}` growth of Theorem 2(i).

use cc_graph::{UnionFind, WEdge, Weight};
use std::collections::HashMap;

/// A candidate edge as shipped to the coordinator: tie-broken weight plus
/// the fragment the far endpoint belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The edge (carries its own tie-broken weight).
    pub edge: WEdge,
    /// Raw weight may be `INFINITE_W` (a clique link that is not a real
    /// input edge — REDUCECOMPONENTS filters these afterwards).
    pub far_fragment: usize,
}

/// Result of one controlled merge.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// `old fragment leader → new fragment leader` (minimum member ID).
    pub relabel: HashMap<usize, usize>,
    /// Edges chosen this phase (all MST edges of the weighted clique).
    pub chosen: Vec<WEdge>,
}

/// Runs the controlled Borůvka merge.
///
/// * `leaders` — current fragment leaders (minimum node ID per fragment).
/// * `candidates[i]` — fragment `leaders[i]`'s candidate list (the `s`
///   lightest min-weight edges to distinct fragments; complete if the
///   fragment has fewer than `s` neighbors).
/// * `cap` — freeze threshold `s` (≥ 1).
///
/// # Panics
///
/// Panics if `cap == 0` or a candidate references an unknown fragment.
pub fn controlled_boruvka(
    leaders: &[usize],
    candidates: &[Vec<Candidate>],
    cap: usize,
) -> MergeOutcome {
    assert!(cap >= 1, "freeze threshold must be positive");
    assert_eq!(
        leaders.len(),
        candidates.len(),
        "one candidate list per fragment"
    );
    let m = leaders.len();
    let index_of: HashMap<usize, usize> =
        leaders.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let mut uf = UnionFind::new(m);
    let mut members: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
    let mut frozen = vec![false; m];
    let mut chosen: Vec<WEdge> = Vec::new();

    loop {
        // Snapshot phase: best outgoing candidate per active component,
        // indexed by root.
        let mut best: Vec<Option<(Weight, WEdge, usize)>> = vec![None; m];
        for root in 0..m {
            if uf.find(root) != root || frozen[root] || members[root].len() > cap {
                continue;
            }
            let mut comp_best: Option<(Weight, WEdge, usize)> = None;
            for &fi in &members[root] {
                for c in &candidates[fi] {
                    if c.edge.w == cc_graph::weight::INFINITE_W {
                        // Never merge along ∞ (non-input) links: a
                        // component whose true minimum outgoing edge is ∞
                        // already spans its finite connected component —
                        // it is *finished* in Algorithm 1's sense. This
                        // keeps every chosen edge real, so discarding ∞
                        // edges (Algorithm 1 step 3) can never fragment an
                        // unfinished tree — the invariant Lemma 3 needs.
                        continue;
                    }
                    let far = *index_of
                        .get(&c.far_fragment)
                        .expect("candidate references unknown fragment");
                    if uf.find(far) == root {
                        continue; // internal by now
                    }
                    let w = c.edge.weight();
                    if comp_best.is_none_or(|(bw, _, _)| w < bw) {
                        comp_best = Some((w, c.edge, far));
                    }
                }
            }
            best[root] = comp_best;
        }
        // Apply phase, in root order: when corrupted candidates make two
        // components name different edges between them, the lower root's
        // edge wins, so a run replays the same answer.
        let mut progressed = false;
        for (root, pick) in best.into_iter().enumerate() {
            let Some((_w, edge, far)) = pick else {
                continue;
            };
            let (a, b) = (uf.find(root), uf.find(far));
            if a == b {
                continue;
            }
            uf.union(a, b);
            let new_root = uf.find(a);
            let (lo, hi) = if new_root == a { (a, b) } else { (b, a) };
            let moved = std::mem::take(&mut members[hi]);
            members[lo].extend(moved);
            frozen[lo] = frozen[lo] || frozen[hi] || members[lo].len() > cap;
            chosen.push(edge);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    // New leader per old fragment: minimum leader ID in its component
    // (fragment leaders are component minima, so the min leader is the
    // min node of the merged component).
    let mut min_leader: HashMap<usize, usize> = HashMap::new();
    for (i, &leader) in leaders.iter().enumerate() {
        let r = uf.find(i);
        let e = min_leader.entry(r).or_insert(usize::MAX);
        *e = (*e).min(leader);
    }
    let relabel: HashMap<usize, usize> = (0..m)
        .map(|i| (leaders[i], min_leader[&uf.find(i)]))
        .collect();
    chosen.sort();
    chosen.dedup();
    MergeOutcome { relabel, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(u: usize, v: usize, w: u64, far: usize) -> Candidate {
        Candidate {
            edge: WEdge::new(u, v, w),
            far_fragment: far,
        }
    }

    #[test]
    fn two_fragments_merge_along_min() {
        let leaders = vec![0, 1];
        let candidates = vec![vec![cand(0, 1, 5, 1)], vec![cand(0, 1, 5, 0)]];
        let out = controlled_boruvka(&leaders, &candidates, 1);
        assert_eq!(out.chosen, vec![WEdge::new(0, 1, 5)]);
        assert_eq!(out.relabel[&0], 0);
        assert_eq!(out.relabel[&1], 0);
    }

    #[test]
    fn chain_merges_fully_with_large_cap() {
        // Fragments 0-1-2-3 in a path of candidate minima.
        let leaders = vec![0, 1, 2, 3];
        let candidates = vec![
            vec![cand(0, 1, 1, 1)],
            vec![cand(0, 1, 1, 0), cand(1, 2, 2, 2)],
            vec![cand(1, 2, 2, 1), cand(2, 3, 3, 3)],
            vec![cand(2, 3, 3, 2)],
        ];
        let out = controlled_boruvka(&leaders, &candidates, 10);
        assert_eq!(out.chosen.len(), 3);
        assert!(out.relabel.values().all(|&l| l == 0));
    }

    #[test]
    fn freeze_cap_limits_growth_but_all_merge_at_least_once() {
        // 4 singleton fragments on a complete candidate structure, cap 1:
        // every component freezes after one merge (2 members > cap).
        let leaders = vec![0, 1, 2, 3];
        let candidates = vec![
            vec![cand(0, 1, 1, 1)],
            vec![cand(0, 1, 1, 0)],
            vec![cand(2, 3, 2, 3)],
            vec![cand(2, 3, 2, 2)],
        ];
        let out = controlled_boruvka(&leaders, &candidates, 1);
        assert_eq!(out.chosen.len(), 2);
        // Components {0,1} and {2,3}: every fragment merged with ≥ 1 other.
        assert_eq!(out.relabel[&1], 0);
        assert_eq!(out.relabel[&3], 2);
        assert_ne!(out.relabel[&0], out.relabel[&2]);
    }

    #[test]
    fn chosen_edges_are_mst_edges_of_fragment_graph() {
        // Fragment graph = triangle with weights 1, 2, 3: MST is {1, 2}.
        let leaders = vec![0, 1, 2];
        let candidates = vec![
            vec![cand(0, 1, 1, 1), cand(0, 2, 3, 2)],
            vec![cand(0, 1, 1, 0), cand(1, 2, 2, 2)],
            vec![cand(1, 2, 2, 1), cand(0, 2, 3, 0)],
        ];
        let out = controlled_boruvka(&leaders, &candidates, 5);
        assert_eq!(out.chosen, vec![WEdge::new(0, 1, 1), WEdge::new(1, 2, 2)]);
    }

    #[test]
    fn no_candidates_no_merges() {
        let leaders = vec![4, 9];
        let candidates = vec![Vec::new(), Vec::new()];
        let out = controlled_boruvka(&leaders, &candidates, 3);
        assert!(out.chosen.is_empty());
        assert_eq!(out.relabel[&4], 4);
        assert_eq!(out.relabel[&9], 9);
    }

    #[test]
    fn duplicate_choice_of_same_edge_not_double_counted() {
        let leaders = vec![3, 7];
        let candidates = vec![vec![cand(3, 7, 2, 7)], vec![cand(3, 7, 2, 3)]];
        let out = controlled_boruvka(&leaders, &candidates, 2);
        assert_eq!(out.chosen.len(), 1);
    }

    #[test]
    fn disagreeing_candidates_resolve_by_root_order() {
        // The two fragments name different edges between them (a
        // corrupted weight): the lower root's edge always wins.
        let leaders = vec![0, 1];
        let candidates = vec![vec![cand(0, 1, 5, 1)], vec![cand(0, 1, 6, 0)]];
        for _ in 0..64 {
            let out = controlled_boruvka(&leaders, &candidates, 1);
            assert_eq!(out.chosen, vec![WEdge::new(0, 1, 5)]);
        }
    }

    #[test]
    #[should_panic(expected = "unknown fragment")]
    fn unknown_far_fragment_rejected() {
        let leaders = vec![0];
        let candidates = vec![vec![cand(0, 1, 1, 99)]];
        controlled_boruvka(&leaders, &candidates, 1);
    }
}
