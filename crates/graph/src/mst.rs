//! Sequential reference MST algorithms.
//!
//! All three classics are provided — Kruskal, Prim, Borůvka — and all of
//! them compute the *minimum spanning forest* (one tree per component) under
//! the tie-broken total order of [`Weight`]. Because that
//! order makes weights distinct, the MSF is unique and all three algorithms
//! (and every distributed algorithm in this workspace) must return exactly
//! the same edge set; the tests rely on this.

use crate::edge::WEdge;
use crate::graph::WGraph;
use crate::union_find::UnionFind;
use crate::weight::Weight;
use std::collections::BinaryHeap;

/// Kruskal's algorithm: the minimum spanning forest as a sorted edge list.
pub fn kruskal(g: &WGraph) -> Vec<WEdge> {
    let mut uf = UnionFind::new(g.n());
    let mut out = Vec::new();
    for e in g.edges() {
        // g.edges() is already sorted by tie-broken weight.
        if uf.union(e.u as usize, e.v as usize) {
            out.push(e);
        }
    }
    out.sort();
    out
}

/// Prim's algorithm (run from every unvisited vertex, so it yields the full
/// forest on disconnected inputs).
pub fn prim(g: &WGraph) -> Vec<WEdge> {
    let n = g.n();
    let mut in_tree = vec![false; n];
    let mut out = Vec::new();
    // Max-heap on Reverse(weight).
    let mut heap: BinaryHeap<(std::cmp::Reverse<Weight>, u32, u32)> = BinaryHeap::new();
    for root in 0..n {
        if in_tree[root] {
            continue;
        }
        in_tree[root] = true;
        for &(v, w) in g.neighbors(root) {
            heap.push((
                std::cmp::Reverse(Weight::new(w, root, v as usize)),
                root as u32,
                v,
            ));
        }
        while let Some((std::cmp::Reverse(wt), from, to)) = heap.pop() {
            let to = to as usize;
            if in_tree[to] {
                continue;
            }
            in_tree[to] = true;
            out.push(WEdge::new(from as usize, to, wt.w));
            for &(v, w) in g.neighbors(to) {
                if !in_tree[v as usize] {
                    heap.push((
                        std::cmp::Reverse(Weight::new(w, to, v as usize)),
                        to as u32,
                        v,
                    ));
                }
            }
        }
    }
    out.sort();
    out
}

/// Borůvka's algorithm: repeated minimum-outgoing-edge contraction.
///
/// This mirrors the merge logic the coordinator performs locally in
/// SKETCHANDSPAN and in the Lotker et al. controlled merge, so having it as
/// an independent oracle exercises the same proof obligations.
pub fn boruvka(g: &WGraph) -> Vec<WEdge> {
    let n = g.n();
    let mut uf = UnionFind::new(n);
    let mut out: Vec<WEdge> = Vec::new();
    loop {
        // Minimum outgoing edge per current component.
        let mut best: Vec<Option<WEdge>> = vec![None; n];
        for u in 0..n {
            for &(v, w) in g.neighbors(u) {
                let v = v as usize;
                if u > v {
                    continue;
                }
                let (cu, cv) = (uf.find(u), uf.find(v));
                if cu == cv {
                    continue;
                }
                let e = WEdge::new(u, v, w);
                for c in [cu, cv] {
                    if best[c].is_none_or(|b| e.weight() < b.weight()) {
                        best[c] = Some(e);
                    }
                }
            }
        }
        let mut merged_any = false;
        for &e in best.iter().flatten() {
            if uf.union(e.u as usize, e.v as usize) {
                out.push(e);
                merged_any = true;
            }
            // If the union was a no-op, the same edge was chosen from
            // both sides this round and was already added once.
        }
        if !merged_any {
            break;
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Checks that `edges` forms a spanning forest of `g`: acyclic, uses only
/// edges of `g` (with matching weights), and connects exactly `g`'s
/// components.
pub fn is_spanning_forest(g: &WGraph, edges: &[WEdge]) -> bool {
    let mut uf = UnionFind::new(g.n());
    for e in edges {
        if g.weight_of(e.u as usize, e.v as usize) != Some(e.w) {
            return false; // not an edge of g (or wrong weight)
        }
        if !uf.union(e.u as usize, e.v as usize) {
            return false; // cycle
        }
    }
    // Spanning: contracting the forest must leave no g-edge between
    // different forest components.
    for e in g.edges() {
        if !uf.same(e.u as usize, e.v as usize) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn tiny_known_mst() {
        let mut g = WGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 3, 3);
        g.add_edge(3, 0, 4);
        g.add_edge(0, 2, 10);
        let t = kruskal(&g);
        assert_eq!(
            t,
            vec![
                WEdge::new(0, 1, 1),
                WEdge::new(1, 2, 2),
                WEdge::new(2, 3, 3)
            ]
        );
        assert!(is_spanning_forest(&g, &t));
    }

    #[test]
    fn all_three_agree_on_cliques() {
        for seed in 0..5 {
            let g = generators::complete_wgraph(20, &mut rng(seed));
            let k = kruskal(&g);
            assert_eq!(k, prim(&g), "seed={seed}");
            assert_eq!(k, boruvka(&g), "seed={seed}");
            assert_eq!(k.len(), 19);
        }
    }

    #[test]
    fn all_three_agree_with_heavy_ties() {
        // All weights equal: the tie-break must still make the MSF unique.
        let base = generators::gnp(30, 0.2, &mut rng(42));
        let mut g = WGraph::new(30);
        for e in base.edges() {
            g.add_edge(e.u as usize, e.v as usize, 7);
        }
        let k = kruskal(&g);
        assert_eq!(k, prim(&g));
        assert_eq!(k, boruvka(&g));
        assert!(is_spanning_forest(&g, &k));
    }

    #[test]
    fn disconnected_inputs_give_forests() {
        let mut rng = rng(3);
        let a = generators::random_connected_wgraph(10, 0.3, 100, &mut rng);
        let b = generators::random_connected_wgraph(7, 0.3, 100, &mut rng);
        let mut g = WGraph::new(17);
        for e in a.edges() {
            g.add_edge(e.u as usize, e.v as usize, e.w);
        }
        for e in b.edges() {
            g.add_edge(10 + e.u as usize, 10 + e.v as usize, e.w);
        }
        let k = kruskal(&g);
        assert_eq!(k.len(), 15, "two trees: 9 + 6 edges");
        assert_eq!(k, prim(&g));
        assert_eq!(k, boruvka(&g));
    }

    #[test]
    fn empty_and_edgeless() {
        let g = WGraph::new(5);
        assert!(kruskal(&g).is_empty());
        assert!(prim(&g).is_empty());
        assert!(boruvka(&g).is_empty());
        assert!(is_spanning_forest(&g, &[]));
    }

    #[test]
    fn validator_rejects_non_forests() {
        let mut g = WGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(0, 2, 3);
        // Cycle:
        assert!(!is_spanning_forest(
            &g,
            &[
                WEdge::new(0, 1, 1),
                WEdge::new(1, 2, 2),
                WEdge::new(0, 2, 3)
            ]
        ));
        // Not spanning:
        assert!(!is_spanning_forest(&g, &[WEdge::new(0, 1, 1)]));
        // Foreign edge:
        let mut h = WGraph::new(3);
        h.add_edge(0, 1, 1);
        assert!(!is_spanning_forest(&h, &[WEdge::new(0, 1, 99)]));
    }

    #[test]
    fn a_spanning_forest_need_not_be_minimum() {
        let mut g = WGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(0, 2, 3);
        let sub = vec![WEdge::new(1, 2, 2), WEdge::new(0, 2, 3)];
        assert!(is_spanning_forest(&g, &sub));
        assert!(WGraph::total_weight(&sub) > WGraph::total_weight(&kruskal(&g)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Kruskal, Prim and Borůvka agree edge-for-edge on arbitrary
        /// weighted G(n,p) graphs (connected or not, ties or not).
        #[test]
        fn classics_agree(seed in any::<u64>(), n in 2usize..40, pct in 0u32..100, maxw in 1u64..50) {
            let mut r = rng(seed);
            let g = generators::gnp_weighted(n, pct as f64 / 100.0, maxw, &mut r);
            let k = kruskal(&g);
            prop_assert_eq!(&k, &prim(&g));
            prop_assert_eq!(&k, &boruvka(&g));
            prop_assert!(is_spanning_forest(&g, &k));
        }

        /// The MSF has n - #components edges and minimum total weight among
        /// a sample of random spanning forests.
        #[test]
        fn msf_weight_is_minimal(seed in any::<u64>(), n in 3usize..25) {
            let mut r = rng(seed);
            let g = generators::random_connected_wgraph(n, 0.3, 1000, &mut r);
            let k = kruskal(&g);
            prop_assert_eq!(k.len(), n - 1);
            let kw = WGraph::total_weight(&k);
            // Compare against greedy-from-shuffled-order spanning trees.
            for _ in 0..5 {
                let mut es = g.edges();
                use rand::seq::SliceRandom;
                es.shuffle(&mut r);
                let mut uf = UnionFind::new(n);
                let alt: Vec<WEdge> = es.into_iter()
                    .filter(|e| uf.union(e.u as usize, e.v as usize))
                    .collect();
                prop_assert!(WGraph::total_weight(&alt) >= kw);
            }
        }
    }
}
