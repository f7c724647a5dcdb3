//! Rooted forests with binary-lifting path-maximum queries.
//!
//! The Karger–Klein–Tarjan filter step (Definition 1 / Lemma 6 of the paper)
//! classifies an edge `{u, v}` as *F-light* iff its weight is at most the
//! maximum edge weight on the `u`–`v` path in the forest `F` (with the
//! convention `wt_F(u, v) = ∞` when no path exists). [`RootedForest`]
//! answers those path-maximum queries in `O(log n)` after
//! `O(n log n)` preprocessing.

use crate::edge::WEdge;
use crate::weight::Weight;
use std::collections::VecDeque;

const NONE: u32 = u32::MAX;

/// A forest on vertices `0..n`, rooted arbitrarily per tree, supporting
/// lowest-common-ancestor and path-maximum queries via binary lifting.
#[derive(Clone, Debug)]
pub struct RootedForest {
    n: usize,
    parent: Vec<u32>,
    depth: Vec<u32>,
    tree_id: Vec<u32>,
    /// `up[j][v]` = the `2^j`-th ancestor of `v` (or `NONE`).
    up: Vec<Vec<u32>>,
    /// `up_max[j][v]` = max edge weight on the path from `v` to `up[j][v]`.
    up_max: Vec<Vec<Option<Weight>>>,
}

impl RootedForest {
    /// Builds a rooted forest from a set of forest edges.
    ///
    /// # Panics
    ///
    /// Panics if the edges contain a cycle or an endpoint `≥ n`.
    pub fn from_edges(n: usize, edges: &[WEdge]) -> Self {
        let mut adj: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); n];
        for e in edges {
            let (u, v) = e.endpoints();
            assert!(u < n && v < n, "forest edge endpoint out of range");
            adj[u].push((v as u32, e.weight()));
            adj[v].push((u as u32, e.weight()));
        }
        let mut parent = vec![NONE; n];
        let mut parent_w: Vec<Option<Weight>> = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut tree_id = vec![NONE; n];
        let mut seen = vec![false; n];
        let mut edges_used = 0usize;
        let mut queue = VecDeque::new();
        for root in 0..n {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            tree_id[root] = root as u32;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                for &(v, w) in &adj[u] {
                    let v = v as usize;
                    if !seen[v] {
                        seen[v] = true;
                        parent[v] = u as u32;
                        parent_w[v] = Some(w);
                        depth[v] = depth[u] + 1;
                        tree_id[v] = root as u32;
                        edges_used += 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        assert_eq!(edges_used, edges.len(), "edge set contains a cycle");

        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (u32::BITS - max_depth.leading_zeros()).max(1) as usize;
        let mut up = Vec::with_capacity(levels);
        let mut up_max = Vec::with_capacity(levels);
        up.push(parent.clone());
        up_max.push(parent_w);
        for j in 1..levels {
            let (prev_up, prev_max) = (&up[j - 1], &up_max[j - 1]);
            let mut cur_up = vec![NONE; n];
            let mut cur_max: Vec<Option<Weight>> = vec![None; n];
            for v in 0..n {
                let mid = prev_up[v];
                if mid != NONE {
                    cur_up[v] = prev_up[mid as usize];
                    if cur_up[v] != NONE {
                        cur_max[v] = max_opt(prev_max[v], prev_max[mid as usize]);
                    }
                }
            }
            up.push(cur_up);
            up_max.push(cur_max);
        }
        RootedForest {
            n,
            parent,
            depth,
            tree_id,
            up,
            up_max,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Parent of `v`, or `None` for roots.
    pub fn parent(&self, v: usize) -> Option<usize> {
        (self.parent[v] != NONE).then(|| self.parent[v] as usize)
    }

    /// Depth of `v` within its tree (roots have depth 0).
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v] as usize
    }

    /// Whether `u` and `v` belong to the same tree.
    pub fn same_tree(&self, u: usize, v: usize) -> bool {
        self.tree_id[u] == self.tree_id[v]
    }

    /// Lowest common ancestor of `u` and `v`, or `None` if they are in
    /// different trees.
    pub fn lca(&self, u: usize, v: usize) -> Option<usize> {
        if !self.same_tree(u, v) {
            return None;
        }
        let (mut u, mut v) = (u, v);
        if self.depth[u] < self.depth[v] {
            std::mem::swap(&mut u, &mut v);
        }
        let mut diff = self.depth[u] - self.depth[v];
        let mut j = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                u = self.up[j][u] as usize;
            }
            diff >>= 1;
            j += 1;
        }
        if u == v {
            return Some(u);
        }
        for j in (0..self.up.len()).rev() {
            if self.up[j][u] != self.up[j][v] {
                u = self.up[j][u] as usize;
                v = self.up[j][v] as usize;
            }
        }
        Some(self.parent[u] as usize)
    }

    /// Maximum edge weight on the `u`–`v` path.
    ///
    /// Returns `None` when there is no path (`u`, `v` in different trees) —
    /// the `wt_F = ∞` case of Definition 1 is expressed by the caller
    /// treating `None` as infinite — and also `None` for `u == v`
    /// (empty path).
    pub fn path_max(&self, u: usize, v: usize) -> Option<Weight> {
        if u == v {
            return None;
        }
        let anc = self.lca(u, v)?;
        max_opt(self.max_to_ancestor(u, anc), self.max_to_ancestor(v, anc))
    }

    /// Max edge weight on the path from `v` up to ancestor `anc`
    /// (exclusive of anything above `anc`); `None` if `v == anc`.
    fn max_to_ancestor(&self, v: usize, anc: usize) -> Option<Weight> {
        let mut v = v;
        let mut acc: Option<Weight> = None;
        let mut diff = self.depth[v] - self.depth[anc];
        let mut j = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                acc = max_opt(acc, self.up_max[j][v]);
                v = self.up[j][v] as usize;
            }
            diff >>= 1;
            j += 1;
        }
        debug_assert_eq!(v, anc);
        acc
    }
}

fn max_opt(a: Option<Weight>, b: Option<Weight>) -> Option<Weight> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::WGraph;
    use crate::mst;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Brute-force path max by DFS.
    fn brute_path_max(n: usize, edges: &[WEdge], s: usize, t: usize) -> Option<Weight> {
        let mut adj: Vec<Vec<(usize, Weight)>> = vec![Vec::new(); n];
        for e in edges {
            let (u, v) = e.endpoints();
            adj[u].push((v, e.weight()));
            adj[v].push((u, e.weight()));
        }
        // DFS carrying the running max.
        let mut stack = vec![(s, usize::MAX, None::<Weight>)];
        while let Some((u, from, acc)) = stack.pop() {
            if u == t {
                return acc;
            }
            for &(v, w) in &adj[u] {
                if v != from {
                    stack.push((v, u, super::max_opt(acc, Some(w))));
                }
            }
        }
        None
    }

    #[test]
    fn path_forest_basics() {
        // 0 -1- 1 -5- 2 -3- 3
        let edges = vec![
            WEdge::new(0, 1, 1),
            WEdge::new(1, 2, 5),
            WEdge::new(2, 3, 3),
        ];
        let f = RootedForest::from_edges(4, &edges);
        assert!(f.same_tree(0, 3));
        assert_eq!(f.path_max(0, 3).unwrap().w, 5);
        assert_eq!(f.path_max(2, 3).unwrap().w, 3);
        assert_eq!(f.path_max(1, 1), None, "empty path has no max");
    }

    #[test]
    fn cross_tree_queries_are_none() {
        let edges = vec![WEdge::new(0, 1, 1), WEdge::new(2, 3, 2)];
        let f = RootedForest::from_edges(4, &edges);
        assert!(!f.same_tree(0, 2));
        assert_eq!(f.path_max(0, 3), None);
        assert_eq!(f.lca(1, 2), None);
    }

    #[test]
    fn lca_on_a_star() {
        let edges: Vec<WEdge> = (1..6).map(|v| WEdge::new(0, v, v as u64)).collect();
        let f = RootedForest::from_edges(6, &edges);
        assert_eq!(f.lca(1, 2), Some(0));
        assert_eq!(f.lca(3, 3), Some(3));
        assert_eq!(f.path_max(1, 2).unwrap().w, 2);
    }

    #[test]
    fn deep_path_queries() {
        let n = 5000;
        let edges: Vec<WEdge> = (1..n)
            .map(|v| WEdge::new(v - 1, v, (v % 97) as u64))
            .collect();
        let f = RootedForest::from_edges(n, &edges);
        assert_eq!(f.path_max(0, n - 1).unwrap().w, 96);
        assert_eq!(f.depth(n - 1), n - 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycles() {
        let edges = vec![
            WEdge::new(0, 1, 1),
            WEdge::new(1, 2, 2),
            WEdge::new(0, 2, 3),
        ];
        RootedForest::from_edges(3, &edges);
    }

    #[test]
    fn singleton_vertices_are_their_own_trees() {
        let f = RootedForest::from_edges(3, &[]);
        assert!(!f.same_tree(0, 1));
        assert_eq!(f.parent(2), None);
        assert_eq!(f.depth(2), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Binary-lifting path max agrees with brute force on random MSFs.
        #[test]
        fn matches_brute_force(seed in any::<u64>(), n in 2usize..40) {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::gnp_weighted(n, 0.15, 1000, &mut r);
            let forest = mst::kruskal(&g);
            let f = RootedForest::from_edges(n, &forest);
            for _ in 0..20 {
                let u = r.gen_range(0..n);
                let v = r.gen_range(0..n);
                if u == v { continue; }
                prop_assert_eq!(f.path_max(u, v), brute_path_max(n, &forest, u, v));
            }
        }

        /// On a spanning tree of a connected graph, every non-tree edge is
        /// at least as heavy (tie-broken) as the path max between its
        /// endpoints — the cycle property of the MST.
        #[test]
        fn mst_cycle_property(seed in any::<u64>(), n in 3usize..30) {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::random_connected_wgraph(n, 0.3, 100, &mut r);
            let t = mst::kruskal(&g);
            let f = RootedForest::from_edges(n, &t);
            let tset: std::collections::BTreeSet<_> = t.iter().map(|e| e.edge()).collect();
            for e in g.edges() {
                if tset.contains(&e.edge()) { continue; }
                let pm = f.path_max(e.u as usize, e.v as usize).unwrap();
                prop_assert!(e.weight() > pm, "non-tree edge lighter than path max");
            }
        }
    }

    #[test]
    fn works_on_forest_of_msf() {
        // Disconnected weighted graph → MSF → queries across and within.
        let mut g = WGraph::new(8);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 2, 9);
        g.add_edge(0, 2, 1);
        g.add_edge(4, 5, 2);
        g.add_edge(5, 6, 8);
        let msf = mst::kruskal(&g);
        let f = RootedForest::from_edges(8, &msf);
        assert!(f.same_tree(0, 2));
        assert!(!f.same_tree(0, 4));
        assert!(f.path_max(4, 6).unwrap().w == 8);
        assert_eq!(f.path_max(3, 7), None);
    }
}
