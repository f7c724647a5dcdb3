//! Simple undirected graphs on vertex set `0..n`.
//!
//! Both [`Graph`] (unweighted) and [`WGraph`] (weighted) are adjacency-list
//! structures for *simple* graphs: no self-loops, no parallel edges. In the
//! Congested Clique model the input graph is a spanning subgraph of the
//! machine clique, so vertices and machine IDs coincide.

use crate::edge::{Edge, WEdge};
use crate::weight::Weight;
use std::collections::BTreeSet;

/// An undirected, unweighted simple graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<u32>>,
    m: usize,
}

impl Graph {
    /// Empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Graph on `n` vertices with the given edges (duplicates and reversed
    /// orientations are deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `≥ n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Graph::new(n);
        let set: BTreeSet<Edge> = edges.into_iter().collect();
        for e in set {
            g.add_edge(e.u as usize, e.v as usize);
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds the edge `{a, b}` if not already present; returns whether it was
    /// inserted.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is `≥ n`.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        if self.has_edge(a, b) {
            return false;
        }
        self.adj[a].push(b as u32);
        self.adj[b].push(a as u32);
        self.m += 1;
        true
    }

    /// Whether the edge `{a, b}` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n || a == b {
            return false;
        }
        // Scan the shorter list.
        let (x, y) = if self.adj[a].len() <= self.adj[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[x].contains(&(y as u32))
    }

    /// Neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ n`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Adjacency lists filled from [`Graph::edges`] in ascending edge
    /// order — the input shape of the runtime connectivity programs.
    pub fn adjacency_lists(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for e in self.edges() {
            adj[e.u as usize].push(e.v as usize);
            adj[e.v as usize].push(e.u as usize);
        }
        adj
    }

    /// All edges in canonical orientation, ascending.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.m);
        for u in 0..self.n {
            for &v in &self.adj[u] {
                if u < v as usize {
                    out.push(Edge::new(u, v as usize));
                }
            }
        }
        out.sort();
        out
    }

    /// Removes the edge `{a, b}` if present; returns whether it was removed.
    pub fn remove_edge(&mut self, a: usize, b: usize) -> bool {
        if !self.has_edge(a, b) {
            return false;
        }
        self.adj[a].retain(|&x| x as usize != b);
        self.adj[b].retain(|&x| x as usize != a);
        self.m -= 1;
        true
    }
}

/// An undirected, weighted simple graph with `u64` raw weights.
///
/// Weight comparisons throughout the workspace go through [`Weight`], which
/// tie-breaks by endpoints, so equal raw weights are fine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WGraph {
    n: usize,
    adj: Vec<Vec<(u32, u64)>>,
    m: usize,
}

impl WGraph {
    /// Empty weighted graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        WGraph {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Weighted graph on `n` vertices from an edge list (later duplicates of
    /// the same pair are ignored).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `≥ n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = WEdge>) -> Self {
        let mut g = WGraph::new(n);
        for e in edges {
            g.add_edge(e.u as usize, e.v as usize, e.w);
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds the edge `{a, b}` with raw weight `w` if absent; returns whether
    /// it was inserted.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is `≥ n`.
    pub fn add_edge(&mut self, a: usize, b: usize, w: u64) -> bool {
        assert!(a < self.n && b < self.n, "endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        if self.has_edge(a, b) {
            return false;
        }
        self.adj[a].push((b as u32, w));
        self.adj[b].push((a as u32, w));
        self.m += 1;
        true
    }

    /// Whether the edge `{a, b}` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n || a == b {
            return false;
        }
        let (x, y) = if self.adj[a].len() <= self.adj[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[x].iter().any(|&(t, _)| t as usize == y)
    }

    /// Raw weight of the edge `{a, b}`, if present.
    pub fn weight_of(&self, a: usize, b: usize) -> Option<u64> {
        if a >= self.n || b >= self.n || a == b {
            return None;
        }
        self.adj[a]
            .iter()
            .find(|&&(t, _)| t as usize == b)
            .map(|&(_, w)| w)
    }

    /// Tie-broken [`Weight`] of the edge `{a, b}`, if present.
    pub fn tie_weight_of(&self, a: usize, b: usize) -> Option<Weight> {
        self.weight_of(a, b).map(|w| Weight::new(w, a, b))
    }

    /// Weighted neighbors of `v` as `(neighbor, raw weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ n`.
    pub fn neighbors(&self, v: usize) -> &[(u32, u64)] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// All weighted edges in canonical orientation, sorted by tie-broken
    /// weight (the unique rank order of Algorithm 4).
    pub fn edges(&self) -> Vec<WEdge> {
        let mut out = Vec::with_capacity(self.m);
        for u in 0..self.n {
            for &(v, w) in &self.adj[u] {
                if u < v as usize {
                    out.push(WEdge::new(u, v as usize, w));
                }
            }
        }
        out.sort();
        out
    }

    /// Forgets weights.
    pub fn as_unweighted(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for u in 0..self.n {
            for &(v, _) in &self.adj[u] {
                if u < v as usize {
                    g.add_edge(u, v as usize);
                }
            }
        }
        g
    }

    /// Sum of raw weights of an edge set (used to compare MSTs by weight).
    pub fn total_weight(edges: &[WEdge]) -> u128 {
        edges.iter().map(|e| e.w as u128).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "reversed duplicate must be rejected");
        assert!(g.add_edge(2, 3));
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn remove_edge() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn from_edges_dedups() {
        let g = Graph::from_edges(3, [Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edges_are_sorted_canonical() {
        let mut g = Graph::new(4);
        g.add_edge(3, 2);
        g.add_edge(1, 0);
        let es = g.edges();
        assert_eq!(es, vec![Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn weighted_queries() {
        let mut g = WGraph::new(4);
        g.add_edge(0, 1, 9);
        g.add_edge(2, 1, 4);
        assert_eq!(g.weight_of(1, 0), Some(9));
        assert_eq!(g.weight_of(1, 2), Some(4));
        assert_eq!(g.weight_of(0, 2), None);
        assert_eq!(g.tie_weight_of(0, 1), Some(Weight::new(9, 0, 1)));
    }

    #[test]
    fn weighted_edges_sorted_by_tie_weight() {
        let mut g = WGraph::new(4);
        g.add_edge(0, 3, 7);
        g.add_edge(0, 1, 7);
        g.add_edge(2, 3, 1);
        let es = g.edges();
        assert_eq!(
            es,
            vec![
                WEdge::new(2, 3, 1),
                WEdge::new(0, 1, 7),
                WEdge::new(0, 3, 7)
            ]
        );
    }

    #[test]
    fn as_unweighted_preserves_structure() {
        let mut g = WGraph::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 6);
        let u = g.as_unweighted();
        assert_eq!(u.m(), 2);
        assert!(u.has_edge(0, 1) && u.has_edge(1, 2) && !u.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Graph::new(2).add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        WGraph::new(3).add_edge(1, 1, 2);
    }
}
