//! Sequential reference algorithms for connectivity-type questions.
//!
//! These are the oracles the distributed runs are validated against:
//! component structure (for GC, Theorem 4), bipartiteness (Remark 5),
//! edge connectivity (Remark 5 and the Section 3 construction, which needs
//! its circulant halves to survive one edge removal), and biconnectivity
//! (the paper builds `G_U`, `G_V` *biconnected*).

use crate::graph::Graph;
use std::collections::VecDeque;

/// Component label of every vertex: the minimum vertex ID in its component,
/// matching the paper's "leader = node with minimum ID" convention.
pub fn component_labels(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = start;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if label[v] == usize::MAX {
                    label[v] = start;
                    queue.push_back(v);
                }
            }
        }
    }
    label
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    let labels = component_labels(g);
    let mut roots: Vec<usize> = labels.clone();
    roots.sort_unstable();
    roots.dedup();
    // Labels are component minima, so each component contributes exactly one.
    debug_assert!(labels.iter().enumerate().all(|(v, &l)| l <= v));
    roots.len()
}

/// Whether the graph is connected (the GC output for a single machine).
///
/// The empty graph (n = 0) is considered connected.
pub fn is_connected(g: &Graph) -> bool {
    g.n() == 0 || component_count(g) == 1
}

/// A maximal spanning forest: one BFS tree per component, as canonical
/// parent edges. Returned edges are `(parent, child)` pairs.
pub fn spanning_forest(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut forest = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    forest.push((u, v));
                    queue.push_back(v);
                }
            }
        }
    }
    forest
}

/// Whether the graph is bipartite (2-colorable), via BFS coloring.
pub fn is_bipartite(g: &Graph) -> bool {
    two_coloring(g).is_some()
}

/// A 2-coloring if one exists (`color[v] ∈ {0, 1}`), else `None`.
pub fn two_coloring(g: &Graph) -> Option<Vec<u8>> {
    let n = g.n();
    let mut color = vec![u8::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if color[v] == u8::MAX {
                    color[v] = 1 - color[u];
                    queue.push_back(v);
                } else if color[v] == color[u] {
                    return None;
                }
            }
        }
    }
    Some(color)
}

/// Bridges (cut edges) of the graph, via the classic DFS low-link algorithm
/// (iterative, so deep graphs do not overflow the stack).
pub fn bridges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut out = Vec::new();
    let mut timer = 0usize;
    // Frame: (vertex, parent edge expressed as (parent, slot skip), next neighbor index)
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(&mut (u, parent, ref mut idx)) = stack.last_mut() {
            if *idx < g.degree(u) {
                let v = g.neighbors(u)[*idx] as usize;
                *idx += 1;
                if disc[v] == usize::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, u, 0));
                } else if v != parent {
                    low[u] = low[u].min(disc[v]);
                }
                // A single parallel edge back to the parent cannot exist in a
                // simple graph, so skipping `v == parent` once per visit is
                // correct here.
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        out.push((p.min(u), p.max(u)));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Articulation points (cut vertices), iterative DFS low-link.
pub fn articulation_points(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0usize;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut root_children = 0usize;
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(&mut (u, parent, ref mut idx)) = stack.last_mut() {
            if *idx < g.degree(u) {
                let v = g.neighbors(u)[*idx] as usize;
                *idx += 1;
                if disc[v] == usize::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    if u == root {
                        root_children += 1;
                    }
                    stack.push((v, u, 0));
                } else if v != parent {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[u]);
                    if p != root && low[u] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            is_cut[root] = true;
        }
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// Whether the graph is biconnected (2-vertex-connected): connected, at
/// least 3 vertices, and without articulation points.
pub fn is_biconnected(g: &Graph) -> bool {
    g.n() >= 3 && is_connected(g) && articulation_points(g).is_empty()
}

/// Maximum number of edge-disjoint `s`–`t` paths (local edge connectivity),
/// via BFS augmentation on unit capacities (Edmonds–Karp).
///
/// # Panics
///
/// Panics if `s` or `t` is out of range or `s == t`.
pub fn local_edge_connectivity(g: &Graph, s: usize, t: usize) -> usize {
    assert!(
        s < g.n() && t < g.n() && s != t,
        "need distinct s, t in range"
    );
    // Residual capacities on directed arcs; an undirected unit edge becomes
    // two opposite unit arcs (standard for undirected max-flow).
    use std::collections::HashMap;
    let mut cap: HashMap<(usize, usize), i64> = HashMap::new();
    for e in g.edges() {
        let (u, v) = e.endpoints();
        cap.insert((u, v), 1);
        cap.insert((v, u), 1);
    }
    let mut flow = 0usize;
    loop {
        // BFS for an augmenting path.
        let mut pred = vec![usize::MAX; g.n()];
        let mut queue = VecDeque::new();
        pred[s] = s;
        queue.push_back(s);
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if pred[v] == usize::MAX && *cap.get(&(u, v)).unwrap_or(&0) > 0 {
                    pred[v] = u;
                    if v == t {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if pred[t] == usize::MAX {
            return flow;
        }
        // Augment by 1 along the path.
        let mut v = t;
        while v != s {
            let u = pred[v];
            *cap.get_mut(&(u, v)).unwrap() -= 1;
            *cap.get_mut(&(v, u)).unwrap() += 1;
            v = u;
        }
        flow += 1;
    }
}

/// Global edge connectivity `λ(G)`: the minimum, over `t ≠ 0`, of the local
/// edge connectivity between vertex `0` and `t` (a standard reduction —
/// vertex 0 is on one side of any global minimum cut).
///
/// Returns `0` for disconnected or single-vertex graphs.
pub fn edge_connectivity(g: &Graph) -> usize {
    if g.n() < 2 || !is_connected(g) {
        return 0;
    }
    (1..g.n())
        .map(|t| local_edge_connectivity(g, 0, t))
        .min()
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn labels_are_component_minima() {
        let g = generators::disjoint_union(&generators::path(3), &generators::cycle(4));
        let labels = component_labels(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3, 3]);
        assert_eq!(component_count(&g), 2);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert_eq!(component_count(&Graph::new(4)), 4);
    }

    #[test]
    fn spanning_forest_size() {
        let g = generators::disjoint_union(&generators::complete(4), &generators::path(3));
        let f = spanning_forest(&g);
        assert_eq!(f.len(), g.n() - component_count(&g));
    }

    #[test]
    fn bipartite_checks() {
        assert!(is_bipartite(&generators::path(6)));
        assert!(is_bipartite(&generators::cycle(6)));
        assert!(!is_bipartite(&generators::cycle(5)));
        assert!(!is_bipartite(&generators::complete(3)));
        assert!(
            is_bipartite(&Graph::new(3)),
            "edgeless graphs are bipartite"
        );
    }

    #[test]
    fn two_coloring_is_proper() {
        let g = generators::cycle(8);
        let c = two_coloring(&g).unwrap();
        for e in g.edges() {
            assert_ne!(c[e.u as usize], c[e.v as usize]);
        }
    }

    #[test]
    fn bridges_of_a_path_are_all_edges() {
        let g = generators::path(5);
        assert_eq!(bridges(&g).len(), 4);
    }

    #[test]
    fn cycles_are_bridgeless_and_biconnected() {
        let g = generators::cycle(7);
        assert!(bridges(&g).is_empty());
        assert!(is_biconnected(&g));
    }

    #[test]
    fn barbell_has_a_bridge_and_cut_vertices() {
        // Two triangles joined by edge {2,3}.
        let mut g = generators::disjoint_union(&generators::cycle(3), &generators::cycle(3));
        g.add_edge(2, 3);
        assert_eq!(bridges(&g), vec![(2, 3)]);
        let cuts = articulation_points(&g);
        assert_eq!(cuts, vec![2, 3]);
        assert!(!is_biconnected(&g));
    }

    #[test]
    fn circulant_12_is_biconnected() {
        let g = generators::circulant(12, &[1, 2]);
        assert!(is_biconnected(&g));
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn edge_connectivity_of_standard_graphs() {
        assert_eq!(edge_connectivity(&generators::cycle(6)), 2);
        assert_eq!(edge_connectivity(&generators::complete(5)), 4);
        assert_eq!(edge_connectivity(&generators::path(4)), 1);
        assert_eq!(edge_connectivity(&generators::star(6)), 1);
        assert_eq!(edge_connectivity(&Graph::new(3)), 0);
    }

    #[test]
    fn circulant_edge_connectivity_equals_degree() {
        // Connected circulants with offsets {1,..,k} are 2k-edge-connected.
        let g = generators::circulant(11, &[1, 2]);
        assert_eq!(edge_connectivity(&g), 4);
    }

    #[test]
    fn local_connectivity_menger_sanity() {
        let g = generators::complete(4);
        assert_eq!(local_edge_connectivity(&g, 0, 3), 3);
    }

    #[test]
    fn deep_path_does_not_overflow() {
        // The iterative DFS must handle very deep graphs.
        let g = generators::path(200_000);
        assert_eq!(bridges(&g).len(), g.m());
        assert_eq!(articulation_points(&g).len(), g.n() - 2);
    }

    #[test]
    fn random_graph_component_invariants() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..10 {
            let g = generators::gnp(60, 0.03, &mut rng);
            let labels = component_labels(&g);
            for e in g.edges() {
                assert_eq!(labels[e.u as usize], labels[e.v as usize]);
            }
            let f = spanning_forest(&g);
            assert_eq!(f.len(), g.n() - component_count(&g));
        }
    }
}
