//! Input-graph families for tests and experiments.
//!
//! These cover the workloads the experiments in EXPERIMENTS.md run on:
//! Erdős–Rényi graphs, random connected graphs, complete weighted cliques
//! (the native MST input of the model), circulants (the biconnected building
//! blocks of the Section 3 lower bound), planted bipartite / odd-cycle
//! inputs for Remark 5, and graphs with a prescribed number of components.

use crate::graph::{Graph, WGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v);
    }
    g
}

/// Cycle on `n ≥ 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut g = path(n);
    g.add_edge(n - 1, 0);
    g
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    g
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// Circulant graph: vertex `j` is connected to `j ± o (mod n)` for every
/// offset `o` in `offsets`.
///
/// Circulants with offsets `{1, …, k}` are the near-regular biconnected
/// graphs the Section 3 construction builds `G_U` and `G_V` from.
///
/// # Panics
///
/// Panics if an offset is `0` or `≥ n`.
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    let mut g = Graph::new(n);
    for &o in offsets {
        assert!(o > 0 && o < n, "offset must be in 1..n");
        for j in 0..n {
            let k = (j + o) % n;
            if k != j {
                g.add_edge(j, k);
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Weighted `G(n, p)` with raw weights uniform in `0..max_w`.
///
/// # Panics
///
/// Panics if `max_w == 0`.
pub fn gnp_weighted<R: Rng>(n: usize, p: f64, max_w: u64, rng: &mut R) -> WGraph {
    assert!(max_w > 0, "max_w must be positive");
    let mut g = WGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v, rng.gen_range(0..max_w));
            }
        }
    }
    g
}

/// A uniformly random spanning tree on `n` vertices (random Prüfer sequence).
pub fn random_spanning_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    match n {
        0 | 1 => return g,
        2 => {
            g.add_edge(0, 1);
            return g;
        }
        _ => {}
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    // Standard Prüfer decoding with a scan pointer + "leaf" cursor.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in &prufer {
        g.add_edge(leaf, x);
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    // Two vertices of degree 1 remain; `leaf` is one of them.
    let last = (0..n).rev().find(|&v| degree[v] == 1 && v != leaf).unwrap();
    g.add_edge(leaf, last);
    g
}

/// A connected graph: a random spanning tree plus `G(n, p)` extras.
pub fn random_connected_graph<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = random_spanning_tree(n, rng);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A connected weighted graph with raw weights uniform in `0..max_w`.
///
/// # Panics
///
/// Panics if `max_w == 0`.
pub fn random_connected_wgraph<R: Rng>(n: usize, p: f64, max_w: u64, rng: &mut R) -> WGraph {
    assert!(max_w > 0, "max_w must be positive");
    let skeleton = random_connected_graph(n, p, rng);
    let mut g = WGraph::new(n);
    for e in skeleton.edges() {
        g.add_edge(e.u as usize, e.v as usize, rng.gen_range(0..max_w));
    }
    g
}

/// A complete weighted clique with *distinct* raw weights: the weights are a
/// random permutation of `0..C(n,2)`.
///
/// This is the canonical input of the Lotker et al. MST algorithm and of
/// EXACT-MST (Algorithm 3), whose input is "an edge-weighted clique".
pub fn complete_wgraph<R: Rng>(n: usize, rng: &mut R) -> WGraph {
    let mut weights: Vec<u64> = (0..crate::edge::num_pairs(n)).collect();
    weights.shuffle(rng);
    let mut g = WGraph::new(n);
    let mut i = 0;
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, weights[i]);
            i += 1;
        }
    }
    g
}

/// A bipartite graph: vertices split in two halves, each candidate
/// cross-edge kept with probability `p`.
pub fn planted_bipartite<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let half = n / 2;
    let mut g = Graph::new(n);
    for u in 0..half {
        for v in half..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A connected non-bipartite graph: an odd cycle through all vertices plus
/// `G(n, p)` extras.
///
/// # Panics
///
/// Panics if `n < 3` or `n` is even (the base cycle must be odd).
pub fn odd_cycle_plus<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n >= 3 && n % 2 == 1, "need an odd n ≥ 3");
    let mut g = cycle(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A graph with exactly `k` connected components: `k` random connected blocks
/// of near-equal size on a random vertex relabeling.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn with_k_components<R: Rng>(n: usize, k: usize, p: f64, rng: &mut R) -> Graph {
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
    let mut labels: Vec<usize> = (0..n).collect();
    labels.shuffle(rng);
    let mut g = Graph::new(n);
    let mut start = 0;
    for i in 0..k {
        let size = n / k + usize::from(i < n % k);
        let block = &labels[start..start + size];
        if size > 1 {
            let sub = random_connected_graph(size, p, rng);
            for e in sub.edges() {
                g.add_edge(block[e.u as usize], block[e.v as usize]);
            }
        }
        start += size;
    }
    g
}

/// Assigns raw weights uniform in `0..max_w` to an unweighted graph.
///
/// # Panics
///
/// Panics if `max_w == 0`.
pub fn with_random_weights<R: Rng>(g: &Graph, max_w: u64, rng: &mut R) -> WGraph {
    assert!(max_w > 0, "max_w must be positive");
    let mut out = WGraph::new(g.n());
    for e in g.edges() {
        out.add_edge(e.u as usize, e.v as usize, rng.gen_range(0..max_w));
    }
    out
}

/// Disjoint union: `b`'s vertices are shifted past `a`'s.
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let mut g = Graph::new(a.n() + b.n());
    for e in a.edges() {
        g.add_edge(e.u as usize, e.v as usize);
    }
    for e in b.edges() {
        g.add_edge(a.n() + e.u as usize, a.n() + e.v as usize);
    }
    g
}

/// 2-D grid graph on `rows × cols` vertices (vertex `r·cols + c`).
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                g.add_edge(v, v + cols);
            }
        }
    }
    g
}

/// Barbell: two cliques of size `k` joined by a path of `bridge` edges.
/// The classic "two dense communities, thin cut" shape.
///
/// # Panics
///
/// Panics if `k < 3` or `bridge == 0`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 3, "bells need at least 3 vertices");
    assert!(bridge >= 1, "need at least one bridge edge");
    let n = 2 * k + bridge - 1;
    let mut g = Graph::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            g.add_edge(u, v);
        }
    }
    let right = k + bridge - 1;
    for u in right..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    // Path from vertex k−1 through the bridge vertices into the right bell.
    let mut prev = k - 1;
    for b in 0..bridge {
        let next = k + b;
        g.add_edge(prev, next.min(n - 1));
        prev = next.min(n - 1);
    }
    g
}

/// A caterpillar: a spine path of `spine` vertices, each with `legs`
/// pendant leaves — a tree that stresses Borůvka's star merges.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1, "need a spine");
    let n = spine * (1 + legs);
    let mut g = Graph::new(n);
    for s in 1..spine {
        g.add_edge(s - 1, s);
    }
    for s in 0..spine {
        for l in 0..legs {
            g.add_edge(s, spine + s * legs + l);
        }
    }
    g
}

/// A Watts–Strogatz-style small world: ring lattice with offsets
/// `1..=k`, each edge rewired to a random chord with probability `beta`.
///
/// # Panics
///
/// Panics if `k == 0`, `2k ≥ n`, or `beta ∉ [0, 1]`.
pub fn small_world<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k >= 1 && 2 * k < n, "need 1 ≤ k < n/2");
    assert!((0.0..=1.0).contains(&beta), "beta out of range");
    let mut g = Graph::new(n);
    for o in 1..=k {
        for j in 0..n {
            let (a, b) = (j, (j + o) % n);
            if rng.gen_bool(beta) {
                // Rewire: random chord from a (retry on collisions).
                for _ in 0..8 {
                    let t = rng.gen_range(0..n);
                    if t != a && g.add_edge(a, t) {
                        break;
                    }
                }
            } else {
                g.add_edge(a, b);
            }
        }
    }
    g
}

/// A random near-regular graph: `d` perfect-matching-ish rounds over a
/// shuffled vertex list (multi-edges and self-pairs skipped, so degrees
/// are `≤ d` and concentrate at `d`).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn near_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least 2 vertices");
    let mut g = Graph::new(n);
    for _ in 0..d {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        for pair in order.chunks(2) {
            if let [a, b] = *pair {
                g.add_edge(a, b);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn basic_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(star(5).m(), 4);
        assert_eq!(complete(5).m(), 10);
    }

    #[test]
    fn circulant_degrees() {
        let g = circulant(10, &[1, 2]);
        for v in 0..10 {
            assert_eq!(g.degree(v), 4, "offsets {{1,2}} give a 4-regular graph");
        }
        assert_eq!(g.m(), 20);
    }

    #[test]
    fn circulant_with_wrapping_offsets_dedups() {
        // n=4, offsets {1, 3}: j+1 and j+3 ≡ j-1 give the same cycle edges.
        let g = circulant(4, &[1, 3]);
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn spanning_tree_is_a_tree() {
        for seed in 0..20 {
            let n = 2 + (seed as usize % 50);
            let t = random_spanning_tree(n, &mut rng(seed));
            assert_eq!(t.m(), n - 1);
            assert_eq!(connectivity::component_count(&t), 1, "n={n} seed={seed}");
        }
    }

    #[test]
    fn tiny_spanning_trees() {
        assert_eq!(random_spanning_tree(0, &mut rng(0)).m(), 0);
        assert_eq!(random_spanning_tree(1, &mut rng(0)).m(), 0);
        assert_eq!(random_spanning_tree(2, &mut rng(0)).m(), 1);
        let t3 = random_spanning_tree(3, &mut rng(0));
        assert_eq!(t3.m(), 2);
    }

    #[test]
    fn random_connected_really_connected() {
        let g = random_connected_graph(40, 0.05, &mut rng(3));
        assert_eq!(connectivity::component_count(&g), 1);
    }

    #[test]
    fn complete_wgraph_has_distinct_weights() {
        let g = complete_wgraph(8, &mut rng(4));
        let mut ws: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 28);
    }

    #[test]
    fn planted_bipartite_is_bipartite() {
        let g = planted_bipartite(30, 0.3, &mut rng(5));
        assert!(connectivity::is_bipartite(&g));
    }

    #[test]
    fn odd_cycle_plus_is_not_bipartite() {
        let g = odd_cycle_plus(31, 0.05, &mut rng(6));
        assert!(!connectivity::is_bipartite(&g));
        assert_eq!(connectivity::component_count(&g), 1);
    }

    #[test]
    fn with_k_components_exact() {
        for k in [1usize, 2, 3, 7] {
            let g = with_k_components(41, k, 0.2, &mut rng(7 + k as u64));
            assert_eq!(connectivity::component_count(&g), k, "k={k}");
        }
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = disjoint_union(&path(3), &path(2));
        assert_eq!(g.n(), 5);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(2, 3));
        assert_eq!(connectivity::component_count(&g), 2);
    }

    #[test]
    fn gnp_extremes() {
        let empty = gnp(10, 0.0, &mut rng(8));
        assert_eq!(empty.m(), 0);
        let full = gnp(10, 1.0, &mut rng(9));
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn weighted_gnp_weights_in_range() {
        let g = gnp_weighted(20, 0.5, 17, &mut rng(10));
        for e in g.edges() {
            assert!(e.w < 17);
        }
    }
}
