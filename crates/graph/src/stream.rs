//! Streamed graph construction for large `n`: compact CSR adjacency and
//! integer-only random connected generators.
//!
//! The classic generators in [`generators`](crate::generators) sweep all
//! `C(n, 2)` vertex pairs (a coin flip per pair), which is fine up to a
//! few thousand vertices and hopeless at `n = 65 536` (2.1 billion RNG
//! calls before a single edge exists). The sketch kernels only ever
//! consume *neighbor lists*, so what large-`n` benchmarks actually need
//! is:
//!
//! * a generator whose work is `O(n + m)` — an attachment tree for
//!   connectivity plus rejection-sampled extra pair indices, all in
//!   integer arithmetic on the canonical [`edge_index`] universe (no
//!   floats, no `n²` sweep, no dense pair set);
//! * an adjacency form whose memory is `2m` words plus one offset table —
//!   [`CsrGraph`] — instead of `n` separately allocated `Vec`s.
//!
//! Both are deterministic given the RNG, and the edge *set* they produce
//! is exactly the sorted, deduplicated index multiset the sampler drew —
//! the same graph every run, every machine.

use crate::edge::{edge_from_index, edge_index, num_pairs};
use rand::Rng;

/// Compressed-sparse-row adjacency for an undirected simple graph on
/// vertex set `0..n`.
///
/// Neighbor lists are stored back-to-back in one `targets` buffer with an
/// `offsets` table of `n + 1` fences; `neighbors(v)` is a slice borrow,
/// and each list is sorted ascending (a by-product of building from the
/// sorted edge-index stream).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds from canonical edge indices (see [`edge_index`]); the input
    /// need not be sorted or unique — it is sorted and deduplicated here.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for `n`.
    pub fn from_edge_indices(n: usize, mut indices: Vec<u64>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        let mut degree = vec![0usize; n];
        let mut pairs = Vec::with_capacity(indices.len());
        for &idx in &indices {
            let (u, v) = edge_from_index(idx, n);
            degree[u] += 1;
            degree[v] += 1;
            pairs.push((u as u32, v as u32));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // Fill via per-vertex cursors. Scanning pairs in edge-index order
        // (ascending (u, v)) appends each vertex's smaller neighbors in
        // ascending order before its larger ones, also ascending — so
        // every finished list is sorted without a per-vertex sort.
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * pairs.len()];
        for &(u, v) in &pairs {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        CsrGraph {
            n,
            offsets,
            targets,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbor list of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }
}

/// Canonical edge indices of a random connected graph, in `O(n + extra)`
/// integer-only work: a uniform random attachment tree (`parent(v)`
/// uniform in `0..v`, the standard random recursive tree) plus `extra`
/// uniformly drawn pair indices. Duplicates between and within the two
/// parts are deduplicated by the CSR builder, so the edge count is at
/// most — and typically slightly below — `n - 1 + extra`.
///
/// Returns the *unsorted* draw; [`CsrGraph::from_edge_indices`]
/// canonicalizes. Deterministic given the RNG state.
pub fn random_connected_edge_indices<R: Rng>(n: usize, extra: usize, rng: &mut R) -> Vec<u64> {
    let mut indices = Vec::with_capacity(n.saturating_sub(1) + extra);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        indices.push(edge_index(parent, v, n));
    }
    if n >= 2 {
        let pairs = num_pairs(n);
        for _ in 0..extra {
            indices.push(rng.gen_range(0..pairs));
        }
    }
    indices
}

/// A random connected graph in CSR form without ever touching the
/// `C(n, 2)` pair sweep: see [`random_connected_edge_indices`].
pub fn random_connected_csr<R: Rng>(n: usize, extra: usize, rng: &mut R) -> CsrGraph {
    CsrGraph::from_edge_indices(n, random_connected_edge_indices(n, extra, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use crate::graph::Graph;
    use crate::union_find::UnionFind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn csr_matches_graph_built_from_same_edges() {
        let mut r = rng(1);
        let idx = random_connected_edge_indices(60, 90, &mut r);
        let csr = CsrGraph::from_edge_indices(60, idx.clone());
        let mut g = Graph::new(60);
        for &i in &idx {
            let (u, v) = edge_from_index(i, 60);
            if !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
        assert_eq!(g.m(), csr.m());
        for v in 0..60 {
            let mut from_g: Vec<u32> = g.neighbors(v).to_vec();
            from_g.sort_unstable();
            assert_eq!(csr.neighbors(v), &from_g[..], "vertex {v}");
        }
    }

    #[test]
    fn neighbor_lists_are_sorted_and_deduplicated() {
        let mut r = rng(2);
        let csr = random_connected_csr(200, 400, &mut r);
        let mut total = 0;
        for v in 0..200 {
            let ns = csr.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "vertex {v}: {ns:?}");
            assert!(ns.iter().all(|&u| (u as usize) < 200 && u as usize != v));
            total += ns.len();
        }
        assert_eq!(total, 2 * csr.m());
    }

    #[test]
    fn generated_graphs_are_connected() {
        for seed in 0..10 {
            let n = 2 + 37 * seed as usize;
            let csr = random_connected_csr(n, n / 2, &mut rng(seed));
            let mut uf = UnionFind::new(n);
            for u in 0..n {
                for &v in csr.neighbors(u) {
                    uf.union(u, v as usize);
                }
            }
            assert_eq!(uf.set_count(), 1, "n={n} seed={seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = random_connected_csr(500, 1000, &mut rng(7));
        let b = random_connected_csr(500, 1000, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn small_world_agrees_with_dense_connectivity_check() {
        let csr = random_connected_csr(80, 40, &mut rng(9));
        let mut g = Graph::new(80);
        for u in 0..80 {
            for &v in csr.neighbors(u).iter().filter(|&&v| v as usize > u) {
                g.add_edge(u, v as usize);
            }
        }
        assert_eq!(connectivity::component_count(&g), 1);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(random_connected_csr(0, 0, &mut rng(0)).m(), 0);
        assert_eq!(random_connected_csr(1, 5, &mut rng(0)).m(), 0);
        let two = random_connected_csr(2, 3, &mut rng(0));
        assert_eq!(two.m(), 1);
        assert_eq!(two.neighbors(0), &[1]);
        assert_eq!(two.neighbors(1), &[0]);
    }

    #[test]
    fn edge_budget_is_linear_not_quadratic() {
        // m ≤ n - 1 + extra always (dedup can only shrink the draw).
        let csr = random_connected_csr(1000, 2500, &mut rng(11));
        assert!(csr.m() <= 999 + 2500);
        assert!(csr.m() >= 999);
    }
}
