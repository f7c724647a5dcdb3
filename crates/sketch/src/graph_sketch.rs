//! Linear sketches of graph neighborhoods (Section 2.1 of the paper).
//!
//! A vertex `v`'s neighborhood in an `n`-vertex graph is the signed
//! incidence vector `a_v ∈ {−1, 0, 1}^{C(n,2)}`:
//!
//! ```text
//! a_v({x,y}) =  0  if {x,y} ∉ E
//!               1  if {x,y} ∈ E and v = x < y
//!              −1  if {x,y} ∈ E and x < y = v
//! ```
//!
//! Summing the vectors of a vertex set `S` cancels intra-`S` edges exactly
//! and leaves the cut `(S, V∖S)` — the property that lets a component
//! leader sample an outgoing edge from added sketches. [`GraphSketchSpace`]
//! wraps an ℓ0 [`SketchSpace`] over the edge universe
//! with this encoding.

use crate::l0::{BatchScratch, Sample, Sketch, SketchParams, SketchSpace};
use cc_graph::{edge_from_index, edge_index, num_pairs};

/// Reusable scratch for batched neighborhood sketching
/// ([`GraphSketchSpace::sketch_neighborhood_with`]).
///
/// Holds the staged `(edge index, sign)` items plus the ℓ0 batch buffers;
/// share one across all vertices and families of a sketching pass to
/// amortize allocations.
#[derive(Clone, Debug, Default)]
pub struct NeighborhoodScratch {
    items: Vec<(u64, i64)>,
    batch: BatchScratch,
}

/// Outcome of sampling an edge from a (summed) neighborhood sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeSample {
    /// The cut is empty (isolated vertex / finished component).
    Zero,
    /// Recovery failed; retry with an independent family.
    Fail,
    /// A cut edge `{x, y}` (canonical `x < y`).
    Edge(usize, usize),
}

/// A family of linear neighborhood sketches for `n`-vertex graphs.
#[derive(Clone, Debug)]
pub struct GraphSketchSpace {
    n: usize,
    inner: SketchSpace,
}

impl GraphSketchSpace {
    /// A space over the `C(n,2)` edge universe with default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices for an edge universe");
        let universe = num_pairs(n);
        GraphSketchSpace {
            n,
            inner: SketchSpace::new(universe, SketchParams::for_universe(universe), seed),
        }
    }

    /// A space with explicit shape parameters (used by size ablations).
    pub fn with_params(n: usize, params: SketchParams, seed: u64) -> Self {
        assert!(n >= 2, "need at least two vertices for an edge universe");
        GraphSketchSpace {
            n,
            inner: SketchSpace::new(num_pairs(n), params, seed),
        }
    }

    /// `t` independent families from a base seed, as required by Theorem 1
    /// ("an independent collection of t = Θ(log n) sketches").
    pub fn family(n: usize, t: usize, base_seed: u64) -> Vec<GraphSketchSpace> {
        (0..t)
            .map(|j| {
                GraphSketchSpace::new(
                    n,
                    base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(j as u64 + 1)),
                )
            })
            .collect()
    }

    /// Number of vertices of the underlying universe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying ℓ0 space (diagnostics, size accounting).
    pub fn inner(&self) -> &SketchSpace {
        &self.inner
    }

    /// Words one sketch occupies (network cost per sketch transfer).
    pub fn sketch_words(&self) -> usize {
        self.inner.params().words()
    }

    /// A fresh all-zero sketch.
    pub fn zero_sketch(&self) -> Sketch {
        self.inner.zero_sketch()
    }

    /// Reconstructs a sketch of this space's shape from wire words
    /// (see [`Sketch::to_words`]).
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match this space's shape.
    pub fn sketch_from_words(&self, words: Vec<u64>) -> Sketch {
        Sketch::from_words(&self.inner, words)
    }

    /// Sketch of vertex `v`'s neighborhood given its incident edges
    /// (as neighbor vertex IDs).
    ///
    /// # Panics
    ///
    /// Panics if a neighbor equals `v` or is `≥ n`.
    pub fn sketch_neighborhood(
        &self,
        v: usize,
        neighbors: impl IntoIterator<Item = usize>,
    ) -> Sketch {
        let mut scratch = NeighborhoodScratch::default();
        self.sketch_neighborhood_with(v, neighbors, &mut scratch)
    }

    /// [`sketch_neighborhood`](Self::sketch_neighborhood) with reusable
    /// scratch buffers — the batched kernel path for sketching many
    /// vertices (or the same vertex across many families).
    ///
    /// Bit-identical to the per-incidence path (exact field sums are
    /// insertion-order independent).
    ///
    /// # Panics
    ///
    /// Panics if a neighbor equals `v` or is `≥ n`.
    pub fn sketch_neighborhood_with(
        &self,
        v: usize,
        neighbors: impl IntoIterator<Item = usize>,
        scratch: &mut NeighborhoodScratch,
    ) -> Sketch {
        let mut sk = self.zero_sketch();
        self.add_incidences_with(&mut sk, v, neighbors, scratch);
        sk
    }

    /// Adds every incidence `a_v({v,u})`, `u ∈ neighbors`, into an existing
    /// sketch through the batched kernel path.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor equals `v` or is `≥ n`.
    pub fn add_incidences_with(
        &self,
        sketch: &mut Sketch,
        v: usize,
        neighbors: impl IntoIterator<Item = usize>,
        scratch: &mut NeighborhoodScratch,
    ) {
        self.insert_incidences(sketch, v, neighbors, 1, scratch);
    }

    /// Removes every incidence `a_v({v,u})`, `u ∈ neighbors`, from an
    /// existing sketch (used by k-edge-connectivity's peeling, which
    /// subtracts already-certified edges — subtracting is adding the
    /// opposite sign).
    ///
    /// # Panics
    ///
    /// Panics if a neighbor equals `v` or is `≥ n`.
    pub fn remove_incidences_with(
        &self,
        sketch: &mut Sketch,
        v: usize,
        neighbors: impl IntoIterator<Item = usize>,
        scratch: &mut NeighborhoodScratch,
    ) {
        self.insert_incidences(sketch, v, neighbors, -1, scratch);
    }

    /// Inserts `sign · a_v({v,u})` for every `u ∈ neighbors` in one batch.
    fn insert_incidences(
        &self,
        sketch: &mut Sketch,
        v: usize,
        neighbors: impl IntoIterator<Item = usize>,
        sign: i64,
        scratch: &mut NeighborhoodScratch,
    ) {
        scratch.items.clear();
        for u in neighbors {
            let idx = edge_index(v, u, self.n);
            scratch.items.push((idx, if v < u { sign } else { -sign }));
        }
        self.inner
            .insert_batch_with(sketch, &scratch.items, &mut scratch.batch);
    }

    /// All cut edges recoverable from a (summed) sketch. For small cuts
    /// (≤ a bucket row) this is w.h.p. the entire cut; for large cuts it is
    /// a partial sample. Used by the KT1 MST's minimum-weight-outgoing-edge
    /// search, which thresholds on the lightest recovered edge each round.
    pub fn decode_all_edges(&self, sketch: &Sketch) -> Vec<(usize, usize)> {
        self.inner
            .decode_all(sketch)
            .into_iter()
            .map(|(idx, _)| edge_from_index(idx, self.n))
            .collect()
    }

    /// Samples a cut edge from a (summed) sketch.
    pub fn sample_edge(&self, sketch: &Sketch) -> EdgeSample {
        match self.inner.sample(sketch) {
            Sample::Zero => EdgeSample::Zero,
            Sample::Fail => EdgeSample::Fail,
            Sample::Item(idx, _coeff) => {
                let (x, y) = edge_from_index(idx, self.n);
                EdgeSample::Edge(x, y)
            }
        }
    }
}

/// The bundle vertex `v` ships: its neighborhood sketch in each of
/// `spaces`, as wire words, concatenated in order.
///
/// # Panics
///
/// As [`GraphSketchSpace::sketch_neighborhood_with`].
pub fn encode_bundle<'a, S>(
    spaces: S,
    v: usize,
    neighbors: impl Iterator<Item = usize> + Clone,
    scratch: &mut NeighborhoodScratch,
) -> Vec<u64>
where
    S: IntoIterator<Item = &'a GraphSketchSpace>,
    S::IntoIter: Clone,
{
    let spaces = spaces.into_iter();
    // Exact capacity: callers keep bundles alive until they are shipped.
    let mut words = Vec::with_capacity(spaces.clone().map(|sp| sp.sketch_words()).sum());
    for sp in spaces {
        let sk = sp.sketch_neighborhood_with(v, neighbors.clone(), scratch);
        words.extend(sk.to_words());
    }
    words
}

/// Splits an [`encode_bundle`] bundle back into one sketch per space.
///
/// # Panics
///
/// Panics with "sketch bundle size mismatch" on a wrong word count.
pub fn decode_bundle<'a>(
    spaces: impl IntoIterator<Item = &'a GraphSketchSpace>,
    mut words: &[u64],
) -> Vec<Sketch> {
    let spaces: Vec<&GraphSketchSpace> = spaces.into_iter().collect();
    let total: usize = spaces.iter().map(|sp| sp.sketch_words()).sum();
    assert_eq!(words.len(), total, "sketch bundle size mismatch");
    let piece = |sp: &GraphSketchSpace| {
        let (head, tail) = words.split_at(sp.sketch_words());
        words = tail;
        sp.sketch_from_words(head.to_vec())
    };
    spaces.into_iter().map(piece).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Sum the sketches of a vertex subset S of g and return the sample.
    fn cut_sample(space: &GraphSketchSpace, g: &cc_graph::Graph, s: &[usize]) -> EdgeSample {
        let mut acc = space.zero_sketch();
        for &v in s {
            let sk = space.sketch_neighborhood(v, g.neighbors(v).iter().map(|&u| u as usize));
            acc.add_assign_sketch(&sk);
        }
        space.sample_edge(&acc)
    }

    #[test]
    fn isolated_vertex_samples_zero() {
        let space = GraphSketchSpace::new(8, 1);
        let sk = space.sketch_neighborhood(3, std::iter::empty());
        assert_eq!(space.sample_edge(&sk), EdgeSample::Zero);
    }

    #[test]
    fn single_edge_recovered_from_both_sides() {
        let space = GraphSketchSpace::new(10, 2);
        let a = space.sketch_neighborhood(2, [7]);
        let b = space.sketch_neighborhood(7, [2]);
        assert_eq!(space.sample_edge(&a), EdgeSample::Edge(2, 7));
        assert_eq!(space.sample_edge(&b), EdgeSample::Edge(2, 7));
        // Opposite signs: the sum cancels.
        let mut sum = a.clone();
        sum.add_assign_sketch(&b);
        assert_eq!(space.sample_edge(&sum), EdgeSample::Zero);
    }

    #[test]
    fn component_sum_cancels_internal_edges() {
        // Triangle {0,1,2} plus edge {2,3}: summing the triangle's sketches
        // must leave only the cut edge {2,3}.
        let mut g = cc_graph::Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        let space = GraphSketchSpace::new(5, 3);
        assert_eq!(cut_sample(&space, &g, &[0, 1, 2]), EdgeSample::Edge(2, 3));
    }

    #[test]
    fn whole_component_sum_is_zero() {
        let g = generators::cycle(6);
        let space = GraphSketchSpace::new(6, 4);
        assert_eq!(
            cut_sample(&space, &g, &[0, 1, 2, 3, 4, 5]),
            EdgeSample::Zero
        );
    }

    #[test]
    fn sampled_edge_is_in_the_cut() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..30u64 {
            let g = generators::random_connected_graph(24, 0.15, &mut rng);
            let space = GraphSketchSpace::new(24, 100 + trial);
            let s: Vec<usize> = (0..12).collect();
            match cut_sample(&space, &g, &s) {
                EdgeSample::Edge(x, y) => {
                    assert!(g.has_edge(x, y), "sampled non-edge");
                    let in_s = |v: usize| v < 12;
                    assert!(in_s(x) ^ in_s(y), "sampled a non-cut edge");
                }
                EdgeSample::Zero => {
                    // Possible only if the cut is genuinely empty.
                    for x in 0..12usize {
                        for y in 12..24usize {
                            assert!(!g.has_edge(x, y));
                        }
                    }
                }
                EdgeSample::Fail => {} // rare, tolerated
            }
        }
    }

    #[test]
    fn remove_incidences_inverts_add() {
        let space = GraphSketchSpace::new(12, 6);
        let mut scratch = NeighborhoodScratch::default();
        let mut sk = space.zero_sketch();
        space.add_incidences_with(&mut sk, 4, [9, 2], &mut scratch);
        space.remove_incidences_with(&mut sk, 4, [9], &mut scratch);
        assert_eq!(space.sample_edge(&sk), EdgeSample::Edge(2, 4));
        space.remove_incidences_with(&mut sk, 4, [2], &mut scratch);
        assert!(sk.is_zero());
    }

    #[test]
    fn family_members_are_independent() {
        let fam = GraphSketchSpace::family(10, 4, 99);
        assert_eq!(fam.len(), 4);
        let sketches: Vec<_> = fam.iter().map(|s| s.sketch_neighborhood(0, [5])).collect();
        // All four must decode, but their raw data must differ.
        for (i, s) in fam.iter().enumerate() {
            assert_eq!(s.sample_edge(&sketches[i]), EdgeSample::Edge(0, 5));
        }
        assert_ne!(sketches[0], sketches[1]);
    }

    #[test]
    fn batched_neighborhood_matches_incidence_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::random_connected_graph(32, 0.2, &mut rng);
        let space = GraphSketchSpace::new(32, 9);
        let mut scratch = NeighborhoodScratch::default();
        for v in 0..32usize {
            let mut scalar = space.zero_sketch();
            for &u in g.neighbors(v) {
                space.add_incidences_with(&mut scalar, v, [u as usize], &mut scratch);
            }
            let batched = space.sketch_neighborhood_with(
                v,
                g.neighbors(v).iter().map(|&u| u as usize),
                &mut scratch,
            );
            assert_eq!(scalar, batched, "vertex {v}");
        }
    }

    #[test]
    fn sketch_words_matches_actual_size() {
        let space = GraphSketchSpace::new(100, 7);
        let sk = space.zero_sketch();
        assert_eq!(sk.words(), space.sketch_words());
    }

    #[test]
    fn bundle_round_trips_one_sketch_per_space() {
        let spaces = GraphSketchSpace::family(10, 3, 11);
        let neigh = [2usize, 5, 9];
        let mut scratch = NeighborhoodScratch::default();
        let words = encode_bundle(&spaces, 4, neigh.iter().copied(), &mut scratch);
        assert_eq!(words.len(), 3 * spaces[0].sketch_words());
        let back = decode_bundle(&spaces, &words);
        for (sp, sk) in spaces.iter().zip(&back) {
            assert_eq!(sk, &sp.sketch_neighborhood(4, neigh));
        }
    }

    #[test]
    #[should_panic(expected = "sketch bundle size mismatch")]
    fn bundle_of_the_wrong_length_is_refused() {
        let spaces = GraphSketchSpace::family(10, 2, 11);
        let words = vec![0; 2 * spaces[0].sketch_words() - 1];
        let _ = decode_bundle(&spaces, &words);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Linearity: for a random graph and random vertex subset, the sum
        /// of sketches either samples a genuine cut edge or reports Zero
        /// exactly when the cut is empty.
        #[test]
        fn cut_sampling_soundness(seed in any::<u64>(), n in 4usize..20, mask in any::<u32>()) {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::gnp(n, 0.3, &mut r);
            let s: Vec<usize> = (0..n).filter(|&v| (mask >> v) & 1 == 1).collect();
            let space = GraphSketchSpace::new(n, seed ^ 0xABCD);
            let cut_empty = {
                let mut empty = true;
                'outer: for &x in &s {
                    for &y in g.neighbors(x) {
                        if !s.contains(&(y as usize)) { empty = false; break 'outer; }
                    }
                }
                empty
            };
            match cut_sample(&space, &g, &s) {
                EdgeSample::Zero => prop_assert!(cut_empty),
                EdgeSample::Edge(x, y) => {
                    prop_assert!(g.has_edge(x, y));
                    prop_assert!(s.contains(&x) ^ s.contains(&y));
                }
                EdgeSample::Fail => {}
            }
        }
    }
}
