//! The Section 3 KT0 lower-bound construction (Theorems 8 and 9).
//!
//! For `n ≤ m ≤ (n/2)(n/2 − 1)` the paper builds a disconnected graph
//! `G = G_U ∪ G_V` from two biconnected near-regular circulant halves,
//! plus the *swap family* `S_G`: replace one `G_U` edge and one `G_V` edge
//! by two crossing edges, which always yields a *connected* graph. The
//! hard distribution `H` puts mass 1/2 on `G` and spreads 1/2 over `S_G`.
//!
//! The proof's combinatorial engine is a family of **edge-disjoint
//! "squares"** `u₁, v₁, v₂, u₂` (a `G_U` edge, a `G_V` edge, and the two
//! crossing clique links): an execution that leaves any square's four
//! links silent cannot distinguish `G` from the swapped (connected)
//! variant, because in KT0 no node can tell which vertex sits behind an
//! unused port. Since the squares are edge-disjoint, any algorithm using
//! fewer messages than there are squares leaves one untouched — that is
//! the `Ω(m)` bound. [`edge_disjoint_squares`] constructs `Ω(m)` such
//! squares explicitly and [`find_untouched_square`] plays the adversary.

use cc_graph::{connectivity, Edge, Graph};
use cc_trace::Event;
use rand::Rng;
use std::collections::HashSet;

/// The hard instance: the disconnected base graph plus its parameters.
#[derive(Clone, Debug)]
pub struct HardInstance {
    /// Number of nodes `n` (even).
    pub n: usize,
    /// Number of edges `m`.
    pub m: usize,
    /// The disconnected base graph `G = G_U ∪ G_V`.
    pub graph: Graph,
    /// Edges inside `U = {0, …, n/2 − 1}`.
    pub u_edges: Vec<Edge>,
    /// Edges inside `V = {n/2, …, n − 1}`.
    pub v_edges: Vec<Edge>,
}

/// One member of the swap family `S_G`: which two edges were removed and
/// which crossing pair replaced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Swap {
    /// The removed `G_U` edge.
    pub e_u: Edge,
    /// The removed `G_V` edge.
    pub e_v: Edge,
    /// Variant 0: add `(u1,v1),(u2,v2)`; variant 1: add `(u1,v2),(u2,v1)`.
    pub variant: u8,
}

/// A "square": a `G_U` edge, a `G_V` edge, and the two crossing clique
/// links whose silence makes `G` and the swap indistinguishable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Square {
    /// The `G_U` edge `(u₁, u₂)`.
    pub u_edge: Edge,
    /// The `G_V` edge `(v₁, v₂)`.
    pub v_edge: Edge,
    /// Crossing link `(u₁, v₁)`.
    pub cross1: (usize, usize),
    /// Crossing link `(u₂, v₂)`.
    pub cross2: (usize, usize),
}

impl Square {
    /// The four clique links of the square (canonical orientation).
    pub fn links(&self) -> [(usize, usize); 4] {
        let c = |a: usize, b: usize| (a.min(b), a.max(b));
        [
            c(self.u_edge.u as usize, self.u_edge.v as usize),
            c(self.v_edge.u as usize, self.v_edge.v as usize),
            c(self.cross1.0, self.cross1.1),
            c(self.cross2.0, self.cross2.1),
        ]
    }

    /// The swap this square certifies: the variant whose added crossing
    /// pair is exactly this square's `cross1`/`cross2` links (which of the
    /// two variants that is depends on how the endpoints canonicalize).
    pub fn swap(&self) -> Swap {
        let c = |a: usize, b: usize| (a.min(b), a.max(b));
        let (u1, _) = self.u_edge.endpoints();
        let (v1, _) = self.v_edge.endpoints();
        let crosses = [
            c(self.cross1.0, self.cross1.1),
            c(self.cross2.0, self.cross2.1),
        ];
        // Variant 0 adds (u1, v1); use it iff that link is one of ours.
        let variant = if crosses.contains(&c(u1, v1)) { 0 } else { 1 };
        Swap {
            e_u: self.u_edge,
            e_v: self.v_edge,
            variant,
        }
    }
}

/// Builds the Section 3 hard instance.
///
/// Edges are added in the paper's order: offset-1 "rings" in both halves,
/// then offset 2, and so on, with leftovers following the same sequence
/// until exactly `m` edges exist.
///
/// # Panics
///
/// Panics if `n` is odd, `n < 6`, or `m` is outside `[n, 2·C(n/2, 2)]`.
pub fn hard_instance(n: usize, m: usize) -> HardInstance {
    assert!(n.is_multiple_of(2), "n must be even");
    assert!(n >= 6, "halves must have at least 3 vertices");
    let half = n / 2;
    let max_m = half * (half - 1); // 2 · C(half, 2)
    assert!((n..=max_m).contains(&m), "m must be in [n, {max_m}]");

    let mut g = Graph::new(n);
    let mut u_edges = Vec::new();
    let mut v_edges = Vec::new();
    'outer: for k in 1..half {
        for j in 0..half {
            if g.m() >= m {
                break 'outer;
            }
            if g.add_edge(j, (j + k) % half) {
                u_edges.push(Edge::new(j, (j + k) % half));
            }
            if g.m() >= m {
                break 'outer;
            }
            if g.add_edge(half + j, half + (j + k) % half) {
                v_edges.push(Edge::new(half + j, half + (j + k) % half));
            }
        }
    }
    assert_eq!(g.m(), m, "construction must realize exactly m edges");
    HardInstance {
        n,
        m,
        graph: g,
        u_edges,
        v_edges,
    }
}

impl HardInstance {
    /// Applies a swap, producing a member of `S_G` (always connected,
    /// because both halves are 2-edge-connected).
    ///
    /// # Panics
    ///
    /// Panics if the swap's edges are not in the respective halves.
    pub fn apply_swap(&self, swap: &Swap) -> Graph {
        let mut g = self.graph.clone();
        let (u1, u2) = swap.e_u.endpoints();
        let (v1, v2) = swap.e_v.endpoints();
        assert!(g.remove_edge(u1, u2), "e_u not present");
        assert!(g.remove_edge(v1, v2), "e_v not present");
        match swap.variant {
            0 => {
                g.add_edge(u1, v1);
                g.add_edge(u2, v2);
            }
            1 => {
                g.add_edge(u1, v2);
                g.add_edge(u2, v1);
            }
            _ => panic!("variant must be 0 or 1"),
        }
        g
    }

    /// Draws a uniform member of `S_G`.
    pub fn random_swap<R: Rng + ?Sized>(&self, rng: &mut R) -> Swap {
        Swap {
            e_u: self.u_edges[rng.gen_range(0..self.u_edges.len())],
            e_v: self.v_edges[rng.gen_range(0..self.v_edges.len())],
            variant: rng.gen_range(0..2),
        }
    }

    /// Samples the hard distribution `H`: with probability 1/2 the
    /// disconnected `G`, otherwise a uniform (connected) swap. Returns the
    /// graph and the ground-truth connectivity label.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Graph, bool) {
        if rng.gen_bool(0.5) {
            (self.graph.clone(), false)
        } else {
            (self.apply_swap(&self.random_swap(rng)), true)
        }
    }
}

/// Constructs an explicit family of pairwise edge-disjoint squares of size
/// `Ω(m)` (at least `m/6` for the instances the experiments use).
///
/// Pairing rule: the offset-`k` `U`-edge at position `j` is matched with
/// the offset-`k` `V`-edge at position `j + k (mod half)` — crossing links
/// then all have "slope" `k`, so squares from different offset classes
/// never share a crossing link; within a class, positions are greedily
/// thinned so no two chosen squares are `k` apart (which is when they
/// would share a crossing link).
pub fn edge_disjoint_squares(inst: &HardInstance) -> Vec<Square> {
    let half = inst.n / 2;
    // Group edges by offset class. An edge {a, b} in a half has offset
    // min(b−a, half−(b−a)).
    let mut u_by: std::collections::HashMap<(usize, usize), bool> =
        std::collections::HashMap::new();
    for e in &inst.u_edges {
        u_by.insert(e.endpoints(), true);
    }
    let mut v_by: std::collections::HashMap<(usize, usize), bool> =
        std::collections::HashMap::new();
    for e in &inst.v_edges {
        v_by.insert(e.endpoints(), true);
    }
    let mut squares = Vec::new();
    let mut used_links: HashSet<(usize, usize)> = HashSet::new();
    for k in 1..half {
        for j in 0..half {
            let (a, b) = (j, (j + k) % half);
            let u_pair = (a.min(b), a.max(b));
            if !u_by.contains_key(&u_pair) {
                continue;
            }
            let (c, d) = ((j + k) % half, (j + 2 * k) % half);
            let v_pair = (half + c.min(d), half + c.max(d));
            if !v_by.contains_key(&(v_pair.0, v_pair.1)) {
                continue;
            }
            let sq = Square {
                u_edge: Edge::new(u_pair.0, u_pair.1),
                v_edge: Edge::new(v_pair.0, v_pair.1),
                cross1: (a, half + (a + k) % half),
                cross2: (b, half + (b + k) % half),
            };
            // Greedy edge-disjointness filter (covers class overlaps and
            // the wrap-around cases uniformly).
            let links = sq.links();
            if links.iter().any(|l| used_links.contains(l)) {
                continue;
            }
            for l in links {
                used_links.insert(l);
            }
            squares.push(sq);
        }
    }
    squares
}

/// The adversary: finds a square none of whose four links appears in the
/// set of links a protocol used. By pigeonhole this must succeed whenever
/// `|used| <` the number of edge-disjoint squares.
pub fn find_untouched_square<'a>(
    squares: &'a [Square],
    used: &HashSet<(usize, usize)>,
) -> Option<&'a Square> {
    squares
        .iter()
        .find(|sq| sq.links().iter().all(|l| !used.contains(l)))
}

/// The set of links a recorded run used: the `(src, dst)` of every
/// `MessageBatch` event, canonicalized to `(min, max)`.
pub fn links_used(events: &[Event]) -> HashSet<(usize, usize)> {
    crate::message_links(events)
        .map(|(s, d)| (s.min(d), s.max(d)))
        .collect()
}

/// Validates the structural claims of Section 3.1 on an instance; returns
/// a human-readable failure description instead of panicking (used by both
/// tests and the experiment harness).
pub fn validate_instance(inst: &HardInstance) -> Result<(), String> {
    let half = inst.n / 2;
    let gu = Graph::from_edges(half, inst.u_edges.iter().copied());
    let gv = Graph::from_edges(
        half,
        inst.v_edges
            .iter()
            .map(|e| Edge::new(e.u as usize - half, e.v as usize - half)),
    );
    if !connectivity::is_biconnected(&gu) {
        return Err("G_U is not biconnected".into());
    }
    if !connectivity::is_biconnected(&gv) {
        return Err("G_V is not biconnected".into());
    }
    if connectivity::is_connected(&inst.graph) {
        return Err("G must be disconnected".into());
    }
    if connectivity::component_count(&inst.graph) != 2 {
        return Err("G must have exactly two components".into());
    }
    // Near-regularity: degrees ⌊2m/n⌋ or ⌈2m/n⌉ (the construction adds
    // whole offset rings; the partial last ring can leave a gap of one
    // more, so allow a ±1 slack around the paper's statement).
    let lo = (2 * inst.m / inst.n).saturating_sub(1);
    let hi = 2 * inst.m / inst.n + 2;
    for v in 0..inst.n {
        let d = inst.graph.degree(v);
        if d < lo || d > hi {
            return Err(format!("vertex {v} has degree {d} outside [{lo}, {hi}]"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_realizes_exact_m() {
        for (n, m) in [(10, 10), (10, 16), (16, 40), (20, 60), (12, 12)] {
            let inst = hard_instance(n, m);
            assert_eq!(inst.graph.m(), m, "n={n}, m={m}");
            assert_eq!(inst.u_edges.len() + inst.v_edges.len(), m);
            validate_instance(&inst).unwrap();
        }
    }

    #[test]
    fn swaps_are_connected() {
        let inst = hard_instance(12, 24);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..30 {
            let swap = inst.random_swap(&mut rng);
            let g = inst.apply_swap(&swap);
            assert!(
                connectivity::is_connected(&g),
                "swap {swap:?} must connect the graph"
            );
            assert_eq!(g.m(), inst.m, "swaps preserve the edge count");
        }
    }

    #[test]
    fn both_swap_variants_work() {
        let inst = hard_instance(10, 14);
        let swap0 = Swap {
            e_u: inst.u_edges[0],
            e_v: inst.v_edges[0],
            variant: 0,
        };
        let swap1 = Swap {
            variant: 1,
            ..swap0
        };
        assert!(connectivity::is_connected(&inst.apply_swap(&swap0)));
        assert!(connectivity::is_connected(&inst.apply_swap(&swap1)));
        assert_ne!(inst.apply_swap(&swap0), inst.apply_swap(&swap1));
    }

    #[test]
    fn hard_distribution_is_half_connected() {
        let inst = hard_instance(12, 20);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut connected = 0;
        let trials = 400;
        for _ in 0..trials {
            let (g, label) = inst.sample(&mut rng);
            assert_eq!(connectivity::is_connected(&g), label);
            connected += usize::from(label);
        }
        assert!((150..=250).contains(&connected), "{connected}/{trials}");
    }

    #[test]
    fn squares_are_pairwise_edge_disjoint() {
        for (n, m) in [(12, 24), (16, 40), (20, 80)] {
            let inst = hard_instance(n, m);
            let squares = edge_disjoint_squares(&inst);
            let mut seen = HashSet::new();
            for sq in &squares {
                for l in sq.links() {
                    assert!(seen.insert(l), "link {l:?} reused (n={n}, m={m})");
                }
            }
        }
    }

    #[test]
    fn square_family_is_omega_m() {
        for (n, m) in [(16, 40), (20, 80), (24, 120)] {
            let inst = hard_instance(n, m);
            let squares = edge_disjoint_squares(&inst);
            assert!(
                squares.len() * 6 >= m,
                "only {} squares for m={m} (n={n})",
                squares.len()
            );
        }
    }

    #[test]
    fn square_swaps_connect() {
        let inst = hard_instance(16, 48);
        for sq in edge_disjoint_squares(&inst) {
            let g = inst.apply_swap(&sq.swap());
            assert!(connectivity::is_connected(&g));
        }
    }

    #[test]
    fn adversary_finds_untouched_square_when_few_links_used() {
        let inst = hard_instance(20, 80);
        let squares = edge_disjoint_squares(&inst);
        // A protocol that used fewer links than there are squares…
        let mut used = HashSet::new();
        for (i, sq) in squares.iter().enumerate().skip(1) {
            // touch one link of every square except the first
            used.insert(sq.links()[i % 4]);
        }
        let found = find_untouched_square(&squares, &used).expect("pigeonhole");
        assert_eq!(found, &squares[0]);
        // …while touching every square defeats the adversary.
        for sq in &squares {
            used.insert(sq.links()[0]);
        }
        assert!(find_untouched_square(&squares, &used).is_none());
    }

    #[test]
    fn links_used_canonicalizes() {
        let batch = |round, src, dst| Event::MessageBatch {
            round,
            src,
            dst,
            count: 1,
            words: 1,
        };
        let events = vec![
            Event::ScopeEnter {
                name: "phase1".into(),
                round: 0,
            },
            batch(0, 3, 7),
            batch(1, 7, 3),
            batch(2, 0, 1),
            batch(3, 0, 1),
            Event::Fault {
                round: 3,
                kind: cc_trace::FaultKind::Drop,
                src: 5,
                dst: 6,
                index: 0,
                info: 0,
            },
        ];
        let set = links_used(&events);
        assert_eq!(set, HashSet::from([(3, 7), (0, 1)]));
    }

    #[test]
    #[should_panic(expected = "m must be in")]
    fn m_out_of_range_rejected() {
        hard_instance(10, 9);
    }
}

#[cfg(test)]
mod swap_variant_tests {
    use super::*;

    /// The variant chosen by `Square::swap` must add exactly the square's
    /// crossing links (this is the regression test for the bug the
    /// port-view equality check exposed).
    #[test]
    fn swap_adds_exactly_the_squares_crossing_links() {
        for (n, m) in [(12usize, 24usize), (16, 48), (20, 80)] {
            let inst = hard_instance(n, m);
            for sq in edge_disjoint_squares(&inst) {
                let g = inst.apply_swap(&sq.swap());
                let c = |a: usize, b: usize| (a.min(b), a.max(b));
                for link in [sq.cross1, sq.cross2] {
                    let (a, b) = c(link.0, link.1);
                    assert!(
                        g.has_edge(a, b),
                        "n={n} m={m}: crossing link {link:?} missing after swap"
                    );
                }
                let (u1, u2) = sq.u_edge.endpoints();
                let (v1, v2) = sq.v_edge.endpoints();
                assert!(!g.has_edge(u1, u2), "removed U edge still present");
                assert!(!g.has_edge(v1, v2), "removed V edge still present");
            }
        }
    }
}
