//! Algorithm 1: REDUCECOMPONENTS (Phase 1 of the GC algorithm).
//!
//! Assign weight 1 to every input edge, close the graph into a weighted
//! clique with `∞` weights (done implicitly by the CC-MST driver), run
//! CC-MST for `⌈log log log n⌉ + 3` phases, and discard the `∞` edges from
//! the resulting forest. Lemma 3: each *unfinished* tree (one whose
//! component still has outgoing input edges) then has at least `log⁴ n`
//! nodes, so there are `O(n / log⁴ n)` of them.

use crate::component_graph::{build_component_graph, ComponentGraph};
use crate::error::CoreError;
use cc_graph::{Graph, UnionFind, WEdge, WGraph};
use cc_lotker::{cc_mst, reduce_components_phases};
use cc_route::Net;

/// Result of Phase 1.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// The spanning forest `T1` of the input graph found so far (unit
    /// weights; `∞` clique edges already discarded).
    pub t1: Vec<WEdge>,
    /// Component labels induced by `T1` (minimum member per component).
    pub label_of: Vec<usize>,
    /// The component graph `G1` (Algorithm 1 step 4).
    pub g1: ComponentGraph,
    /// CC-MST phases executed.
    pub phases: usize,
}

/// Runs REDUCECOMPONENTS. `phases = None` uses the paper's
/// `⌈log log log n⌉ + 3`; passing a smaller count is the experiment knob
/// that leaves more components for Phase 2 to handle (at laptop scales the
/// paper's default already collapses every component, because
/// `log⁴ n > n` for all feasible `n` — see EXPERIMENTS.md E4).
///
/// # Errors
///
/// Propagates simulator errors, and [`CoreError::Net`] with
/// [`NetError::Malformed`](cc_net::NetError::Malformed) when a node reads a message
/// CC-MST cannot have sent.
///
/// # Panics
///
/// Panics if `g.n() != net.n()`.
pub fn reduce_components(
    net: &mut Net,
    g: &Graph,
    phases: Option<usize>,
) -> Result<ReduceOutcome, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    let phases = phases.unwrap_or_else(|| reduce_components_phases(n));

    // Step 1: unit weights (the ∞ clique closure lives in the CC-MST driver).
    let mut gw = WGraph::new(n);
    for e in g.edges() {
        gw.add_edge(e.u as usize, e.v as usize, 1);
    }

    // Step 2: CC-MST for the prescribed number of phases.
    net.begin_scope("phase1:cc-mst");
    let run = cc_mst(net, &gw, Some(phases))?;
    net.end_scope();

    // Step 3: discard ∞ edges.
    let t1: Vec<WEdge> = run
        .forest
        .into_iter()
        .filter(|e| e.w != cc_graph::weight::INFINITE_W)
        .collect();

    // Labels induced by T1 (all nodes know T1, so this is local everywhere).
    let mut uf = UnionFind::new(n);
    for e in &t1 {
        uf.union(e.u as usize, e.v as usize);
    }
    let label_of = uf.min_labels();

    // Step 4: component graph.
    net.begin_scope("phase1:component-graph");
    let g1 = build_component_graph(net, g, &label_of)?;
    net.end_scope();

    Ok(ReduceOutcome {
        t1,
        label_of,
        g1,
        phases: run.phases_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{connectivity, generators, mst};
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize, seed: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(seed))
    }

    #[test]
    fn default_phases_collapse_components_fully() {
        // At n = 48, ⌈log log log n⌉+3 phases give fragments ≥ min(n, 2^16):
        // every connected component is fully spanned; T1 is a maximal
        // spanning forest.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::with_k_components(48, 3, 0.3, &mut rng);
        let mut nt = net(48, 1);
        let out = reduce_components(&mut nt, &g, None).unwrap();
        assert_eq!(
            out.t1.len(),
            48 - connectivity::component_count(&g),
            "maximal forest"
        );
        assert_eq!(out.label_of, connectivity::component_labels(&g));
        assert!(out.g1.unfinished_leaders().is_empty());
    }

    #[test]
    fn t1_is_a_forest_of_real_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::random_connected_graph(32, 0.1, &mut rng);
        let mut nt = net(32, 2);
        let out = reduce_components(&mut nt, &g, None).unwrap();
        let mut gw = WGraph::new(32);
        for e in g.edges() {
            gw.add_edge(e.u as usize, e.v as usize, 1);
        }
        assert!(mst::is_spanning_forest(&gw, &out.t1));
    }

    #[test]
    fn zero_phases_leave_every_vertex_unfinished() {
        // phases = 0 skips Lotker entirely: G1 is the input graph itself,
        // which is how experiments exercise the pure-sketch Phase 2.
        let g = generators::path(32);
        let mut nt = net(32, 3);
        let out = reduce_components(&mut nt, &g, Some(0)).unwrap();
        assert!(out.t1.is_empty());
        assert_eq!(out.label_of, (0..32).collect::<Vec<_>>());
        assert_eq!(out.g1.unfinished_leaders().len(), 32);
        assert_eq!(out.g1.edges().len(), g.m());
    }

    #[test]
    fn one_phase_merges_aggressively_but_only_with_real_edges() {
        // Simultaneous Borůvka merges can cascade (a unit-weight path
        // collapses in one phase); what must hold is that T1 uses only
        // real edges and fragments meet the schedule's LOWER bound.
        let g = generators::path(32);
        let mut nt = net(32, 3);
        let out = reduce_components(&mut nt, &g, Some(1)).unwrap();
        for e in &out.t1 {
            assert!(g.has_edge(e.u as usize, e.v as usize));
        }
        let mut sizes = std::collections::HashMap::new();
        for &l in &out.label_of {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        for &l in &out.g1.unfinished_leaders() {
            assert!(
                sizes[&l] >= 2,
                "after one phase every unfinished component has ≥ 2 nodes"
            );
        }
    }

    #[test]
    fn fragment_sizes_respect_schedule_bound() {
        // Lemma-3 style check at reduced phase counts: every unfinished
        // component has at least the schedule's size bound.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::random_connected_graph(64, 0.05, &mut rng);
        for phases in 1..=2usize {
            let mut nt = net(64, 10 + phases as u64);
            let out = reduce_components(&mut nt, &g, Some(phases)).unwrap();
            let bound = cc_lotker::min_fragment_size_before_phase(phases + 1, 64);
            let mut sizes = std::collections::HashMap::new();
            for &l in &out.label_of {
                *sizes.entry(l).or_insert(0usize) += 1;
            }
            for &l in &out.g1.unfinished_leaders() {
                assert!(
                    sizes[&l] >= bound,
                    "phases={phases}: unfinished component of size {} < {bound}",
                    sizes[&l]
                );
            }
        }
    }

    #[test]
    fn disconnected_graph_components_finish_independently() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::with_k_components(40, 4, 0.5, &mut rng);
        let mut nt = net(40, 6);
        let out = reduce_components(&mut nt, &g, None).unwrap();
        assert_eq!(out.g1.component_count(), 4);
        assert!(out.g1.unfinished_leaders().is_empty());
    }
}
