//! Bipartiteness in `O(log log log n)` rounds (Remark 5).
//!
//! The paper notes that the reduce-components + sketching pipeline solves
//! bipartiteness with the approach of Ahn, Guha and McGregor: a graph `G`
//! is bipartite iff its *bipartite double cover* `D(G)` — vertices
//! `(v, 0), (v, 1)`, with `{u, v} ∈ E` inducing `{(u,0),(v,1)}` and
//! `{(u,1),(v,0)}` — has exactly `2·c(G)` connected components (every
//! non-bipartite component's cover stays in one piece).
//!
//! We therefore run the Theorem 4 connectivity algorithm twice: once on
//! `G` (an `n`-clique) and once on `D(G)`, simulated on a `2n`-clique —
//! each machine of the paper's `n`-clique would host both copies of its
//! vertex, a constant-factor bandwidth difference that DESIGN.md records.

use crate::error::CoreError;
use crate::gc::{self, GcConfig};
use cc_graph::Graph;
use cc_net::{Cost, NetConfig};

/// A completed bipartiteness run.
#[derive(Clone, Debug)]
pub struct BipartitenessRun {
    /// Whether the input graph is bipartite.
    pub bipartite: bool,
    /// Components of `G` (from the first GC run).
    pub components_g: usize,
    /// Components of the double cover `D(G)` (from the second GC run).
    pub components_cover: usize,
    /// Combined metered cost of both runs.
    pub cost: Cost,
}

/// Builds the bipartite double cover `D(G)` on `2n` vertices:
/// `(v, 0) ↦ v` and `(v, 1) ↦ n + v`.
pub fn double_cover(g: &Graph) -> Graph {
    let n = g.n();
    let mut d = Graph::new(2 * n);
    for e in g.edges() {
        let (u, v) = e.endpoints();
        d.add_edge(u, n + v);
        d.add_edge(v, n + u);
    }
    d
}

/// Decides bipartiteness with two GC runs (Remark 5).
///
/// `net_cfg.n` must equal `g.n()`; the cover run uses a `2n` clique with
/// the same seed and bandwidth.
///
/// # Errors
///
/// See [`crate::gc::sketch_and_span`].
///
/// # Panics
///
/// Panics if `net_cfg.n != g.n()`.
pub fn bipartiteness(
    g: &Graph,
    net_cfg: &NetConfig,
    cfg: &GcConfig,
) -> Result<BipartitenessRun, CoreError> {
    assert_eq!(net_cfg.n, g.n(), "config must match the graph");
    let run_g = gc::run_with(g, net_cfg, cfg)?;
    let cover = double_cover(g);
    let mut cover_cfg = net_cfg.clone();
    cover_cfg.n = 2 * g.n();
    let run_d = gc::run_with(&cover, &cover_cfg, cfg)?;
    let cost = run_g.cost + run_d.cost;
    Ok(BipartitenessRun {
        bipartite: run_d.output.component_count == 2 * run_g.output.component_count,
        components_g: run_g.output.component_count,
        components_cover: run_d.output.component_count,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{connectivity, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg(n: usize, seed: u64) -> NetConfig {
        NetConfig::kt1(n).with_seed(seed)
    }

    #[test]
    fn double_cover_structure() {
        let g = generators::cycle(5);
        let d = double_cover(&g);
        assert_eq!(d.n(), 10);
        assert_eq!(d.m(), 10, "each edge lifts to two");
        // Odd cycle's cover is a single 10-cycle.
        assert_eq!(connectivity::component_count(&d), 1);
        // Even cycle's cover splits.
        let d6 = double_cover(&generators::cycle(6));
        assert_eq!(connectivity::component_count(&d6), 2);
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let g = generators::cycle(8);
        let run = bipartiteness(&g, &cfg(8, 1), &GcConfig::default()).unwrap();
        assert!(run.bipartite);
        assert_eq!(run.components_g, 1);
        assert_eq!(run.components_cover, 2);
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        let g = generators::cycle(9);
        let run = bipartiteness(&g, &cfg(9, 2), &GcConfig::default()).unwrap();
        assert!(!run.bipartite);
        assert_eq!(run.components_cover, 1);
    }

    #[test]
    fn random_graphs_match_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for trial in 0..6u64 {
            let g = if trial % 2 == 0 {
                generators::planted_bipartite(20, 0.2, &mut rng)
            } else {
                generators::gnp(20, 0.15, &mut rng)
            };
            let run = bipartiteness(&g, &cfg(20, trial), &GcConfig::default()).unwrap();
            assert_eq!(
                run.bipartite,
                connectivity::is_bipartite(&g),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn disconnected_mixed_components() {
        // One bipartite component, one odd cycle: overall non-bipartite.
        let g = generators::disjoint_union(&generators::path(4), &generators::cycle(5));
        let run = bipartiteness(&g, &cfg(9, 4), &GcConfig::default()).unwrap();
        assert!(!run.bipartite);
        assert_eq!(run.components_g, 2);
        assert_eq!(
            run.components_cover, 3,
            "2 (path cover) + 1 (odd cycle cover)"
        );
    }

    #[test]
    fn edgeless_graph_is_bipartite() {
        let g = Graph::new(6);
        let run = bipartiteness(&g, &cfg(6, 5), &GcConfig::default()).unwrap();
        assert!(run.bipartite);
        assert_eq!(run.components_cover, 12);
    }

    #[test]
    fn forced_phase2_variant_agrees() {
        let g = generators::odd_cycle_plus(21, 0.05, &mut ChaCha8Rng::seed_from_u64(6));
        let c = GcConfig {
            phases: Some(1),
            families: None,
        };
        let run = bipartiteness(&g, &cfg(21, 6), &c).unwrap();
        assert!(!run.bipartite);
    }
}
