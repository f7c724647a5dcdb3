//! Algorithm 3: EXACT-MST — MST of an edge-weighted clique in
//! `O(log log log n)` rounds (Theorem 7).
//!
//! 1. **Component reduction** — CC-MST for `⌈log log log n⌉ + 3` phases
//!    gives a partial MST forest `T1` and a weighted component graph `G1`
//!    (edge weight = minimum real edge between the components).
//! 2. **KKT sampling** — each `G1` edge is kept independently with
//!    probability `p = 1/√n` to form `H`; `F =` SQ-MST(`H`).
//! 3. **Filtering** — `F`-heavy edges of `G1` cannot be in the MST
//!    (Lemma 6 bounds the survivors by `n/p` w.h.p.); the `F`-light edges
//!    `E_ℓ` feed a second SQ-MST call.
//! 4. **Assembly** — `MST = T1 ∪ T2`, with component-graph edges mapped
//!    back to their real witness edges.
//!
//! The component-graph phase orders edges by `(w, leader-pair)`; when the
//! input's raw weights are distinct this coincides with the global
//! tie-break and the output equals the reference MST edge-for-edge, which
//! is what the tests check (with ties, any minimum-weight forest is a
//! correct MST and the tests compare total weight).

use crate::component_graph::build_weighted_component_graph;
use crate::error::CoreError;
use crate::sq_mst::{sq_mst, SqMstConfig, SqMstInstance};
use cc_graph::{UnionFind, WEdge, WGraph};
use cc_kkt::FLightClassifier;
use cc_lotker::{cc_mst, reduce_components_phases};
use cc_net::Cost;
use cc_route::Net;
use rand::Rng;
use std::collections::HashMap;

/// Tuning knobs for EXACT-MST.
#[derive(Clone, Debug, Default)]
pub struct ExactMstConfig {
    /// Lotker preprocessing phases (`None` = the paper's
    /// `⌈log log log n⌉ + 3`; small values force the SQ-MST path at laptop
    /// scale).
    pub phases: Option<usize>,
    /// KKT sampling probability (`None` = `1/√n`).
    pub sample_p: Option<f64>,
    /// SQ-MST group size (`None` = `n`).
    pub group_size: Option<usize>,
    /// Sketch families per SQ-MST guardian (`None` = `Θ(log n)`).
    pub families: Option<usize>,
}

/// A completed EXACT-MST run.
#[derive(Clone, Debug)]
pub struct ExactMstRun {
    /// The minimum spanning forest of the input (real edges, sorted).
    pub mst: Vec<WEdge>,
    /// Total metered cost.
    pub cost: Cost,
    /// Lotker phases executed.
    pub phases: usize,
}

/// Runs EXACT-MST on `g` (typically a weighted clique; sparse inputs are
/// closed with `∞` links and yield the minimum spanning forest).
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations, and with
///   [`NetError::Malformed`](cc_net::NetError::Malformed) when a node reads a message
///   the Lotker preprocessing or the sort cannot have sent.
/// * [`CoreError::SketchExhausted`] on Monte Carlo sampler failure.
///
/// # Panics
///
/// Panics if `g.n() != net.n()`.
pub fn exact_mst(
    net: &mut Net,
    g: &WGraph,
    cfg: &ExactMstConfig,
) -> Result<ExactMstRun, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    let start = net.cost();
    if net.config().knowledge == cc_net::Knowledge::Kt0 {
        net.begin_scope("kt0-bootstrap");
        cc_route::kt0_bootstrap(net)?;
        net.end_scope();
    }
    let phases = cfg.phases.unwrap_or_else(|| reduce_components_phases(n));

    // ---- Step 1: Lotker preprocessing on the real weights.
    net.begin_scope("exact-mst:lotker");
    let pre = cc_mst(net, g, Some(phases))?;
    net.end_scope();
    let t1: Vec<WEdge> = pre
        .forest
        .into_iter()
        .filter(|e| e.w != cc_graph::weight::INFINITE_W)
        .collect();
    let mut uf = UnionFind::new(n);
    for e in &t1 {
        uf.union(e.u as usize, e.v as usize);
    }
    let label_of = uf.min_labels();

    // ---- Step 2: weighted component graph.
    net.begin_scope("exact-mst:component-graph");
    let g1 = build_weighted_component_graph(net, g, &label_of)?;
    net.end_scope();

    if g1.min_edge.is_empty() {
        // Every component is already spanned.
        let mut mst = t1;
        mst.sort();
        return Ok(ExactMstRun {
            mst,
            cost: net.cost().since(&start),
            phases: pre.phases_run,
        });
    }

    // The component-graph edge set, expressed over leader IDs, with the
    // witness map to real edges. Each edge is held by its smaller leader.
    let witness: HashMap<(usize, usize), WEdge> = g1.min_edge.clone();
    let comp_edge = |(a, b): (usize, usize)| -> WEdge {
        let w = witness[&(a, b)];
        WEdge::new(a, b, w.w)
    };
    let all_pairs: Vec<(usize, usize)> = g1.edges();

    // ---- Step 3: KKT sampling (coin flips by the holder's private RNG).
    let p = cfg
        .sample_p
        .unwrap_or(1.0 / (n as f64).sqrt())
        .clamp(0.0, 1.0);
    let mut h_edges: Vec<Vec<WEdge>> = vec![Vec::new(); n];
    for &(a, b) in &all_pairs {
        if net.node_rng(a).gen_bool(p) {
            h_edges[a].push(comp_edge((a, b)));
        }
    }
    let sq_cfg = SqMstConfig {
        group_size: cfg.group_size,
        families: cfg.families,
    };
    net.begin_scope("exact-mst:sq-mst-sample");
    let f = sq_mst(
        net,
        &SqMstInstance {
            vertices: g1.leaders.clone(),
            edges_by_holder: h_edges,
        },
        &sq_cfg,
    )?;
    net.end_scope();

    // ---- Step 4: F-light filtering, locally at each holder (everyone
    // knows F after SQ-MST's broadcast).
    let classifier = FLightClassifier::new(n, &f);
    let mut light_edges: Vec<Vec<WEdge>> = vec![Vec::new(); n];
    let mut light_count = 0usize;
    for &(a, b) in &all_pairs {
        let e = comp_edge((a, b));
        if classifier.is_f_light(&e) {
            light_edges[a].push(e);
            light_count += 1;
        }
    }
    let _ = light_count;

    // ---- Step 5: MST of the light edges.
    net.begin_scope("exact-mst:sq-mst-light");
    let t2 = sq_mst(
        net,
        &SqMstInstance {
            vertices: g1.leaders.clone(),
            edges_by_holder: light_edges,
        },
        &sq_cfg,
    )?;
    net.end_scope();

    // ---- Step 6: map component edges to witnesses and assemble.
    let mut mst = t1;
    for e in &t2 {
        let key = (e.u as usize, e.v as usize);
        mst.push(witness[&key]);
    }
    mst.sort();
    mst.dedup();
    Ok(ExactMstRun {
        mst,
        cost: net.cost().since(&start),
        phases: pre.phases_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, mst};
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize, seed: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(seed))
    }

    #[test]
    fn full_phases_match_kruskal() {
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::complete_wgraph(20, &mut rng);
            let mut nt = net(20, seed);
            let run = exact_mst(&mut nt, &g, &ExactMstConfig::default()).unwrap();
            assert_eq!(run.mst, mst::kruskal(&g), "seed={seed}");
        }
    }

    #[test]
    fn forced_sq_mst_path_matches_kruskal() {
        // One Lotker phase leaves many components; the KKT + SQ-MST
        // pipeline must finish the job exactly.
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
            let g = generators::complete_wgraph(18, &mut rng);
            let cfg = ExactMstConfig {
                phases: Some(1),
                sample_p: Some(0.4),
                group_size: Some(24),
                families: Some(10),
            };
            let mut nt = net(18, seed);
            let run = exact_mst(&mut nt, &g, &cfg).unwrap();
            assert_eq!(run.mst, mst::kruskal(&g), "seed={seed}");
            assert_eq!(run.phases, 1);
        }
    }

    #[test]
    fn sparse_input_yields_minimum_spanning_forest() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::gnp_weighted(16, 0.3, 200, &mut rng);
        let cfg = ExactMstConfig {
            phases: Some(1),
            sample_p: Some(0.5),
            group_size: Some(16),
            families: Some(10),
        };
        let mut nt = net(16, 3);
        let run = exact_mst(&mut nt, &g, &cfg).unwrap();
        assert_eq!(run.mst, mst::kruskal(&g));
    }

    #[test]
    fn tie_weights_yield_a_minimum_weight_forest() {
        // With equal raw weights the component-graph tie-break may differ
        // from the global one; the output must still be a spanning forest
        // of minimum total weight.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let base = generators::random_connected_graph(15, 0.4, &mut rng);
        let mut g = WGraph::new(15);
        for e in base.edges() {
            g.add_edge(e.u as usize, e.v as usize, 3);
        }
        let cfg = ExactMstConfig {
            phases: Some(1),
            sample_p: Some(0.5),
            group_size: Some(16),
            families: Some(10),
        };
        let mut nt = net(15, 4);
        let run = exact_mst(&mut nt, &g, &cfg).unwrap();
        assert!(mst::is_spanning_forest(&g, &run.mst));
        assert_eq!(
            WGraph::total_weight(&run.mst),
            WGraph::total_weight(&mst::kruskal(&g))
        );
    }

    #[test]
    fn extreme_sampling_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::complete_wgraph(14, &mut rng);
        for p in [0.0, 1.0] {
            let cfg = ExactMstConfig {
                phases: Some(1),
                sample_p: Some(p),
                group_size: Some(20),
                families: Some(10),
            };
            let mut nt = net(14, 5);
            let run = exact_mst(&mut nt, &g, &cfg).unwrap();
            assert_eq!(run.mst, mst::kruskal(&g), "p={p}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::complete_wgraph(16, &mut rng);
        let cfg = ExactMstConfig {
            phases: Some(1),
            ..Default::default()
        };
        let a = exact_mst(&mut net(16, 6), &g, &cfg).unwrap();
        let b = exact_mst(&mut net(16, 6), &g, &cfg).unwrap();
        assert_eq!(a.mst, b.mst);
        assert_eq!(a.cost, b.cost);
    }
}
