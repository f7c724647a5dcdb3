//! k-edge-connectivity in `O(k log log log n)` rounds (Remark 5).
//!
//! The Ahn–Guha–McGregor reduction: peel `k` maximal spanning forests
//! `F_1, …, F_k`, where `F_i` is a spanning forest of
//! `G − (F_1 ∪ … ∪ F_{i−1})`. The union is a *sparse certificate*
//! (Nagamochi–Ibaraki): `λ(∪F_i) ≥ min(λ(G), k)`, so `G` is
//! k-edge-connected iff the certificate (≤ `k(n−1)` edges) is — a check
//! the coordinator performs locally once the forests, which every GC run
//! already broadcasts, are known.
//!
//! Each peel is one full run of the Theorem 4 connectivity algorithm, so
//! the total is `k` GC invocations: `O(k log log log n)` rounds.

use crate::error::CoreError;
use crate::gc::{self, GcConfig};
use cc_graph::{connectivity, Edge, Graph};
use cc_net::{Cost, NetConfig};

/// A completed k-edge-connectivity run.
#[derive(Clone, Debug)]
pub struct KeccRun {
    /// Whether the input graph is k-edge-connected.
    pub k_edge_connected: bool,
    /// Edge connectivity of the certificate — equals `min(λ(G), k)`.
    pub certificate_lambda: usize,
    /// The sparse certificate (union of the peeled forests).
    pub certificate: Vec<Edge>,
    /// Combined metered cost of the `k` GC runs.
    pub cost: Cost,
}

/// Decides whether `g` is `k`-edge-connected.
///
/// # Errors
///
/// See [`crate::gc::sketch_and_span`].
///
/// # Panics
///
/// Panics if `k == 0` or `net_cfg.n != g.n()`.
pub fn k_edge_connectivity(
    g: &Graph,
    k: usize,
    net_cfg: &NetConfig,
    cfg: &GcConfig,
) -> Result<KeccRun, CoreError> {
    assert!(k >= 1, "k must be positive");
    assert_eq!(net_cfg.n, g.n(), "config must match the graph");
    let mut remaining = g.clone();
    let mut certificate: Vec<Edge> = Vec::new();
    let mut cost = Cost::default();
    for i in 0..k {
        let mut c = net_cfg.clone();
        c.seed = net_cfg.seed.wrapping_add(i as u64 + 1);
        let run = gc::run_with(&remaining, &c, cfg)?;
        cost += run.cost;
        if run.output.spanning_forest.is_empty() {
            break; // nothing left to peel
        }
        for e in &run.output.spanning_forest {
            remaining.remove_edge(e.u as usize, e.v as usize);
            certificate.push(*e);
        }
    }
    certificate.sort();
    let cert_graph = Graph::from_edges(g.n(), certificate.iter().copied());
    let lambda = connectivity::edge_connectivity(&cert_graph);
    Ok(KeccRun {
        k_edge_connected: lambda >= k,
        certificate_lambda: lambda,
        certificate,
        cost,
    })
}

/// The single-shipment variant (the construction Remark 5 actually cites
/// from Ahn, Guha and McGregor): every node computes `k` independent
/// sketch bundles of its *full* neighborhood and ships them to the
/// coordinator once; the coordinator peels all `k` forests locally,
/// updating the next peel's sketches by linearly subtracting the removed
/// edges' incidences. One routed shipment instead of `k` sequential GC
/// runs — the round count does not grow with `k`.
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations, and with
///   [`NetError::Malformed`](cc_net::NetError::Malformed) if a sketch bundle lost or
///   duplicated a fragment on the way, arrived short or not at all.
/// * [`CoreError::SketchExhausted`] on sampler failure.
///
/// # Panics
///
/// Panics if `k == 0` or `net_cfg.n != g.n()`.
pub fn k_edge_connectivity_sketch(
    g: &Graph,
    k: usize,
    net_cfg: &NetConfig,
    families: Option<usize>,
) -> Result<KeccRun, CoreError> {
    use cc_route::{broadcast_large, route_bundles, shared_seed, Net};
    use cc_sketch::{
        encode_bundle, recommended_families, spanning_forest_via_sketches, GraphSketchSpace, Sketch,
    };

    assert!(k >= 1, "k must be positive");
    assert_eq!(net_cfg.n, g.n(), "config must match the graph");
    let n = g.n();
    let coordinator = 0usize;
    let mut net = Net::new(net_cfg.clone());
    let t = families.unwrap_or_else(|| recommended_families(n));

    // Shared randomness → k peels × t families of sketch spaces.
    let seed = shared_seed(&mut net)?;
    let spaces: Vec<Vec<GraphSketchSpace>> = (0..k)
        .map(|p| {
            GraphSketchSpace::family(n, t, seed ^ (0xD1B5_4A32_u64.wrapping_mul(p as u64 + 1)))
        })
        .collect();

    // One shipment: every node concatenates its k·t sketches.
    let mut scratch = cc_sketch::NeighborhoodScratch::default();
    let bundles = (0..n)
        .map(|v| {
            let neigh = g.neighbors(v).iter().map(|&u| u as usize);
            let words = encode_bundle(spaces.iter().flatten(), v, neigh, &mut scratch);
            (v, coordinator, words)
        })
        .collect();
    let mut delivered = route_bundles(&mut net, bundles)?;

    // Coordinator: read each node's bundle, then peel k forests locally.
    // sketches[p][f][v]
    let mut sketches: Vec<Vec<Vec<Sketch>>> = vec![vec![Vec::with_capacity(n); t]; k];
    for v in 0..n {
        let (flat, rows) = (spaces.iter().flatten(), sketches.iter_mut().flatten());
        gc::take_sketches(&mut delivered, coordinator, v, flat, rows)?;
    }
    let ids: Vec<usize> = (0..n).collect();
    let mut certificate: Vec<Edge> = Vec::new();
    for p in 0..k {
        // Subtract all previously peeled edges from this peel's sketches,
        // one batch per (vertex, family).
        let mut peeled: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &certificate {
            let (u, v) = e.endpoints();
            peeled[u].push(v);
            peeled[v].push(u);
        }
        for (v, nbrs) in peeled.iter().enumerate().filter(|(_, nb)| !nb.is_empty()) {
            for f in 0..t {
                spaces[p][f].remove_incidences_with(
                    &mut sketches[p][f][v],
                    v,
                    nbrs.iter().copied(),
                    &mut scratch,
                );
            }
        }
        let res = spanning_forest_via_sketches(&spaces[p], &ids, &sketches[p]);
        if res.exhausted {
            return Err(CoreError::SketchExhausted {
                failures: res.sample_failures,
            });
        }
        if res.edges.is_empty() {
            break;
        }
        certificate.extend(res.edges);
    }
    certificate.sort();

    // Broadcast the certificate so every node knows it; verdict is local.
    let mut words = Vec::with_capacity(certificate.len() * 2 + 1);
    words.push(certificate.len() as u64);
    for e in &certificate {
        words.extend_from_slice(&[e.u as u64, e.v as u64]);
    }
    broadcast_large(&mut net, coordinator, words.into())?;

    let cert_graph = Graph::from_edges(g.n(), certificate.iter().copied());
    let lambda = connectivity::edge_connectivity(&cert_graph);
    Ok(KeccRun {
        k_edge_connected: lambda >= k,
        certificate_lambda: lambda,
        certificate,
        cost: net.cost(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    fn cfg(n: usize, seed: u64) -> NetConfig {
        NetConfig::kt1(n).with_seed(seed)
    }

    #[test]
    fn cycle_is_exactly_2_edge_connected() {
        let g = generators::cycle(12);
        let r2 = k_edge_connectivity(&g, 2, &cfg(12, 1), &GcConfig::default()).unwrap();
        assert!(r2.k_edge_connected);
        let r3 = k_edge_connectivity(&g, 3, &cfg(12, 2), &GcConfig::default()).unwrap();
        assert!(!r3.k_edge_connected);
        assert_eq!(r3.certificate_lambda, 2);
    }

    #[test]
    fn path_is_only_1_edge_connected() {
        let g = generators::path(10);
        let r1 = k_edge_connectivity(&g, 1, &cfg(10, 3), &GcConfig::default()).unwrap();
        assert!(r1.k_edge_connected);
        let r2 = k_edge_connectivity(&g, 2, &cfg(10, 4), &GcConfig::default()).unwrap();
        assert!(!r2.k_edge_connected);
    }

    #[test]
    fn circulant_has_lambda_2k() {
        // Offsets {1, 2} → 4-regular, 4-edge-connected.
        let g = generators::circulant(13, &[1, 2]);
        for (k, expect) in [(3usize, true), (4, true), (5, false)] {
            let r =
                k_edge_connectivity(&g, k, &cfg(13, 5 + k as u64), &GcConfig::default()).unwrap();
            assert_eq!(r.k_edge_connected, expect, "k={k}");
        }
    }

    #[test]
    fn disconnected_graph_fails_k1() {
        let g = generators::disjoint_union(&generators::cycle(4), &generators::cycle(4));
        let r = k_edge_connectivity(&g, 1, &cfg(8, 9), &GcConfig::default()).unwrap();
        assert!(!r.k_edge_connected);
        assert_eq!(r.certificate_lambda, 0);
    }

    #[test]
    fn certificate_lambda_matches_reference_truncated_at_k() {
        let g = generators::complete(8); // λ = 7
        for k in [2usize, 5] {
            let r =
                k_edge_connectivity(&g, k, &cfg(8, 20 + k as u64), &GcConfig::default()).unwrap();
            assert!(r.k_edge_connected);
            assert_eq!(
                r.certificate_lambda.min(k),
                k,
                "certificate must witness min(λ, k)"
            );
            assert!(r.certificate.len() <= k * 7);
        }
    }

    #[test]
    fn cost_scales_roughly_linearly_in_k() {
        let g = generators::circulant(16, &[1, 2, 3]);
        let r1 = k_edge_connectivity(&g, 1, &cfg(16, 30), &GcConfig::default()).unwrap();
        let r4 = k_edge_connectivity(&g, 4, &cfg(16, 30), &GcConfig::default()).unwrap();
        assert!(r4.cost.rounds >= 3 * r1.cost.rounds, "k runs of GC");
        assert!(r4.cost.rounds <= 8 * r1.cost.rounds);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let g = generators::cycle(4);
        let _ = k_edge_connectivity(&g, 0, &cfg(4, 0), &GcConfig::default());
    }
}

#[cfg(test)]
mod sketch_variant_tests {
    use super::*;
    use cc_graph::generators;

    fn cfg(n: usize, seed: u64) -> NetConfig {
        NetConfig::kt1(n).with_seed(seed)
    }

    #[test]
    fn sketch_variant_matches_peeling_verdicts() {
        let g = generators::circulant(13, &[1, 2]); // 4-edge-connected
        for k in [1usize, 3, 4, 5] {
            let peel =
                k_edge_connectivity(&g, k, &cfg(13, k as u64), &GcConfig::default()).unwrap();
            let one = k_edge_connectivity_sketch(&g, k, &cfg(13, 40 + k as u64), Some(10)).unwrap();
            assert_eq!(peel.k_edge_connected, one.k_edge_connected, "k={k}");
            // Certificates guarantee λ_cert ≥ min(λ, k); above the k
            // threshold the two variants may legitimately differ.
            assert_eq!(
                peel.certificate_lambda.min(k),
                one.certificate_lambda.min(k),
                "k={k}"
            );
        }
    }

    #[test]
    fn sketch_variant_on_cycle_and_path() {
        let c = generators::cycle(10);
        assert!(
            k_edge_connectivity_sketch(&c, 2, &cfg(10, 1), Some(10))
                .unwrap()
                .k_edge_connected
        );
        assert!(
            !k_edge_connectivity_sketch(&c, 3, &cfg(10, 2), Some(10))
                .unwrap()
                .k_edge_connected
        );
        let p = generators::path(9);
        assert!(
            !k_edge_connectivity_sketch(&p, 2, &cfg(9, 3), Some(10))
                .unwrap()
                .k_edge_connected
        );
    }

    #[test]
    fn certificate_is_a_union_of_k_forests() {
        let g = generators::complete(9);
        let run = k_edge_connectivity_sketch(&g, 3, &cfg(9, 4), Some(10)).unwrap();
        assert!(run.k_edge_connected);
        assert!(run.certificate.len() <= 3 * 8, "at most k(n−1) edges");
        for e in &run.certificate {
            assert!(g.has_edge(e.u as usize, e.v as usize));
        }
    }

    #[test]
    fn rounds_scale_sublinearly_in_k_at_wide_bandwidth() {
        // At O(log n)-bit links the one-shot variant is volume-bound, so
        // its rounds DO grow with k (the peeling variant is cheaper
        // there). In the paper's wide-bandwidth regime the shipment fits
        // and rounds grow sublinearly with k — which is the regime the
        // one-shot construction is for.
        let g = generators::circulant(17, &[1, 2, 3]);
        let wide = cfg(17, 5).with_link_words(NetConfig::polylog_bandwidth(17));
        let r1 = k_edge_connectivity_sketch(&g, 1, &wide, Some(8)).unwrap();
        let r4 = k_edge_connectivity_sketch(&g, 4, &wide, Some(8)).unwrap();
        assert!(
            r4.cost.rounds < 3 * r1.cost.rounds,
            "k=1: {} rounds, k=4: {} rounds",
            r1.cost.rounds,
            r4.cost.rounds
        );
    }

    #[test]
    fn disconnected_graph_verdict() {
        let g = generators::disjoint_union(&generators::cycle(4), &generators::cycle(4));
        let run = k_edge_connectivity_sketch(&g, 1, &cfg(8, 6), Some(8)).unwrap();
        assert!(!run.k_edge_connected);
        assert_eq!(run.certificate_lambda, 0);
    }
}
