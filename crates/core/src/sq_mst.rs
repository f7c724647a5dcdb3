//! Algorithm 4: SQ-MST — MST of a graph with few vertices and
//! `O(n^{3/2})` edges in a constant number of (measured) rounds.
//!
//! The instance is a weighted graph `G' = (V', E')` whose vertices are a
//! subset of the machines (in EXACT-MST they are component leaders) and
//! whose edges start out distributed over *holder* machines. The steps are
//! the paper's:
//!
//! 1. **Distributed sort** — every edge gets its global rank by weight
//!    (tie-broken, so ranks are unique).
//! 2. **Rank dissemination** — each holder tells both endpoints the rank of
//!    the edge, so every vertex knows the rank of each incident edge.
//! 3. **Group partition** — edges are split by rank into `p = ⌈m / gs⌉`
//!    groups `E_1, …, E_p` of `gs` edges (the paper uses `gs = n`), and
//!    each group is routed to its guardian `g(i) = machine i`.
//! 4. **Sketch shipment** — every vertex `v` computes, for each `i ≥ 2`,
//!    `t` linear sketches of its neighborhood restricted to
//!    `G_i = E_1 ∪ … ∪ E_{i−1}` and routes them to `g(i)` (`G_1` is empty,
//!    so guardian 1 needs none).
//! 5. **Guardian filtering** — `g(i)` reconstructs a spanning forest `T_i`
//!    of `G_i` from the sketches and then scans `E_i` in rank order,
//!    keeping exactly the edges Kruskal would keep (`M_i`).
//! 6. **Collection** — `∪ M_i` is the MST; it is gathered at the
//!    coordinator and broadcast.

use crate::error::CoreError;
use crate::gc::take_sketches;
use cc_graph::{UnionFind, WEdge};
use cc_route::{
    broadcast_large, distributed_sort, route, route_bundles, shared_seed, Net, Packet, RoutedPacket,
};
use cc_sketch::{
    encode_bundle, recommended_families, spanning_forest_via_sketches, GraphSketchSpace, Sketch,
};
use std::collections::{HashMap, HashSet};

/// An SQ-MST instance.
#[derive(Clone, Debug)]
pub struct SqMstInstance {
    /// Vertices of `G'` (machine IDs; sorted, distinct).
    pub vertices: Vec<usize>,
    /// `edges_by_holder[machine]` — edges that machine holds initially.
    /// Endpoints must be vertices of `G'`.
    pub edges_by_holder: Vec<Vec<WEdge>>,
}

/// Tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct SqMstConfig {
    /// Edges per group (`None` = `n`, the paper's choice).
    pub group_size: Option<usize>,
    /// Sketch families per guardian instance (`None` = `Θ(log |V'|)`).
    pub families: Option<usize>,
}

/// Runs SQ-MST; returns the MST/MSF edge set of `G'` (sorted), which the
/// final broadcast makes known to every machine.
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations.
/// * [`CoreError::SketchExhausted`] on Monte Carlo sampler failure.
/// * [`CoreError::Fragment`] if a shipped bundle lost or duplicated a
///   fragment on the way.
/// * [`CoreError::SketchSize`] if a sketch bundle arrived short (its last
///   fragment lost) or not at all.
///
/// # Panics
///
/// Panics if the instance is malformed (endpoints outside `vertices`,
/// holder lists not matching the clique size).
pub fn sq_mst(
    net: &mut Net,
    inst: &SqMstInstance,
    cfg: &SqMstConfig,
) -> Result<Vec<WEdge>, CoreError> {
    let n = net.n();
    let coordinator = 0usize;
    assert_eq!(inst.edges_by_holder.len(), n, "one holder list per machine");
    let vset: HashSet<usize> = inst.vertices.iter().copied().collect();
    let m: usize = inst.edges_by_holder.iter().map(Vec::len).sum();
    for edges in &inst.edges_by_holder {
        for e in edges {
            assert!(
                vset.contains(&(e.u as usize)) && vset.contains(&(e.v as usize)),
                "edge endpoint outside the vertex set"
            );
        }
    }
    if m == 0 {
        return Ok(Vec::new());
    }

    // ---- Step 1: global ranks by (w, u, v).
    net.begin_scope("sq-mst:sort");
    let keys: Vec<Vec<[u64; 3]>> = inst
        .edges_by_holder
        .iter()
        .map(|es| es.iter().map(|e| [e.w, e.u as u64, e.v as u64]).collect())
        .collect();
    let ranked = distributed_sort(net, keys)?;
    net.end_scope();

    let gs = cfg.group_size.unwrap_or(n).max(1);
    let p = m.div_ceil(gs);
    assert!(p <= n, "more groups than guardians; raise group_size");

    // ---- Step 2: both endpoints learn each incident edge's rank.
    net.begin_scope("sq-mst:rank-exchange");
    let mut rank_packets = Vec::new();
    for (holder, items) in ranked.iter().enumerate() {
        for &(k, r) in items {
            for dst in [k[1] as usize, k[2] as usize] {
                rank_packets.push(RoutedPacket {
                    src: holder,
                    dst,
                    payload: Packet::of(&[k[0], k[1], k[2], r]),
                });
            }
        }
    }
    let rank_deliveries = route(net, rank_packets)?;
    // incident[v] = (rank, edge) sorted by rank.
    let mut incident: HashMap<usize, Vec<(u64, WEdge)>> = HashMap::new();
    for &v in &inst.vertices {
        let mut list: Vec<(u64, WEdge)> = rank_deliveries[v]
            .iter()
            .map(|(_, p)| (p[3], WEdge::new(p[1] as usize, p[2] as usize, p[0])))
            .collect();
        list.sort_unstable_by_key(|&(r, _)| r);
        incident.insert(v, list);
    }
    net.end_scope();

    // ---- Step 3: groups to guardians.
    net.begin_scope("sq-mst:group-routing");
    let mut group_packets = Vec::new();
    for (holder, items) in ranked.iter().enumerate() {
        for &(k, r) in items {
            let guardian = (r as usize) / gs;
            group_packets.push(RoutedPacket {
                src: holder,
                dst: guardian,
                payload: Packet::of(&[k[0], k[1], k[2], r]),
            });
        }
    }
    let group_deliveries = route(net, group_packets)?;
    net.end_scope();

    // ---- Step 4: sketches of G_i to g(i), i ≥ 2.
    net.begin_scope("sq-mst:sketches");
    let seed = shared_seed(net)?;
    let t = cfg
        .families
        .unwrap_or_else(|| recommended_families(inst.vertices.len()));
    // One independent family set per guardian instance i.
    let spaces_for = |i: usize| -> Vec<GraphSketchSpace> {
        GraphSketchSpace::family(
            n.max(2),
            t,
            seed ^ (0xA5A5_5A5A_u64.wrapping_mul(i as u64 + 1)),
        )
    };
    let mut bundles = Vec::new();
    let mut scratch = cc_sketch::NeighborhoodScratch::default();
    let mut all_spaces: Vec<Option<Vec<GraphSketchSpace>>> = vec![None; p];
    for (i, slot) in all_spaces.iter_mut().enumerate().skip(1) {
        // guardian index i handles group E_{i+1} in 1-based paper terms
        *slot = Some(spaces_for(i));
    }
    for &v in &inst.vertices {
        let inc = &incident[&v];
        for (i, slot) in all_spaces.iter().enumerate().skip(1) {
            let spaces = slot.as_ref().unwrap();
            let threshold = (i * gs) as u64; // ranks < i·gs form G_{i+1}'s prefix
            let neigh: Vec<usize> = inc
                .iter()
                .take_while(|&&(r, _)| r < threshold)
                .map(|&(_, e)| e.other(v))
                .collect();
            let words = encode_bundle(spaces, v, neigh.iter().copied(), &mut scratch);
            bundles.push((v, i, words));
        }
    }
    let mut sketch_bundles = route_bundles(net, bundles)?;
    net.end_scope();

    // ---- Step 5: guardians filter their groups locally.
    net.begin_scope("sq-mst:filter");
    let mut kept: Vec<WEdge> = Vec::new();
    for i in 0..p {
        // Group edges in rank order.
        let mut group: Vec<(u64, WEdge)> = group_deliveries[i]
            .iter()
            .map(|(_, pl)| (pl[3], WEdge::new(pl[1] as usize, pl[2] as usize, pl[0])))
            .collect();
        group.sort_unstable_by_key(|&(r, _)| r);

        // Spanning forest T_i of the rank-prefix graph.
        let mut uf = UnionFind::new(n);
        if i > 0 {
            let spaces = all_spaces[i].as_ref().unwrap();
            let mut sketches: Vec<Vec<Sketch>> = vec![Vec::with_capacity(inst.vertices.len()); t];
            for &v in &inst.vertices {
                take_sketches(&mut sketch_bundles, i, v, spaces, &mut sketches)?;
            }
            let forest = spanning_forest_via_sketches(spaces, &inst.vertices, &sketches);
            if forest.exhausted {
                return Err(CoreError::SketchExhausted {
                    failures: forest.sample_failures,
                });
            }
            for e in &forest.edges {
                uf.union(e.u as usize, e.v as usize);
            }
        }
        // Kruskal scan of the group.
        for (_r, e) in group {
            if uf.union(e.u as usize, e.v as usize) {
                kept.push(e);
            }
        }
    }
    net.end_scope();

    // ---- Step 6: gather and broadcast the MST.
    net.begin_scope("sq-mst:collect");
    // Guardians route their kept edges to the coordinator. `kept` was
    // accumulated across guardians in group order; rebuild per-guardian
    // ownership for the routing step.
    let mut mst_packets = Vec::new();
    let mut per_guardian: HashMap<usize, Vec<WEdge>> = HashMap::new();
    {
        // Re-derive which guardian kept each edge from its rank group.
        let rank_of: HashMap<WEdge, u64> = ranked
            .iter()
            .flatten()
            .map(|&(k, r)| (WEdge::new(k[1] as usize, k[2] as usize, k[0]), r))
            .collect();
        for e in &kept {
            let g = (rank_of[e] as usize) / gs;
            per_guardian.entry(g).or_default().push(*e);
        }
    }
    for (g, edges) in &per_guardian {
        for e in edges {
            mst_packets.push(RoutedPacket {
                src: *g,
                dst: coordinator,
                payload: Packet::of(&[e.w, e.u as u64, e.v as u64]),
            });
        }
    }
    let collected = route(net, mst_packets)?;
    let mut mst: Vec<WEdge> = collected[coordinator]
        .iter()
        .map(|(_, pl)| WEdge::new(pl[1] as usize, pl[2] as usize, pl[0]))
        .collect();
    mst.sort();
    let mut words = Vec::with_capacity(mst.len() * 3 + 1);
    words.push(mst.len() as u64);
    for e in &mst {
        words.extend_from_slice(&[e.w, e.u as u64, e.v as u64]);
    }
    broadcast_large(net, coordinator, words.into())?;
    net.end_scope();

    Ok(mst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, mst, WGraph};
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize, seed: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(seed))
    }

    /// Distribute a graph's edges: each edge held by its smaller endpoint.
    fn instance_of(g: &WGraph, n: usize) -> SqMstInstance {
        let mut edges_by_holder = vec![Vec::new(); n];
        for e in g.edges() {
            edges_by_holder[e.u as usize].push(e);
        }
        SqMstInstance {
            vertices: (0..g.n()).collect(),
            edges_by_holder,
        }
    }

    #[test]
    fn empty_instance() {
        let inst = SqMstInstance {
            vertices: vec![0, 1, 2],
            edges_by_holder: vec![Vec::new(); 8],
        };
        let mut nt = net(8, 0);
        let out = sq_mst(&mut nt, &inst, &SqMstConfig::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_group_no_sketches_needed() {
        // m ≤ group_size ⇒ p = 1: guardian 0 does a plain Kruskal scan.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::random_connected_wgraph(12, 0.3, 100, &mut rng);
        let inst = instance_of(&g, 12);
        let mut nt = net(12, 1);
        let out = sq_mst(&mut nt, &inst, &SqMstConfig::default()).unwrap();
        assert_eq!(out, mst::kruskal(&g));
    }

    #[test]
    fn multiple_groups_exercise_guardian_sketches() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::gnp_weighted(14, 0.6, 1000, &mut rng);
        let inst = instance_of(&g, 14);
        let cfg = SqMstConfig {
            group_size: Some(g.m().div_ceil(3).max(1)), // force p = 3
            families: Some(10),
        };
        let mut nt = net(14, 2);
        let out = sq_mst(&mut nt, &inst, &cfg).unwrap();
        assert_eq!(out, mst::kruskal(&g));
    }

    #[test]
    fn disconnected_instance_yields_forest() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let base = generators::with_k_components(15, 3, 0.5, &mut rng);
        let g = generators::with_random_weights(&base, 50, &mut rng);
        let inst = instance_of(&g, 15);
        let cfg = SqMstConfig {
            group_size: Some(g.m().div_ceil(2).max(1)),
            families: Some(10),
        };
        let mut nt = net(15, 3);
        let out = sq_mst(&mut nt, &inst, &cfg).unwrap();
        assert_eq!(out, mst::kruskal(&g));
    }

    #[test]
    fn subset_vertices_with_arbitrary_holders() {
        // G' on vertices {3, 5, 8, 11} of a 12-machine clique; edges held
        // by machines that are not endpoints.
        let mut g = WGraph::new(12);
        g.add_edge(3, 5, 10);
        g.add_edge(5, 8, 4);
        g.add_edge(8, 11, 7);
        g.add_edge(3, 11, 1);
        g.add_edge(3, 8, 9);
        let mut edges_by_holder = vec![Vec::new(); 12];
        for (i, e) in g.edges().into_iter().enumerate() {
            edges_by_holder[i % 3].push(e); // holders 0,1,2 — non-endpoints
        }
        let inst = SqMstInstance {
            vertices: vec![3, 5, 8, 11],
            edges_by_holder,
        };
        let cfg = SqMstConfig {
            group_size: Some(2),
            families: Some(8),
        };
        let mut nt = net(12, 4);
        let out = sq_mst(&mut nt, &inst, &cfg).unwrap();
        assert_eq!(out, mst::kruskal(&g));
    }

    #[test]
    fn heavy_ties_resolved_consistently() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let base = generators::random_connected_graph(13, 0.4, &mut rng);
        let mut g = WGraph::new(13);
        for e in base.edges() {
            g.add_edge(e.u as usize, e.v as usize, 7); // all equal weights
        }
        let inst = instance_of(&g, 13);
        let cfg = SqMstConfig {
            group_size: Some(g.m().div_ceil(2).max(1)),
            families: Some(10),
        };
        let mut nt = net(13, 5);
        let out = sq_mst(&mut nt, &inst, &cfg).unwrap();
        assert_eq!(out, mst::kruskal(&g), "tie-break must match the reference");
    }

    #[test]
    #[should_panic(expected = "outside the vertex set")]
    fn rejects_foreign_endpoints() {
        let inst = SqMstInstance {
            vertices: vec![0, 1],
            edges_by_holder: {
                let mut v = vec![Vec::new(); 4];
                v[0].push(WEdge::new(0, 3, 1));
                v
            },
        };
        let mut nt = net(4, 0);
        let _ = sq_mst(&mut nt, &inst, &SqMstConfig::default());
    }
}
