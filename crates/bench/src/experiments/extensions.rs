//! Extension experiments: E10 (Remark 5 — bipartiteness and
//! k-edge-connectivity) and F1 (the Figure 1 structure printout).

use crate::table::Table;
use cc_core::bipartiteness::bipartiteness;
use cc_core::broadcast_gc::broadcast_gc;
use cc_core::kecc::{k_edge_connectivity, k_edge_connectivity_sketch};
use cc_core::{gc, GcConfig};
use cc_graph::{connectivity, generators};
use cc_lb::g_ij;
use cc_net::NetConfig;
use cc_route::Net;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// E10a — bipartiteness via the double cover: correctness + rounds vs `n`.
pub fn e10_bipartiteness(quick: bool) -> Table {
    let ns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let mut t = Table::new(
        "E10a",
        "Remark 5: bipartiteness via GC on the double cover — rounds vs n, checked against BFS",
        &[
            "n",
            "bipartite_input",
            "verdict",
            "rounds",
            "nonbip_verdict",
            "nonbip_rounds",
        ],
    );
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(23 + n as u64);
        let bip = generators::planted_bipartite(n, 0.3, &mut rng);
        let rb = bipartiteness(
            &bip,
            &NetConfig::kt1(n).with_seed(n as u64),
            &GcConfig::default(),
        )
        .expect("bipartiteness");
        assert_eq!(rb.bipartite, connectivity::is_bipartite(&bip));
        let odd_n = if n % 2 == 0 { n - 1 } else { n };
        let odd_full = {
            let o = generators::odd_cycle_plus(odd_n, 0.05, &mut rng);
            // Pad to n vertices so the net size matches.
            let mut g = cc_graph::Graph::new(n);
            for e in o.edges() {
                g.add_edge(e.u as usize, e.v as usize);
            }
            g
        };
        let ro = bipartiteness(
            &odd_full,
            &NetConfig::kt1(n).with_seed(n as u64 + 1),
            &GcConfig::default(),
        )
        .expect("bipartiteness");
        assert_eq!(ro.bipartite, connectivity::is_bipartite(&odd_full));
        t.push_row(vec![
            n.to_string(),
            "planted".into(),
            rb.bipartite.to_string(),
            rb.cost.rounds.to_string(),
            ro.bipartite.to_string(),
            ro.cost.rounds.to_string(),
        ]);
    }
    t
}

/// E10b — k-edge-connectivity: the peeling variant's rounds scale with
/// `k` (k GC runs); the one-shot sketch-shipment variant's do not (at the
/// wide bandwidth its volume calls for).
pub fn e10_kecc(quick: bool) -> Table {
    let n: usize = if quick { 17 } else { 33 };
    let mut t = Table::new(
        "E10b",
        "Remark 5: k-edge-connectivity — peeling (k GC runs) vs one-shot sketch shipment (wide links)",
        &["k", "verdict", "certificate_lambda", "peel_rounds", "oneshot_rounds"],
    );
    // Circulant with offsets {1,2,3}: 6-edge-connected.
    let g = generators::circulant(n, &[1, 2, 3]);
    let lambda = connectivity::edge_connectivity(&g);
    let wide = NetConfig::kt1(n).with_link_words(NetConfig::polylog_bandwidth(n));
    for k in 1..=(if quick { 4 } else { 8 }) {
        let run = k_edge_connectivity(
            &g,
            k,
            &NetConfig::kt1(n).with_seed(k as u64),
            &GcConfig::default(),
        )
        .expect("kecc");
        assert_eq!(run.k_edge_connected, lambda >= k, "k={k}");
        let one =
            k_edge_connectivity_sketch(&g, k, &wide.clone().with_seed(90 + k as u64), Some(8))
                .expect("kecc one-shot");
        assert_eq!(one.k_edge_connected, run.k_edge_connected, "k={k}");
        t.push_row(vec![
            k.to_string(),
            run.k_edge_connected.to_string(),
            run.certificate_lambda.to_string(),
            run.cost.rounds.to_string(),
            one.cost.rounds.to_string(),
        ]);
    }
    t
}

/// E14 — the broadcast variant (footnote 1): label-propagation GC pays the
/// diameter; Theorem 4's unicast GC does not.
pub fn e14_broadcast_model(quick: bool) -> Table {
    let n: usize = if quick { 48 } else { 128 };
    let mut t = Table::new(
        "E14",
        "Footnote 1: broadcast-model GC rounds track the diameter; unicast Thm 4 GC does not",
        &["input", "diameter", "broadcast_rounds", "thm4_rounds"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let cases: Vec<(&str, cc_graph::Graph)> = vec![
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n)),
        ("star", generators::star(n)),
        (
            "gnp-sparse",
            generators::random_connected_graph(n, 3.0 / n as f64, &mut rng),
        ),
    ];
    for (name, g) in cases {
        let mut bnet = Net::new(NetConfig::kt1(n).with_seed(7).broadcast_only());
        let b = broadcast_gc(&mut bnet, &g).expect("broadcast gc");
        assert!(b.connected);
        let u = gc::run(&g, &NetConfig::kt1(n).with_seed(7)).expect("gc");
        let d = cc_graph::stats::diameter(&g).unwrap();
        t.push_row(vec![
            name.to_string(),
            d.to_string(),
            bnet.cost().rounds.to_string(),
            u.cost.rounds.to_string(),
        ]);
    }
    t
}

/// F1 — the Figure 1 graph `G_{i,0}`: structure audit across the whole
/// `G_{i,j}` family.
pub fn f1_figure1(quick: bool) -> Table {
    let i: usize = if quick { 6 } else { 10 };
    let mut t = Table::new(
        "F1",
        "Figure 1: the G_{i,j} family — edges, degrees and components per j",
        &["j", "edges", "deg(v0)", "deg(u0)", "components"],
    );
    for j in 0..=(i + 1) {
        let g = g_ij(i, j);
        t.push_row(vec![
            j.to_string(),
            g.m().to_string(),
            g.degree(cc_lb::kt1::v(i, 0)).to_string(),
            g.degree(cc_lb::kt1::u(i, 0)).to_string(),
            connectivity::component_count(&g).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10a_verdicts() {
        let t = e10_bipartiteness(true);
        for row in &t.rows {
            assert_eq!(row[2], "true");
            assert_eq!(row[4], "false");
        }
    }

    #[test]
    fn e10b_lambda_caps_at_6() {
        let t = e10_kecc(true);
        for row in &t.rows {
            let k: usize = row[0].parse().unwrap();
            assert_eq!(row[1] == "true", k <= 6);
        }
    }

    #[test]
    fn f1_component_progression() {
        let t = f1_figure1(true);
        // j = 0 → 1 component; j in 1..=i → 2; j = i+1 → i+1.
        assert_eq!(t.rows[0][4], "1");
        assert_eq!(t.rows[1][4], "2");
        assert_eq!(t.rows.last().unwrap()[4], "7");
    }
}

#[cfg(test)]
mod broadcast_tests {
    #[test]
    fn e14_diameter_tracking() {
        let t = super::e14_broadcast_model(true);
        // On the path, broadcast rounds ≈ diameter ≫ Thm 4 rounds; on the
        // star, broadcast is near-constant.
        let d = t.column_f64("diameter");
        let b = t.column_f64("broadcast_rounds");
        assert!(b[0] >= d[0], "path: rounds below diameter is impossible");
        assert!(b[2] <= 12.0, "star must stabilize in O(1) rounds");
    }
}
