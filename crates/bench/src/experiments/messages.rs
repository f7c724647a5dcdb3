//! Message-complexity experiments: E6 (Theorems 8–9), E7 (Theorem 10 /
//! Figure 1), E8 (Theorem 13), E11 (the Section 4 time-encoding protocol).

use crate::table::{f, Table};
use cc_core::{exact_mst, gc, kt1_mst, time_encoding, ExactMstConfig, GcConfig, Kt1MstConfig};
use cc_graph::generators;
use cc_lb::{edge_disjoint_squares, find_untouched_square, hard_instance, links_used};
use cc_net::NetConfig;
use cc_route::Net;
use cc_trace::RecordingTracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// E6 — the KT0 `Ω(n²)` engine: edge-disjoint square counts vs `m`, the
/// adversary on sub-quadratic link usage, and the measured message count
/// of the GC algorithm under the KT0 bootstrap (ID broadcast + Theorem 4).
pub fn e6_kt0(quick: bool) -> Table {
    let cases: &[(usize, usize)] = if quick {
        &[(16, 40), (24, 96)]
    } else {
        &[(16, 40), (24, 96), (32, 160), (48, 360), (64, 640)]
    };
    let mut t = Table::new(
        "E6",
        "Thms 8-9: edge-disjoint squares >= m/6 (the Omega(m) engine); GC under KT0 uses >= n(n-1) messages",
        &[
            "n",
            "m",
            "squares",
            "m/6",
            "adversary_wins_vs_star",
            "gc_kt0_messages",
            "n(n-1)",
        ],
    );
    for &(n, m) in cases {
        let inst = hard_instance(n, m);
        cc_lb::validate_instance(&inst).expect("valid hard instance");
        let squares = edge_disjoint_squares(&inst);
        // Adversary vs a star-shaped (sub-quadratic) link usage: every node
        // talks only to node 0 — n-1 links, far below the square count.
        let star: HashSet<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        let fooled = find_untouched_square(&squares, &star).is_some();
        // GC on the hard instance under KT0: the run now *includes* the
        // metered ID-broadcast bootstrap (n(n−1) messages on its own).
        let run = gc::run(&inst.graph, &NetConfig::kt0(n).with_seed(n as u64)).expect("gc");
        assert!(!run.output.connected, "the base graph is disconnected");
        let bootstrap = (n * (n - 1)) as u64;
        let total = run.cost.messages;
        assert!(total >= bootstrap);
        t.push_row(vec![
            n.to_string(),
            m.to_string(),
            squares.len().to_string(),
            f(m as f64 / 6.0),
            fooled.to_string(),
            total.to_string(),
            bootstrap.to_string(),
        ]);
    }
    t
}

/// E7 — the KT1 `Ω(n)` family: the concrete `GC(u₀,v₀)` protocol's
/// message counts and partition-crossing profile on `G_{i,0}` and
/// `G_{i,i+1}`.
pub fn e7_kt1_family(quick: bool) -> Table {
    let is: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let mut t = Table::new(
        "E7",
        "Thm 10 / Fig 1: messages and crossed partitions of a GC(u0,v0) protocol on G_{i,0} and G_{i,i+1}",
        &[
            "i",
            "n",
            "msgs_Gi0",
            "msgs_Gii1",
            "crossed_union",
            "all_i_partitions",
            "bound (n-2)/4",
        ],
    );
    for &i in is {
        let n = 2 * i + 2;
        let r0 = cc_lb::run_report_protocol(&cc_lb::g_ij(i, 0), 3).expect("run");
        assert!(r0.connected);
        let r1 = cc_lb::run_report_protocol(&cc_lb::g_ij(i, i + 1), 3).expect("run");
        assert!(!r1.connected);
        let crossed: HashSet<usize> = cc_lb::crossed_partitions(i, &r0.events)
            .union(&cc_lb::crossed_partitions(i, &r1.events))
            .copied()
            .collect();
        t.push_row(vec![
            i.to_string(),
            n.to_string(),
            r0.messages.to_string(),
            r1.messages.to_string(),
            crossed.len().to_string(),
            i.to_string(),
            f((n as f64 - 2.0) / 4.0),
        ]);
    }
    t
}

/// E8 — Theorem 13: KT1 sketch-Borůvka MST message counts vs `n log⁵ n`,
/// against EXACT-MST's `Θ(n²)`.
pub fn e8_kt1_mst(quick: bool) -> Table {
    let ns: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut t = Table::new(
        "E8",
        "Thm 13: KT1 MST messages/rounds vs n log^5 n, against EXACT-MST's Theta(n^2) messages",
        &[
            "n",
            "kt1_messages",
            "n log^5 n",
            "kt1_rounds",
            "log^5 n",
            "exact_mst_messages",
            "n^2",
        ],
    );
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(17 + n as u64);
        let g = generators::random_connected_wgraph(n, 3.0 / n as f64, 1 << 20, &mut rng);
        let mut net = Net::new(NetConfig::kt1(n).with_seed(n as u64));
        let run = kt1_mst::kt1_mst(&mut net, &g, &Kt1MstConfig::default()).expect("kt1 mst");
        assert!(run.complete);
        let mut net2 = Net::new(NetConfig::kt1(n).with_seed(n as u64));
        let ex = exact_mst::exact_mst(&mut net2, &g, &ExactMstConfig::default()).expect("exact");
        assert_eq!(run.mst, ex.mst);
        let lg = (n as f64).log2();
        t.push_row(vec![
            n.to_string(),
            run.cost.messages.to_string(),
            f(n as f64 * lg.powi(5)),
            run.cost.rounds.to_string(),
            f(lg.powi(5)),
            ex.cost.messages.to_string(),
            (n * n).to_string(),
        ]);
    }
    t
}

/// E11 — the time-encoding protocol: `2(n−1)` messages, `Θ(n·2ⁿ)` rounds.
pub fn e11_time_encoding(quick: bool) -> Table {
    let ns: &[usize] = if quick {
        &[8, 10]
    } else {
        &[8, 10, 12, 14, 16]
    };
    let mut t = Table::new(
        "E11",
        "Sec. 4: the O(n)-bit time-encoding protocol — linear messages, super-polynomial rounds",
        &["n", "messages", "2(n-1)", "rounds", "2^n"],
    );
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = generators::random_connected_graph(n, 0.3, &mut rng);
        let mut net = Net::new(NetConfig::kt1(n).with_seed(1));
        let run = time_encoding::time_encoding_gc(&mut net, &g).expect("time encoding");
        assert!(run.connected);
        t.push_row(vec![
            n.to_string(),
            run.cost.messages.to_string(),
            (2 * (n - 1)).to_string(),
            run.cost.rounds.to_string(),
            (1u64 << n).to_string(),
        ]);
    }
    t
}

/// Auxiliary audit for E6 (table E6b): the links of a full GC run's
/// recorded message batches on a small hard instance touch (nearly) every
/// clique link, which is exactly why the adversary cannot fool it — while
/// a sub-quadratic star profile is fooled.
pub fn e6b_link_audit() -> Table {
    let (n, m) = (16usize, 40usize);
    let inst = hard_instance(n, m);
    let squares = edge_disjoint_squares(&inst);
    let mut net = Net::new(NetConfig::kt1(n).with_seed(3));
    let rec = RecordingTracer::new();
    net.set_tracer(Box::new(rec.clone()));
    let out = gc::run_on(&mut net, &inst.graph, &GcConfig::default()).expect("gc");
    assert!(!out.connected);
    let used = links_used(&rec.take_events());
    let untouched = find_untouched_square(&squares, &used);
    let mut t = Table::new(
        "E6b",
        "Adversary audit: the Theta(n^2)-message GC leaves no square untouched; a star profile does",
        &["profile", "links_used", "squares", "untouched_square_found"],
    );
    t.push_row(vec![
        "gc(theorem 4)".into(),
        used.len().to_string(),
        squares.len().to_string(),
        untouched.is_some().to_string(),
    ]);
    let star: HashSet<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    t.push_row(vec![
        "star (n-1 links)".into(),
        star.len().to_string(),
        squares.len().to_string(),
        find_untouched_square(&squares, &star).is_some().to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_squares_meet_bound_and_star_is_fooled() {
        let t = e6_kt0(true);
        for row in &t.rows {
            let squares: f64 = row[2].parse().unwrap();
            let bound: f64 = row[3].parse().unwrap();
            assert!(squares >= bound, "{squares} < {bound}");
            assert_eq!(row[4], "true", "star profile must be fooled");
        }
    }

    #[test]
    fn e7_all_partitions_crossed() {
        let t = e7_kt1_family(true);
        for row in &t.rows {
            assert_eq!(row[4], row[5], "crossed == i");
        }
    }

    #[test]
    fn e8_kt1_messages_below_bound() {
        let t = e8_kt1_mst(true);
        let msgs = t.column_f64("kt1_messages");
        let bounds = t.column_f64("n log^5 n");
        for (m, b) in msgs.iter().zip(&bounds) {
            assert!(m <= b, "{m} > {b}");
        }
    }

    #[test]
    fn e11_linear_messages() {
        let t = e11_time_encoding(true);
        for row in &t.rows {
            assert_eq!(row[1], row[2], "messages must be exactly 2(n-1)");
        }
    }

    #[test]
    fn e6b_audit_contrast() {
        let t = e6b_link_audit();
        assert_eq!(t.rows[0][3], "false", "full GC leaves no square");
        assert_eq!(t.rows[1][3], "true", "star profile is fooled");
    }
}
