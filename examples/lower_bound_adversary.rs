//! Scenario: play the Section 3 lower-bound adversary.
//!
//! Build the KT0 hard instance `G = G_U ∪ G_V`, extract its `Ω(m)`
//! edge-disjoint squares, and show the two sides of Theorem 9:
//!
//! * a *sub-quadratic* communication profile (here: a star) always leaves
//!   a square untouched, and swapping that square produces a *connected*
//!   graph the profile cannot distinguish from the disconnected `G`;
//! * the paper's own GC algorithm (Theorem 4) touches every square — its
//!   `Θ(n²)` messages are the price of correctness in KT0.
//!
//! Also audits the Section 4 KT1 family: a concrete `GC(u₀,v₀)` protocol
//! must cross every `{u_j, v_j}` partition across its runs on `G_{i,0}`
//! and `G_{i,i+1}` — the `Ω(n)` message bound in action.
//!
//! ```text
//! cargo run --release --example lower_bound_adversary
//! ```

use congested_clique::core::{gc, GcConfig};
use congested_clique::graph::connectivity;
use congested_clique::lb;
use congested_clique::net::NetConfig;
use congested_clique::route::Net;
use congested_clique::trace::RecordingTracer;
use std::collections::HashSet;

fn main() {
    // ---- Section 3: the KT0 Ω(n²) adversary.
    let (n, m) = (24usize, 96usize);
    let inst = lb::hard_instance(n, m);
    lb::validate_instance(&inst).expect("construction invariants");
    let squares = lb::edge_disjoint_squares(&inst);
    println!("hard instance: n = {n}, m = {m}");
    println!(
        "edge-disjoint squares: {} (≥ m/6 = {:.1})",
        squares.len(),
        m as f64 / 6.0
    );

    // A cheap star profile: everyone only ever talks to node 0.
    let star: HashSet<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    let square =
        lb::find_untouched_square(&squares, &star).expect("pigeonhole: fewer links than squares");
    let swapped = inst.apply_swap(&square.swap());
    println!(
        "star profile ({} links) leaves square {:?} untouched",
        star.len(),
        square.u_edge
    );
    println!(
        "  G is {}connected; the swap is {}connected — indistinguishable to the profile!",
        if connectivity::is_connected(&inst.graph) {
            ""
        } else {
            "dis"
        },
        if connectivity::is_connected(&swapped) {
            ""
        } else {
            "dis"
        },
    );
    assert!(!connectivity::is_connected(&inst.graph));
    assert!(connectivity::is_connected(&swapped));

    // The real algorithm's recorded message batches touch every square.
    let mut net = Net::new(NetConfig::kt1(n).with_seed(5));
    let rec = RecordingTracer::new();
    net.set_tracer(Box::new(rec.clone()));
    let out = gc::run_on(&mut net, &inst.graph, &GcConfig::default()).expect("simulation failed");
    assert!(!out.connected);
    let used = lb::links_used(&rec.take_events());
    println!(
        "Theorem 4 GC used {} distinct links ({} messages) — untouched square: {:?}",
        used.len(),
        net.cost().messages,
        lb::find_untouched_square(&squares, &used).map(|s| s.u_edge)
    );

    // ---- Section 4: the KT1 Ω(n) crossing audit.
    let i = 12;
    let r0 = lb::run_report_protocol(&lb::g_ij(i, 0), 1).expect("run");
    let r1 = lb::run_report_protocol(&lb::g_ij(i, i + 1), 1).expect("run");
    let crossed: HashSet<usize> = lb::crossed_partitions(i, &r0.events)
        .union(&lb::crossed_partitions(i, &r1.events))
        .copied()
        .collect();
    println!(
        "\nKT1 family (i = {i}, n = {}): GC(u0,v0) on G_i0 ({} msgs, answer {}) and G_i,i+1 ({} msgs, answer {})",
        2 * i + 2,
        r0.messages,
        r0.connected,
        r1.messages,
        r1.connected
    );
    println!(
        "partitions crossed across both runs: {}/{} (Theorem 10 requires all of them)",
        crossed.len(),
        i
    );
    assert_eq!(crossed.len(), i);
    assert!(r0.messages + r1.messages >= (i as u64) / 2);
    println!("Ω(n) crossing structure verified ✓");
}
