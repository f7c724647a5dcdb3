//! Scenario: minimum-cost spanning backbone of a fully meshed data-center
//! fabric — the native input of EXACT-MST (Algorithm 3 / Theorem 7): an
//! edge-weighted clique where link costs mix distance and load.
//!
//! The example runs the paper-default pipeline and a phase-limited variant
//! that forces the KKT-sampling + SQ-MST machinery, verifies both against
//! Kruskal, and prints the default run's phase-tree profile (folded from
//! its recorded event stream).
//!
//! ```text
//! cargo run --release --example datacenter_mst
//! ```

use congested_clique::core::{exact_mst, ExactMstConfig};
use congested_clique::graph::{mst, WGraph};
use congested_clique::net::NetConfig;
use congested_clique::profile::{profile_table, Profile};
use congested_clique::route::Net;
use congested_clique::trace::RecordingTracer;

/// Synthetic fabric: racks on a 2-D floor grid; link cost = Manhattan
/// distance × congestion factor (deterministic, so runs are reproducible).
fn fabric(n: usize) -> WGraph {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut g = WGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let (ax, ay) = (a % side, a / side);
            let (bx, by) = (b % side, b / side);
            let dist = ax.abs_diff(bx) + ay.abs_diff(by);
            let congestion = 1 + (a * 7 + b * 13) % 5;
            g.add_edge(a, b, (dist * congestion + 1) as u64);
        }
    }
    g
}

fn main() {
    let n = 48;
    let g = fabric(n);
    println!("fabric: n = {n} racks, {} candidate links", g.m());
    let reference = mst::kruskal(&g);
    let ref_cost = WGraph::total_weight(&reference);
    println!("reference backbone cost (Kruskal): {ref_cost}");

    // Paper-default run.
    let mut net = Net::new(NetConfig::kt1(n).with_seed(1));
    let rec = RecordingTracer::new();
    net.set_tracer(Box::new(rec.clone()));
    let run = exact_mst(&mut net, &g, &ExactMstConfig::default()).expect("simulation failed");
    println!(
        "EXACT-MST (default {} Lotker phases): cost {}, {}",
        run.phases,
        WGraph::total_weight(&run.mst),
        run.cost
    );
    assert_eq!(WGraph::total_weight(&run.mst), ref_cost);
    print!(
        "{}",
        profile_table(&Profile::from_events(&rec.take_events()))
    );

    // Force the sampling pipeline with a single preprocessing phase.
    let forced = ExactMstConfig {
        phases: Some(1),
        families: Some(10),
        ..Default::default()
    };
    let mut net2 = Net::new(NetConfig::kt1(n).with_seed(2));
    let run2 = exact_mst(&mut net2, &g, &forced).expect("simulation failed");
    println!(
        "EXACT-MST (1 phase, KKT + SQ-MST): cost {}, {}",
        WGraph::total_weight(&run2.mst),
        run2.cost
    );
    assert_eq!(WGraph::total_weight(&run2.mst), ref_cost);

    println!("backbone verified optimal on both paths ✓");
}
