//! A guided tour: one tiny instance of every result in the paper, in the
//! order the paper presents them. Each stop prints the claim, the run, and
//! the check. (The `paper` module of the crate docs is the map; this is
//! the ride.)
//!
//! ```text
//! cargo run --release --example paper_tour
//! ```

use congested_clique::core::{
    bipartiteness::bipartiteness, exact_mst, gc, kecc::k_edge_connectivity, kt1_mst,
    time_encoding::time_encoding_gc, ExactMstConfig, GcConfig, Kt1MstConfig,
};
use congested_clique::graph::{connectivity, generators, mst};
use congested_clique::lb;
use congested_clique::net::{NetConfig, PortMap};
use congested_clique::route::Net;
use congested_clique::sketch::{EdgeSample, GraphSketchSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

fn stop(title: &str) {
    println!("\n── {title} ──");
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2015); // the year of the paper

    stop("§2.1, Theorem 1 — linear sketches cancel internal edges");
    let space = GraphSketchSpace::new(4, 1);
    let mut comp = space.sketch_neighborhood(0, [1, 2]);
    comp.add_assign_sketch(&space.sketch_neighborhood(1, [0, 2]));
    comp.add_assign_sketch(&space.sketch_neighborhood(2, [0, 1, 3]));
    println!(
        "triangle {{0,1,2}} + cut edge {{2,3}} → sample: {:?}",
        space.sample_edge(&comp)
    );
    assert_eq!(space.sample_edge(&comp), EdgeSample::Edge(2, 3));

    stop("§2.2, Theorem 4 — GC in O(log log log n) rounds");
    let g = generators::random_connected_graph(64, 0.06, &mut rng);
    let run = gc::run(&g, &NetConfig::kt1(64).with_seed(1)).unwrap();
    println!(
        "n=64: connected={} in {} rounds ({} messages)",
        run.output.connected, run.cost.rounds, run.cost.messages
    );
    assert!(run.output.connected);

    stop("§2.3, Theorem 7 — EXACT-MST");
    let gw = generators::complete_wgraph(24, &mut rng);
    let mut net = Net::new(NetConfig::kt1(24).with_seed(2));
    let m = exact_mst(&mut net, &gw, &ExactMstConfig::default()).unwrap();
    println!(
        "24-clique MST: {} edges in {} rounds — matches Kruskal: {}",
        m.mst.len(),
        m.cost.rounds,
        m.mst == mst::kruskal(&gw)
    );
    assert_eq!(m.mst, mst::kruskal(&gw));

    stop("Remark 5 — bipartiteness & k-edge-connectivity");
    let bip = bipartiteness(
        &generators::cycle(12),
        &NetConfig::kt1(12).with_seed(3),
        &GcConfig::default(),
    )
    .unwrap();
    let kecc = k_edge_connectivity(
        &generators::cycle(12),
        2,
        &NetConfig::kt1(12).with_seed(4),
        &GcConfig::default(),
    )
    .unwrap();
    println!(
        "C12: bipartite={}, 2-edge-connected={}",
        bip.bipartite, kecc.k_edge_connected
    );
    assert!(bip.bipartite && kecc.k_edge_connected);

    stop("§3, Theorems 8–9 — the KT0 Ω(n²) adversary");
    let inst = lb::hard_instance(16, 48);
    let squares = lb::edge_disjoint_squares(&inst);
    let sq = &squares[0];
    let ports = PortMap::new(16, 5);
    let mut probes: HashSet<(usize, usize)> = (0..16)
        .flat_map(|a| ((a + 1)..16).map(move |b| (a, b)))
        .collect();
    for l in sq.links() {
        probes.remove(&l);
    }
    let (before, after) = lb::views_identical_after_swap(&inst, sq, &ports, &probes);
    println!(
        "{} edge-disjoint squares; silent-square port views identical: {} (yet one input is connected, the other is not)",
        squares.len(),
        before == after
    );
    assert_eq!(before, after);

    stop("§4, Theorem 10 / Figure 1 — the Ω(n) crossing structure");
    let i = 6;
    let r0 = lb::run_report_protocol(&lb::g_ij(i, 0), 1).unwrap();
    let r1 = lb::run_report_protocol(&lb::g_ij(i, i + 1), 1).unwrap();
    let crossed: HashSet<usize> = lb::crossed_partitions(i, &r0.events)
        .union(&lb::crossed_partitions(i, &r1.events))
        .copied()
        .collect();
    println!(
        "G_{{6,·}}: {}/{} partitions crossed over both runs",
        crossed.len(),
        i
    );
    assert_eq!(crossed.len(), i);

    stop("§4 opening — the O(n)-bit time-encoding protocol");
    let gte = generators::cycle(10);
    let mut tnet = Net::new(NetConfig::kt1(10).with_seed(6));
    let te = time_encoding_gc(&mut tnet, &gte).unwrap();
    println!(
        "{} messages, {} rounds (2^n = {})",
        te.cost.messages,
        te.cost.rounds,
        1 << 10
    );
    assert_eq!(te.cost.messages, 18);

    stop("§4.2, Theorem 13 — MST with O(n polylog n) messages");
    let gs = generators::random_connected_wgraph(32, 0.12, 1000, &mut rng);
    let mut knet = Net::new(NetConfig::kt1(32).with_seed(7));
    let k = kt1_mst(&mut knet, &gs, &Kt1MstConfig::default()).unwrap();
    println!(
        "n=32 sparse: MST in {} messages / {} rounds — matches Kruskal: {}",
        k.cost.messages,
        k.cost.rounds,
        k.mst == mst::kruskal(&gs)
    );
    assert_eq!(k.mst, mst::kruskal(&gs));

    // Sanity: the graph-side references agree everywhere we claimed.
    assert!(connectivity::is_connected(&g));
    println!("\ntour complete — every stop checked ✓");
}
