//! Scenario: the same protocol on both execution engines. A flood/echo
//! spanning-tree construction and the sketch-based connectivity phase run
//! on the serial reference backend and the parallel engine; the model's
//! determinism contract says the outputs and metered costs must be
//! identical, so the example checks and prints both. It then prices the
//! flood on 4 machines: a k-machine mapping changes no logical step, so
//! its machine rounds are a fold over the run's traced sends.
//!
//! ```text
//! cargo run --release --example runtime_backends
//! cargo run --release --example runtime_backends -- cap   # round-cap error path
//! ```

use congested_clique::core::run_connectivity;
use congested_clique::graph::generators;
use congested_clique::lens::LedgerTracer;
use congested_clique::model::ModelSpec;
use congested_clique::net::NetConfig;
use congested_clique::runtime::program::examples::FloodEcho;
use congested_clique::runtime::Runtime;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn adjacency(n: usize, p: f64, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::gnp(n, p, &mut rng).adjacency_lists()
}

fn flood_programs(adj: &[Vec<usize>]) -> Vec<FloodEcho> {
    adj.iter()
        .enumerate()
        .map(|(v, nb)| FloodEcho::new(nb.clone(), v == 0))
        .collect()
}

fn main() {
    let n = 96;
    let adj = adjacency(n, 0.06, 11);
    let cfg = NetConfig::kt1(n).with_seed(7);

    if std::env::args().nth(1).as_deref() == Some("cap") {
        // Error-path demo: a cap far below what the flood needs must
        // surface as RoundCapExceeded, identically on both backends.
        let mut serial = Runtime::serial(cfg.clone());
        let mut parallel = Runtime::parallel(cfg);
        let s = serial.run(flood_programs(&adj), 2).unwrap_err();
        let p = parallel.run(flood_programs(&adj), 2).unwrap_err();
        println!("serial   error: {s}");
        println!("parallel error: {p}");
        assert_eq!(s, p, "backends must fail identically");
        return;
    }

    // Flood/echo from node 0: every reached node reports its BFS parent
    // and subtree size back up the tree.
    let mut serial = Runtime::serial(cfg.clone());
    let out_s = serial.run(flood_programs(&adj), 10_000).unwrap();
    let mut parallel = Runtime::parallel(cfg.clone());
    let out_p = parallel.run(flood_programs(&adj), 10_000).unwrap();

    let reached = out_s.iter().filter(|p| p.reached()).count();
    println!("flood/echo on G(n={n}, p=0.06): {reached}/{n} nodes reached");
    println!(
        "  serial   ({}): {:?}",
        serial.backend_name(),
        serial.cost()
    );
    println!(
        "  parallel ({}×{} threads): {:?}",
        parallel.backend_name(),
        parallel.backend().threads(),
        parallel.cost()
    );
    let same = out_s
        .iter()
        .zip(&out_p)
        .all(|(a, b)| (a.parent, a.subtree, a.reached()) == (b.parent, b.subtree, b.reached()));
    assert!(same, "per-node outputs must be identical");
    assert_eq!(serial.cost(), parallel.cost(), "costs must be identical");
    println!("  outputs and costs identical: yes");

    // The same flood on 4 machines: run it serially under the mapping
    // and fold the traced sends into machine-level accounting.
    let spec = ModelSpec::clique().kmachine(4);
    let fold = LedgerTracer::new(n, &spec).unwrap();
    let mut mapped = Runtime::serial(cfg.clone().with_model(&spec));
    mapped.set_tracer(Box::new(fold.clone()));
    mapped.run(flood_programs(&adj), 10_000).unwrap();
    assert_eq!(
        mapped.cost(),
        serial.cost(),
        "a mapping changes no logical cost"
    );
    drop(mapped);
    let machine = fold.finish().unwrap().machine_stats();
    println!(
        "  on 4 machines: {} machine rounds for {} logical, {} remote / {} local words",
        machine.machine_rounds, machine.logical_rounds, machine.remote_words, machine.local_words
    );

    // Sketch-based connectivity as a runtime program (cc-core port).
    let mut serial = Runtime::serial(cfg.clone());
    let gc_s = run_connectivity(&mut serial, &adj, None, 200_000).unwrap();
    let mut parallel = Runtime::parallel(cfg);
    let gc_p = run_connectivity(&mut parallel, &adj, None, 200_000).unwrap();
    println!(
        "sketch connectivity: {} components, connected = {}",
        gc_s.component_count, gc_s.connected
    );
    println!("  serial   cost: {:?}", serial.cost());
    println!("  parallel cost: {:?}", parallel.cost());
    assert_eq!(gc_s.labels, gc_p.labels, "labels must be identical");
    assert_eq!(serial.cost(), parallel.cost(), "costs must be identical");
    println!("  labels and costs identical: yes");
}
