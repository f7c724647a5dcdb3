//! Cross-crate lower-bound integration: the Section 3 adversary against
//! the links the *real* Theorem 4 algorithm used, and the Section 4
//! crossing audit applied to recorded runs.

use congested_clique::core::{gc, GcConfig, GcOutput};
use congested_clique::graph::{connectivity, Graph};
use congested_clique::lb;
use congested_clique::net::NetConfig;
use congested_clique::route::Net;
use congested_clique::trace::{Event, RecordingTracer};
use std::collections::HashSet;

/// Runs GC on `g` with a recording tracer attached; returns the output
/// and the run's event stream.
fn recorded_gc(g: &Graph, seed: u64) -> (GcOutput, Vec<Event>) {
    let mut net = Net::new(NetConfig::kt1(g.n()).with_seed(seed));
    let rec = RecordingTracer::new();
    net.set_tracer(Box::new(rec.clone()));
    let out = gc::run_on(&mut net, g, &GcConfig::default()).unwrap();
    (out, rec.take_events())
}

#[test]
fn hard_distribution_runs_through_the_real_gc() {
    use rand::SeedableRng;
    let inst = lb::hard_instance(20, 60);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    for trial in 0..6u64 {
        let (g, label) = inst.sample(&mut rng);
        let run = gc::run(&g, &NetConfig::kt1(20).with_seed(trial)).unwrap();
        assert_eq!(run.output.connected, label, "trial {trial}");
    }
}

#[test]
fn real_gc_transcript_touches_every_square() {
    let inst = lb::hard_instance(16, 48);
    let squares = lb::edge_disjoint_squares(&inst);
    assert!(!squares.is_empty());
    let (out, events) = recorded_gc(&inst.graph, 2);
    assert!(!out.connected);
    let used = lb::links_used(&events);
    assert!(
        lb::find_untouched_square(&squares, &used).is_none(),
        "a correct Θ(n²) algorithm leaves no square silent"
    );
}

#[test]
fn swapping_an_untouched_square_flips_the_answer() {
    let inst = lb::hard_instance(20, 80);
    let squares = lb::edge_disjoint_squares(&inst);
    // A profile below the square count (here: empty) is always fooled.
    let square = lb::find_untouched_square(&squares, &HashSet::new()).unwrap();
    let swapped = inst.apply_swap(&square.swap());
    assert!(!connectivity::is_connected(&inst.graph));
    assert!(connectivity::is_connected(&swapped));
    // The real algorithm distinguishes them, of course.
    let r1 = gc::run(&inst.graph, &NetConfig::kt1(20).with_seed(3)).unwrap();
    let r2 = gc::run(&swapped, &NetConfig::kt1(20).with_seed(3)).unwrap();
    assert!(!r1.output.connected);
    assert!(r2.output.connected);
}

#[test]
fn gc_crossing_audit_on_the_kt1_family() {
    // Run the *paper's* GC on G_{i,0} and G_{i,i+1}, recording both, and
    // verify the Theorem 10 crossing structure holds for it too.
    let i = 7;
    let n = 2 * i + 2;
    let mut crossed: HashSet<usize> = HashSet::new();
    for j in [0, i + 1] {
        let g = lb::g_ij(i, j);
        assert_eq!(g.n(), n);
        let (out, events) = recorded_gc(&g, 4);
        assert_eq!(out.connected, j == 0);
        crossed.extend(lb::crossed_partitions(i, &events));
    }
    assert_eq!(crossed.len(), i, "every partition crossed");
}

#[test]
fn kt1_family_solved_correctly_for_every_j() {
    let i = 5;
    let n = 2 * i + 2;
    for j in 0..=(i + 1) {
        let g = lb::g_ij(i, j);
        let run = gc::run(&g, &NetConfig::kt1(n).with_seed(j as u64)).unwrap();
        assert_eq!(run.output.connected, j == 0, "j={j}");
        let expect_components = match j {
            0 => 1,
            jj if jj == i + 1 => i + 1,
            _ => 2,
        };
        assert_eq!(run.output.component_count, expect_components);
    }
}
