//! Acceptance tests for `cc-profile` against real simulator runs:
//!
//! * the model half of a profile is identical for the same run on the
//!   serial and parallel runtime backends (timing may differ);
//! * `diff_events` pinpoints the first diverging model event between two
//!   deliberately different runs, including through a JSONL round trip
//!   (the `trace_report diff` path);
//! * the Chrome trace export of a recorded run is well-formed: begin/end
//!   balanced, phases nested, and model-derived entries carry no
//!   wall-clock fields.

use congested_clique::core::{gc, run_connectivity, GcConfig};
use congested_clique::graph::{generators, Graph};
use congested_clique::lens::CommLedger;
use congested_clique::model::ModelSpec;
use congested_clique::net::NetConfig;
use congested_clique::profile::{diff_events, Profile};
use congested_clique::route::Net;
use congested_clique::runtime::Runtime;
use congested_clique::trace::export::{events_from_jsonl, to_chrome_trace, to_jsonl};
use congested_clique::trace::{Event, Json, RecordingTracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const MAX_ROUNDS: u64 = 200_000;

fn adjacency(g: &Graph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.n()];
    for e in g.edges() {
        adj[e.u as usize].push(e.v as usize);
        adj[e.v as usize].push(e.u as usize);
    }
    adj
}

fn traced_connectivity_run(parallel: bool, adj: &[Vec<usize>], seed: u64) -> Vec<Event> {
    let cfg = NetConfig::kt1(adj.len()).with_seed(seed);
    let rec = RecordingTracer::new();
    if parallel {
        let mut rt = Runtime::parallel_with_threads(cfg, 4);
        rt.set_tracer(Box::new(rec.clone()));
        run_connectivity(&mut rt, adj, None, MAX_ROUNDS).expect("parallel run");
    } else {
        let mut rt = Runtime::serial(cfg);
        rt.set_tracer(Box::new(rec.clone()));
        run_connectivity(&mut rt, adj, None, MAX_ROUNDS).expect("serial run");
    }
    rec.events()
}

#[test]
fn backend_choice_never_changes_the_model_profile() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = generators::random_connected_graph(24, 0.2, &mut rng);
    let adj = adjacency(&g);

    let serial = traced_connectivity_run(false, &adj, 7);
    let parallel = traced_connectivity_run(true, &adj, 7);

    let ps = Profile::from_events(&serial);
    let pp = Profile::from_events(&parallel);
    assert!(ps.rounds > 0 && ps.messages > 0, "profile saw the run");
    assert_eq!(
        ps.model_view(),
        pp.model_view(),
        "model half of the profile must not depend on the engine"
    );
    // The runs really were timed (both engines emit round walls), and the
    // timing side is allowed to differ.
    assert!(ps.round_wall.count > 0 && pp.round_wall.count > 0);
    // And diffing the two traces confirms stream-level model equality.
    assert!(diff_events(&serial, &parallel).model_identical());
}

fn traced_gc_run(g: &Graph, seed: u64) -> Vec<Event> {
    let rec = RecordingTracer::new();
    let mut net = Net::new(NetConfig::kt1(g.n()).with_seed(seed));
    net.set_tracer(Box::new(rec.clone()));
    gc::run_on(&mut net, g, &GcConfig::default()).expect("gc run");
    rec.events()
}

#[test]
fn diff_pinpoints_the_first_divergence_between_different_runs() {
    // Same n, same seed, different topology: the sketch-merge traffic of
    // GC phase 2 is data-dependent, so the model streams must fork at a
    // concrete event.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g1 = generators::random_connected_graph(16, 0.25, &mut rng);
    let g2 = generators::with_k_components(16, 2, 0.5, &mut rng);
    let a = traced_gc_run(&g1, 3);
    let b = traced_gc_run(&g2, 3);

    let d = diff_events(&a, &b);
    let div = d.first_divergence.as_ref().expect("runs must diverge");
    assert!(
        div.round().is_some(),
        "divergence is located at a concrete round"
    );
    assert!(div.a.is_some() && div.b.is_some());
    // Everything before the divergence index really is identical.
    let model_a: Vec<&Event> = a.iter().filter(|e| e.is_model()).collect();
    let model_b: Vec<&Event> = b.iter().filter(|e| e.is_model()).collect();
    assert_eq!(model_a[..div.index], model_b[..div.index]);
    assert_ne!(model_a.get(div.index), model_b.get(div.index));

    // The CLI path: JSONL out, parse back, diff the reloaded streams.
    let a2 = events_from_jsonl(&to_jsonl(&a)).expect("jsonl round trip A");
    let b2 = events_from_jsonl(&to_jsonl(&b)).expect("jsonl round trip B");
    assert_eq!(a, a2);
    assert_eq!(diff_events(&a2, &b2).first_divergence.as_ref(), Some(div));
}

#[test]
fn chrome_export_of_a_recorded_gc_run_is_well_formed() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let g = generators::random_connected_graph(20, 0.25, &mut rng);
    let rec = RecordingTracer::new();
    let mut net = Net::new(NetConfig::kt1(20).with_seed(4));
    net.set_tracer(Box::new(rec.clone()));
    gc::run_on(&mut net, &g, &GcConfig::default()).expect("gc run");
    let events = rec.events();
    assert!(
        events.iter().any(|e| matches!(e, Event::ScopeEnter { .. })),
        "gc tags its phases"
    );

    let chrome = to_chrome_trace(&events);
    let parsed = Json::parse(&chrome).expect("chrome trace is valid JSON");
    let Json::Arr(entries) = parsed else {
        panic!("chrome trace must be a JSON array");
    };

    let scope_enters = events
        .iter()
        .filter(|e| matches!(e, Event::ScopeEnter { .. }))
        .count();
    let field = |e: &Json, k: &str| e.get(k).cloned();
    let ph = |e: &Json| match field(e, "ph") {
        Some(Json::Str(s)) => s,
        other => panic!("entry without ph: {other:?}"),
    };

    // Begin/end balance: every ScopeEnter produced a "B" and every exit
    // an "E", and scanning left to right never closes an unopened scope.
    let mut depth = 0i64;
    let (mut begins, mut ends) = (0usize, 0usize);
    for e in &entries {
        match ph(e).as_str() {
            "B" => {
                begins += 1;
                depth += 1;
            }
            "E" => {
                ends += 1;
                depth -= 1;
                assert!(depth >= 0, "E without matching B");
            }
            _ => {}
        }
    }
    assert_eq!(begins, scope_enters, "one B per ScopeEnter");
    assert_eq!(begins, ends, "phase nesting balances");

    for e in &entries {
        match ph(e).as_str() {
            // Model-derived entries: ts is a round number scaled by the
            // fixed 1000 us/round constant, never a wall clock, and they
            // carry no duration field.
            "B" | "E" | "i" => {
                let Some(Json::UInt(ts)) = field(e, "ts") else {
                    panic!("model entry without ts");
                };
                assert_eq!(ts % 1_000, 0, "model ts must be round-derived");
                assert!(field(e, "dur").is_none(), "model entries carry no dur");
            }
            // Timing entries live on their own pids (1 = nodes,
            // 2 = workers), away from the model track.
            "X" => {
                let Some(Json::UInt(pid)) = field(e, "pid") else {
                    panic!("X entry without pid");
                };
                assert!(pid == 1 || pid == 2, "timing tracks are pid 1/2");
            }
            other => panic!("unexpected phase kind {other}"),
        }
    }

    // The same recorded run feeds the lens's top links: the clique
    // actually used directed links, and totals are consistent with the
    // metered cost.
    let ledger = CommLedger::fold(20, &ModelSpec::clique(), &events).expect("clique spec");
    let links = ledger.top_links(usize::MAX);
    assert!(!links.is_empty(), "gc traffic shows up per link");
    let words: u64 = links.iter().map(|l| l.words).sum();
    assert_eq!(words, net.cost().words, "per-link words sum to the meter");
}
