//! Scenario: an auditable connectivity run. GC (the paper's Theorem 4
//! algorithm) runs under two tracer sinks: a streaming [`JsonlTracer`]
//! that writes one JSON event per line as the protocol executes, and a
//! [`RecordingTracer`] whose in-memory buffer feeds the two folds of a
//! trace — `cc-profile`'s phase-tree table and `cc-lens`'s `comm.*`
//! communication metrics — and a Chrome trace-event file you can load in
//! Perfetto (ui.perfetto.dev).
//!
//! ```text
//! cargo run --release --example traced_run
//! cargo run --release --example traced_run -- /tmp/out-dir
//! ```
//!
//! Writes `trace.jsonl` and `trace.chrome.json` into the output directory
//! (default `target/traced_run`).

use congested_clique::core::gc::{self, GcConfig};
use congested_clique::graph::generators;
use congested_clique::lens::{comm_metrics, CommLedger};
use congested_clique::model::ModelSpec;
use congested_clique::net::NetConfig;
use congested_clique::profile::{profile_table, Profile};
use congested_clique::route::Net;
use congested_clique::trace::{export, JsonlTracer, RecordingTracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/traced_run".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = generators::random_connected_graph(n, 0.1, &mut rng);

    // Run 1: stream events straight to disk as JSONL. The sink is
    // attached to the network, so every round, scope, and message batch
    // the simulator meters lands in the file in emission order.
    let jsonl_path = format!("{out_dir}/trace.jsonl");
    let sink = JsonlTracer::create(&jsonl_path).expect("create trace.jsonl");
    let mut net = Net::new(NetConfig::kt1(n).with_seed(9));
    net.set_tracer(Box::new(sink));
    let out = gc::run_on(&mut net, &g, &GcConfig::default()).expect("gc run");
    net.take_tracer(); // flushes the stream
    println!(
        "GC on connected G(n={n}, p=0.1): {} component(s), cost {:?}",
        out.component_count,
        net.cost()
    );
    println!("wrote {jsonl_path}");

    // Run 2: record in memory and derive reports. The model events are
    // deterministic per protocol + seed, so this run's stream matches
    // run 1's file line for line (modulo wall-clock timing events).
    let rec = RecordingTracer::new();
    let mut net = Net::new(NetConfig::kt1(n).with_seed(9));
    net.set_tracer(Box::new(rec.clone()));
    gc::run_on(&mut net, &g, &GcConfig::default()).expect("gc run");
    net.take_tracer();
    let events = rec.events();
    println!("recorded {} events\n", events.len());

    // Phase-tree profile: where the rounds/messages/words accrued.
    print!("{}", profile_table(&Profile::from_events(&events)));
    println!();

    // Communication metrics from the lens fold: counters plus log-scaled
    // histograms of per-(round, link) words and utilization.
    let lens = CommLedger::fold(n, &ModelSpec::clique(), &events).expect("fold the recorded run");
    let metrics = comm_metrics(&lens);
    println!("communication metrics:");
    for (name, value) in &metrics.counters {
        println!("  {name:<24} {value}");
    }
    for (name, h) in &metrics.histograms {
        println!(
            "  {name:<24} count={} min={} max={} mean={:.1}",
            h.count,
            h.min,
            h.max,
            h.mean()
        );
    }
    println!();

    // Chrome trace-event JSON: open in Perfetto to see phases as nested
    // slices and per-round message flow on the timeline.
    let chrome_path = format!("{out_dir}/trace.chrome.json");
    std::fs::write(&chrome_path, export::to_chrome_trace(&events)).expect("write chrome trace");
    println!("wrote {chrome_path} (load at ui.perfetto.dev)");
}
