//! Renders a saved [`cc_trace::RunArtifact`] back into human-readable
//! reports: a run summary, the claim checklist, and a per-phase cost table
//! for every recorded algorithm breakdown — plus subcommands over raw
//! JSONL event traces (as written by `JsonlTracer`).
//!
//! ```text
//! cargo run -p cc-bench --release --bin verify_claims -- --emit-json run.json
//! cargo run -p cc-bench --release --bin trace_report -- run.json
//! cargo run -p cc-bench --release --bin trace_report -- run.json --render-docs docs
//! cargo run -p cc-bench --release --bin trace_report -- diff a.jsonl b.jsonl
//! cargo run -p cc-bench --release --bin trace_report -- profile t.jsonl
//! cargo run -p cc-bench --release --bin trace_report -- links t.jsonl --bw 8 --top 20
//! cargo run -p cc-bench --release --bin trace_report -- heatmap t.jsonl --bw 8
//! ```
//!
//! `--render-docs DIR` regenerates `experiment_tables.txt` and
//! `claims_checklist.txt` in DIR from the artifact, so the committed docs
//! are provably derived from a machine-readable run record.
//!
//! `diff` aligns two traces' model-event streams, reports the first
//! divergence (round, event) and a per-phase cost/wall delta table, and
//! exits 1 when the traces diverge. `profile` folds a trace into the
//! hierarchical phase-tree profile of `cc-profile`.
//!
//! `links` folds a trace through `cc-lens` into the full communication
//! report (utilization quantiles, headroom, phase attribution, machine
//! skew, and the `--top` hottest directed links by words); `heatmap`
//! renders the round×link utilization heatmap. Both
//! take `--n` (node count, inferred from the trace when omitted),
//! `--bw` (budget words/link), `--machines K` (k-machine mapping), and
//! `--broadcast` (broadcast-only links); `links` also takes `--top N`
//! and `heatmap` takes `--rows`/`--cols`.
//!
//! Exits 2 on usage errors, and 3 if the artifact fails schema validation
//! or a trace does not fold (e.g. it names a node outside `--n`).

use cc_bench::artifact::{
    breakdown_table, render_checklist_txt, render_tables_txt, robustness_table, whp_table,
};
use cc_profile::{diff_events, profile_table, render_diff, Profile};
use cc_trace::export::events_from_jsonl;
use cc_trace::{Event, RunArtifact};

fn read_events(path: &str) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    events_from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a JSONL event trace: {e}");
        std::process::exit(3);
    })
}

/// Parses `--flag VALUE` as a number, with a default.
fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<T>().ok())
        .unwrap_or(default)
}

/// Builds the `ModelSpec` the lens subcommands measure against from
/// `--bw`, `--machines`, and `--broadcast`, plus the node count from
/// `--n` (falling back to [`cc_lens::infer_n`] over the trace).
fn lens_setup(args: &[String], events: &[cc_trace::Event]) -> (usize, cc_model::ModelSpec) {
    let n = flag_num(args, "--n", cc_lens::infer_n(events));
    let mut spec = cc_model::ModelSpec::clique().with_bandwidth(flag_num(args, "--bw", 8));
    let machines: usize = flag_num(args, "--machines", 0);
    if machines > 0 {
        spec = spec.kmachine(machines);
    }
    if args.iter().any(|a| a == "--broadcast") {
        spec = spec.broadcast_only();
    }
    (n, spec)
}

/// Prints a lens rendering, or exits 3 when the trace does not fold
/// (e.g. it names a node outside the `--n` clique).
fn print_folded(path: &str, rendered: Result<String, cc_model::ModelError>) {
    match rendered {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: cannot fold {path}: {e}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: trace_report diff A.jsonl B.jsonl");
                std::process::exit(2);
            };
            let d = diff_events(&read_events(a), &read_events(b));
            print!("{}", render_diff(&d, a, b));
            std::process::exit(if d.model_identical() { 0 } else { 1 });
        }
        Some("links") => {
            let Some(path) = args.get(1) else {
                eprintln!(
                    "usage: trace_report links TRACE.jsonl [--n N] [--bw W] [--machines K] [--broadcast] [--top K]"
                );
                std::process::exit(2);
            };
            let events = read_events(path);
            let (n, spec) = lens_setup(&args, &events);
            let top = flag_num(&args, "--top", 10usize);
            print_folded(path, cc_lens::links_report(n, &spec, &events, top));
            return;
        }
        Some("heatmap") => {
            let Some(path) = args.get(1) else {
                eprintln!(
                    "usage: trace_report heatmap TRACE.jsonl [--n N] [--bw W] [--machines K] [--broadcast] [--rows R] [--cols C]"
                );
                std::process::exit(2);
            };
            let events = read_events(path);
            let (n, spec) = lens_setup(&args, &events);
            let rows = flag_num(&args, "--rows", 24usize);
            let cols = flag_num(&args, "--cols", 72usize);
            print_folded(path, cc_lens::render_heatmap(n, &spec, &events, rows, cols));
            return;
        }
        Some("profile") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: trace_report profile TRACE.jsonl");
                std::process::exit(2);
            };
            print!(
                "{}",
                profile_table(&Profile::from_events(&read_events(path)))
            );
            return;
        }
        _ => {}
    }
    let render_docs: Option<String> = args
        .iter()
        .position(|a| a == "--render-docs")
        .and_then(|i| args.get(i + 1).cloned());
    let path = match args
        .iter()
        .find(|a| !a.starts_with("--") && Some(a.as_str()) != render_docs.as_deref())
    {
        Some(p) => p.clone(),
        None => {
            eprintln!("usage: trace_report ARTIFACT.json [--render-docs DIR]");
            std::process::exit(2);
        }
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let artifact = match RunArtifact::from_json_str(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {path} is not a RunArtifact: {e}");
            std::process::exit(3);
        }
    };
    if let Err(problems) = artifact.validate() {
        eprintln!("error: {path} failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }

    println!("run artifact: {path}");
    println!(
        "  schema v{}  generator={}  created_unix={}",
        artifact.schema_version, artifact.generator, artifact.created_unix
    );
    for (k, v) in &artifact.meta {
        println!("  {k}: {v}");
    }
    println!(
        "  {} experiment table(s), {} claim(s), {} breakdown(s), {} metrics snapshot(s)",
        artifact.experiments.len(),
        artifact.claims.len(),
        artifact.breakdowns.len(),
        artifact.metrics.len()
    );
    if !artifact.robustness.is_empty() || !artifact.whp_sweep.is_empty() {
        println!(
            "  {} robustness record(s), {} whp sweep point(s)",
            artifact.robustness.len(),
            artifact.whp_sweep.len()
        );
    }
    println!();

    if !artifact.claims.is_empty() {
        print!("{}", render_checklist_txt(&artifact));
        println!();
    }

    for b in &artifact.breakdowns {
        print!("{}", breakdown_table(b));
        println!();
    }

    if !artifact.robustness.is_empty() {
        print!("{}", robustness_table(&artifact.robustness));
        println!();
    }
    if !artifact.whp_sweep.is_empty() {
        print!("{}", whp_table(&artifact.whp_sweep));
        println!();
    }

    for (name, snap) in &artifact.metrics {
        println!("metrics [{name}]:");
        for (counter, value) in &snap.counters {
            println!("  {counter:<28} {value}");
        }
        for (hist, h) in &snap.histograms {
            println!(
                "  {hist:<28} count={} sum={} min={} max={} mean={:.1}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
        }
        println!();
    }

    if let Some(dir) = render_docs {
        std::fs::create_dir_all(&dir).expect("create docs directory");
        // Only render sections the artifact actually carries: a `tables`
        // artifact has no claims, a claims-only artifact should not
        // clobber the full experiment tables.
        if !artifact.experiments.is_empty() {
            let tables_path = format!("{dir}/experiment_tables.txt");
            std::fs::write(&tables_path, render_tables_txt(&artifact)).expect("write tables");
            eprintln!("wrote {tables_path}");
        }
        if !artifact.claims.is_empty() {
            let checklist_path = format!("{dir}/claims_checklist.txt");
            std::fs::write(&checklist_path, render_checklist_txt(&artifact))
                .expect("write checklist");
            eprintln!("wrote {checklist_path}");
        }
    }
}
