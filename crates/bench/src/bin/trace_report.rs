//! Renders a saved [`cc_trace::RunArtifact`] back into human-readable
//! reports: a run summary, every table it stores (experiment tables, the
//! claims table, phase breakdowns, E17 and E17b alike) and every metrics
//! snapshot — plus subcommands over raw JSONL event traces (as written by
//! `JsonlTracer`).
//!
//! ```text
//! cargo run -p cc-bench --release --bin verify_claims -- --emit-json run.json
//! cargo run -p cc-bench --release --bin trace_report -- run.json
//! cargo run -p cc-bench --release --bin trace_report -- diff a.jsonl b.jsonl
//! cargo run -p cc-bench --release --bin trace_report -- profile t.jsonl
//! cargo run -p cc-bench --release --bin trace_report -- links t.jsonl --bw 8 --top 20
//! cargo run -p cc-bench --release --bin trace_report -- heatmap t.jsonl --bw 8
//! ```
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

use cc_bench::cli::{Args, Usage};
use cc_bench::{out, outln};
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

const USAGE: Usage = Usage {
    line: "trace_report ARTIFACT.json\n\
           \u{20}      trace_report diff A.jsonl B.jsonl\n\
           \u{20}      trace_report profile TRACE.jsonl\n\
           \u{20}      trace_report links TRACE.jsonl [--n N] [--bw W] [--machines K] [--broadcast] [--top K]\n\
           \u{20}      trace_report heatmap TRACE.jsonl [--n N] [--bw W] [--machines K] [--broadcast] [--rows R] [--cols C]",
    switches: &["--broadcast"],
    valued: &["--n", "--bw", "--machines", "--top", "--rows", "--cols"],
    positional: true,
};

/// Builds the `ModelSpec` the lens subcommands measure against from
/// `--bw`, `--machines`, and `--broadcast`, plus the node count from
/// `--n` (falling back to [`cc_lens::infer_n`] over the trace).
fn lens_setup(args: &Args, events: &[cc_trace::Event]) -> (usize, cc_model::ModelSpec) {
    let n = args
        .number("--n")
        .unwrap_or_else(|| cc_lens::infer_n(events));
    let mut spec = cc_model::ModelSpec::clique().with_bandwidth(args.number("--bw").unwrap_or(8));
    let machines: usize = args.number("--machines").unwrap_or(0);
    if machines > 0 {
        spec = spec.kmachine(machines);
    }
    if args.has("--broadcast") {
        spec = spec.broadcast_only();
    }
    (n, spec)
}

/// Prints a lens rendering, or exits 3 when the trace does not fold
/// (e.g. it names a node outside the `--n` clique).
fn print_folded(path: &str, rendered: Result<String, cc_model::ModelError>) {
    match rendered {
        Ok(text) => out!("{text}"),
        Err(e) => {
            eprintln!("error: cannot fold {path}: {e}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let args = USAGE.parse();
    let path = match args.positional.as_slice() {
        [cmd, a, b] if cmd == "diff" => {
            let d = diff_events(&read_events(a), &read_events(b));
            out!("{}", render_diff(&d, a, b));
            std::process::exit(if d.model_identical() { 0 } else { 1 });
        }
        [cmd, path] if cmd == "links" => {
            let events = read_events(path);
            let (n, spec) = lens_setup(&args, &events);
            let top = args.number("--top").unwrap_or(10);
            print_folded(path, cc_lens::links_report(n, &spec, &events, top));
            return;
        }
        [cmd, path] if cmd == "heatmap" => {
            let events = read_events(path);
            let (n, spec) = lens_setup(&args, &events);
            let rows = args.number("--rows").unwrap_or(24);
            let cols = args.number("--cols").unwrap_or(72);
            print_folded(path, cc_lens::render_heatmap(n, &spec, &events, rows, cols));
            return;
        }
        [cmd, path] if cmd == "profile" => {
            out!(
                "{}",
                profile_table(&Profile::from_events(&read_events(path)))
            );
            return;
        }
        [path] if !["diff", "links", "heatmap", "profile"].contains(&path.as_str()) => path.clone(),
        _ => args.fail("wrong arguments"),
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

    outln!("run artifact: {path}");
    outln!(
        "  schema v{}  generator={}  created_unix={}",
        artifact.schema_version,
        artifact.generator,
        artifact.created_unix
    );
    for (k, v) in &artifact.meta {
        outln!("  {k}: {v}");
    }
    outln!(
        "  {} table(s), {} metrics snapshot(s)",
        artifact.experiments.len(),
        artifact.metrics.len()
    );
    outln!();

    for table in &artifact.experiments {
        outln!("{table}");
    }

    for (name, snap) in &artifact.metrics {
        outln!("metrics [{name}]:");
        for (counter, value) in &snap.counters {
            outln!("  {counter:<28} {value}");
        }
        for (hist, h) in &snap.histograms {
            outln!(
                "  {hist:<28} count={} sum={} min={} max={} mean={:.1}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
        }
        outln!();
    }
}
