//! `bench loadgen`: drive an in-process cc-serve pool with concurrent
//! clients and gate the `serve-*` section of the perf baseline.
//!
//! ```text
//! cargo run -p cc-bench --release --bin loadgen
//! cargo run -p cc-bench --release --bin loadgen -- --out LOADGEN.json
//! cargo run -p cc-bench --release --bin loadgen -- --update-baseline BENCH_baseline.json
//! ```
//!
//! Flags:
//!
//! * `--clients N`, `--jobs N`, `--distinct N`, `--seed S`, `--n N`,
//!   `--workers N` — load shape (defaults: 8 clients × 16 jobs over 12
//!   distinct keys, 2 workers, n = 20).
//! * `--out PATH` — write the `serve-*` suite as JSON (`-` or absent
//!   skips writing).
//! * `--log PATH` — write every response the clients received as
//!   protocol lines (one JSON object per line), summarizable with
//!   `cc-top --once PATH`.
//! * `--baseline PATH` — baseline to gate the serve section against
//!   (default `BENCH_baseline.json` when it exists; a baseline without
//!   `serve-*` cases skips the gate with a note).
//! * `--update-baseline PATH` — merge the fresh `serve-*` cases into
//!   PATH, preserving every other case.
//!
//! Exit codes: 0 ok, 1 model drift, a missing case or a broken serving
//! invariant, 2 usage or I/O error.

use cc_bench::loadgen::{
    merge_serve_section, run_with_responses, serve_section, suite_from_report, LoadgenConfig,
};
use cc_profile::{compare, render_comparison, PerfSuite};

fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn num_of(args: &[String], flag: &str) -> Option<usize> {
    value_of(args, flag).map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&v| v > 0)
            .unwrap_or_else(|| fail(&format!("{flag} wants a positive integer")))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LoadgenConfig::default();
    if let Some(v) = num_of(&args, "--clients") {
        cfg.clients = v;
    }
    if let Some(v) = num_of(&args, "--jobs") {
        cfg.jobs_per_client = v;
    }
    if let Some(v) = num_of(&args, "--distinct") {
        cfg.distinct = v as u64;
    }
    if let Some(v) = num_of(&args, "--seed") {
        cfg.seed = v as u64;
    }
    if let Some(v) = num_of(&args, "--n") {
        cfg.n = v;
    }
    if let Some(v) = num_of(&args, "--workers") {
        cfg.serve.workers = v;
    }

    eprintln!(
        "loadgen: {} clients × {} jobs over {} distinct keys, {} workers, n = {}",
        cfg.clients, cfg.jobs_per_client, cfg.distinct, cfg.serve.workers, cfg.n
    );
    let (report, lines) = run_with_responses(&cfg).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = value_of(&args, "--log") {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("logged {} response lines to {path}", lines.len());
    }
    println!(
        "jobs            {:>10}   ({} cold, {} duplicate answers)",
        report.total_jobs, report.cold_runs, report.dup_answers
    );
    println!(
        "throughput      {:>10.1} jobs/s over {:.1} ms",
        report.jobs_per_sec,
        report.wall_nanos as f64 / 1e6
    );
    println!(
        "latency         p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms   mean {:.2} ms",
        report.p50_nanos as f64 / 1e6,
        report.p95_nanos as f64 / 1e6,
        report.p99_nanos as f64 / 1e6,
        report.mean_nanos as f64 / 1e6
    );
    println!(
        "duplicate hits  {:>9.1}%   (rejected {}, evictions {})",
        report.hit_milli as f64 / 10.0,
        report.rejected,
        report.evictions
    );

    let suite = suite_from_report(&report);
    if let Err(problems) = suite.validate() {
        fail(&format!("serve suite failed validation: {problems:?}"));
    }
    if let Some(out) = value_of(&args, "--out").filter(|o| o != "-") {
        std::fs::write(&out, suite.to_json_string())
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        eprintln!("wrote {out}");
    }

    if let Some(path) = value_of(&args, "--update-baseline") {
        let mut baseline = match std::fs::read_to_string(&path) {
            Ok(text) => {
                PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
            }
            Err(_) => PerfSuite::new("cc-bench loadgen"),
        };
        merge_serve_section(&mut baseline, &suite);
        std::fs::write(&path, baseline.to_json_string())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("merged serve-* cases into {path}");
        return;
    }

    let baseline_path = value_of(&args, "--baseline").or_else(|| {
        std::path::Path::new("BENCH_baseline.json")
            .exists()
            .then(|| "BENCH_baseline.json".to_string())
    });
    let Some(baseline_path) = baseline_path else {
        eprintln!("no baseline to gate against; done");
        return;
    };
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {baseline_path}: {e}")));
    let baseline =
        PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{baseline_path}: {e}")));
    let baseline = serve_section(&baseline);
    if baseline.cases.is_empty() {
        eprintln!("{baseline_path} has no serve-* cases yet; skipping gate (run with --update-baseline to seed it)");
        return;
    }
    let cmp = compare(&suite, &baseline);
    print!("{}", render_comparison(&cmp));
    if !cmp.passed() {
        std::process::exit(1);
    }
}
