//! `bench loadgen`: drive an in-process cc-serve pool with concurrent
//! clients and print its serve counts, throughput and latency.
//!
//! ```text
//! cargo run -p cc-bench --release --bin loadgen
//! cargo run -p cc-bench --release --bin loadgen -- --clients 4 --log RESPONSES.jsonl
//! ```
//!
//! Flags:
//!
//! * `--clients N`, `--jobs N`, `--distinct N`, `--seed S`, `--n N`,
//!   `--workers N` — load shape (positive integers; defaults: 8 clients
//!   × 16 jobs over 12 distinct keys, 2 workers, n = 20).
//! * `--log PATH` — write every response the clients received as
//!   protocol lines (one JSON object per line), summarizable with
//!   `cc-top --once PATH`.
//!
//! The default run's deterministic counts are part of the `perf` record
//! (`docs/perf_tables.txt`, table P3).
//!
//! Exit codes: 0 ok, 1 a broken serving invariant, 2 usage or I/O error.

use cc_bench::cli::{Args, Usage};
use cc_bench::loadgen::{run_with_responses, LoadgenConfig};
use cc_bench::outln;

const USAGE: Usage = Usage {
    line: "loadgen [--clients N] [--jobs N] [--distinct N] [--seed S] [--n N] [--workers N] [--log PATH]",
    switches: &[],
    valued: &[
        "--clients",
        "--jobs",
        "--distinct",
        "--seed",
        "--n",
        "--workers",
        "--log",
    ],
    positional: false,
};

fn positive(args: &Args, flag: &str) -> Option<usize> {
    args.number::<usize>(flag).inspect(|&v| {
        if v == 0 {
            args.fail(&format!("{flag} wants a positive integer"));
        }
    })
}

fn main() {
    let args = USAGE.parse();
    let mut cfg = LoadgenConfig::default();
    if let Some(v) = positive(&args, "--clients") {
        cfg.clients = v;
    }
    if let Some(v) = positive(&args, "--jobs") {
        cfg.jobs_per_client = v;
    }
    if let Some(v) = positive(&args, "--distinct") {
        cfg.distinct = v as u64;
    }
    if let Some(v) = positive(&args, "--seed") {
        cfg.seed = v as u64;
    }
    if let Some(v) = positive(&args, "--n") {
        cfg.n = v;
    }
    if let Some(v) = positive(&args, "--workers") {
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
    if let Some(path) = args.value("--log") {
        let mut text = lines.join("\n");
        text.push('\n');
        args.write_file(path, &text);
        eprintln!("logged {} response lines to {path}", lines.len());
    }
    outln!(
        "jobs            {:>10}   ({} cold, {} duplicate answers)",
        report.total_jobs,
        report.cold_runs,
        report.dup_answers
    );
    outln!(
        "throughput      {:>10.1} jobs/s over {:.1} ms",
        report.jobs_per_sec,
        report.wall_nanos as f64 / 1e6
    );
    outln!(
        "latency         p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms   mean {:.2} ms",
        report.p50_nanos as f64 / 1e6,
        report.p95_nanos as f64 / 1e6,
        report.p99_nanos as f64 / 1e6,
        report.mean_nanos as f64 / 1e6
    );
    outln!(
        "duplicate hits  {:>9.1}%   (rejected {}, evictions {})",
        report.hit_milli as f64 / 10.0,
        report.rejected,
        report.evictions
    );
}
