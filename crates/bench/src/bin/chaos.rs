//! The robustness harness entry point: runs GC, EXACT-MST, and KT1-MST
//! (the `cc_core::catalog` entries, each a `cc_bench::guard` run) under
//! every CI fault schedule plus the whp seed sweep, prints the E17 and
//! E17b tables and the caught-panic total, and exits non-zero if any
//! entry ever produced a **silent wrong answer** — the failure mode
//! validation is supposed to make impossible (DESIGN.md §11).
//!
//! ```text
//! cargo run -p cc-bench --release --bin chaos            # quick schedules
//! cargo run -p cc-bench --release --bin chaos -- --full
//! cargo run -p cc-bench --release --bin chaos -- --emit-json chaos.json
//! ```
//!
//! The emitted [`cc_trace::RunArtifact`] stores the E17 and E17b tables
//! it prints, so a failure's detail is kept as printed: cut at 48
//! characters, with no fault-plan seed column. The panic line counts the `Panic` verdicts among the
//! detected failures, and the exit code comes from the runs' verdicts.

use cc_bench::cli::Usage;
use cc_bench::experiments::robustness::{
    e17_table, e17b_table, fault_matrix, silent_wrong, whp_points,
};
use cc_bench::guard::Verdict;
use cc_bench::{out, outln};
use cc_trace::RunArtifact;

const USAGE: Usage = Usage {
    line: "chaos [--full] [--emit-json FILE]",
    switches: &["--full"],
    valued: &["--emit-json"],
    positional: false,
};

fn main() {
    let args = USAGE.parse();
    let quick = !args.has("--full");
    let runs = fault_matrix(quick);
    let e17 = e17_table(&runs);
    // E17b renders the sweep with its paper-budget control column.
    let e17b = e17b_table(&whp_points(quick));
    let mut artifact =
        RunArtifact::new("chaos").with_meta("mode", if quick { "quick" } else { "full" });
    artifact.experiments = vec![e17.clone(), e17b.clone()];

    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }

    // The file first: a stdout reader that closes early ends the run.
    if let Some(path) = args.value("--emit-json") {
        std::fs::write(path, artifact.to_json_string()).expect("write artifact");
        eprintln!("wrote {path}");
    }

    out!("{e17}");
    let detected = runs
        .iter()
        .filter(|r| r.verdict.outcome() == "detected-failure")
        .count();
    let panics = runs
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Panic { .. }))
        .count();
    outln!("caught panics: {panics} of {detected} detected failures");
    outln!();
    out!("{e17b}");
    outln!();

    let silent = silent_wrong(&runs);
    if !silent.is_empty() {
        for r in &silent {
            eprintln!(
                "SILENT WRONG ANSWER: {} under {} (seed {})",
                r.algo, r.schedule, r.seed
            );
        }
        std::process::exit(1);
    }
}
