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
//! The printed tables are rendered *from* the emitted
//! [`cc_trace::RunArtifact`] (schema v2: `robustness` + `whp_sweep`
//! sections), so the JSON and the text can never drift apart. The panic
//! line counts the `Panic` verdicts among the detected failures.

use cc_bench::artifact::experiment_record;
use cc_bench::cli::Usage;
use cc_bench::experiments::robustness::{e17_table, e17b_table, fault_matrix, whp_points};
use cc_bench::guard::Verdict;
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
    let mut artifact = RunArtifact::new("chaos")
        .with_meta("mode", if quick { "quick" } else { "full" })
        .with_meta("schema", "cc-trace RunArtifact v2");
    let (records, verdicts): (Vec<_>, Vec<_>) = fault_matrix(quick).into_iter().unzip();
    artifact.robustness = records;
    artifact.whp_sweep = whp_points(quick);
    // E17b renders the sweep with its paper-budget control column.
    let e17b = e17b_table(&artifact.whp_sweep);
    artifact.experiments.push(experiment_record(&e17b));

    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }

    print!("{}", e17_table(&artifact.robustness));
    let detected = verdicts
        .iter()
        .filter(|v| v.outcome() == "detected-failure")
        .count();
    let panics = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Panic { .. }))
        .count();
    println!("caught panics: {panics} of {detected} detected failures");
    println!();
    print!("{e17b}");
    println!();

    if let Some(path) = args.value("--emit-json") {
        std::fs::write(path, artifact.to_json_string()).expect("write artifact");
        eprintln!("wrote {path}");
    }

    let silent: Vec<&cc_trace::RobustnessRecord> = artifact
        .robustness
        .iter()
        .filter(|r| r.outcome == "silent-wrong-answer")
        .collect();
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
