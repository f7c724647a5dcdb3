//! The robustness harness entry point: runs GC, EXACT-MST, and KT1-MST
//! under every CI fault schedule plus the whp seed sweep, prints the
//! outcome tables, and exits non-zero if GC or EXACT-MST ever produced
//! a **silent wrong answer** — the failure mode validation is supposed
//! to make impossible (DESIGN.md §11).
//!
//! ```text
//! cargo run -p cc-bench --release --bin chaos            # quick schedules
//! cargo run -p cc-bench --release --bin chaos -- --full
//! cargo run -p cc-bench --release --bin chaos -- --emit-json chaos.json
//! ```
//!
//! The printed tables are rendered *from* the emitted
//! [`cc_trace::RunArtifact`] (schema v2: `robustness` + `whp_sweep`
//! sections), so the JSON and the text can never drift apart.

use cc_bench::artifact::{record_to_table, robustness_table};
use cc_bench::cli::Usage;
use cc_bench::experiments::robustness::{e17b_whp_sweep, robustness_records, whp_points};
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
    artifact.robustness = robustness_records(quick);
    artifact.whp_sweep = whp_points(quick);
    // E17b re-renders the sweep with its paper-budget control column.
    let e17b = e17b_whp_sweep(quick);
    artifact
        .experiments
        .push(cc_bench::artifact::experiment_record(&e17b));

    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }

    print!("{}", robustness_table(&artifact.robustness));
    println!();
    for rec in &artifact.experiments {
        print!("{}", record_to_table(rec));
        println!();
    }

    if let Some(path) = args.value("--emit-json") {
        std::fs::write(path, artifact.to_json_string()).expect("write artifact");
        eprintln!("wrote {path}");
    }

    let silent: Vec<&cc_trace::RobustnessRecord> = artifact
        .robustness
        .iter()
        .filter(|r| r.outcome == "silent-wrong-answer" && r.algo != "kt1-mst")
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
