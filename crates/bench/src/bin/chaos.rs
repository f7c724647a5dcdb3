//! The robustness harness entry point: runs GC, EXACT-MST, and KT1-MST
//! (the `cc_core::catalog` entries, each a `cc_bench::guard` run) under
//! every CI fault schedule plus the whp seed sweep, prints the E17 and
//! E17b tables, and exits non-zero if any entry ever produced a
//! **silent wrong answer** — the failure mode validation is supposed to
//! make impossible (DESIGN.md §11).
//!
//! ```text
//! cargo run -p cc-bench --release --bin chaos            # quick schedules
//! cargo run -p cc-bench --release --bin chaos -- --full
//! cargo run -p cc-bench --release --bin chaos -- --emit-json chaos.json
//! ```
//!
//! The emitted [`cc_trace::RunArtifact`] stores the E17 and E17b tables
//! it prints, so a failure's detail is kept as printed (a malformed
//! message's defect, any other detail cut at 48 characters), with no
//! fault-plan seed column.
//!
//! Exit codes: 0 no silent wrong answer, 1 a silent wrong answer, 2
//! usage or I/O error, 3 an invalid artifact, 101 a panic (a bug: no
//! fault may make an algorithm panic).

use cc_bench::cli::Usage;
use cc_bench::experiments::robustness::{
    e17_table, e17b_table, fault_matrix, silent_wrong, whp_points,
};
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
        args.write_file(path, &artifact.to_json_string());
        eprintln!("wrote {path}");
    }

    out!("{e17}");
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
