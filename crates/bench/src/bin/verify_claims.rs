//! One-screen reproduction checklist: runs the (quick) experiment suite
//! and prints a PASS/FAIL verdict per paper claim. Exits non-zero if any
//! claim fails, so CI can gate on it.
//!
//! ```text
//! cargo run -p cc-bench --release --bin verify_claims          # quick sweeps
//! cargo run -p cc-bench --release --bin verify_claims -- --full
//! cargo run -p cc-bench --release --bin verify_claims -- --emit-json run.json
//! ```
//!
//! The checklist is rendered from the `claims` table the
//! `--emit-json` [`cc_trace::RunArtifact`] stores next to the experiment
//! tables the verdicts were computed from, and the exit code comes from
//! the verdicts themselves. The quick run's stdout is the committed
//! `docs/claims_checklist.txt` (see `scripts/model_record.sh`).

use cc_bench::artifact::build_artifact;
use cc_bench::claims::{claims_table, render_checklist_txt, verify_all_with_tables};
use cc_bench::cli::Usage;
use cc_bench::out;

const USAGE: Usage = Usage {
    line: "verify_claims [--full] [--emit-json FILE]",
    switches: &["--full"],
    valued: &["--emit-json"],
    positional: false,
};

fn main() {
    let args = USAGE.parse();
    let quick = !args.has("--full");
    let (results, tables) = verify_all_with_tables(quick);
    let mut records = vec![claims_table(&results)];
    records.extend(tables);
    let artifact = build_artifact("verify_claims", quick, &records);
    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }
    out!("{}", render_checklist_txt(quick, &records[0]));
    if let Some(path) = args.value("--emit-json") {
        std::fs::write(path, artifact.to_json_string()).expect("write artifact");
        eprintln!("wrote {path}");
    }
    if results.iter().any(|c| !c.pass) {
        std::process::exit(1);
    }
}
