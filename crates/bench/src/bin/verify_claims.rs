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
//! The checklist text is rendered *from* the [`cc_trace::RunArtifact`]
//! the run assembles, so `--emit-json` output and the printed text are by
//! construction the same data. The quick run's stdout is the committed
//! `docs/claims_checklist.txt` (see `scripts/model_record.sh`).

use cc_bench::artifact::{build_artifact, render_checklist_txt};
use cc_bench::claims::verify_all_with_tables;
use cc_bench::cli::Usage;

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
    let artifact = build_artifact("verify_claims", quick, &tables, &results);
    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }
    print!("{}", render_checklist_txt(&artifact));
    if let Some(path) = args.value("--emit-json") {
        std::fs::write(path, artifact.to_json_string()).expect("write artifact");
        eprintln!("wrote {path}");
    }
    if artifact.claims.iter().any(|c| !c.pass) {
        std::process::exit(1);
    }
}
