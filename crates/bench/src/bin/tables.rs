//! Regenerates the experiment tables (see DESIGN.md §5).
//!
//! Usage:
//!   tables                 # all experiments, full sweeps
//!   tables --quick         # all experiments, small sweeps
//!   tables e1 e8           # selected experiments
//!   tables --quick e6 f1   # selected, small sweeps
//!   tables --csv DIR       # additionally write one CSV per table to DIR
//!   tables --emit-json F   # additionally write a RunArtifact JSON to F
//!
//! An unknown experiment ID or flag, or a file it cannot write, exits 2.
//! The full run's stdout is the committed `docs/experiment_tables.txt`
//! (see `scripts/model_record.sh`).
//!
//! The `--emit-json` [`cc_trace::RunArtifact`] stores the printed tables
//! themselves, followed by the headline phase breakdowns.

use cc_bench::artifact::build_artifact;
use cc_bench::cli::Usage;
use cc_bench::experiments::messages::e6b_link_audit;
use cc_bench::outln;
use cc_bench::{select_experiments, Table};

const USAGE: Usage = Usage {
    line: "tables [--quick] [--csv DIR] [--emit-json FILE] [EXPERIMENT_ID...]",
    switches: &["--quick"],
    valued: &["--csv", "--emit-json"],
    positional: true,
};

fn main() {
    let args = USAGE.parse();
    let quick = args.has("--quick");
    let wanted: Vec<String> = args.positional.iter().map(|a| a.to_lowercase()).collect();
    let selected = select_experiments(&wanted).unwrap_or_else(|e| args.fail(&e));
    let csv_dir = args.value("--csv");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| args.fail(&format!("cannot create {dir}: {e}")));
    }
    let mut tables: Vec<Table> = Vec::new();
    for (id, f) in selected {
        tables.push(f(quick));
        if id == "e6" {
            tables.push(e6b_link_audit());
        }
    }

    let artifact = build_artifact("tables", quick, &tables);
    if let Err(problems) = artifact.validate() {
        eprintln!("internal error: artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(3);
    }
    // Files first: a stdout reader that closes early ends the run.
    if let Some(dir) = csv_dir {
        for table in &tables {
            let path = format!("{dir}/{}.csv", table.id.to_lowercase());
            args.write_file(&path, &table.to_csv());
        }
    }
    if let Some(path) = args.value("--emit-json") {
        args.write_file(path, &artifact.to_json_string());
        eprintln!("wrote {path}");
    }
    for table in &tables {
        outln!("{table}");
    }
}
