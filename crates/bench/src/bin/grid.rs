//! `bench grid`: sweeps the model grid (bandwidth × link mode ×
//! machine count, 18 cells × 3 algorithms), optionally writes the
//! schema-versioned grid artifact, and renders the E22 degradation and
//! E23 utilization tables.
//!
//! ```text
//! cargo run -p cc-bench --release --bin grid -- --markdown - --util-markdown -
//! cargo run -p cc-bench --release --bin grid -- --n 48 --out GRID.json
//! ```
//!
//! Flags:
//!
//! * `--n N` — clique size (default 32).
//! * `--seed S` — base seed (default `0xE22`).
//! * `--out PATH` — write the grid artifact (JSON) to PATH.
//! * `--markdown PATH` — render the E22 table to PATH (`-` prints to
//!   stdout).
//! * `--util-markdown PATH` — render the E23 utilization-profile table
//!   (peak/quantile link utilization, headroom, broadcast mix, pair skew
//!   per cell) to PATH (`-` prints to stdout).
//!
//! At the defaults the two tables are the committed `docs/grid_e22.md`
//! and `docs/grid_e23.md` (see `scripts/model_record.sh`).
//!
//! Exit codes: 0 ok, 1 failed cell (a rejected or silently wrong answer,
//! or an exhausted sketch) or artifact invariant violation, 2 usage or
//! I/O error, 101 a panic (a bug, never a cell status).

use cc_bench::cli::{Args, Usage};
use cc_bench::grid::{render_markdown, render_utilization_markdown, run_grid, GridConfig};
use cc_bench::out;

const USAGE: Usage = Usage {
    line: "grid [--n N] [--seed S] [--out PATH] [--markdown PATH] [--util-markdown PATH]",
    switches: &[],
    valued: &["--n", "--seed", "--out", "--markdown", "--util-markdown"],
    positional: false,
};

/// Writes `text` to `path`, or prints it when `path` is `-`.
fn emit(args: &Args, path: &str, text: &str) {
    if path == "-" {
        out!("{text}");
    } else {
        args.write_file(path, text);
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args = USAGE.parse();
    let n: usize = args.number("--n").unwrap_or(32);
    if n < 8 {
        args.fail("--n must be at least 8");
    }
    let mut cfg = GridConfig::full(n);
    if let Some(seed) = args.number("--seed") {
        cfg.seed = seed;
    }

    eprintln!(
        "sweeping the model grid ({} cells × 3 algorithms at n={n}, seed {})...",
        cfg.cells().len(),
        cfg.seed
    );
    let artifact = run_grid(&cfg);
    if let Err(problems) = artifact.validate() {
        eprintln!("grid artifact failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }

    if let Some(path) = args.value("--out") {
        emit(&args, path, &artifact.to_json_string());
    }
    if let Some(path) = args.value("--markdown") {
        emit(&args, path, &render_markdown(&artifact));
    }
    if let Some(path) = args.value("--util-markdown") {
        emit(&args, path, &render_utilization_markdown(&artifact));
    }

    // The whole point of the grid is that degradation is always typed,
    // never silent: a failed cell fails the run.
    let failed = artifact.failed();
    if !failed.is_empty() {
        eprintln!("failed cells:");
        for c in &failed {
            eprintln!(
                "  - {}/{}: {}",
                c.cell_key(),
                c.algorithm,
                c.verdict.detail().unwrap_or_default()
            );
        }
        std::process::exit(1);
    }
}
