//! `bench grid`: sweeps the model grid (bandwidth × link mode ×
//! machine count), writes the schema-versioned `GRID_<stamp>.json`
//! artifact, renders the E22 degradation table, and gates the `grid-*`
//! section against the committed baseline.
//!
//! ```text
//! cargo run -p cc-bench --release --bin grid -- --quick
//! cargo run -p cc-bench --release --bin grid -- --n 32 --markdown E22.md
//! cargo run -p cc-bench --release --bin grid -- --quick --write-baseline BENCH_baseline.json
//! ```
//!
//! Flags:
//!
//! * `--quick` — the CI-sized 8-cell sweep (default is the full 18-cell
//!   E22 sweep).
//! * `--n N` — clique size (default 16 quick, 32 full).
//! * `--seed S` — base seed (default `0xE22`).
//! * `--out PATH` — where to write the grid artifact (default
//!   `GRID_<stamp>.json`; `-` skips writing).
//! * `--markdown PATH` — also render the E22 table to PATH (`-` prints
//!   to stdout).
//! * `--util-markdown PATH` — also render the E23 utilization-profile
//!   table (peak/quantile link utilization, headroom, broadcast mix,
//!   pair skew per cell) to PATH (`-` prints to stdout).
//! * `--baseline PATH` — perf baseline to gate the `grid-*` section
//!   against (default `BENCH_baseline.json` when it exists).
//! * `--write-baseline PATH` — merge this run's `grid-*` section into
//!   PATH (creating it if absent), preserving every non-grid case and
//!   grid sections at other `n`.
//!
//! Exit codes: 0 ok, 1 wrong answer / artifact invariant violation /
//! model drift or a missing case, 2 usage or I/O error.

use cc_bench::grid::{
    grid_section, merge_grid_section, render_markdown, render_utilization_markdown, run_grid,
    suite_from_grid, GridConfig,
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let n = value_of(&args, "--n")
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| fail("--n wants a number"))
        })
        .unwrap_or(if quick { 16 } else { 32 });
    let mut cfg = if quick {
        GridConfig::quick(n)
    } else {
        GridConfig::full(n)
    };
    if let Some(seed) = value_of(&args, "--seed") {
        cfg.seed = seed
            .parse::<u64>()
            .unwrap_or_else(|_| fail("--seed wants a number"));
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

    let out = value_of(&args, "--out").unwrap_or_else(|| artifact.stamp_name());
    if out != "-" {
        std::fs::write(&out, artifact.to_json_string())
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        eprintln!("wrote {out}");
    }
    if let Some(path) = value_of(&args, "--markdown") {
        let md = render_markdown(&artifact);
        if path == "-" {
            print!("{md}");
        } else {
            std::fs::write(&path, &md)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }
    if let Some(path) = value_of(&args, "--util-markdown") {
        let md = render_utilization_markdown(&artifact);
        if path == "-" {
            print!("{md}");
        } else {
            std::fs::write(&path, &md)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }

    // Wrong answers fail the run before the gate: the whole point of the
    // grid is that degradation is always typed, never silent.
    let wrong = artifact.wrong_answers();
    if !wrong.is_empty() {
        eprintln!("wrong answers detected:");
        for c in &wrong {
            eprintln!(
                "  - {}/{}: {}",
                c.cell_key(),
                c.algorithm,
                c.detail.as_deref().unwrap_or("answer failed validation")
            );
        }
        std::process::exit(1);
    }
    let fresh = suite_from_grid(&artifact);
    if let Err(problems) = fresh.validate() {
        fail(&format!("grid suite failed validation: {problems:?}"));
    }

    if let Some(path) = value_of(&args, "--write-baseline") {
        let mut baseline = match std::fs::read_to_string(&path) {
            Ok(text) => {
                PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
            }
            Err(_) => PerfSuite::new(&fresh.generator),
        };
        merge_grid_section(&mut baseline, &fresh);
        std::fs::write(&path, baseline.to_json_string())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("merged grid section into {path}");
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
    let full =
        PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{baseline_path}: {e}")));
    // Gate only against the baseline's grid section at this sweep's n —
    // the combined baseline also carries the perf/serve sections and
    // grid sections at other sizes.
    let mut baseline = grid_section(&full);
    baseline.cases.retain(|c| c.n == artifact.n);
    if baseline.cases.is_empty() {
        eprintln!(
            "{baseline_path} has no grid-* cases at n={}; done",
            artifact.n
        );
        return;
    }
    let cmp = compare(&fresh, &baseline);
    print!("{}", render_comparison(&cmp));
    if !cmp.passed() {
        std::process::exit(1);
    }
}
