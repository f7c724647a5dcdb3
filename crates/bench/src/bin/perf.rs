//! `bench perf`: runs the fixed perf suite, writes a dated
//! `BENCH_<stamp>.json`, and gates its model columns against a committed
//! baseline.
//!
//! ```text
//! cargo run -p cc-bench --release --bin perf -- --quick --ignore-missing
//! cargo run -p cc-bench --release --bin perf -- --large --write-baseline BENCH_baseline.json
//! cargo run -p cc-bench --release --bin perf -- --gate-only CUR.json --baseline BASE.json
//! ```
//!
//! Flags:
//!
//! * `--quick` — the CI-sized suite (smaller `n`).
//! * `--large` — also run the large-`n` scaling entries (`route-a2a` and
//!   `gc-sketch` at `n ∈ {2048, 4096}`, `sketch-build` at
//!   `n ∈ {16384, 65536}`; seconds per case).
//! * `--large-smoke` — also run just the `route-a2a` `n = 2048` and
//!   `sketch-build` `n = 16384` entries (the CI scaling smoke).
//! * `--filter PATTERNS` — gate only cases whose `id/backend/n=N` key
//!   contains one of the comma-separated patterns (applied to both the
//!   fresh suite and the baseline; the written artifact is unfiltered).
//! * `--list` — print the case keys this invocation would run (honoring
//!   `--quick`/`--large`/`--large-smoke`) without running anything.
//! * `--ignore-missing` — don't fail the gate over baseline cases this
//!   run did not execute (e.g. gating a `--quick` run against a baseline
//!   that also carries the large entries).
//! * `--out PATH` — where to write the dated artifact (default
//!   `BENCH_<stamp>.json` in the working directory; `-` skips writing).
//! * `--baseline PATH` — baseline to gate against (default
//!   `BENCH_baseline.json` when it exists; no baseline → no gate). A
//!   measured run is gated against the baseline's perf section only (not
//!   its `serve-*` or `grid-*` cases).
//! * `--write-baseline PATH` — also write the fresh results to PATH
//!   (refreshing the committed baseline).
//! * `--gate-only CUR.json` — skip measuring; replay a saved suite
//!   against the whole baseline. This is how the gate itself is tested.
//!
//! Exit codes: 0 ok, 1 model drift or a missing case, 2 usage or I/O
//! error.

use cc_bench::perf::{case_keys, filter_cases, perf_section, run_suite_with, stamp_name, Large};
use cc_profile::{compare, render_comparison, PerfSuite};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: cc_profile::alloc::CountingAlloc = cc_profile::alloc::CountingAlloc;

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
    let ignore_missing = args.iter().any(|a| a == "--ignore-missing");
    let large = if args.iter().any(|a| a == "--large") {
        Large::Full
    } else if args.iter().any(|a| a == "--large-smoke") {
        Large::Smoke
    } else {
        Large::Off
    };

    if args.iter().any(|a| a == "--list") {
        // Print the case keys this invocation *would* run (so `--filter`
        // patterns can be written against the real keys) and exit.
        for key in case_keys(quick, large) {
            println!("{key}");
        }
        return;
    }

    let suite: PerfSuite = match value_of(&args, "--gate-only") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        }
        None => {
            eprintln!(
                "running perf suite ({} mode, large={large:?})...",
                if quick { "quick" } else { "full" }
            );
            run_suite_with(quick, large)
        }
    };
    if let Err(problems) = suite.validate() {
        fail(&format!("suite failed validation: {problems:?}"));
    }

    let measuring = !args.iter().any(|a| a == "--gate-only");
    if measuring {
        let out = value_of(&args, "--out").unwrap_or_else(|| stamp_name(suite.created_unix));
        if out != "-" {
            std::fs::write(&out, suite.to_json_string())
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            eprintln!("wrote {out}");
        }
        if let Some(path) = value_of(&args, "--write-baseline") {
            std::fs::write(&path, suite.to_json_string())
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("wrote baseline {path}");
        }
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
    let mut baseline =
        PerfSuite::from_json_str(&text).unwrap_or_else(|e| fail(&format!("{baseline_path}: {e}")));
    if measuring {
        // A fresh run only produces perf cases; the serve and grid
        // sections of a combined baseline are gated by their own binaries.
        baseline = perf_section(&baseline);
    }

    let mut gated = suite;
    if let Some(patterns) = value_of(&args, "--filter") {
        // Zero matches on the fresh suite is a usage error and lists the
        // valid keys; an empty *baseline* selection only means the
        // baseline predates these cases, which `compare` reports.
        filter_cases(&mut gated, &patterns).unwrap_or_else(|e| fail(&e));
        let _ = filter_cases(&mut baseline, &patterns);
    }
    let cmp = compare(&gated, &baseline);
    print!("{}", render_comparison(&cmp));
    if !cmp.regressions().is_empty() || (!ignore_missing && !cmp.missing.is_empty()) {
        std::process::exit(1);
    }
}
