//! The committed `BENCH_baseline.json` parses at the current schema,
//! validates, and covers every case the three gating binaries emit — so
//! a suite edit without a baseline refresh fails here, not in CI's gate.

use cc_bench::perf::{case_key, case_keys, Large};
use cc_profile::{PerfSuite, PERF_SCHEMA_VERSION};

fn committed() -> PerfSuite {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("read the committed baseline");
    PerfSuite::from_json_str(&text).expect("the committed baseline parses")
}

#[test]
fn committed_baseline_validates_and_covers_every_gated_case() {
    let suite = committed();
    assert_eq!(suite.schema_version, PERF_SCHEMA_VERSION);
    suite.validate().expect("the committed baseline validates");

    let keys: Vec<String> = suite.cases.iter().map(case_key).collect();
    for key in case_keys(false, Large::Full) {
        assert!(keys.contains(&key), "perf case {key} missing");
    }
    for id in ["serve-load", "serve-cold", "serve-cache"] {
        assert!(
            suite.cases.iter().any(|c| c.id == id),
            "loadgen case {id} missing"
        );
    }
    let grid_rows = |n: u64| {
        suite
            .cases
            .iter()
            .filter(|c| c.id.starts_with("grid-") && c.n == n)
            .count()
    };
    assert_eq!(grid_rows(16), 8 * 3, "quick grid: 8 cells × 3 algorithms");
    assert_eq!(grid_rows(32), 18 * 3, "full grid: 18 cells × 3 algorithms");
}
