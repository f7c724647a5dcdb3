//! Benchmark harness: regenerates every experiment table of the
//! reproduction (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured records).
//!
//! Run all tables with
//!
//! ```text
//! cargo run -p cc-bench --release --bin tables
//! cargo run -p cc-bench --release --bin tables -- e8      # one experiment
//! cargo run -p cc-bench --release --bin tables -- --quick # small sweeps
//! ```
//!
//! The `perf`, `loadgen` and `grid` binaries gate model costs against
//! the committed `BENCH_baseline.json`; wall-clock timing lives in the
//! standalone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments {
    //! One module per experiment group.
    pub mod extensions;
    pub mod extra;
    pub mod messages;
    pub mod robustness;
    pub mod sketching;
    pub mod time;
}
pub mod artifact;
pub mod claims;
pub mod grid;
pub mod loadgen;
pub mod perf;
pub mod table;
pub mod top;

pub use table::Table;

/// One registry row: `(id, generating function, quick-flag-passed)`.
pub type ExperimentEntry = (&'static str, fn(bool) -> Table, bool);

/// Every experiment, keyed by the ID used on the command line.
pub fn all_experiments(quick: bool) -> Vec<ExperimentEntry> {
    let _ = quick;
    vec![
        (
            "e1",
            experiments::time::e1_gc_rounds as fn(bool) -> Table,
            true,
        ),
        ("e2", experiments::time::e2_mst_rounds, true),
        ("e3", experiments::sketching::e3_sketch, true),
        ("e4", experiments::sketching::e4_reduce_components, true),
        ("e5", experiments::sketching::e5_kkt, true),
        ("e6", experiments::messages::e6_kt0, true),
        ("e7", experiments::messages::e7_kt1_family, true),
        ("e8", experiments::messages::e8_kt1_mst, true),
        ("e9", experiments::time::e9_bandwidth_ablation, true),
        ("e10a", experiments::extensions::e10_bipartiteness, true),
        ("e10b", experiments::extensions::e10_kecc, true),
        ("e11", experiments::messages::e11_time_encoding, true),
        ("e6c", experiments::extra::e6c_fooling_probability, true),
        ("e12", experiments::extra::e12_low_message_gc, true),
        ("e13", experiments::extra::e13_sketch_ablation, true),
        ("e14", experiments::extensions::e14_broadcast_model, true),
        ("e17", experiments::robustness::e17_robustness, true),
        ("e17b", experiments::robustness::e17b_whp_sweep, true),
        ("f1", experiments::extensions::f1_figure1, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id_once() {
        let exps = all_experiments(true);
        let mut ids: Vec<&str> = exps.iter().map(|&(id, _, _)| id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment IDs");
        assert!(ids.contains(&"e1") && ids.contains(&"f1"));
    }
}
