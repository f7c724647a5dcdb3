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
//! Every deterministic model number the harness prints is committed
//! under `docs/` — `tables`, `verify_claims`, `perf` and `grid` output,
//! written by `scripts/model_record.sh` — and CI diffs a fresh run
//! against it. Wall-clock timing lives in the standalone `benchmark/`
//! package.

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
pub mod cli;
pub mod grid;
pub mod loadgen;
pub mod perf;
pub mod table;
pub mod top;

pub use table::Table;

/// One registry row: `(id, generating function)`; the function takes the
/// `quick` flag.
pub type ExperimentEntry = (&'static str, fn(bool) -> Table);

/// Every experiment, keyed by the ID used on the command line, in the
/// order `tables` prints them.
pub fn all_experiments() -> Vec<ExperimentEntry> {
    use experiments::*;
    vec![
        ("e1", time::e1_gc_rounds),
        ("e2", time::e2_mst_rounds),
        ("e3", sketching::e3_sketch),
        ("e4", sketching::e4_reduce_components),
        ("e5", sketching::e5_kkt),
        ("e6", messages::e6_kt0),
        ("e7", messages::e7_kt1_family),
        ("e8", messages::e8_kt1_mst),
        ("e9", time::e9_bandwidth_ablation),
        ("e10a", extensions::e10_bipartiteness),
        ("e10b", extensions::e10_kecc),
        ("e11", messages::e11_time_encoding),
        ("e6c", extra::e6c_fooling_probability),
        ("e12", extra::e12_low_message_gc),
        ("e13", extra::e13_sketch_ablation),
        ("e14", extensions::e14_broadcast_model),
        ("e17", robustness::e17_robustness),
        ("e17b", robustness::e17b_whp_sweep),
        ("f1", extensions::f1_figure1),
    ]
}

/// The registry entries named by `ids` (every entry when `ids` is
/// empty), in registry order. Errors on any unknown ID, naming it and
/// listing every known one.
pub fn select_experiments(ids: &[String]) -> Result<Vec<ExperimentEntry>, String> {
    let all = all_experiments();
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|w| !all.iter().any(|&(id, _)| id == *w))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = all.iter().map(|&(id, _)| id).collect();
        return Err(format!(
            "unknown experiment id(s): {}; known: {}",
            unknown.join(" "),
            known.join(" ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|&(id, _)| ids.is_empty() || ids.iter().any(|w| w == id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id_once() {
        let exps = all_experiments();
        let mut ids: Vec<&str> = exps.iter().map(|&(id, _)| id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment IDs");
        assert!(ids.iter().all(|id| *id == id.to_lowercase()));

        let pick = |ids: &[&str]| {
            select_experiments(&ids.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(pick(&[]).unwrap().len(), before);
        let picked: Vec<&str> = pick(&["f1", "e17b", "e1"])
            .unwrap()
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(picked, ["e1", "e17b", "f1"], "registry order");
        // One unknown ID fails the whole selection, and the error lists
        // every registered ID.
        let err = pick(&["e1", "bogus"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        for id in ids {
            assert!(err.split(' ').any(|w| w == id), "{id} not listed: {err}");
        }
    }
}
