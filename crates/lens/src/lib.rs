//! cc-lens: a round-resolved communication observatory.
//!
//! The paper's whole game is bandwidth — `O(log log log n)` rounds only
//! matters because every link carries `O(log n)` bits per round — and
//! the limited-variant line (arXiv:1703.02743) asks what survives when
//! that budget shrinks. This crate answers the operational question
//! behind those bounds: *where does each algorithm actually spend its
//! per-link budget, round by round and phase by phase?*
//!
//! One event stream, three resolutions:
//!
//! 1. **Round** — [`CommLedger`] folds the model events every engine
//!    already emits (`RoundStart`/`MessageBatch`/`Fault`/`RoundEnd`)
//!    into per-round, per-link, and per-node word counts, utilization
//!    vs the active [`cc_model::ModelSpec`] budget (squeeze-aware), and
//!    broadcast/unicast mix.
//! 2. **Phase** — the `route:*`/`kt1-mst:*` scope events attribute every
//!    word to the innermost open phase.
//! 3. **Machine** — each batch is folded through a
//!    [`cc_model::MachineLedger`] under the spec's mapping, which makes
//!    this fold the one k-machine price: machine rounds, local/remote
//!    splits, and pair skew (the k-machine invariants are test-enforced
//!    on it).
//!
//! There is deliberately no second bookkeeping path: everything here is
//! derived, after the fact, from the one trace stream — the same
//! philosophy as `cc-obs`, one layer down.

mod ledger;
mod render;
mod report;

pub use ledger::{infer_n, CommLedger, LinkTotal, RoundComm, UNSCOPED};
pub use render::{links_report, render_heatmap, render_links_report};
pub use report::{comm_metrics, CommAggregate, CommReport, PhaseComm};
