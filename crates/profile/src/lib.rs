//! `cc-profile`: performance observability on top of `cc-trace`.
//!
//! The paper's results are complexity *curves* — Theorem 4's
//! `O(log log log n)` MST rounds, Theorem 7's `o(m)` message bounds — and
//! the reproduction's north star demands the simulator run as fast as the
//! hardware allows. `cc-trace` records what happened; this crate answers
//! *how long it took, where, and whether it got slower*:
//!
//! * [`Profile`] — folds a run's [`Event`](cc_trace::Event) stream into a
//!   hierarchical phase tree with per-phase wall time (self/total split),
//!   node-program compute vs simulator overhead, and p50/p95/p99 compute
//!   quantiles from the log-scaled histogram digests. The model half of a
//!   profile ([`Profile::model_view`]) is a pure function of the model
//!   events, so the same run profiled on any engine yields an identical
//!   model view — test-enforced.
//! * [`diff`] — aligns two runs' model-event streams, pinpoints the first
//!   divergence (index, round, event), and tabulates per-phase cost and
//!   wall-time deltas: the debugging tool for backend-equivalence and
//!   chaos-replay failures.
//! * `alloc` (feature `count-allocs`) — a counting global allocator so
//!   `bench perf` can report allocations per case.
//!
//! The boundary `cc-trace` draws — model events deterministic per
//! protocol and seed, timing events not — is load-bearing everywhere
//! here: profiles split along it, and diffs compare only the model half.
//! The committed model record (`docs/`, see DESIGN.md §12) lives in
//! `cc-bench`, not here.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc;
pub mod diff;
pub mod profile;

pub use diff::{describe_event, diff_events, render_diff, Divergence, PhaseDelta, TraceDiff};
pub use profile::{profile_table, ModelPhase, ModelProfile, PhaseNode, Profile};
