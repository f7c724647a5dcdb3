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
//! * [`baseline`] — the versioned `BENCH_<stamp>.json` schema
//!   ([`PerfSuite`]), plus [`compare`](baseline::compare): zero-tolerance
//!   model-drift gating (rounds/messages/words) against a committed
//!   `BENCH_baseline.json`.
//! * [`diff`] — aligns two runs' model-event streams, pinpoints the first
//!   divergence (index, round, event), and tabulates per-phase cost and
//!   wall-time deltas: the debugging tool for backend-equivalence and
//!   chaos-replay failures.
//! * [`alloc`] (feature `count-allocs`) — a counting global allocator so
//!   `bench perf` can report allocations per case.
//!
//! The boundary `cc-trace` draws — model events deterministic per
//! protocol and seed, timing events not — is load-bearing everywhere
//! here: profiles split along it, and diffs and baselines compare only
//! the model half. See DESIGN.md §12.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "count-allocs")]
pub mod alloc;
pub mod baseline;
pub mod diff;
pub mod profile;

pub use baseline::{
    compare, render_comparison, CaseDelta, PerfCase, PerfComparison, PerfSuite, PERF_SCHEMA_VERSION,
};
pub use diff::{describe_event, diff_events, render_diff, Divergence, PhaseDelta, TraceDiff};
pub use profile::{
    profile_table, top_links, top_links_table, LinkStat, ModelPhase, ModelProfile, PhaseNode,
    Profile,
};
