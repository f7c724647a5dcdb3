//! `cc-trace`: structured tracing, metrics, and machine-readable run
//! artifacts for the Congested Clique reproduction.
//!
//! The paper's claims are entirely about metered quantities — rounds,
//! messages, words, bits (Theorems 4, 7, 13) — so every experiment should
//! leave an auditable trail of *where* those quantities accrued. This
//! crate is that trail's foundation, and it deliberately depends on
//! nothing: `cc-net` (and everything above it) depends on `cc-trace`, not
//! the other way around.
//!
//! * [`Event`] — typed events: round start/end, scope (phase)
//!   enter/exit, per-(src, dst) message batches, fast-forward jumps, and
//!   wall-clock compute spans. Model events are deterministic per
//!   protocol and seed; timing events are not ([`Event::is_model`]).
//! * [`Tracer`] — the sink trait, with [`NullTracer`] (disabled;
//!   zero-overhead by caching `enabled()` as a bool at attach time),
//!   [`RecordingTracer`] (shared in-memory buffer), and [`JsonlTracer`]
//!   (streaming JSONL file).
//! * [`MetricsRegistry`] — monotonic counters plus log-scaled
//!   [`LogHistogram`]s (per-link load, inbox sizes, per-round message
//!   counts), snapshotable as JSON.
//! * [`export`] — JSONL, Chrome trace-event JSON (load in Perfetto), and
//!   per-phase / per-node text tables.
//! * [`RunArtifact`] — the versioned JSON file format
//!   (`schema_version` = [`SCHEMA_VERSION`]) that `cc-bench` emits and
//!   `trace_report` consumes; text tables are rendered from it so the
//!   two views cannot drift.
//!
//! See DESIGN.md §10 for the schema documentation and the zero-overhead
//! guarantee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use artifact::{
    ClaimRecord, ExperimentRecord, PhaseBreakdown, RobustnessRecord, RunArtifact, WhpPoint,
    ROBUSTNESS_OUTCOMES, SCHEMA_VERSION,
};
pub use event::{CostSnapshot, Event, FaultKind, SpanTiming};
pub use json::Json;
pub use metrics::{
    metrics_from_events, HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot,
};
pub use tracer::{JsonlTracer, NullTracer, RecordingTracer, Tracer};
