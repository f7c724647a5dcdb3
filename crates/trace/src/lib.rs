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
//! * [`Cost`] — rounds, messages, words and bits: the simulator's
//!   running totals and every scope delta an event carries.
//! * [`Event`] — typed events: round start/end, scope (phase)
//!   enter/exit, per-(src, dst) message batches, fast-forward jumps, and
//!   wall-clock compute spans. Model events are deterministic per
//!   protocol and seed; timing events are not ([`Event::is_model`]).
//! * [`Tracer`] — the sink trait, with [`NullTracer`] (disabled;
//!   zero-overhead by caching `enabled()` as a bool at attach time),
//!   [`RecordingTracer`] (shared in-memory buffer), and [`JsonlTracer`]
//!   (streaming JSONL file).
//! * [`MetricsRegistry`] — monotonic counters plus log-scaled
//!   [`LogHistogram`]s, built directly and snapshotable as JSON. The
//!   traffic views of a recorded stream are `cc-lens`'s `CommLedger`
//!   fold, and its phase views are `cc-profile`'s `Profile`.
//! * [`export`] — JSONL and Chrome trace-event JSON (load in Perfetto).
//! * [`RunArtifact`] — the versioned JSON file format
//!   (`schema_version` = [`SCHEMA_VERSION`]) that `cc-bench` and
//!   `cc-serve` emit and `trace_report` consumes: metadata, tables and
//!   metrics snapshots. Every table is an [`ExperimentRecord`], the same
//!   value the harness prints, so the text and the JSON cannot drift.
//!
//! See DESIGN.md §10 for the schema documentation and the zero-overhead
//! guarantee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cost;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use artifact::{ExperimentRecord, RunArtifact, SCHEMA_VERSION};
pub use cost::Cost;
/// [`Cost`] under its former name, which the `benchmark/` package still
/// uses.
pub use cost::Cost as CostSnapshot;
pub use event::{Event, FaultKind, SpanTiming};
pub use json::Json;
pub use metrics::{HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use tracer::{JsonlTracer, NullTracer, RecordingTracer, Tracer};
