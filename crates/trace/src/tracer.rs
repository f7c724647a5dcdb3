//! The [`Tracer`] sink trait and the three stock sinks.
//!
//! Instrumented components (the `cc-net` simulator, the `cc-runtime`
//! driver) hold a `Box<dyn Tracer>` and cache [`Tracer::enabled`] /
//! [`Tracer::wants_timing`] as plain bools at attach time, so the
//! disabled path costs one branch per emission site — no virtual call, no
//! allocation, no clock read. The zero-overhead guarantee of
//! [`NullTracer`] rests on that caching (DESIGN.md §10).

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A trace-event sink.
///
/// `Send` so traced components stay `Send`; events are always delivered
/// from the driving thread (worker threads report timing out-of-band, see
/// [`crate::event::SpanTiming`]), so implementations need no internal
/// ordering logic.
pub trait Tracer: Send {
    /// Whether the sink wants events at all. Components cache this at
    /// attach time; returning `false` makes every emission site a single
    /// predictable branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether the sink wants wall-clock timing events. Components also
    /// cache this; returning `false` skips the clock reads entirely.
    fn wants_timing(&self) -> bool {
        self.enabled()
    }

    /// Receives one event.
    fn record(&mut self, event: Event);

    /// Receives one round's per-link traffic as `(src, dst, count,
    /// words)` rows, `(src, dst)`-sorted, one per link: the
    /// [`Event::MessageBatch`] events of `round`, handed over in one
    /// call. The engine calls this once per executed round, before the
    /// round's delivery-fault records and its `RoundEnd`.
    ///
    /// The default emits one `MessageBatch` per row, in row order, so a
    /// sink that only implements [`record`](Tracer::record) sees exactly
    /// the per-event stream. A sink that folds whole rounds (say, one
    /// that takes a lock per call) overrides it.
    fn record_batches(&mut self, round: u64, rows: &[(u32, u32, u32, u64)]) {
        for &(src, dst, count, words) in rows {
            self.record(Event::MessageBatch {
                round,
                src,
                dst,
                count,
                words,
            });
        }
    }

    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// The disabled sink: reports `enabled() == false` and drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}
}

/// An in-memory sink backed by a shared buffer.
///
/// Cloning yields a handle onto the *same* buffer, so callers keep a
/// handle, attach a clone to the network/runtime, and read the events
/// back after the run:
///
/// ```
/// use cc_trace::{Event, RecordingTracer, Tracer};
///
/// let rec = RecordingTracer::new();
/// let mut sink = rec.clone(); // attach this one to the component
/// sink.record(Event::RoundStart { round: 0 });
/// assert_eq!(rec.events().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RecordingTracer {
    events: Arc<Mutex<Vec<Event>>>,
}

impl RecordingTracer {
    /// A fresh, empty recording buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every recorded event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("tracer buffer poisoned").clone()
    }

    /// Only the deterministic model events (see [`Event::is_model`]) —
    /// the stream the serial/parallel equivalence tests compare.
    pub fn model_events(&self) -> Vec<Event> {
        self.events().into_iter().filter(Event::is_model).collect()
    }

    /// Drains the buffer, returning the events recorded so far.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("tracer buffer poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("tracer buffer poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Tracer for RecordingTracer {
    fn record(&mut self, event: Event) {
        self.events
            .lock()
            .expect("tracer buffer poisoned")
            .push(event);
    }
}

/// A streaming sink writing one compact JSON object per line (JSONL).
pub struct JsonlTracer<W: Write + Send> {
    out: W,
    /// Set on the first write error; surfaced by [`JsonlTracer::status`].
    error: Option<std::io::Error>,
}

impl JsonlTracer<BufWriter<File>> {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlTracer::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlTracer<W> {
    /// Streams events into `out`.
    pub fn new(out: W) -> Self {
        JsonlTracer { out, error: None }
    }

    /// The first write error, if any (writes are best-effort; a tracer
    /// must never abort the traced run).
    pub fn status(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> Tracer for JsonlTracer<W> {
    fn record(&mut self, event: Event) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json().emit();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
        assert!(!t.wants_timing());
    }

    #[test]
    fn recording_handle_shares_buffer() {
        let rec = RecordingTracer::new();
        assert!(rec.is_empty());
        let mut sink = rec.clone();
        sink.record(Event::RoundStart { round: 0 });
        sink.record(Event::NodeCompute {
            round: 0,
            node: 1,
            nanos: 10,
        });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.model_events().len(), 1);
        assert_eq!(rec.take_events().len(), 2);
        assert!(rec.is_empty());
    }

    #[test]
    fn record_batches_defaults_to_one_batch_event_per_row() {
        let rec = RecordingTracer::new();
        let mut sink = rec.clone();
        sink.record_batches(4, &[(0, 1, 2, 3), (2, 0, 1, 1)]);
        sink.record_batches(5, &[]);
        assert_eq!(
            rec.events(),
            [
                Event::MessageBatch {
                    round: 4,
                    src: 0,
                    dst: 1,
                    count: 2,
                    words: 3,
                },
                Event::MessageBatch {
                    round: 4,
                    src: 2,
                    dst: 0,
                    count: 1,
                    words: 1,
                },
            ]
        );
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let mut t = JsonlTracer::new(Vec::new());
        t.record(Event::ScopeExit {
            name: "p".into(),
            delta: Cost::default(),
        });
        t.record(Event::RoundEnd {
            round: 3,
            messages: 1,
            words: 2,
        });
        assert!(t.status().is_none());
        let text = String::from_utf8(t.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::Json::parse(line).unwrap();
        }
    }
}
