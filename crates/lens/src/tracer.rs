//! [`LedgerTracer`]: the [`CommLedger`] fold as a live [`Tracer`].

use crate::ledger::{CommLedger, LinkRow};
use cc_model::{ModelError, ModelSpec};
use cc_trace::{Event, Tracer};
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`Tracer`] that folds each event into one shared [`CommLedger`] as
/// it arrives, so a traced run never holds its event stream in memory.
/// A round's batches arrive as one row slice
/// ([`Tracer::record_batches`]), so the fold takes its lock a few times
/// per round, not once per link.
///
/// Cloning yields a handle onto the same ledger: attach one clone to the
/// engine and keep one to [`finish`](LedgerTracer::finish) after the run.
/// The first fold error sticks and every later event is ignored.
///
/// ```
/// use cc_lens::LedgerTracer;
/// use cc_model::ModelSpec;
/// use cc_trace::{Event, Tracer};
///
/// let fold = LedgerTracer::new(4, &ModelSpec::clique()).unwrap();
/// let mut sink = fold.clone(); // attach this one to the engine
/// sink.record(Event::RoundStart { round: 0 });
/// sink.record(Event::MessageBatch { round: 0, src: 0, dst: 1, count: 1, words: 2 });
/// sink.record(Event::RoundEnd { round: 0, messages: 1, words: 2 });
/// drop(sink);
/// assert_eq!(fold.finish().unwrap().words(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LedgerTracer {
    fold: Arc<Mutex<Fold>>,
}

#[derive(Clone, Debug)]
struct Fold {
    ledger: CommLedger,
    error: Option<ModelError>,
}

impl LedgerTracer {
    /// A live fold for an `n`-node run under `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`CommLedger::new`].
    pub fn new(n: usize, spec: &ModelSpec) -> Result<Self, ModelError> {
        Ok(LedgerTracer {
            fold: Arc::new(Mutex::new(Fold {
                ledger: CommLedger::new(n, spec)?,
                error: None,
            })),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Fold> {
        // `CommLedger::record` does not panic on any event, so a poisoned
        // lock means a bug in the fold itself.
        self.fold.lock().expect("ledger tracer poisoned")
    }

    /// The folded ledger. If another handle is still alive (say, still
    /// attached to an engine), the ledger as folded so far is copied out.
    ///
    /// # Errors
    ///
    /// The first error [`CommLedger::record`] returned.
    pub fn finish(self) -> Result<CommLedger, ModelError> {
        let fold = match Arc::try_unwrap(self.fold) {
            Ok(only) => only.into_inner().expect("ledger tracer poisoned"),
            Err(shared) => shared.lock().expect("ledger tracer poisoned").clone(),
        };
        match fold.error {
            Some(error) => Err(error),
            None => Ok(fold.ledger),
        }
    }
}

impl Tracer for LedgerTracer {
    fn wants_timing(&self) -> bool {
        // The ledger folds model events only; skip the clock reads.
        false
    }

    fn record(&mut self, event: Event) {
        self.lock().fold(|ledger| ledger.record(&event));
    }

    fn record_batches(&mut self, _round: u64, rows: &[LinkRow]) {
        // One lock per round, not per link.
        self.lock().fold(|ledger| ledger.record_batches(rows));
    }
}

impl Fold {
    /// Applies `step` unless an earlier step failed; keeps its error.
    fn fold(&mut self, step: impl FnOnce(&mut CommLedger) -> Result<(), ModelError>) {
        if self.error.is_none() {
            if let Err(error) = step(&mut self.ledger) {
                self.error = Some(error);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(src: u32, dst: u32) -> Event {
        Event::MessageBatch {
            round: 0,
            src,
            dst,
            count: 1,
            words: 1,
        }
    }

    #[test]
    fn the_first_fold_error_sticks() {
        let fold = LedgerTracer::new(4, &ModelSpec::clique()).unwrap();
        let mut sink = fold.clone();
        sink.record(Event::RoundStart { round: 0 });
        sink.record(batch(0, 1));
        sink.record(batch(0, 4));
        // Ignored: the fold already failed.
        sink.record(batch(1, 2));
        sink.record(Event::RoundEnd {
            round: 0,
            messages: 3,
            words: 3,
        });
        assert_eq!(
            fold.clone().finish().unwrap_err(),
            ModelError::NodeOutOfRange { node: 4, n: 4 }
        );
        drop(sink);
        assert!(fold.finish().is_err());
    }

    #[test]
    fn a_row_slice_outside_the_clique_sticks_too() {
        let fold = LedgerTracer::new(4, &ModelSpec::clique()).unwrap();
        let mut sink = fold.clone();
        sink.record(Event::RoundStart { round: 0 });
        sink.record_batches(0, &[(0, 1, 1, 1), (2, 7, 1, 1), (3, 0, 1, 1)]);
        sink.record_batches(0, &[(1, 2, 1, 1)]);
        drop(sink);
        assert_eq!(
            fold.finish().unwrap_err(),
            ModelError::NodeOutOfRange { node: 7, n: 4 }
        );
    }

    #[test]
    fn finish_with_a_live_handle_copies_the_fold_so_far() {
        let fold = LedgerTracer::new(2, &ModelSpec::clique()).unwrap();
        let mut sink = fold.clone();
        assert!(!sink.wants_timing());
        sink.record(Event::RoundStart { round: 0 });
        sink.record_batches(0, &[(0, 1, 1, 1)]);
        sink.record(Event::RoundEnd {
            round: 0,
            messages: 1,
            words: 1,
        });
        // A round counts once it closes: the open one is not in the copy.
        sink.record(Event::RoundStart { round: 1 });
        sink.record(batch(1, 0));
        assert_eq!(fold.finish().unwrap().messages(), 1);
        sink.record(batch(1, 0));
    }
}
