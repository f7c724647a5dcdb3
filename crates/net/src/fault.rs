//! Fault-injection interposition points.
//!
//! The simulator itself stays fault-free by default; a driver may attach
//! a [`FaultInjector`] (see [`CliqueNet::set_fault_injector`]) and every
//! staged message then passes through [`apply_faults`] *after* being
//! metered but *before* delivery. The split matters for the model's
//! accounting: a dropped or corrupted message was still **sent** — it
//! consumed its link budget and counts toward the word/message totals —
//! only its delivery is perturbed. Crashes and bandwidth squeezes are
//! separate hooks consulted at the top of each round.
//!
//! Determinism contract: an injector's answers must be pure functions of
//! `(round, src, dst, index)` (for per-message decisions), `(round,
//! node)` (for crashes), and `round` (for squeezes) — no interior
//! mutability, no iteration-order dependence. Under that contract the
//! same plan replays byte-identically however a round's callbacks run —
//! [`CliqueNet::step`] or the worker threads behind
//! [`CliqueNet::step_staged`] — which the cross-backend equivalence tests
//! enforce. The `cc-chaos` crate provides the declarative plan → injector
//! implementation; this module only defines the seam.
//!
//! [`CliqueNet::set_fault_injector`]: crate::CliqueNet::set_fault_injector
//! [`CliqueNet::step`]: crate::CliqueNet::step
//! [`CliqueNet::step_staged`]: crate::CliqueNet::step_staged

use crate::net::Envelope;
use crate::wire::Wire;
use cc_trace::{Event, FaultKind};
use std::collections::BTreeMap;

/// What happens to one staged message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally (the overwhelmingly common answer).
    Deliver,
    /// Silently discard the message (it was still metered).
    Drop,
    /// Deliver two copies back to back.
    Duplicate,
    /// Flip one payload bit (selected by `bit`, reduced modulo the
    /// payload's capacity by [`Wire::corrupt_bit`]). If the payload type
    /// cannot express a flip, the message is dropped instead — the
    /// corruption is recorded either way.
    Corrupt {
        /// Bit selector handed to [`Wire::corrupt_bit`].
        bit: u64,
    },
    /// Deliver `rounds` (≥ 1, clamped) rounds later than normal.
    Defer {
        /// Extra rounds of delay beyond the normal next-round delivery.
        rounds: u64,
    },
}

/// A source of fault decisions, consulted by the execution engines.
///
/// Every method has a benign default, so a no-op injector is
/// `struct NoFaults; impl FaultInjector for NoFaults {}`. Implementations
/// must be deterministic (see the [module docs](self)) and `Send + Sync`
/// so the parallel backend's workers can consult one injector
/// concurrently.
pub trait FaultInjector: Send + Sync {
    /// The fate of the `index`-th message staged by `src` **to `dst`**
    /// this `round` (indices count the sends on one directed link in
    /// order, starting at 0 each round).
    ///
    /// Indices are per-link rather than per-sender on purpose: an
    /// algorithm that iterates its destinations in a container-dependent
    /// order still produces the same per-link send sequences, so fault
    /// decisions — and therefore whole harness runs — replay across
    /// processes, not just across engines.
    fn decision(&self, round: u64, src: usize, dst: usize, index: u32) -> FaultDecision {
        let _ = (round, src, dst, index);
        FaultDecision::Deliver
    }

    /// Whether `node` is fail-stop crashed in `round`. Must be monotone:
    /// once `true` for some round, `true` for every later round.
    fn crashed(&self, round: u64, node: usize) -> bool {
        let _ = (round, node);
        false
    }

    /// A per-link word budget override for `round` (a bandwidth
    /// squeeze). Only caps below the configured budget take effect —
    /// faults can shrink the model's bandwidth, never grow it.
    fn link_words(&self, round: u64) -> Option<u64> {
        let _ = round;
        None
    }
}

/// The injector that never injects (useful as an explicit default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// One injected fault, recorded for the trace stream.
///
/// Converted to [`Event::Fault`] by [`FaultRecord::to_event`]; engines
/// emit the round's records after its `MessageBatch` events, ordered by
/// `(src, index)` — the order [`apply_faults`] produces when invoked per
/// node in ID order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Round the faulted message was sent in.
    pub round: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Sender of the affected message.
    pub src: u32,
    /// Addressee of the affected message.
    pub dst: u32,
    /// The link's per-round send index of the affected message (the
    /// position among `src → dst` sends this round).
    pub index: u32,
    /// Kind-specific detail: defer delay in rounds, corrupt bit
    /// selector, or squeezed budget; 0 otherwise.
    pub info: u64,
}

impl FaultRecord {
    /// The trace event this record corresponds to.
    pub fn to_event(&self) -> Event {
        Event::Fault {
            round: self.round,
            kind: self.kind,
            src: self.src,
            dst: self.dst,
            index: self.index,
            info: self.info,
        }
    }
}

/// The result of passing staged messages through an injector.
#[derive(Clone, Debug)]
pub struct FaultOutcome<M> {
    /// Envelopes to deliver next round (post-drop/duplicate/corrupt).
    pub deliver: Vec<Envelope<M>>,
    /// Envelopes to deliver in a later round: `(delivery_round, env)`.
    pub deferred: Vec<(u64, Envelope<M>)>,
    /// What was injected, in `(src, index)` order.
    pub records: Vec<FaultRecord>,
}

/// Applies `injector`'s per-message decisions to messages staged in
/// `round` (normal delivery would be in `round + 1`).
///
/// `staged` is typically one sender's sends, in send order; per-link
/// indices are tracked internally so callers may also pass several
/// senders' sends concatenated in (node, send) order. Metering is the
/// caller's job and must happen *before* this call (see the
/// [module docs](self)).
pub fn apply_faults<M: Wire + Clone>(
    injector: &dyn FaultInjector,
    round: u64,
    staged: Vec<Envelope<M>>,
) -> FaultOutcome<M> {
    let mut out = FaultOutcome {
        deliver: Vec::with_capacity(staged.len()),
        deferred: Vec::new(),
        records: Vec::new(),
    };
    let mut next_index: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for mut env in staged {
        let slot = next_index.entry((env.src, env.dst)).or_insert(0);
        let index = *slot;
        *slot += 1;
        let record = |kind: FaultKind, info: u64| FaultRecord {
            round,
            kind,
            src: env.src as u32,
            dst: env.dst as u32,
            index,
            info,
        };
        match injector.decision(round, env.src, env.dst, index) {
            FaultDecision::Deliver => out.deliver.push(env),
            FaultDecision::Drop => out.records.push(record(FaultKind::Drop, 0)),
            FaultDecision::Duplicate => {
                out.records.push(record(FaultKind::Duplicate, 0));
                out.deliver.push(env.clone());
                out.deliver.push(env);
            }
            FaultDecision::Corrupt { bit } => {
                out.records.push(record(FaultKind::Corrupt, bit));
                if env.msg.corrupt_bit(bit) {
                    out.deliver.push(env);
                }
                // else: the payload has no flippable bits — degrade to a
                // drop (already recorded as a corruption).
            }
            FaultDecision::Defer { rounds } => {
                let delay = rounds.max(1);
                out.records.push(record(FaultKind::Defer, delay));
                out.deferred.push((round + 1 + delay, env));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, dst: usize, msg: u64) -> Envelope<u64> {
        Envelope { src, dst, msg }
    }

    /// Scripted injector: decisions keyed by (src, dst, index).
    struct Script(BTreeMap<(usize, usize, u32), FaultDecision>);

    impl FaultInjector for Script {
        fn decision(&self, _round: u64, src: usize, dst: usize, index: u32) -> FaultDecision {
            self.0
                .get(&(src, dst, index))
                .copied()
                .unwrap_or(FaultDecision::Deliver)
        }
    }

    #[test]
    fn no_faults_delivers_everything_unchanged() {
        let staged = vec![env(0, 1, 7), env(0, 2, 8)];
        let out = apply_faults(&NoFaults, 3, staged.clone());
        assert_eq!(out.deliver, staged);
        assert!(out.deferred.is_empty() && out.records.is_empty());
    }

    #[test]
    fn drop_duplicate_defer_and_corrupt_each_do_their_thing() {
        let script = Script(BTreeMap::from([
            ((0, 1, 0), FaultDecision::Drop),
            ((0, 2, 0), FaultDecision::Duplicate),
            ((0, 3, 0), FaultDecision::Corrupt { bit: 5 }),
            ((0, 4, 0), FaultDecision::Defer { rounds: 2 }),
        ]));
        let staged = vec![env(0, 1, 10), env(0, 2, 20), env(0, 3, 30), env(0, 4, 40)];
        let out = apply_faults(&script, 7, staged);
        assert_eq!(
            out.deliver,
            vec![env(0, 2, 20), env(0, 2, 20), env(0, 3, 30 ^ (1 << 5))]
        );
        assert_eq!(out.deferred, vec![(10, env(0, 4, 40))]);
        let kinds: Vec<FaultKind> = out.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Drop,
                FaultKind::Duplicate,
                FaultKind::Corrupt,
                FaultKind::Defer
            ]
        );
        assert_eq!(out.records[3].info, 2, "defer info is the delay");
        assert!(out.records.iter().all(|r| r.round == 7));
    }

    #[test]
    fn indices_count_per_link_sends_in_order() {
        let script = Script(BTreeMap::from([((2, 0, 1), FaultDecision::Drop)]));
        // Neither sender 1's send nor sender 2's send on a *different*
        // link advances the (2, 0) link index.
        let staged = vec![env(2, 0, 1), env(1, 0, 2), env(2, 3, 9), env(2, 0, 3)];
        let out = apply_faults(&script, 0, staged);
        assert_eq!(out.deliver, vec![env(2, 0, 1), env(1, 0, 2), env(2, 3, 9)]);
        assert_eq!(out.records.len(), 1);
        assert_eq!((out.records[0].src, out.records[0].index), (2, 1));
    }

    #[test]
    fn corrupting_an_unflippable_payload_degrades_to_a_recorded_drop() {
        struct CorruptAll;
        impl FaultInjector for CorruptAll {
            fn decision(&self, _r: u64, _s: usize, _d: usize, _i: u32) -> FaultDecision {
                FaultDecision::Corrupt { bit: 9 }
            }
        }
        let staged = vec![Envelope {
            src: 0,
            dst: 1,
            msg: (),
        }];
        let out = apply_faults(&CorruptAll, 0, staged);
        assert!(out.deliver.is_empty(), "unflippable payload dropped");
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].kind, FaultKind::Corrupt);
    }

    #[test]
    fn defer_of_zero_rounds_still_delays_by_one() {
        struct DeferZero;
        impl FaultInjector for DeferZero {
            fn decision(&self, _r: u64, _s: usize, _d: usize, _i: u32) -> FaultDecision {
                FaultDecision::Defer { rounds: 0 }
            }
        }
        let out = apply_faults(&DeferZero, 4, vec![env(0, 1, 1)]);
        assert_eq!(out.deferred[0].0, 6, "round 4 send lands in round 6");
        assert_eq!(out.records[0].info, 1);
    }

    #[test]
    fn records_convert_to_model_events() {
        let rec = FaultRecord {
            round: 2,
            kind: FaultKind::Defer,
            src: 1,
            dst: 3,
            index: 0,
            info: 4,
        };
        let ev = rec.to_event();
        assert!(ev.is_model());
        assert_eq!(ev.kind(), "fault");
    }
}
