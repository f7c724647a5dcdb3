//! Reusable send-time budget enforcement.
//!
//! The model's rules — destination validity, the broadcast-only
//! restriction, and the per-link per-round word budget — were originally
//! private to [`CliqueNet::step`](crate::CliqueNet::step). They live here
//! as standalone pieces so alternative drivers (notably the parallel
//! execution engine in `cc-runtime`) enforce *exactly* the same contract:
//! [`SendRules`] binds a [`cc_model::ModelSpec`] to a clique size and a
//! round, and [`LinkUse`] is the per-sender scratch ledger of messages
//! and words already charged toward each destination this round — the
//! same ledger the net meters its costs and trace batches from.
//!
//! [`LinkUse`] is deliberately not thread-safe: every sender's budget is
//! independent, so a parallel driver gives each worker its own ledger and
//! resets it between nodes — budget enforcement needs no locks.

use cc_model::{LinkMode, ModelSpec};

use crate::config::NetConfig;
use crate::error::NetError;

/// The immutable per-round send rules of one network: a model spec bound
/// to a clique size and stamped with the round it is enforcing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRules {
    /// Clique size.
    pub n: usize,
    /// The model spec admission is checked against (bandwidth and link
    /// mode; the mapping rides along untouched — it never changes what a
    /// *logical* send is allowed to do).
    pub model: ModelSpec,
    /// The 0-based round these rules are enforcing (attached to budget
    /// errors so a violation names the round it happened in).
    pub round: u64,
}

impl SendRules {
    /// Extracts the rules a config implies (round 0; see [`for_round`]).
    ///
    /// [`for_round`]: SendRules::for_round
    pub fn from_config(cfg: &NetConfig) -> Self {
        SendRules {
            n: cfg.n,
            model: cfg.model(),
            round: 0,
        }
    }

    /// Whether only [`broadcast`](crate::Outbox::broadcast) is permitted
    /// (the paper's footnote-1 model variant).
    pub fn broadcast_only(&self) -> bool {
        self.model.link_mode == LinkMode::BroadcastOnly
    }

    /// Words each ordered link may carry per round.
    pub fn link_words(&self) -> u64 {
        self.model.bandwidth_words_per_link
    }

    /// The same rules stamped with the round they are enforcing.
    #[must_use]
    pub fn for_round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// The same rules with the per-link budget lowered to
    /// `cap.min(self.link_words())` (a fault-injection bandwidth squeeze
    /// can only shrink the budget, never grow it).
    #[must_use]
    pub fn with_link_words_capped(mut self, cap: u64) -> Self {
        self.model.bandwidth_words_per_link = self.model.bandwidth_words_per_link.min(cap.max(1));
        self
    }

    /// Validates one point-to-point send of `words` words from `src` to
    /// `dst` given `used` words already charged toward `dst` this round.
    ///
    /// Returns the number of words to charge (`words.max(1)`: even an
    /// empty signal occupies a message slot).
    ///
    /// # Errors
    ///
    /// The same violations [`Outbox::send`](crate::Outbox::send)
    /// documents: [`NetError::UnicastInBroadcastModel`],
    /// [`NetError::BadDestination`], [`NetError::SelfMessage`],
    /// [`NetError::MessageTooLarge`], [`NetError::LinkBusy`].
    #[inline]
    pub fn validate(&self, src: usize, dst: usize, words: u64, used: u64) -> Result<u64, NetError> {
        let words = words.max(1);
        let budget = self.link_words();
        // Accepted iff no rule `violation` checks is broken; `words <=
        // budget` goes first, so the sum cannot overflow where `violation`
        // would not have summed either.
        if !self.broadcast_only()
            && dst < self.n
            && dst != src
            && words <= budget
            && used + words <= budget
        {
            Ok(words)
        } else {
            Err(self.violation(src, dst, words, used))
        }
    }

    /// The error [`validate`](Self::validate) reports for a send it
    /// refused, checked in order of precedence. Kept out of line: the
    /// accept path runs once per message, this once per failed run.
    #[cold]
    #[inline(never)]
    fn violation(&self, src: usize, dst: usize, words: u64, used: u64) -> NetError {
        if self.broadcast_only() {
            return NetError::UnicastInBroadcastModel {
                round: self.round,
                src,
                dst,
            };
        }
        if dst >= self.n {
            return NetError::BadDestination {
                src,
                dst,
                n: self.n,
            };
        }
        if dst == src {
            return NetError::SelfMessage { node: src };
        }
        let budget = self.link_words();
        if words > budget {
            return NetError::MessageTooLarge {
                round: self.round,
                src,
                dst,
                words,
                budget,
            };
        }
        debug_assert!(used + words > budget, "only a refused send gets here");
        NetError::LinkBusy {
            round: self.round,
            src,
            dst,
            used,
            requested: words,
            budget,
        }
    }
}

/// One sender's per-destination ledger for the current round: the
/// messages and words it has charged toward each destination.
///
/// The ledger is the net's one meter. The budget check reads its words;
/// [`CliqueNet`](crate::CliqueNet) takes the sender's [`Cost`] increments
/// and, when tracing, its `MessageBatch` rows from it in the pass that
/// clears it ([`drain`](Self::drain)). Clearing costs `O(destinations
/// touched)`, not `O(n)`, so a driver can reuse one ledger across all
/// nodes of a round (or one per worker thread) without quadratic
/// clearing cost.
///
/// [`Cost`]: crate::Cost
#[derive(Clone, Debug)]
pub struct LinkUse {
    /// `(messages, words)` charged toward each destination.
    used: Vec<(u32, u64)>,
    /// Destinations charged since the last clear, unsorted.
    touched: Vec<usize>,
}

impl LinkUse {
    /// A fresh ledger for an `n`-node clique.
    pub fn new(n: usize) -> Self {
        LinkUse {
            used: vec![(0, 0); n],
            touched: Vec::new(),
        }
    }

    /// Words already charged toward `dst`.
    #[inline]
    pub fn used(&self, dst: usize) -> u64 {
        self.used[dst].1
    }

    /// Charges one message of `words` words toward `dst`.
    #[inline]
    pub fn charge(&mut self, dst: usize, words: u64) {
        let slot = &mut self.used[dst];
        if slot.0 == 0 {
            self.touched.push(dst);
        }
        slot.0 += 1;
        slot.1 += words;
    }

    /// Clears the ledger for the next sender and returns what `src`
    /// charged: `(messages, words)`. With `rows`, also appends one
    /// `(src, dst, messages, words)` row per destination charged, in
    /// destination order.
    #[inline]
    pub fn drain(
        &mut self,
        src: usize,
        mut rows: Option<&mut Vec<(u32, u32, u32, u64)>>,
    ) -> (u64, u64) {
        if rows.is_some() {
            self.touched.sort_unstable();
        }
        let (mut messages, mut words) = (0u64, 0u64);
        for dst in self.touched.drain(..) {
            let (count, w) = std::mem::take(&mut self.used[dst]);
            messages += u64::from(count);
            words += w;
            if let Some(rows) = rows.as_deref_mut() {
                rows.push((src as u32, dst as u32, count, w));
            }
        }
        (messages, words)
    }

    /// Clears the ledger for the next sender, discarding its charges.
    #[inline]
    pub fn reset(&mut self) {
        self.drain(0, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(n: usize, link_words: u64) -> SendRules {
        SendRules {
            n,
            model: ModelSpec::clique().with_bandwidth(link_words),
            round: 0,
        }
    }

    #[test]
    fn validates_the_happy_path_and_charges_at_least_one_word() {
        let r = rules(4, 8);
        assert_eq!(r.validate(0, 1, 3, 0), Ok(3));
        assert_eq!(
            r.validate(0, 1, 0, 0),
            Ok(1),
            "empty signal still occupies a slot"
        );
    }

    #[test]
    fn rejects_bad_targets() {
        let r = rules(4, 8);
        assert!(matches!(
            r.validate(0, 4, 1, 0),
            Err(NetError::BadDestination { .. })
        ));
        assert!(matches!(
            r.validate(2, 2, 1, 0),
            Err(NetError::SelfMessage { node: 2 })
        ));
    }

    #[test]
    fn rejects_over_budget() {
        let r = rules(4, 4);
        assert!(matches!(
            r.validate(0, 1, 5, 0),
            Err(NetError::MessageTooLarge { .. })
        ));
        assert!(matches!(
            r.validate(0, 1, 2, 3),
            Err(NetError::LinkBusy { .. })
        ));
        assert_eq!(
            r.validate(0, 1, 2, 2),
            Ok(2),
            "exactly filling the link is fine"
        );
    }

    #[test]
    fn broadcast_only_rejects_unicast_with_the_full_link() {
        let r = SendRules {
            n: 4,
            model: ModelSpec::clique().broadcast_only(),
            round: 9,
        };
        assert_eq!(
            r.validate(1, 2, 1, 0),
            Err(NetError::UnicastInBroadcastModel {
                round: 9,
                src: 1,
                dst: 2
            })
        );
    }

    #[test]
    fn budget_errors_name_the_round_and_link() {
        let r = rules(4, 4).for_round(7);
        match r.validate(0, 1, 5, 0) {
            Err(NetError::MessageTooLarge {
                round, src, dst, ..
            }) => {
                assert_eq!((round, src, dst), (7, 0, 1));
            }
            other => panic!("expected MessageTooLarge, got {other:?}"),
        }
        match r.validate(2, 3, 2, 3) {
            Err(NetError::LinkBusy {
                round, src, dst, ..
            }) => {
                assert_eq!((round, src, dst), (7, 2, 3));
            }
            other => panic!("expected LinkBusy, got {other:?}"),
        }
    }

    #[test]
    fn squeeze_cap_only_shrinks_and_floors_at_one() {
        let r = rules(4, 8);
        assert_eq!(r.with_link_words_capped(3).link_words(), 3);
        assert_eq!(r.with_link_words_capped(99).link_words(), 8);
        assert_eq!(r.with_link_words_capped(0).link_words(), 1);
    }

    #[test]
    fn rules_carry_the_configs_model() {
        let cfg = NetConfig::kt1(8).with_link_words(5);
        let r = SendRules::from_config(&cfg);
        assert_eq!(r.model, cfg.model());
        assert_eq!(r.link_words(), 5);
        assert!(!r.broadcast_only());
        assert!(SendRules::from_config(&NetConfig::kt1(8).broadcast_only()).broadcast_only());
    }

    #[test]
    fn ledger_charges_and_resets_cheaply() {
        let mut l = LinkUse::new(8);
        l.charge(3, 2);
        l.charge(3, 1);
        l.charge(5, 4);
        assert_eq!(l.used(3), 3);
        assert_eq!(l.used(5), 4);
        assert_eq!(l.used(0), 0);
        l.reset();
        assert_eq!(l.used(3), 0);
        assert_eq!(l.used(5), 0);
    }

    #[test]
    fn drain_aggregates_per_link_in_destination_order() {
        let mut l = LinkUse::new(4);
        let mut rows = Vec::new();
        // Sender 0: two messages to 3, one to 1 (charged out of dst order).
        l.charge(3, 2);
        l.charge(1, 1);
        l.charge(3, 1);
        assert_eq!(l.drain(0, Some(&mut rows)), (3, 4));
        // Sender 2: one message to 0.
        l.charge(0, 5);
        assert_eq!(l.drain(2, Some(&mut rows)), (1, 5));
        assert_eq!(rows, [(0, 1, 1, 1), (0, 3, 2, 3), (2, 0, 1, 5)]);
        assert_eq!(l.used(3), 0, "drain clears the ledger");
    }

    #[test]
    fn drain_of_a_silent_sender_is_empty() {
        let mut l = LinkUse::new(2);
        let mut rows = Vec::new();
        assert_eq!(l.drain(0, Some(&mut rows)), (0, 0));
        assert_eq!(l.drain(1, None), (0, 0));
        assert!(rows.is_empty());
    }

    #[test]
    fn drain_without_rows_still_totals() {
        let mut l = LinkUse::new(8);
        l.charge(7, 3);
        l.charge(2, 1);
        assert_eq!(l.drain(5, None), (2, 4));
        assert_eq!(l.drain(5, None), (0, 0));
    }
}
