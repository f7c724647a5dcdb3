//! Declarative fault plans.
//!
//! A [`FaultPlan`] is data, not code: a seed plus three lists — link
//! rules, crashes, bandwidth squeezes — that fully determine every fault
//! an execution will see. Plans are `Clone`, cheap to build with the
//! fluent constructors, and turn into a live
//! [`ChaosInjector`] with [`FaultPlan::injector`].

use crate::inject::ChaosInjector;

/// An inclusive round window, optionally open-ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRange {
    /// First round (inclusive) the window covers.
    pub from: u64,
    /// Last round (inclusive); `None` means "forever".
    pub to: Option<u64>,
}

impl RoundRange {
    /// Every round.
    pub fn all() -> Self {
        RoundRange { from: 0, to: None }
    }

    /// Exactly one round.
    pub fn only(round: u64) -> Self {
        RoundRange {
            from: round,
            to: Some(round),
        }
    }

    /// Rounds `from..=to` (inclusive on both ends).
    ///
    /// # Panics
    ///
    /// Panics if `from > to` — an empty window is a plan bug, not a
    /// no-op to paper over.
    pub fn between(from: u64, to: u64) -> Self {
        assert!(from <= to, "empty round range {from}..={to}");
        RoundRange { from, to: Some(to) }
    }

    /// Rounds `from` onward, forever.
    pub fn starting_at(from: u64) -> Self {
        RoundRange { from, to: None }
    }

    /// Whether `round` falls inside the window.
    pub fn contains(&self, round: u64) -> bool {
        round >= self.from && self.to.is_none_or(|to| round <= to)
    }
}

/// Which directed links a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every directed link.
    All,
    /// Every link out of one sender.
    From(usize),
    /// Every link into one receiver.
    To(usize),
    /// One directed link `src -> dst`.
    Link(usize, usize),
}

impl LinkSelector {
    /// Whether the directed link `src -> dst` matches.
    pub fn matches(&self, src: usize, dst: usize) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::From(s) => src == s,
            LinkSelector::To(d) => dst == d,
            LinkSelector::Link(s, d) => src == s && dst == d,
        }
    }
}

/// What a firing link rule does to the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Silently discard (sender is still charged — the send happened).
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Flip one payload bit (chosen by the rule's stream); payloads whose
    /// type has no flippable bit degrade to a drop.
    Corrupt,
    /// Hold delivery back by `rounds` extra rounds (floored at 1).
    Defer {
        /// Extra rounds the message sits in flight.
        rounds: u64,
    },
}

/// One probabilistic fault rule on a set of links over a round window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkRule {
    /// Rounds the rule is armed.
    pub rounds: RoundRange,
    /// Links the rule watches.
    pub links: LinkSelector,
    /// Per-message firing probability in `[0, 1]`.
    pub p: f64,
    /// Fault applied when the rule fires.
    pub fault: LinkFault,
}

impl LinkRule {
    /// A rule; validates the probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite probability in `[0, 1]`.
    pub fn new(rounds: RoundRange, links: LinkSelector, p: f64, fault: LinkFault) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "fault probability {p} outside [0, 1]"
        );
        LinkRule {
            rounds,
            links,
            p,
            fault,
        }
    }
}

/// A fail-stop crash: the node computes normally before `at_round` and
/// never again from `at_round` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crash {
    /// The node that dies.
    pub node: usize,
    /// First round in which it is dead.
    pub at_round: u64,
}

/// A bandwidth squeeze: caps the per-link word budget over a window.
///
/// The effective budget is `cfg.link_words.min(link_words.max(1))` — a
/// squeeze can only shrink the budget, never widen it, and never below
/// one word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Squeeze {
    /// Rounds the cap is in force.
    pub rounds: RoundRange,
    /// Cap on the per-link word budget.
    pub link_words: u64,
}

/// A complete, replayable fault schedule.
///
/// Everything an execution will suffer is determined by this value: the
/// same plan (seed included) produces the same faults on every engine.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-decision `ChaCha8` streams.
    pub seed: u64,
    /// Probabilistic link rules; the **first** rule that matches a
    /// message's coordinates *and* fires wins.
    pub rules: Vec<LinkRule>,
    /// Fail-stop crashes.
    pub crashes: Vec<Crash>,
    /// Bandwidth squeezes; overlapping windows take the tightest cap.
    pub squeezes: Vec<Squeeze>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            crashes: Vec::new(),
            squeezes: Vec::new(),
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.crashes.is_empty() && self.squeezes.is_empty()
    }

    /// Appends a pre-built link rule.
    #[must_use]
    pub fn rule(mut self, rule: LinkRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Drops each matching message with probability `p`.
    #[must_use]
    pub fn drop_messages(self, rounds: RoundRange, links: LinkSelector, p: f64) -> Self {
        self.rule(LinkRule::new(rounds, links, p, LinkFault::Drop))
    }

    /// Duplicates each matching message with probability `p`.
    #[must_use]
    pub fn duplicate_messages(self, rounds: RoundRange, links: LinkSelector, p: f64) -> Self {
        self.rule(LinkRule::new(rounds, links, p, LinkFault::Duplicate))
    }

    /// Flips one payload bit of each matching message with probability
    /// `p`.
    #[must_use]
    pub fn corrupt_messages(self, rounds: RoundRange, links: LinkSelector, p: f64) -> Self {
        self.rule(LinkRule::new(rounds, links, p, LinkFault::Corrupt))
    }

    /// Defers each matching message by `extra_rounds` with probability
    /// `p`.
    #[must_use]
    pub fn defer_messages(
        self,
        rounds: RoundRange,
        links: LinkSelector,
        p: f64,
        extra_rounds: u64,
    ) -> Self {
        self.rule(LinkRule::new(
            rounds,
            links,
            p,
            LinkFault::Defer {
                rounds: extra_rounds,
            },
        ))
    }

    /// Fail-stops `node` from `at_round` on.
    #[must_use]
    pub fn crash(mut self, node: usize, at_round: u64) -> Self {
        self.crashes.push(Crash { node, at_round });
        self
    }

    /// Caps the per-link word budget at `link_words` over `rounds`.
    #[must_use]
    pub fn squeeze(mut self, rounds: RoundRange, link_words: u64) -> Self {
        self.squeezes.push(Squeeze { rounds, link_words });
        self
    }

    /// A live injector for this plan (the plan is cloned, so one plan can
    /// drive many runs — the replay property depends on it).
    pub fn injector(&self) -> ChaosInjector {
        ChaosInjector::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ranges_cover_what_they_say() {
        assert!(RoundRange::all().contains(0));
        assert!(RoundRange::all().contains(u64::MAX));
        assert!(RoundRange::only(3).contains(3));
        assert!(!RoundRange::only(3).contains(2));
        assert!(!RoundRange::only(3).contains(4));
        let w = RoundRange::between(2, 5);
        assert!(!w.contains(1) && w.contains(2) && w.contains(5) && !w.contains(6));
        let tail = RoundRange::starting_at(4);
        assert!(!tail.contains(3) && tail.contains(4) && tail.contains(1 << 40));
    }

    #[test]
    #[should_panic(expected = "empty round range")]
    fn inverted_windows_are_rejected() {
        let _ = RoundRange::between(5, 2);
    }

    #[test]
    fn link_selectors_match_their_links() {
        assert!(LinkSelector::All.matches(0, 9));
        assert!(LinkSelector::From(2).matches(2, 7));
        assert!(!LinkSelector::From(2).matches(3, 7));
        assert!(LinkSelector::To(7).matches(2, 7));
        assert!(!LinkSelector::To(7).matches(7, 2));
        assert!(LinkSelector::Link(1, 4).matches(1, 4));
        assert!(!LinkSelector::Link(1, 4).matches(4, 1));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn probabilities_above_one_are_rejected() {
        let _ = LinkRule::new(RoundRange::all(), LinkSelector::All, 1.5, LinkFault::Drop);
    }

    #[test]
    fn builders_accumulate_in_order() {
        let plan = FaultPlan::new(7)
            .drop_messages(RoundRange::all(), LinkSelector::All, 0.1)
            .corrupt_messages(RoundRange::only(2), LinkSelector::Link(0, 1), 1.0)
            .crash(3, 5)
            .squeeze(RoundRange::between(1, 2), 4);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].fault, LinkFault::Drop);
        assert_eq!(plan.rules[1].fault, LinkFault::Corrupt);
        assert_eq!(
            plan.crashes,
            vec![Crash {
                node: 3,
                at_round: 5
            }]
        );
        assert_eq!(
            plan.squeezes,
            vec![Squeeze {
                rounds: RoundRange::between(1, 2),
                link_words: 4
            }]
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
