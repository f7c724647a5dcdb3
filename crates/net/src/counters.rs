//! Cost metering: the two complexity measures the paper studies.
//!
//! *Time complexity* is the number of synchronous rounds; *message
//! complexity* is the total number of messages (each of `O(log n)` bits)
//! sent by all machines. The simulator additionally tracks words and bits so
//! that bandwidth ablations (Theorems 4/7 "furthermore") stay honest, and it
//! supports named scopes so experiments can attribute cost to algorithm
//! phases ("Phase 1: Lotker preprocessing" vs "Phase 2: sketching").

use std::fmt;

/// A cost snapshot/delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Synchronous rounds elapsed.
    pub rounds: u64,
    /// Messages sent (the paper's message complexity).
    pub messages: u64,
    /// Words sent (1 word = `⌈log₂ n⌉` bits).
    pub words: u64,
    /// Bits sent (`words × word_bits`).
    pub bits: u64,
}

impl Cost {
    /// Component-wise difference `self − earlier`, saturating at zero.
    ///
    /// The saturating behaviour is uniform across debug and release
    /// builds (this used to panic in debug and wrap in release). Cost
    /// counters are monotone, so a deficit can only arise from comparing
    /// snapshots of *different* networks or passing the arguments in the
    /// wrong order; use [`Cost::checked_since`] to detect that instead of
    /// silently clamping.
    pub fn since(&self, earlier: &Cost) -> Cost {
        Cost {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            messages: self.messages.saturating_sub(earlier.messages),
            words: self.words.saturating_sub(earlier.words),
            bits: self.bits.saturating_sub(earlier.bits),
        }
    }

    /// Component-wise difference `self − earlier`, or `None` if `earlier`
    /// exceeds `self` in any component (i.e. the snapshots are not an
    /// ordered pair from one monotone counter).
    pub fn checked_since(&self, earlier: &Cost) -> Option<Cost> {
        Some(Cost {
            rounds: self.rounds.checked_sub(earlier.rounds)?,
            messages: self.messages.checked_sub(earlier.messages)?,
            words: self.words.checked_sub(earlier.words)?,
            bits: self.bits.checked_sub(earlier.bits)?,
        })
    }

    /// Conversion to the tracing layer's mirror struct.
    pub fn snapshot(&self) -> cc_trace::CostSnapshot {
        cc_trace::CostSnapshot {
            rounds: self.rounds,
            messages: self.messages,
            words: self.words,
            bits: self.bits,
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            rounds: self.rounds + rhs.rounds,
            messages: self.messages + rhs.messages,
            words: self.words + rhs.words,
            bits: self.bits + rhs.bits,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} messages={} words={} bits={}",
            self.rounds, self.messages, self.words, self.bits
        )
    }
}

/// Running counters plus named scopes.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    total: Cost,
    open: Vec<(String, Cost)>,
    closed: Vec<(String, Cost)>,
}

impl Counters {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current totals.
    pub fn total(&self) -> Cost {
        self.total
    }

    /// Records one completed round.
    pub fn add_round(&mut self) {
        self.total.rounds += 1;
    }

    /// Records `r` rounds at once (fast-forward).
    pub fn add_rounds(&mut self, r: u64) {
        self.total.rounds += r;
    }

    /// Records one message of `words` words (`word_bits` bits each).
    pub fn add_message(&mut self, words: u64, word_bits: u64) {
        self.total.messages += 1;
        self.total.words += words;
        self.total.bits += words * word_bits;
    }

    /// Opens a named scope; costs accrued until the matching
    /// [`end_scope`](Self::end_scope) are attributed to it.
    pub fn begin_scope(&mut self, name: impl Into<String>) {
        self.open.push((name.into(), self.total));
    }

    /// Closes the innermost scope and records its delta.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end_scope(&mut self) -> Cost {
        let (name, start) = self.open.pop().expect("no open scope");
        let delta = self.total.since(&start);
        self.closed.push((name, delta));
        delta
    }

    /// Completed scopes in closing order.
    pub fn scopes(&self) -> &[(String, Cost)] {
        &self.closed
    }

    /// Delta of the first completed scope with this name, if any.
    pub fn scope(&self, name: &str) -> Option<Cost> {
        self.closed.iter().find(|(n, _)| n == name).map(|&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut c = Counters::new();
        c.add_round();
        c.add_message(3, 10);
        c.add_message(1, 10);
        let t = c.total();
        assert_eq!(t.rounds, 1);
        assert_eq!(t.messages, 2);
        assert_eq!(t.words, 4);
        assert_eq!(t.bits, 40);
    }

    #[test]
    fn scopes_capture_deltas() {
        let mut c = Counters::new();
        c.add_round();
        c.begin_scope("phase1");
        c.add_round();
        c.add_message(2, 8);
        let d = c.end_scope();
        assert_eq!(d.rounds, 1);
        assert_eq!(d.messages, 1);
        assert_eq!(d.words, 2);
        assert_eq!(c.scope("phase1"), Some(d));
        assert_eq!(c.scope("missing"), None);
        assert_eq!(c.total().rounds, 2);
    }

    #[test]
    fn nested_scopes() {
        let mut c = Counters::new();
        c.begin_scope("outer");
        c.add_round();
        c.begin_scope("inner");
        c.add_round();
        c.end_scope();
        c.add_round();
        let outer = c.end_scope();
        assert_eq!(c.scope("inner").unwrap().rounds, 1);
        assert_eq!(outer.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "no open scope")]
    fn unbalanced_end_panics() {
        Counters::new().end_scope();
    }

    #[test]
    fn since_subtracts() {
        let a = Cost {
            rounds: 5,
            messages: 10,
            words: 20,
            bits: 200,
        };
        let b = Cost {
            rounds: 2,
            messages: 4,
            words: 8,
            bits: 80,
        };
        let d = a.since(&b);
        assert_eq!(d.rounds, 3);
        assert_eq!(d.messages, 6);
        assert_eq!(a.checked_since(&b), Some(d));
    }

    #[test]
    fn since_saturates_uniformly_on_underflow() {
        let small = Cost {
            rounds: 1,
            messages: 2,
            words: 3,
            bits: 4,
        };
        let big = Cost {
            rounds: 10,
            messages: 1, // messages is NOT in deficit
            words: 30,
            bits: 40,
        };
        // Arguments reversed: saturate to zero, never wrap, in every build.
        let d = small.since(&big);
        assert_eq!(d.rounds, 0);
        assert_eq!(d.messages, 1);
        assert_eq!(d.words, 0);
        assert_eq!(d.bits, 0);
        // The checked variant surfaces the mistake instead.
        assert_eq!(small.checked_since(&big), None);
        assert_eq!(big.checked_since(&small), None, "messages deficit");
    }

    #[test]
    fn add_sums_componentwise() {
        let a = Cost {
            rounds: 1,
            messages: 2,
            words: 3,
            bits: 30,
        };
        let b = Cost {
            rounds: 10,
            messages: 20,
            words: 30,
            bits: 300,
        };
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        assert_eq!(c.rounds, 11);
        assert_eq!(c.bits, 330);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Cost::default().to_string().is_empty());
    }

    #[test]
    fn fast_forward_rounds() {
        let mut c = Counters::new();
        c.add_rounds(1_000_000_007);
        assert_eq!(c.total().rounds, 1_000_000_007);
        assert_eq!(c.total().messages, 0);
    }
}
