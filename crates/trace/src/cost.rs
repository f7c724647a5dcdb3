//! Cost metering: the two complexity measures the paper studies.
//!
//! *Time complexity* is the number of synchronous rounds; *message
//! complexity* is the total number of messages (each of `O(log n)` bits)
//! sent by all machines. The simulator additionally tracks words and bits so
//! that bandwidth ablations (Theorems 4/7 "furthermore") stay honest.
//! `cc_net::CliqueNet` keeps one running [`Cost`] total; its named scopes
//! return their deltas and emit them as [`Event::ScopeExit`] events, so
//! phases ("Phase 1: Lotker preprocessing" vs "Phase 2: sketching") are
//! read from the event stream.
//!
//! The struct lives here, below the simulator in the dependency DAG, so
//! the net's totals, the events' deltas and the profiles folded from them
//! are one type. `cc-net` re-exports it.
//!
//! [`Event::ScopeExit`]: crate::Event::ScopeExit

use crate::json::Json;
use std::fmt;

/// A cost total or delta.
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
    /// Cost counters are monotone, so a deficit can only arise from
    /// comparing totals of *different* networks or passing the arguments
    /// in the wrong order; the difference then clamps instead of
    /// wrapping, in every build.
    pub fn since(&self, earlier: &Cost) -> Cost {
        Cost {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            messages: self.messages.saturating_sub(earlier.messages),
            words: self.words.saturating_sub(earlier.words),
            bits: self.bits.saturating_sub(earlier.bits),
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::UInt(self.rounds)),
            ("messages", Json::UInt(self.messages)),
            ("words", Json::UInt(self.words)),
            ("bits", Json::UInt(self.bits)),
        ])
    }

    /// Parses the object form.
    ///
    /// # Errors
    ///
    /// Names the missing/ill-typed field.
    pub fn from_json(v: &Json) -> Result<Cost, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cost snapshot: missing u64 field `{name}`"))
        };
        Ok(Cost {
            rounds: field("rounds")?,
            messages: field("messages")?,
            words: field("words")?,
            bits: field("bits")?,
        })
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(d + b, a);
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
    fn display_names_every_field() {
        let c = Cost {
            rounds: 1,
            messages: 2,
            words: 3,
            bits: 4,
        };
        assert_eq!(c.to_string(), "rounds=1 messages=2 words=3 bits=4");
    }

    #[test]
    fn json_round_trip() {
        let c = Cost {
            rounds: u64::MAX,
            messages: 1,
            words: 2,
            bits: 3,
        };
        assert_eq!(Cost::from_json(&c.to_json()).unwrap(), c);
        assert!(Cost::from_json(&Json::Null).is_err());
    }
}
