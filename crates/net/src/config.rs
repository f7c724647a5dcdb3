//! Simulator configuration: model size, bandwidth, initial knowledge.
//!
//! The bandwidth / link-mode / mapping axes are owned by
//! [`cc_model::ModelSpec`]; a [`NetConfig`] binds a spec to a concrete
//! clique size (plus simulator-local concerns: knowledge, seed,
//! watchdogs). [`NetConfig::from_model`] is the validated
//! entry point, and [`NetConfig::model`] recovers the spec that send
//! admission ([`crate::SendRules`]) is enforced against.

use cc_model::{LinkMode, Mapping, ModelError, ModelSpec};

/// Initial-knowledge variant of the Congested Clique (Section 1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Knowledge {
    /// `KT0`: a node knows only its own ID; links are anonymous ports.
    Kt0,
    /// `KT1`: a node additionally knows the IDs of all `n − 1` neighbors
    /// (i.e. the port → ID mapping).
    Kt1,
}

/// Default per-link budget: how many `⌈log₂ n⌉`-bit words one link may carry
/// per round. The model allows "a message of `O(log n)` bits"; this is the
/// explicit constant (messages carrying an edge + weight need 3 words, plus
/// slack for tags). Mirrors [`cc_model::DEFAULT_BANDWIDTH_WORDS`].
pub const DEFAULT_LINK_WORDS: u64 = cc_model::DEFAULT_BANDWIDTH_WORDS;

/// Configuration of a [`CliqueNet`](crate::CliqueNet).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of machines `n ≥ 2`.
    pub n: usize,
    /// Initial-knowledge variant.
    pub knowledge: Knowledge,
    /// Words per ordered link per round (the `O(log n)` bits of the model;
    /// raise to `Θ(log⁴ n)` words for the paper's `O(log⁵ n)`-bit ablation).
    pub link_words: u64,
    /// Seed for all simulator randomness (per-node private RNG streams and
    /// the hidden KT0 port permutations).
    pub seed: u64,
    /// Optional watchdog: error out if a run exceeds this many rounds
    /// (catches non-terminating protocols in tests and CI). `None` (the
    /// default) means unlimited.
    pub round_cap: Option<u64>,
    /// The *broadcast* variant of the Congested Clique (the paper's
    /// footnote 1): a node must send the *same* message along all its
    /// links in a round, or nothing. Point-to-point sends are rejected;
    /// use [`Outbox::broadcast`](crate::Outbox::broadcast).
    pub broadcast_only: bool,
    /// Node-to-machine mapping of the model ([`Mapping::OneToOne`] is
    /// the clique proper). `CliqueNet` itself always executes the
    /// *logical* model — the mapping changes no inbox, cost, or fault
    /// decision — but it travels with the config so harnesses (the
    /// `cc-lens` fold) can account machine rounds for the very spec the
    /// run was admitted under.
    pub mapping: Mapping,
}

impl NetConfig {
    /// KT1 config with default bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn kt1(n: usize) -> Self {
        assert!(n >= 2, "a clique needs at least 2 machines");
        NetConfig {
            n,
            knowledge: Knowledge::Kt1,
            link_words: DEFAULT_LINK_WORDS,
            seed: 0,
            round_cap: None,
            broadcast_only: false,
            mapping: Mapping::OneToOne,
        }
    }

    /// A KT1 config implementing `spec` on an `n`-clique — the validated
    /// entry point of the model grid.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelSpec::validate_for`] (clique too small, zero
    /// bandwidth, more machines than nodes).
    pub fn from_model(n: usize, spec: &ModelSpec) -> Result<Self, ModelError> {
        spec.validate_for(n)?;
        Ok(Self::kt1(n).with_model(spec))
    }

    /// KT0 config with default bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn kt0(n: usize) -> Self {
        NetConfig {
            knowledge: Knowledge::Kt0,
            ..Self::kt1(n)
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to the broadcast variant (see `broadcast_only`).
    pub fn broadcast_only(mut self) -> Self {
        self.broadcast_only = true;
        self
    }

    /// Sets the round watchdog (see `round_cap`).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_round_cap(mut self, cap: u64) -> Self {
        assert!(cap >= 1, "a zero round cap would reject every run");
        self.round_cap = Some(cap);
        self
    }

    /// Replaces the per-link word budget.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn with_link_words(mut self, words: u64) -> Self {
        assert!(words >= 1, "a link must carry at least one word per round");
        self.link_words = words;
        self
    }

    /// Replaces the bandwidth, link mode, and mapping with `spec`'s
    /// (the panicking builder twin of [`NetConfig::from_model`]).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid for this clique size.
    #[must_use]
    pub fn with_model(mut self, spec: &ModelSpec) -> Self {
        spec.validate_for(self.n)
            .unwrap_or_else(|e| panic!("model spec invalid for n={}: {e}", self.n));
        self.link_words = spec.bandwidth_words_per_link;
        self.broadcast_only = spec.link_mode == LinkMode::BroadcastOnly;
        self.mapping = spec.mapping;
        self
    }

    /// The [`ModelSpec`] this config implements — what send admission
    /// and machine accounting are checked against.
    pub fn model(&self) -> ModelSpec {
        ModelSpec {
            bandwidth_words_per_link: self.link_words,
            link_mode: if self.broadcast_only {
                LinkMode::BroadcastOnly
            } else {
                LinkMode::Unicast
            },
            mapping: self.mapping,
        }
    }

    /// Bits per word: `⌈log₂ n⌉` (at least 1) — the `O(log n)` unit of the
    /// model in which message sizes are expressed.
    pub fn word_bits(&self) -> u64 {
        (usize::BITS - (self.n - 1).leading_zeros()).max(1) as u64
    }

    /// The `O(log⁵ n)`-bit bandwidth of the "furthermore" parts of Theorems
    /// 4 and 7, expressed in words: `⌈log₂ n⌉⁴` words ≈ `log⁵ n` bits.
    pub fn polylog_bandwidth(n: usize) -> u64 {
        let lg = (usize::BITS - (n - 1).leading_zeros()).max(1) as u64;
        lg.pow(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = NetConfig::kt1(64).with_seed(7).with_link_words(3);
        assert_eq!(c.n, 64);
        assert_eq!(c.knowledge, Knowledge::Kt1);
        assert_eq!(c.seed, 7);
        assert_eq!(c.link_words, 3);
        assert_eq!(NetConfig::kt0(8).knowledge, Knowledge::Kt0);
    }

    #[test]
    fn word_bits_is_ceil_log2() {
        assert_eq!(NetConfig::kt1(2).word_bits(), 1);
        assert_eq!(NetConfig::kt1(3).word_bits(), 2);
        assert_eq!(NetConfig::kt1(64).word_bits(), 6);
        assert_eq!(NetConfig::kt1(65).word_bits(), 7);
        assert_eq!(NetConfig::kt1(1024).word_bits(), 10);
    }

    #[test]
    fn polylog_bandwidth_grows() {
        assert_eq!(NetConfig::polylog_bandwidth(1024), 10u64.pow(4));
        assert!(NetConfig::polylog_bandwidth(1 << 16) > NetConfig::polylog_bandwidth(1 << 8));
    }

    #[test]
    fn model_round_trips_through_the_config() {
        let spec = ModelSpec::clique()
            .with_bandwidth(3)
            .broadcast_only()
            .kmachine(4);
        let cfg = NetConfig::from_model(16, &spec).expect("valid spec");
        assert_eq!(cfg.link_words, 3);
        assert!(cfg.broadcast_only);
        assert_eq!(cfg.mapping, Mapping::KMachine(4));
        assert_eq!(cfg.model(), spec);
        // The default config is exactly the paper's model.
        assert_eq!(NetConfig::kt1(16).model(), ModelSpec::clique());
    }

    #[test]
    fn from_model_rejects_incompatible_specs() {
        let spec = ModelSpec::clique().kmachine(8);
        assert_eq!(
            NetConfig::from_model(4, &spec),
            Err(ModelError::MoreMachinesThanNodes { k: 8, n: 4 })
        );
        assert_eq!(
            NetConfig::from_model(1, &ModelSpec::clique()),
            Err(ModelError::CliqueTooSmall { n: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "model spec invalid")]
    fn with_model_panics_on_invalid_spec() {
        let _ = NetConfig::kt1(4).with_model(&ModelSpec::clique().kmachine(9));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_clique() {
        NetConfig::kt1(1);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn rejects_zero_bandwidth() {
        NetConfig::kt1(4).with_link_words(0);
    }
}
