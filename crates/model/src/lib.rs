//! `cc-model`: the communication model as a first-class value.
//!
//! The paper's algorithms assume the full Congested Clique — every
//! ordered pair of nodes shares a private `O(log n)`-bit link, every
//! node is its own machine. Jurdziński–Nowicki (arXiv:1703.02743) and
//! Robinson (arXiv:2210.02638) study what survives when that model is
//! *limited*: narrower links, broadcast-only sends, or `n` logical nodes
//! multiplexed onto `k` physical machines. This crate reifies those
//! three axes as data so one engine can cover the whole landscape:
//!
//! * [`ModelSpec`] — `{ bandwidth_words_per_link, link_mode, mapping }`,
//!   validated at construction. `cc-net` derives its send rules from a
//!   spec (admission, metering, and `Outbox` legality are checked
//!   against it), and [`MachineLedger`] derives its machine-pair
//!   capacity from the same spec.
//! * [`LinkMode`] — [`Unicast`](LinkMode::Unicast) (the standard model)
//!   vs [`BroadcastOnly`](LinkMode::BroadcastOnly) (footnote 1 of the
//!   paper: a node sends one message on *all* links or nothing).
//! * [`Mapping`] — [`OneToOne`](Mapping::OneToOne) (the clique proper)
//!   vs [`KMachine(k)`](Mapping::KMachine): logical node `v` lives on
//!   machine `⌊v·k/n⌋` (balanced contiguous blocks), messages between
//!   co-located nodes are free, and each ordered machine pair carries at
//!   most the spec's bandwidth per machine round.
//! * [`MachineLedger`] — the per-machine-pair bandwidth accounting rule,
//!   applied after the fact to a run's recorded sends by `cc-lens`'s
//!   `CommLedger` fold (the one k-machine price).
//!
//! Logical semantics never depend on the mapping: programs, RNG streams,
//! fault decisions, inboxes, and metered cost are functions of the
//! *logical* round and link alone. The mapping only changes how many
//! *machine rounds* a logical round costs — that is the quantity the
//! model grid measures as the model tightens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;

pub use accounting::{MachineLedger, MachineStats};

use std::error::Error;
use std::fmt;

/// Default per-link bandwidth, in words per round — the explicit
/// constant behind the model's "`O(log n)` bits per link" (mirrored by
/// `cc_net::DEFAULT_LINK_WORDS`).
pub const DEFAULT_BANDWIDTH_WORDS: u64 = 8;

/// Whether a node may address links individually or must broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// The standard model: a different message on every link.
    Unicast,
    /// Footnote 1 of the paper: the *same* message on all `n − 1` links,
    /// or nothing. Point-to-point sends are model violations.
    BroadcastOnly,
}

impl LinkMode {
    /// Short key used in grid cell names: `uni` / `bc`.
    pub fn key(self) -> &'static str {
        match self {
            LinkMode::Unicast => "uni",
            LinkMode::BroadcastOnly => "bc",
        }
    }
}

/// How logical nodes map onto simulated machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Every node is its own machine — the Congested Clique proper.
    OneToOne,
    /// `n` logical nodes multiplexed onto `k` machines in balanced
    /// contiguous blocks: node `v` lives on machine `⌊v·k/n⌋`.
    KMachine(usize),
}

impl Mapping {
    /// Number of machines hosting an `n`-node clique.
    pub fn machines(self, n: usize) -> usize {
        match self {
            Mapping::OneToOne => n,
            Mapping::KMachine(k) => k,
        }
    }

    /// The machine hosting logical node `v` (balanced contiguous
    /// blocks; identity under [`Mapping::OneToOne`]).
    pub fn machine_of(self, n: usize, v: usize) -> usize {
        debug_assert!(v < n, "node {v} outside the {n}-clique");
        match self {
            Mapping::OneToOne => v,
            Mapping::KMachine(k) => v * k / n,
        }
    }

    /// Short key used in grid cell names: `1to1` / `k4`.
    pub fn key(self) -> String {
        match self {
            Mapping::OneToOne => "1to1".to_string(),
            Mapping::KMachine(k) => format!("k{k}"),
        }
    }
}

/// A rejected [`ModelSpec`] (or a spec incompatible with a clique size).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A link must carry at least one word per round.
    ZeroBandwidth,
    /// `KMachine(0)` — there is nowhere to put the nodes.
    NoMachines,
    /// `KMachine(k)` with `k > n`: a machine may host several logical
    /// nodes, never fractions of one.
    MoreMachinesThanNodes {
        /// Requested machine count.
        k: usize,
        /// Clique size.
        n: usize,
    },
    /// A clique needs at least 2 nodes.
    CliqueTooSmall {
        /// Offending size.
        n: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ZeroBandwidth => {
                write!(f, "a link must carry at least one word per round")
            }
            ModelError::NoMachines => write!(f, "k-machine mapping needs at least one machine"),
            ModelError::MoreMachinesThanNodes { k, n } => {
                write!(f, "{k} machines cannot each host a node of a {n}-clique")
            }
            ModelError::CliqueTooSmall { n } => {
                write!(f, "a clique needs at least 2 nodes, got {n}")
            }
        }
    }
}

impl Error for ModelError {}

/// One point of the model grid: bandwidth × link mode × mapping.
///
/// The defaults ([`ModelSpec::clique`]) are exactly the paper's model;
/// every other point is a *limited variant* in the sense of
/// arXiv:1703.02743.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Words each (logical or machine) link may carry per round.
    pub bandwidth_words_per_link: u64,
    /// Unicast vs broadcast-only sends.
    pub link_mode: LinkMode,
    /// Node-to-machine mapping.
    pub mapping: Mapping,
}

impl ModelSpec {
    /// A validated spec.
    ///
    /// # Errors
    ///
    /// [`ModelError::ZeroBandwidth`] if `bandwidth == 0`;
    /// [`ModelError::NoMachines`] for `KMachine(0)`. (Compatibility with
    /// a concrete clique size is checked by [`validate_for`].)
    ///
    /// [`validate_for`]: ModelSpec::validate_for
    pub fn new(bandwidth: u64, link_mode: LinkMode, mapping: Mapping) -> Result<Self, ModelError> {
        if bandwidth == 0 {
            return Err(ModelError::ZeroBandwidth);
        }
        if mapping == Mapping::KMachine(0) {
            return Err(ModelError::NoMachines);
        }
        Ok(ModelSpec {
            bandwidth_words_per_link: bandwidth,
            link_mode,
            mapping,
        })
    }

    /// The paper's model: [`DEFAULT_BANDWIDTH_WORDS`], unicast, one node
    /// per machine.
    pub fn clique() -> Self {
        ModelSpec {
            bandwidth_words_per_link: DEFAULT_BANDWIDTH_WORDS,
            link_mode: LinkMode::Unicast,
            mapping: Mapping::OneToOne,
        }
    }

    /// The same spec with a different bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    #[must_use]
    pub fn with_bandwidth(mut self, words: u64) -> Self {
        assert!(words >= 1, "a link must carry at least one word per round");
        self.bandwidth_words_per_link = words;
        self
    }

    /// The same spec restricted to broadcast-only sends.
    #[must_use]
    pub fn broadcast_only(mut self) -> Self {
        self.link_mode = LinkMode::BroadcastOnly;
        self
    }

    /// The same spec multiplexed onto `k` machines.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn kmachine(mut self, k: usize) -> Self {
        assert!(k >= 1, "k-machine mapping needs at least one machine");
        self.mapping = Mapping::KMachine(k);
        self
    }

    /// Checks the spec against a concrete clique size.
    ///
    /// # Errors
    ///
    /// [`ModelError::CliqueTooSmall`] if `n < 2`;
    /// [`ModelError::MoreMachinesThanNodes`] if the mapping names more
    /// machines than nodes.
    pub fn validate_for(&self, n: usize) -> Result<(), ModelError> {
        if n < 2 {
            return Err(ModelError::CliqueTooSmall { n });
        }
        if let Mapping::KMachine(k) = self.mapping {
            if k == 0 {
                return Err(ModelError::NoMachines);
            }
            if k > n {
                return Err(ModelError::MoreMachinesThanNodes { k, n });
            }
        }
        if self.bandwidth_words_per_link == 0 {
            return Err(ModelError::ZeroBandwidth);
        }
        Ok(())
    }

    /// Whether point-to-point sends are legal under this spec.
    pub fn allows_unicast(&self) -> bool {
        self.link_mode == LinkMode::Unicast
    }

    /// Number of machines hosting an `n`-node clique.
    pub fn machines(&self, n: usize) -> usize {
        self.mapping.machines(n)
    }

    /// The machine hosting logical node `v`.
    pub fn machine_of(&self, n: usize, v: usize) -> usize {
        self.mapping.machine_of(n, v)
    }

    /// Whether a logical `src → dst` message stays inside one machine
    /// (and therefore consumes no link bandwidth).
    pub fn is_local(&self, n: usize, src: usize, dst: usize) -> bool {
        self.machine_of(n, src) == self.machine_of(n, dst)
    }

    /// The grid cell name: `bw<B>-<uni|bc>-<1to1|kK>` — used as the
    /// `backend` column of `grid-*` baseline cases and in artifacts.
    pub fn cell_key(&self) -> String {
        format!(
            "bw{}-{}-{}",
            self.bandwidth_words_per_link,
            self.link_mode.key(),
            self.mapping.key()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ModelSpec::new(8, LinkMode::Unicast, Mapping::OneToOne).is_ok());
        assert_eq!(
            ModelSpec::new(0, LinkMode::Unicast, Mapping::OneToOne),
            Err(ModelError::ZeroBandwidth)
        );
        assert_eq!(
            ModelSpec::new(8, LinkMode::Unicast, Mapping::KMachine(0)),
            Err(ModelError::NoMachines)
        );
    }

    #[test]
    fn validate_for_checks_the_clique_size() {
        let spec = ModelSpec::clique().kmachine(4);
        assert!(spec.validate_for(4).is_ok());
        assert!(spec.validate_for(16).is_ok());
        assert_eq!(
            spec.validate_for(3),
            Err(ModelError::MoreMachinesThanNodes { k: 4, n: 3 })
        );
        assert_eq!(
            ModelSpec::clique().validate_for(1),
            Err(ModelError::CliqueTooSmall { n: 1 })
        );
    }

    #[test]
    fn mapping_is_balanced_contiguous_blocks() {
        let m = Mapping::KMachine(4);
        let assigned: Vec<usize> = (0..8).map(|v| m.machine_of(8, v)).collect();
        assert_eq!(assigned, [0, 0, 1, 1, 2, 2, 3, 3]);
        // Uneven split: block sizes differ by at most one and blocks are
        // contiguous and non-decreasing.
        let m = Mapping::KMachine(3);
        let assigned: Vec<usize> = (0..10).map(|v| m.machine_of(10, v)).collect();
        let mut sizes = [0usize; 3];
        for (i, &a) in assigned.iter().enumerate() {
            sizes[a] += 1;
            if i > 0 {
                assert!(assigned[i - 1] <= a, "blocks must be contiguous");
            }
        }
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Endpoints: k = n is the identity, k = 1 is all-on-one.
        for v in 0..10 {
            assert_eq!(Mapping::KMachine(10).machine_of(10, v), v);
            assert_eq!(Mapping::OneToOne.machine_of(10, v), v);
            assert_eq!(Mapping::KMachine(1).machine_of(10, v), 0);
        }
    }

    #[test]
    fn locality_follows_the_mapping() {
        let spec = ModelSpec::clique().kmachine(2);
        assert!(spec.is_local(8, 0, 3));
        assert!(spec.is_local(8, 4, 7));
        assert!(!spec.is_local(8, 3, 4));
        assert!(!ModelSpec::clique().is_local(8, 0, 1));
    }

    #[test]
    fn cell_keys_are_stable() {
        assert_eq!(ModelSpec::clique().cell_key(), "bw8-uni-1to1");
        assert_eq!(
            ModelSpec::clique()
                .with_bandwidth(2)
                .broadcast_only()
                .kmachine(4)
                .cell_key(),
            "bw2-bc-k4"
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            ModelError::ZeroBandwidth,
            ModelError::NoMachines,
            ModelError::MoreMachinesThanNodes { k: 9, n: 4 },
            ModelError::CliqueTooSmall { n: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
