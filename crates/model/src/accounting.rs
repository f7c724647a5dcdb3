//! Per-machine-pair bandwidth accounting — the k-machine cost rule.
//!
//! One logical round of an `n`-node protocol moves some set of `(src,
//! dst, words)` sends. Under a [`Mapping`](crate::Mapping) those sends
//! fold onto ordered machine pairs; each pair carries at most the spec's
//! bandwidth per *machine round*, messages between co-located nodes are
//! free, and word-granular fragmentation across machine rounds is
//! allowed (the standard accounting of the k-machine literature). The
//! number of machine rounds one logical round costs is therefore
//!
//! ```text
//! max(1, max over ordered machine pairs ⌈pair words / bandwidth⌉)
//! ```
//!
//! — at `k = n` every pair carries one logical link whose admission
//! already caps it at the bandwidth, so every logical round costs
//! exactly one machine round and the clique numbers are recovered; at
//! `k = 1` everything is local and likewise one machine round per
//! logical round. In between, machine rounds measure how badly an
//! algorithm's traffic pattern congests the narrower machine graph.
//!
//! [`MachineLedger`] is that rule as code, and deliberately the *only*
//! implementation: `cc-lens`'s `CommLedger` feeds it the `MessageBatch`
//! trace events of a run, which is how every k-machine number in the
//! workspace is priced.

use crate::{ModelError, ModelSpec, PairRows};

/// Cumulative k-machine accounting totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Logical rounds folded so far.
    pub logical_rounds: u64,
    /// Machine rounds those logical rounds cost (≥ `logical_rounds`).
    pub machine_rounds: u64,
    /// Words that stayed inside a machine (free under the mapping).
    pub local_words: u64,
    /// Words that crossed machine pairs.
    pub remote_words: u64,
    /// Largest single-round load on any ordered machine pair, in words.
    pub max_pair_words: u64,
}

/// Folds `(src, dst, words)` sends into [`MachineStats`] under one spec.
///
/// Storage follows the machine pairs that carry traffic, never `k²`
/// (see [`PairRows`]): under the one-to-one mapping `k = n`, up to 4096.
#[derive(Clone, Debug)]
pub struct MachineLedger {
    n: usize,
    k: usize,
    bandwidth: u64,
    spec: ModelSpec,
    /// The current logical round's remote charges as `(source machine,
    /// destination machine, words)`, in arrival order; grouped by pair
    /// at [`end_round`](MachineLedger::end_round).
    round: Vec<(u32, u32, u64)>,
    /// Cumulative remote words per ordered machine pair that ever
    /// carried any.
    pair_words: PairRows<u64>,
    /// The largest entry of `pair_words`.
    max_pair_total: u64,
    stats: MachineStats,
}

impl MachineLedger {
    /// A ledger for an `n`-node clique under `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelSpec::validate_for`].
    pub fn new(n: usize, spec: &ModelSpec) -> Result<Self, ModelError> {
        spec.validate_for(n)?;
        let k = spec.machines(n);
        Ok(MachineLedger {
            n,
            k,
            bandwidth: spec.bandwidth_words_per_link,
            spec: *spec,
            round: Vec::new(),
            pair_words: PairRows::new(k),
            max_pair_total: 0,
            stats: MachineStats::default(),
        })
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.k
    }

    /// Records one logical send of `words` words.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] if `src` or `dst` is not a node of
    /// the clique; nothing is recorded then.
    pub fn record(&mut self, src: usize, dst: usize, words: u64) -> Result<(), ModelError> {
        if let Some(node) = [src, dst].into_iter().find(|&v| v >= self.n) {
            return Err(ModelError::NodeOutOfRange { node, n: self.n });
        }
        let (ms, md) = (
            self.spec.machine_of(self.n, src),
            self.spec.machine_of(self.n, dst),
        );
        if ms == md {
            self.stats.local_words += words;
            return Ok(());
        }
        self.stats.remote_words += words;
        self.round.push((ms as u32, md as u32, words));
        Ok(())
    }

    /// Closes the current logical round; returns the machine rounds it
    /// cost (≥ 1: a round happens even if nothing crossed machines).
    pub fn end_round(&mut self) -> u64 {
        // Under the one-to-one mapping a `(src, dst)`-sorted batch
        // stream is already pair-sorted, so the sort runs only for
        // k-machine mappings and hand-built streams.
        if !self.round.is_sorted_by_key(|&(from, to, _)| (from, to)) {
            self.round.sort_unstable_by_key(|&(from, to, _)| (from, to));
        }
        let mut needed = 1u64;
        for from in self.round.chunk_by(|a, b| a.0 == b.0) {
            let loads = from
                .chunk_by(|a, b| a.1 == b.1)
                .map(|pair| (pair[0].1, pair.iter().map(|&(_, _, words)| words).sum()));
            self.pair_words
                .fold_run(from[0].0, loads, |total, load: u64| {
                    self.stats.max_pair_words = self.stats.max_pair_words.max(load);
                    needed = needed.max(load.div_ceil(self.bandwidth));
                    *total += load;
                    self.max_pair_total = self.max_pair_total.max(*total);
                });
        }
        self.round.clear();
        self.stats.logical_rounds += 1;
        self.stats.machine_rounds += needed;
        needed
    }

    /// The cumulative totals so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The largest cumulative load on any ordered machine pair over
    /// every closed round.
    pub fn max_pair_total(&self) -> u64 {
        self.max_pair_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_k(bw: u64, k: usize) -> ModelSpec {
        ModelSpec::clique().with_bandwidth(bw).kmachine(k)
    }

    #[test]
    fn local_traffic_is_free() {
        // n = 8 on 2 machines: 0..4 and 4..8.
        let mut led = MachineLedger::new(8, &spec_k(4, 2)).unwrap();
        led.record(0, 3, 100).unwrap();
        led.record(5, 7, 50).unwrap();
        assert_eq!(led.end_round(), 1, "local-only round costs one");
        let s = led.stats();
        assert_eq!((s.local_words, s.remote_words), (150, 0));
        assert_eq!((s.logical_rounds, s.machine_rounds), (1, 1));
    }

    #[test]
    fn pair_load_sets_the_round_count() {
        let mut led = MachineLedger::new(8, &spec_k(4, 2)).unwrap();
        // 0→4 and 1→5 share the ordered pair (0, 1): 9 words / bw 4 → 3
        // machine rounds. The reverse pair carries 4 words → 1 round.
        led.record(0, 4, 5).unwrap();
        led.record(1, 5, 4).unwrap();
        led.record(6, 2, 4).unwrap();
        assert_eq!(led.end_round(), 3);
        let s = led.stats();
        assert_eq!(s.remote_words, 13);
        assert_eq!(s.max_pair_words, 9);
        assert_eq!(s.machine_rounds, 3);
        assert_eq!(led.max_pair_total(), 9);
        assert_eq!(
            led.record(2, 8, 1),
            Err(ModelError::NodeOutOfRange { node: 8, n: 8 })
        );
        assert_eq!(led.stats(), s, "a refused send records nothing");
        // The reverse pair accumulates on its own: 4 + 6 = 10 words.
        led.record(7, 3, 6).unwrap();
        assert_eq!(led.end_round(), 2);
        assert_eq!(led.max_pair_total(), 10, "cumulative, per ordered pair");
    }

    #[test]
    fn k_equals_n_recovers_the_clique() {
        // At k = n every pair is one logical link; admission caps each
        // link at the bandwidth, so every round costs exactly 1.
        let mut led = MachineLedger::new(4, &spec_k(8, 4)).unwrap();
        for r in 0..5 {
            led.record(0, 1, 8).unwrap();
            led.record(2, 3, 8).unwrap();
            assert_eq!(led.end_round(), 1, "round {r}");
        }
        let s = led.stats();
        assert_eq!(s.machine_rounds, s.logical_rounds);
        assert_eq!(s.local_words, 0);
    }

    #[test]
    fn k_equals_one_is_all_local() {
        let mut led = MachineLedger::new(6, &spec_k(2, 1)).unwrap();
        for src in 0..6 {
            for dst in 0..6 {
                if src != dst {
                    led.record(src, dst, 2).unwrap();
                }
            }
        }
        assert_eq!(led.end_round(), 1);
        let s = led.stats();
        assert_eq!(s.remote_words, 0);
        assert_eq!(s.machine_rounds, 1);
    }

    #[test]
    fn one_to_one_matches_k_equals_n() {
        let one = ModelSpec::clique().with_bandwidth(3);
        let mut led = MachineLedger::new(5, &one).unwrap();
        assert_eq!(led.machines(), 5);
        led.record(0, 4, 3).unwrap();
        assert_eq!(led.end_round(), 1);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(MachineLedger::new(4, &spec_k(2, 5)).is_err());
        assert!(MachineLedger::new(1, &ModelSpec::clique()).is_err());
    }

    #[test]
    fn empty_rounds_still_cost_one() {
        let mut led = MachineLedger::new(8, &spec_k(4, 2)).unwrap();
        led.end_round();
        led.end_round();
        assert_eq!(led.stats().machine_rounds, 2);
        assert_eq!(led.stats().logical_rounds, 2);
    }
}
