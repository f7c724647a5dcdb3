//! Per-machine-pair bandwidth accounting — the k-machine cost rule.
//!
//! One logical round of an `n`-node protocol moves some set of `(src,
//! dst, words)` sends. Under a [`Mapping`] those sends fold onto ordered
//! machine pairs; each pair carries at most the spec's bandwidth per
//! *machine round*, messages between co-located nodes are free, and
//! word-granular fragmentation across machine rounds is
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
//! implementation. It prices one closed logical round at a time, from
//! that round's link table: one `(src, dst, words)` row per directed
//! link that carried traffic, `(src, dst)`-sorted. `cc-lens`'s
//! `CommLedger` hands it each round's table when the round closes,
//! which is how every k-machine number in the workspace is priced.
//!
//! Under the one-to-one mapping every machine pair is one link, so the
//! price is a single pass over the table and the ledger keeps no
//! per-pair table of its own: the cumulative per-pair loads are the
//! link totals its caller already keeps. Only a k-machine mapping groups
//! links into machine pairs and keeps their cumulative loads here.

use crate::{Mapping, ModelError, ModelSpec, PairRows};

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

/// Prices closed logical rounds into [`MachineStats`] under one spec.
///
/// Storage follows the machine pairs that carry traffic, never `k²`
/// (see [`PairRows`]), and exists only under a k-machine mapping.
#[derive(Clone, Debug)]
pub struct MachineLedger {
    n: usize,
    bandwidth: u64,
    spec: ModelSpec,
    /// k-machine only: the closing round's remote loads as `(source
    /// machine, destination machine, words)`, grouped by pair before
    /// they are charged. Kept to reuse its buffer.
    grouping: Vec<(u32, u32, u64)>,
    /// k-machine only: cumulative remote words per ordered machine pair
    /// that ever carried any, and the largest of them.
    pair_words: Option<(PairRows<u64>, u64)>,
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
        let pair_words = match spec.mapping {
            Mapping::OneToOne => None,
            Mapping::KMachine(k) => Some((PairRows::new(k), 0)),
        };
        Ok(MachineLedger {
            n,
            bandwidth: spec.bandwidth_words_per_link,
            spec: *spec,
            grouping: Vec::new(),
            pair_words,
            stats: MachineStats::default(),
        })
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.spec.machines(self.n)
    }

    /// Prices one closed logical round from its link table and returns
    /// the machine rounds it cost (≥ 1: a round happens even if nothing
    /// crossed machines).
    ///
    /// `links` holds one `(src, dst, words)` row per directed link that
    /// carried traffic, `(src, dst)`-sorted, every node below `n` (the
    /// caller checks; a node outside the clique panics).
    pub fn price_round(&mut self, links: impl IntoIterator<Item = (u32, u32, u64)>) -> u64 {
        let peak = match &mut self.pair_words {
            None => {
                // One-to-one: the pairs are the links.
                let mut peak = 0;
                for (src, dst, words) in links {
                    if src == dst {
                        self.stats.local_words += words;
                    } else {
                        self.stats.remote_words += words;
                        peak = peak.max(words);
                    }
                }
                peak
            }
            Some((pair_words, max_total)) => {
                self.grouping.clear();
                for (src, dst, words) in links {
                    let (ms, md) = (
                        self.spec.machine_of(self.n, src as usize),
                        self.spec.machine_of(self.n, dst as usize),
                    );
                    if ms == md {
                        self.stats.local_words += words;
                    } else {
                        self.stats.remote_words += words;
                        self.grouping.push((ms as u32, md as u32, words));
                    }
                }
                // Sorted links keep source machines in order (the blocks
                // are contiguous), but not destination machines within
                // one source machine.
                if !self.grouping.is_sorted_by_key(|&(from, to, _)| (from, to)) {
                    self.grouping
                        .sort_unstable_by_key(|&(from, to, _)| (from, to));
                }
                let mut peak = 0;
                for from in self.grouping.chunk_by(|a, b| a.0 == b.0) {
                    let loads = from
                        .chunk_by(|a, b| a.1 == b.1)
                        .map(|pair| (pair[0].1, pair.iter().map(|&(_, _, words)| words).sum()));
                    pair_words.fold_run(from[0].0, loads, |total, load: u64| {
                        peak = peak.max(load);
                        *total += load;
                        *max_total = (*max_total).max(*total);
                    });
                }
                peak
            }
        };
        let needed = peak.div_ceil(self.bandwidth).max(1);
        self.stats.max_pair_words = self.stats.max_pair_words.max(peak);
        self.stats.logical_rounds += 1;
        self.stats.machine_rounds += needed;
        needed
    }

    /// The cumulative totals so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The largest cumulative load on any ordered machine pair over
    /// every priced round, under a k-machine mapping. `None` under the
    /// one-to-one mapping, where each pair is one link: the largest
    /// cumulative load is then the largest total of a link between two
    /// distinct nodes, which the caller's link totals hold.
    pub fn max_pair_total(&self) -> Option<u64> {
        self.pair_words.as_ref().map(|&(_, max_total)| max_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_k(bw: u64, k: usize) -> ModelSpec {
        ModelSpec::clique().with_bandwidth(bw).kmachine(k)
    }

    /// Prices one round given as unsorted `(src, dst, words)` links.
    fn price(led: &mut MachineLedger, links: &[(u32, u32, u64)]) -> u64 {
        let mut links = links.to_vec();
        links.sort_unstable();
        led.price_round(links)
    }

    #[test]
    fn local_traffic_is_free() {
        // n = 8 on 2 machines: 0..4 and 4..8.
        let mut led = MachineLedger::new(8, &spec_k(4, 2)).unwrap();
        assert_eq!(
            price(&mut led, &[(0, 3, 100), (5, 7, 50)]),
            1,
            "local-only round costs one"
        );
        let s = led.stats();
        assert_eq!((s.local_words, s.remote_words), (150, 0));
        assert_eq!((s.logical_rounds, s.machine_rounds), (1, 1));
    }

    #[test]
    fn pair_load_sets_the_round_count() {
        let mut led = MachineLedger::new(8, &spec_k(4, 2)).unwrap();
        // 0→4 and 1→5 share the ordered pair (0, 1): 9 words / bw 4 → 3
        // machine rounds. The reverse pair carries 4 words → 1 round.
        assert_eq!(price(&mut led, &[(0, 4, 5), (1, 5, 4), (6, 2, 4)]), 3);
        let s = led.stats();
        assert_eq!(s.remote_words, 13);
        assert_eq!(s.max_pair_words, 9);
        assert_eq!(s.machine_rounds, 3);
        assert_eq!(led.max_pair_total(), Some(9));
        // The reverse pair accumulates on its own: 4 + 6 = 10 words.
        assert_eq!(price(&mut led, &[(7, 3, 6)]), 2);
        assert_eq!(
            led.max_pair_total(),
            Some(10),
            "cumulative, per ordered pair"
        );
    }

    #[test]
    fn destination_machines_are_grouped_within_a_source_machine() {
        // n = 6 on 3 machines: {0,1}, {2,3}, {4,5}. Sorted links visit
        // machine 2 before machine 1 and then machine 1 again.
        let mut led = MachineLedger::new(6, &spec_k(4, 3)).unwrap();
        let links = [(0, 2, 3), (0, 4, 1), (1, 3, 3)];
        assert_eq!(led.price_round(links), 2, "pair (0, 1) carries 6 words");
        assert_eq!(led.stats().max_pair_words, 6);
        assert_eq!(led.max_pair_total(), Some(6));
    }

    #[test]
    fn k_equals_n_recovers_the_clique() {
        // At k = n every pair is one logical link; admission caps each
        // link at the bandwidth, so every round costs exactly 1.
        let mut led = MachineLedger::new(4, &spec_k(8, 4)).unwrap();
        for r in 0..5 {
            assert_eq!(price(&mut led, &[(0, 1, 8), (2, 3, 8)]), 1, "round {r}");
        }
        let s = led.stats();
        assert_eq!(s.machine_rounds, s.logical_rounds);
        assert_eq!(s.local_words, 0);
        assert_eq!(led.max_pair_total(), Some(40));
    }

    #[test]
    fn k_equals_one_is_all_local() {
        let mut led = MachineLedger::new(6, &spec_k(2, 1)).unwrap();
        let all: Vec<(u32, u32, u64)> = (0..6)
            .flat_map(|src| {
                (0..6)
                    .filter(move |&dst| dst != src)
                    .map(move |dst| (src, dst, 2))
            })
            .collect();
        assert_eq!(led.price_round(all), 1);
        let s = led.stats();
        assert_eq!(s.remote_words, 0);
        assert_eq!(s.machine_rounds, 1);
    }

    #[test]
    fn one_to_one_prices_each_link_as_its_pair() {
        let one = ModelSpec::clique().with_bandwidth(3);
        let mut led = MachineLedger::new(5, &one).unwrap();
        assert_eq!(led.machines(), 5);
        assert_eq!(price(&mut led, &[(0, 4, 3), (1, 2, 2)]), 1);
        // A hand-built self-link is local, as under k = n.
        assert_eq!(price(&mut led, &[(2, 2, 9), (3, 0, 7)]), 3);
        let s = led.stats();
        assert_eq!((s.local_words, s.remote_words), (9, 12));
        assert_eq!(s.max_pair_words, 7);
        assert_eq!(
            led.max_pair_total(),
            None,
            "the caller's link totals hold it"
        );
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(MachineLedger::new(4, &spec_k(2, 5)).is_err());
        assert!(MachineLedger::new(1, &ModelSpec::clique()).is_err());
    }

    #[test]
    fn empty_rounds_still_cost_one() {
        for spec in [spec_k(4, 2), ModelSpec::clique()] {
            let mut led = MachineLedger::new(8, &spec).unwrap();
            led.price_round([]);
            led.price_round([]);
            assert_eq!(led.stats().machine_rounds, 2);
            assert_eq!(led.stats().logical_rounds, 2);
        }
    }
}
