//! Distributed sorting on the clique (global rank assignment).
//!
//! Algorithm 4 (SQ-MST) step 1 sorts all edges by weight so that every node
//! learns the global rank of each incident edge; the paper invokes Lenzen's
//! `O(1)`-round deterministic clique sort. We implement sample-sort with
//! the same interface and measure the rounds it takes (DESIGN.md records
//! the substitution):
//!
//! 1. Every node sends a small evenly-spaced sample of its locally sorted
//!    keys to a coordinator.
//! 2. The coordinator picks `n − 1` splitters and broadcasts them.
//! 3. Keys are routed to their bucket owners (balanced routing).
//! 4. Owners share bucket sizes all-to-all, prefix-sum to a base rank, sort
//!    locally, and route `(item, rank)` back to the original holders.
//!
//! Keys are `[u64; 3]` triples compared lexicographically — exactly the
//! shape of the tie-broken edge weight `(w, u, v)`, which is also what
//! makes all keys distinct in the MST use case. Duplicate keys are still
//! handled (ranked in deterministic order of holder).

use crate::collectives::{all_to_all_share, broadcast_large, gather_direct, malformed};
use crate::routing::{route, RoutedPacket};
use crate::{Net, Packet};
use cc_net::{Defect, NetError};

/// A sortable key: compared lexicographically.
pub type SortItem = [u64; 3];

/// Number of splitter samples each node contributes.
const SAMPLES_PER_NODE: usize = 8;

/// The key leading a message that must be `len` words long.
fn read_key(msg: &[u64], len: usize) -> Result<SortItem, Defect> {
    match *msg {
        [a, b, c, ..] if msg.len() == len => Ok([a, b, c]),
        _ => Err(Defect::Length {
            found: msg.len(),
            expected: len,
        }),
    }
}

/// Sorts all items globally; returns, for each node, its own items paired
/// with their global 0-based rank (same multiset of items it submitted).
///
/// # Errors
///
/// Propagates simulator errors. A sample or key of the wrong length, and
/// a rank message that is short, names no item its holder holds, repeats
/// one or never arrives, is [`NetError::Malformed`].
pub fn distributed_sort(
    net: &mut Net,
    per_node: Vec<Vec<SortItem>>,
) -> Result<Vec<Vec<(SortItem, u64)>>, NetError> {
    let n = net.n();
    assert_eq!(per_node.len(), n, "one item list per node");
    net.begin_scope("route:sort");
    let coordinator = 0usize;

    // 1. Local sort + sample; samples go to the coordinator.
    let mut local: Vec<Vec<SortItem>> = per_node;
    for items in &mut local {
        items.sort_unstable();
    }
    let mut sample_msgs: Vec<Vec<Packet>> = vec![Vec::new(); n];
    for (u, items) in local.iter().enumerate() {
        if u == coordinator || items.is_empty() {
            continue;
        }
        let s = SAMPLES_PER_NODE.min(items.len());
        for j in 0..s {
            let idx = j * items.len() / s;
            let k = items[idx];
            sample_msgs[u].push(Packet::of(&k[..]));
        }
    }
    let gathered = gather_direct(net, coordinator, sample_msgs)?;
    let mut samples = Vec::with_capacity(gathered.len());
    for (src, p) in &gathered {
        samples.push(read_key(p, 3).map_err(|d| malformed(net, *src, coordinator, d))?);
    }
    // Coordinator's own samples are free (local).
    {
        let items = &local[coordinator];
        if !items.is_empty() {
            let s = SAMPLES_PER_NODE.min(items.len());
            for j in 0..s {
                samples.push(items[j * items.len() / s]);
            }
        }
    }
    samples.sort_unstable();

    // 2. n−1 splitters, broadcast (3 words each).
    let splitters: Vec<SortItem> = if samples.is_empty() {
        Vec::new()
    } else {
        (1..n)
            .map(|b| samples[(b * samples.len() / n).min(samples.len() - 1)])
            .collect()
    };
    let mut splitter_words = Vec::with_capacity(splitters.len() * 3);
    for s in &splitters {
        splitter_words.extend_from_slice(s);
    }
    broadcast_large(net, coordinator, splitter_words.into())?;

    // 3. Route each item to its bucket owner, tagged with the holder-local
    //    index so ranks can be routed back.
    let bucket_of = |k: &SortItem| -> usize {
        // First bucket whose splitter is > k  (splitters sorted ascending).
        splitters.partition_point(|s| s <= k)
    };
    let mut packets = Vec::new();
    for (u, items) in local.iter().enumerate() {
        for (idx, k) in items.iter().enumerate() {
            packets.push(RoutedPacket {
                src: u,
                dst: bucket_of(k),
                payload: Packet::of(&[k[0], k[1], k[2], idx as u64]),
            });
        }
    }
    let buckets = route(net, packets)?;
    // Owners read their keys as the routing delivered them.
    let mut owned: Vec<Vec<(SortItem, usize, u64)>> = Vec::with_capacity(n);
    for (owner, bucket) in buckets.into_iter().enumerate() {
        let mut entries = Vec::with_capacity(bucket.len());
        for (src, p) in &bucket {
            let key = read_key(p, 4).map_err(|d| malformed(net, *src, owner, d))?;
            entries.push((key, *src, p[3]));
        }
        owned.push(entries);
    }

    // 4. Bucket sizes → base ranks via all-to-all + prefix sums.
    let sizes: Vec<u64> = owned.iter().map(|b| b.len() as u64).collect();
    let shared_sizes = all_to_all_share(net, &sizes)?;
    let mut base = vec![0u64; n];
    for b in 1..n {
        base[b] = base[b - 1] + shared_sizes[b - 1];
    }

    // 5. Owners sort (key, holder, idx) and route ranks back.
    let mut rank_packets = Vec::new();
    for (owner, mut entries) in owned.into_iter().enumerate() {
        entries.sort_unstable();
        for (offset, (_k, holder, idx)) in entries.into_iter().enumerate() {
            rank_packets.push(RoutedPacket {
                src: owner,
                dst: holder,
                payload: Packet::of(&[idx, base[owner] + offset as u64]),
            });
        }
    }
    let ranked = route(net, rank_packets)?;

    // 6. Assemble per-holder results: exactly one rank per held item.
    let mut out: Vec<Vec<(SortItem, u64)>> = vec![Vec::new(); n];
    for (holder, msgs) in ranked.iter().enumerate() {
        let items = &local[holder];
        let mut by_idx: Vec<Option<u64>> = vec![None; items.len()];
        for &(owner, ref p) in msgs {
            let defect = match **p {
                [idx, rank] => match usize::try_from(idx).ok().and_then(|i| by_idx.get_mut(i)) {
                    Some(slot @ None) => {
                        *slot = Some(rank);
                        continue;
                    }
                    _ => Defect::Rank { item: idx },
                },
                _ => Defect::Length {
                    found: p.len(),
                    expected: 2,
                },
            };
            return Err(malformed(net, owner, holder, defect));
        }
        // An item with no rank names the bucket owner that owed it.
        let mut ranked_items = Vec::with_capacity(items.len());
        for (idx, (&k, rank)) in items.iter().zip(by_idx).enumerate() {
            let Some(rank) = rank else {
                let defect = Defect::Rank { item: idx as u64 };
                return Err(malformed(net, bucket_of(&k), holder, defect));
            };
            ranked_items.push((k, rank));
        }
        out[holder] = ranked_items;
    }
    net.end_scope();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::{MalformedMessage, NetConfig};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(2))
    }

    /// Flatten results, sort by rank, and check the rank order equals the
    /// key order and ranks are exactly 0..total.
    fn assert_valid_ranking(results: &[Vec<(SortItem, u64)>]) {
        let mut all: Vec<(u64, SortItem)> =
            results.iter().flatten().map(|&(k, r)| (r, k)).collect();
        all.sort_unstable();
        for (i, (r, _)) in all.iter().enumerate() {
            assert_eq!(*r, i as u64, "ranks must be a permutation of 0..total");
        }
        for w in all.windows(2) {
            assert!(w[0].1 <= w[1].1, "rank order must respect key order");
        }
    }

    #[test]
    fn empty_instance() {
        let mut nt = net(4);
        let res = distributed_sort(&mut nt, vec![Vec::new(); 4]).unwrap();
        assert!(res.iter().all(Vec::is_empty));
    }

    #[test]
    fn single_holder_sorts() {
        let mut nt = net(4);
        let mut per_node = vec![Vec::new(); 4];
        per_node[2] = vec![[5, 0, 0], [1, 0, 0], [3, 0, 0]];
        let res = distributed_sort(&mut nt, per_node).unwrap();
        assert_valid_ranking(&res);
        assert_eq!(res[2].len(), 3);
        // Items come back in locally sorted order with matching ranks.
        assert_eq!(res[2][0], ([1, 0, 0], 0));
        assert_eq!(res[2][2], ([5, 0, 0], 2));
    }

    #[test]
    fn random_instances_rank_correctly() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for trial in 0..4 {
            let n = 10;
            let mut nt = Net::new(NetConfig::kt1(n).with_seed(trial));
            let per_node: Vec<Vec<SortItem>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(0..30))
                        .map(|_| [rng.gen_range(0..1000u64), rng.gen(), rng.gen()])
                        .collect()
                })
                .collect();
            let res = distributed_sort(&mut nt, per_node.clone()).unwrap();
            assert_valid_ranking(&res);
            // Each holder got back exactly its own multiset.
            for u in 0..n {
                let mut sent = per_node[u].clone();
                sent.sort_unstable();
                let got: Vec<SortItem> = res[u].iter().map(|&(k, _)| k).collect();
                assert_eq!(got, sent);
            }
        }
    }

    #[test]
    fn lexicographic_tie_break_of_triples() {
        let mut nt = net(4);
        let mut per_node = vec![Vec::new(); 4];
        per_node[1] = vec![[7, 2, 9]];
        per_node[3] = vec![[7, 2, 3]];
        let res = distributed_sort(&mut nt, per_node).unwrap();
        assert_eq!(res[3][0].1, 0, "[7,2,3] < [7,2,9]");
        assert_eq!(res[1][0].1, 1);
    }

    #[test]
    fn skewed_distribution_all_on_one_node() {
        let n = 8;
        let mut nt = net(n);
        let mut per_node = vec![Vec::new(); n];
        per_node[5] = (0..100u64).rev().map(|i| [i, 0, 0]).collect();
        let res = distributed_sort(&mut nt, per_node).unwrap();
        assert_valid_ranking(&res);
    }

    /// Applies `decision` to the first message to `dst` that `round`
    /// stages, and delivers everything else.
    struct FirstTo {
        round: u64,
        dst: usize,
        decision: cc_net::FaultDecision,
        fired: std::sync::atomic::AtomicBool,
    }

    impl cc_net::FaultInjector for FirstTo {
        fn decision(
            &self,
            round: u64,
            _src: usize,
            dst: usize,
            _index: u32,
        ) -> cc_net::FaultDecision {
            use std::sync::atomic::Ordering::Relaxed;
            if (round, dst) == (self.round, self.dst) && !self.fired.swap(true, Relaxed) {
                self.decision
            } else {
                cc_net::FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn a_stray_key_or_a_corrupted_duplicated_or_dropped_rank_is_a_typed_error() {
        // Node 2 holds every item, so the last round that sends anything
        // carries rank frames `[2, owner, idx, rank]` to node 2 only.
        let n = 4;
        let mut per_node = vec![Vec::new(); n];
        per_node[2] = (0..24u64).map(|i| [(i * 37) % 101, i, 0]).collect();
        let mut clean = net(n);
        distributed_sort(&mut clean, per_node.clone()).unwrap();
        let last_send = clean.cost().rounds - 2;
        for decision in [
            // Bit 40 of the `idx` word: an item node 2 does not hold.
            cc_net::FaultDecision::Corrupt { bit: 2 * 64 + 40 },
            cc_net::FaultDecision::Duplicate,
            cc_net::FaultDecision::Drop,
        ] {
            let mut nt = net(n);
            nt.set_fault_injector(Box::new(FirstTo {
                round: last_send,
                dst: 2,
                decision,
                fired: false.into(),
            }));
            let err = distributed_sort(&mut nt, per_node.clone()).unwrap_err();
            assert!(
                matches!(
                    err,
                    NetError::Malformed(MalformedMessage {
                        receiver: 2,
                        defect: Defect::Rank { item },
                        ..
                    }) if (item >= 1 << 40) == matches!(decision, cc_net::FaultDecision::Corrupt { .. })
                ),
                "{decision:?}: {err:?}"
            );
        }
        // Node 2's first sample `[0, 0, 0]`, deferred past the broadcast,
        // lands in the key routing as a frame for node 0 from node 0 with
        // a 1-word key; the routing waits for it, so its arrival round is
        // the routing's last, and the error names that round.
        let defer = clean.cost().rounds;
        let mut nt = net(n);
        nt.set_fault_injector(Box::new(FirstTo {
            round: 0,
            dst: 0,
            decision: cc_net::FaultDecision::Defer { rounds: defer },
            fired: false.into(),
        }));
        let err = distributed_sort(&mut nt, per_node).unwrap_err();
        assert_eq!(
            err,
            NetError::Malformed(MalformedMessage {
                round: 1 + defer,
                sender: 0,
                receiver: 0,
                defect: Defect::Length {
                    found: 1,
                    expected: 4
                },
            })
        );
    }

    #[test]
    fn rounds_stay_modest_for_balanced_loads() {
        let n = 16;
        let mut nt = net(n);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let per_node: Vec<Vec<SortItem>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| [rng.gen_range(0..10_000u64), rng.gen(), rng.gen()])
                    .collect()
            })
            .collect();
        let res = distributed_sort(&mut nt, per_node).unwrap();
        assert_valid_ranking(&res);
        let rounds = nt.cost().rounds;
        assert!(rounds <= 80, "sample sort took {rounds} rounds");
    }
}
