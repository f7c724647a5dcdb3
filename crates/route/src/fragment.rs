//! Payloads wider than one link, the one path onto the wire for them.
//!
//! Sketches are `Θ(log⁴ n)` bits, far larger than one `O(log n)`-bit
//! message, so the algorithms ship them as many packets (the paper speaks
//! of "O(log⁴ n) messages of size O(log n) each"). They hand whole word
//! [`Bundle`]s to [`route_bundles`] or [`ship_direct`], which fragment
//! them to fill a link exactly, and read them back per (receiver, sender)
//! pair from [`Bundles`]. Each fragment carries its sequence number in
//! band — that word is paid for like any other.

use crate::collectives::fill_links;
use crate::routing::{route, RoutedPacket, HEADER_WORDS};
use crate::{Net, Packet};
use cc_net::NetError;
use std::collections::{BTreeMap, VecDeque};

/// Splits `data` into packets of at most `chunk_payload` payload words,
/// each prefixed with its sequence number.
///
/// # Panics
///
/// Panics if `chunk_payload == 0`.
pub fn fragment(data: &[u64], chunk_payload: usize) -> Vec<Packet> {
    assert!(chunk_payload >= 1, "chunks must carry payload");
    if data.is_empty() {
        return vec![Packet::one(0)];
    }
    data.chunks(chunk_payload)
        .enumerate()
        .map(|(i, c)| {
            let mut p = Packet::with_capacity(c.len() + 1);
            p.push(i as u64);
            p.extend_from_slice(c);
            p
        })
        .collect()
}

/// Reassembles fragments produced by [`fragment`] (in any arrival order).
///
/// # Panics
///
/// Panics if a sequence number is missing or duplicated — that indicates a
/// routing-layer bug, not a recoverable condition.
pub fn reassemble(mut packets: Vec<Packet>) -> Vec<u64> {
    packets.sort_by_key(|p| p[0]);
    let mut out = Vec::new();
    for (expect, p) in packets.iter().enumerate() {
        assert_eq!(p[0] as usize, expect, "fragment sequence corrupted");
        out.extend_from_slice(&p[1..]);
    }
    out
}

/// A whole payload `(src, dst, words)` of any width.
pub type Bundle = (usize, usize, Vec<u64>);

/// Payload words per fragment that also carries `overhead` words.
fn chunk_payload(link_words: u64, overhead: u64) -> usize {
    link_words.saturating_sub(overhead).max(1) as usize
}

/// Ships bundles, at most one per ordered pair, through [`route`]: each
/// fragment plus its sequence word and routing header fills one link.
///
/// # Errors
///
/// As [`route`].
pub fn route_bundles(net: &mut Net, bundles: Vec<Bundle>) -> Result<Bundles, NetError> {
    let packets = routed_fragments(net.config().link_words, bundles);
    Ok(Bundles::collect(route(net, packets)?))
}

/// The packets [`route_bundles`] routes, in bundle order.
fn routed_fragments(link_words: u64, bundles: Vec<Bundle>) -> Vec<RoutedPacket> {
    let chunk = chunk_payload(link_words, HEADER_WORDS + 1);
    let routed = |(src, dst, words): Bundle| {
        let frags = fragment(&words, chunk).into_iter();
        frags.map(move |payload| RoutedPacket { src, dst, payload })
    };
    bundles.into_iter().flat_map(routed).collect()
}

/// Ships bundles, at most one per ordered pair, each over its sender's
/// own link: each fragment plus its sequence word fills the link, and a
/// crashed sender's remaining fragments are dropped.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn ship_direct(net: &mut Net, bundles: Vec<Bundle>) -> Result<Bundles, NetError> {
    let chunk = chunk_payload(net.config().link_words, 1);
    let mut queues = vec![VecDeque::new(); net.n()];
    for (src, dst, words) in bundles {
        queues[src].extend(fragment(&words, chunk).into_iter().map(|p| (dst, p)));
    }
    Ok(Bundles::collect(fill_links(net, queues)?))
}

/// Delivered fragments, grouped per receiver and sender. A pair is
/// reassembled only when read, so a stray packet nobody reads is never
/// interpreted.
#[derive(Debug)]
pub struct Bundles(Vec<BTreeMap<usize, Vec<Packet>>>);

impl Bundles {
    fn collect(arrivals: Vec<Vec<(usize, Packet)>>) -> Bundles {
        let group = |per: Vec<(usize, Packet)>| {
            let mut by_src: BTreeMap<usize, Vec<Packet>> = BTreeMap::new();
            for (src, p) in per {
                by_src.entry(src).or_default().push(p);
            }
            by_src
        };
        Bundles(arrivals.into_iter().map(group).collect())
    }

    /// Reassembles `sender`'s bundle at `receiver` (`None` if none of it
    /// arrived). Each pair reads once.
    ///
    /// # Panics
    ///
    /// As [`reassemble`].
    pub fn take(&mut self, receiver: usize, sender: usize) -> Option<Vec<u64>> {
        self.0[receiver].remove(&sender).map(reassemble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::{FaultInjector, NetConfig};
    use proptest::prelude::*;

    #[test]
    fn roundtrip_exact_multiple() {
        let data: Vec<u64> = (0..12).collect();
        let frags = fragment(&data, 4);
        assert_eq!(frags.len(), 3);
        assert_eq!(reassemble(frags), data);
    }

    #[test]
    fn roundtrip_ragged_tail() {
        let data: Vec<u64> = (0..10).collect();
        let frags = fragment(&data, 4);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[2].len(), 3, "seq + 2 payload words");
        assert_eq!(reassemble(frags), data);
    }

    #[test]
    fn empty_payload_still_one_packet() {
        let frags = fragment(&[], 4);
        assert_eq!(frags.len(), 1);
        assert_eq!(reassemble(frags), Vec::<u64>::new());
    }

    #[test]
    fn out_of_order_reassembly() {
        let data: Vec<u64> = (100..130).collect();
        let mut frags = fragment(&data, 5);
        frags.reverse();
        assert_eq!(reassemble(frags), data);
    }

    #[test]
    #[should_panic(expected = "sequence corrupted")]
    fn missing_fragment_detected() {
        let data: Vec<u64> = (0..20).collect();
        let mut frags = fragment(&data, 4);
        frags.remove(2);
        reassemble(frags);
    }

    proptest! {
        #[test]
        fn roundtrip_random(data in proptest::collection::vec(any::<u64>(), 0..200), chunk in 1usize..16) {
            let frags = fragment(&data, chunk);
            prop_assert_eq!(reassemble(frags), data);
        }
    }

    fn net(n: usize, link_words: u64) -> Net {
        Net::new(NetConfig::kt1(n).with_link_words(link_words).with_seed(5))
    }

    /// Node 1 is fail-stop crashed from round `at` on.
    struct CrashNode1(u64);
    impl FaultInjector for CrashNode1 {
        fn crashed(&self, round: u64, node: usize) -> bool {
            node == 1 && round >= self.0
        }
    }

    #[test]
    fn direct_bundles_round_trip_and_fill_each_link() {
        let mut nt = net(4, 4);
        let a: Vec<u64> = (0..9).collect(); // 3 fragments of 1 + 3 words
        let b: Vec<u64> = vec![7];
        let mut got = ship_direct(&mut nt, vec![(1, 0, a.clone()), (2, 0, b.clone())]).unwrap();
        assert_eq!(nt.cost().rounds, 6, "3 waves × (send + deliver)");
        assert_eq!(got.take(0, 2), Some(b));
        assert_eq!(got.take(0, 1), Some(a));
        assert_eq!(got.take(0, 1), None, "each pair is read once");
    }

    /// The shared fill-the-link loop drops a crashed sender's queue and
    /// returns once the live senders drain — with no round cap to stop a
    /// loop that waits for the dead node.
    #[test]
    fn crashed_sender_does_not_stall_the_fill_loop() {
        for at in [0, 2] {
            let mut nt = net(4, 4);
            nt.set_fault_injector(Box::new(CrashNode1(at)));
            let queued: Vec<u64> = (0..60).collect(); // 20 fragments, 20 waves
            let live: Vec<u64> = (0..6).collect();
            let mut got = ship_direct(&mut nt, vec![(1, 0, queued), (2, 0, live.clone())]).unwrap();
            assert!(nt.is_crashed(1));
            assert!(nt.cost().rounds <= 6, "crash at {at}: {:?}", nt.cost());
            assert_eq!(got.take(0, 2), Some(live));
        }
    }

    #[test]
    fn unread_stray_fragments_never_panic() {
        let mut got = Bundles::collect(vec![
            vec![(1, Packet::of(&[0, 5]))],
            vec![(0, Packet::of(&[9, 9]))], // no sequence 0: unreadable
        ]);
        assert_eq!(got.take(0, 1), Some(vec![5]));
        assert_eq!(got.take(0, 2), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random bundles (empty and self-addressed ones included) come
        /// back exactly; no routed fragment is wider than a link, and a
        /// bundle of at least one chunk fills a link exactly.
        #[test]
        fn routed_bundles_round_trip_at_link_width(
            n in 2usize..8,
            width in 0usize..3,
            spec in proptest::collection::vec((0usize..8, 0usize..8, 0usize..201, any::<u64>()), 0..10),
        ) {
            use rand::{Rng, SeedableRng};
            let link_words = [4u64, 8, 16][width];
            let mut pairs = std::collections::HashSet::new();
            let bundles: Vec<Bundle> = spec
                .iter()
                .map(|&(s, d, len, seed)| {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                    (s % n, d % n, (0..len).map(|_| rng.gen()).collect())
                })
                .filter(|b: &Bundle| pairs.insert((b.0, b.1)))
                .collect();

            let chunk = link_words as usize - 3;
            for b in &bundles {
                let frags = routed_fragments(link_words, vec![b.clone()]);
                for p in &frags {
                    prop_assert!(HEADER_WORDS + p.payload.len() as u64 <= link_words);
                }
                if b.2.len() >= chunk {
                    prop_assert_eq!(HEADER_WORDS + frags[0].payload.len() as u64, link_words);
                }
            }

            let mut got = route_bundles(&mut net(n, link_words), bundles.clone()).unwrap();
            for (src, dst, words) in bundles {
                prop_assert_eq!(got.take(dst, src), Some(words));
            }
        }
    }
}
