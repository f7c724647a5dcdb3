//! Payloads wider than one link, the one path onto the wire for them.
//!
//! Sketches are `Θ(log⁴ n)` bits, far larger than one `O(log n)`-bit
//! message, so the algorithms ship them as many packets (the paper speaks
//! of "O(log⁴ n) messages of size O(log n) each"). They hand whole word
//! [`Bundle`]s to [`route_bundles`] or [`ship_direct`], which cut them
//! into frames that fill a link exactly, and read them back per
//! (receiver, sender) pair from [`Bundles`].
//!
//! Frame layout: a routed fragment is `[dst, src, seq, chunk…]` — the
//! routing header, then the fragment's sequence number — and a direct
//! fragment is `[seq, chunk…]` (its link names the sender). Every word
//! is paid for. A bundle's frames are laid out back to back, in wire
//! order, in one buffer at its sender, and each frame is a view into it
//! ([`Packet::shared_views`]): cutting a bundle is one allocation, not
//! one per fragment, and the router forwards a frame by refcount.
//! Arrivals skip the router's `(src, payload)` sort: [`Bundles`] groups
//! a receiver's frames by sender with a counting sort over their
//! indices, puts one pair's frames in sequence order in linear time when
//! the pair is read and copies each chunk straight into an exactly sized
//! buffer; a lost or duplicated fragment, or a frame too short to hold its
//! sequence number, is a [`NetError::Malformed`].

use crate::collectives::{fill_links, last_round};
use crate::routing::{route_frames, HEADER_WORDS};
use crate::{Net, Packet};
use cc_net::{Defect, MalformedMessage, NetError};
use std::collections::VecDeque;
use std::ops::Range;

/// Splits `data` into packets of at most `chunk_payload` payload words,
/// each prefixed with its sequence number.
///
/// # Panics
///
/// Panics if `chunk_payload == 0`.
pub fn fragment(data: &[u64], chunk_payload: usize) -> Vec<Packet> {
    assert!(chunk_payload >= 1, "chunks must carry payload");
    cut(&[], data, chunk_payload).collect()
}

/// Cuts `data` into frames `[head…, seq, chunk…]` of at most `chunk`
/// payload words each; empty `data` is one frame with no payload. The
/// frames are laid out in wire order in one buffer and handed out as
/// views into it.
fn cut(head: &[u64], data: &[u64], chunk: usize) -> impl Iterator<Item = Packet> {
    let frames = data.len().div_ceil(chunk).max(1);
    let mut words = Vec::with_capacity(frames * (head.len() + 1) + data.len());
    if data.is_empty() {
        words.extend_from_slice(head);
        words.push(0);
    }
    for (seq, c) in data.chunks(chunk).enumerate() {
        words.extend_from_slice(head);
        words.push(seq as u64);
        words.extend_from_slice(c);
    }
    let (total, width) = (words.len(), head.len() + 1 + chunk);
    Packet::shared_views(
        words,
        (0..frames).map(move |i| width.min(total - i * width)),
    )
}

/// Reassembles fragments produced by [`fragment`] (in any arrival order).
///
/// # Panics
///
/// Panics if a sequence number is missing or duplicated — that indicates a
/// routing-layer bug, not a recoverable condition. [`Bundles::take`] is
/// the checked reader.
pub fn reassemble(packets: Vec<Packet>) -> Vec<u64> {
    let mut order: Vec<usize> = (0..packets.len()).collect();
    read(&mut order, |i| &packets[i], 0)
        .unwrap_or_else(|defect| panic!("fragment sequence corrupted: {defect}"))
}

/// Puts the frame indices `order` in order of the sequence number at
/// `offset` of each `frame(i)` and concatenates the frames' chunks into
/// one exactly sized buffer. A frame with no word at `offset` is a
/// [`Defect::Length`]; sequence numbers other than exactly
/// `0..order.len()` mean a fragment was lost or duplicated: the error is
/// the first mismatch of the sorted sequence numbers.
fn read<'a>(
    order: &mut [usize],
    frame: impl Fn(usize) -> &'a [u64],
    offset: usize,
) -> Result<Vec<u64>, Defect> {
    if let Some(&i) = order.iter().find(|&&i| frame(i).len() <= offset) {
        return Err(Defect::Length {
            found: frame(i).len(),
            expected: offset + 1,
        });
    }
    let seq = |i: usize| frame(i)[offset];
    if !place_by_seq(order, seq) {
        order.sort_unstable_by_key(|&i| seq(i));
        let (expected, found) = (0..)
            .zip(order.iter().map(|&i| seq(i)))
            .find(|&(expected, found)| found != expected)
            .expect("sequence numbers other than 0..k");
        return Err(Defect::Sequence { expected, found });
    }
    let total = order.iter().map(|&i| frame(i).len() - offset - 1).sum();
    let mut words = Vec::with_capacity(total);
    for &i in order.iter() {
        words.extend_from_slice(&frame(i)[offset + 1..]);
    }
    Ok(words)
}

/// Swaps each index into the slot its frame's sequence number names, in
/// linear time (direct frames already arrive in order); `false` if the
/// sequence numbers are not exactly `0..order.len()`.
fn place_by_seq(order: &mut [usize], seq: impl Fn(usize) -> u64) -> bool {
    let k = order.len() as u64;
    for at in 0..order.len() {
        loop {
            let s = seq(order[at]);
            if s == at as u64 {
                break;
            }
            // Out of range, or a second frame for a slot already filled.
            if s >= k || seq(order[s as usize]) == s {
                return false;
            }
            order.swap(at, s as usize);
        }
    }
    true
}

/// A whole payload `(src, dst, words)` of any width.
pub type Bundle = (usize, usize, Vec<u64>);

/// Payload words per fragment that also carries `overhead` words.
fn chunk_payload(link_words: u64, overhead: u64) -> usize {
    link_words.saturating_sub(overhead).max(1) as usize
}

/// Ships bundles, at most one per ordered pair, through the router: each
/// fragment plus its sequence word and routing header fills one link.
///
/// # Errors
///
/// As [`route`](crate::route).
pub fn route_bundles(net: &mut Net, bundles: Vec<Bundle>) -> Result<Bundles, NetError> {
    let frames = routed_frames(net.config().link_words, bundles);
    let arrivals = route_frames(net, frames)?;
    Ok(Bundles::new(
        arrivals,
        HEADER_WORDS as usize,
        last_round(net),
    ))
}

/// The frames [`route_bundles`] routes, in bundle order.
fn routed_frames(link_words: u64, bundles: Vec<Bundle>) -> Vec<Packet> {
    let chunk = chunk_payload(link_words, HEADER_WORDS + 1);
    let total = bundles
        .iter()
        .map(|b| b.2.len().div_ceil(chunk).max(1))
        .sum();
    let mut frames = Vec::with_capacity(total);
    for (src, dst, words) in bundles {
        frames.extend(cut(&[dst as u64, src as u64], &words, chunk));
    }
    frames
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
        queues[src].extend(cut(&[], &words, chunk).map(|p| (dst, p)));
    }
    let arrivals = fill_links(net, queues)?;
    Ok(Bundles::new(arrivals, 0, last_round(net)))
}

/// Delivered fragment frames, per receiver, read per (receiver, sender)
/// pair. A pair is reassembled only when read, so a stray packet nobody
/// reads is never interpreted.
#[derive(Debug)]
pub struct Bundles {
    /// Per receiver, its `(sender, frame)` arrivals in arrival order.
    arrivals: Vec<Vec<(usize, Packet)>>,
    /// Indices into a receiver's arrivals, grouped by pair in pair order
    /// and in arrival order within a pair.
    order: Vec<usize>,
    /// `(receiver, sender)` → that pair's run of `order`, sorted by pair;
    /// a read pair's run is emptied.
    runs: Vec<((usize, usize), Range<usize>)>,
    /// Words before a frame's sequence number: the routing header, or
    /// none for direct frames.
    offset: usize,
    /// The round the shipment's last delivery landed in, which a
    /// malformed bundle's error names.
    round: u64,
}

impl Bundles {
    /// Groups each receiver's arrivals by sender with a counting sort
    /// over the senders it heard from: linear in the frames, no
    /// comparison sort over them.
    fn new(arrivals: Vec<Vec<(usize, Packet)>>, offset: usize, round: u64) -> Bundles {
        let mut order = vec![0; arrivals.iter().map(Vec::len).sum()];
        let mut runs = Vec::new();
        // Per sender: its frame count, then the next free slot of its run.
        let mut next: Vec<usize> = Vec::new();
        let mut senders = Vec::new();
        let mut at = 0;
        for (receiver, per) in arrivals.iter().enumerate() {
            for &(src, _) in per {
                if src >= next.len() {
                    next.resize(src + 1, 0);
                }
                if next[src] == 0 {
                    senders.push(src);
                }
                next[src] += 1;
            }
            senders.sort_unstable();
            for &src in &senders {
                let count = std::mem::replace(&mut next[src], at);
                runs.push(((receiver, src), at..at + count));
                at += count;
            }
            for (i, &(src, _)) in per.iter().enumerate() {
                order[next[src]] = i;
                next[src] += 1;
            }
            for src in senders.drain(..) {
                next[src] = 0;
            }
        }
        Bundles {
            arrivals,
            order,
            runs,
            offset,
            round,
        }
    }

    /// The error naming `defect` in `sender`'s bundle at `receiver`, for
    /// readers that check what a bundle holds. Sender first, as in
    /// [`MalformedMessage`].
    pub fn malformed(&self, sender: usize, receiver: usize, defect: Defect) -> NetError {
        NetError::Malformed(MalformedMessage {
            round: self.round,
            sender,
            receiver,
            defect,
        })
    }

    /// Reassembles `sender`'s bundle at `receiver` (`Ok(None)` if none of
    /// it arrived). Each pair reads once.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] if the pair's sequence numbers are not
    /// exactly `0..k` ([`Defect::Sequence`]) or a frame is too short to
    /// hold one ([`Defect::Length`]).
    pub fn take(&mut self, receiver: usize, sender: usize) -> Result<Option<Vec<u64>>, NetError> {
        let Ok(at) = self
            .runs
            .binary_search_by_key(&(receiver, sender), |&(pair, _)| pair)
        else {
            return Ok(None);
        };
        let run = std::mem::take(&mut self.runs[at].1);
        if run.is_empty() {
            return Ok(None);
        }
        let per = &mut self.arrivals[receiver];
        let order = &mut self.order[run];
        let words = read(order, |i| &per[i].1, self.offset);
        // The pair reads once: release its frames now, not with the
        // whole shipment.
        for &i in order.iter() {
            per[i].1 = Packet::new();
        }
        match words {
            Ok(words) => Ok(Some(words)),
            Err(defect) => Err(self.malformed(sender, receiver, defect)),
        }
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

        /// Frames in any order, with sequence numbers lost, repeated or
        /// out of range, read exactly as sorting them would: their
        /// chunks in sequence order, or the first mismatch of the sorted
        /// sequence numbers against `0..k`.
        #[test]
        fn read_matches_the_sorted_reference(
            seqs in proptest::collection::vec(0u64..12, 0..10),
            widths in proptest::collection::vec(0usize..4, 10..11),
        ) {
            let frame = |s: u64| -> Vec<u64> {
                std::iter::once(s).chain((0..widths[s as usize % 10] as u64).map(|w| 100 * s + w)).collect()
            };
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            let expected = match (0..).zip(&sorted).find(|&(e, &s)| e != s) {
                Some((e, &s)) => Err(Defect::Sequence { expected: e, found: s }),
                None => Ok(sorted.iter().flat_map(|&s| frame(s)[1..].to_vec()).collect::<Vec<u64>>()),
            };
            let frames: Vec<Packet> = seqs.iter().map(|&s| Packet::from(frame(s))).collect();
            let mut order: Vec<usize> = (0..frames.len()).collect();
            prop_assert_eq!(read(&mut order, |i| &frames[i], 0), expected);
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
        assert_eq!(got.take(0, 2), Ok(Some(b)));
        assert_eq!(got.take(0, 1), Ok(Some(a)));
        assert_eq!(got.take(0, 1), Ok(None), "each pair is read once");
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
            assert_eq!(got.take(0, 2), Ok(Some(live)));
        }
    }

    #[test]
    fn unread_stray_fragments_never_panic() {
        let mut got = Bundles::new(
            vec![
                vec![(1, Packet::of(&[0, 5]))],
                vec![(0, Packet::of(&[9, 9]))], // no sequence 0: unreadable
            ],
            0,
            4,
        );
        assert_eq!(got.take(0, 1), Ok(Some(vec![5])));
        assert_eq!(got.take(0, 2), Ok(None));
    }

    #[test]
    fn lost_duplicated_or_short_fragments_are_typed_errors() {
        let frames = |seqs: &[u64]| {
            seqs.iter()
                .map(|&s| (3, Packet::of(&[s, 10 + s])))
                .collect()
        };
        let mut got = Bundles::new(
            vec![
                frames(&[2, 0]),
                frames(&[1, 0, 1]),
                frames(&[1, 0]),
                vec![(3, Packet::of(&[0, 10])), (3, Packet::new())],
            ],
            0,
            7,
        );
        let err = |receiver, defect| {
            NetError::Malformed(MalformedMessage {
                round: 7,
                sender: 3,
                receiver,
                defect,
            })
        };
        let seq = |expected, found| Defect::Sequence { expected, found };
        assert_eq!(got.take(0, 3), Err(err(0, seq(1, 2))), "fragment 1 lost");
        assert_eq!(got.take(1, 3), Err(err(1, seq(2, 1))), "fragment 1 twice");
        assert_eq!(got.take(2, 3), Ok(Some(vec![10, 11])));
        let short = Defect::Length {
            found: 0,
            expected: 1,
        };
        assert_eq!(got.take(3, 3), Err(err(3, short)), "no sequence word");
    }

    /// The skewed schedule SKETCHANDSPAN runs: every node ships a
    /// multi-fragment bundle to node 0 (node 0's own bundle stays local,
    /// node 5's is empty). Every bundle comes back exactly, and the
    /// schedule costs what it always has.
    #[test]
    fn all_to_one_bundles_keep_their_schedule() {
        use rand::{Rng, SeedableRng};
        let n = 48;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(48);
        let bundles: Vec<Bundle> = (0..n)
            .map(|src| {
                let len = if src == 5 { 0 } else { 40 + 7 * src };
                (src, 0, (0..len).map(|_| rng.gen()).collect())
            })
            .collect();
        let mut nt = Net::new(NetConfig::kt1(n).with_seed(41));
        assert_eq!(
            nt.config().link_words,
            8,
            "5-word chunks, up to 74 per bundle"
        );
        let mut got = route_bundles(&mut nt, bundles.clone()).unwrap();
        for (src, dst, words) in bundles {
            assert_eq!(got.take(dst, src), Ok(Some(words)), "bundle of node {src}");
        }
        let c = nt.cost();
        assert_eq!((c.rounds, c.messages, c.words), (50, 3838, 30511));
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
                let frames = routed_frames(link_words, vec![b.clone()]);
                for f in &frames {
                    prop_assert!(f.len() as u64 <= link_words);
                    prop_assert_eq!((f[0], f[1]), (b.1 as u64, b.0 as u64));
                }
                if b.2.len() >= chunk {
                    prop_assert_eq!(frames[0].len() as u64, link_words);
                }
            }

            let mut got = route_bundles(&mut net(n, link_words), bundles.clone()).unwrap();
            for (src, dst, words) in bundles {
                prop_assert_eq!(got.take(dst, src), Ok(Some(words)));
            }
        }
    }
}
