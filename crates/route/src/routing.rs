//! Balanced clique routing — the "Lenzen contract".
//!
//! Algorithm 2 step 2, Algorithm 4 steps 3 and 6, and the Lotker et al.
//! candidate collection all invoke a routing black box with the guarantee:
//! *if every node sends at most `n` messages and every node is the target
//! of at most `n` messages, delivery completes in `O(1)` rounds*. The paper
//! cites Lenzen (PODC'13); this module implements the classic two-phase
//! balanced scheme with the same contract:
//!
//! * **Spread**: each sender distributes its packets over all `n` nodes as
//!   intermediaries, round-robin from a random rotation, so every
//!   (sender, intermediary) link carries `O(1)` packets.
//! * **Deliver**: each intermediary forwards at most one held packet per
//!   destination per round; under the contract every (intermediary,
//!   destination) pair holds `O(1)` packets w.h.p., so this also takes
//!   `O(1)` rounds.
//!
//! Rounds are *measured*, not assumed: if a caller violates the contract
//! the routing still delivers, just in more rounds, and the experiment
//! tables report whatever it actually cost.
//!
//! Wire format: every packet travels as one *frame* `[final_dst,
//! orig_src, payload…]` — the two header words are charged against the
//! link budget like all payload. A call's frames are built once, in one
//! buffer ([`Packet::shared_views`]); an intermediary holds the frame it
//! received and forwards it by cloning the handle (a refcount bump for a
//! shared frame), so a packet is never copied on its way. [`route`]
//! strips the header at the receiver and sorts;
//! [`route_bundles`](crate::route_bundles) takes the frames as they
//! arrived, without that sort. Every node checks the header of each frame
//! it reads: one that names no node (a stray, or a frame a fault
//! corrupted in flight) ends the call with
//! [`NetError::Malformed`].

use crate::{Net, Packet};
use cc_net::{Defect, MalformedMessage, NetError};
use std::collections::{BTreeMap, VecDeque};

/// A packet to route: `payload` words from `src` to `dst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutedPacket {
    /// Originating node (must hold the packet).
    pub src: usize,
    /// Final destination.
    pub dst: usize,
    /// Payload words (the routing header adds 2 words on the wire).
    pub payload: Packet,
}

/// Routing header words every routed frame carries on the wire:
/// `[final_dst, orig_src]`.
pub(crate) const HEADER_WORDS: u64 = 2;

/// A caller-built frame's `(final_dst, orig_src)` header.
pub(crate) fn header(frame: &[u64]) -> (usize, usize) {
    (frame[0] as usize, frame[1] as usize)
}

/// The `(final_dst, orig_src)` header of a frame, if the frame holds one
/// and both words name nodes of an `n`-clique. A frame that fails is a
/// stray from another collective or was corrupted in flight.
fn read_header(frame: &[u64], n: usize) -> Result<(usize, usize), Defect> {
    let &[dst, src, ..] = frame else {
        return Err(Defect::Header { word: None });
    };
    match [dst, src].into_iter().find(|&w| w >= n as u64) {
        Some(word) => Err(Defect::Header { word: Some(word) }),
        None => Ok((dst as usize, src as usize)),
    }
}

/// Routes all packets; returns, per destination, the delivered
/// `(orig_src, payload)` pairs sorted by `(src, payload)` for determinism.
///
/// # Errors
///
/// Propagates simulator errors; also rejects, before any round runs, a
/// packet with an endpoint outside the clique
/// ([`NetError::BadDestination`]) and one whose wire size exceeds one
/// link's budget (ship wide payloads with
/// [`route_bundles`](crate::route_bundles), which fragments them). A
/// frame that arrives with a header naming no node (a fault corrupted
/// it in flight) ends the call with [`NetError::Malformed`].
///
/// # Panics
///
/// Panics if routing fails to converge within a generous round bound
/// (indicates an internal bug, not an input condition).
pub fn route(
    net: &mut Net,
    packets: Vec<RoutedPacket>,
) -> Result<Vec<Vec<(usize, Packet)>>, NetError> {
    // Every frame is laid out in one buffer and handed out as a view
    // into it (inline when narrow).
    let width = |p: &RoutedPacket| HEADER_WORDS as usize + p.payload.len();
    let mut words = Vec::with_capacity(packets.iter().map(width).sum());
    for p in &packets {
        words.extend_from_slice(&[p.dst as u64, p.src as u64]);
        words.extend_from_slice(&p.payload);
    }
    let lens = packets.into_iter().map(|p| width(&p));
    let frames = Packet::shared_views(words, lens).collect();
    let arrivals = route_frames(net, frames)?;
    Ok(arrivals
        .into_iter()
        .map(|frames| {
            let mut per: Vec<(usize, Packet)> = frames
                .into_iter()
                .map(|(src, f)| (src, Packet::of(&f[HEADER_WORDS as usize..])))
                .collect();
            per.sort();
            per
        })
        .collect())
}

/// The one routing loop. Routes `[final_dst, orig_src, payload…]` frames
/// and returns, per destination, the `(orig_src, frame)` arrivals in
/// arrival order.
pub(crate) fn route_frames(
    net: &mut Net,
    frames: Vec<Packet>,
) -> Result<Vec<Vec<(usize, Packet)>>, NetError> {
    let n = net.n();
    let link_words = net.config().link_words;
    let total = frames.len();

    // Queues sized to their final length up front: a skewed instance
    // delivers every frame to one node, and doubling that queue would
    // hold up to twice the frames' handles at the peak.
    let (mut sends, mut receives) = (vec![0; n], vec![0; n]);
    for f in &frames {
        let (dst, src) = header(f);
        if src < n && dst < n {
            sends[src] += 1;
            receives[dst] += 1;
        }
    }
    let mut arrived: Vec<Vec<(usize, Packet)>> =
        receives.into_iter().map(Vec::with_capacity).collect();
    let mut spread_q: Vec<VecDeque<Packet>> =
        sends.into_iter().map(VecDeque::with_capacity).collect();

    // Deliver src == dst locally (it crosses no link, so no width
    // applies), then validate sizes and split per sender.
    for f in frames {
        let (dst, src) = header(&f);
        if src >= n || dst >= n {
            return Err(NetError::BadDestination { src, dst, n });
        }
        if src == dst {
            arrived[dst].push((src, f));
            continue;
        }
        let w = f.len() as u64;
        if w > link_words {
            return Err(NetError::MessageTooLarge {
                round: net.cost().rounds,
                src,
                dst,
                words: w,
                budget: link_words,
            });
        }
        spread_q[src].push_back(f);
    }

    net.begin_scope("route:route");
    // A random rotation per sender (the w.h.p. analysis), so that hot
    // destinations spread evenly across intermediaries.
    let mut rr: Vec<usize> = (0..n)
        .map(|u| {
            use rand::Rng;
            net.node_rng(u).gen_range(0..n)
        })
        .collect();

    // Held frames awaiting phase-2 delivery: per node, keyed by
    // destination. A BTreeMap (not a dense `n`-vector) keeps both memory
    // and the per-round sweep proportional to the *active* destination
    // set — a dense grid is `n²` queues, which at `n = 4096` is more
    // wall-clock in initialization and empty-queue scanning than the
    // routing itself. Iteration order (ascending destination) and
    // therefore the send schedule are identical to the dense layout.
    // A queue that drains leaves its map for `spare`, and the next
    // destination to need a queue takes it from there, so a destination
    // that drains and refills round after round allocates nothing.
    let mut held: Vec<BTreeMap<usize, VecDeque<Packet>>> = vec![BTreeMap::new(); n];
    let mut spare: Vec<VecDeque<Packet>> = Vec::new();
    // Live counts, maintained incrementally so the `work_left` check is
    // O(1) instead of an O(n²) scan per round.
    let mut spread_left: usize = spread_q.iter().map(VecDeque::len).sum();
    let mut held_left: usize = 0;

    let round_cap = 8 * (total / n.max(1) + 4) as u64 + 64;
    let mut rounds_used = 0u64;
    loop {
        let work_left = spread_left > 0 || held_left > 0 || net.has_pending();
        if !work_left {
            break;
        }
        assert!(
            rounds_used < round_cap,
            "routing failed to converge within {round_cap} rounds"
        );
        rounds_used += 1;

        let round = net.cost().rounds;
        let mut malformed = None;
        net.step(|node, inbox, out| {
            // 1. Process arrivals: final deliveries vs. held forwards.
            for env in inbox {
                let (dst, src) = match read_header(&env.msg, n) {
                    Ok(h) => h,
                    Err(defect) => {
                        malformed.get_or_insert(MalformedMessage {
                            round,
                            sender: env.src,
                            receiver: node,
                            defect,
                        });
                        continue;
                    }
                };
                if dst == node {
                    arrived[node].push((src, env.msg.clone()));
                } else {
                    held[node]
                        .entry(dst)
                        .or_insert_with(|| spare.pop().unwrap_or_default())
                        .push_back(env.msg.clone());
                    held_left += 1;
                }
            }
            // 2. Phase 2 sends: one held frame per destination per round,
            //    destinations in ascending order (BTreeMap iteration).
            held[node].retain(|&dst, queue| {
                if let Some(frame) = queue.front() {
                    if out.budget_left(dst) >= frame.len() as u64 {
                        let frame = queue.pop_front().expect("front exists");
                        let _ = out.send(dst, frame);
                        held_left -= 1;
                    }
                }
                if queue.is_empty() {
                    spare.push(std::mem::take(queue));
                    return false;
                }
                true
            });
            // 3. Phase 1 spread: one frame per intermediary per round,
            //    round-robin; self-assignments are held locally.
            let mut sent_this_round = 0usize;
            while sent_this_round < n {
                let Some(frame) = spread_q[node].front() else {
                    break;
                };
                let inter = rr[node] % n;
                if inter != node && out.budget_left(inter) < frame.len() as u64 {
                    // This intermediary's link is full (phase-2 traffic);
                    // try it again next round rather than skipping it, to
                    // preserve the round-robin balance.
                    break;
                }
                let frame = spread_q[node].pop_front().expect("front exists");
                rr[node] += 1;
                spread_left -= 1;
                if inter == node {
                    let (dst, _) = header(&frame);
                    held[node]
                        .entry(dst)
                        .or_insert_with(|| spare.pop().unwrap_or_default())
                        .push_back(frame);
                    held_left += 1;
                } else {
                    let _ = out.send(inter, frame);
                    sent_this_round += 1;
                }
            }
        })?;
        if let Some(m) = malformed {
            return Err(m.into());
        }
    }
    net.end_scope();
    Ok(arrived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::NetConfig;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(3))
    }

    fn check_delivery(n: usize, packets: Vec<RoutedPacket>, nt: &mut Net) {
        let mut expect: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); n];
        for p in &packets {
            expect[p.dst].push((p.src, p.payload.clone()));
        }
        for e in &mut expect {
            e.sort();
        }
        let got = route(nt, packets).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_instance() {
        let mut nt = net(4);
        let got = route(&mut nt, Vec::new()).unwrap();
        assert!(got.iter().all(Vec::is_empty));
        assert_eq!(nt.cost().rounds, 0);
    }

    #[test]
    fn single_packet() {
        let mut nt = net(4);
        check_delivery(
            4,
            vec![RoutedPacket {
                src: 1,
                dst: 3,
                payload: Packet::of(&[42, 43]),
            }],
            &mut nt,
        );
    }

    #[test]
    fn self_packet_is_free() {
        let mut nt = net(4);
        check_delivery(
            4,
            vec![RoutedPacket {
                src: 2,
                dst: 2,
                payload: Packet::one(7),
            }],
            &mut nt,
        );
        assert_eq!(nt.cost().messages, 0);
    }

    #[test]
    fn oversized_packet_rejected() {
        let mut nt = Net::new(NetConfig::kt1(4).with_link_words(4));
        let err = route(
            &mut nt,
            vec![RoutedPacket {
                src: 0,
                dst: 1,
                payload: Packet::of(&[0; 3]),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NetError::MessageTooLarge { .. }));
    }

    #[test]
    fn out_of_range_endpoints_are_a_typed_error() {
        let packet = |src, dst| RoutedPacket {
            src,
            dst,
            payload: Packet::one(7),
        };
        for (src, dst) in [(0, 4), (9, 1), (4, 4)] {
            let mut nt = net(4);
            let err = route(&mut nt, vec![packet(1, 2), packet(src, dst)]).unwrap_err();
            assert_eq!(err, NetError::BadDestination { src, dst, n: 4 });
            assert_eq!(nt.cost().rounds, 0, "refused before any round runs");
        }
    }

    /// Flips bit 40 of one frame in flight: the `dst` header word of
    /// sender 1's round-0 frame to intermediary 2.
    struct FlipFrameOf1To2;

    impl cc_net::FaultInjector for FlipFrameOf1To2 {
        fn decision(
            &self,
            round: u64,
            src: usize,
            dst: usize,
            index: u32,
        ) -> cc_net::FaultDecision {
            if (round, src, dst, index) == (0, 1, 2, 0) {
                cc_net::FaultDecision::Corrupt { bit: 40 }
            } else {
                cc_net::FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn corrupted_header_in_flight_is_a_typed_error() {
        let n = 8;
        let mut nt = net(n);
        nt.set_fault_injector(Box::new(FlipFrameOf1To2));
        let packets = (0..n)
            .flat_map(|src| {
                (0..n).map(move |dst| RoutedPacket {
                    src,
                    dst,
                    payload: Packet::one((src * n + dst) as u64),
                })
            })
            .collect();
        // At seed 3 sender 1's rotation starts at intermediary 2, so its
        // first frame, bound for node 0, goes there; the flip turns that
        // `dst` word into 2^40, and node 2 reads it in round 1.
        let err = route(&mut nt, packets).unwrap_err();
        assert_eq!(
            err,
            NetError::Malformed(MalformedMessage {
                round: 1,
                sender: 1,
                receiver: 2,
                defect: Defect::Header {
                    word: Some(1 << 40)
                },
            })
        );
    }

    #[test]
    fn short_or_out_of_range_headers_are_refused() {
        assert_eq!(read_header(&[3, 1, 9], 4), Ok((3, 1)));
        assert_eq!(read_header(&[3], 4), Err(Defect::Header { word: None }));
        for (frame, word) in [([4, 1], 4), ([3, 7], 7)] {
            assert_eq!(
                read_header(&frame, 4),
                Err(Defect::Header { word: Some(word) })
            );
        }
    }

    #[test]
    fn over_wide_self_packet_is_delivered_locally() {
        // 5 wire words at link_words = 4: too wide for any link, but a
        // packet to itself never crosses one.
        let wide = |dst| RoutedPacket {
            src: 2,
            dst,
            payload: Packet::of(&[9; 3]),
        };
        let mut nt = Net::new(NetConfig::kt1(4).with_link_words(4));
        check_delivery(4, vec![wide(2)], &mut nt);
        assert_eq!(nt.cost().messages, 0);

        let err = route(&mut nt, vec![wide(1)]).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::MessageTooLarge {
                    src: 2,
                    dst: 1,
                    words: 5,
                    budget: 4,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn lenzen_contract_all_to_one_volume() {
        // Every node sends `n` one-word packets all destined to node 0:
        // the receiver gets n(n−1) ... that VIOLATES the contract. Instead:
        // every node sends n packets spread over all destinations — the
        // canonical contract instance — and rounds stay small.
        let n = 16;
        let mut nt = net(n);
        let mut packets = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                packets.push(RoutedPacket {
                    src,
                    dst,
                    payload: Packet::one((src * n + dst) as u64),
                });
            }
        }
        check_delivery(n, packets, &mut nt);
        let rounds = nt.cost().rounds;
        assert!(rounds <= 24, "contract instance took {rounds} rounds");
    }

    #[test]
    fn hot_receiver_still_delivers() {
        // Node 0 is the target of 3n packets (contract violated by 3×):
        // routing must still deliver, just in proportionally more rounds.
        let n = 8;
        let mut nt = net(n);
        let mut packets = Vec::new();
        for src in 1..n {
            for j in 0..3 * n / (n - 1) + 1 {
                packets.push(RoutedPacket {
                    src,
                    dst: 0,
                    payload: Packet::one((src * 100 + j) as u64),
                });
            }
        }
        check_delivery(n, packets, &mut nt);
    }

    #[test]
    fn random_contract_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for trial in 0..5 {
            let n = 12;
            let mut nt = Net::new(NetConfig::kt1(n).with_seed(trial));
            // Random permutation-ish load: each node sends n packets to
            // random destinations, receive load balanced by construction.
            let mut packets = Vec::new();
            let mut dsts: Vec<usize> = (0..n).flat_map(|_| 0..n).collect();
            use rand::seq::SliceRandom;
            dsts.shuffle(&mut rng);
            for (i, &dst) in dsts.iter().enumerate() {
                let src = i / n;
                packets.push(RoutedPacket {
                    src,
                    dst,
                    payload: Packet::of(&[i as u64, rng.gen()]),
                });
            }
            check_delivery(n, packets, &mut nt);
            assert!(nt.cost().rounds <= 30, "rounds = {}", nt.cost().rounds);
        }
    }

    #[test]
    fn payload_integrity_with_fragments() {
        use crate::fragment::{fragment, reassemble};
        let n = 8;
        let mut nt = net(n);
        let data: Vec<u64> = (0..64).map(|i| i * 31).collect();
        // link_words=8, header 2 → payload ≤ 6, fragment payload 5 (+1 seq).
        let frags = fragment(&data, 5);
        let packets: Vec<RoutedPacket> = frags
            .iter()
            .map(|f| RoutedPacket {
                src: 3,
                dst: 6,
                payload: f.clone(),
            })
            .collect();
        let got = route(&mut nt, packets).unwrap();
        let received: Vec<Packet> = got[6].iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(reassemble(received), data);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use cc_net::NetConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Routing delivers exactly the submitted multiset — nothing lost,
        /// nothing duplicated, nothing corrupted — for arbitrary instances
        /// (contract-respecting or not).
        #[test]
        fn exactly_once_delivery(
            seed in any::<u64>(),
            n in 3usize..14,
            spec in proptest::collection::vec((0usize..14, 0usize..14, 0u64..1000), 0..60),
        ) {
            let mut nt = Net::new(NetConfig::kt1(n).with_seed(seed));
            let packets: Vec<RoutedPacket> = spec
                .iter()
                .map(|&(s, d, w)| RoutedPacket {
                    src: s % n,
                    dst: d % n,
                    payload: Packet::of(&[w, s as u64, d as u64]),
                })
                .collect();
            let mut expect: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); n];
            for p in &packets {
                expect[p.dst].push((p.src, p.payload.clone()));
            }
            for e in &mut expect {
                e.sort();
            }
            let got = route(&mut nt, packets).unwrap();
            prop_assert_eq!(got, expect);
        }
    }
}
