//! Basic one-to-all / all-to-all / all-to-one primitives, and the
//! checked read of what they deliver.
//!
//! Each returns the "global knowledge" the primitive establishes; callers
//! distribute that into per-node state. The data genuinely crossed the
//! network with metered cost — the return value is a convenience, not a
//! shortcut.

use crate::{Net, Packet};
use cc_net::{Defect, MalformedMessage, NetError};
use std::collections::VecDeque;

/// Runs one receive-only round: every message `src → node` is read by
/// `read(node, src, words)`, and what it accepts is handed to
/// `accept(node, item)`. The first message it refuses (lowest receiver,
/// then inbox order) is the error.
///
/// # Errors
///
/// Propagates simulator errors; [`NetError::Malformed`] names the first
/// refused message.
pub fn read_inbox<T>(
    net: &mut Net,
    read: impl Fn(usize, usize, &[u64]) -> Result<T, Defect>,
    mut accept: impl FnMut(usize, T),
) -> Result<(), NetError> {
    let round = net.cost().rounds;
    let mut malformed = None;
    net.step(|node, inbox, _out| {
        for env in inbox {
            match read(node, env.src, &env.msg) {
                Ok(item) => accept(node, item),
                Err(defect) => {
                    malformed.get_or_insert(MalformedMessage {
                        round,
                        sender: env.src,
                        receiver: node,
                        defect,
                    });
                }
            }
        }
    })?;
    malformed.map_or(Ok(()), |m| Err(m.into()))
}

/// The error naming `defect` in a message `sender → receiver` that a
/// collective delivered, read after the collective returned: its round is
/// the last one `net` ran.
pub fn malformed(net: &Net, sender: usize, receiver: usize, defect: Defect) -> NetError {
    NetError::Malformed(MalformedMessage {
        round: last_round(net),
        sender,
        receiver,
        defect,
    })
}

/// The 0-based round the last delivery of a collective landed in.
pub(crate) fn last_round(net: &Net) -> u64 {
    net.cost().rounds.saturating_sub(1)
}

/// Broadcast of up to `n · link_words` words from `src` to everyone via the
/// paper's standard trick: distribute distinct chunks to distinct nodes,
/// then every node rebroadcasts its chunk.
///
/// Cost: `O(⌈len / link_words⌉ / n + 1)` distribution rounds (1 for
/// `len ≤ n · chunk`), then 1 rebroadcast round.
///
/// Chunks carry a sequence word in band so receivers can reassemble in
/// order.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn broadcast_large(net: &mut Net, src: usize, data: Packet) -> Result<Packet, NetError> {
    let n = net.n();
    net.begin_scope("route:broadcast-large");
    let link_words = net.config().link_words;
    // Payload per chunk: one word reserved for the sequence number.
    let chunk = (link_words as usize - 1).max(1);
    // Shared (refcounted) chunks: each one is cloned to `n − 1` receivers
    // in the rebroadcast round, so a copying payload would put one heap
    // allocation on every message of the hottest fan-out in the suite.
    let chunks: Vec<Packet> = data
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            let mut words = Vec::with_capacity(c.len() + 1);
            words.push(i as u64);
            words.extend_from_slice(c);
            Packet::shared_from_vec(words)
        })
        .collect();
    let total = chunks.len();

    // Distribution: chunk i goes to helper node (i mod n); multiple waves
    // if there are more than n chunks (or more than one per link round).
    let mut held: Vec<Vec<Packet>> = vec![Vec::new(); n];
    {
        let mut wave = 0usize;
        while wave * n < total {
            let lo = wave * n;
            let hi = (lo + n).min(total);
            let slice = chunks[lo..hi].to_vec();
            net.step(|node, _inbox, out| {
                if node == src {
                    for (j, c) in slice.iter().enumerate() {
                        let helper = (lo + j) % n;
                        if helper != src {
                            let _ = out.send(helper, c.clone());
                        }
                    }
                }
            })?;
            // Deliver & stash (src keeps its own chunks without sending).
            net.step(|node, inbox, _out| {
                for env in inbox {
                    held[node].push(env.msg.clone());
                }
            })?;
            for (j, c) in chunks[lo..hi].iter().enumerate() {
                if (lo + j) % n == src {
                    held[src].push(c.clone());
                }
            }
            wave += 1;
        }
    }

    // Rebroadcast: every helper sends each held chunk to everyone. One
    // chunk fills a link's budget, so multiple held chunks take multiple
    // rounds.
    let max_held = held.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..max_held {
        let snapshot: Vec<Option<Packet>> = held.iter().map(|h| h.get(r).cloned()).collect();
        net.step(|node, _inbox, out| {
            if let Some(c) = &snapshot[node] {
                for dst in 0..n {
                    if dst != node {
                        let _ = out.send(dst, c.clone());
                    }
                }
            }
        })?;
        net.step(|_node, _inbox, _out| {})?;
    }
    net.end_scope();

    Ok(data)
}

/// All-to-all share of one word per node: everyone learns the vector
/// `values[0..n]`.
///
/// Cost: 1 round (+1 delivery), `n(n−1)` messages — the `Θ(n²)` pattern the
/// paper's `O(log log log n)` algorithms use freely.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn all_to_all_share(net: &mut Net, values: &[u64]) -> Result<Vec<u64>, NetError> {
    let n = net.n();
    assert_eq!(values.len(), n, "one value per node");
    let vals = values.to_vec();
    net.begin_scope("route:all-to-all");
    net.step(|node, _inbox, out| {
        // `Packet::one` keeps the n(n−1) payloads inline: this loop is
        // the perf suite's hottest path and must not touch the allocator.
        for dst in 0..n {
            if dst != node {
                let _ = out.send(dst, Packet::one(vals[node]));
            }
        }
    })?;
    net.step(|_node, _inbox, _out| {})?;
    net.end_scope();
    Ok(vals)
}

/// Direct gather: node `u` sends its items (each `≤ link_words` words) to
/// `dst` over its single link, pipelined as in
/// [`ship_direct`](crate::ship_direct).
///
/// Cost: `max_u ⌈items(u) words / link_words⌉` waves of two rounds —
/// linear in the largest per-sender volume, which is why the algorithms
/// use [`route`](crate::route) when senders hold many items.
///
/// Returns `(src, item)` pairs in arrival order.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn gather_direct(
    net: &mut Net,
    dst: usize,
    items: Vec<Vec<Packet>>,
) -> Result<Vec<(usize, Packet)>, NetError> {
    assert_eq!(items.len(), net.n(), "one item list per node");
    assert!(
        items[dst].is_empty(),
        "destination gathers, it does not send"
    );
    net.begin_scope("route:gather");
    let queues = items
        .into_iter()
        .map(|q| q.into_iter().map(|p| (dst, p)).collect())
        .collect();
    let mut arrived = fill_links(net, queues)?;
    net.end_scope();
    Ok(std::mem::take(&mut arrived[dst]))
}

/// The one fill-the-link loop. Each wave, every sender sends `(dst,
/// packet)` pairs off its queue while they fit in `link_words` words, then
/// a delivery round follows. A crashed node never sends again, so its
/// queue is dropped; the loop ends when every live sender is empty.
/// Returns each receiver's `(src, packet)` arrivals in arrival order.
pub(crate) fn fill_links(
    net: &mut Net,
    mut queues: Vec<VecDeque<(usize, Packet)>>,
) -> Result<Vec<Vec<(usize, Packet)>>, NetError> {
    let link_words = net.config().link_words;
    let mut arrived: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); net.n()];
    loop {
        for (u, q) in queues.iter_mut().enumerate() {
            if net.is_crashed(u) {
                q.clear();
            }
        }
        if queues.iter().all(VecDeque::is_empty) {
            return Ok(arrived);
        }
        net.step(|node, _inbox, out| {
            let q = &mut queues[node];
            let mut used = 0u64;
            while let Some((_, front)) = q.front() {
                // A packet wider than the link goes out alone, so the
                // send reports it instead of the queue stalling forever.
                let w = (front.len() as u64).max(1);
                if used > 0 && used + w > link_words {
                    break;
                }
                used += w;
                let (dst, p) = q.pop_front().expect("front exists");
                let _ = out.send(dst, p);
            }
        })?;
        net.step(|node, inbox, _out| {
            arrived[node].extend(inbox.iter().map(|env| (env.src, env.msg.clone())));
        })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::NetConfig;

    fn net(n: usize) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(7))
    }

    #[test]
    fn large_broadcast_moves_many_words() {
        let mut nt = net(16); // link_words = 8, chunk payload = 7
        let data: Packet = (0..100).collect();
        let out = broadcast_large(&mut nt, 5, data.clone()).unwrap();
        assert_eq!(out, data);
        let c = nt.cost();
        // 15 chunks → 1 distribution wave + 1 rebroadcast pass.
        assert!(c.rounds <= 8, "rounds = {}", c.rounds);
        assert!(c.messages >= 15 * 15, "every chunk is rebroadcast to all");
    }

    #[test]
    fn large_broadcast_handles_multiple_waves() {
        let mut nt = Net::new(NetConfig::kt1(4).with_link_words(2).with_seed(1));
        let data: Packet = (0..40).collect(); // 40 chunks of 1 payload word on a 4-clique
        let out = broadcast_large(&mut nt, 0, data.clone()).unwrap();
        assert_eq!(out, data);
        assert!(nt.cost().rounds > 10, "must take several waves");
    }

    #[test]
    fn all_to_all_is_quadratic_messages() {
        let mut nt = net(10);
        let vals: Vec<u64> = (0..10).map(|i| i * i).collect();
        let got = all_to_all_share(&mut nt, &vals).unwrap();
        assert_eq!(got, vals);
        assert_eq!(nt.cost().messages, 90);
        assert_eq!(nt.cost().rounds, 2);
    }

    #[test]
    fn gather_direct_collects_everything_in_order() {
        let mut nt = net(5);
        let mut items: Vec<Vec<Packet>> = vec![Vec::new(); 5];
        items[1] = vec![Packet::one(10), Packet::one(11)];
        items[3] = vec![Packet::one(30)];
        items[4] = vec![Packet::one(40), Packet::one(41), Packet::one(42)];
        let got = gather_direct(&mut nt, 0, items).unwrap();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![
                (1, Packet::one(10)),
                (1, Packet::one(11)),
                (3, Packet::one(30)),
                (4, Packet::one(40)),
                (4, Packet::one(41)),
                (4, Packet::one(42)),
            ]
        );
    }

    #[test]
    fn gather_pipelines_by_link_budget() {
        // link_words = 2, each item 2 words → one item per round per sender.
        let mut nt = Net::new(NetConfig::kt1(3).with_link_words(2));
        let items = vec![
            Vec::new(),
            vec![
                Packet::of(&[1, 1]),
                Packet::of(&[2, 2]),
                Packet::of(&[3, 3]),
            ],
            Vec::new(),
        ];
        let got = gather_direct(&mut nt, 0, items).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(nt.cost().rounds, 6, "3 waves × (send + deliver)");
    }

    #[test]
    #[should_panic(expected = "does not send")]
    fn gather_rejects_items_at_destination() {
        let mut nt = net(3);
        let items = vec![vec![Packet::one(1)], Vec::new(), Vec::new()];
        let _ = gather_direct(&mut nt, 0, items);
    }
}
