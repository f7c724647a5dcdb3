//! Collectives as runtime programs: backend-generic entry points.
//!
//! The closure collectives in [`crate::collectives`] are driver-orchestrated
//! and bound to the serial [`CliqueNet`](cc_net::CliqueNet). The programs
//! here express the same communication patterns as reactive
//! [`cc_runtime::Program`]s, so they run unchanged on the serial *or*
//! parallel engine — which matters once per-node payload preparation (e.g.
//! sketch construction in `cc-core`) dominates the round and is worth
//! fanning across threads.

use crate::Packet;
use cc_net::{Envelope, NetError};
use cc_runtime::{Backend, Ctx, Program, Runtime};

/// All-to-one gather as a runtime program.
///
/// Every sender streams its items (each `≤ link_words` words) to `dst`
/// over its private link, filling the link budget each round — the
/// reactive analogue of [`crate::gather_direct`].
#[derive(Clone, Debug)]
pub struct GatherProgram {
    dst: usize,
    /// Items still queued at this node (senders only).
    queue: std::collections::VecDeque<Packet>,
    /// Collected `(src, item)` pairs (populated at `dst` only).
    pub received: Vec<(usize, Packet)>,
}

impl GatherProgram {
    /// A node holding `items` to deliver to `dst`.
    pub fn new(dst: usize, items: Vec<Packet>) -> Self {
        GatherProgram {
            dst,
            queue: items.into(),
            received: Vec::new(),
        }
    }

    /// Fills this round's link budget toward `dst`.
    fn pump(&mut self, ctx: &mut Ctx<'_, '_, Packet>) {
        while let Some(front) = self.queue.front() {
            let w = (front.len() as u64).max(1);
            if w > ctx.budget_left(self.dst) {
                break;
            }
            let item = self.queue.pop_front().expect("front exists");
            let _ = ctx.send(self.dst, item);
        }
    }
}

impl Program for GatherProgram {
    type Msg = Packet;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Packet>) {
        if ctx.me() != self.dst {
            self.pump(ctx);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Packet>, inbox: &[Envelope<Packet>]) -> bool {
        if ctx.me() == self.dst {
            for env in inbox {
                self.received.push((env.src, env.msg.clone()));
            }
            return true; // the driver keeps delivering while messages fly
        }
        self.pump(ctx);
        self.queue.is_empty()
    }
}

/// Gathers `items[u]` from every node `u` to `dst` on any backend.
///
/// Returns `(src, item)` pairs in deterministic order: ascending round of
/// arrival, then `(src, send-index)` — the same order on every backend and
/// thread count.
///
/// # Errors
///
/// Propagates simulator errors; [`NetError::RoundCapExceeded`] if the
/// gather does not drain within `max_rounds`.
///
/// # Panics
///
/// Panics unless `items.len() == rt.n()`, `dst` is a node, and the
/// destination's own list is empty (it gathers, it does not send).
pub fn gather_on<B: Backend>(
    rt: &mut Runtime<B>,
    dst: usize,
    items: Vec<Vec<Packet>>,
    max_rounds: u64,
) -> Result<Vec<(usize, Packet)>, NetError> {
    let n = rt.n();
    assert_eq!(items.len(), n, "one item list per node");
    assert!(dst < n, "destination must be a node");
    assert!(
        items[dst].is_empty(),
        "destination gathers, it does not send"
    );
    let programs: Vec<GatherProgram> = items
        .into_iter()
        .map(|q| GatherProgram::new(dst, q))
        .collect();
    let mut out = rt.run(programs, max_rounds)?;
    Ok(std::mem::take(&mut out[dst].received))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::NetConfig;

    fn item_lists(n: usize, per_node: usize) -> Vec<Vec<Packet>> {
        (0..n)
            .map(|u| {
                if u == 2 {
                    Vec::new()
                } else {
                    (0..per_node)
                        .map(|i| Packet::of(&[u as u64, i as u64]))
                        .collect()
                }
            })
            .collect()
    }

    #[test]
    fn gathers_every_item_exactly_once() {
        let n = 8;
        let mut rt = Runtime::serial(NetConfig::kt1(n));
        let got = gather_on(&mut rt, 2, item_lists(n, 5), 1000).unwrap();
        assert_eq!(got.len(), (n - 1) * 5);
        let mut sorted: Vec<_> = got.iter().map(|(s, p)| (*s, p.clone())).collect();
        sorted.sort();
        let mut want: Vec<(usize, Packet)> = Vec::new();
        for u in 0..n {
            if u != 2 {
                for i in 0..5u64 {
                    want.push((u, Packet::of(&[u as u64, i])));
                }
            }
        }
        assert_eq!(sorted, want);
    }

    #[test]
    fn backends_agree_on_order_and_cost() {
        let n = 10;
        let cfg = NetConfig::kt1(n);
        let mut serial = Runtime::serial(cfg.clone());
        let s = gather_on(&mut serial, 2, item_lists(n, 7), 1000).unwrap();
        let mut parallel = Runtime::parallel_with_threads(cfg, 4);
        let p = gather_on(&mut parallel, 2, item_lists(n, 7), 1000).unwrap();
        assert_eq!(s, p);
        assert_eq!(serial.cost(), parallel.cost());
    }

    #[test]
    fn matches_the_closure_collective_content() {
        let n = 6;
        let mut net = crate::Net::new(NetConfig::kt1(n));
        let direct = crate::gather_direct(&mut net, 2, item_lists(n, 4)).unwrap();
        let mut rt = Runtime::serial(NetConfig::kt1(n));
        let ours = gather_on(&mut rt, 2, item_lists(n, 4), 1000).unwrap();
        let norm = |mut v: Vec<(usize, Packet)>| {
            v.sort();
            v
        };
        assert_eq!(norm(direct), norm(ours));
    }
}
