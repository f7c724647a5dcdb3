//! The KT0 → KT1 bootstrap.
//!
//! Section 2 of the paper: *"a KT0 algorithm can start with each node
//! broadcasting its ID to all n − 1 other nodes"* — after which the KT0
//! and KT1 models are equivalent (at a `Θ(n²)` message cost, which the
//! `Θ(n²)`-message algorithms can afford and which the Section 3 lower
//! bound shows is unavoidable in KT0 anyway).
//!
//! The exchange is executed and metered: every node sends its ID along
//! every port. The returned tables give, per node and per port, the ID
//! now known to sit behind that port.

use crate::{Net, Packet};
use cc_net::{Knowledge, NetError};

/// Runs the ID broadcast if the network is KT0; a no-op (zero cost) under
/// KT1, where the knowledge is part of the model.
///
/// Returns `port_ids[u][p]` = ID behind port `p` of node `u` (for KT1
/// networks the ports are identity-ordered by convention: port `p` of `u`
/// leads to the `p`-th other node in ID order).
///
/// Cost under KT0: 1 send round (+1 delivery), `n(n−1)` messages.
///
/// # Errors
///
/// Propagates simulator errors. An announcement that is not one word
/// naming another node of the clique is [`NetError::BadAnnouncement`]
/// (the first one, lowest receiver then lowest sender).
pub fn kt0_bootstrap(net: &mut Net) -> Result<Vec<Vec<u32>>, NetError> {
    let n = net.n();
    match net.config().knowledge {
        Knowledge::Kt1 => Ok((0..n)
            .map(|u| (0..n as u32).filter(|&v| v as usize != u).collect())
            .collect()),
        Knowledge::Kt0 => {
            // Every node announces its ID on every link.
            net.step(|node, _inbox, out| {
                for dst in 0..n {
                    if dst != node {
                        let _ = out.send(dst, Packet::one(node as u64));
                    }
                }
            })?;
            let round = net.cost().rounds;
            let mut bad = None;
            net.step(|node, inbox, _out| {
                for env in inbox {
                    let id = match *env.msg {
                        [word] => usize::try_from(word)
                            .ok()
                            .filter(|&id| id < n && id != node)
                            .ok_or(Some(word)),
                        _ => Err(None),
                    };
                    if let Err(word) = id {
                        bad.get_or_insert(NetError::BadAnnouncement {
                            round,
                            node,
                            src: env.src,
                            word,
                        });
                    }
                }
            })?;
            if let Some(e) = bad {
                return Err(e);
            }
            // Associate the announced IDs with ports via the hidden map
            // (the simulator's delivery is the ground truth the
            // announcement established).
            let ports = net.ports().expect("KT0 networks have a port map").clone();
            Ok((0..n)
                .map(|u| (0..n - 1).map(|p| ports.neighbor_at(u, p) as u32).collect())
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::{FaultDecision, NetConfig};

    #[test]
    fn kt1_is_free() {
        let mut net = Net::new(NetConfig::kt1(6));
        let tables = kt0_bootstrap(&mut net).unwrap();
        assert_eq!(net.cost().messages, 0);
        assert_eq!(tables[2], vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn kt0_pays_quadratic_messages_and_learns_ports() {
        let n = 8;
        let mut net = Net::new(NetConfig::kt0(n).with_seed(3));
        let tables = kt0_bootstrap(&mut net).unwrap();
        assert_eq!(net.cost().messages, (n * (n - 1)) as u64);
        assert_eq!(net.cost().rounds, 2);
        // Tables agree with the hidden permutation and cover all peers.
        for (u, table) in tables.iter().enumerate() {
            let mut ids = table.clone();
            ids.sort_unstable();
            let expect: Vec<u32> = (0..n as u32).filter(|&v| v as usize != u).collect();
            assert_eq!(ids, expect);
        }
    }

    /// Corrupts one bit of the announcement `src → dst`.
    struct FlipOne {
        src: usize,
        dst: usize,
        bit: u64,
    }

    impl cc_net::FaultInjector for FlipOne {
        fn decision(&self, _round: u64, src: usize, dst: usize, _index: u32) -> FaultDecision {
            if (src, dst) == (self.src, self.dst) {
                FaultDecision::Corrupt { bit: self.bit }
            } else {
                FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn a_corrupted_announcement_is_a_typed_error() {
        // A flipped bit 40 makes node 2's announcement name no node; a
        // flipped bit 2 makes node 1's name its receiver, node 5.
        for (src, bit, word) in [(2, 40, 2 + (1 << 40)), (1, 2, 5)] {
            let mut net = Net::new(NetConfig::kt0(6).with_seed(3));
            net.set_fault_injector(Box::new(FlipOne { src, dst: 5, bit }));
            assert_eq!(
                kt0_bootstrap(&mut net),
                Err(NetError::BadAnnouncement {
                    round: 1,
                    node: 5,
                    src,
                    word: Some(word),
                }),
                "bit {bit}"
            );
        }
        // A flip that names another node (2 → 3) reads as an ID.
        let mut net = Net::new(NetConfig::kt0(6).with_seed(3));
        net.set_fault_injector(Box::new(FlipOne {
            src: 2,
            dst: 5,
            bit: 0,
        }));
        assert!(kt0_bootstrap(&mut net).is_ok());
        let shown = NetError::BadAnnouncement {
            round: 1,
            node: 5,
            src: 2,
            word: None,
        };
        assert_eq!(shown.kind(), "bad-announcement");
        assert!(shown.to_string().contains("not one word"), "{shown}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = kt0_bootstrap(&mut Net::new(NetConfig::kt0(6).with_seed(1))).unwrap();
        let b = kt0_bootstrap(&mut Net::new(NetConfig::kt0(6).with_seed(1))).unwrap();
        assert_eq!(a, b);
    }
}
