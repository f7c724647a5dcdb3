//! The KT0 → KT1 bootstrap.
//!
//! Section 2 of the paper: *"a KT0 algorithm can start with each node
//! broadcasting its ID to all n − 1 other nodes"* — after which the KT0
//! and KT1 models are equivalent (at a `Θ(n²)` message cost, which the
//! `Θ(n²)`-message algorithms can afford and which the Section 3 lower
//! bound shows is unavoidable in KT0 anyway).
//!
//! The exchange is executed and metered: every node sends its ID along
//! every port, and every node checks what it reads.

use crate::{Net, Packet};
use cc_net::{Defect, Knowledge, MalformedMessage, NetError};

/// Runs the ID broadcast if the network is KT0; a no-op (zero cost) under
/// KT1, where the knowledge is part of the model.
///
/// Cost under KT0: 1 send round (+1 delivery), `n(n−1)` messages.
///
/// # Errors
///
/// Propagates simulator errors. An announcement that is not one word
/// naming another node of the clique, or that repeats an ID its reader
/// already read, is [`NetError::Malformed`] with a
/// [`Defect::Announcement`] (the first one, lowest receiver then inbox
/// order). A repeat names both senders of the ID:
/// the reader cannot tell which of the two announcements is the faulty
/// one.
pub fn kt0_bootstrap(net: &mut Net) -> Result<(), NetError> {
    if net.config().knowledge == Knowledge::Kt1 {
        return Ok(());
    }
    let n = net.n();
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
        // `heard[id]`: the sender of the first announcement of `id`.
        let mut heard = vec![None; n];
        for env in inbox {
            let (word, first) = match *env.msg {
                [word] => match usize::try_from(word) {
                    Ok(id) if id < n && id != node => match heard[id] {
                        None => {
                            heard[id] = Some(env.src);
                            continue;
                        }
                        first => (Some(word), first),
                    },
                    _ => (Some(word), None),
                },
                _ => (None, None),
            };
            bad.get_or_insert(MalformedMessage {
                round,
                sender: env.src,
                receiver: node,
                defect: Defect::Announcement { word, first },
            });
        }
    })?;
    bad.map_or(Ok(()), |m| Err(m.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::{FaultDecision, NetConfig};

    #[test]
    fn kt1_is_free() {
        let mut net = Net::new(NetConfig::kt1(6));
        assert_eq!(kt0_bootstrap(&mut net), Ok(()));
        assert_eq!(net.cost().messages, 0);
    }

    #[test]
    fn kt0_pays_quadratic_messages_in_two_rounds() {
        let n = 8;
        let mut net = Net::new(NetConfig::kt0(n).with_seed(3));
        assert_eq!(kt0_bootstrap(&mut net), Ok(()));
        assert_eq!(net.cost().messages, (n * (n - 1)) as u64);
        assert_eq!(net.cost().rounds, 2);
    }

    /// Applies `decision` to the announcement `src → dst`.
    struct FaultOne {
        src: usize,
        dst: usize,
        decision: FaultDecision,
    }

    impl cc_net::FaultInjector for FaultOne {
        fn decision(&self, _round: u64, src: usize, dst: usize, _index: u32) -> FaultDecision {
            if (src, dst) == (self.src, self.dst) {
                self.decision
            } else {
                FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn a_corrupted_or_repeated_announcement_is_a_typed_error() {
        // A flipped bit 40 makes node 2's announcement name no node; a
        // flipped bit 2 makes node 1's name its receiver, node 5; a
        // flipped bit 0 makes node 2's name node 3, so node 5 reads ID 3
        // from both 2 and 3; a duplicate repeats node 2's.
        let corrupt = |bit| FaultDecision::Corrupt { bit };
        for (src, decision, culprit, word, first) in [
            (2, corrupt(40), 2, 2 + (1 << 40), None),
            (1, corrupt(2), 1, 5, None),
            (2, corrupt(0), 3, 3, Some(2)),
            (2, FaultDecision::Duplicate, 2, 2, Some(2)),
        ] {
            let mut net = Net::new(NetConfig::kt0(6).with_seed(3));
            net.set_fault_injector(Box::new(FaultOne {
                src,
                dst: 5,
                decision,
            }));
            assert_eq!(
                kt0_bootstrap(&mut net),
                Err(NetError::Malformed(MalformedMessage {
                    round: 1,
                    sender: culprit,
                    receiver: 5,
                    defect: Defect::Announcement {
                        word: Some(word),
                        first,
                    },
                })),
                "{decision:?}"
            );
        }
    }
}
