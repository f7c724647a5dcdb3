//! Simulator errors.
//!
//! The simulator is strict: a message that would exceed the per-link budget
//! or target an invalid destination is an error that aborts the round, so
//! algorithms cannot silently exceed the model's constraints.

use std::error::Error;
use std::fmt;

/// An error raised by the network simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A single message is larger than one round's per-link budget; the
    /// sender must fragment it across rounds or receivers (e.g. via
    /// routing) instead.
    MessageTooLarge {
        /// The 0-based round of the offending send.
        round: u64,
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Message size in words.
        words: u64,
        /// Per-link budget in words.
        budget: u64,
    },
    /// The per-link budget for this round is already exhausted.
    LinkBusy {
        /// The 0-based round of the offending send.
        round: u64,
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Words already committed on the link this round.
        used: u64,
        /// Additional words requested.
        requested: u64,
        /// Per-link budget in words.
        budget: u64,
    },
    /// Destination out of range.
    BadDestination {
        /// Sender.
        src: usize,
        /// Destination.
        dst: usize,
        /// Clique size.
        n: usize,
    },
    /// A node tried to message itself (there is no self-link in the model).
    SelfMessage {
        /// The offending node.
        node: usize,
    },
    /// `fast_forward` was called while messages were still in flight.
    PendingMessages {
        /// Number of undelivered messages.
        pending: usize,
    },
    /// The configured round watchdog fired (see `NetConfig::round_cap`).
    RoundCapExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// A point-to-point send was attempted in the broadcast-only variant
    /// of the model. Carries the round and link like the budget
    /// violations, so a grid run can name exactly where an algorithm
    /// first stepped outside the model.
    UnicastInBroadcastModel {
        /// The 0-based round of the offending send.
        round: u64,
        /// The offending node.
        src: usize,
        /// The addressed destination.
        dst: usize,
    },
    /// A routed frame reached a node with a header word that names no
    /// node of the clique, or too short to hold its header — what a
    /// corrupting fault makes of a frame in flight.
    BadHeader {
        /// The 0-based round whose inbox held the frame.
        round: u64,
        /// The node that read the frame.
        node: usize,
        /// The header word that names no node; `None` for a frame
        /// shorter than its header.
        word: Option<u64>,
    },
    /// A KT0 bootstrap announcement reached a node as something other
    /// than one word naming another node of the clique, or repeated an
    /// ID the node had already read — what a corrupting or duplicating
    /// fault makes of it.
    BadAnnouncement {
        /// The 0-based round whose inbox held the announcement.
        round: u64,
        /// The node that read it.
        node: usize,
        /// The node that sent it.
        src: usize,
        /// The announced word; `None` for an announcement that is not
        /// one word long.
        word: Option<u64>,
        /// For a repeated ID, the sender of the node's first
        /// announcement of it; `None` otherwise. Either of the two
        /// announcements may be the faulty one.
        first: Option<usize>,
    },
}

impl NetError {
    /// A stable machine-readable kind tag (used by grid artifacts to
    /// classify *where* an algorithm breaks as the model tightens).
    pub fn kind(&self) -> &'static str {
        match self {
            NetError::MessageTooLarge { .. } => "message-too-large",
            NetError::LinkBusy { .. } => "link-busy",
            NetError::BadDestination { .. } => "bad-destination",
            NetError::SelfMessage { .. } => "self-message",
            NetError::PendingMessages { .. } => "pending-messages",
            NetError::RoundCapExceeded { .. } => "round-cap",
            NetError::UnicastInBroadcastModel { .. } => "unicast-in-broadcast",
            NetError::BadHeader { .. } => "bad-header",
            NetError::BadAnnouncement { .. } => "bad-announcement",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::MessageTooLarge {
                round,
                src,
                dst,
                words,
                budget,
            } => write!(
                f,
                "round {round}: message of {words} words on link {src}->{dst} exceeds the {budget}-word link budget"
            ),
            NetError::LinkBusy {
                round,
                src,
                dst,
                used,
                requested,
                budget,
            } => write!(
                f,
                "round {round}: link {src}->{dst} budget exhausted: {used} used + {requested} requested > {budget}"
            ),
            NetError::BadDestination { src, dst, n } => {
                write!(f, "node {src} addressed {dst} outside the {n}-clique")
            }
            NetError::SelfMessage { node } => {
                write!(f, "node {node} tried to send a message to itself")
            }
            NetError::PendingMessages { pending } => {
                write!(f, "cannot fast-forward with {pending} undelivered messages")
            }
            NetError::RoundCapExceeded { cap } => {
                write!(f, "round watchdog fired: more than {cap} rounds executed")
            }
            NetError::UnicastInBroadcastModel { round, src, dst } => {
                write!(
                    f,
                    "round {round}: node {src} attempted a point-to-point send to {dst} in the broadcast-only model"
                )
            }
            NetError::BadHeader {
                round,
                node,
                word: Some(word),
            } => write!(
                f,
                "round {round}: node {node} read a routed frame whose header word {word} names no node"
            ),
            NetError::BadHeader {
                round,
                node,
                word: None,
            } => write!(
                f,
                "round {round}: node {node} read a routed frame shorter than its header"
            ),
            NetError::BadAnnouncement {
                round,
                node,
                src,
                word: Some(word),
                first: None,
            } => write!(
                f,
                "round {round}: node {node} read an ID announcement from {src} whose word {word} names no other node"
            ),
            NetError::BadAnnouncement {
                round,
                node,
                src,
                word: Some(word),
                first: Some(first),
            } => write!(
                f,
                "round {round}: node {node} read ID {word} from {src} after reading it from {first}; one of the two announcements is faulty"
            ),
            NetError::BadAnnouncement {
                round,
                node,
                src,
                word: None,
                ..
            } => write!(
                f,
                "round {round}: node {node} read an ID announcement from {src} that is not one word"
            ),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<NetError> = vec![
            NetError::MessageTooLarge {
                round: 4,
                src: 1,
                dst: 2,
                words: 9,
                budget: 8,
            },
            NetError::LinkBusy {
                round: 4,
                src: 1,
                dst: 2,
                used: 8,
                requested: 1,
                budget: 8,
            },
            NetError::BadDestination {
                src: 0,
                dst: 99,
                n: 8,
            },
            NetError::SelfMessage { node: 3 },
            NetError::PendingMessages { pending: 4 },
            NetError::RoundCapExceeded { cap: 100 },
            NetError::UnicastInBroadcastModel {
                round: 4,
                src: 2,
                dst: 3,
            },
            NetError::BadHeader {
                round: 4,
                node: 2,
                word: Some(99),
            },
            NetError::BadHeader {
                round: 4,
                node: 2,
                word: None,
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn kind_tags_cover_every_variant_and_never_collide() {
        // One witness per variant. A `match` on the last entry (without
        // a wildcard) makes this list compile-time exhaustive: adding a
        // NetError variant breaks the build here until its witness —
        // and therefore its kind tag — is added too.
        let witnesses: Vec<NetError> = vec![
            NetError::MessageTooLarge {
                round: 0,
                src: 0,
                dst: 1,
                words: 9,
                budget: 8,
            },
            NetError::LinkBusy {
                round: 0,
                src: 0,
                dst: 1,
                used: 8,
                requested: 1,
                budget: 8,
            },
            NetError::BadDestination {
                src: 0,
                dst: 9,
                n: 4,
            },
            NetError::SelfMessage { node: 0 },
            NetError::PendingMessages { pending: 1 },
            NetError::RoundCapExceeded { cap: 1 },
            NetError::UnicastInBroadcastModel {
                round: 0,
                src: 0,
                dst: 1,
            },
            NetError::BadHeader {
                round: 0,
                node: 0,
                word: None,
            },
            NetError::BadAnnouncement {
                round: 0,
                node: 0,
                src: 1,
                word: None,
                first: None,
            },
        ];
        for e in &witnesses {
            match e {
                NetError::MessageTooLarge { .. }
                | NetError::LinkBusy { .. }
                | NetError::BadDestination { .. }
                | NetError::SelfMessage { .. }
                | NetError::PendingMessages { .. }
                | NetError::RoundCapExceeded { .. }
                | NetError::UnicastInBroadcastModel { .. }
                | NetError::BadHeader { .. }
                | NetError::BadAnnouncement { .. } => {}
            }
        }
        // Tags are stable artifact vocabulary: lowercase-kebab, unique.
        let tags: Vec<&str> = witnesses.iter().map(NetError::kind).collect();
        for t in &tags {
            assert!(
                !t.is_empty()
                    && t.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "tag {t:?} is not lowercase-kebab"
            );
        }
        let unique: std::collections::BTreeSet<&str> = tags.iter().copied().collect();
        assert_eq!(
            unique.len(),
            witnesses.len(),
            "kind tags must be unique: {tags:?}"
        );
        assert_eq!(
            unique.into_iter().collect::<Vec<_>>(),
            vec![
                "bad-announcement",
                "bad-destination",
                "bad-header",
                "link-busy",
                "message-too-large",
                "pending-messages",
                "round-cap",
                "self-message",
                "unicast-in-broadcast",
            ]
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(NetError::SelfMessage { node: 0 });
    }
}
