//! Simulator errors, and the one error for a message no protocol could
//! have sent.
//!
//! The simulator is strict: a message that would exceed the per-link budget
//! or target an invalid destination is an error that aborts the round, so
//! algorithms cannot silently exceed the model's constraints.
//!
//! Every word a node reads and then uses as a length, an index or a node
//! id is checked first. A fault that corrupts, drops, duplicates or
//! defers a message therefore ends the run with
//! [`NetError::Malformed`], naming the round, the link and the
//! [`Defect`], never with an index out of bounds.

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
    /// A node read a message its protocol cannot have sent.
    Malformed(MalformedMessage),
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
            NetError::Malformed(_) => "malformed-message",
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
            NetError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl Error for NetError {}

impl From<MalformedMessage> for NetError {
    fn from(m: MalformedMessage) -> Self {
        NetError::Malformed(m)
    }
}

/// What is wrong with a received message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// A message arrived with `found` words, not the `expected` its
    /// protocol sends (3 for an edge `[w, u, v]`, 2 for an unweighted
    /// `[u, v]`).
    Length {
        /// Words that arrived.
        found: usize,
        /// Words the message takes.
        expected: usize,
    },
    /// The endpoint words are not two distinct nodes of the clique.
    Endpoints {
        /// First endpoint word.
        u: u64,
        /// Second endpoint word.
        v: u64,
    },
    /// The edge does not join the fragments its sender and receiver put
    /// it between.
    Fragments {
        /// Smaller endpoint.
        u: usize,
        /// Larger endpoint.
        v: usize,
    },
    /// The sender is not a fragment leader, and only leaders send this.
    Sender,
    /// A routed frame whose header word names no node of the clique.
    Header {
        /// The header word; `None` for a frame shorter than its header.
        word: Option<u64>,
    },
    /// A KT0 ID announcement that is not one word naming another node,
    /// or that repeats an ID its reader already read.
    Announcement {
        /// The announced word; `None` for an announcement that is not
        /// one word long.
        word: Option<u64>,
        /// For a repeated ID, the sender of the reader's first
        /// announcement of it; `None` otherwise. Either of the two
        /// announcements may be the faulty one.
        first: Option<usize>,
    },
    /// A bundle whose fragments arrived with sequence numbers other than
    /// exactly `0..k`: a fragment was lost or duplicated on the way.
    Sequence {
        /// The first sequence number missing from the sorted arrivals.
        expected: u64,
        /// The sequence number that arrived in its place.
        found: u64,
    },
    /// A sketch bundle with the wrong word count: a lost *last*
    /// fragment, which sequence numbers cannot see, or no bundle at all
    /// (`found` 0).
    SketchSize {
        /// Words the sketches occupy.
        expected: usize,
        /// Words that arrived.
        found: usize,
    },
    /// A sorted item whose rank message names no item its holder holds,
    /// repeats one, or never arrived (the sender named is then the
    /// bucket owner that owed it).
    Rank {
        /// The item index the rank message carried, or the held item
        /// that got none.
        item: u64,
    },
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::Length { found, expected } => {
                write!(
                    f,
                    "{found}-word message where the protocol sends {expected}"
                )
            }
            Defect::Endpoints { u, v } => write!(f, "endpoints {u}, {v} are not two nodes"),
            Defect::Fragments { u, v } => write!(f, "edge {u}-{v} joins the wrong fragments"),
            Defect::Sender => write!(f, "sender is not a fragment leader"),
            Defect::Header { word: Some(word) } => {
                write!(f, "routed frame whose header word {word} names no node")
            }
            Defect::Header { word: None } => write!(f, "routed frame shorter than its header"),
            Defect::Announcement {
                word: Some(word),
                first: None,
            } => write!(f, "ID announcement whose word {word} names no other node"),
            Defect::Announcement {
                word: Some(word),
                first: Some(first),
            } => write!(
                f,
                "ID {word} already read from {first}; one of the two announcements is faulty"
            ),
            Defect::Announcement { word: None, .. } => {
                write!(f, "ID announcement that is not one word")
            }
            Defect::Sequence { expected, found } => {
                write!(
                    f,
                    "expected fragment {expected} of the bundle, found {found}"
                )
            }
            Defect::SketchSize { expected, found } => {
                write!(
                    f,
                    "sketch bundle of {found} words where the sketches take {expected}"
                )
            }
            Defect::Rank { item } => write!(f, "no single rank for item {item}"),
        }
    }
}

/// A message that cannot be what the protocol sent, as its receiver read
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedMessage {
    /// The 0-based round whose inbox held the message (for a routed or
    /// shipped one, the last round of its delivery).
    pub round: u64,
    /// The node that sent it (as the receiver sees it).
    pub sender: usize,
    /// The node that read it.
    pub receiver: usize,
    /// What is wrong with it.
    pub defect: Defect,
}

impl fmt::Display for MalformedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let MalformedMessage {
            round,
            sender,
            receiver,
            defect,
        } = self;
        write!(f, "round {round}: link {sender}->{receiver}: {defect}")
    }
}

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
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn malformed_displays_name_the_round_the_link_and_the_defect() {
        let e: NetError = MalformedMessage {
            round: 3,
            sender: 5,
            receiver: 0,
            defect: Defect::Length {
                found: 1,
                expected: 3,
            },
        }
        .into();
        assert_eq!(
            e.to_string(),
            "malformed message: round 3: link 5->0: 1-word message where the protocol sends 3"
        );
        for defect in [
            Defect::Endpoints { u: 99, v: 2 },
            Defect::Fragments { u: 1, v: 2 },
            Defect::Sender,
            Defect::Header { word: Some(99) },
            Defect::Header { word: None },
            Defect::Announcement {
                word: None,
                first: None,
            },
            Defect::Sequence {
                expected: 1,
                found: 2,
            },
            Defect::SketchSize {
                expected: 720,
                found: 714,
            },
            Defect::Rank { item: 7 },
        ] {
            assert!(!defect.to_string().is_empty());
        }
        let shown = |word, first| Defect::Announcement { word, first }.to_string();
        assert!(shown(None, None).contains("not one word"));
        assert!(shown(Some(9), None).contains("names no other node"));
        let repeat = shown(Some(3), Some(2));
        assert!(repeat.contains("ID 3 already read from 2"), "{repeat}");
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
            NetError::Malformed(MalformedMessage {
                round: 0,
                sender: 1,
                receiver: 0,
                defect: Defect::Sender,
            }),
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
                | NetError::Malformed(_) => {}
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
                "bad-destination",
                "link-busy",
                "malformed-message",
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
