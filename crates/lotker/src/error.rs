//! Why a Lotker run stops: the simulator refused a send, or a node read
//! a message the protocol cannot have sent.
//!
//! Every word a node reads and then uses as a length or a node id is
//! checked first. A fault plan that corrupts, defers or misroutes a
//! message therefore ends the run with a [`MalformedMessage`] naming the
//! round, the link and the defect, never with an index out of bounds.

use cc_net::NetError;
use std::error::Error;
use std::fmt;

/// What is wrong with a received message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// An edge message arrived with `found` words, not the `expected`
    /// (3 for `[w, u, v]`, 2 for an unweighted `[u, v]`).
    Length {
        /// Words that arrived.
        found: usize,
        /// Words the edge message takes.
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
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::Length { found, expected } => {
                write!(f, "{found}-word message where an edge takes {expected}")
            }
            Defect::Endpoints { u, v } => write!(f, "endpoints {u}, {v} are not two nodes"),
            Defect::Fragments { u, v } => write!(f, "edge {u}-{v} joins the wrong fragments"),
            Defect::Sender => write!(f, "sender is not a fragment leader"),
        }
    }
}

/// A message that cannot be what the protocol sent, as its receiver read
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedMessage {
    /// The 0-based round whose inbox held the message.
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

impl Error for MalformedMessage {}

/// Why [`cc_mst`](crate::cc_mst) stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LotkerError {
    /// The simulator rejected a send.
    Net(NetError),
    /// A node read a message the protocol cannot have sent.
    Malformed(MalformedMessage),
}

impl fmt::Display for LotkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotkerError::Net(e) => write!(f, "network error: {e}"),
            LotkerError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl Error for LotkerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LotkerError::Net(e) => Some(e),
            LotkerError::Malformed(e) => Some(e),
        }
    }
}

impl From<NetError> for LotkerError {
    fn from(e: NetError) -> Self {
        LotkerError::Net(e)
    }
}

impl From<MalformedMessage> for LotkerError {
    fn from(e: MalformedMessage) -> Self {
        LotkerError::Malformed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_round_the_link_and_the_defect() {
        let e = MalformedMessage {
            round: 3,
            sender: 5,
            receiver: 0,
            defect: Defect::Length {
                found: 1,
                expected: 3,
            },
        };
        assert_eq!(
            LotkerError::from(e).to_string(),
            "malformed message: round 3: link 5->0: 1-word message where an edge takes 3"
        );
        for defect in [
            Defect::Endpoints { u: 99, v: 2 },
            Defect::Fragments { u: 1, v: 2 },
            Defect::Sender,
        ] {
            assert!(!defect.to_string().is_empty());
        }
        let net: LotkerError = NetError::SelfMessage { node: 1 }.into();
        assert!(net.to_string().starts_with("network error"));
    }
}
