//! Error type for the algorithm crate.

use cc_lotker::{LotkerError, MalformedMessage};
use cc_net::NetError;
use cc_route::FragmentError;
use std::error::Error;
use std::fmt;

/// Errors an algorithm run can surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The simulator rejected a send (bandwidth/destination violation).
    Net(NetError),
    /// The ℓ0-sampling budget was exhausted before the spanning forest
    /// completed — the Monte Carlo failure case the paper bounds by
    /// `1/n^{Ω(1)}`. Retry with a different seed or more families.
    SketchExhausted {
        /// Sampler failures observed before giving up.
        failures: usize,
    },
    /// A shipped bundle arrived with a fragment lost or duplicated, so
    /// its receiver cannot reassemble it.
    Fragment(FragmentError),
    /// A member's sketch reached its leader with the wrong word count —
    /// a lost *last* fragment, which sequence numbers cannot see.
    SketchSize {
        /// The leader reading the sketch.
        leader: usize,
        /// The member that shipped it.
        member: usize,
        /// Words one sketch occupies.
        expected: usize,
        /// Words that arrived.
        found: usize,
    },
    /// A node read a message its protocol cannot have sent (a wrong word
    /// count, a word that names no node, an edge between the wrong
    /// fragments) — what a corrupting or deferring fault produces.
    Malformed(MalformedMessage),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::SketchExhausted { failures } => write!(
                f,
                "sketch families exhausted after {failures} sampler failures"
            ),
            CoreError::Fragment(e) => write!(f, "bundle reassembly: {e}"),
            CoreError::SketchSize {
                leader,
                member,
                expected,
                found,
            } => write!(
                f,
                "sketch size: leader {leader} got {found} words of member {member}'s sketch, expected {expected}"
            ),
            CoreError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Net(e) => Some(e),
            CoreError::SketchExhausted { .. } | CoreError::SketchSize { .. } => None,
            CoreError::Fragment(e) => Some(e),
            CoreError::Malformed(e) => Some(e),
        }
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<LotkerError> for CoreError {
    fn from(e: LotkerError) -> Self {
        match e {
            LotkerError::Net(e) => CoreError::Net(e),
            LotkerError::Malformed(e) => CoreError::Malformed(e),
        }
    }
}

impl From<FragmentError> for CoreError {
    fn from(e: FragmentError) -> Self {
        CoreError::Fragment(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = CoreError::SketchExhausted { failures: 3 };
        assert!(e.to_string().contains("3"));
        let n: CoreError = NetError::SelfMessage { node: 1 }.into();
        assert!(n.to_string().contains("network"));
        let short = CoreError::SketchSize {
            leader: 4,
            member: 9,
            expected: 720,
            found: 714,
        }
        .to_string();
        assert!(
            ["leader 4", "member 9", "720", "714"]
                .iter()
                .all(|part| short.contains(part)),
            "{short}"
        );
        let malformed: CoreError = LotkerError::Malformed(MalformedMessage {
            round: 7,
            sender: 3,
            receiver: 0,
            defect: cc_lotker::Defect::Sender,
        })
        .into();
        let shown = malformed.to_string();
        assert!(
            shown.starts_with("malformed message: round 7: link 3->0"),
            "{shown}"
        );
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let n: CoreError = NetError::SelfMessage { node: 1 }.into();
        assert!(n.source().is_some());
        assert!(CoreError::SketchExhausted { failures: 0 }
            .source()
            .is_none());
    }
}
