//! Error type for the algorithm crate.

use cc_net::NetError;
use std::error::Error;
use std::fmt;

/// Errors an algorithm run can surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The simulator rejected a send (bandwidth/destination violation),
    /// or a node read a message its protocol cannot have sent
    /// ([`NetError::Malformed`]: a wrong word count, a word that names no
    /// node, a lost fragment) — what a corrupting, dropping or deferring
    /// fault produces.
    Net(NetError),
    /// The ℓ0-sampling budget was exhausted before the spanning forest
    /// completed — the Monte Carlo failure case the paper bounds by
    /// `1/n^{Ω(1)}`. Retry with a different seed or more families.
    SketchExhausted {
        /// Sampler failures observed before giving up.
        failures: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Bad input read, not a rule the run broke: no network prefix.
            CoreError::Net(e @ NetError::Malformed(_)) => write!(f, "{e}"),
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::SketchExhausted { failures } => write!(
                f,
                "sketch families exhausted after {failures} sampler failures"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Net(e) => Some(e),
            CoreError::SketchExhausted { .. } => None,
        }
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
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
        let m: CoreError = NetError::Malformed(cc_net::MalformedMessage {
            round: 4,
            sender: 1,
            receiver: 0,
            defect: cc_net::Defect::Header { word: None },
        })
        .into();
        assert!(
            m.to_string().starts_with("malformed message: round 4"),
            "{m}"
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
