//! Error type for the algorithm crate.

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
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Net(e) => Some(e),
            CoreError::SketchExhausted { .. } => None,
            CoreError::Fragment(e) => Some(e),
        }
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
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
