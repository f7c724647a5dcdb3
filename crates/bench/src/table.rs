//! Plain-text experiment tables.
//!
//! Every experiment produces a [`Table`]; the `tables` binary prints them
//! and EXPERIMENTS.md records the measured values next to the paper's
//! claims. A `Table` is `cc-trace`'s
//! [`ExperimentRecord`](cc_trace::ExperimentRecord), the one table type a
//! [`RunArtifact`](cc_trace::RunArtifact) stores, so what a binary prints
//! and what it stores are the same value.

pub use cc_trace::ExperimentRecord as Table;

/// Formats a float compactly.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(2.7241), "2.72");
        assert_eq!(f(12345.6), "12346");
    }
}
