//! `cc-chaos`: deterministic fault injection for the simulator stack.
//!
//! The simulators in `cc-net` and `cc-runtime` execute the Congested
//! Clique model *faithfully*: every staged message arrives, every node
//! computes every round. Real systems — and the robustness claims a
//! reproduction should probe — are not so polite. This crate supplies the
//! adversary: a declarative [`FaultPlan`] that drops, duplicates,
//! corrupts, or defers messages on selected links, fail-stops nodes at
//! chosen rounds, and squeezes per-link bandwidth, all driven by its own
//! seeded `ChaCha8` streams so a plan replays **byte-identically** on the
//! serial simulator, the serial runtime backend, and the parallel runtime
//! backend — at any thread count.
//!
//! # Determinism contract
//!
//! [`ChaosInjector`] implements [`cc_net::fault::FaultInjector`], whose
//! contract demands that every answer be a pure function of its
//! coordinates:
//!
//! * [`decision`](cc_net::fault::FaultInjector::decision) depends only on
//!   `(plan seed, rule index, round, src, dst, send-index)` — each
//!   coordinate tuple gets an independent `ChaCha8` stream (see
//!   [`rng::decision_rng`]), so the verdict for one message cannot depend
//!   on how many other messages were inspected, in what order, or on
//!   which thread.
//! * [`crashed`](cc_net::fault::FaultInjector::crashed) is monotone in the
//!   round: once a node's `at_round` has passed it stays crashed.
//! * [`link_words`](cc_net::fault::FaultInjector::link_words) depends only
//!   on the round (the minimum over matching [`Squeeze`] windows).
//!
//! The cross-engine equivalence test (`tests/equivalence.rs`) runs one
//! plan exercising all six fault kinds on all three engines and asserts
//! identical model-event streams, costs, and final program states.
//!
//! # Example
//!
//! ```
//! use cc_chaos::{FaultPlan, LinkSelector, RoundRange};
//! use cc_net::{CliqueNet, NetConfig};
//!
//! let plan = FaultPlan::new(7)
//!     .drop_messages(RoundRange::all(), LinkSelector::All, 0.5)
//!     .crash(2, 1);
//! let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4));
//! net.set_fault_injector(Box::new(plan.injector()));
//! // ... drive the net; same plan + seed replays identically.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;
pub mod rng;

pub use inject::ChaosInjector;
pub use plan::{Crash, FaultPlan, LinkFault, LinkRule, LinkSelector, RoundRange, Squeeze};
