//! `cc-runtime`: serial and parallel execution of per-node programs on
//! the one round engine, [`cc_net::CliqueNet`].
//!
//! The Congested Clique model is embarrassingly parallel *within* a
//! round: node states are structurally isolated (see [`Program`]) and
//! messages only move at round boundaries. This crate exploits that
//! without owning a round of its own. [`Runtime::run`] drives a fresh
//! `CliqueNet` round by round, and a [`Backend`] only decides how each
//! round's node callbacks run: [`SerialBackend`] in ID order inside
//! [`cc_net::CliqueNet::step`], [`ParallelBackend`] across worker threads
//! inside [`cc_net::CliqueNet::step_staged`].
//!
//! # Determinism contract
//!
//! The backends agree exactly, independent of thread count and
//! scheduling, because everything but the callbacks is the net's:
//!
//! * **Budgets** — per-link word budgets are enforced at send time through
//!   the same [`cc_net::SendRules`]/[`cc_net::LinkUse`] pieces the net
//!   uses, with one ledger per worker.
//! * **Inbox order, cost, faults, events** — the net meters, applies
//!   faults, and delivers every sender's staged sends in sender-ID order,
//!   so inboxes are `(src, send-index)` sorted and the counters and the
//!   model-event stream are identical by construction.
//! * **Randomness** — [`rng::node_round_rng`] derives an independent
//!   `ChaCha8` stream from `(seed, node, round)`, so a node's draws do not
//!   depend on which worker ran it or on other nodes' consumption.
//!
//! `tests/equivalence.rs` holds the two backends to bit-for-bit
//! equivalence; the benchmark's `rt-engines` workload times them
//! (`runtime.parallel_over_serial`).
//!
//! Machine-level pricing under a k-machine mapping is not an engine: run
//! the protocol on [`Runtime::serial`] with the mapping in its config
//! (`NetConfig::with_model`) and fold the traced sends with
//! `cc_lens::CommLedger::fold(..).machine_stats()`.
//!
//! # Example
//!
//! ```
//! use cc_net::NetConfig;
//! use cc_runtime::program::examples::FloodEcho;
//! use cc_runtime::Runtime;
//!
//! // Path 0-1-2-3: flood/echo from node 0 over the runtime.
//! let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
//! let programs: Vec<FloodEcho> = adj
//!     .iter()
//!     .enumerate()
//!     .map(|(v, nb)| FloodEcho::new(nb.clone(), v == 0))
//!     .collect();
//! let mut rt = Runtime::parallel(NetConfig::kt1(4));
//! let out = rt.run(programs, 100).unwrap();
//! assert_eq!(out[0].subtree, 4);
//! ```
//!
//! # Picking a backend
//!
//! [`Runtime::serial`] has zero threading overhead and is right for small
//! `n` or message-dominated protocols; [`Runtime::parallel`] wins when
//! per-node compute × `n` dwarfs the per-round cost of one thread scope
//! (large cliques, sketch-heavy rounds). Both produce identical results,
//! so the choice is purely a performance knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod parallel;
pub mod program;
pub mod rng;
pub mod runtime;
pub mod serial;

pub use backend::{Backend, Ctx, Phase, Program};
pub use parallel::ParallelBackend;
pub use runtime::Runtime;
pub use serial::SerialBackend;
