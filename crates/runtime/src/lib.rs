//! `cc-runtime`: a parallel, deterministic execution engine for node
//! programs.
//!
//! The `cc-net` simulator executes every node's step sequentially in ID
//! order, so wall-clock time scales as `O(n · per-node-work)` even though
//! the Congested Clique model is embarrassingly parallel *within* a round:
//! node states are structurally isolated (see
//! [`cc_net::program::NodeProgram`]) and messages only move at round
//! boundaries. This crate exploits that: node callbacks fan out across a
//! thread pool, each worker collects its nodes' outboxes locally, and a
//! deterministic exchange phase partitions envelopes into per-destination
//! inboxes without a global lock.
//!
//! # Determinism contract
//!
//! The engine preserves the model's semantics exactly, independent of
//! thread count and scheduling:
//!
//! * **Budgets** — per-link word budgets are enforced at send time through
//!   the same [`cc_net::SendRules`]/[`cc_net::LinkUse`] pieces
//!   [`cc_net::CliqueNet::step`] uses.
//! * **Inbox order** — each inbox is normalized to `(src, send-index)`
//!   order by construction (the exchange scans senders in ID order), never
//!   by thread arrival order.
//! * **Cost** — every worker meters into its own
//!   [`cc_net::Counters`] shard; shards fold at the round barrier, so
//!   rounds/messages/words/bits equal the serial driver's *exactly*.
//! * **Randomness** — [`rng::node_round_rng`] derives an independent
//!   `ChaCha8` stream from `(seed, node, round)`, so a node's draws do not
//!   depend on which worker ran it or on other nodes' consumption.
//!
//! The serial and parallel engines sit behind one [`Backend`] trait so
//! tests run both and assert bit-for-bit equivalence; see
//! `tests/equivalence.rs`; the benchmark's `rt-engines` workload times
//! them (`runtime.parallel_over_serial`).
//! The [`KMachineBackend`] sits behind the same trait: it multiplexes the
//! `n` logical nodes onto `k` machines, keeping the logical execution
//! byte-identical (it delegates to the serial engine) while pricing each
//! round against per-machine-pair bandwidth (see
//! [`cc_model::MachineLedger`]).
//!
//! # Example
//!
//! ```
//! use cc_net::program::examples::FloodEcho;
//! use cc_net::NetConfig;
//! use cc_runtime::{adapt_all, Runtime};
//!
//! // Path 0-1-2-3: flood/echo from node 0 over the runtime.
//! let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
//! let programs: Vec<FloodEcho> = adj
//!     .iter()
//!     .enumerate()
//!     .map(|(v, nb)| FloodEcho::new(nb.clone(), v == 0))
//!     .collect();
//! let mut rt = Runtime::parallel(NetConfig::kt1(4));
//! let out = rt.run(adapt_all(programs), 100).unwrap();
//! assert_eq!(out[0].0.subtree, 4);
//! ```
//!
//! # Picking a backend
//!
//! [`Runtime::serial`] has zero threading overhead and is right for small
//! `n` or message-dominated protocols; [`Runtime::parallel`] wins when
//! per-node compute × `n` dwarfs the per-round synchronization cost
//! (large cliques, sketch-heavy rounds). Both produce identical results,
//! so the choice is purely a performance knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod backend;
pub mod kmachine;
pub mod parallel;
pub mod rng;
pub mod runtime;
pub mod serial;

pub use adapter::{adapt_all, Adapted};
pub use backend::{Backend, Ctx, Phase, Program, RoundOutput};
pub use kmachine::KMachineBackend;
pub use parallel::ParallelBackend;
pub use runtime::Runtime;
pub use serial::SerialBackend;
