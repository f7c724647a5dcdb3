//! The Congested Clique network simulator.
//!
//! This crate enforces the model of Section 1.2 of Hegeman et al. (PODC
//! 2015): `n` machines on a complete network, synchronous rounds, a
//! (possibly different) message of `O(log n)` bits per link per round, and
//! the KT0 / KT1 initial-knowledge variants. It meters the two complexity
//! measures the paper studies — rounds and messages — plus words and bits
//! for bandwidth ablations.
//!
//! * [`NetConfig`] — size, bandwidth (in `⌈log₂ n⌉`-bit words), knowledge
//!   variant, seed.
//! * [`CliqueNet`] — the synchronous stepper with per-link budget
//!   enforcement ([`CliqueNet::step`], or [`CliqueNet::step_staged`] when
//!   the node callbacks run elsewhere) and silent-round fast-forwarding.
//!   It is the workspace's one round engine; `cc-runtime`'s backends run
//!   their rounds through it.
//! * [`Cost`] — the metered totals (`cc-trace`'s type, so the events
//!   carry the same struct); [`CliqueNet::begin_scope`] /
//!   [`CliqueNet::end_scope`] attribute cost to algorithm phases, and the
//!   attached [`cc_trace::Tracer`]'s event stream is the run's one
//!   per-link, per-phase record.
//! * [`Wire`] — message-size declaration every payload type provides.
//! * [`PortMap`] — the hidden port permutation of the KT0 variant.
//! * [`ModelSpec`] (re-exported from `cc-model`) — the bandwidth /
//!   link-mode / mapping axes as data; [`NetConfig::from_model`] binds a
//!   spec to a clique size and [`SendRules`] enforces it at send time.
//!
//! See [`net`] for the execution model and a worked example.
//!
//! The per-message path is built to be compiled where it runs.
//! [`CliqueNet::step`] is generic, so it is instantiated in the crate
//! that calls it, closure and all; the non-generic helpers it calls once
//! per message ([`WordVec`]'s accessors, [`Wire::words`], [`LinkUse`]'s
//! ledger, [`SendRules::validate`]'s accept test) are `#[inline]`, so
//! they join it there without link-time optimisation, and building a
//! refused send's error is kept out of line. Each message is metered
//! once, as one [`LinkUse`] charge (the one its budget check makes, or
//! under [`CliqueNet::step_staged`] the one the net makes for it); after
//! a sender's last message the net drains that ledger into the [`Cost`]
//! totals and, when tracing, the round's `MessageBatch` rows. A
//! delivered [`Envelope`] holds only its sender and payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod error;
pub mod fault;
pub mod net;
pub mod packet;
pub mod ports;
pub mod wire;

pub use budget::{LinkUse, SendRules};
pub use cc_model::{LinkMode, Mapping, ModelError, ModelSpec};
pub use cc_trace::Cost;
pub use config::{Knowledge, NetConfig, DEFAULT_LINK_WORDS};
pub use error::NetError;
pub use fault::{apply_faults, FaultDecision, FaultInjector, FaultOutcome, FaultRecord, NoFaults};
pub use net::{CliqueNet, Envelope, Outbox, RoundPlan, StagedRound};
pub use packet::{WordVec, INLINE_WORDS};
pub use ports::PortMap;
pub use wire::Wire;
