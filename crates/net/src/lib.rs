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
//! * [`Counters`] / [`Cost`] — metering with named scopes so experiments
//!   can attribute cost to algorithm phases.
//! * [`Wire`] — message-size declaration every payload type provides.
//! * [`PortMap`] — the hidden port permutation of the KT0 variant.
//! * [`ModelSpec`] (re-exported from `cc-model`) — the bandwidth /
//!   link-mode / mapping axes as data; [`NetConfig::from_model`] binds a
//!   spec to a clique size and [`SendRules`] enforces it at send time.
//!
//! See [`net`] for the execution model and a worked example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod budget;
pub mod config;
pub mod counters;
pub mod error;
pub mod fault;
pub mod net;
pub mod packet;
pub mod ports;
pub mod wire;

pub use budget::{LinkUse, SendRules};
pub use cc_model::{LinkMode, Mapping, ModelError, ModelSpec};
pub use config::{Knowledge, NetConfig, DEFAULT_LINK_WORDS};
pub use counters::{Cost, Counters};
pub use error::NetError;
pub use fault::{apply_faults, FaultDecision, FaultInjector, FaultOutcome, FaultRecord, NoFaults};
pub use net::{CliqueNet, Envelope, Outbox, RoundPlan, StagedRound};
pub use packet::{WordVec, INLINE_WORDS};
pub use ports::PortMap;
pub use wire::{decode_frame, encode_frame, Wire, WireError};
