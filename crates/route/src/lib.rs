//! Clique collectives: the communication primitives the paper's algorithms
//! treat as black boxes, implemented honestly on top of the
//! [`cc_net`] simulator so their round and message costs are *measured*,
//! never assumed.
//!
//! * [`collectives`] — the all-to-all share, direct gathers, and the
//!   distribute-then-rebroadcast large broadcast the paper uses to make
//!   `≤ n` words known to everyone in `O(1)` rounds.
//! * [`mod@fragment`] — the one path for payloads wider than a link: word
//!   bundles are cut once, into frames sharing one buffer, shipped routed
//!   ([`route_bundles`]) or direct ([`ship_direct`]), and reassembled per
//!   pair ([`Bundles`]).
//! * [`read_inbox`] — the checked receive: a message its protocol cannot
//!   have sent ends the run with
//!   [`NetError::Malformed`](cc_net::NetError::Malformed), as does every
//!   read in this crate (a routed frame's header, a fragment's sequence
//!   number, a KT0 announcement, a sort key or rank); [`malformed`]
//!   builds that error for a message read after its collective returned.
//! * [`routing`] — the "Lenzen contract": any instance where every node
//!   sends at most `n` messages and every node receives at most `n`
//!   messages is delivered in `O(1)` rounds. The paper cites Lenzen's
//!   deterministic algorithm (PODC'13); we implement the classic two-phase
//!   balanced scheme (random-rotation spread, then direct delivery) with
//!   the same contract — see DESIGN.md for the substitution note.
//! * [`sort`] — distributed sample-sort assigning global ranks, standing in
//!   for Lenzen's `O(1)`-round clique sorting in Algorithm 4 (SQ-MST).
//! * [`shared_rand`] — Theorem 1's shared-randomness bootstrap: designated
//!   nodes generate and broadcast `Θ(log n)` bits each, giving every node
//!   the same seed for the k-wise independent sketch hash functions.
//!
//! All collectives run on `CliqueNet<WordVec>`: payloads are word vectors
//! ([`Packet`]), the unit the bandwidth accounting charges. Headers that a
//! primitive needs (final destination, original sender, fragment sequence
//! numbers) are carried *in band* and therefore paid for. `WordVec`
//! stores small payloads inline ([`cc_net::INLINE_WORDS`] words), so the
//! quadratic collectives send their one-word messages without a heap
//! allocation per message — on a 4096-clique that is the difference
//! between the simulator and the allocator dominating wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod fragment;
pub mod kt0_boot;
pub mod routing;
pub mod shared_rand;
pub mod sort;

use cc_net::CliqueNet;

/// Wire payload: a vector of `⌈log₂ n⌉`-bit words, stored inline when
/// small (see [`cc_net::WordVec`]). Construct hot-path payloads with
/// [`Packet::one`] / [`Packet::of`] to stay allocation-free.
pub type Packet = cc_net::WordVec;

/// The network type every collective (and every algorithm crate) runs on.
pub type Net = CliqueNet<Packet>;

pub use collectives::{all_to_all_share, broadcast_large, gather_direct, malformed, read_inbox};
pub use fragment::{fragment, reassemble, route_bundles, ship_direct, Bundle, Bundles};
pub use kt0_boot::kt0_bootstrap;
pub use routing::{route, RoutedPacket};
pub use shared_rand::shared_seed;
pub use sort::{distributed_sort, SortItem};
