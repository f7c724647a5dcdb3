//! Executable lower-bound constructions from Hegeman et al. (PODC 2015),
//! Sections 3 and 4.
//!
//! Lower bounds cannot be "run", but their combinatorial engines can be
//! built, validated, and turned into adversary demonstrators:
//!
//! * [`kt0`] — the Section 3 hard distribution for the KT0 `Ω(n²)` bound:
//!   the disconnected two-circulant graph `G = G_U ∪ G_V`, the connected
//!   swap family `S_G`, an explicit family of `Ω(m)` edge-disjoint
//!   "squares", and the adversary that, given the set of links a protocol
//!   used, exhibits an untouched square — i.e. a connected input the
//!   protocol cannot distinguish from the disconnected one.
//! * [`kt1`] — the Section 4 / Figure 1 family `G_{i,j}` for the KT1
//!   `Ω(n)` bound: the forests, the partitions `P_{i,j}`, a
//!   partition-crossing auditor for recorded runs, and a concrete
//!   deterministic `GC(u₀, v₀)` protocol to audit.
//!
//! Both audits read a run's recorded event stream (a
//! `cc_trace::RecordingTracer` attached to the net): the links used are
//! the `(src, dst)` pairs of its `MessageBatch` events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kt0;
pub mod kt1;
pub mod port_view;

pub use kt0::{
    edge_disjoint_squares, find_untouched_square, hard_instance, links_used, validate_instance,
    HardInstance, Square, Swap,
};
pub use kt1::{crossed_partitions, g_ij, partition_pair, run_report_protocol, Gc2Run};
pub use port_view::{port_view, views_identical_after_swap, PortView};

use cc_trace::Event;

/// The `(src, dst)` of every `MessageBatch` in `events`; other events
/// are ignored.
fn message_links(events: &[Event]) -> impl Iterator<Item = (usize, usize)> + '_ {
    events.iter().filter_map(|e| match *e {
        Event::MessageBatch { src, dst, .. } => Some((src as usize, dst as usize)),
        _ => None,
    })
}
