//! The algorithms of Hegeman, Pandurangan, Pemmaraju, Sardeshmukh and
//! Scquizzato, *Toward Optimal Bounds in the Congested Clique: Graph
//! Connectivity and MST* (PODC 2015), implemented as message-passing
//! programs on the [`cc_net`] simulator.
//!
//! * [`mod@reduce_components`] — Algorithm 1 (Phase 1 of GC).
//! * [`component_graph`] — BUILDCOMPONENTGRAPH (unweighted + weighted).
//! * [`gc`] — the `O(log log log n)` connectivity algorithm (Theorem 4),
//!   including Algorithm 2 SKETCHANDSPAN.
//! * [`mod@sq_mst`] — Algorithm 4 (MST of an `O(n^{3/2})`-edge graph).
//! * [`mod@exact_mst`] — Algorithm 3 / Theorem 7.
//! * [`mod@kt1_mst`] — the `O(polylog n)`-round, `O(n polylog n)`-message KT1
//!   MST (Theorem 13).
//! * [`mod@kt1_gc`] — low-message connectivity via the same machinery (the
//!   message half of the paper's concluding open question).
//! * [`bipartiteness`] / [`kecc`] — the Remark 5 extensions (via the
//!   bipartite double cover; spanning-forest peeling plus the one-shot
//!   sketch-shipment variant).
//! * [`mod@broadcast_gc`] — label-propagation connectivity for the
//!   *broadcast* variant of the model (the paper's footnote 1).
//! * [`rt_connectivity`] — sketch connectivity as a reactive
//!   [`cc_runtime`] program (runs on the serial or parallel engine).
//! * [`time_encoding`] — the Section 4 observation that `O(n)` bits
//!   suffice for anything in KT1 given super-polynomially many rounds.
//! * [`catalog`] — runs `gc-sketch`, `exact-mst` and `kt1-mst` at their
//!   defaults and checks each answer with the [`validate`] oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartiteness;
pub mod broadcast_gc;
pub mod catalog;
pub mod component_graph;
pub mod error;
pub mod exact_mst;
pub mod gc;
pub mod kecc;
pub mod kt1_gc;
pub mod kt1_mst;
pub mod reduce_components;
pub mod rt_connectivity;
pub mod sq_mst;
pub mod time_encoding;
pub mod validate;

pub use broadcast_gc::broadcast_gc;
pub use component_graph::{build_component_graph, build_weighted_component_graph, ComponentGraph};
pub use error::CoreError;
pub use exact_mst::{exact_mst, ExactMstConfig, ExactMstRun};
pub use gc::{GcConfig, GcOutput, GcRun};
pub use kecc::{k_edge_connectivity, k_edge_connectivity_sketch, KeccRun};
pub use kt1_gc::{kt1_gc, Kt1GcRun};
pub use kt1_mst::{kt1_mst, Kt1MstConfig, Kt1MstRun};
pub use reduce_components::{reduce_components, ReduceOutcome};
pub use rt_connectivity::{run_connectivity, RtGcOutput, SketchConnectivity};
pub use sq_mst::{sq_mst, SqMstConfig, SqMstInstance};
pub use validate::{validate_gc, validate_mst, validate_mst_minimal};
