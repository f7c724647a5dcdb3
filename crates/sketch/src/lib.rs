//! Linear graph sketches and ℓ0-sampling for the Congested Clique
//! reproduction of Hegeman et al. (PODC 2015), Section 2.1.
//!
//! The pipeline is the one the paper describes:
//!
//! 1. [`hash`] — k-wise independent polynomial hash families over
//!    `F_p`, `p = 2^61 − 1`. A `Θ(log n)`-wise `h` drives geometric level
//!    sampling; pairwise `g_{ℓ,r}` drive bucketing. Each family member is
//!    `Θ(k log n)` shared random bits, matching the shared-randomness
//!    budget of Theorem 1.
//! 2. [`cell`] — 1-sparse recovery cells `(φ, ι, τ)` with a polynomial
//!    fingerprint.
//! 3. [`l0`] — the Cormode–Firmani-style ℓ0-sampler: per-level bucket rows
//!    of cells; [`SketchSpace::sample`] draws a near-uniform non-zero
//!    coordinate, certifies `Zero` exactly, or reports a retryable `Fail`.
//! 4. [`graph_sketch`] — the signed incidence encoding over the `C(n,2)`
//!    edge universe; adding the sketches of a vertex set cancels its
//!    internal edges and leaves a sketch of the cut.
//! 5. [`spanning`] — local Borůvka over summed sketches, the computation
//!    the coordinator performs in SKETCHANDSPAN and the guardians perform
//!    in SQ-MST.
//!
//! # Example: sample an outgoing edge of a merged component
//!
//! ```
//! use cc_sketch::{GraphSketchSpace, EdgeSample};
//!
//! // Triangle {0,1,2} plus the cut edge {2,3} in a 4-vertex graph.
//! let space = GraphSketchSpace::new(4, 42);
//! let s0 = space.sketch_neighborhood(0, [1, 2]);
//! let s1 = space.sketch_neighborhood(1, [0, 2]);
//! let s2 = space.sketch_neighborhood(2, [0, 1, 3]);
//! let mut component = s0;
//! component.add_assign_sketch(&s1);
//! component.add_assign_sketch(&s2);
//! // Intra-component edges cancel; only {2,3} can be sampled.
//! assert_eq!(space.sample_edge(&component), EdgeSample::Edge(2, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
mod failure;
pub mod field;
pub mod graph_sketch;
pub mod hash;
pub mod l0;
pub mod spanning;

pub use graph_sketch::{
    decode_bundle, encode_bundle, EdgeSample, GraphSketchSpace, NeighborhoodScratch,
};
pub use hash::KWiseHash;
pub use l0::{BatchScratch, Sample, Sketch, SketchParams, SketchSizeError, SketchSpace};
pub use spanning::{recommended_families, spanning_forest_via_sketches, SpanningResult};
