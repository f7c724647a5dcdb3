//! The Lotker et al. `O(log log n)`-round Congested Clique MST algorithm
//! (SICOMP 2005), which Hegeman et al. (PODC 2015) use as the Phase-1
//! preprocessing of their `O(log log log n)` connectivity and MST
//! algorithms (Theorem 2 of the paper states its guarantees).
//!
//! * [`merge`] — the coordinator's capped ("controlled") Borůvka merge and
//!   why it only ever adds MST edges while squaring fragment sizes.
//! * [`run`] — the distributed phase protocol: candidate collection in a
//!   constant number of rounds, the routed hand-off to the coordinator,
//!   and the broadcast of merge decisions. A run stops with a
//!   [`NetError`](cc_net::NetError): a refused send, or a received
//!   message the protocol cannot have sent (`NetError::Malformed`).
//!
//! Running [`cc_mst`] to completion computes the MST of a weighted clique
//! in `O(log log n)` phases of `O(1)` rounds each; running it for
//! `⌈log log log n⌉ + 3` phases ([`reduce_components_phases`]) yields
//! fragments of size `≥ log⁴ n` — the component reduction of Lemma 3.
//!
//! # Example
//!
//! ```
//! use cc_lotker::cc_mst;
//! use cc_graph::{generators, mst};
//! use cc_net::NetConfig;
//! use cc_route::Net;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let g = generators::complete_wgraph(16, &mut rng);
//! let mut net = Net::new(NetConfig::kt1(16));
//! let run = cc_mst(&mut net, &g, None).unwrap();
//! assert_eq!(run.forest, mst::kruskal(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod run;

pub use merge::{controlled_boruvka, Candidate, MergeOutcome};
pub use run::{
    cc_mst, min_fragment_size_before_phase, read_edge, read_pair, reduce_components_phases,
    CcMstRun,
};
