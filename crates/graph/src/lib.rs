//! Graph substrate for the Congested Clique reproduction of Hegeman et al.
//! (PODC 2015), *Toward Optimal Bounds in the Congested Clique: Graph
//! Connectivity and MST*.
//!
//! This crate is deliberately self-contained (no simulator types) so that the
//! sequential reference algorithms used to validate the distributed runs do
//! not share code with the implementations under test.
//!
//! The main pieces are:
//!
//! * [`Graph`] / [`WGraph`] — simple undirected (weighted) graphs on vertex
//!   set `0..n`, matching the paper's convention that the input graph is a
//!   spanning subgraph of the `n`-machine clique.
//! * [`Weight`] — edge weights with the standard lexicographic tie-break
//!   `(w, u, v)` that makes the minimum spanning tree unique, so distributed
//!   and sequential outputs can be compared edge-for-edge.
//! * [`edge_index`] / [`edge_from_index`] — the canonical bijection between
//!   vertex pairs and the edge universe `[0, C(n,2))` used by the linear
//!   sketches of Section 2.1 of the paper.
//! * [`UnionFind`] — the disjoint-set forest used by every Borůvka/Kruskal
//!   style routine in the workspace.
//! * [`generators`] — the input families the experiments run on, including
//!   the circulant building blocks of the Section 3 lower bound.
//! * [`mst`] / [`connectivity`] — sequential reference algorithms
//!   (Kruskal, Prim, Borůvka, components, bipartiteness, edge connectivity).
//! * [`tree`] — rooted-forest utilities (binary lifting, path maxima) used by
//!   the Karger–Klein–Tarjan F-light classification.
//!
//! # Example
//!
//! ```
//! use cc_graph::{generators, mst, connectivity};
//! use rand_chacha::ChaCha8Rng;
//! use rand::SeedableRng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let g = generators::random_connected_wgraph(64, 0.1, 1_000, &mut rng);
//! let t = mst::kruskal(&g);
//! assert_eq!(t.len(), 63); // spanning tree of a connected graph
//! assert_eq!(connectivity::component_count(&g.as_unweighted()), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod edge;
pub mod generators;
pub mod graph;
pub mod mst;
pub mod stream;
pub mod tree;
pub mod union_find;
pub mod weight;

pub use edge::{edge_from_index, edge_index, num_pairs, Edge, WEdge};
pub use graph::{Graph, WGraph};
pub use stream::{random_connected_csr, random_connected_edge_indices, CsrGraph};
pub use tree::RootedForest;
pub use union_find::UnionFind;
pub use weight::Weight;

pub mod stats;
