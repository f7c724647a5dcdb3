//! # Paper map: section-by-section guide to the reproduction
//!
//! A reading companion: for each part of Hegeman, Pandurangan, Pemmaraju,
//! Sardeshmukh & Scquizzato (PODC 2015), where its implementation lives
//! and which experiment regenerates its numbers (IDs refer to
//! EXPERIMENTS.md / `cargo run -p cc-bench --bin tables`).
//!
//! ## §1.2 The Model
//!
//! | Paper | Code |
//! |---|---|
//! | `n` machines, complete network, synchronous rounds | [`cc_net::CliqueNet::step`] |
//! | `O(log n)` bits per link per round | [`cc_net::NetConfig::link_words`] × [`cc_net::NetConfig::word_bits`], enforced by [`cc_net::Outbox::send`] |
//! | KT0 / KT1 initial knowledge | [`cc_net::Knowledge`], hidden ports in [`cc_net::PortMap`], bootstrap in [`cc_route::kt0_bootstrap`] |
//! | time / message complexity | [`cc_net::Cost`] (`rounds` / `messages`), scoped via [`cc_net::CliqueNet::end_scope`] |
//! | input graph embedded in the clique | algorithms take [`cc_graph::Graph`]/[`cc_graph::WGraph`] with `g.n() == net.n()` |
//!
//! ## §2.1 Linear Sketches of a Graph (Theorem 1)
//!
//! | Paper | Code |
//! |---|---|
//! | signed incidence vectors `a_v` over `C(n,2)` | [`cc_sketch::GraphSketchSpace::sketch_neighborhood`], indexing via [`cc_graph::edge_index`] |
//! | `Θ(log n)`-wise hash `h`, pairwise `g_r` | [`cc_sketch::KWiseHash`] (random polynomials over `F_{2^61−1}`) |
//! | Cormode–Firmani ℓ0 sampler, `O(log⁴ n)` bits | [`cc_sketch::SketchSpace`] / [`cc_sketch::SketchParams`] |
//! | linearity / cancellation | [`cc_sketch::Sketch::add_assign_sketch`] |
//! | `Θ(log² n)` shared random bits in `O(1)` rounds | [`cc_route::shared_seed`] |
//! | experiments | E3 (sizes, success rate), E13 (shape ablation) |
//!
//! ## §2.2 Using Linear Sketches to Solve GC (Theorem 4, Lemma 3)
//!
//! | Paper | Code |
//! |---|---|
//! | Algorithm 1 REDUCECOMPONENTS | [`cc_core::reduce_components::reduce_components`] |
//! | CC-MST (Lotker et al., Theorem 2) | [`cc_lotker::cc_mst`]; merge logic in [`cc_lotker::controlled_boruvka`] (see DESIGN.md on Theorem 2(iii)) |
//! | BUILDCOMPONENTGRAPH | [`cc_core::build_component_graph`] |
//! | Algorithm 2 SKETCHANDSPAN | [`cc_core::gc::sketch_and_span`] |
//! | Lenzen's routing (black box) | [`cc_route::route`] (the "Lenzen contract": a random spread rotation, then direct delivery) |
//! | the full GC algorithm | [`cc_core::gc::run`] |
//! | Remark 5 (bipartiteness, k-edge-connectivity) | [`cc_core::bipartiteness::bipartiteness`], [`cc_core::kecc::k_edge_connectivity`] |
//! | experiments | E1 (rounds), E4 (Lemma 3), E9 (bandwidth "furthermore"), E10 (Remark 5) |
//!
//! ## §2.3 Using Linear Sketches to Solve MST (Theorem 7, Lemma 6)
//!
//! | Paper | Code |
//! |---|---|
//! | KKT sampling + F-light filter (Definition 1, Lemma 6) | [`cc_kkt::sample_edges`], [`cc_kkt::FLightClassifier`] |
//! | Algorithm 4 SQ-MST (sort, groups, guardians) | [`cc_core::sq_mst::sq_mst`]; sorting via [`cc_route::distributed_sort`] |
//! | Algorithm 3 EXACT-MST | [`cc_core::exact_mst::exact_mst`] |
//! | experiments | E2 (rounds), E5 (Lemma 6), E9 (bandwidth) |
//!
//! ## §3 Message Lower Bounds in KT0 (Theorems 8–9)
//!
//! | Paper | Code |
//! |---|---|
//! | the graph `G = G_U ∪ G_V` and distribution `H` | [`cc_lb::hard_instance`], [`cc_lb::HardInstance::sample`] |
//! | the swap family `S_G` | [`cc_lb::Swap`], [`cc_lb::HardInstance::apply_swap`] |
//! | `Ω(m)` edge-disjoint squares | [`cc_lb::edge_disjoint_squares`] |
//! | the "execution proceeds identically" step | [`cc_lb::port_view()`] / [`cc_lb::views_identical_after_swap`] — executable indistinguishability |
//! | the adversary | [`cc_lb::find_untouched_square`] |
//! | experiments | E6 (squares + message audit), E6b (link audit), E6c (fooling probability) |
//!
//! ## §4 Message Complexity in KT1 (Theorem 10, Corollaries 11–12, Theorem 13)
//!
//! | Paper | Code |
//! |---|---|
//! | the `O(n)`-bit time-encoding protocol | [`cc_core::time_encoding::time_encoding_gc`] |
//! | Figure 1 / the family `G_{i,j}` | [`cc_lb::g_ij`] |
//! | partitions `P_{i,j}` and crossings | [`cc_lb::partition_pair`], [`cc_lb::crossed_partitions`] |
//! | a concrete `GC(u₀,v₀)` protocol to audit | [`cc_lb::run_report_protocol`] |
//! | §4.2 MST in `O(polylog n)` rounds / `O(n polylog n)` messages | [`cc_core::kt1_mst::kt1_mst`] |
//! | experiments | E7 (crossings), E8 (Theorem 13), E11 (time encoding), F1 (Figure 1) |
//!
//! ## §5 Conclusions (open questions)
//!
//! "Is it possible to design sub-logarithmic GC or MST algorithms that use
//! `O(n polylog n)` messages?" — the message half is packaged as
//! [`cc_core::kt1_gc::kt1_gc`] (experiment E12); the sub-logarithmic-round
//! half remains open, here as in the literature.

// This module is documentation-only.
