//! Sketch-based connectivity as a runtime [`Program`] — the Phase-2 idea
//! of Theorem 4 ported from the driver-orchestrated [`crate::gc`] to the
//! reactive `cc-runtime` engine.
//!
//! Every node sketches its *own* input-graph neighborhood (`t = Θ(log n)`
//! independent families, per Theorem 1) and streams the words to the
//! coordinator over its private link, one budget-sized chunk per round;
//! the coordinator runs Borůvka-over-sketches locally
//! ([`cc_sketch::spanning_forest_via_sketches`]) and broadcasts the
//! component labels back. Unlike [`crate::gc::sketch_and_span`] there is
//! no Lotker reduction in front, so this is the `O(sketch-size)`-round
//! variant — the point here is not round-optimality but exercising the
//! parallel engine with a real sketch workload: per-node sketch
//! construction is the dominant compute and is embarrassingly parallel
//! across nodes, exactly what [`cc_runtime::ParallelBackend`] fans out.
//!
//! The protocol is deterministic given the config seed (the coordinator
//! draws the sketch seed from its [`Ctx::rng`] stream and announces it),
//! so serial and parallel backends produce identical labels and identical
//! cost — `tests/rt_connectivity.rs` asserts exactly that.

use crate::error::CoreError;
use cc_graph::UnionFind;
use cc_net::Envelope;
use cc_runtime::{Backend, Ctx, Program, Runtime};
use cc_sketch::{
    decode_bundle, encode_bundle, recommended_families, spanning_forest_via_sketches,
    GraphSketchSpace, NeighborhoodScratch,
};
use rand::Rng;

/// One node of the sketch-connectivity protocol.
///
/// Construct one per node with [`SketchConnectivity::new`] (or the whole
/// vector with [`programs_for`]) and drive them with [`Runtime::run`] or
/// the [`run_connectivity`] wrapper.
#[derive(Clone, Debug)]
pub struct SketchConnectivity {
    /// Input-graph neighbors of this node (its KT1 knowledge).
    neighbors: Vec<usize>,
    /// Family-count override (`None` = [`recommended_families`]).
    families: Option<usize>,
    /// The announced sketch seed, once known.
    seed: Option<u64>,
    /// The sketch family derived from the seed, built exactly once — the
    /// coordinator probes completion every round and must not re-derive
    /// `t` hash families each time.
    spaces: Vec<GraphSketchSpace>,
    /// `spaces.len() * sketch_words` (complete-bundle size), cached with
    /// the spaces.
    expected_words: usize,
    /// Serialized own sketches awaiting upload (non-coordinator).
    upload: Vec<u64>,
    /// Words already shipped.
    upload_pos: usize,
    /// Coordinator: received sketch words per sender.
    received: Vec<Vec<u64>>,
    /// Coordinator: label words awaiting broadcast.
    label_words: Vec<u64>,
    /// Words already broadcast.
    bcast_pos: usize,
    /// Non-coordinator: label words collected so far.
    label_buf: Vec<u64>,
    /// Output: this node's component label (minimum member ID).
    pub label: Option<usize>,
    /// Output (coordinator only): the full label vector.
    pub labels: Vec<usize>,
    /// Output (coordinator only): sketch sampling ran dry (Monte Carlo
    /// failure, probability `1/n^{Ω(1)}`).
    pub exhausted: bool,
}

impl SketchConnectivity {
    /// A node knowing its input-graph `neighbors`.
    pub fn new(neighbors: Vec<usize>, families: Option<usize>) -> Self {
        SketchConnectivity {
            neighbors,
            families,
            seed: None,
            spaces: Vec::new(),
            expected_words: 0,
            upload: Vec::new(),
            upload_pos: 0,
            received: Vec::new(),
            label_words: Vec::new(),
            bcast_pos: 0,
            label_buf: Vec::new(),
            label: None,
            labels: Vec::new(),
            exhausted: false,
        }
    }

    /// The coordinator node.
    const COORD: usize = 0;

    /// Derives and caches the sketch family for universe `n` under `seed`.
    fn build_spaces(&mut self, n: usize, seed: u64) {
        let t = self.families.unwrap_or_else(|| recommended_families(n));
        self.spaces = GraphSketchSpace::family(n.max(2), t, seed);
        self.expected_words = self.spaces.len() * self.spaces[0].sketch_words();
    }

    /// This node's serialized sketch bundle: `t` sketches of its own
    /// neighborhood, concatenated. Batched kernel path, one scratch across
    /// all families.
    fn own_bundle(&self, me: usize) -> Vec<u64> {
        let mut scratch = NeighborhoodScratch::default();
        encode_bundle(
            &self.spaces,
            me,
            self.neighbors.iter().copied(),
            &mut scratch,
        )
    }

    /// Ships the next budget-sized chunk toward the coordinator.
    fn push_upload(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        let budget = ctx.budget_left(Self::COORD) as usize;
        let remaining = self.upload.len() - self.upload_pos;
        let take = budget.min(remaining);
        if take > 0 {
            let chunk = self.upload[self.upload_pos..self.upload_pos + take].to_vec();
            self.upload_pos += take;
            let _ = ctx.send(Self::COORD, chunk);
        }
    }

    /// Coordinator: once every sender's bundle is complete, solve locally
    /// and queue the label broadcast.
    fn try_finish(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        if !self.label_words.is_empty() || self.label.is_some() {
            return; // already solved
        }
        let n = ctx.n();
        debug_assert!(self.seed.is_some(), "coordinator drew the seed in start");
        let expected = self.expected_words;
        let complete = (1..n).all(|v| self.received[v].len() == expected);
        if !complete {
            return;
        }

        // One sketch row per family, one column per node; node 0's own
        // bundle never crossed the network.
        let own = self.own_bundle(Self::COORD);
        let mut sketches = vec![Vec::with_capacity(n); self.spaces.len()];
        for v in 0..n {
            let bundle = if v == Self::COORD {
                &own
            } else {
                &self.received[v]
            };
            let bundle = decode_bundle(&self.spaces, bundle)
                .expect("every bundle was checked complete above");
            for (f, sk) in bundle.into_iter().enumerate() {
                sketches[f].push(sk);
            }
        }
        let ids: Vec<usize> = (0..n).collect();
        let result = spanning_forest_via_sketches(&self.spaces, &ids, &sketches);
        self.exhausted = result.exhausted;

        let mut uf = UnionFind::new(n);
        for e in &result.edges {
            uf.union(e.u as usize, e.v as usize);
        }
        self.labels = uf.min_labels();
        self.label = Some(self.labels[Self::COORD]);
        self.label_words = self.labels.iter().map(|&l| l as u64).collect();
    }

    /// Coordinator: broadcasts the next label chunk; `true` when all label
    /// words are out.
    fn push_labels(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) -> bool {
        if self.label.is_none() {
            return false; // not solved yet
        }
        let budget = ctx.budget_left(1) as usize; // all links are fresh
        let remaining = self.label_words.len() - self.bcast_pos;
        let take = budget.min(remaining);
        if take > 0 {
            let chunk = self.label_words[self.bcast_pos..self.bcast_pos + take].to_vec();
            self.bcast_pos += take;
            let _ = ctx.broadcast(chunk);
        }
        self.bcast_pos == self.label_words.len()
    }
}

impl Program for SketchConnectivity {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        if ctx.me() == Self::COORD {
            // Theorem 1 preprocessing: one node draws the hash seed and
            // announces it (the runtime analogue of
            // `cc_route::shared_seed`).
            let seed = ctx.rng().gen::<u64>();
            self.seed = Some(seed);
            self.build_spaces(ctx.n(), seed);
            self.received = vec![Vec::new(); ctx.n()];
            let _ = ctx.broadcast(vec![seed]);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, inbox: &[Envelope<Vec<u64>>]) -> bool {
        if ctx.me() == Self::COORD {
            for env in inbox {
                self.received[env.src].extend_from_slice(&env.msg);
            }
            self.try_finish(ctx);
            return self.push_labels(ctx);
        }

        for env in inbox {
            debug_assert_eq!(env.src, Self::COORD, "only the coordinator speaks to us");
            if self.seed.is_none() {
                // First word from the coordinator is the sketch seed.
                let seed = env.msg[0];
                self.seed = Some(seed);
                self.build_spaces(ctx.n(), seed);
                self.upload = self.own_bundle(ctx.me());
            } else {
                // Everything after the seed is label words, in order.
                self.label_buf.extend_from_slice(&env.msg);
            }
        }
        if self.seed.is_some() && self.upload_pos < self.upload.len() {
            self.push_upload(ctx);
        }
        if self.label.is_none() && self.label_buf.len() == ctx.n() {
            self.label = Some(self.label_buf[ctx.me()] as usize);
        }
        self.label.is_some()
    }
}

/// One [`SketchConnectivity`] program per node from an adjacency list.
pub fn programs_for(adj: &[Vec<usize>], families: Option<usize>) -> Vec<SketchConnectivity> {
    adj.iter()
        .map(|nb| SketchConnectivity::new(nb.clone(), families))
        .collect()
}

/// What the protocol establishes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtGcOutput {
    /// Component label (minimum member) per node, as replicated at every
    /// node by the final broadcast.
    pub labels: Vec<usize>,
    /// Number of connected components.
    pub component_count: usize,
    /// Whether the input graph is connected.
    pub connected: bool,
}

/// Runs sketch connectivity over `adj` on any runtime backend.
///
/// # Errors
///
/// * [`CoreError::Net`] on simulator violations or round-cap overrun.
/// * [`CoreError::SketchExhausted`] on Monte Carlo failure (probability
///   `1/n^{Ω(1)}`; retry with another config seed).
///
/// # Panics
///
/// Panics unless `adj.len() == rt.n()`.
pub fn run_connectivity<B: Backend>(
    rt: &mut Runtime<B>,
    adj: &[Vec<usize>],
    families: Option<usize>,
    max_rounds: u64,
) -> Result<RtGcOutput, CoreError> {
    let n = rt.n();
    assert_eq!(adj.len(), n, "one adjacency row per node");
    let out = rt
        .run(programs_for(adj, families), max_rounds)
        .map_err(CoreError::from)?;
    let coord = &out[0];
    if coord.exhausted {
        return Err(CoreError::SketchExhausted { failures: 0 });
    }
    // Every node must have converged on the coordinator's labels.
    let labels = coord.labels.clone();
    for (v, p) in out.iter().enumerate() {
        debug_assert_eq!(p.label, Some(labels[v]), "node {v} disagrees");
    }
    let mut distinct = labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    Ok(RtGcOutput {
        component_count: distinct.len(),
        connected: distinct.len() == 1,
        labels,
    })
}
