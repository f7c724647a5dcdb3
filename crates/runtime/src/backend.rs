//! The execution-engine contract: [`Program`], [`Ctx`], and [`Backend`].
//!
//! A backend executes *one synchronous round* over every node; the
//! [`Runtime`](crate::Runtime) facade owns the cross-round driver loop
//! (start round, termination detection, round caps, cost accumulation),
//! so the loop's semantics cannot drift between backends.

use crate::rng::node_round_rng;
use cc_net::budget::{LinkUse, SendRules};
use cc_net::fault::{FaultInjector, FaultRecord};
use cc_net::{Cost, Counters, Envelope, NetConfig, NetError, Outbox, Wire};
use cc_trace::SpanTiming;
use rand_chacha::ChaCha8Rng;

/// A per-node protocol state machine, runnable on any backend.
///
/// Each node owns one value of the program type and every callback sees
/// exactly one node's state, so reading a neighbor's state is not
/// expressible. Programs are `Send` (states migrate to worker threads)
/// with messages that are `Clone + Send + Sync` (the lock-free exchange
/// phase reads staged envelopes from all workers). The same program also
/// runs on the direct simulator through [`run_program`](crate::run_program).
pub trait Program: Send {
    /// Message type exchanged by the protocol.
    type Msg: Wire + Clone + Send + Sync;

    /// Called once in round 0, before any delivery, to send initial
    /// messages.
    fn start(&mut self, ctx: &mut Ctx<'_, '_, Self::Msg>);

    /// Called every subsequent round with the node's inbox (sorted by
    /// `(src, send-index)`). Return `true` once this node has terminated;
    /// the driver stops when every node has terminated and no messages
    /// are in flight.
    fn round(&mut self, ctx: &mut Ctx<'_, '_, Self::Msg>, inbox: &[Envelope<Self::Msg>]) -> bool;
}

/// Which callback a round executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Round 0: [`Program::start`].
    Start,
    /// Every later round: [`Program::round`].
    Round,
}

/// One node's view of the current round: identity, sends, randomness.
///
/// Borrows the engine's [`Outbox`] for the node, so sends go through the
/// same budget enforcement whichever engine runs the round.
pub struct Ctx<'a, 'b, M: Wire> {
    node: usize,
    n: usize,
    round: u64,
    seed: u64,
    outbox: &'a mut Outbox<'b, M>,
    rng: Option<ChaCha8Rng>,
}

impl<'a, 'b, M: Wire> Ctx<'a, 'b, M> {
    /// Node `node`'s view of round `round` of an `n`-node run seeded
    /// with `seed`, sending through `outbox`.
    pub(crate) fn new(
        node: usize,
        n: usize,
        round: u64,
        seed: u64,
        outbox: &'a mut Outbox<'b, M>,
    ) -> Self {
        Ctx {
            node,
            n,
            round,
            seed,
            outbox,
            rng: None,
        }
    }

    /// This node's ID.
    pub fn me(&self) -> usize {
        self.node
    }

    /// Clique size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds completed before this one (0 during [`Phase::Start`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sends `msg` to `dst` this round, enforcing the same rules as
    /// [`cc_net::Outbox::send`] (errors are latched and re-raised by the
    /// driver even if the result is ignored).
    ///
    /// # Errors
    ///
    /// See [`cc_net::Outbox::send`].
    pub fn send(&mut self, dst: usize, msg: M) -> Result<(), NetError> {
        self.outbox.send(dst, msg)
    }

    /// Remaining word budget toward `dst` this round.
    pub fn budget_left(&self, dst: usize) -> u64 {
        self.outbox.budget_left(dst)
    }

    /// This node's private randomness for *this round*: an independent
    /// `ChaCha8` stream derived from `(seed, node, round)`, identical on
    /// every engine, [`run_program`](crate::run_program) included (see
    /// [`crate::rng::node_round_rng`]).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (seed, node, round) = (self.seed, self.node, self.round);
        self.rng
            .get_or_insert_with(|| node_round_rng(seed, node, round))
    }
}

impl<M: Wire + Clone> Ctx<'_, '_, M> {
    /// Sends the same message along every link (the broadcast-model
    /// primitive; also valid, and counted as `n − 1` messages, under
    /// unicast).
    ///
    /// # Errors
    ///
    /// See [`cc_net::Outbox::broadcast`].
    pub fn broadcast(&mut self, msg: M) -> Result<(), NetError> {
        self.outbox.broadcast(msg)
    }
}

/// What one executed round hands back to the driver (the next round's
/// inboxes are written into the caller-owned pooled buffer instead).
#[derive(Debug)]
pub struct RoundOutput<M> {
    /// Message/word/bit cost of this round (`rounds` stays 0; the driver
    /// counts rounds).
    pub cost: Cost,
    /// `(round, src, dst)` per message, empty unless
    /// [`NetConfig::record_transcript`] is set.
    pub transcript: Vec<(u64, u32, u32)>,
    /// Wall-clock span of each compute worker this round, in worker (=
    /// node-range) order. Timing only — the driver forwards these to its
    /// tracer as [`cc_trace::Event::WorkerSpan`]s, which are excluded from
    /// model-event comparisons (the serial engine reports one span
    /// covering all nodes; the parallel engine one per worker).
    pub worker_spans: Vec<SpanTiming>,
    /// Faults injected this round, in `(node, send-index)` order (empty
    /// without an injector). The driver emits these as
    /// [`cc_trace::Event::Fault`]s after the round's batches.
    pub faults: Vec<FaultRecord>,
    /// Fault-deferred envelopes: `(delivery_round, env)`, in `(node,
    /// send-index)` order. The driver owns the cross-round schedule.
    pub deferred: Vec<(u64, Envelope<M>)>,
    /// Pre-fault `(src, dst) → (count, words)` batch aggregation, sorted
    /// by key. `Some` only when an injector is active: `inboxes` are then
    /// post-fault, so the driver cannot reconstruct the *sent* batches
    /// (which is what [`cc_trace::Event::MessageBatch`] reports and what
    /// [`cc_net::CliqueNet::step`] emits) from them.
    #[allow(clippy::type_complexity)]
    pub batches: Option<Vec<cc_net::BatchEntry>>,
}

/// An engine that can execute one synchronous round.
///
/// Implementations must be observationally identical — same inboxes, same
/// cost, same errors, same program mutations — for any [`Program`]; they
/// may only differ in wall-clock. `tests/equivalence.rs` and the
/// `runtime_determinism` proptest in `cc-net` hold them to that.
pub trait Backend {
    /// Human-readable name (used by benches and reports).
    fn name(&self) -> &'static str;

    /// Executes one round of `phase` over all `programs`.
    ///
    /// `delivered[v]` is node `v`'s inbox for this round; `done[v]` is
    /// updated from [`Program::round`] return values. `round` is the
    /// number of rounds completed before this one. `inboxes` is the
    /// caller's pooled delivery buffer — `n` empty vectors whose retained
    /// capacity is the whole point; the backend fills `inboxes[v]` with
    /// node `v`'s next-round inbox in `(src, send-index)` order. With
    /// `fault` present, crashed nodes are skipped (and marked done so the
    /// driver can terminate), the round's link budget honors any squeeze,
    /// and every staged message passes through
    /// [`cc_net::fault::apply_faults`] after metering.
    ///
    /// # Errors
    ///
    /// The first send violation by the lowest-ID offending node (the
    /// contents of `inboxes` are unspecified after an error; the driver
    /// recycles them regardless).
    #[allow(clippy::too_many_arguments)] // one seam for engine parity; bundling would obscure it
    fn execute<P: Program>(
        &mut self,
        cfg: &NetConfig,
        round: u64,
        phase: Phase,
        programs: &mut [P],
        delivered: &[Vec<Envelope<P::Msg>>],
        inboxes: &mut [Vec<Envelope<P::Msg>>],
        done: &mut [bool],
        fault: Option<&dyn FaultInjector>,
    ) -> Result<RoundOutput<P::Msg>, NetError>;
}

/// The effective send rules for one round: config-derived, round-stamped,
/// and squeezed if the injector says so — shared by both backends and
/// matching what [`cc_net::CliqueNet::step`] computes.
pub(crate) fn round_rules(
    cfg: &NetConfig,
    round: u64,
    fault: Option<&dyn FaultInjector>,
) -> SendRules {
    let mut rules = SendRules::from_config(cfg).for_round(round);
    if let Some(cap) = fault.and_then(|inj| inj.link_words(round)) {
        rules = rules.with_link_words_capped(cap);
    }
    rules
}

/// Runs one node's callback and stages its sends — the single code path
/// both backends share, so their per-node semantics cannot diverge.
///
/// `buf` is the (empty) staging buffer the node's outbox fills; a pooled
/// caller passes the drained buffer of the previous node back in.
///
/// Returns the staged envelopes, the first latched violation, and whether
/// the node reported termination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node<P: Program>(
    program: &mut P,
    node: usize,
    cfg: &NetConfig,
    rules: SendRules,
    links: &mut LinkUse,
    round: u64,
    phase: Phase,
    inbox: &[Envelope<P::Msg>],
    buf: Vec<Envelope<P::Msg>>,
) -> (Vec<Envelope<P::Msg>>, Option<NetError>, bool) {
    let mut outbox = Outbox::assemble_in(node, rules, links, buf);
    let mut ctx = Ctx::new(node, cfg.n, round, cfg.seed, &mut outbox);
    let done = match phase {
        Phase::Start => {
            program.start(&mut ctx);
            false
        }
        Phase::Round => program.round(&mut ctx, inbox),
    };
    let (staged, error) = outbox.finish();
    links.reset();
    (staged, error, done)
}

/// Meters `staged` envelopes into `counters` and appends transcript
/// entries when recording — the shared per-node accounting step.
pub(crate) fn meter<M: Wire>(
    staged: &[Envelope<M>],
    cfg: &NetConfig,
    round: u64,
    counters: &mut Counters,
    transcript: &mut Vec<(u64, u32, u32)>,
) {
    let word_bits = cfg.word_bits();
    for env in staged {
        counters.add_message(env.msg.words().max(1), word_bits);
        if cfg.record_transcript {
            transcript.push((round, env.src as u32, env.dst as u32));
        }
    }
}
