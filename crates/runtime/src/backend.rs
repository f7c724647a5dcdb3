//! The execution-engine contract: [`Program`], [`Ctx`], and [`Backend`].
//!
//! A backend only decides *how a round's node callbacks run*; the round
//! itself — budgets, metering, faults, delivery, events — is
//! [`CliqueNet`]'s, and the [`Runtime`](crate::Runtime) facade owns the
//! cross-round loop (start round, termination detection, round caps), so
//! neither can drift between backends.

use crate::rng::node_round_rng;
use cc_net::{CliqueNet, Envelope, NetError, Outbox, Wire};
use rand_chacha::ChaCha8Rng;

/// A per-node protocol state machine, runnable on any backend.
///
/// Each node owns one value of the program type and every callback sees
/// exactly one node's state, so reading a neighbor's state is not
/// expressible. Programs are `Send` (states migrate to worker threads)
/// with messages that are `Clone + Send + Sync` (worker threads read the
/// shared inboxes).
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
    /// every backend (see [`crate::rng::node_round_rng`]).
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

/// A way of running one round's node callbacks on a [`CliqueNet`].
///
/// Implementations must be observationally identical — same inboxes, same
/// cost, same errors, same events, same program mutations — for any
/// [`Program`]; they may only differ in wall-clock. Because the net runs
/// the round around the callbacks, that reduces to running each node's
/// callback exactly once against its own inbox; `tests/equivalence.rs`
/// and the `runtime_determinism` proptest in `cc-net` hold them to it.
pub trait Backend {
    /// Human-readable name (used by benches and reports).
    fn name(&self) -> &'static str;

    /// Executes one round of `phase` over all `programs` on `net`.
    ///
    /// `done[v]` is set from node `v`'s [`Program::round`] return value;
    /// crashed nodes' callbacks do not run.
    ///
    /// # Errors
    ///
    /// The net's round error: the watchdog, or the first send violation
    /// by the lowest-ID offending node.
    fn step<P: Program>(
        &mut self,
        net: &mut CliqueNet<P::Msg>,
        phase: Phase,
        programs: &mut [P],
        done: &mut [bool],
    ) -> Result<(), NetError>;
}

/// Runs one node's callback for `phase` — the per-node code both
/// backends share, so their node semantics cannot diverge.
pub(crate) fn run_node<P: Program>(
    program: &mut P,
    phase: Phase,
    ctx: &mut Ctx<'_, '_, P::Msg>,
    inbox: &[Envelope<P::Msg>],
    done: &mut bool,
) {
    match phase {
        Phase::Start => program.start(ctx),
        Phase::Round => *done = program.round(ctx, inbox),
    }
}
