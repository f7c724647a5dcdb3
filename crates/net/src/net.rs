//! The synchronous Congested Clique simulator.
//!
//! A [`CliqueNet`] advances in synchronous rounds. In each round every node,
//! in ID order, receives the messages addressed to it in the previous round
//! and may send one bounded message along each of its `n − 1` links. The
//! per-link budget ([`NetConfig::link_words`]) is enforced at send time, so
//! an algorithm that needs to move something larger must fragment it across
//! rounds or spread it across receivers (that is what the routing
//! collectives in `cc-route` are for).
//!
//! Node programs are written as closures over per-node state:
//!
//! ```
//! use cc_net::{CliqueNet, NetConfig};
//!
//! let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4));
//! let mut state = vec![0u64; 4];
//! // Round 1: everyone sends its ID to node 0.
//! net.step(|node, _inbox, out| {
//!     if node != 0 {
//!         out.send(0, node as u64).unwrap();
//!     }
//! }).unwrap();
//! // Round 2: node 0 sums what it received.
//! net.step(|node, inbox, _out| {
//!     if node == 0 {
//!         state[0] = inbox.iter().map(|e| e.msg).sum();
//!     }
//! }).unwrap();
//! assert_eq!(state[0], 1 + 2 + 3);
//! assert_eq!(net.cost().rounds, 2);
//! assert_eq!(net.cost().messages, 3);
//! ```
//!
//! The closure receives only the node's ID and inbox; per-node state lives
//! in vectors owned by the algorithm and indexed by the node ID. The API
//! shape makes non-local reads glaring in review, which is the discipline
//! this simulator relies on (it does not memory-protect states).

use crate::budget::{LinkUse, SendRules};
use crate::config::{Knowledge, NetConfig};
use crate::error::NetError;
use crate::fault::{apply_faults, FaultInjector, FaultRecord};
use crate::ports::PortMap;
use crate::wire::Wire;
use cc_model::LinkMode;
use cc_trace::{Cost, Event, FaultKind, NullTracer, SpanTiming, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// A delivered message: its sender and payload.
///
/// The receiver is implied by the inbox the envelope sits in, so it is
/// not stored: an inbox entry is the sender and the payload alone (40
/// bytes for a [`WordVec`](crate::WordVec) payload). On its way there —
/// staged in an [`Outbox`], through a [fault](crate::fault) decision, deferred, or handed
/// back in a [`StagedRound`] — a message travels as `(dst, Envelope)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub src: usize,
    /// Payload.
    pub msg: M,
}

/// Per-node send handle for one round.
///
/// Obtained inside [`CliqueNet::step`]; enforces destination validity and
/// the per-link word budget.
pub struct Outbox<'a, M> {
    node: usize,
    rules: SendRules,
    links: &'a mut LinkUse,
    staged: Vec<(usize, Envelope<M>)>,
    error: Option<NetError>,
}

impl<'a, M: Wire> Outbox<'a, M> {
    /// Assembles a standalone outbox for one sender, staging into a
    /// caller-supplied (empty) buffer.
    ///
    /// This is how [`CliqueNet::step_staged`] callers (the `cc-runtime`
    /// parallel backend) obtain the same budget enforcement
    /// [`CliqueNet::step`] applies:
    /// build an outbox per node against a reusable [`LinkUse`] ledger,
    /// hand it to the node's program, then recover the staged envelopes
    /// with [`Outbox::finish`] and [`LinkUse::reset`] the ledger for the
    /// next sender. Pooled drivers pass the drained buffer of the
    /// previous node back in, so steady-state staging allocates nothing;
    /// [`Outbox::finish`] returns the same buffer.
    pub fn assemble_in(
        node: usize,
        rules: SendRules,
        links: &'a mut LinkUse,
        staged: Vec<(usize, Envelope<M>)>,
    ) -> Self {
        debug_assert!(staged.is_empty(), "staging buffer must start empty");
        Outbox {
            node,
            rules,
            links,
            staged,
            error: None,
        }
    }

    /// Tears the outbox down into its staged `(dst, envelope)` pairs, in
    /// send order, and the first latched violation, if any.
    pub fn finish(self) -> (Vec<(usize, Envelope<M>)>, Option<NetError>) {
        (self.staged, self.error)
    }
}

impl<M: Wire> Outbox<'_, M> {
    /// Sends `msg` to `dst` this round.
    ///
    /// # Errors
    ///
    /// * [`NetError::BadDestination`] / [`NetError::SelfMessage`] for
    ///   invalid targets.
    /// * [`NetError::MessageTooLarge`] if the message alone exceeds the
    ///   link budget.
    /// * [`NetError::LinkBusy`] if this round's budget toward `dst` is
    ///   exhausted.
    ///
    /// Any error is also latched and re-raised by the enclosing
    /// [`CliqueNet::step`], so callers may ignore the returned `Result`
    /// without masking violations.
    pub fn send(&mut self, dst: usize, msg: M) -> Result<(), NetError> {
        let r = self.try_send(dst, msg);
        if let Err(ref e) = r {
            if self.error.is_none() {
                self.error = Some(e.clone());
            }
        }
        r
    }

    fn try_send(&mut self, dst: usize, msg: M) -> Result<(), NetError> {
        let used = if dst < self.rules.n {
            self.links.used(dst)
        } else {
            0
        };
        let words = self.rules.validate(self.node, dst, msg.words(), used)?;
        self.links.charge(dst, words);
        self.staged.push((
            dst,
            Envelope {
                src: self.node,
                msg,
            },
        ));
        Ok(())
    }

    /// Remaining word budget toward `dst` this round; 0 toward a node
    /// outside the clique, where no send can go.
    pub fn budget_left(&self, dst: usize) -> u64 {
        if dst >= self.rules.n {
            return 0;
        }
        self.rules.link_words().saturating_sub(self.links.used(dst))
    }
}

impl<M: Wire + Clone> Outbox<'_, M> {
    /// Sends the same message along every link — the only send the
    /// broadcast variant of the model permits (footnote 1 of the paper);
    /// also valid (and counted as `n − 1` messages) in the unicast model.
    ///
    /// The payload itself is moved, not cloned, onto the final link, so a
    /// broadcast costs `n − 2` clones; wrap large payloads in
    /// [`std::sync::Arc`] (which implements [`Wire`] with copy-on-write
    /// corruption) to make every clone a reference-count bump.
    ///
    /// # Errors
    ///
    /// [`NetError::MessageTooLarge`] / [`NetError::LinkBusy`] as for
    /// point-to-point sends. First-error semantics: destinations are
    /// attempted in ascending ID order and the sweep stops at the first
    /// violation, so the reported link is always the lowest-ID failing
    /// destination. Messages already staged toward earlier destinations
    /// stay staged and charged, but the error is latched like any other
    /// send violation — the enclosing round aborts, so a partial
    /// broadcast is never delivered.
    pub fn broadcast(&mut self, msg: M) -> Result<(), NetError> {
        let was_link_mode = self.rules.model.link_mode;
        self.rules.model.link_mode = LinkMode::Unicast;
        let mut result = Ok(());
        let last = (0..self.rules.n).rev().find(|&d| d != self.node);
        let mut payload = Some(msg);
        for dst in 0..self.rules.n {
            if dst == self.node {
                continue;
            }
            let m = if Some(dst) == last {
                payload
                    .take()
                    .expect("the last destination is visited once")
            } else {
                payload
                    .as_ref()
                    .expect("payload lives until the last destination")
                    .clone()
            };
            if let Err(e) = self.send(dst, m) {
                result = Err(e);
                break;
            }
        }
        self.rules.model.link_mode = was_link_mode;
        result
    }
}

/// The simulator. See the [module docs](self) for the execution model.
pub struct CliqueNet<M> {
    cfg: NetConfig,
    word_bits: u64,
    /// Running totals (the paper's complexity measures).
    cost: Cost,
    /// Open scopes, innermost last: name and the total at entry.
    scopes: Vec<(String, Cost)>,
    inboxes: Vec<Vec<Envelope<M>>>,
    rngs: Vec<ChaCha8Rng>,
    ports: Option<PortMap>,
    tracer: Box<dyn Tracer>,
    /// `tracer.enabled()`, cached at attach time so the disabled path is
    /// one predictable branch per emission site (no virtual call).
    tracing: bool,
    /// `tracer.wants_timing()`, cached likewise; gates the clock reads.
    timing: bool,
    /// Attached fault injector, if any (see `set_fault_injector`).
    fault: Option<Box<dyn FaultInjector>>,
    /// `fault.is_some()`, cached so the fault-free path costs one
    /// predictable branch per round (the zero-overhead contract).
    faulty: bool,
    /// Messages deferred by a fault: delivery round → `(dst, envelope)`.
    deferred: BTreeMap<u64, Vec<(usize, Envelope<M>)>>,
    /// Which nodes have been observed crashed (set when their crash
    /// round executes; also gates the one-time `NodeCrash` event).
    crashed_seen: Vec<bool>,
    /// Recycled inbox buffers: last round's delivered inboxes, emptied
    /// (capacity retained) at the end of each step. Steady-state rounds
    /// therefore build the next inboxes without allocating.
    pool: Vec<Vec<Envelope<M>>>,
    /// Recycled staging buffer of `step`'s outbox (the fault-free path
    /// drains it into the inboxes after each sender).
    staged_pool: Vec<(usize, Envelope<M>)>,
    /// The per-sender link ledger: `step`'s outbox charges it,
    /// `step_staged` charges it from the staged sends, and each sender's
    /// costs and batch rows are drained from it. Kept across rounds.
    links: LinkUse,
    /// This round's `(src, dst, count, words)` batch rows in `(src, dst)`
    /// order, drained from the ledger (tracing only; capacity retained).
    batches: Vec<(u32, u32, u32, u64)>,
}

impl<M: Wire> CliqueNet<M> {
    /// A fresh network.
    pub fn new(cfg: NetConfig) -> Self {
        let n = cfg.n;
        let word_bits = cfg.word_bits();
        let rngs = (0..n)
            .map(|u| {
                ChaCha8Rng::seed_from_u64(
                    cfg.seed
                        .wrapping_mul(0x2545F4914F6CDD1D)
                        .wrapping_add(u as u64),
                )
            })
            .collect();
        let ports = match cfg.knowledge {
            Knowledge::Kt0 => Some(PortMap::new(n, cfg.seed)),
            Knowledge::Kt1 => None,
        };
        CliqueNet {
            cfg,
            word_bits,
            cost: Cost::default(),
            scopes: Vec::new(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            rngs,
            ports,
            tracer: Box::new(NullTracer),
            tracing: false,
            timing: false,
            fault: None,
            faulty: false,
            deferred: BTreeMap::new(),
            crashed_seen: vec![false; n],
            pool: (0..n).map(|_| Vec::new()).collect(),
            staged_pool: Vec::new(),
            links: LinkUse::new(n),
            batches: Vec::new(),
        }
    }

    /// Attaches a [`FaultInjector`]; subsequent rounds pass every staged
    /// message through it (after metering, before delivery) and consult
    /// its crash and bandwidth-squeeze hooks. Resets the crash bookkeeping
    /// so a fresh injector starts from an all-alive view.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.fault = Some(injector);
        self.faulty = true;
        self.crashed_seen = vec![false; self.cfg.n];
    }

    /// Detaches and returns the current injector, restoring fault-free
    /// execution. Already-deferred messages stay scheduled.
    pub fn take_fault_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.faulty = false;
        self.fault.take()
    }

    /// Whether `node` has fail-stop crashed in a round that has already
    /// executed. Drivers (`cc_runtime::Runtime::run`) treat crashed nodes
    /// as trivially done so protocols can still terminate.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed_seen.get(node).copied().unwrap_or(false)
    }

    /// Attaches a [`Tracer`] sink; subsequent rounds, scopes, sends, and
    /// fast-forwards emit structured [`Event`]s into it. The sink's
    /// `enabled()` / `wants_timing()` answers are cached here — the
    /// default [`NullTracer`] therefore costs one branch per site.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracing = tracer.enabled();
        self.timing = tracer.wants_timing();
        self.tracer = tracer;
    }

    /// Detaches and returns the current tracer (flushed), restoring the
    /// disabled default.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        let mut t = std::mem::replace(&mut self.tracer, Box::new(NullTracer));
        t.flush();
        self.tracing = false;
        self.timing = false;
        t
    }

    /// Clique size.
    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Accumulated cost so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Opens a named cost scope: costs accrued until the matching
    /// [`end_scope`](Self::end_scope) are attributed to it. Scopes nest.
    pub fn begin_scope(&mut self, name: impl Into<String>) {
        let name = name.into();
        if self.tracing {
            self.tracer.record(Event::ScopeEnter {
                name: name.clone(),
                round: self.cost.rounds,
            });
        }
        self.scopes.push((name, self.cost));
    }

    /// Closes the innermost cost scope and returns its delta (also
    /// emitted as the `ScopeExit` event, the one per-phase record).
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end_scope(&mut self) -> Cost {
        let (name, start) = self.scopes.pop().expect("no open scope");
        let delta = self.cost.since(&start);
        if self.tracing {
            self.tracer.record(Event::ScopeExit { name, delta });
        }
        delta
    }

    /// Per-node private randomness stream (deterministic per config seed).
    pub fn node_rng(&mut self, node: usize) -> &mut ChaCha8Rng {
        &mut self.rngs[node]
    }

    /// Hidden port map (present only under KT0).
    pub fn ports(&self) -> Option<&PortMap> {
        self.ports.as_ref()
    }

    /// Whether messages are in flight (sent last round, not yet
    /// delivered), including fault-deferred messages scheduled for
    /// later rounds.
    pub fn has_pending(&self) -> bool {
        self.inboxes.iter().any(|q| !q.is_empty()) || self.deferred.values().any(|q| !q.is_empty())
    }

    /// Number of messages in flight (including fault-deferred ones).
    pub fn pending_count(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum::<usize>()
            + self.deferred.values().map(Vec::len).sum::<usize>()
    }

    /// Advances the round counter by `rounds` without executing anything —
    /// legitimate only for provably silent stretches (used by the KT1
    /// time-encoding protocol of Section 4, whose round count is
    /// super-polynomial but whose silent rounds carry no information
    /// beyond the count itself).
    ///
    /// # Errors
    ///
    /// [`NetError::PendingMessages`] if messages are in flight.
    pub fn fast_forward(&mut self, rounds: u64) -> Result<(), NetError> {
        if self.has_pending() {
            return Err(NetError::PendingMessages {
                pending: self.pending_count(),
            });
        }
        if self.tracing {
            self.tracer.record(Event::FastForward {
                from_round: self.cost.rounds,
                rounds,
            });
        }
        self.cost.rounds += rounds;
        Ok(())
    }
}

/// What [`CliqueNet::step_staged`] tells its compute callback about the
/// round: everything a node needs to stage its sends away from the net.
#[derive(Clone, Copy, Debug)]
pub struct RoundPlan<'a> {
    /// Rounds completed before this one.
    pub round: u64,
    /// This round's effective send rules (round-stamped, squeeze applied).
    pub rules: SendRules,
    /// Fail-stopped nodes this round; empty without an injector.
    crashed: &'a [bool],
}

impl RoundPlan<'_> {
    /// Whether `node` is fail-stopped this round: its callback must not
    /// run and it stages nothing.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed.get(node).copied().unwrap_or(false)
    }
}

/// What a [`CliqueNet::step_staged`] compute callback hands back.
#[derive(Debug)]
pub struct StagedRound<M> {
    /// Each sender's staged `(dst, envelope)` pairs in send order (what
    /// [`Outbox::finish`] returns), indexed by node ID: all `n` senders,
    /// or with an `error` at least every sender below the offender.
    /// Crashed senders stage nothing.
    pub staged: Vec<Vec<(usize, Envelope<M>)>>,
    /// Wall-clock span of each compute worker, emitted as
    /// [`Event::WorkerSpan`]s when the tracer wants timing.
    pub spans: Vec<SpanTiming>,
    /// The lowest-ID node whose sends broke the model, with its first
    /// violation.
    pub error: Option<(usize, NetError)>,
}

/// A round between its prologue ([`CliqueNet::open_round`]) and its
/// epilogue ([`CliqueNet::close_round`]).
struct OpenRound<M> {
    round: u64,
    before: Cost,
    t0: Option<Instant>,
    rules: SendRules,
    /// Fail-stopped nodes this round (empty without an injector).
    crashed: Vec<bool>,
    /// This round's inboxes.
    delivered: Vec<Vec<Envelope<M>>>,
}

impl<M: Wire + Clone> CliqueNet<M> {
    /// Executes one synchronous round: delivers last round's messages and
    /// collects this round's sends.
    ///
    /// The closure is invoked once per node in ID order with the node's
    /// inbox (sorted by sender for determinism) and an [`Outbox`]. With a
    /// [`FaultInjector`] attached, crashed nodes are skipped (their inbox
    /// is discarded and their closure never runs) and every staged
    /// message passes through the injector after metering — see
    /// [`crate::fault`] for the exact ordering contract.
    ///
    /// # Errors
    ///
    /// Propagates the first send violation ([`NetError`]) of any node; the
    /// round is then aborted (counters keep the rounds/messages recorded up
    /// to the failure, which only matters for diagnostics).
    pub fn step<F>(&mut self, mut f: F) -> Result<(), NetError>
    where
        F: FnMut(usize, &[Envelope<M>], &mut Outbox<'_, M>),
    {
        let open = self.open_round()?;
        let round = open.round;
        let mut links = std::mem::replace(&mut self.links, LinkUse::new(0));
        let buf = std::mem::take(&mut self.staged_pool);
        // One outbox, ledger and staging buffer serve the whole round.
        let mut outbox = Outbox::assemble_in(0, open.rules, &mut links, buf);
        let mut fault_records: Vec<FaultRecord> = Vec::new();
        for (node, inbox) in open.delivered.iter().enumerate() {
            if self.faulty && open.crashed[node] {
                // Fail-stop: the node computes nothing and sends nothing;
                // messages addressed to it die in its discarded inbox.
                continue;
            }
            outbox.node = node;
            let t0 = if self.timing {
                Some(Instant::now())
            } else {
                None
            };
            f(node, inbox, &mut outbox);
            if let Some(t0) = t0 {
                self.tracer.record(Event::NodeCompute {
                    round,
                    node: node as u32,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
            if let Some(e) = outbox.error.take() {
                outbox.links.reset();
                self.links = links;
                self.recycle(open.delivered);
                return Err(e);
            }
            if outbox.staged.is_empty() {
                // A silent sender charged nothing and delivers nothing.
                continue;
            }
            self.deliver_sender(
                node,
                round,
                outbox.links,
                &mut outbox.staged,
                &mut fault_records,
            );
        }
        self.staged_pool = outbox.staged;
        self.links = links;
        self.close_round(open, &fault_records, &[]);
        Ok(())
    }

    /// Executes one synchronous round whose node callbacks run outside
    /// the net — the seam for drivers that compute a round's sends
    /// elsewhere (the `cc-runtime` parallel backend fans them out over
    /// worker threads).
    ///
    /// Everything but the callbacks is [`step`](Self::step)'s: the same
    /// round cap, prologue events, crash and squeeze decisions, and
    /// deferred-message merge. `compute` receives this round's inboxes
    /// and a [`RoundPlan`] and returns every sender's staged envelopes.
    /// The callbacks checked their sends against ledgers of their own, so
    /// the net charges its ledger from the staged sends, then meters,
    /// applies faults and delivers them in sender-ID order through the
    /// per-sender code `step` uses: the two are observationally
    /// identical.
    ///
    /// # Errors
    ///
    /// [`NetError::RoundCapExceeded`] from the watchdog, or the violation
    /// `compute` reports. Like `step`, an aborted round still meters and
    /// delivers every sender below the offender.
    pub fn step_staged<C>(&mut self, compute: C) -> Result<(), NetError>
    where
        C: FnOnce(&[Vec<Envelope<M>>], RoundPlan<'_>) -> StagedRound<M>,
    {
        let open = self.open_round()?;
        let plan = RoundPlan {
            round: open.round,
            rules: open.rules,
            crashed: &open.crashed,
        };
        let StagedRound {
            staged,
            spans,
            error,
        } = compute(&open.delivered, plan);
        let senders = error.as_ref().map_or(self.cfg.n, |&(node, _)| node);
        debug_assert!(staged.len() >= senders, "compute staged every sender");
        let mut fault_records: Vec<FaultRecord> = Vec::new();
        let mut links = std::mem::replace(&mut self.links, LinkUse::new(0));
        for (node, mut sent) in staged.into_iter().enumerate().take(senders) {
            debug_assert!(sent.is_empty() || !plan.is_crashed(node));
            for (dst, env) in &sent {
                links.charge(*dst, env.msg.words().max(1));
            }
            self.deliver_sender(node, open.round, &mut links, &mut sent, &mut fault_records);
        }
        self.links = links;
        if let Some((_, e)) = error {
            self.recycle(open.delivered);
            return Err(e);
        }
        self.close_round(open, &fault_records, &spans);
        Ok(())
    }

    /// The round prologue shared by [`step`](Self::step) and
    /// [`step_staged`](Self::step_staged): watchdog, `RoundStart`,
    /// squeeze and crash decisions (with their events), and this round's
    /// delivered inboxes with any due deferred messages merged in.
    fn open_round(&mut self) -> Result<OpenRound<M>, NetError> {
        if let Some(cap) = self.cfg.round_cap {
            if self.cost.rounds >= cap {
                return Err(NetError::RoundCapExceeded { cap });
            }
        }
        let n = self.cfg.n;
        let round = self.cost.rounds;
        let before = self.cost;
        // Whole-round wall clock: the gap between this and the per-node
        // compute spans is simulator overhead (routing, metering, fault
        // injection) — see `cc_trace::Event::RoundWall`.
        let t0 = if self.timing {
            Some(Instant::now())
        } else {
            None
        };
        if self.tracing {
            self.tracer.record(Event::RoundStart { round });
        }
        // Fault pre-pass: effective rules (squeeze), newly crashed nodes.
        let mut rules = SendRules::from_config(&self.cfg).for_round(round);
        let mut crashed: Vec<bool> = Vec::new();
        if self.faulty {
            let inj = self.fault.as_deref().expect("faulty implies injector");
            if let Some(cap) = inj.link_words(round) {
                if cap < self.cfg.link_words {
                    rules = rules.with_link_words_capped(cap);
                    if self.tracing {
                        self.tracer.record(Event::Fault {
                            round,
                            kind: FaultKind::Squeeze,
                            src: 0,
                            dst: 0,
                            index: 0,
                            info: rules.link_words(),
                        });
                    }
                }
            }
            crashed = (0..n).map(|v| inj.crashed(round, v)).collect();
            for (v, seen) in self.crashed_seen.iter_mut().enumerate() {
                if crashed[v] && !*seen {
                    *seen = true;
                    if self.tracing {
                        self.tracer.record(Event::NodeCrash {
                            round,
                            node: v as u32,
                        });
                    }
                }
            }
        }
        // Pooled delivery buffers: last round's inboxes become this
        // round's delivered set, and the buffers recycled (emptied,
        // capacity retained) at the end of the previous step become the
        // next inboxes — steady-state rounds allocate nothing here.
        std::mem::swap(&mut self.inboxes, &mut self.pool);
        let mut delivered = std::mem::take(&mut self.pool);
        // Fault-deferred messages due this round join the regular
        // deliveries; re-sorting keeps the per-sender inbox order stable.
        // Checked with or without an injector: messages deferred before
        // `take_fault_injector` stay scheduled.
        if let Some(late) = self.deferred.remove(&round) {
            for (dst, env) in late {
                delivered[dst].push(env);
            }
            for q in &mut delivered {
                q.sort_by_key(|e| e.src);
            }
        }
        // Per-link batches come from the ledger, so they are pre-fault:
        // the stream is a deterministic function of the sends alone, and
        // the send happened and was charged whatever a fault does to it
        // later.
        self.batches.clear();
        Ok(OpenRound {
            round,
            before,
            t0,
            rules,
            crashed,
            delivered,
        })
    }

    /// Meters one sender from its drained ledger (and, when tracing,
    /// appends its batch rows), passes its staged envelopes through the
    /// injector if one is attached, and delivers them, leaving `staged`
    /// empty. Senders must arrive in ascending ID order, which is what
    /// makes every inbox `(src, send-index)` sorted and the batch rows
    /// `(src, dst)` sorted by construction.
    ///
    /// The ledger already holds the sender's per-link totals, so the
    /// per-message work here is one push.
    #[inline]
    fn deliver_sender(
        &mut self,
        node: usize,
        round: u64,
        links: &mut LinkUse,
        staged: &mut Vec<(usize, Envelope<M>)>,
        fault_records: &mut Vec<FaultRecord>,
    ) {
        let (messages, words) = links.drain(node, self.tracing.then_some(&mut self.batches));
        if self.faulty {
            let inj = self.fault.as_deref().expect("faulty implies injector");
            let outcome = apply_faults(inj, round, std::mem::take(staged));
            for (dst, env) in outcome.deliver {
                self.inboxes[dst].push(env);
            }
            for (due, dst, env) in outcome.deferred {
                self.deferred.entry(due).or_default().push((dst, env));
            }
            fault_records.extend(outcome.records);
        } else {
            for (dst, env) in staged.drain(..) {
                self.inboxes[dst].push(env);
            }
        }
        self.cost.messages += messages;
        self.cost.words += words;
        self.cost.bits += words * self.word_bits;
    }

    /// Empties this round's delivered inboxes (capacity retained) into
    /// the pool that becomes the inboxes of the round after next. An
    /// aborted round recycles them too, so the net's buffers stay whole
    /// if the caller steps on after an error.
    fn recycle(&mut self, mut delivered: Vec<Vec<Envelope<M>>>) {
        for q in &mut delivered {
            q.clear();
        }
        self.pool = delivered;
    }

    /// The round epilogue: recycles the delivered buffers, counts the
    /// round, and emits its batches, faults, worker spans, wall time and
    /// `RoundEnd`.
    fn close_round(
        &mut self,
        open: OpenRound<M>,
        fault_records: &[FaultRecord],
        spans: &[SpanTiming],
    ) {
        let OpenRound {
            round,
            before,
            t0,
            delivered,
            ..
        } = open;
        self.recycle(delivered);
        self.cost.rounds += 1;
        if self.tracing {
            self.tracer.record_batches(round, &self.batches);
            for rec in fault_records {
                self.tracer.record(rec.to_event());
            }
            if self.timing {
                for span in spans {
                    self.tracer.record(Event::WorkerSpan {
                        round,
                        worker: span.worker,
                        node_lo: span.node_lo,
                        node_hi: span.node_hi,
                        nanos: span.nanos,
                    });
                }
            }
            if let Some(t0) = t0 {
                self.tracer.record(Event::RoundWall {
                    round,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
            let after = self.cost;
            self.tracer.record(Event::RoundEnd {
                round,
                messages: after.messages - before.messages,
                words: after.words - before.words,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> CliqueNet<u64> {
        CliqueNet::new(NetConfig::kt1(n).with_seed(1))
    }

    #[test]
    fn messages_arrive_next_round_sorted_by_sender() {
        let mut nt = net(4);
        nt.step(|node, _, out| {
            if node != 2 {
                out.send(2, 100 + node as u64).unwrap();
            }
        })
        .unwrap();
        let mut got = Vec::new();
        nt.step(|node, inbox, _| {
            if node == 2 {
                got = inbox.iter().map(|e| (e.src, e.msg)).collect();
            } else {
                assert!(inbox.is_empty());
            }
        })
        .unwrap();
        assert_eq!(got, vec![(0, 100), (1, 101), (3, 103)]);
    }

    #[test]
    fn counts_rounds_messages_words_bits() {
        let mut nt: CliqueNet<(u64, u64)> = CliqueNet::new(NetConfig::kt1(8).with_seed(0));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, (1, 2)).unwrap();
                out.send(2, (3, 4)).unwrap();
            }
        })
        .unwrap();
        let c = nt.cost();
        assert_eq!(c.rounds, 1);
        assert_eq!(c.messages, 2);
        assert_eq!(c.words, 4);
        assert_eq!(c.bits, 4 * 3, "word is ⌈log2 8⌉ = 3 bits");
    }

    #[test]
    fn budget_is_per_link_per_round() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(2));
        // Two words to the same destination: fine.
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 7).unwrap();
                out.send(1, 8).unwrap();
            }
        })
        .unwrap();
        // Three words to the same destination: LinkBusy.
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    let _ = out.send(1, 1);
                    let _ = out.send(1, 2);
                    let _ = out.send(1, 3);
                }
            })
            .unwrap_err();
        assert!(matches!(err, NetError::LinkBusy { src: 0, dst: 1, .. }));
    }

    #[test]
    fn budget_resets_between_nodes_and_rounds() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(1));
        // Both 0 and 1 send one word to 2 in the same round: distinct links.
        nt.step(|node, _, out| {
            if node != 2 {
                out.send(2, node as u64).unwrap();
            }
        })
        .unwrap();
        // Next round the budget is fresh.
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(2, 9).unwrap();
            }
        })
        .unwrap();
        assert_eq!(nt.cost().messages, 3);
    }

    #[test]
    fn oversized_message_rejected() {
        let mut nt: CliqueNet<Vec<u64>> = CliqueNet::new(NetConfig::kt1(4).with_link_words(4));
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    let _ = out.send(1, vec![0u64; 5]);
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::MessageTooLarge {
                words: 5,
                budget: 4,
                ..
            }
        ));
    }

    #[test]
    fn self_and_bad_destination_rejected() {
        let mut nt = net(4);
        let err = nt
            .step(|node, _, out| {
                if node == 1 {
                    let _ = out.send(1, 0);
                }
            })
            .unwrap_err();
        assert_eq!(err, NetError::SelfMessage { node: 1 });
        let mut nt = net(4);
        let err = nt
            .step(|node, _, out| {
                if node == 1 {
                    let _ = out.send(7, 0);
                }
            })
            .unwrap_err();
        assert!(matches!(err, NetError::BadDestination { dst: 7, .. }));
    }

    #[test]
    fn budget_left_reports() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(5));
        nt.step(|node, _, out| {
            if node == 0 {
                assert_eq!(out.budget_left(1), 5);
                out.send(1, 1).unwrap();
                assert_eq!(out.budget_left(1), 4);
                assert_eq!(out.budget_left(2), 5);
                assert_eq!(out.budget_left(3), 0, "no budget outside the clique");
            }
        })
        .unwrap();
    }

    #[test]
    fn all_to_all_in_one_round() {
        let n = 16;
        let mut nt = net(n);
        nt.step(|node, _, out| {
            for dst in 0..n {
                if dst != node {
                    out.send(dst, node as u64).unwrap();
                }
            }
        })
        .unwrap();
        let mut received = vec![0usize; n];
        nt.step(|node, inbox, _| {
            received[node] = inbox.len();
        })
        .unwrap();
        assert!(received.iter().all(|&r| r == n - 1));
        assert_eq!(nt.cost().messages, (n * (n - 1)) as u64);
    }

    #[test]
    fn fast_forward_requires_quiet_network() {
        let mut nt = net(3);
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 1).unwrap();
            }
        })
        .unwrap();
        let err = nt.fast_forward(10).unwrap_err();
        assert_eq!(err, NetError::PendingMessages { pending: 1 });
        // Drain, then fast-forward works.
        nt.step(|_, _, _| {}).unwrap();
        nt.fast_forward(1_000_000).unwrap();
        assert_eq!(nt.cost().rounds, 1_000_002);
    }

    #[test]
    fn node_rngs_are_deterministic_and_distinct() {
        use rand::Rng;
        let mut a = net(4);
        let mut b = net(4);
        let x: u64 = a.node_rng(2).gen();
        let y: u64 = b.node_rng(2).gen();
        assert_eq!(x, y, "same seed, same node → same stream");
        let z: u64 = a.node_rng(3).gen();
        assert_ne!(x, z, "different nodes get different streams");
    }

    #[test]
    fn kt0_has_ports_kt1_does_not() {
        let kt0: CliqueNet<u64> = CliqueNet::new(NetConfig::kt0(5));
        assert!(kt0.ports().is_some());
        let kt1: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(5));
        assert!(kt1.ports().is_none());
    }

    #[test]
    fn scopes_attribute_cost() {
        let mut nt = net(4);
        nt.begin_scope("warmup");
        nt.step(|_, _, _| {}).unwrap();
        let warmup = nt.end_scope();
        nt.begin_scope("work");
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 5).unwrap();
            }
        })
        .unwrap();
        let work = nt.end_scope();
        assert_eq!((warmup.rounds, warmup.messages), (1, 0));
        assert_eq!((work.rounds, work.messages), (1, 1));
    }

    #[test]
    fn nested_scopes_attribute_cost_to_inner_and_outer() {
        let mut nt = net(4);
        nt.begin_scope("outer");
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 1).unwrap(); // outer-only message
            }
        })
        .unwrap();
        nt.begin_scope("inner");
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 2).unwrap();
                out.send(2, 3).unwrap(); // two inner messages
            }
        })
        .unwrap();
        let inner = nt.end_scope();
        nt.step(|_, _, _| {}).unwrap(); // outer again, silent
        let outer = nt.end_scope();
        assert_eq!(inner.rounds, 1);
        assert_eq!(inner.messages, 2);
        // The outer scope contains the inner one: 3 rounds, all 3 messages.
        assert_eq!(outer.rounds, 3);
        assert_eq!(outer.messages, 3);
        assert_eq!(outer, nt.cost());
    }

    #[test]
    #[should_panic(expected = "no open scope")]
    fn unbalanced_end_scope_panics_on_the_net() {
        let mut nt = net(3);
        nt.begin_scope("only");
        nt.end_scope();
        nt.end_scope(); // one more than was opened
    }

    #[test]
    fn error_is_latched_even_if_result_ignored() {
        let mut nt = net(3);
        let err = nt.step(|node, _, out| {
            if node == 0 {
                let _ = out.send(0, 1); // ignored Result
            }
        });
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use cc_trace::{Event, RecordingTracer};

    fn traced_net(n: usize) -> (CliqueNet<u64>, RecordingTracer) {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(n).with_seed(3));
        let rec = RecordingTracer::new();
        nt.set_tracer(Box::new(rec.clone()));
        (nt, rec)
    }

    /// Drives a little workload: 2 rounds of traffic inside a scope, one
    /// silent round, and a fast-forward.
    fn drive(nt: &mut CliqueNet<u64>) {
        nt.begin_scope("work");
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 7).unwrap();
                out.send(1, 8).unwrap();
                out.send(2, 9).unwrap();
            }
        })
        .unwrap();
        nt.step(|node, _, out| {
            if node == 2 {
                out.send(0, 1).unwrap();
            }
        })
        .unwrap();
        nt.end_scope();
        nt.step(|_, _, _| {}).unwrap();
        nt.fast_forward(5).unwrap();
    }

    #[test]
    fn event_sums_reproduce_counter_totals() {
        let (mut nt, rec) = traced_net(4);
        drive(&mut nt);
        let cost = nt.cost();
        let events = rec.events();

        let mut rounds = 0u64;
        let mut ff_rounds = 0u64;
        let mut batch_msgs = 0u64;
        let mut batch_words = 0u64;
        let mut end_msgs = 0u64;
        for ev in &events {
            match ev {
                Event::RoundStart { .. } => rounds += 1,
                Event::FastForward { rounds: r, .. } => ff_rounds += *r,
                Event::MessageBatch { count, words, .. } => {
                    batch_msgs += *count as u64;
                    batch_words += *words;
                }
                Event::RoundEnd { messages, .. } => end_msgs += *messages,
                _ => {}
            }
        }
        assert_eq!(rounds + ff_rounds, cost.rounds, "round events == counter");
        assert_eq!(batch_msgs, cost.messages, "batch counts == counter");
        assert_eq!(batch_words, cost.words, "batch words == counter");
        assert_eq!(end_msgs, cost.messages, "round-end deltas == counter");
    }

    #[test]
    fn batches_aggregate_per_link_and_timing_is_emitted() {
        let (mut nt, rec) = traced_net(4);
        drive(&mut nt);
        let events = rec.events();
        // Round 0: node 0 sent two messages to 1 → one batch of count 2.
        let batch01 = events.iter().find_map(|e| match e {
            Event::MessageBatch {
                round: 0,
                src: 0,
                dst: 1,
                count,
                words,
            } => Some((*count, *words)),
            _ => None,
        });
        assert_eq!(batch01, Some((2, 2)));
        // Every (round, node) pair got a compute span: 4 nodes × 3 rounds.
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::NodeCompute { .. }))
            .count();
        assert_eq!(spans, 12);
        // Model events exclude the spans.
        assert!(rec.model_events().iter().all(Event::is_model));
    }

    #[test]
    fn batches_are_per_round_and_sorted_by_src_then_dst() {
        let (mut nt, rec) = traced_net(4);
        nt.step(|node, _, out| match node {
            // Two messages to 3 and one to 1, sent out of dst order.
            0 => {
                out.send(3, 1).unwrap();
                out.send(1, 2).unwrap();
                out.send(3, 3).unwrap();
            }
            2 => out.send(0, 4).unwrap(),
            _ => {}
        })
        .unwrap();
        nt.step(|node, _, out| {
            if node == 3 {
                out.send(1, 5).unwrap();
            }
        })
        .unwrap();
        nt.step(|_, _, _| {}).unwrap();
        let batches: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::MessageBatch {
                    round,
                    src,
                    dst,
                    count,
                    words,
                } => Some((round, src, dst, count, words)),
                _ => None,
            })
            .collect();
        assert_eq!(
            batches,
            [
                (0, 0, 1, 1, 1),
                (0, 0, 3, 2, 2),
                (0, 2, 0, 1, 1),
                (1, 3, 1, 1, 1)
            ],
            "silent senders and the silent round add no rows"
        );
    }

    #[test]
    fn detached_runs_stop_tracing() {
        let (mut nt, rec) = traced_net(3);
        nt.step(|_, _, _| {}).unwrap();
        let n_before = rec.len();
        let _ = nt.take_tracer();
        nt.step(|_, _, _| {}).unwrap();
        assert_eq!(rec.len(), n_before, "no events after detach");
        assert_eq!(nt.cost().rounds, 2, "counters keep running regardless");
    }

    #[test]
    fn identical_runs_emit_identical_model_events() {
        let run = || {
            let (mut nt, rec) = traced_net(5);
            drive(&mut nt);
            rec.model_events()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultDecision, FaultInjector};
    use cc_trace::RecordingTracer;

    /// Drops every message addressed to `dst_drop`.
    struct DropTo(usize);
    impl FaultInjector for DropTo {
        fn decision(&self, _r: u64, _s: usize, dst: usize, _i: u32) -> FaultDecision {
            if dst == self.0 {
                FaultDecision::Drop
            } else {
                FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn dropped_messages_are_metered_but_not_delivered() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4).with_seed(1));
        nt.set_fault_injector(Box::new(DropTo(2)));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 10).unwrap();
                out.send(2, 20).unwrap();
            }
        })
        .unwrap();
        assert_eq!(nt.cost().messages, 2, "the dropped send was still sent");
        let mut seen = Vec::new();
        nt.step(|node, inbox, _| {
            for e in inbox {
                seen.push((node, e.msg));
            }
        })
        .unwrap();
        assert_eq!(seen, vec![(1, 10)], "node 2's message was dropped");
    }

    #[test]
    fn duplicates_arrive_twice_and_corruption_flips_the_payload() {
        struct Script;
        impl FaultInjector for Script {
            fn decision(&self, _r: u64, _s: usize, dst: usize, _i: u32) -> FaultDecision {
                match dst {
                    1 => FaultDecision::Duplicate,
                    2 => FaultDecision::Corrupt { bit: 0 },
                    _ => FaultDecision::Deliver,
                }
            }
        }
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4).with_seed(1));
        nt.set_fault_injector(Box::new(Script));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 10).unwrap();
                out.send(2, 20).unwrap();
            }
        })
        .unwrap();
        let mut got = vec![Vec::new(); 4];
        nt.step(|node, inbox, _| {
            got[node] = inbox.iter().map(|e| e.msg).collect();
        })
        .unwrap();
        assert_eq!(got[1], vec![10, 10]);
        assert_eq!(got[2], vec![21], "bit 0 of 20 flipped");
    }

    /// Defers everything by 2 extra rounds.
    struct DeferAll;
    impl FaultInjector for DeferAll {
        fn decision(&self, _r: u64, _s: usize, _d: usize, _i: u32) -> FaultDecision {
            FaultDecision::Defer { rounds: 2 }
        }
    }

    #[test]
    fn deferred_messages_count_as_pending_and_arrive_late() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_seed(1));
        nt.set_fault_injector(Box::new(DeferAll));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 7).unwrap();
            }
        })
        .unwrap();
        assert!(nt.has_pending());
        assert_eq!(nt.pending_count(), 1);
        assert!(
            nt.fast_forward(5).is_err(),
            "deferred messages block fast-forward"
        );
        let mut arrivals = Vec::new();
        for round in 1..=3 {
            nt.step(|node, inbox, _| {
                if node == 1 && !inbox.is_empty() {
                    arrivals.push((round, inbox[0].msg));
                }
            })
            .unwrap();
        }
        assert_eq!(
            arrivals,
            vec![(3, 7)],
            "sent in round 0, deferred 2 → arrives in round 3"
        );
        assert!(!nt.has_pending());
    }

    #[test]
    fn deferred_messages_survive_detaching_the_injector() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_seed(1));
        nt.set_fault_injector(Box::new(DeferAll));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 7).unwrap();
            }
        })
        .unwrap();
        assert!(nt.take_fault_injector().is_some());
        let mut arrivals = Vec::new();
        for _ in 0..4 {
            let round = nt.cost().rounds;
            nt.step(|node, inbox, _| {
                if node == 1 {
                    arrivals.extend(inbox.iter().map(|e| (round, e.msg)));
                }
            })
            .unwrap();
        }
        assert_eq!(
            arrivals,
            vec![(3, 7)],
            "deferred before the detach, still delivered in round 3"
        );
        assert!(!nt.has_pending());
    }

    /// Node `0` crashes at round `at`.
    struct CrashAt(u64);
    impl FaultInjector for CrashAt {
        fn crashed(&self, round: u64, node: usize) -> bool {
            node == 0 && round >= self.0
        }
    }

    #[test]
    fn crashed_nodes_stop_computing_and_their_inbox_dies() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_seed(1));
        nt.set_fault_injector(Box::new(CrashAt(1)));
        let mut invocations = Vec::new();
        nt.step(|node, _, out| {
            invocations.push((0u64, node));
            if node == 1 {
                out.send(0, 9).unwrap(); // will be delivered into a dead inbox
            }
        })
        .unwrap();
        assert!(!nt.is_crashed(0), "crash round has not executed yet");
        nt.step(|node, inbox, _| {
            invocations.push((1, node));
            assert!(inbox.is_empty(), "node {node} got {inbox:?}");
        })
        .unwrap();
        assert!(nt.is_crashed(0));
        assert!(!nt.is_crashed(1));
        assert!(
            !invocations.contains(&(1, 0)),
            "crashed node's closure must not run"
        );
        assert!(!nt.has_pending(), "the dead inbox was discarded");
    }

    /// Squeezes the link budget to 1 word in round 0 only.
    struct SqueezeRound0;
    impl FaultInjector for SqueezeRound0 {
        fn link_words(&self, round: u64) -> Option<u64> {
            (round == 0).then_some(1)
        }
    }

    #[test]
    fn bandwidth_squeeze_tightens_the_budget_for_its_rounds_only() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(4));
        nt.set_fault_injector(Box::new(SqueezeRound0));
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    let _ = out.send(1, 1);
                    let _ = out.send(1, 2); // second word exceeds the squeezed budget
                }
            })
            .unwrap_err();
        assert!(matches!(err, NetError::LinkBusy { round: 0, .. }));
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(4));
        nt.set_fault_injector(Box::new(SqueezeRound0));
        nt.step(|_, _, _| {}).unwrap();
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 1).unwrap();
                out.send(1, 2).unwrap(); // full budget is back in round 1
            }
        })
        .unwrap();
    }

    #[test]
    fn fault_events_follow_batches_and_crashes_follow_round_start() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_seed(1));
        let rec = RecordingTracer::new();
        nt.set_tracer(Box::new(rec.clone()));
        struct Mixed;
        impl FaultInjector for Mixed {
            fn decision(&self, _r: u64, _s: usize, dst: usize, _i: u32) -> FaultDecision {
                if dst == 2 {
                    FaultDecision::Drop
                } else {
                    FaultDecision::Deliver
                }
            }
            fn crashed(&self, round: u64, node: usize) -> bool {
                node == 2 && round >= 1
            }
            fn link_words(&self, round: u64) -> Option<u64> {
                (round == 0).then_some(2)
            }
        }
        nt.set_fault_injector(Box::new(Mixed));
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 1).unwrap();
                out.send(2, 2).unwrap();
            }
        })
        .unwrap();
        nt.step(|_, _, _| {}).unwrap();
        let kinds: Vec<String> = rec
            .model_events()
            .iter()
            .map(|e| e.kind().to_string())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "round_start", // round 0
                "fault",       // squeeze
                "message_batch",
                "message_batch",
                "fault", // drop of 0→2
                "round_end",
                "round_start", // round 1
                "node_crash",  // node 2 crashes
                "round_end",
            ]
        );
    }

    #[test]
    fn detaching_the_injector_restores_clean_execution() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_seed(1));
        nt.set_fault_injector(Box::new(DropTo(1)));
        assert!(nt.take_fault_injector().is_some());
        nt.step(|node, _, out| {
            if node == 0 {
                out.send(1, 5).unwrap();
            }
        })
        .unwrap();
        let mut got = 0;
        nt.step(|node, inbox, _| {
            if node == 1 {
                got = inbox.len();
            }
        })
        .unwrap();
        assert_eq!(got, 1, "no injector, no drops");
    }
}

#[cfg(test)]
mod watchdog_tests {
    use super::*;

    #[test]
    fn round_cap_fires() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_round_cap(2));
        nt.step(|_, _, _| {}).unwrap();
        nt.step(|_, _, _| {}).unwrap();
        let err = nt.step(|_, _, _| {}).unwrap_err();
        assert_eq!(err, NetError::RoundCapExceeded { cap: 2 });
    }

    #[test]
    fn no_cap_by_default() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3));
        for _ in 0..100 {
            nt.step(|_, _, _| {}).unwrap();
        }
        assert_eq!(nt.cost().rounds, 100);
    }

    #[test]
    fn fast_forward_is_not_capped() {
        // The cap guards live computation; analytic jumps (time-encoding)
        // are exempt by design.
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_round_cap(5));
        nt.fast_forward(1_000_000).unwrap();
        assert_eq!(nt.cost().rounds, 1_000_000);
    }
}

#[cfg(test)]
mod broadcast_model_tests {
    use super::*;

    #[test]
    fn unicast_rejected_in_broadcast_model() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4).broadcast_only());
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    let _ = out.send(1, 7);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::UnicastInBroadcastModel {
                round: 0,
                src: 0,
                dst: 1
            }
        );
    }

    #[test]
    fn broadcast_allowed_and_counted() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(5).broadcast_only());
        nt.step(|node, _, out| {
            if node == 2 {
                out.broadcast(9).unwrap();
            }
        })
        .unwrap();
        let mut got = 0;
        nt.step(|_, inbox, _| {
            got += inbox.len();
        })
        .unwrap();
        assert_eq!(got, 4);
        assert_eq!(nt.cost().messages, 4);
    }

    #[test]
    fn broadcast_works_in_unicast_model_too() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3));
        nt.step(|node, _, out| {
            if node == 0 {
                out.broadcast(1).unwrap();
                out.send(1, 2).unwrap(); // mixing is fine in unicast mode
            }
        })
        .unwrap();
        assert_eq!(nt.cost().messages, 3);
    }

    /// First-error semantics: destinations are swept in ascending ID
    /// order, so the reported link is always the *lowest-ID* failing
    /// destination — even when a higher-ID link was exhausted first.
    #[test]
    fn broadcast_error_reports_lowest_failing_link() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(5).with_link_words(1));
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    // Exhaust links toward 3 first, then 1.
                    out.send(3, 7).unwrap();
                    out.send(1, 7).unwrap();
                    let _ = out.broadcast(9);
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, NetError::LinkBusy { src: 0, dst: 1, .. }),
            "lowest failing destination must be reported, got {err:?}"
        );
    }

    /// A failed broadcast aborts the round: the messages it staged toward
    /// earlier destinations are charged but never delivered, so there is
    /// no partial-broadcast ambiguity.
    #[test]
    fn failed_broadcast_is_never_partially_delivered() {
        let mut nt: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4).with_link_words(1));
        let err = nt.step(|node, _, out| {
            if node == 0 {
                out.send(2, 5).unwrap(); // exhausts 0→2
                let _ = out.broadcast(6); // stages to 1, fails at 2
            }
        });
        assert!(matches!(
            err,
            Err(NetError::LinkBusy { src: 0, dst: 2, .. })
        ));
    }

    /// The broadcast-only flag is restored even when the sweep aborts on
    /// an error, so later sends in the same round are still validated
    /// under the model's rules.
    #[test]
    fn broadcast_only_flag_survives_a_failed_broadcast() {
        let mut nt: CliqueNet<u64> =
            CliqueNet::new(NetConfig::kt1(4).broadcast_only().with_link_words(1));
        let err = nt
            .step(|node, _, out| {
                if node == 0 {
                    out.broadcast(1).unwrap();
                    let _ = out.broadcast(2); // budget gone: fails at dst 1
                    let _ = out.send(2, 3); // must still be model-checked
                }
            })
            .unwrap_err();
        // The *first* latched error wins (the LinkBusy), but the unicast
        // attempt must have been rejected, not silently staged.
        assert!(matches!(err, NetError::LinkBusy { src: 0, dst: 1, .. }));
    }

    /// Broadcast moves the payload onto the final link: exactly `n − 2`
    /// clones for `n − 1` destinations.
    #[test]
    fn broadcast_clones_all_but_the_last_link() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Counting(Arc<AtomicUsize>);
        impl Clone for Counting {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::SeqCst);
                Counting(Arc::clone(&self.0))
            }
        }
        impl Wire for Counting {
            fn words(&self) -> u64 {
                1
            }
        }

        let clones = Arc::new(AtomicUsize::new(0));
        let n = 6;
        let mut nt: CliqueNet<Counting> = CliqueNet::new(NetConfig::kt1(n));
        let payload = Counting(Arc::clone(&clones));
        let mut sent = Some(payload);
        nt.step(|node, _, out| {
            if node == 2 {
                out.broadcast(sent.take().expect("one sender")).unwrap();
            }
        })
        .unwrap();
        assert_eq!(
            clones.load(Ordering::SeqCst),
            n - 2,
            "n − 1 destinations, last one takes the payload by move"
        );
    }

    /// `Arc` payloads make broadcast allocation-free: every recipient's
    /// envelope shares the sender's single allocation.
    #[test]
    fn broadcast_arc_payload_shares_one_allocation() {
        use std::sync::Arc;
        let n = 5;
        let mut nt: CliqueNet<Arc<Vec<u64>>> = CliqueNet::new(NetConfig::kt1(n));
        let payload = Arc::new(vec![1u64, 2, 3]);
        let origin = Arc::clone(&payload);
        let mut sent = Some(payload);
        nt.step(|node, _, out| {
            if node == 0 {
                out.broadcast(sent.take().expect("one sender")).unwrap();
            }
        })
        .unwrap();
        let mut seen = 0;
        nt.step(|node, inbox, _| {
            if node != 0 {
                assert_eq!(inbox.len(), 1);
                assert!(
                    Arc::ptr_eq(&inbox[0].msg, &origin),
                    "recipient {node} must share the broadcast allocation"
                );
                seen += 1;
            }
        })
        .unwrap();
        assert_eq!(seen, n - 1);
        // Words are charged per copy regardless of sharing.
        assert_eq!(nt.cost().words, 3 * (n as u64 - 1));
    }
}
