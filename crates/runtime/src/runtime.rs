//! The [`Runtime`] facade: one cross-round driver loop over any backend.
//!
//! Mirrors [`crate::run_program`] exactly — same start round,
//! same termination condition (every node done *and* no messages in
//! flight), same round-cap errors — so a protocol's observable behavior
//! is a function of the protocol alone, never of the engine under it.

use crate::backend::{Backend, Phase, Program, RoundOutput};
use crate::parallel::ParallelBackend;
use crate::serial::SerialBackend;
use cc_net::fault::FaultInjector;
use cc_net::{Cost, Counters, Envelope, NetConfig, NetError, Wire};
use cc_trace::{Event, FaultKind, NullTracer, Tracer};
use std::collections::BTreeMap;
use std::fmt;

/// Executes node programs round-by-round on a pluggable [`Backend`].
pub struct Runtime<B: Backend> {
    cfg: NetConfig,
    backend: B,
    counters: Counters,
    transcript: Vec<(u64, u32, u32)>,
    tracer: Box<dyn Tracer>,
    /// `tracer.enabled()` cached at attach time (see
    /// [`cc_net::CliqueNet::set_tracer`] for the rationale).
    tracing: bool,
    /// `tracer.wants_timing()`, cached likewise; gates [`Event::WorkerSpan`]
    /// forwarding (backends measure spans unconditionally — one clock read
    /// per worker per round, not per node).
    timing: bool,
    /// Attached fault injector, if any (see `set_fault_injector`).
    fault: Option<Box<dyn FaultInjector>>,
    /// `fault.is_some()`, cached (the zero-overhead contract, as in
    /// [`cc_net::CliqueNet`]).
    faulty: bool,
    /// Which nodes have been observed crashed (gates the one-time
    /// [`Event::NodeCrash`] emission and `is_crashed`).
    crashed_seen: Vec<bool>,
}

impl<B: Backend + fmt::Debug> fmt::Debug for Runtime<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("cfg", &self.cfg)
            .field("backend", &self.backend)
            .field("cost", &self.counters.total())
            .field("tracing", &self.tracing)
            .finish_non_exhaustive()
    }
}

impl Runtime<SerialBackend> {
    /// A single-threaded runtime (the reference engine).
    pub fn serial(cfg: NetConfig) -> Self {
        Runtime::new(cfg, SerialBackend)
    }
}

impl Runtime<ParallelBackend> {
    /// A runtime using all available hardware parallelism.
    pub fn parallel(cfg: NetConfig) -> Self {
        Runtime::new(cfg, ParallelBackend::new())
    }

    /// A runtime with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn parallel_with_threads(cfg: NetConfig, threads: usize) -> Self {
        Runtime::new(cfg, ParallelBackend::with_threads(threads))
    }
}

impl<B: Backend> Runtime<B> {
    /// A runtime over an arbitrary backend.
    pub fn new(cfg: NetConfig, backend: B) -> Self {
        let n = cfg.n;
        Runtime {
            cfg,
            backend,
            counters: Counters::new(),
            transcript: Vec::new(),
            tracer: Box::new(NullTracer),
            tracing: false,
            timing: false,
            fault: None,
            faulty: false,
            crashed_seen: vec![false; n],
        }
    }

    /// Attaches a [`FaultInjector`]; subsequent rounds interpose on
    /// message delivery, crashes, and bandwidth exactly like
    /// [`cc_net::CliqueNet::set_fault_injector`] — the same plan replays
    /// byte-identically on either engine.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.fault = Some(injector);
        self.faulty = true;
        self.crashed_seen = vec![false; self.cfg.n];
    }

    /// Detaches and returns the current injector, restoring fault-free
    /// execution.
    pub fn take_fault_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.faulty = false;
        self.fault.take()
    }

    /// Whether `node` has fail-stop crashed in a round that has already
    /// executed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed_seen.get(node).copied().unwrap_or(false)
    }

    /// Attaches a [`Tracer`] sink; subsequent rounds and scopes emit
    /// structured [`Event`]s into it.
    ///
    /// The *model* events (everything but [`Event::WorkerSpan`]) are
    /// emitted by this driver from the backend's [`RoundOutput`], never by
    /// worker threads — so serial and parallel backends produce identical
    /// model-event streams for the same protocol and seed, and the
    /// lock-free exchange stays lock-free.
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

    /// The backend's human-readable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The backend itself (e.g. to query a worker count).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Accumulated cost so far (across all `run` calls).
    pub fn cost(&self) -> Cost {
        self.counters.total()
    }

    /// The cost counters (for scope queries).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Opens a named cost scope (see [`Counters::begin_scope`]).
    pub fn begin_scope(&mut self, name: impl Into<String>) {
        let name = name.into();
        if self.tracing {
            self.tracer.record(Event::ScopeEnter {
                name: name.clone(),
                round: self.counters.total().rounds,
            });
        }
        self.counters.begin_scope(name);
    }

    /// Closes the innermost cost scope and returns its delta.
    pub fn end_scope(&mut self) -> Cost {
        let delta = self.counters.end_scope();
        if self.tracing {
            let name = self
                .counters
                .scopes()
                .last()
                .map(|(n, _)| n.clone())
                .unwrap_or_default();
            self.tracer.record(Event::ScopeExit {
                name,
                delta: delta.snapshot(),
            });
        }
        delta
    }

    /// The recorded `(round, src, dst)` transcript (empty unless
    /// [`NetConfig::record_transcript`] is set).
    pub fn transcript(&self) -> &[(u64, u32, u32)] {
        &self.transcript
    }

    /// Runs one program instance per node until every node reports done
    /// and the network is quiet, or `max_rounds` elapses.
    ///
    /// Returns the final program states (so callers can extract outputs).
    ///
    /// # Errors
    ///
    /// Propagates send violations; returns [`NetError::RoundCapExceeded`]
    /// if the protocol does not terminate within `max_rounds` (or the
    /// config's `round_cap` watchdog fires first).
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len() == self.n()`.
    pub fn run<P: Program>(
        &mut self,
        mut programs: Vec<P>,
        max_rounds: u64,
    ) -> Result<Vec<P>, NetError> {
        let n = self.cfg.n;
        assert_eq!(programs.len(), n, "one program per node");
        let mut done = vec![false; n];
        // Two pooled inbox buffers, swapped each round: `cur` is this
        // round's deliveries, `next` is the (drained) buffer the backend
        // fills. After the first few rounds every queue has warmed up to
        // the protocol's working set and rounds stop allocating.
        let mut cur: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let mut next: Vec<Vec<Envelope<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        // Fault-deferred messages: delivery round → envelopes. Owned here
        // (not on `self`) because the message type is per-run.
        let mut deferred: BTreeMap<u64, Vec<Envelope<P::Msg>>> = BTreeMap::new();
        let late = self.execute(Phase::Start, &mut programs, &cur, &mut next, &mut done)?;
        for (due, env) in late {
            deferred.entry(due).or_default().push(env);
        }
        std::mem::swap(&mut cur, &mut next);
        let mut rounds = 1u64;
        loop {
            let all_done = done.iter().all(|&d| d);
            if all_done && cur.iter().all(Vec::is_empty) && deferred.is_empty() {
                return Ok(programs);
            }
            if rounds >= max_rounds {
                return Err(NetError::RoundCapExceeded { cap: max_rounds });
            }
            // Deferred messages due this round join the regular
            // deliveries; re-sorting keeps the per-sender inbox order
            // stable (same normalization as CliqueNet::step).
            if let Some(late) = deferred.remove(&self.counters.total().rounds) {
                for env in late {
                    cur[env.dst].push(env);
                }
                for q in &mut cur {
                    q.sort_by_key(|e| e.src);
                }
            }
            let late = self.execute(Phase::Round, &mut programs, &cur, &mut next, &mut done)?;
            for (due, env) in late {
                deferred.entry(due).or_default().push(env);
            }
            // Recycle the consumed buffer (clear keeps capacity) and swap
            // it in as the next round's fill target.
            for q in &mut cur {
                q.clear();
            }
            std::mem::swap(&mut cur, &mut next);
            rounds += 1;
        }
    }

    /// Executes one round and folds its cost/transcript into the runtime.
    /// The backend writes the next round's inboxes into `inboxes` (the
    /// caller's pooled buffer); the return value is any newly
    /// fault-deferred envelopes (the caller owns the cross-round defer
    /// schedule).
    #[allow(clippy::type_complexity)]
    fn execute<P: Program>(
        &mut self,
        phase: Phase,
        programs: &mut [P],
        delivered: &[Vec<Envelope<P::Msg>>],
        inboxes: &mut [Vec<Envelope<P::Msg>>],
        done: &mut [bool],
    ) -> Result<Vec<(u64, Envelope<P::Msg>)>, NetError> {
        if let Some(cap) = self.cfg.round_cap {
            if self.counters.total().rounds >= cap {
                return Err(NetError::RoundCapExceeded { cap });
            }
        }
        let round = self.counters.total().rounds;
        // Whole-round wall clock (fault pre-pass + backend execution +
        // event emission), mirroring `CliqueNet::step` — the gap between
        // this and the worker spans is engine overhead.
        let round_t0 = if self.timing {
            Some(std::time::Instant::now())
        } else {
            None
        };
        if self.tracing {
            self.tracer.record(Event::RoundStart { round });
        }
        // Fault pre-pass, mirroring CliqueNet::step's event order exactly:
        // RoundStart → squeeze fault → newly crashed nodes in ID order.
        if self.faulty {
            let inj = self.fault.as_deref().expect("faulty implies injector");
            if let Some(cap) = inj.link_words(round) {
                if cap < self.cfg.link_words && self.tracing {
                    self.tracer.record(Event::Fault {
                        round,
                        kind: FaultKind::Squeeze,
                        src: 0,
                        dst: 0,
                        index: 0,
                        info: self.cfg.link_words.min(cap.max(1)),
                    });
                }
            }
            for (v, seen) in self.crashed_seen.iter_mut().enumerate() {
                if !*seen && inj.crashed(round, v) {
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
        let RoundOutput {
            cost,
            transcript,
            worker_spans,
            faults,
            deferred,
            batches,
        } = self.backend.execute(
            &self.cfg,
            round,
            phase,
            programs,
            delivered,
            inboxes,
            done,
            self.fault.as_deref(),
        )?;
        self.counters.merge(cost);
        self.counters.add_round();
        self.transcript.extend(transcript);
        if self.tracing {
            // (src, dst) → (count, words), aggregated over the round and
            // emitted in sorted order: a deterministic function of the
            // *sends* alone, so every backend produces the same batch
            // stream (the same normalization CliqueNet::step applies).
            // Under faults the backend reports the pre-fault aggregation
            // (inboxes are post-fault); without faults the inboxes are
            // exactly the sends and we aggregate them here.
            let batches: Vec<((u32, u32), (u32, u64))> = match batches {
                Some(b) => b,
                None => {
                    // Without faults the filled inboxes are exactly the
                    // sends. Each inbox holds one destination in src-sorted
                    // order, so same-src envelopes form contiguous runs —
                    // fold each run to one entry, then one global sort
                    // (replacing a per-message BTreeMap insert).
                    let mut agg: Vec<((u32, u32), (u32, u64))> = Vec::new();
                    for inbox in inboxes.iter() {
                        let mut run: Option<((u32, u32), (u32, u64))> = None;
                        for env in inbox {
                            let key = (env.src as u32, env.dst as u32);
                            let words = env.msg.words().max(1);
                            match run.as_mut() {
                                Some((k, slot)) if *k == key => {
                                    slot.0 += 1;
                                    slot.1 += words;
                                }
                                _ => {
                                    if let Some(done_run) = run.take() {
                                        agg.push(done_run);
                                    }
                                    run = Some((key, (1, words)));
                                }
                            }
                        }
                        if let Some(done_run) = run {
                            agg.push(done_run);
                        }
                    }
                    agg.sort_unstable_by_key(|&(k, _)| k);
                    agg
                }
            };
            for ((src, dst), (count, words)) in batches {
                self.tracer.record(Event::MessageBatch {
                    round,
                    src,
                    dst,
                    count,
                    words,
                });
            }
            for rec in &faults {
                self.tracer.record(rec.to_event());
            }
            if self.timing {
                for span in worker_spans {
                    self.tracer.record(Event::WorkerSpan {
                        round,
                        worker: span.worker,
                        node_lo: span.node_lo,
                        node_hi: span.node_hi,
                        nanos: span.nanos,
                    });
                }
            }
            if let Some(t0) = round_t0 {
                self.tracer.record(Event::RoundWall {
                    round,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
            self.tracer.record(Event::RoundEnd {
                round,
                messages: cost.messages,
                words: cost.words,
            });
        }
        Ok(deferred)
    }
}
