//! The parallel backend: a round's node callbacks fan out across a
//! thread pool; the round itself stays the net's.
//!
//! Each round is one [`CliqueNet::step_staged`] call with one thread
//! scope inside it. Nodes are split into contiguous ID chunks, one per
//! worker; each worker runs its nodes' callbacks with a *private*
//! [`LinkUse`] ledger (budgets are per-sender, so no sharing is needed)
//! and stages every node's sends. No lock is taken anywhere. The net
//! then meters, applies faults, and delivers the staged sends in
//! sender-ID order — the same per-sender code [`CliqueNet::step`] runs —
//! so every inbox, cost, and event is the serial backend's by
//! construction, whatever the thread count or scheduling.
//!
//! A violation stops a worker's chunk at the offending node, and only
//! the lowest-ID offender is reported — the error the serial backend
//! would return, because a node's behavior in a round cannot depend on
//! higher-ID nodes' sends of the *same* round.

use crate::backend::{run_node, Backend, Ctx, Phase, Program};
use crate::serial::SerialBackend;
use cc_net::budget::LinkUse;
use cc_net::{CliqueNet, Envelope, NetError, Outbox, StagedRound};
use cc_trace::SpanTiming;
use std::time::Instant;

/// Multi-threaded engine; observationally identical to [`SerialBackend`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelBackend {
    threads: usize,
}

impl Default for ParallelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelBackend {
    /// An engine using all available hardware parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_threads(threads)
    }

    /// An engine with an explicit worker count (`threads ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "a backend needs at least one worker");
        ParallelBackend { threads }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// What one worker hands back at the barrier.
struct Shard<M> {
    /// Staged sends per node of the chunk, in node order, up to (not
    /// including) the first offender.
    staged: Vec<Vec<Envelope<M>>>,
    /// The chunk's first violation, with the offending node's ID.
    error: Option<(usize, NetError)>,
    span: SpanTiming,
}

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn step<P: Program>(
        &mut self,
        net: &mut CliqueNet<P::Msg>,
        phase: Phase,
        programs: &mut [P],
        done: &mut [bool],
    ) -> Result<(), NetError> {
        let n = net.n();
        let workers = self.threads.min(n);
        if workers <= 1 {
            // One worker is the serial engine; skip the fan-out cost.
            return SerialBackend.step(net, phase, programs, done);
        }
        let chunk = n.div_ceil(workers);
        let seed = net.config().seed;
        net.step_staged(|delivered, plan| {
            let shards: Vec<Shard<P::Msg>> = std::thread::scope(|s| {
                let handles: Vec<_> = programs
                    .chunks_mut(chunk)
                    .zip(done.chunks_mut(chunk))
                    .zip(delivered.chunks(chunk))
                    .enumerate()
                    .map(|(w, ((progs, done), inboxes))| {
                        let base = w * chunk;
                        s.spawn(move || {
                            let t0 = Instant::now();
                            let mut links = LinkUse::new(n);
                            let mut staged = Vec::with_capacity(progs.len());
                            let mut error = None;
                            for (i, program) in progs.iter_mut().enumerate() {
                                let node = base + i;
                                if plan.is_crashed(node) {
                                    staged.push(Vec::new());
                                    continue;
                                }
                                let mut outbox =
                                    Outbox::assemble_in(node, plan.rules, &mut links, Vec::new());
                                let mut ctx = Ctx::new(node, n, plan.round, seed, &mut outbox);
                                run_node(program, phase, &mut ctx, &inboxes[i], &mut done[i]);
                                let (sent, err) = outbox.finish();
                                links.reset();
                                if let Some(e) = err {
                                    error = Some((node, e));
                                    break;
                                }
                                staged.push(sent);
                            }
                            Shard {
                                staged,
                                error,
                                span: SpanTiming {
                                    worker: w as u32,
                                    node_lo: base as u32,
                                    node_hi: (base + progs.len()) as u32,
                                    nanos: t0.elapsed().as_nanos() as u64,
                                },
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });
            // Chunks are contiguous and in ID order, so concatenating
            // them up to the first offending chunk lines `staged` up with
            // node IDs, and that chunk's offender is the lowest one.
            let mut round = StagedRound {
                staged: Vec::with_capacity(n),
                spans: Vec::with_capacity(shards.len()),
                error: None,
            };
            for shard in shards {
                round.spans.push(shard.span);
                if round.error.is_none() {
                    round.staged.extend(shard.staged);
                    round.error = shard.error;
                }
            }
            round
        })
    }
}
