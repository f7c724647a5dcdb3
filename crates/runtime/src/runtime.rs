//! The [`Runtime`] facade: the cross-round driver loop over any backend.
//!
//! Each [`Runtime::run`] builds a fresh [`CliqueNet`] for the program's
//! message type and drives it to termination; the backend only decides
//! how each round's node callbacks run. Rounds, budgets, metering, faults
//! and events are all the net's, so a protocol's observable behavior is a
//! function of the protocol alone, never of the engine under it.

use crate::backend::{Backend, Phase, Program};
use crate::parallel::ParallelBackend;
use crate::serial::SerialBackend;
use cc_net::fault::FaultInjector;
use cc_net::{CliqueNet, Cost, NetConfig, NetError};
use cc_trace::{NullTracer, Tracer};
use std::fmt;

/// Executes node programs round-by-round on a pluggable [`Backend`].
pub struct Runtime<B: Backend> {
    cfg: NetConfig,
    backend: B,
    /// Lent to each run's net and taken back afterwards.
    tracer: Box<dyn Tracer>,
    /// Lent to each run's net and taken back afterwards.
    fault: Option<Box<dyn FaultInjector>>,
    /// Accumulated over every `run`.
    cost: Cost,
}

impl<B: Backend + fmt::Debug> fmt::Debug for Runtime<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("cfg", &self.cfg)
            .field("backend", &self.backend)
            .field("cost", &self.cost)
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
        Runtime {
            cfg,
            backend,
            tracer: Box::new(NullTracer),
            fault: None,
            cost: Cost::default(),
        }
    }

    /// Attaches a [`FaultInjector`]; every later run's net interposes it
    /// on message delivery, crashes, and bandwidth (see
    /// [`CliqueNet::set_fault_injector`]), so the same plan replays
    /// byte-identically on either backend.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.fault = Some(injector);
    }

    /// Attaches a [`Tracer`] sink; every later run's net emits its
    /// structured events into it (see [`CliqueNet::set_tracer`]).
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
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

    /// Accumulated cost so far (across all `run` calls, failed ones
    /// included).
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Runs one program instance per node on a fresh network until every
    /// node reports done (or has crashed) and no message is in flight,
    /// or `max_rounds` elapses.
    ///
    /// Returns the final program states (so callers can extract outputs).
    /// The run's cost is added to the runtime's whether it succeeds or
    /// not.
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
        let mut net = CliqueNet::<P::Msg>::new(self.cfg.clone());
        net.set_tracer(std::mem::replace(&mut self.tracer, Box::new(NullTracer)));
        if let Some(injector) = self.fault.take() {
            net.set_fault_injector(injector);
        }
        let outcome = drive(&mut self.backend, &mut net, &mut programs, max_rounds);
        self.tracer = net.take_tracer();
        self.fault = net.take_fault_injector();
        self.cost += net.cost();
        outcome.map(|()| programs)
    }
}

/// The one driver loop: a start round, then rounds until every node is
/// done or crashed and the network is quiet.
fn drive<B: Backend, P: Program>(
    backend: &mut B,
    net: &mut CliqueNet<P::Msg>,
    programs: &mut [P],
    max_rounds: u64,
) -> Result<(), NetError> {
    let mut done = vec![false; programs.len()];
    backend.step(net, Phase::Start, programs, &mut done)?;
    let mut rounds = 1u64;
    loop {
        // A fail-stop-crashed node can never report done; counting it as
        // done keeps fault-injected protocols terminating.
        let all_done = done
            .iter()
            .enumerate()
            .all(|(v, &d)| d || net.is_crashed(v));
        if all_done && !net.has_pending() {
            return Ok(());
        }
        if rounds >= max_rounds {
            return Err(NetError::RoundCapExceeded { cap: max_rounds });
        }
        backend.step(net, Phase::Round, programs, &mut done)?;
        rounds += 1;
    }
}
