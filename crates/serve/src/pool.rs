//! The bounded job queue, worker pool, and response streaming.
//!
//! A [`Server`] owns `workers` OS threads executing jobs popped from a
//! bounded FIFO. Admission control happens in [`Server::submit`], under
//! one lock, in strict order:
//!
//! 1. **cache** — a finished identical job answers immediately from the
//!    LRU, byte-identical to the cold run;
//! 2. **coalesce** — an identical job already queued or running adopts
//!    the caller as a waiter: one execution, many answers, no queue slot;
//! 3. **backpressure** — a full queue (or a closing server) rejects the
//!    job with a `rejected` response rather than growing without bound;
//! 4. **enqueue** — otherwise the job enters the queue and its lifecycle
//!    streams back: `queued` → `running` → `progress`… → `result`.
//!
//! Because cache lookup, pending lookup, and enqueue are atomic (and a
//! finishing worker inserts into the cache and retires its pending entry
//! under the same lock), a duplicate of any submitted job *never*
//! recomputes: the number of cold executions equals the number of
//! distinct cache keys, deterministically — the property the load bench
//! gates as the duplicate hit rate.
//!
//! Shutdown ([`Server::close`]) stops admissions but drains the queue:
//! every accepted job still runs to completion and delivers exactly one
//! terminal response to its submitter and every coalesced waiter
//! (stress-tested in `tests/serve.rs`).

use crate::cache::{CacheStats, ResultCache};
use crate::hash::Digest;
use crate::job::{execute, JobSpec};
use cc_lens::{comm_metrics, CommAggregate, LedgerTracer};
use cc_model::ModelSpec;
use cc_obs::{
    render_prometheus, AlertEngine, AlertEvent, HealthReport, SharedClock, SloKind, SloRule,
    SpanBook, SpanOutcome, WallClock, WindowSpec, WindowedRegistry, WindowedSnapshot,
};
use cc_trace::{Event, ExperimentRecord, Json, RunArtifact, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Pool sizing knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue slots; submissions beyond this are rejected (backpressure).
    pub queue_capacity: usize,
    /// Result-cache entries.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    /// 2 workers, 128 queue slots (double the 64 concurrent in-flight
    /// jobs the serving layer is specified for), 256 cached results.
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            cache_capacity: 256,
        }
    }
}

/// One streamed server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted to the queue (or adopted by an identical
    /// in-flight job when `coalesced`).
    Queued {
        /// Client-chosen job id.
        id: String,
        /// Queue depth right after admission.
        queue_depth: u64,
        /// Whether the job rides an identical in-flight execution.
        coalesced: bool,
    },
    /// The job was not admitted; no further responses will follow.
    Rejected {
        /// Client-chosen job id.
        id: String,
        /// Why (queue full, closing, or an invalid spec).
        reason: String,
    },
    /// A worker started executing the job.
    Running {
        /// Client-chosen job id.
        id: String,
        /// Nanoseconds the job waited in the queue.
        queue_nanos: u64,
    },
    /// The run entered a named algorithm phase (from cc-trace scope
    /// events) or crossed a round milestone.
    Progress {
        /// Client-chosen job id.
        id: String,
        /// Phase name (`phase1`, `exact-mst:lotker`, `round`, …).
        phase: String,
        /// Rounds completed when the phase opened.
        round: u64,
    },
    /// Terminal: the sealed v4 [`RunArtifact`] document (compact JSON).
    Result {
        /// Client-chosen job id.
        id: String,
        /// Whether the document came from the cache (or a coalesced
        /// execution) rather than a cold run owned by this submission.
        cached: bool,
        /// The artifact text — byte-identical across cache hits.
        artifact: Arc<str>,
    },
    /// Terminal: the job failed (validation passed but execution did
    /// not — simulator violation, round cap, sketch exhaustion).
    Error {
        /// Client-chosen job id.
        id: String,
        /// One-line description.
        error: String,
    },
    /// Snapshot answer to a `stats` request.
    Stats(Box<ServeStats>),
    /// Answer to a `metrics` request: the Prometheus-style exposition of
    /// the cumulative registry plus the windowed snapshot as JSON.
    Metrics {
        /// The exposition text (multi-line; JSON-escaped on the wire).
        exposition: String,
        /// [`WindowedSnapshot`] object form.
        windows: Json,
    },
    /// Answer to a `health` request.
    Health(Box<HealthReport>),
    /// Answer to a `spans` request: `{"live": [...], "recent": [...]}`.
    Spans(Json),
    /// Answer to a `links` request: the live [`cc_lens::CommAggregate`]
    /// over every cold job this server executed (utilization peak and
    /// quantiles, headroom, broadcast/unicast mix).
    Links(Json),
    /// Acknowledgement of a `shutdown` request.
    Closing,
}

impl Response {
    /// The job id this response belongs to (empty for server-level
    /// responses).
    pub fn id(&self) -> &str {
        match self {
            Response::Queued { id, .. }
            | Response::Rejected { id, .. }
            | Response::Running { id, .. }
            | Response::Progress { id, .. }
            | Response::Result { id, .. }
            | Response::Error { id, .. } => id,
            Response::Stats(_)
            | Response::Metrics { .. }
            | Response::Health(_)
            | Response::Spans(_)
            | Response::Links(_)
            | Response::Closing => "",
        }
    }

    /// Whether this is the last response a submission will see.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            Response::Rejected { .. } | Response::Result { .. } | Response::Error { .. }
        )
    }

    /// One line of the wire protocol (no trailing newline).
    ///
    /// The artifact inside a `result` is spliced in verbatim, so the
    /// bytes a client receives for a cache hit are exactly the bytes of
    /// the cold run's document.
    pub fn to_line(&self) -> String {
        let s = |text: &str| Json::Str(text.to_string()).emit();
        match self {
            Response::Queued {
                id,
                queue_depth,
                coalesced,
            } => format!(
                "{{\"kind\":\"queued\",\"id\":{},\"queue_depth\":{queue_depth},\"coalesced\":{coalesced}}}",
                s(id)
            ),
            Response::Rejected { id, reason } => format!(
                "{{\"kind\":\"rejected\",\"id\":{},\"reason\":{}}}",
                s(id),
                s(reason)
            ),
            Response::Running { id, queue_nanos } => format!(
                "{{\"kind\":\"running\",\"id\":{},\"queue_nanos\":{queue_nanos}}}",
                s(id)
            ),
            Response::Progress { id, phase, round } => format!(
                "{{\"kind\":\"progress\",\"id\":{},\"phase\":{},\"round\":{round}}}",
                s(id),
                s(phase)
            ),
            Response::Result {
                id,
                cached,
                artifact,
            } => format!(
                "{{\"kind\":\"result\",\"id\":{},\"cached\":{cached},\"artifact\":{artifact}}}",
                s(id)
            ),
            Response::Error { id, error } => format!(
                "{{\"kind\":\"error\",\"id\":{},\"error\":{}}}",
                s(id),
                s(error)
            ),
            Response::Stats(stats) => {
                let mut obj = vec![("kind".to_string(), Json::Str("stats".into()))];
                if let Json::Obj(fields) = stats.to_json() {
                    obj.extend(fields);
                }
                Json::Obj(obj).emit()
            }
            Response::Metrics {
                exposition,
                windows,
            } => Json::obj(vec![
                ("kind", Json::Str("metrics".into())),
                ("exposition", Json::Str(exposition.clone())),
                ("windows", windows.clone()),
            ])
            .emit(),
            Response::Health(report) => {
                let mut obj = vec![("kind".to_string(), Json::Str("health".into()))];
                if let Json::Obj(fields) = report.to_json() {
                    obj.extend(fields);
                }
                Json::Obj(obj).emit()
            }
            Response::Spans(spans) => {
                let mut obj = vec![("kind".to_string(), Json::Str("spans".into()))];
                if let Json::Obj(fields) = spans.clone() {
                    obj.extend(fields);
                }
                Json::Obj(obj).emit()
            }
            Response::Links(links) => {
                let mut obj = vec![("kind".to_string(), Json::Str("links".into()))];
                if let Json::Obj(fields) = links.clone() {
                    obj.extend(fields);
                }
                Json::Obj(obj).emit()
            }
            Response::Closing => "{\"kind\":\"closing\"}".into(),
        }
    }
}

/// How [`Server::submit`] disposed of a submission.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Answered immediately from the result cache.
    CacheHit,
    /// Adopted by an identical queued/running job.
    Coalesced,
    /// Entered the queue for execution.
    Enqueued,
    /// Turned away (full queue, closing server, or invalid spec).
    Rejected,
}

/// A point-in-time server statistics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Whether submissions are still admitted.
    pub accepting: bool,
    /// Total submissions seen (any outcome).
    pub submitted: u64,
    /// Jobs completed successfully (cold executions).
    pub completed: u64,
    /// Jobs that failed in execution.
    pub failed: u64,
    /// Submissions rejected (backpressure, closing, invalid).
    pub rejected: u64,
    /// Submissions answered by an in-flight coalesce.
    pub coalesced: u64,
    /// Result-cache traffic.
    pub cache: CacheStats,
    /// The serve metrics registry (queue depth, per-job wall time,
    /// hit/miss counters) as a snapshot.
    pub metrics: cc_trace::MetricsSnapshot,
}

impl ServeStats {
    /// Duplicate hit rate: submissions that skipped execution (cache
    /// hits + coalesced) over all submissions that consulted the cache.
    ///
    /// Every valid submission does exactly one cache lookup, so the
    /// denominator is `cache.hits + cache.misses`; coalesced submissions
    /// counted a miss there but still skipped execution, so they move to
    /// the numerator.
    pub fn duplicate_hit_rate(&self) -> f64 {
        let looked_up = self.cache.hits + self.cache.misses;
        if looked_up == 0 {
            0.0
        } else {
            (self.cache.hits + self.coalesced) as f64 / looked_up as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_depth", Json::UInt(self.queue_depth)),
            ("running", Json::UInt(self.running)),
            ("accepting", Json::Bool(self.accepting)),
            ("submitted", Json::UInt(self.submitted)),
            ("completed", Json::UInt(self.completed)),
            ("failed", Json::UInt(self.failed)),
            ("rejected", Json::UInt(self.rejected)),
            ("coalesced", Json::UInt(self.coalesced)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::UInt(self.cache.hits)),
                    ("misses", Json::UInt(self.cache.misses)),
                    ("insertions", Json::UInt(self.cache.insertions)),
                    ("evictions", Json::UInt(self.cache.evictions)),
                    ("resident_bytes", Json::UInt(self.cache.resident_bytes)),
                    ("hit_rate", Json::Float(self.cache.hit_rate())),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

struct Waiter {
    id: String,
    reply: Sender<Response>,
}

struct QueuedJob {
    id: String,
    spec: JobSpec,
    key: Digest,
    queued_unix_nanos: u64,
    reply: Sender<Response>,
}

/// Finished spans retained for `{"op":"spans"}` queries.
const RECENT_SPANS: usize = 512;

struct State {
    queue: VecDeque<QueuedJob>,
    /// Cache key → waiters of the identical queued/running job.
    pending: HashMap<Digest, Vec<Waiter>>,
    accepting: bool,
    running: u64,
    cache: ResultCache,
    /// Windowed metrics wrapping the cumulative registry: both views are
    /// fed by the same calls, so live windows cannot drift from the
    /// full-run snapshot `stats` and artifacts report.
    metrics: WindowedRegistry,
    /// Per-job timelines.
    spans: SpanBook,
    /// SLO rules plus the currently firing set.
    alerts: AlertEngine,
    /// Alert transitions not yet collected by the session layer.
    alert_log: Vec<AlertEvent>,
    /// Exact merge of every cold job's communication fold, answering
    /// `{"op":"links"}`. Fed from the same recorded event stream the
    /// artifact's `comm` metrics come from, so the aggregate can never
    /// drift from the per-job documents.
    comm: CommAggregate,
}

impl State {
    /// Re-evaluates the SLO rules at `now` and queues any transitions.
    fn evaluate_alerts(&mut self, now_nanos: u64, queue_capacity: usize) {
        let snap = self.metrics.snapshot(now_nanos);
        let events = self
            .alerts
            .evaluate(now_nanos, &snap, self.queue.len(), queue_capacity);
        self.alert_log.extend(events);
    }
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Signals workers: queue non-empty or closing.
    jobs_cv: Condvar,
    /// Signals drainers: a job finished.
    idle_cv: Condvar,
    /// The time source every reading flows through (wall in production,
    /// manual in tests — see cc-obs).
    clock: SharedClock,
    started_nanos: u64,
}

impl Shared {
    /// Locks the shared state, recovering from poison.
    ///
    /// A panic while the lock is held (a bug, but one the daemon must
    /// survive) marks the mutex poisoned forever; propagating that as a
    /// panic from every later `lock()` turns one bad job into a dead
    /// server — every `submit`, `stats`, and worker loop would die in a
    /// cascade. Admission bookkeeping is written in whole-transaction
    /// blocks under a single lock acquisition, so the state a recovering
    /// thread observes is at worst missing the interrupted job's final
    /// counter updates; serving slightly stale stats beats serving
    /// nothing. Worker panics themselves are additionally contained at
    /// the job boundary (see `run_job`), which keeps `running`/`pending`
    /// consistent even for the job that blew up.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Condvar::wait`] with the same poison recovery as
    /// [`Shared::lock_state`].
    fn wait_on<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The job service: bounded queue + worker pool + result cache.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// The default SLO rules the pool watches: p95 job wall time over 1 ms
/// on the 10 s window, queue at ≥ 80 % of capacity, and a duplicate hit
/// rate under 25 % on the 60 s window once 16 lookups accrued. The
/// latency threshold is generous for the small graphs CI serves; real
/// deployments build their own rule set and pass it nowhere — rules are
/// fixed at start, by design (alert churn should come from traffic, not
/// reconfiguration races).
pub fn default_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "latency-burn-p95".into(),
            window: "10s".into(),
            kind: SloKind::LatencyBurn {
                histogram: "serve.job_wall_nanos".into(),
                q_milli: 950,
                threshold_nanos: 1_000_000_000,
            },
        },
        SloRule {
            name: "queue-saturation".into(),
            window: "1s".into(),
            kind: SloKind::QueueSaturation { frac_milli: 800 },
        },
        SloRule {
            name: "hit-rate-floor".into(),
            window: "60s".into(),
            kind: SloKind::HitRateFloor {
                hits: vec!["serve.cache_hits".into(), "serve.coalesced_hits".into()],
                misses: "serve.cache_misses".into(),
                min_milli: 250,
                min_samples: 16,
            },
        },
    ]
}

/// Compute-phase boundaries of a run: every scope the tracer saw, in
/// order, with the round it opened at. Model events only, so the marks
/// are deterministic per spec — the artifact record built from them
/// keeps cache hits byte-identical.
type PhaseMarks = Arc<Mutex<Vec<(String, u64)>>>;

/// The tracer workers attach: folds every event into the job's
/// [`LedgerTracer`] as it arrives, collects the phase marks, and
/// forwards phase boundaries (plus coarse round milestones) as streamed
/// `progress` responses.
struct StreamTracer {
    ledger: LedgerTracer,
    marks: PhaseMarks,
    reply: Sender<Response>,
    id: String,
}

/// Emit a `progress` line every this many rounds for long scope-free
/// stretches (rt-conn runs thousands of rounds inside one scope).
const PROGRESS_ROUND_STRIDE: u64 = 512;

impl Tracer for StreamTracer {
    fn wants_timing(&self) -> bool {
        // Keep the folded stream model-only: the artifact's metrics are
        // then deterministic per spec, and the clock reads are skipped.
        false
    }

    fn record(&mut self, event: Event) {
        match &event {
            Event::ScopeEnter { name, round } => {
                let _ = self.reply.send(Response::Progress {
                    id: self.id.clone(),
                    phase: name.clone(),
                    round: *round,
                });
                self.marks
                    .lock()
                    .expect("phase marks poisoned")
                    .push((name.clone(), *round));
            }
            Event::RoundStart { round } if *round > 0 && round % PROGRESS_ROUND_STRIDE == 0 => {
                let _ = self.reply.send(Response::Progress {
                    id: self.id.clone(),
                    phase: "round".into(),
                    round: *round,
                });
            }
            _ => {}
        }
        self.ledger.record(event);
    }
}

impl Server {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0` or `cfg.queue_capacity == 0`.
    pub fn start(cfg: ServeConfig) -> Server {
        Server::start_with_clock(cfg, WallClock::shared())
    }

    /// Starts the worker pool on an explicit time source. Tests pass a
    /// `cc_obs::ManualClock` so windowed metrics, spans, and alert
    /// transitions are deterministic; [`Server::start`] passes the
    /// unix-anchored wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0` or `cfg.queue_capacity == 0`.
    pub fn start_with_clock(cfg: ServeConfig, clock: SharedClock) -> Server {
        assert!(cfg.workers > 0, "a pool needs at least one worker");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let started_nanos = clock.now_nanos();
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending: HashMap::new(),
                accepting: true,
                running: 0,
                cache: ResultCache::new(cfg.cache_capacity),
                metrics: WindowedRegistry::new(WindowSpec::standard()),
                spans: SpanBook::new(RECENT_SPANS),
                alerts: AlertEngine::new(default_slo_rules()),
                alert_log: Vec::new(),
                comm: CommAggregate::new(),
            }),
            jobs_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            clock,
            started_nanos,
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server { shared, workers }
    }

    /// Submits a job. Every submission receives at least one response on
    /// `reply`, and exactly one terminal response ([`Response::terminal`]).
    pub fn submit(&self, id: &str, spec: JobSpec, reply: &Sender<Response>) -> SubmitOutcome {
        let send = |r: Response| {
            let _ = reply.send(r);
        };
        let now = self.shared.clock.now_nanos();
        let mut st = self.shared.lock_state();
        if let Err(problem) = spec.validate() {
            st.metrics.counter_add("serve.jobs_rejected", now, 1);
            st.spans.finished(id, "", now, SpanOutcome::Rejected);
            send(Response::Rejected {
                id: id.into(),
                reason: format!("invalid job: {problem}"),
            });
            return SubmitOutcome::Rejected;
        }
        let key = spec.cache_key();
        if let Some(artifact) = st.cache.get(&key) {
            st.metrics.counter_add("serve.cache_hits", now, 1);
            st.spans.finished(id, &key.hex(), now, SpanOutcome::Served);
            send(Response::Result {
                id: id.into(),
                cached: true,
                artifact,
            });
            return SubmitOutcome::CacheHit;
        }
        // A miss that coalesces below is not a cold execution; the cache
        // miss counter tracks cold runs, so undo the `get` accounting via
        // the pending check *before* counting.
        if let Some(waiters) = st.pending.get_mut(&key) {
            waiters.push(Waiter {
                id: id.into(),
                reply: reply.clone(),
            });
            st.metrics.counter_add("serve.coalesced_hits", now, 1);
            st.spans.admitted(id, &key.hex(), now);
            let depth = st.queue.len() as u64;
            send(Response::Queued {
                id: id.into(),
                queue_depth: depth,
                coalesced: true,
            });
            return SubmitOutcome::Coalesced;
        }
        if !st.accepting {
            st.metrics.counter_add("serve.jobs_rejected", now, 1);
            st.spans
                .finished(id, &key.hex(), now, SpanOutcome::Rejected);
            send(Response::Rejected {
                id: id.into(),
                reason: "server is shutting down".into(),
            });
            return SubmitOutcome::Rejected;
        }
        if st.queue.len() >= self.shared.cfg.queue_capacity {
            st.metrics.counter_add("serve.jobs_rejected", now, 1);
            st.spans
                .finished(id, &key.hex(), now, SpanOutcome::Rejected);
            st.evaluate_alerts(now, self.shared.cfg.queue_capacity);
            send(Response::Rejected {
                id: id.into(),
                reason: format!(
                    "queue full ({} jobs); retry later",
                    self.shared.cfg.queue_capacity
                ),
            });
            return SubmitOutcome::Rejected;
        }
        st.metrics.counter_add("serve.cache_misses", now, 1);
        st.pending.insert(key, Vec::new());
        st.queue.push_back(QueuedJob {
            id: id.into(),
            spec,
            key,
            queued_unix_nanos: now,
            reply: reply.clone(),
        });
        st.spans.admitted(id, &key.hex(), now);
        let depth = st.queue.len() as u64;
        st.metrics.observe("serve.queue_depth", now, depth);
        send(Response::Queued {
            id: id.into(),
            queue_depth: depth,
            coalesced: false,
        });
        drop(st);
        self.shared.jobs_cv.notify_one();
        SubmitOutcome::Enqueued
    }

    /// Stops admitting jobs. Queued and running jobs still complete and
    /// deliver their responses; call [`Server::drain`] or
    /// [`Server::join`] to wait for them.
    pub fn close(&self) {
        let mut st = self.shared.lock_state();
        st.accepting = false;
        drop(st);
        self.shared.jobs_cv.notify_all();
    }

    /// Blocks until the queue is empty and no job is running.
    pub fn drain(&self) {
        let mut st = self.shared.lock_state();
        while !st.queue.is_empty() || st.running > 0 {
            st = self.shared.wait_on(&self.shared.idle_cv, st);
        }
    }

    /// Closes, drains, and joins the workers.
    pub fn join(mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.lock_state();
        let count = |name: &str| st.metrics.counter(name);
        let (rejected, coalesced) = (count("serve.jobs_rejected"), count("serve.coalesced_hits"));
        ServeStats {
            queue_depth: st.queue.len() as u64,
            running: st.running,
            accepting: st.accepting,
            // Every submission ends in exactly one of these four counters.
            submitted: rejected
                + coalesced
                + count("serve.cache_hits")
                + count("serve.cache_misses"),
            completed: count("serve.jobs_completed"),
            failed: count("serve.jobs_failed"),
            rejected,
            coalesced,
            cache: st.cache.stats(),
            metrics: st.metrics.cumulative_snapshot(),
        }
    }

    /// The Prometheus-style exposition of the cumulative registry plus
    /// the live windowed snapshot, taken atomically.
    pub fn metrics_exposition(&self) -> (String, WindowedSnapshot) {
        let now = self.shared.clock.now_nanos();
        let st = self.shared.lock_state();
        (
            render_prometheus(&st.metrics.cumulative_snapshot()),
            st.metrics.snapshot(now),
        )
    }

    /// A health report: admission scalars, worker liveness, cache
    /// occupancy, and the firing SLO alerts (rules are re-evaluated as
    /// part of answering, so a health poll is also an alert tick).
    pub fn health(&self) -> HealthReport {
        let now = self.shared.clock.now_nanos();
        let workers_alive = self.workers.iter().filter(|w| !w.is_finished()).count();
        let mut st = self.shared.lock_state();
        st.evaluate_alerts(now, self.shared.cfg.queue_capacity);
        let cache_stats = st.cache.stats();
        HealthReport {
            accepting: st.accepting,
            queue_depth: st.queue.len(),
            queue_capacity: self.shared.cfg.queue_capacity,
            in_flight: st.running as usize,
            workers: self.shared.cfg.workers,
            workers_alive,
            cache_entries: st.cache.len(),
            cache_capacity: self.shared.cfg.cache_capacity,
            cache_resident_bytes: cache_stats.resident_bytes as usize,
            uptime_nanos: now.saturating_sub(self.shared.started_nanos),
            firing: st.alerts.firing(),
        }
    }

    /// Live and recently finished job spans as JSON.
    pub fn spans_json(&self) -> Json {
        let st = self.shared.lock_state();
        st.spans.to_json()
    }

    /// The live communication aggregate over every cold job, as the
    /// `{"op":"links"}` payload.
    pub fn links_json(&self) -> Json {
        let st = self.shared.lock_state();
        st.comm.to_json()
    }

    /// Drains the alert transitions accrued since the last call. The
    /// session layer forwards them as structured log lines.
    pub fn take_alert_events(&self) -> Vec<AlertEvent> {
        let mut st = self.shared.lock_state();
        std::mem::take(&mut st.alert_log)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.lock_state();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if !st.accepting {
                    return;
                }
                st = shared.wait_on(&shared.jobs_cv, st);
            }
        };
        run_job(shared, job);
        shared.idle_cv.notify_all();
    }
}

/// Renders a caught panic payload as one line (`&str` and `String`
/// payloads cover `panic!`/`assert!`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Test-only fault injection at the points a real bug would strike.
#[cfg(test)]
pub(crate) mod test_faults {
    use cc_trace::{Event, Tracer};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// One-shot trigger: arming it makes the next job any worker executes
    /// panic inside the contained region; `maybe_panic` disarms it.
    pub static INJECT: AtomicBool = AtomicBool::new(false);

    /// A job submitted under this id gets a batch naming node `n` fed to
    /// its tracer before it runs, as a miswired engine would emit.
    pub const BAD_BATCH_ID: &str = "bad-batch";

    pub fn maybe_panic() {
        if INJECT.swap(false, Ordering::SeqCst) {
            panic!("injected worker panic");
        }
    }

    pub fn maybe_bad_batch<T: Tracer>(id: &str, n: usize, mut tracer: T) -> T {
        if id == BAD_BATCH_ID {
            tracer.record(Event::MessageBatch {
                round: 0,
                src: 0,
                dst: n as u32,
                count: 1,
                words: 1,
            });
        }
        tracer
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    // Clamp so queued ≤ started ≤ finished even if the clock is shared
    // with a test that never advances it.
    let started_unix = shared.clock.now_nanos().max(job.queued_unix_nanos);
    let queue_nanos = started_unix - job.queued_unix_nanos;
    {
        let mut st = shared.lock_state();
        st.spans.started(&job.id, started_unix);
    }
    let _ = job.reply.send(Response::Running {
        id: job.id.clone(),
        queue_nanos,
    });
    // Every engine runs under `NetConfig::kt1(n)` with the default link
    // budget, which is exactly `ModelSpec::clique()` — so the lens fold
    // measures utilization against the budget the run was actually
    // admitted under. The job's one traffic fold runs live, inside
    // `execute`: the artifact's `comm` snapshot and the live `links`
    // aggregate both read the finished ledger.
    let n = job.spec.graph.n();
    let marks = PhaseMarks::default();
    let outcome = LedgerTracer::new(n, &ModelSpec::clique())
        .map_err(|e| format!("comm fold: {e}"))
        .and_then(|ledger| {
            let tracer = StreamTracer {
                ledger: ledger.clone(),
                marks: Arc::clone(&marks),
                reply: job.reply.clone(),
                id: job.id.clone(),
            };
            #[cfg(test)]
            let tracer = test_faults::maybe_bad_batch(&job.id, n, tracer);
            // Contain panics at the job boundary: `execute` runs
            // lock-free, so a panic here (an algorithm bug, a
            // poisoned-input assert) must cost exactly one job — it folds
            // into the ordinary `Err` path below, which decrements
            // `running`, retires the pending entry, and answers this
            // submitter and every coalesced waiter with an `error`
            // response. Without this, the worker thread dies: the pool
            // quietly loses a thread per bad job until the daemon stops
            // serving.
            let exec = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(test)]
                test_faults::maybe_panic();
                execute(&job.spec, Box::new(tracer))
            }))
            .unwrap_or_else(|payload| {
                Err(format!("worker panicked: {}", panic_message(&*payload)))
            })?;
            // A refused batch is a job error like any other, never a
            // panic outside the contained region.
            let lens = ledger.finish().map_err(|e| format!("comm fold: {e}"))?;
            Ok((exec, lens))
        });
    let finished_unix = shared.clock.now_nanos().max(started_unix);
    let compute_nanos = finished_unix - started_unix;

    match outcome {
        Ok((exec, lens)) => {
            let phases = std::mem::take(&mut *marks.lock().expect("phase marks poisoned"));
            let mut artifact = RunArtifact::new("cc-serve")
                .with_meta("algorithm", job.spec.algorithm.tag())
                .with_meta("engine", job.spec.engine.tag())
                .with_meta("n", &job.spec.graph.n().to_string())
                .with_meta("seed", &job.spec.seed.to_string())
                .with_meta("cache_key", &job.key.hex())
                .with_job_timestamps(job.queued_unix_nanos, started_unix, finished_unix);
            artifact.experiments.push(ExperimentRecord {
                id: "job-summary".into(),
                caption: format!("{} on {}", job.spec.algorithm.tag(), job.spec.engine.tag()),
                headers: vec!["metric".into(), "value".into()],
                rows: exec
                    .summary
                    .iter()
                    .map(|(k, v)| vec![k.clone(), v.clone()])
                    .collect(),
            });
            artifact.experiments.push(ExperimentRecord {
                id: "job-span".into(),
                caption: "compute phases by simulated round".into(),
                headers: vec!["phase".into(), "round".into()],
                rows: phases
                    .iter()
                    .map(|(name, round)| vec![name.clone(), round.to_string()])
                    .collect(),
            });
            artifact.metrics.push(("comm".into(), comm_metrics(&lens)));
            debug_assert!(artifact.validate().is_ok(), "{:?}", artifact.validate());
            let text: Arc<str> = Arc::from(artifact.to_json().emit());

            let waiters = {
                let mut st = shared.lock_state();
                st.cache.insert(job.key, Arc::clone(&text));
                st.comm.absorb(&lens);
                st.running -= 1;
                st.metrics
                    .counter_add("serve.jobs_completed", finished_unix, 1);
                st.metrics
                    .observe("serve.queue_nanos", finished_unix, queue_nanos);
                st.metrics
                    .observe("serve.compute_nanos", finished_unix, compute_nanos);
                st.metrics.observe(
                    "serve.job_wall_nanos",
                    finished_unix,
                    queue_nanos + compute_nanos,
                );
                for (name, round) in &phases {
                    st.spans.phase(&job.id, name, *round);
                }
                let key_hex = job.key.hex();
                st.spans
                    .finished(&job.id, &key_hex, finished_unix, SpanOutcome::Completed);
                let waiters = st.pending.remove(&job.key).unwrap_or_default();
                for w in &waiters {
                    st.spans
                        .finished(&w.id, &key_hex, finished_unix, SpanOutcome::Served);
                }
                st.evaluate_alerts(finished_unix, shared.cfg.queue_capacity);
                waiters
            };
            let _ = job.reply.send(Response::Result {
                id: job.id,
                cached: false,
                artifact: Arc::clone(&text),
            });
            for w in waiters {
                let _ = w.reply.send(Response::Result {
                    id: w.id,
                    cached: true,
                    artifact: Arc::clone(&text),
                });
            }
        }
        Err(error) => {
            let waiters = {
                let mut st = shared.lock_state();
                st.running -= 1;
                st.metrics
                    .counter_add("serve.jobs_failed", finished_unix, 1);
                let key_hex = job.key.hex();
                st.spans
                    .finished(&job.id, &key_hex, finished_unix, SpanOutcome::Failed);
                let waiters = st.pending.remove(&job.key).unwrap_or_default();
                for w in &waiters {
                    st.spans
                        .finished(&w.id, &key_hex, finished_unix, SpanOutcome::Failed);
                }
                st.evaluate_alerts(finished_unix, shared.cfg.queue_capacity);
                waiters
            };
            let _ = job.reply.send(Response::Error {
                id: job.id,
                error: error.clone(),
            });
            for w in waiters {
                let _ = w.reply.send(Response::Error {
                    id: w.id,
                    error: error.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Algorithm, Engine, GraphSpec};
    use std::sync::mpsc::channel;

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            graph: GraphSpec::RandomConnected {
                n: 16,
                degree_milli: 3000,
                seed: 1,
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed,
        }
    }

    fn drain_terminal(rx: &std::sync::mpsc::Receiver<Response>) -> Response {
        loop {
            let r = rx.recv().expect("a terminal response must arrive");
            if r.terminal() {
                return r;
            }
        }
    }

    #[test]
    fn cold_then_hit_serves_identical_bytes() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        assert_eq!(server.submit("a", spec(1), &tx), SubmitOutcome::Enqueued);
        let cold = match drain_terminal(&rx) {
            Response::Result {
                cached, artifact, ..
            } => {
                assert!(!cached);
                artifact
            }
            other => panic!("expected result, got {other:?}"),
        };
        // Identical job → pure cache hit with the same bytes.
        assert_eq!(server.submit("b", spec(1), &tx), SubmitOutcome::CacheHit);
        match drain_terminal(&rx) {
            Response::Result {
                cached, artifact, ..
            } => {
                assert!(cached);
                assert_eq!(artifact, cold, "hit must be byte-identical");
            }
            other => panic!("expected result, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.completed, 1);
        server.join();
    }

    #[test]
    fn panicking_worker_degrades_one_job_not_the_daemon() {
        let server = Server::start(ServeConfig::default());
        let (tx, rx) = channel();

        // Arm the one-shot fault: the next executed job panics inside
        // the contained region of `run_job`.
        test_faults::INJECT.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(server.submit("boom", spec(1), &tx), SubmitOutcome::Enqueued);
        match drain_terminal(&rx) {
            Response::Error { id, error } => {
                assert_eq!(id, "boom");
                assert!(
                    error.contains("worker panicked: injected worker panic"),
                    "error should carry the panic message, got {error:?}"
                );
            }
            other => panic!("expected error, got {other:?}"),
        }

        // The pool keeps serving: a fresh job completes cold...
        assert_eq!(server.submit("next", spec(2), &tx), SubmitOutcome::Enqueued);
        match drain_terminal(&rx) {
            Response::Result { cached, .. } => assert!(!cached),
            other => panic!("expected result, got {other:?}"),
        }
        // ...and resubmitting the job that blew up also succeeds (a
        // failure must not cache or wedge its pending entry).
        assert_eq!(
            server.submit("retry", spec(1), &tx),
            SubmitOutcome::Enqueued
        );
        match drain_terminal(&rx) {
            Response::Result { cached, .. } => assert!(!cached),
            other => panic!("expected result, got {other:?}"),
        }

        let health = server.health();
        assert_eq!(
            health.workers_alive, health.workers,
            "every worker thread must survive the panic"
        );
        assert_eq!(
            health.in_flight, 0,
            "the failed job must not leak `running`"
        );
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 2);
        server.join();
    }

    #[test]
    fn a_refused_batch_is_a_job_error_and_the_worker_survives() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        // The tracer of this job sees a batch naming node n = 16.
        assert_eq!(
            server.submit(test_faults::BAD_BATCH_ID, spec(3), &tx),
            SubmitOutcome::Enqueued
        );
        match drain_terminal(&rx) {
            Response::Error { id, error } => {
                assert_eq!(id, test_faults::BAD_BATCH_ID);
                assert!(
                    error.starts_with("comm fold: ") && error.contains("node 16"),
                    "error should name the fold and the node, got {error:?}"
                );
            }
            other => panic!("expected error, got {other:?}"),
        }
        // The only worker is still there, and the same spec is not
        // cached as a failure.
        assert_eq!(server.submit("next", spec(3), &tx), SubmitOutcome::Enqueued);
        match drain_terminal(&rx) {
            Response::Result { cached, .. } => assert!(!cached),
            other => panic!("expected result, got {other:?}"),
        }
        let health = server.health();
        assert_eq!(health.workers_alive, 1);
        assert_eq!(health.in_flight, 0);
        let stats = server.stats();
        assert_eq!((stats.failed, stats.completed), (1, 1));
        server.join();
    }

    #[test]
    fn poisoned_state_lock_is_recovered_not_propagated() {
        let server = Server::start(ServeConfig::default());
        // Poison the state mutex the hard way: panic while holding it on
        // a foreign thread (the one failure mode `catch_unwind` in
        // `run_job` cannot prevent, since it only covers `execute`).
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().expect("first lock cannot be poisoned");
            panic!("poison the serve state");
        })
        .join();
        assert!(server.shared.state.is_poisoned(), "setup must poison");

        // Every entry point keeps working through the poison.
        let stats = server.stats();
        assert_eq!(stats.completed, 0);
        let _ = server.health();
        let (tx, rx) = channel();
        assert_eq!(
            server.submit("after", spec(3), &tx),
            SubmitOutcome::Enqueued
        );
        match drain_terminal(&rx) {
            Response::Result { cached, .. } => assert!(!cached),
            other => panic!("expected result, got {other:?}"),
        }
        server.join();
    }

    #[test]
    fn invalid_spec_is_rejected_with_reason() {
        let server = Server::start(ServeConfig::default());
        let (tx, rx) = channel();
        let bad = JobSpec {
            engine: Engine::Serial,
            ..spec(1)
        };
        assert_eq!(server.submit("x", bad, &tx), SubmitOutcome::Rejected);
        match drain_terminal(&rx) {
            Response::Rejected { reason, .. } => assert!(reason.contains("invalid job")),
            other => panic!("expected rejected, got {other:?}"),
        }
        server.join();
    }

    #[test]
    fn full_queue_applies_backpressure() {
        // No workers consuming: hold the single worker on a job by
        // filling the queue before it can drain. Use queue capacity 2 and
        // distinct seeds so nothing coalesces.
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 8,
        });
        let (tx, rx) = channel();
        let mut outcomes = Vec::new();
        for i in 0..20 {
            outcomes.push(server.submit(&format!("j{i}"), spec(i as u64), &tx));
        }
        assert!(
            outcomes.contains(&SubmitOutcome::Rejected),
            "20 instant submissions into a 2-slot queue must trip backpressure"
        );
        server.join();
        // Every submission got exactly one terminal response.
        let mut terminals = 0;
        while let Ok(r) = rx.try_recv() {
            if r.terminal() {
                terminals += 1;
            }
        }
        assert_eq!(terminals, 20);
    }

    #[test]
    fn duplicates_in_flight_coalesce_to_one_execution() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        for i in 0..8 {
            server.submit(&format!("dup{i}"), spec(42), &tx);
        }
        server.close();
        server.drain();
        let stats = server.stats();
        assert_eq!(stats.completed, 1, "one cold execution");
        assert_eq!(
            stats.coalesced + stats.cache.hits,
            7,
            "the other 7 answered without recomputing"
        );
        let mut results = Vec::new();
        while let Ok(r) = rx.try_recv() {
            if let Response::Result { artifact, .. } = r {
                results.push(artifact);
            }
        }
        assert_eq!(results.len(), 8);
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "all 8 answers byte-identical"
        );
    }

    #[test]
    fn close_rejects_new_jobs_but_keeps_draining() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        server.submit("before", spec(1), &tx);
        server.close();
        assert_eq!(
            server.submit("after", spec(2), &tx),
            SubmitOutcome::Rejected
        );
        server.drain();
        let mut kinds = Vec::new();
        while let Ok(r) = rx.try_recv() {
            if r.terminal() {
                kinds.push((r.id().to_string(), r.clone()));
            }
        }
        assert!(matches!(
            kinds.iter().find(|(id, _)| id == "before"),
            Some((_, Response::Result { .. }))
        ));
        assert!(matches!(
            kinds.iter().find(|(id, _)| id == "after"),
            Some((_, Response::Rejected { .. }))
        ));
    }

    #[test]
    fn responses_stream_in_lifecycle_order() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        server.submit("life", spec(9), &tx);
        let mut kinds = Vec::new();
        loop {
            let r = rx.recv().unwrap();
            let terminal = r.terminal();
            kinds.push(match r {
                Response::Queued { .. } => "queued",
                Response::Running { .. } => "running",
                Response::Progress { .. } => "progress",
                Response::Result { .. } => "result",
                other => panic!("unexpected {other:?}"),
            });
            if terminal {
                break;
            }
        }
        assert_eq!(kinds.first(), Some(&"queued"));
        assert_eq!(kinds[1], "running");
        assert_eq!(kinds.last(), Some(&"result"));
        assert!(
            kinds.contains(&"progress"),
            "gc phases must stream as progress: {kinds:?}"
        );
        server.join();
    }

    #[test]
    fn windowed_metrics_stay_consistent_with_cumulative_under_manual_clock() {
        let clock = cc_obs::ManualClock::new(1_000_000_000);
        let server = Server::start_with_clock(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            clock.shared(),
        );
        let (tx, rx) = channel();
        // A mixed load: 3 distinct jobs, each duplicated once.
        for i in 0..6u64 {
            server.submit(&format!("j{i}"), spec(i % 3), &tx);
        }
        server.close();
        server.drain();
        for _ in 0..6 {
            drain_terminal(&rx);
        }
        let (exposition, windows) = server.metrics_exposition();
        let stats = server.stats();
        // The 60 s window has seen the entire run (the manual clock never
        // advanced), so every windowed sum must equal its cumulative
        // counter and every windowed digest the cumulative digest —
        // exactly, not approximately.
        let w = windows.window("60s").expect("standard 60 s window");
        for (name, value) in &stats.metrics.counters {
            assert_eq!(
                w.counter(name),
                *value,
                "windowed {name} drifted from cumulative"
            );
        }
        for (name, cumulative) in &stats.metrics.histograms {
            assert_eq!(
                w.histogram(name).expect("windowed twin"),
                cumulative,
                "windowed digest {name} drifted from cumulative"
            );
        }
        assert_eq!(w.counter("serve.jobs_completed"), 3);
        assert_eq!(
            w.counter("serve.cache_hits") + w.counter("serve.coalesced_hits"),
            3
        );
        // Determinism: every reading happened at the scripted instant, so
        // a second snapshot answers identically.
        let (_, again) = server.metrics_exposition();
        assert_eq!(again, windows);
        // The exposition renders the same counters.
        assert!(exposition.contains("serve_jobs_completed_total 3\n"));
        cc_obs::check_exposition(&exposition).expect("exposition must be well-formed");
        server.join();
    }

    #[test]
    fn spans_track_lifecycle_and_embed_in_artifacts() {
        let clock = cc_obs::ManualClock::new(500);
        let server = Server::start_with_clock(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            clock.shared(),
        );
        let (tx, rx) = channel();
        server.submit("cold", spec(11), &tx);
        let artifact = match drain_terminal(&rx) {
            Response::Result { artifact, .. } => artifact,
            other => panic!("expected result, got {other:?}"),
        };
        server.submit("warm", spec(11), &tx);
        drain_terminal(&rx);
        // The artifact embeds the phase marks as a v3 experiment record.
        let parsed = RunArtifact::from_json_str(&artifact).unwrap();
        let span_record = parsed
            .experiments
            .iter()
            .find(|e| e.id == "job-span")
            .expect("job-span record embedded");
        assert_eq!(span_record.headers, vec!["phase", "round"]);
        assert!(
            !span_record.rows.is_empty(),
            "gc-sketch runs named phases: {span_record:?}"
        );
        // The span book recorded both submissions with their outcomes.
        let spans = server.spans_json();
        let recent = spans.get("recent").and_then(Json::as_arr).unwrap();
        let outcome_of = |id: &str| {
            recent
                .iter()
                .find(|s| s.get("id").and_then(Json::as_str) == Some(id))
                .and_then(|s| s.get("outcome").and_then(Json::as_str).map(str::to_string))
        };
        assert_eq!(outcome_of("cold").as_deref(), Some("completed"));
        assert_eq!(outcome_of("warm").as_deref(), Some("served"));
        // The completed span carries the same phase marks as the record.
        let cold = recent
            .iter()
            .find(|s| s.get("id").and_then(Json::as_str) == Some("cold"))
            .unwrap();
        assert_eq!(
            cold.get("phases").and_then(Json::as_arr).unwrap().len(),
            span_record.rows.len()
        );
        server.join();
    }

    #[test]
    fn links_aggregate_matches_the_artifact_comm_fold_exactly() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        server.submit("cold", spec(17), &tx);
        let artifact = match drain_terminal(&rx) {
            Response::Result { artifact, .. } => artifact,
            other => panic!("expected result, got {other:?}"),
        };
        // A cache hit must not re-absorb into the aggregate.
        server.submit("warm", spec(17), &tx);
        drain_terminal(&rx);

        let parsed = RunArtifact::from_json_str(&artifact).unwrap();
        let comm = parsed
            .metrics
            .iter()
            .find(|(name, _)| name == "comm")
            .map(|(_, snap)| snap)
            .expect("artifacts embed the comm snapshot");
        let counter = |name: &str| {
            comm.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("comm snapshot missing {name}"))
        };
        // One fold per job: the `comm` snapshot is the artifact's only
        // metrics section, and no experiment record re-prints it.
        assert_eq!(parsed.metrics.len(), 1);
        let ids: Vec<&str> = parsed.experiments.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["job-summary", "job-span"]);
        assert!(
            counter("comm.pair_skew_milli") >= 1000,
            "the worst machine pair carries at least the mean"
        );

        // One cold execution absorbed exactly once — the live aggregate
        // equals the artifact's fold, field by field (zero drift).
        let links = server.links_json();
        let agg = |name: &str| links.get(name).and_then(Json::as_u64).unwrap();
        assert_eq!(agg("jobs"), 1);
        assert_eq!(agg("rounds"), counter("comm.rounds"));
        assert_eq!(agg("messages"), counter("comm.messages"));
        assert_eq!(agg("words"), counter("comm.words"));
        assert_eq!(agg("link_rounds"), counter("comm.link_rounds"));
        assert_eq!(agg("peak_link_words"), counter("comm.peak_link_words"));
        assert_eq!(agg("peak_util_milli"), counter("comm.peak_util_milli"));
        assert_eq!(agg("headroom_milli"), counter("comm.headroom_milli"));
        assert_eq!(agg("broadcast_words"), counter("comm.broadcast_words"));
        assert_eq!(agg("unicast_words"), counter("comm.unicast_words"));
        // The aggregate histogram is the job's histogram verbatim.
        let hist = comm
            .histograms
            .iter()
            .find(|(k, _)| k == "comm.link_util_milli")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(agg("p50_util_milli"), hist.quantile(0.50));
        assert_eq!(agg("p95_util_milli"), hist.quantile(0.95));
        assert_eq!(agg("p99_util_milli"), hist.quantile(0.99));
        server.join();
    }

    #[test]
    fn health_reports_the_pool_shape() {
        let server = Server::start(ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 16,
        });
        let (tx, rx) = channel();
        server.submit("h", spec(21), &tx);
        drain_terminal(&rx);
        let health = server.health();
        assert!(health.ok(), "idle pool with live workers is healthy");
        assert_eq!(health.workers, 2);
        assert_eq!(health.workers_alive, 2);
        assert_eq!(health.queue_capacity, 8);
        assert_eq!(health.cache_capacity, 16);
        assert_eq!(health.cache_entries, 1, "the finished job is cached");
        assert!(health.cache_resident_bytes > 0);
        // Closing flips `accepting`, and drained workers exit: the report
        // stops claiming health.
        server.close();
        server.drain();
        for _ in 0..200 {
            if server.health().workers_alive == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let closed = server.health();
        assert!(!closed.accepting);
        assert!(!closed.ok());
        server.join();
    }

    #[test]
    fn stats_lines_and_artifact_parse() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (tx, rx) = channel();
        server.submit("p", spec(3), &tx);
        let artifact = match drain_terminal(&rx) {
            Response::Result { artifact, .. } => artifact,
            other => panic!("expected result, got {other:?}"),
        };
        let parsed = RunArtifact::from_json_str(&artifact).unwrap();
        parsed.validate().unwrap();
        assert!(parsed.queued_unix_nanos <= parsed.started_unix_nanos);
        assert!(parsed.started_unix_nanos <= parsed.finished_unix_nanos);
        assert!(parsed.meta.iter().any(|(k, _)| k == "cache_key"));

        let stats = server.stats();
        let line = Response::Stats(Box::new(stats)).to_line();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("stats"));
        assert!(v.get("cache").is_some());

        // Every response kind emits one parseable line.
        for r in [
            Response::Queued {
                id: "q\"uote".into(),
                queue_depth: 3,
                coalesced: true,
            },
            Response::Rejected {
                id: "x".into(),
                reason: "queue full".into(),
            },
            Response::Running {
                id: "x".into(),
                queue_nanos: 12,
            },
            Response::Progress {
                id: "x".into(),
                phase: "phase1".into(),
                round: 7,
            },
            Response::Result {
                id: "x".into(),
                cached: true,
                artifact: Arc::clone(&artifact),
            },
            Response::Error {
                id: "x".into(),
                error: "boom".into(),
            },
            Response::Metrics {
                exposition: "serve_jobs_completed_total 1\n".into(),
                windows: server.metrics_exposition().1.to_json(),
            },
            Response::Health(Box::new(server.health())),
            Response::Spans(server.spans_json()),
            Response::Links(server.links_json()),
            Response::Closing,
        ] {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            Json::parse(&line).unwrap_or_else(|e| panic!("line {line} unparseable: {e}"));
        }
        server.join();
    }
}
