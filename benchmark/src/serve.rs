//! The two service workloads: the real `serve` binary, driven over its
//! public line protocol by closed-loop clients.
//!
//! An op is one answered job, timed from the submit line's `write_all`
//! to the last byte of its terminal line. Every client waits for a reply
//! before it sends again (every real caller of the daemon does), so the
//! load is closed-loop: `serve-dup` runs two clients with one job in
//! flight each, `serve-cold` one client with eight.

use crate::procfs;
use crate::replay::{time, Metrics};
use crate::round::{Budget, RoundOut, TraceOut};
use crate::seed;
use crate::sink::{Counts, OpTrace, Span};
use crate::stats;
use cc_graph::{connectivity, generators, mst, Graph, WGraph};
use cc_lens::CommLedger;
use cc_model::ModelSpec;
use cc_profile::Profile;
use cc_serve::{execute, parse_request, Algorithm, Engine, GraphSpec, JobSpec};
use cc_trace::{Event, Json, JsonlTracer, NullTracer, RecordingTracer, RunArtifact, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which traffic mix a round drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// TCP, two clients, nine in ten jobs repeat a recent key.
    Dup,
    /// Stdio, one client keeping eight distinct jobs in flight.
    Cold,
}

/// Every tenth `serve-dup` job is new; the rest repeat.
const DUP_NEW_EVERY: u64 = 10;

/// `serve-dup` repeats are drawn from this many most recent keys.
const DUP_RECENT_KEYS: usize = 24;

/// Jobs, one of each kind, a client runs through a fresh daemon before
/// the timed section; they are part of set-up, like a library round's
/// warm-up ops, and their keys lie outside every round's.
const WARM_UP_KEYS: std::ops::Range<u64> = (1 << 48)..(1 << 48) + 3;

/// Idle-daemon `health` round trips behind the rtt metrics.
const RTT_SAMPLES: usize = 30;

/// Events of each recorded stream the JSONL replay writes out.
const JSONL_EVENTS: usize = 20_000;

/// How long a daemon gets to exit after `shutdown` before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(20);

impl Mix {
    /// The mix a workload name stands for; `None` for a library workload.
    pub fn of(workload: &str) -> Option<Mix> {
        [Mix::Dup, Mix::Cold]
            .into_iter()
            .find(|m| m.label() == workload)
    }

    fn label(self) -> &'static str {
        match self {
            Mix::Dup => "serve-dup",
            Mix::Cold => "serve-cold",
        }
    }

    /// Clique sizes of the gc-sketch, exact-mst and rt-conn jobs.
    fn sizes(self) -> [usize; 3] {
        match self {
            Mix::Dup => [128, 64, 32],
            Mix::Cold => [192, 96, 64],
        }
    }

    /// Daemon flags besides the transport.
    fn daemon_args(self) -> [&'static str; 4] {
        match self {
            Mix::Dup => ["--workers", "2", "--cache", "256"],
            Mix::Cold => ["--workers", "2", "--cache", "8"],
        }
    }

    fn clients(self) -> usize {
        match self {
            Mix::Dup => 2,
            Mix::Cold => 1,
        }
    }

    /// Jobs each client keeps in flight.
    fn window(self) -> usize {
        match self {
            Mix::Dup => 1,
            Mix::Cold => 8,
        }
    }
}

/// One job of the mix: its key in the seeded key space and its spec.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: String,
    pub key: u64,
    pub spec: JobSpec,
}

impl Job {
    fn submit_line(&self) -> String {
        format!(
            "{{\"op\":\"submit\",\"id\":\"{}\",\"job\":{}}}\n",
            self.id,
            self.spec.to_json().emit()
        )
    }
}

/// The job behind `key`: kinds cycle gc-sketch, exact-mst, rt-conn, and
/// graph and run seeds come from the run seed.
fn spec_for(mix: Mix, seed: u64, key: u64) -> JobSpec {
    let graph_seed = seed::derive(seed, mix.label(), 2 * key);
    let run_seed = seed::derive(seed, mix.label(), 2 * key + 1);
    let [gc_n, mst_n, rt_n] = mix.sizes();
    let (graph, algorithm, engine) = match key % 3 {
        0 => (
            GraphSpec::RandomConnected {
                n: gc_n,
                degree_milli: 3000,
                seed: graph_seed,
            },
            Algorithm::GcSketch,
            Engine::Net,
        ),
        1 => (
            GraphSpec::CompleteWeighted {
                n: mst_n,
                seed: graph_seed,
            },
            Algorithm::ExactMst,
            Engine::Net,
        ),
        _ => (
            GraphSpec::RandomConnected {
                n: rt_n,
                degree_milli: 4000,
                seed: graph_seed,
            },
            Algorithm::RtConn,
            Engine::Serial,
        ),
    };
    JobSpec {
        graph,
        algorithm,
        engine,
        seed: run_seed,
    }
}

/// The seeded job stream of one round, shared by its clients.
///
/// The mix is stationary — any prefix has the same share of repeats — so
/// a round can be cut by op count or by the clock without changing what
/// it measures.
pub struct Jobs {
    mix: Mix,
    seed: u64,
    issued: u64,
    next_key: u64,
    recent: VecDeque<u64>,
    rng: ChaCha8Rng,
}

impl Jobs {
    /// The stream of round `round`; rounds draw disjoint keys.
    pub fn new(mix: Mix, seed: u64, round: u64) -> Jobs {
        Jobs {
            mix,
            seed,
            issued: 0,
            next_key: round << 32,
            recent: VecDeque::new(),
            rng: ChaCha8Rng::seed_from_u64(seed::derive(seed, "serve/repeats", round)),
        }
    }

    fn next_job(&mut self) -> Job {
        let fresh = self.mix == Mix::Cold || self.issued.is_multiple_of(DUP_NEW_EVERY);
        let key = if fresh {
            let key = self.next_key;
            self.next_key += 1;
            self.recent.push_back(key);
            if self.recent.len() > DUP_RECENT_KEYS {
                self.recent.pop_front();
            }
            key
        } else {
            self.recent[self.rng.gen_range(0..self.recent.len())]
        };
        self.issued += 1;
        Job {
            id: format!("j{}", self.issued),
            key,
            spec: spec_for(self.mix, self.seed, key),
        }
    }
}

/// Hands jobs to the clients until the round's budget is spent.
struct Feed {
    jobs: Mutex<Jobs>,
    budget: Budget,
    timed: Instant,
    /// In a traced round the clients note, for about half the jobs, when
    /// each response line arrives; the other jobs run as in an untraced
    /// round, so the two latency medians compare like with like.
    traced: bool,
}

impl Feed {
    /// The next job and whether the client marks its lines.
    fn next(&self) -> Option<(Job, bool)> {
        let mut jobs = self.jobs.lock().expect("job stream lock");
        if self.budget.spent(jobs.issued as usize, self.timed) {
            return None;
        }
        // A coin per job, so that marking is independent of the job's kind
        // and of whether it repeats.
        let marked = self.traced && seed::derive(0, "serve/mark", jobs.issued) % 2 == 1;
        Some((jobs.next_job(), marked))
    }
}

/// What came back for one job.
struct Answer {
    job: Job,
    latency_ms: f64,
    lines: u64,
    bytes: u64,
    /// The terminal line.
    terminal: String,
    /// For a marked job: when it was submitted and each response line
    /// arrived, in ns since the round's epoch, with the line's kind or
    /// phase.
    marks: Vec<(String, u64)>,
}

/// The fields of a response line that precede the artifact, and the
/// artifact's bytes exactly as sent.
struct Line<'a> {
    kind: String,
    id: String,
    phase: Option<String>,
    artifact: Option<&'a str>,
}

fn parse_line(line: &str) -> Result<Line<'_>, String> {
    let line = line.trim_end();
    let (head, artifact) = match line.split_once(",\"artifact\":") {
        Some((head, rest)) => {
            let artifact = rest
                .strip_suffix('}')
                .ok_or("result line does not end in `}`")?;
            (format!("{head}}}"), Some(artifact))
        }
        None => (line.to_string(), None),
    };
    let v = Json::parse(&head).map_err(|e| format!("unparseable response line: {e}"))?;
    let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    Ok(Line {
        kind: text("kind").ok_or("response line without `kind`")?,
        id: text("id").unwrap_or_default(),
        phase: text("phase"),
        artifact,
    })
}

fn is_terminal(kind: &str) -> bool {
    matches!(kind, "result" | "rejected" | "error")
}

fn protocol_error(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// One protocol session: a plain stream each way, no socket options, one
/// `write_all` per request line. Boxed so TCP and stdio share the code.
struct Session {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Session {
    fn new(reader: impl Read + Send + 'static, writer: impl Write + Send + 'static) -> Self {
        Session {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(writer),
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(protocol_error("the daemon closed the session"));
        }
        Ok(line)
    }

    /// Sends a server-level op and returns its one answer line. Only for
    /// sessions with no job in flight.
    fn ask(&mut self, op: &str) -> io::Result<Json> {
        self.send(&format!("{{\"op\":\"{op}\"}}\n"))?;
        let line = self.recv()?;
        Json::parse(line.trim_end()).map_err(protocol_error)
    }

    /// Runs the warm-up jobs one after the other.
    fn warm_up(&mut self, mix: Mix, seed: u64) -> io::Result<()> {
        for key in WARM_UP_KEYS {
            let job = Job {
                id: format!("warm{key}"),
                key,
                spec: spec_for(mix, seed, key),
            };
            self.send(&job.submit_line())?;
            let kind = loop {
                let line = self.recv()?;
                let kind = parse_line(&line).map_err(protocol_error)?.kind;
                if is_terminal(&kind) {
                    break kind;
                }
            };
            if kind != "result" {
                return Err(protocol_error(format!("warm-up job ended in `{kind}`")));
            }
        }
        Ok(())
    }

    /// Median `health` round trip of an idle daemon, in ms.
    fn health_rtt_ms(&mut self) -> io::Result<f64> {
        let mut samples = Vec::with_capacity(RTT_SAMPLES);
        for _ in 0..RTT_SAMPLES {
            let t = Instant::now();
            self.ask("health")?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(stats::median(&samples))
    }

    /// The closed loop: keeps `window` jobs in flight until the feed runs
    /// dry, then collects the stragglers.
    fn drive(&mut self, window: usize, feed: &Feed, epoch: Instant) -> io::Result<Vec<Answer>> {
        struct Pending {
            job: Job,
            sent: Instant,
            lines: u64,
            bytes: u64,
            /// Empty unless the job is marked.
            marks: Vec<(String, u64)>,
        }
        let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let mut pending: HashMap<String, Pending> = HashMap::new();
        let mut done = Vec::new();
        loop {
            while pending.len() < window {
                let Some((job, marked)) = feed.next() else {
                    break;
                };
                let line = job.submit_line();
                let sent = Instant::now();
                self.send(&line)?;
                let id = job.id.clone();
                let mut first = Pending {
                    job,
                    sent,
                    lines: 0,
                    bytes: 0,
                    marks: Vec::new(),
                };
                if marked {
                    first.marks.push(("submit".into(), since_epoch(sent)));
                }
                pending.insert(id, first);
            }
            if pending.is_empty() {
                return Ok(done);
            }
            let line = self.recv()?;
            let arrived = Instant::now();
            let parsed = parse_line(&line).map_err(protocol_error)?;
            let Some(p) = pending.get_mut(&parsed.id) else {
                return Err(protocol_error(format!("line for unknown job: {line}")));
            };
            p.lines += 1;
            p.bytes += line.len() as u64;
            if !p.marks.is_empty() {
                let what = parsed.phase.unwrap_or_else(|| parsed.kind.clone());
                p.marks.push((what, since_epoch(arrived)));
            }
            if is_terminal(&parsed.kind) {
                let p = pending.remove(&parsed.id).expect("just seen");
                done.push(Answer {
                    latency_ms: arrived.duration_since(p.sent).as_secs_f64() * 1e3,
                    job: p.job,
                    lines: p.lines,
                    bytes: p.bytes,
                    terminal: line,
                    marks: p.marks,
                });
            }
        }
    }
}

/// A running `serve` process.
struct Daemon {
    child: Child,
    /// Drains stderr (structured log and alert lines) so the daemon
    /// never blocks on a full pipe.
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(bin: &Path, mix: Mix) -> io::Result<(Daemon, Option<String>)> {
        let mut cmd = Command::new(bin);
        cmd.args(mix.daemon_args()).stderr(Stdio::piped());
        match mix {
            Mix::Dup => cmd
                .args(["--tcp", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null()),
            Mix::Cold => cmd.stdin(Stdio::piped()).stdout(Stdio::piped()),
        };
        let mut child = cmd.spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        // The TCP daemon announces the port it bound on stderr.
        let mut address = None;
        if mix == Mix::Dup {
            let mut line = String::new();
            while address.is_none() {
                line.clear();
                if stderr.read_line(&mut line)? == 0 {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(protocol_error("serve exited before listening"));
                }
                address = line
                    .trim_end()
                    .strip_prefix("serve: listening on ")
                    .map(str::to_string);
            }
        }
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        let daemon = Daemon {
            child,
            stderr: Some(drain),
        };
        Ok((daemon, address))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit by itself; kills it after a grace.
    fn reap(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match self.child.try_wait()? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    self.child.kill()?;
                    break self.child.wait()?;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(protocol_error(format!("serve exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the child alive when a round failed midway.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// A generated job's graph, built the way the protocol documents.
enum Input {
    Plain(Graph),
    Weighted(WGraph),
}

impl Input {
    /// `None` for explicit edge lists, which the mixes never send.
    fn build(spec: &JobSpec) -> Option<Input> {
        match spec.graph {
            GraphSpec::RandomConnected {
                n,
                degree_milli,
                seed,
            } => {
                let p = (degree_milli as f64 / 1000.0) / n as f64;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                Some(Input::Plain(generators::random_connected_graph(
                    n, p, &mut rng,
                )))
            }
            GraphSpec::CompleteWeighted { n, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                Some(Input::Weighted(generators::complete_wgraph(n, &mut rng)))
            }
            GraphSpec::Edges { .. } | GraphSpec::WEdges { .. } => None,
        }
    }
}

/// The summary rows an independent run of `spec` must produce:
/// `connected` / `components` from `cc_graph::connectivity`, `mst_weight`
/// from sequential Kruskal.
fn oracle_rows(spec: &JobSpec) -> Vec<(&'static str, String)> {
    match Input::build(spec) {
        Some(Input::Plain(g)) => vec![
            ("connected", connectivity::is_connected(&g).to_string()),
            ("components", connectivity::component_count(&g).to_string()),
        ],
        Some(Input::Weighted(g)) => {
            let weight = WGraph::total_weight(&mst::kruskal(&g));
            vec![("mst_weight", weight.to_string())]
        }
        None => Vec::new(),
    }
}

/// Checks one artifact document and returns its simulated cost.
fn check_artifact(text: &str, want: &[(&'static str, String)]) -> Result<[u64; 3], String> {
    let artifact = RunArtifact::from_json_str(text)?;
    artifact
        .validate()
        .map_err(|problems| problems.join("; "))?;
    let summary = artifact
        .experiments
        .iter()
        .find(|e| e.id == "job-summary")
        .ok_or("artifact has no job-summary table")?;
    let row = |name: &str| {
        summary
            .rows
            .iter()
            .find(|r| r.first().is_some_and(|k| k == name))
            .and_then(|r| r.get(1))
            .ok_or_else(|| format!("job-summary has no `{name}` row"))
    };
    for (name, value) in want {
        let got = row(name)?;
        if got != value {
            return Err(format!(
                "job-summary {name} = {got}, the oracle says {value}"
            ));
        }
    }
    let count = |name: &str| {
        row(name)?
            .parse::<u64>()
            .map_err(|_| format!("job-summary `{name}` is not a count"))
    };
    Ok([count("rounds")?, count("messages")?, count("words")?])
}

/// Validates every answer after the load: each artifact parses,
/// validates and agrees with the oracle, and answers for one key are
/// byte-identical. Failures and cold simulated cost go into `out`.
fn validate(answers: &[Answer], out: &mut RoundOut) -> Vec<f64> {
    let mut first_text: HashMap<u64, &str> = HashMap::new();
    let mut check_ms = Vec::new();
    for a in answers {
        let parsed = match parse_line(&a.terminal) {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("job {}: {e}", a.job.id));
                continue;
            }
        };
        let Some(text) = parsed.artifact.filter(|_| parsed.kind == "result") else {
            out.fail(format!("job {}: {}", a.job.id, a.terminal.trim_end()));
            continue;
        };
        match first_text.get(&a.job.key) {
            Some(first) if *first == text => continue,
            Some(_) => {
                out.fail(format!(
                    "job {}: answer differs from an earlier one for the same key",
                    a.job.id
                ));
                continue;
            }
            None => {}
        }
        first_text.insert(a.job.key, text);
        let t = Instant::now();
        let verdict = check_artifact(text, &oracle_rows(&a.job.spec));
        check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match verdict {
            // The key's one execution; later answers are copies.
            Ok(sim) => {
                for (total, x) in out.sim.iter_mut().zip(sim) {
                    *total += x;
                }
            }
            Err(e) => out.fail(format!("job {}: {e}", a.job.id)),
        }
    }
    check_ms
}

/// Runs the round's clients against a ready daemon.
fn load(
    mix: Mix,
    sessions: &mut [Session],
    feed: &Feed,
    epoch: Instant,
) -> io::Result<Vec<Answer>> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .iter_mut()
            .map(|s| scope.spawn(move || s.drive(mix.window(), feed, epoch)))
            .collect();
        let mut answers = Vec::new();
        for client in clients {
            answers.extend(client.join().expect("client thread")?);
        }
        Ok(answers)
    })
}

fn number(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Per-layer metrics from the daemon's own ops after the load.
fn proto_metrics(session: &mut Session, answers: &[Answer], m: &mut Metrics) -> io::Result<()> {
    let stats = session.ask("stats")?;
    let warm_ups = WARM_UP_KEYS.count() as f64;
    let submitted = (number(&stats, &["submitted"]) - warm_ups).max(1.0);
    m.insert(
        "serve.cache_hit_share",
        number(&stats, &["cache", "hits"]) / submitted,
    );
    m.insert(
        "serve.coalesced_share",
        number(&stats, &["coalesced"]) / submitted,
    );
    m.insert("serve.cold_runs", number(&stats, &["completed"]) - warm_ups);
    m.insert("serve.evictions", number(&stats, &["cache", "evictions"]));
    m.insert("serve.rejected", number(&stats, &["rejected"]));

    let t = Instant::now();
    session.ask("metrics")?;
    m.insert("obs.exposition_ms", t.elapsed().as_secs_f64() * 1e3);

    // The daemon's own span per submission: admission to terminal.
    let spans = session.ask("spans")?;
    let latency: HashMap<&str, f64> = answers
        .iter()
        .map(|a| (a.job.id.as_str(), a.latency_ms))
        .collect();
    let (mut queue, mut compute, mut stream) = (Vec::new(), Vec::new(), Vec::new());
    for span in spans.get("recent").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = span.get("id").and_then(Json::as_str).unwrap_or_default();
        let Some(total) = latency.get(id) else {
            continue; // a warm-up job
        };
        let at = |k: &str| number(span, &[k]) * 1e-6;
        let (queued, started, finished) = (
            at("queued_nanos"),
            at("started_nanos"),
            at("finished_nanos"),
        );
        if span.get("outcome").and_then(Json::as_str) == Some("completed") {
            queue.push(started - queued);
            compute.push(finished - started);
        }
        stream.push(total - (finished - queued));
    }
    for (name, samples) in [
        ("serve.queue_wait_p50_ms", queue),
        ("serve.compute_p50_ms", compute),
        ("serve.stream_p50_ms", stream),
    ] {
        if !samples.is_empty() {
            m.insert(name, stats::median(&samples));
        }
    }
    Ok(())
}

/// A tracer that records model events only, like the daemon's own.
struct ModelOnly(RecordingTracer);

impl Tracer for ModelOnly {
    fn wants_timing(&self) -> bool {
        false
    }

    fn record(&mut self, event: Event) {
        self.0.record(event);
    }
}

/// Replays of the daemon's layers on the round's own job specs.
fn replay(jobs: &[&Job], m: &mut Metrics) {
    let lines: Vec<String> = jobs.iter().map(|j| j.submit_line()).collect();
    let parse_s = time(|| {
        for line in &lines {
            let _ = std::hint::black_box(parse_request(line));
        }
    });
    m.insert(
        "serve.parse_us_per_submit",
        parse_s * 1e6 / lines.len() as f64,
    );
    let digest_s = time(|| {
        for job in jobs {
            std::hint::black_box(job.spec.cache_key());
        }
    });
    m.insert(
        "serve.digest_us_per_job",
        digest_s * 1e6 / jobs.len() as f64,
    );

    // Each spec once bare and once recorded: a job is tens of ms. The
    // event streams of one job per kind feed the fold items.
    let (mut bare_ms, mut recorded_ms) = (Vec::new(), Vec::new());
    let mut events: Vec<(usize, Vec<Event>)> = Vec::new();
    let mut kinds_seen = Vec::new();
    let mut event_count = 0;
    for job in jobs {
        let t = Instant::now();
        let _ = std::hint::black_box(execute(&job.spec, Box::new(NullTracer)));
        bare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let recorder = RecordingTracer::new();
        let t = Instant::now();
        let _ = std::hint::black_box(execute(&job.spec, Box::new(ModelOnly(recorder.clone()))));
        recorded_ms.push(t.elapsed().as_secs_f64() * 1e3);
        event_count += recorder.len();
        if !kinds_seen.contains(&job.spec.algorithm) {
            kinds_seen.push(job.spec.algorithm);
            events.push((job.spec.graph.n(), recorder.take_events()));
        }
    }
    let execute_ms = stats::median(&bare_ms);
    m.insert("serve.execute_ms", execute_ms);
    if let Some(compute) = m.get("serve.compute_p50_ms").copied() {
        m.insert("serve.instrumented_over_bare", compute / execute_ms);
    }
    m.insert(
        "trace.recording_over_null",
        recorded_ms.iter().sum::<f64>() / bare_ms.iter().sum::<f64>(),
    );
    let total_events: usize = events.iter().map(|(_, e)| e.len()).sum();
    let per_event = |seconds: f64| seconds * 1e9 / total_events.max(1) as f64;
    m.insert(
        "trace.events_per_op",
        event_count as f64 / jobs.len() as f64,
    );
    let head = |stream: &'_ [Event]| stream.len().min(JSONL_EVENTS);
    let jsonl_s = time(|| {
        let mut tracer = JsonlTracer::new(Vec::new());
        for (_, stream) in &events {
            for e in &stream[..head(stream)] {
                tracer.record(e.clone());
            }
        }
        tracer.into_inner().len()
    });
    let written: usize = events.iter().map(|(_, e)| head(e)).sum();
    m.insert(
        "trace.jsonl_ns_per_event",
        jsonl_s * 1e9 / written.max(1) as f64,
    );
    let lens_s = time(|| {
        for (n, stream) in &events {
            let _ = std::hint::black_box(CommLedger::fold(*n, &ModelSpec::clique(), stream));
        }
    });
    m.insert("lens.fold_ns_per_event", per_event(lens_s));
    let profile_s = time(|| {
        for (_, stream) in &events {
            std::hint::black_box(Profile::from_events(stream));
        }
    });
    m.insert("profile.fold_ns_per_event", per_event(profile_s));
}

/// The client's view of one job as spans: the job, and under it one span
/// per response line, lasting until the next line arrives.
fn client_trace(answer: &Answer, op: u64) -> OpTrace {
    let span = |name: &str, start_ns, end_ns, parent| Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        counts: Counts::default(),
    };
    let submitted = answer.marks.first().map_or(0, |m| m.1);
    let answered = answer.marks.last().map_or(0, |m| m.1);
    let mut spans = vec![span("op", submitted, answered, None)];
    if let Some(lines) = answer.marks.get(1..) {
        for pair in lines.windows(2) {
            spans.push(span(&pair[0].0, pair[0].1, pair[1].1, Some(0)));
        }
    }
    OpTrace {
        op,
        spans,
        ..OpTrace::default()
    }
}

/// Connects the round's clients: sockets to the TCP daemon, or the one
/// session a stdio daemon has.
fn connect(mix: Mix, daemon: &mut Daemon, address: Option<String>) -> io::Result<Vec<Session>> {
    match address {
        Some(address) => (0..mix.clients())
            .map(|_| {
                let stream = TcpStream::connect(&address)?;
                Ok(Session::new(stream.try_clone()?, stream))
            })
            .collect(),
        None => {
            let stdin = daemon.child.stdin.take().expect("piped stdin");
            let stdout = daemon.child.stdout.take().expect("piped stdout");
            Ok(vec![Session::new(stdout, stdin)])
        }
    }
}

/// Two distinct jobs of each kind, to stand for the mix in the replays.
fn sample_of(answers: &[Answer]) -> Vec<&Job> {
    let mut sample: Vec<&Job> = Vec::new();
    for a in answers {
        let seen = sample.iter().any(|j| j.key == a.job.key);
        let of_kind = sample.iter().filter(|j| j.key % 3 == a.job.key % 3);
        if !seen && of_kind.count() < 2 {
            sample.push(&a.job);
        }
    }
    sample
}

/// One round of a service workload: a fresh daemon, the load, shutdown,
/// then validation of every answer.
///
/// `traced` adds the per-layer half: idle round trips before the load,
/// clients that note when the lines of every other job arrive, the
/// daemon's own ops after the load, and the replays.
pub fn round(
    started: Instant,
    bin: &Path,
    mix: Mix,
    seed: u64,
    round: u64,
    budget: Budget,
    traced: bool,
) -> io::Result<RoundOut> {
    let mut layers = Metrics::new();
    let mut out = RoundOut::default();
    let spawned = Instant::now();
    let (mut daemon, address) = Daemon::spawn(bin, mix)?;
    let mut sessions = connect(mix, &mut daemon, address)?;
    let health = sessions[0].ask("health")?;
    if health.get("ok").and_then(Json::as_bool) != Some(true) {
        let report = health.emit();
        return Err(protocol_error(format!("daemon not healthy: {report}")));
    }
    layers.insert("serve.spawn_ms", spawned.elapsed().as_secs_f64() * 1e3);
    if traced {
        let name = match mix {
            Mix::Dup => "serve.tcp_rtt_ms",
            Mix::Cold => "serve.stdio_rtt_ms",
        };
        layers.insert(name, sessions[0].health_rtt_ms()?);
    }
    sessions[0].warm_up(mix, seed)?;
    out.setup_s = started.elapsed().as_secs_f64();

    let epoch = Instant::now();
    let cpu_before = procfs::cpu_ms(daemon.pid())?;
    let timed = Instant::now();
    let feed = Feed {
        jobs: Mutex::new(Jobs::new(mix, seed, round)),
        // A traced round leaves half its time to the replays.
        budget: if traced { budget.share(0.5) } else { budget },
        timed,
        traced,
    };
    let answers = load(mix, &mut sessions, &feed, epoch)?;
    out.wall_s = timed.elapsed().as_secs_f64();
    out.cpu_ms = procfs::cpu_ms(daemon.pid())? - cpu_before;
    out.peak_rss_mb = procfs::peak_rss_mb(daemon.pid())?;
    let (marked, plain): (Vec<&Answer>, Vec<&Answer>) =
        answers.iter().partition(|a| !a.marks.is_empty());
    out.latencies_ms = plain.iter().map(|a| a.latency_ms).collect();
    if !marked.is_empty() {
        let marked_ms: Vec<f64> = marked.iter().map(|a| a.latency_ms).collect();
        layers.insert(
            "bench.trace_overhead",
            stats::median(&marked_ms) / stats::median(&out.latencies_ms),
        );
    }
    if traced {
        proto_metrics(&mut sessions[0], &answers, &mut layers)?;
    }
    let closing = sessions[0].ask("shutdown")?;
    if closing.get("kind").and_then(Json::as_str) != Some("closing") {
        return Err(protocol_error("shutdown was not acknowledged"));
    }
    // A TCP daemon exits once every session's socket is closed.
    drop(sessions);
    daemon.reap()?;

    let check_ms = validate(&answers, &mut out);
    if !traced {
        return Ok(out);
    }
    let count = answers.len().max(1) as f64;
    let total = |f: fn(&Answer) -> u64| answers.iter().map(f).sum::<u64>() as f64;
    layers.insert("serve.lines_per_job", total(|a| a.lines) / count);
    layers.insert("serve.response_bytes_per_job", total(|a| a.bytes) / count);
    layers.insert("net.rounds", out.sim[0] as f64 / count);
    layers.insert("net.messages", out.sim[1] as f64 / count);
    layers.insert("net.words", out.sim[2] as f64 / count);
    if !check_ms.is_empty() {
        layers.insert("graph.oracle_ms", stats::median(&check_ms));
    }
    let sample = sample_of(&answers);
    let build_s = time(|| {
        for job in &sample {
            std::hint::black_box(Input::build(&job.spec));
        }
    });
    layers.insert("graph.gen_ms", build_s * 1e3 / sample.len().max(1) as f64);
    replay(&sample, &mut layers);

    // The dump shows a job a worker ran, not a one-line cache hit.
    let shown = answers
        .iter()
        .enumerate()
        .find(|(_, a)| a.marks.len() > 2)
        .map_or(Json::Null, |(i, a)| client_trace(a, i as u64).to_json());
    out.trace = Some(TraceOut {
        layers: layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        scopes: BTreeMap::new(),
        spans: shown,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(mix: Mix, seed: u64, count: usize) -> Vec<u64> {
        let mut jobs = Jobs::new(mix, seed, 0);
        (0..count).map(|_| jobs.next_job().key).collect()
    }

    #[test]
    fn key_mix_is_a_function_of_the_seed() {
        assert_eq!(keys(Mix::Dup, 3, 200), keys(Mix::Dup, 3, 200));
        assert_ne!(keys(Mix::Dup, 3, 200), keys(Mix::Dup, 4, 200));
        let mut a = Jobs::new(Mix::Dup, 3, 0);
        let mut b = Jobs::new(Mix::Dup, 4, 0);
        assert_ne!(a.next_job().spec, b.next_job().spec);
        let mut again = Jobs::new(Mix::Dup, 3, 0);
        assert_eq!(
            Jobs::new(Mix::Dup, 3, 0).next_job().spec,
            again.next_job().spec
        );
    }

    #[test]
    fn dup_repeats_nine_in_ten_cold_never() {
        let dup = keys(Mix::Dup, 9, 400);
        let mut distinct = dup.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 40);
        // Any prefix holds the same share: the mix is stationary.
        let mut head = dup[..100].to_vec();
        head.sort_unstable();
        head.dedup();
        assert_eq!(head.len(), 10);
        let cold = keys(Mix::Cold, 9, 100);
        let mut distinct = cold.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 100);
        // Rounds draw disjoint keys.
        assert!(Jobs::new(Mix::Cold, 9, 1).next_job().key > *cold.last().unwrap());
    }

    #[test]
    fn specs_are_valid_and_kinds_cycle() {
        for mix in [Mix::Dup, Mix::Cold] {
            for key in 0..6 {
                let spec = spec_for(mix, 1, key);
                spec.validate().unwrap();
                let want = [Algorithm::GcSketch, Algorithm::ExactMst, Algorithm::RtConn];
                assert_eq!(spec.algorithm, want[key as usize % 3]);
            }
        }
    }

    #[test]
    fn result_lines_split_at_the_artifact() {
        let line =
            "{\"kind\":\"result\",\"id\":\"j7\",\"cached\":true,\"artifact\":{\"a\":{\"b\":1}}}\n";
        let p = parse_line(line).unwrap();
        assert_eq!((p.kind.as_str(), p.id.as_str()), ("result", "j7"));
        assert_eq!(p.artifact, Some("{\"a\":{\"b\":1}}"));
        let p =
            parse_line("{\"kind\":\"progress\",\"id\":\"j7\",\"phase\":\"phase1\",\"round\":0}")
                .unwrap();
        assert_eq!(p.phase.as_deref(), Some("phase1"));
        assert!(p.artifact.is_none());
        assert!(parse_line("garbage").is_err());
    }

    #[test]
    fn oracle_catches_a_wrong_summary() {
        let spec = spec_for(Mix::Dup, 5, 1);
        let outcome = execute(&spec, Box::new(NullTracer)).unwrap();
        let mut artifact = RunArtifact::new("test");
        let table = |rows: &[(String, String)]| cc_trace::ExperimentRecord {
            id: "job-summary".into(),
            caption: String::new(),
            headers: vec!["metric".into(), "value".into()],
            rows: rows
                .iter()
                .map(|(k, v)| vec![k.clone(), v.clone()])
                .collect(),
        };
        artifact.experiments.push(table(&outcome.summary));
        let sim = check_artifact(&artifact.to_json().emit(), &oracle_rows(&spec)).unwrap();
        assert_eq!(
            sim,
            [
                outcome.cost.rounds,
                outcome.cost.messages,
                outcome.cost.words
            ]
        );

        let mut wrong = outcome.summary.clone();
        for row in &mut wrong {
            if row.0 == "mst_weight" {
                row.1.push('0');
            }
        }
        artifact.experiments[0] = table(&wrong);
        let err = check_artifact(&artifact.to_json().emit(), &oracle_rows(&spec)).unwrap_err();
        assert!(err.contains("mst_weight"), "{err}");
    }
}
