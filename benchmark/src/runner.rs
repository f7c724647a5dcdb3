//! The runner: spawns one child process per (workload, round), folds
//! what the children report, and prints or writes the result.
//!
//! A child per round keeps peak memory and CPU per round clean, and a
//! crash in one op of one workload cannot take the other numbers along.

use crate::procfs;
use crate::replay::Replay;
use crate::result::{self, RunFile, WorkloadResult};
use crate::round::{self, Budget, RoundOut};
use crate::serve::{self, Mix};
use crate::spec::{self, Bound, Workload, END_TO_END, PER_LAYER, ROUNDS, WORKLOADS};
use crate::workloads::{Gc, Kt1Sparse, Library, MstKkt, RtEngines, SketchKernel};
use cc_trace::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Op indices of round `r` start at `r << ROUND_SHIFT`, so the rounds of
/// a run draw different net seeds.
const ROUND_SHIFT: u32 = 20;

/// What a child process is asked to do.
#[derive(Clone, Debug)]
pub struct ChildJob {
    pub workload: String,
    pub round: u64,
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    /// The built `serve` binary, for the service workloads.
    pub serve_bin: Option<PathBuf>,
}

impl ChildJob {
    fn to_args(&self) -> Vec<String> {
        let (flag, amount) = match self.budget {
            Budget::Ops(n) => ("--ops", n.to_string()),
            Budget::Seconds(s) => ("--seconds", s.to_string()),
        };
        let mut args = vec![
            "child".to_string(),
            "--workload".into(),
            self.workload.clone(),
            "--round".into(),
            self.round.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            flag.into(),
            amount,
            "--trace".into(),
            u8::from(self.traced).to_string(),
        ];
        if let Some(bin) = &self.serve_bin {
            args.push("--serve-bin".into());
            args.push(bin.display().to_string());
        }
        args
    }
}

/// The child side: runs one round and returns what it measured.
/// `started` is when this process began.
pub fn child(job: &ChildJob, started: Instant) -> Result<RoundOut, String> {
    let seed = job.seed;
    if let Some(mix) = Mix::of(&job.workload) {
        let bin = job
            .serve_bin
            .as_deref()
            .ok_or("a service workload needs --serve-bin")?;
        return serve::round(started, bin, mix, seed, job.round, job.budget, job.traced)
            .map_err(|e| format!("{}: {e}", job.workload));
    }
    Ok(match job.workload.as_str() {
        "gc-reduce" => library(job, started, || Gc::reduce(seed)),
        "gc-span" => library(job, started, || Gc::span(seed)),
        "mst-kkt" => library(job, started, || MstKkt::new(seed)),
        "kt1-sparse" => library(job, started, || Kt1Sparse::new(seed)),
        "rt-engines" => library(job, started, || RtEngines::new(seed, 0)),
        "sketch-kernel" => library(job, started, || SketchKernel::new(seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn library<W: Library + Replay>(
    job: &ChildJob,
    started: Instant,
    make: impl FnOnce() -> W,
) -> RoundOut {
    let first = job.round << ROUND_SHIFT;
    match job.traced {
        false => round::library(started, make, job.budget, first),
        true => round::library_traced(started, make, job.budget, first, job.seed),
    }
}

/// Runs `job` in a child process of this executable.
fn spawn(job: &ChildJob) -> Result<RoundOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(job.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", job.workload))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child (round {}) ended with {}",
            job.workload, job.round, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{} child output: {e}", job.workload))?;
    RoundOut::from_json(&doc)
}

/// The directory cargo put this executable's profile in (`…/release`).
fn profile_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the executable has no parent directory".to_string())
}

/// Builds the repository's `serve` binary next to this executable and
/// returns its path. A no-op build costs a fraction of a second, and it
/// is the only way to know the daemon matches the sources.
pub fn build_serve() -> Result<PathBuf, String> {
    let profile = profile_dir()?;
    let target = profile
        .parent()
        .ok_or("the profile directory has no parent")?;
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args([
        "build",
        "--quiet",
        "--offline",
        "-p",
        "cc-serve",
        "--bin",
        "serve",
    ])
    .arg("--manifest-path")
    .arg(manifest)
    .arg("--target-dir")
    .arg(target)
    .stdin(Stdio::null())
    // The last line of stdout belongs to the result.
    .stdout(Stdio::null());
    if profile.file_name().is_some_and(|p| p == "release") {
        cmd.arg("--release");
    }
    let status = cmd.status().map_err(|e| format!("running cargo: {e}"))?;
    let bin = profile.join("serve");
    if !status.success() || !bin.is_file() {
        return Err(format!("building serve failed ({status})"));
    }
    Ok(bin)
}

fn is_service(w: &Workload) -> bool {
    Mix::of(w.name).is_some()
}

/// Where a run leaves files it was not given a path for: under the
/// build directory, which is never committed.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = profile_dir()?.join("ccbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn job_for(
    w: &Workload,
    round: u64,
    seed: u64,
    budget: Budget,
    traced: bool,
    serve_bin: Option<&Path>,
) -> ChildJob {
    ChildJob {
        workload: w.name.to_string(),
        round,
        seed,
        budget,
        traced,
        serve_bin: serve_bin.filter(|_| is_service(w)).map(Path::to_path_buf),
    }
}

fn print_workload(kind: &str, r: &WorkloadResult) {
    let tail = match r.tail_pct {
        0 => String::new(),
        p => format!(", tail = p{p}"),
    };
    println!(
        "\n{} [{kind}]: {} ops, {} failed{tail}",
        r.name, r.attempted, r.failed
    );
    for (name, value) in &r.metrics {
        let m = spec::metric(name);
        let unit = m.map_or("", |m| m.unit);
        let bound = m.map_or(String::new(), |m| m.bound.describe());
        println!("  {name:<32} {value:>16.4} {unit:<9} {bound}");
    }
    if !r.scopes.is_empty() {
        println!("  scope, per op: calls, and rounds / messages / words inside it");
    }
    for (name, s) in &r.scopes {
        println!(
            "  {name:<32} {:>8.2} {:>10.1} {:>12.1} {:>12.1}",
            s.calls, s.rounds, s.messages, s.words
        );
    }
    if let Some(why) = &r.first_failure {
        println!("  first failure: {why}");
    }
}

/// `run` and `smoke`: every workload untraced, `share` of its fixed op
/// count in each of `rounds` rounds, interleaved W1..W8 so host drift
/// spreads over all.
pub fn run_all(seed: u64, rounds: usize, share: f64, kind: &str) -> Result<RunFile, String> {
    let serve_bin = build_serve()?;
    let mut outs: Vec<Vec<RoundOut>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..rounds as u64 {
        for (w, outs) in WORKLOADS.iter().zip(&mut outs) {
            let budget = Budget::Ops(w.ops).share(share);
            let job = job_for(w, round, seed, budget, false, Some(&serve_bin));
            let t = Instant::now();
            let out = spawn(&job)?;
            eprintln!(
                "round {round} {:<14} {:>4} ops in {:.1} s",
                w.name,
                out.latencies_ms.len(),
                t.elapsed().as_secs_f64()
            );
            outs.push(out);
        }
    }
    let workloads: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .zip(&outs)
        .map(|(w, outs)| result::end_to_end(w, outs))
        .collect();
    for r in &workloads {
        print_workload(kind, r);
    }
    Ok(file(kind, seed, workloads))
}

/// `trace`: every workload once under the sink, with replays and the
/// daemon's own ops; writes one span dump per workload into `spans_dir`.
pub fn trace_all(seed: u64, share: f64, spans_dir: &Path) -> Result<RunFile, String> {
    let serve_bin = build_serve()?;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let budget = Budget::Ops(w.ops).share(share);
        let job = job_for(w, 0, seed, budget, true, Some(&serve_bin));
        let out = spawn(&job)?;
        write_spans(spans_dir, w, &out)?;
        let r = result::per_layer(w, &out);
        print_workload("trace", &r);
        workloads.push(r);
    }
    Ok(file("trace", seed, workloads))
}

fn write_spans(dir: &Path, w: &Workload, out: &RoundOut) -> Result<(), String> {
    let Some(trace) = &out.trace else {
        return Ok(());
    };
    let path = dir.join(format!("spans-{}.json", w.name));
    std::fs::write(&path, trace.spans.emit_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn file(kind: &str, seed: u64, workloads: Vec<WorkloadResult>) -> RunFile {
    RunFile {
        kind: kind.to_string(),
        seed,
        host: procfs::host_info()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        workloads,
    }
}

/// The first op that failed, if any: a run with one is an error.
pub fn first_failure(file: &RunFile) -> Option<String> {
    file.workloads.iter().find_map(|w| {
        let why = w.first_failure.as_deref().unwrap_or("no message");
        (w.failed > 0).then(|| {
            format!(
                "{}: {} of {} ops failed; first: {why}",
                w.name, w.failed, w.attempted
            )
        })
    })
}

/// The driver's contract: one workload for `seconds`, then one JSON
/// object as the last line of stdout. `--trace 0` prints the bounded
/// end-to-end metrics, `--trace 1` every per-layer metric (0 for a layer
/// the workload leaves idle).
pub fn driver(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let w = spec::workload(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let serve_bin = if is_service(w) {
        Some(build_serve()?)
    } else {
        None
    };
    let serve_bin = serve_bin.as_deref();
    let (result, listed) = if traced {
        let budget = Budget::Seconds(seconds);
        let out = spawn(&job_for(w, 0, seed, budget, true, serve_bin))?;
        write_spans(&scratch_dir()?, w, &out)?;
        (result::per_layer(w, &out), PER_LAYER)
    } else {
        let budget = Budget::Seconds(seconds / ROUNDS as f64);
        let outs = (0..ROUNDS as u64)
            .map(|round| spawn(&job_for(w, round, seed, budget, false, serve_bin)))
            .collect::<Result<Vec<_>, _>>()?;
        (result::end_to_end(w, &outs), END_TO_END)
    };
    print_workload(if traced { "trace" } else { "run" }, &result);
    let metrics = listed
        .iter()
        .filter(|m| traced || matches!(m.bound, Bound::Share(_)))
        .map(|m| {
            let value = result.metrics.get(m.name).copied().unwrap_or(0.0);
            let entry = Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::UInt(result.attempted.max(1))),
        ("failed", Json::UInt(result.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.emit());
    Ok(())
}
