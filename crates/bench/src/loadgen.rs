//! `bench loadgen`: a deterministic load bench for the cc-serve job
//! service.
//!
//! Spins up an in-process [`Server`], drives it with `clients` concurrent
//! closed-loop clients (each submits a job, waits for its terminal
//! response, submits the next), and reports throughput and latency
//! percentiles from the existing log₂-bucketed histogram digests.
//!
//! The job mix is seeded: every client draws its job keys from its own
//! `ChaCha8Rng` stream over a small `distinct` universe, so the mix is
//! duplicate-heavy by construction and *which* jobs run is reproducible
//! run-to-run. That makes the serve quantities the bench reports —
//! total submissions, cold executions, duplicate answers, hit rate,
//! rejections, evictions — exactly reproducible, so the `perf` record
//! (`docs/perf_tables.txt`, table P3) carries them next to the summed
//! model cost of the cold runs. The latency percentiles are printed by
//! the `loadgen` binary only.
//!
//! The summed cold model cost is read back out of the artifacts the
//! server streamed (each carries its `rounds`/`messages`/`words` in the
//! `job-summary` table), so the record also re-checks, end to end, that
//! the serving layer did not perturb the simulations it wraps. The job,
//! hit and link counts come from [`summarize_lines`] over the response
//! lines the clients received — the same summary `cc-top --once` prints
//! — and are cross-checked against the server's own counters. Byte
//! identity across duplicate answers is asserted on every run.

use crate::top::summarize_lines;
use cc_serve::job::{Algorithm, Engine, GraphSpec, JobSpec};
use cc_serve::pool::{Response, ServeConfig, Server};
use cc_trace::{LogHistogram, RunArtifact};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::time::Instant;

/// Load-bench shape: client count, per-client job count, and the size of
/// the duplicate-heavy key universe.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Jobs each client submits sequentially.
    pub jobs_per_client: usize,
    /// Distinct job keys in the mix; everything beyond the first draw of
    /// a key is a duplicate.
    pub distinct: u64,
    /// Base seed for the per-client job streams.
    pub seed: u64,
    /// Graph size of every job in the mix.
    pub n: usize,
    /// Server sizing.
    pub serve: ServeConfig,
}

impl Default for LoadgenConfig {
    /// 8 clients × 16 jobs over 12 distinct keys (≈ 91% duplicates at
    /// the margin; the realized rate depends on the draw and is exactly
    /// reproducible per seed).
    fn default() -> Self {
        LoadgenConfig {
            clients: 8,
            jobs_per_client: 16,
            distinct: 12,
            seed: 7,
            n: 20,
            serve: ServeConfig {
                workers: 2,
                queue_capacity: 256,
                cache_capacity: 256,
            },
        }
    }
}

/// What one load run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// The configuration that produced it.
    pub cfg: LoadgenConfig,
    /// Jobs submitted (= answered; the closed loop waits for each).
    pub total_jobs: u64,
    /// Cold executions (distinct keys actually drawn).
    pub cold_runs: u64,
    /// Duplicate submissions answered without executing.
    pub dup_answers: u64,
    /// Duplicate hit rate in thousandths (deterministic per seed).
    pub hit_milli: u64,
    /// Submissions rejected (0 in a correctly sized run).
    pub rejected: u64,
    /// Cache evictions (0 when the cache covers the key universe).
    pub evictions: u64,
    /// Wall time of the whole run, nanoseconds.
    pub wall_nanos: u64,
    /// Throughput over the whole run.
    pub jobs_per_sec: f64,
    /// Latency percentiles (submit → terminal response), nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile latency.
    pub p95_nanos: u64,
    /// 99th percentile latency.
    pub p99_nanos: u64,
    /// Mean latency.
    pub mean_nanos: u64,
    /// Summed model cost of the cold runs, read back from the streamed
    /// artifacts: `(rounds, messages, words)`.
    pub cold_model: (u64, u64, u64),
    /// Summed `comm.words` over the cold artifacts' embedded cc-lens
    /// folds.
    pub comm_words: u64,
    /// Max `comm.peak_util_milli` over the cold artifacts.
    pub comm_peak_util_milli: u64,
}

/// The job a mix key stands for. Deterministic: the key fully determines
/// the spec, so duplicate keys are duplicate jobs.
pub fn job_for_key(key: u64, n: usize) -> JobSpec {
    let graph_seed = 100 + key;
    match key % 3 {
        0 => JobSpec {
            graph: GraphSpec::RandomConnected {
                n,
                degree_milli: 3000,
                seed: graph_seed,
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed: 1,
        },
        1 => JobSpec {
            graph: GraphSpec::CompleteWeighted {
                n: n.min(16),
                seed: graph_seed,
            },
            algorithm: Algorithm::ExactMst,
            engine: Engine::Net,
            seed: 1,
        },
        _ => JobSpec {
            graph: GraphSpec::RandomConnected {
                n,
                degree_milli: 3000,
                seed: graph_seed,
            },
            algorithm: Algorithm::RtConn,
            engine: Engine::Serial,
            seed: 1,
        },
    }
}

/// One client's outcome: per-job latencies, the artifacts received
/// (keyed by mix key), and every response rendered as a protocol line —
/// the same text a stdio session would have written, so `cc-top` can
/// summarize a load run from exactly the bytes the clients saw.
struct ClientRun {
    latencies: Vec<u64>,
    artifacts: Vec<(u64, String)>,
    lines: Vec<String>,
}

fn run_client(server: &Server, client: usize, cfg: &LoadgenConfig) -> Result<ClientRun, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (0x9e37_79b9 * (client as u64 + 1)));
    let (tx, rx) = channel();
    let mut latencies = Vec::with_capacity(cfg.jobs_per_client);
    let mut artifacts = Vec::with_capacity(cfg.jobs_per_client);
    let mut lines = Vec::new();
    for j in 0..cfg.jobs_per_client {
        let key = rng.gen_range(0..cfg.distinct);
        let id = format!("c{client}-j{j}");
        let t0 = Instant::now();
        server.submit(&id, job_for_key(key, cfg.n), &tx);
        loop {
            let r = rx
                .recv()
                .map_err(|_| format!("{id}: server dropped the response channel"))?;
            lines.push(r.to_line());
            match r {
                Response::Result { artifact, .. } => {
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    artifacts.push((key, artifact.to_string()));
                    break;
                }
                Response::Rejected { reason, .. } => {
                    return Err(format!("{id}: rejected ({reason}) — size the queue up"))
                }
                Response::Error { error, .. } => return Err(format!("{id}: failed ({error})")),
                _ => {} // queued / running / progress
            }
        }
    }
    Ok(ClientRun {
        latencies,
        artifacts,
        lines,
    })
}

/// Reads `rounds`/`messages`/`words` back out of an artifact's
/// `job-summary` table.
fn model_of_artifact(text: &str) -> Result<(u64, u64, u64), String> {
    let artifact = RunArtifact::from_json_str(text)?;
    let table = artifact
        .experiments
        .iter()
        .find(|e| e.id == "job-summary")
        .ok_or("artifact lacks a job-summary table")?;
    let field = |name: &str| -> Result<u64, String> {
        table
            .rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(name))
            .and_then(|r| r.get(1))
            .ok_or_else(|| format!("job-summary lacks {name}"))?
            .parse::<u64>()
            .map_err(|e| format!("job-summary {name}: {e}"))
    };
    Ok((field("rounds")?, field("messages")?, field("words")?))
}

/// Runs the load bench: starts a server, drives it with the configured
/// concurrent clients, verifies the duplicate-answer byte-identity
/// invariant, and folds latencies into percentile estimates.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    run_with_responses(cfg).map(|(report, _)| report)
}

/// Like [`run`], but also returns every response the clients received as
/// protocol lines (concatenated in client index order). This is the
/// stream `loadgen --log` writes, and the report's counts are its
/// `cc-top --once` summary.
pub fn run_with_responses(cfg: &LoadgenConfig) -> Result<(LoadgenReport, Vec<String>), String> {
    if cfg.clients == 0 || cfg.jobs_per_client == 0 || cfg.distinct == 0 {
        return Err("clients, jobs-per-client, and distinct must be positive".into());
    }
    let server = Server::start(cfg.serve);
    let t0 = Instant::now();
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let server = &server;
                scope.spawn(move || run_client(server, c, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_nanos = t0.elapsed().as_nanos() as u64;
    server.close();
    server.drain();
    let stats = server.stats();
    server.join();

    let mut hist = LogHistogram::new();
    let mut by_key: HashMap<u64, Vec<String>> = HashMap::new();
    let mut lines = Vec::new();
    for run in runs {
        let mut run = run?;
        for l in run.latencies {
            hist.observe(l);
        }
        for (key, artifact) in run.artifacts {
            by_key.entry(key).or_default().push(artifact);
        }
        lines.append(&mut run.lines);
    }

    // The serving guarantee, re-checked on every load run: all answers
    // for a key are byte-identical.
    let mut cold_model = (0u64, 0u64, 0u64);
    for (key, answers) in &by_key {
        if let Some(diff) = answers.windows(2).find(|w| w[0] != w[1]) {
            let _ = diff;
            return Err(format!("answers for key {key} are not byte-identical"));
        }
        let (r, m, w) = model_of_artifact(&answers[0])?;
        cold_model.0 += r;
        cold_model.1 += m;
        cold_model.2 += w;
    }

    let summary = summarize_lines(&lines)?;
    let distinct = by_key.len() as u64;
    if summary.cold_runs != distinct || stats.completed != distinct {
        return Err(format!(
            "cold runs {} (server: {}) != distinct keys drawn {distinct} — coalescing broke",
            summary.cold_runs, stats.completed
        ));
    }
    if stats.cache.hits + stats.coalesced != summary.dup_answers {
        return Err(format!(
            "duplicate answers {} != server cache hits {} + coalesced {}",
            summary.dup_answers, stats.cache.hits, stats.coalesced
        ));
    }
    let snap = hist.snapshot();
    let report = LoadgenReport {
        cfg: *cfg,
        total_jobs: summary.jobs,
        cold_runs: summary.cold_runs,
        dup_answers: summary.dup_answers,
        hit_milli: summary.hit_milli,
        rejected: summary.rejected,
        evictions: stats.cache.evictions,
        wall_nanos,
        jobs_per_sec: if wall_nanos == 0 {
            0.0
        } else {
            summary.jobs as f64 * 1e9 / wall_nanos as f64
        },
        p50_nanos: snap.quantile(0.50),
        p95_nanos: snap.quantile(0.95),
        p99_nanos: snap.quantile(0.99),
        mean_nanos: snap.mean() as u64,
        cold_model,
        comm_words: summary.comm_words,
        comm_peak_util_milli: summary.comm_peak_util_milli,
    };
    Ok((report, lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadgenConfig {
        LoadgenConfig {
            clients: 3,
            jobs_per_client: 4,
            distinct: 4,
            seed: 7,
            n: 12,
            serve: ServeConfig {
                workers: 2,
                queue_capacity: 64,
                cache_capacity: 64,
            },
        }
    }

    #[test]
    fn tiny_load_run_is_model_deterministic() {
        let a = run(&tiny()).expect("load run");
        let b = run(&tiny()).expect("load run");
        assert_eq!(a.total_jobs, 12);
        assert_eq!(a.total_jobs, b.total_jobs);
        assert_eq!(a.cold_runs, b.cold_runs);
        assert_eq!(a.dup_answers, b.dup_answers);
        assert_eq!(a.hit_milli, b.hit_milli);
        assert_eq!(a.cold_model, b.cold_model);
        assert_eq!(a.comm_words, b.comm_words);
        assert_eq!(a.comm_peak_util_milli, b.comm_peak_util_milli);
        assert!(a.comm_words > 0 && a.comm_peak_util_milli > 0);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.evictions, 0);
        assert!(a.cold_runs <= 4);
        assert_eq!(a.cold_runs + a.dup_answers, a.total_jobs);
    }

    #[test]
    fn percentiles_are_ordered_and_positive() {
        let r = run(&tiny()).expect("load run");
        assert!(r.p50_nanos > 0);
        assert!(r.p50_nanos <= r.p95_nanos);
        assert!(r.p95_nanos <= r.p99_nanos);
        assert!(r.jobs_per_sec > 0.0);
    }

    #[test]
    fn job_mix_covers_all_algorithms() {
        let specs: Vec<JobSpec> = (0..6).map(|k| job_for_key(k, 16)).collect();
        assert!(specs.iter().any(|s| s.algorithm == Algorithm::GcSketch));
        assert!(specs.iter().any(|s| s.algorithm == Algorithm::ExactMst));
        assert!(specs.iter().any(|s| s.algorithm == Algorithm::RtConn));
        for s in &specs {
            s.validate().expect("mix jobs must be valid");
        }
    }
}
