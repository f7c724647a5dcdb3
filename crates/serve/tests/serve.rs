//! End-to-end serve tests: hash canonicalization properties, worker-pool
//! shutdown semantics under load, in-flight capacity, the duplicate
//! cache-hit guarantee, and the live comm fold matching a recorded one.
//!
//! The load-shaped tests gate at runtime like `tests/stress.rs`: they run
//! in release builds (CI's smoke check) and skip in debug unless
//! `CC_STRESS=1`.

use cc_lens::{comm_metrics, CommLedger};
use cc_model::ModelSpec;
use cc_serve::hash::{graph_digest, mix64, wgraph_digest};
use cc_serve::job::{execute, Algorithm, Engine, GraphSpec, JobSpec};
use cc_serve::pool::{Response, ServeConfig, Server, SubmitOutcome};
use cc_trace::{RecordingTracer, RunArtifact};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc::channel;

/// Same predicate as `tests/stress.rs`: debug builds skip unless
/// `CC_STRESS=1`; release builds always run.
fn skip_stress(debug_build: bool, cc_stress: Option<&str>) -> bool {
    debug_build && cc_stress.is_none_or(|v| v.trim() != "1")
}

macro_rules! stress_gate {
    () => {
        let var = std::env::var("CC_STRESS").ok();
        if skip_stress(cfg!(debug_assertions), var.as_deref()) {
            eprintln!(
                "skipping serve stress test in debug build (set CC_STRESS=1 or use --release)"
            );
            return;
        }
    };
}

/// Deterministic permutation of `items` keyed on `seed` (sort by a hash
/// of the index — a seeded shuffle without any RNG dependency).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut keyed: Vec<(u64, &T)> = items
        .iter()
        .enumerate()
        .map(|(i, e)| (mix64(seed ^ i as u64), e))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, e)| e.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The canonical graph digest is invariant under edge permutation,
    /// endpoint flips, and duplicate edges — the property the result
    /// cache's correctness rests on.
    #[test]
    fn graph_digest_is_canonical(
        edges in proptest::collection::vec((0u32..32, 0u32..32), 1..48),
        seed in any::<u64>(),
        dup_stride in 1usize..5,
    ) {
        let n = 32;
        let base = graph_digest(n, &edges);

        // Permute the list.
        prop_assert_eq!(base, graph_digest(n, &shuffled(&edges, seed)));

        // Flip endpoint order of every edge.
        let flipped: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        prop_assert_eq!(base, graph_digest(n, &flipped));

        // Duplicate every `dup_stride`-th edge (flipped, for spice) and
        // shuffle again.
        let mut dup = edges.clone();
        dup.extend(edges.iter().step_by(dup_stride).map(|&(u, v)| (v, u)));
        prop_assert_eq!(base, graph_digest(n, &shuffled(&dup, seed ^ 1)));
    }

    /// Distinct canonical edge sets get distinct digests (no accidental
    /// cancellation), and `n` is part of the identity.
    #[test]
    fn graph_digest_separates(
        edges in proptest::collection::vec((0u32..32, 0u32..32), 1..48),
        extra in (0u32..32, 32u32..40),
    ) {
        let n = 48;
        let base = graph_digest(n, &edges);
        // `extra` has an endpoint ≥ 32, so it is never already present.
        let mut more = edges.clone();
        more.push(extra);
        prop_assert_ne!(base, graph_digest(n, &more));
        prop_assert_ne!(base, graph_digest(n + 1, &edges));
    }

    /// The weighted digest has the same invariances, with weights part of
    /// the identity.
    #[test]
    fn wgraph_digest_is_canonical(
        edges in proptest::collection::vec((0u32..24, 0u32..24, 1u64..100), 1..32),
        seed in any::<u64>(),
    ) {
        let n = 24;
        let base = wgraph_digest(n, &edges);
        prop_assert_eq!(base, wgraph_digest(n, &shuffled(&edges, seed)));
        let flipped: Vec<(u32, u32, u64)> =
            edges.iter().map(|&(u, v, w)| (v, u, w)).collect();
        prop_assert_eq!(base, wgraph_digest(n, &flipped));
        // Bump one weight out of its generated range: different graph.
        let mut bumped = edges.clone();
        bumped[0].2 += 1000;
        prop_assert_ne!(base, wgraph_digest(n, &bumped));
    }
}

fn gc_job(n: usize, graph_seed: u64, run_seed: u64) -> JobSpec {
    JobSpec {
        graph: GraphSpec::RandomConnected {
            n,
            degree_milli: 3000,
            seed: graph_seed,
        },
        algorithm: Algorithm::GcSketch,
        engine: Engine::Net,
        seed: run_seed,
    }
}

fn mst_job(n: usize, graph_seed: u64, run_seed: u64) -> JobSpec {
    JobSpec {
        graph: GraphSpec::CompleteWeighted {
            n,
            seed: graph_seed,
        },
        algorithm: Algorithm::ExactMst,
        engine: Engine::Net,
        seed: run_seed,
    }
}

fn rt_job(n: usize, graph_seed: u64, run_seed: u64) -> JobSpec {
    JobSpec {
        graph: GraphSpec::RandomConnected {
            n,
            degree_milli: 3000,
            seed: graph_seed,
        },
        algorithm: Algorithm::RtConn,
        engine: Engine::Serial,
        seed: run_seed,
    }
}

/// Shutdown with a non-empty queue: every accepted job completes and
/// answers; submissions after close are rejected; nothing is dropped.
#[test]
fn shutdown_drains_queue_without_dropping_responses() {
    stress_gate!();
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 256,
    });
    let (tx, rx) = channel();
    // A mixed backlog across all three algorithms, all distinct keys.
    let mut accepted = 0u64;
    for i in 0..60u64 {
        let job = match i % 3 {
            0 => gc_job(24, i, 1),
            1 => mst_job(12, i, 1),
            _ => rt_job(16, i, 1),
        };
        match server.submit(&format!("pre-{i}"), job, &tx) {
            SubmitOutcome::Enqueued | SubmitOutcome::Coalesced | SubmitOutcome::CacheHit => {
                accepted += 1
            }
            SubmitOutcome::Rejected => panic!("queue sized to accept the whole backlog"),
        }
    }
    // Close while the queue is (almost surely) non-empty, then verify
    // admissions stop but the backlog drains.
    server.close();
    let closed_with_backlog = server.stats().queue_depth > 0;
    for i in 0..8u64 {
        assert_eq!(
            server.submit(&format!("post-{i}"), gc_job(24, 1000 + i, 1), &tx),
            SubmitOutcome::Rejected,
            "a closed server must reject new work"
        );
    }
    server.join();

    let mut terminal: HashMap<String, &'static str> = HashMap::new();
    while let Ok(r) = rx.try_recv() {
        let kind = match &r {
            Response::Result { .. } => "result",
            Response::Rejected { .. } => "rejected",
            Response::Error { .. } => "error",
            _ => continue,
        };
        let prev = terminal.insert(r.id().to_string(), kind);
        assert!(prev.is_none(), "two terminal responses for {}", r.id());
    }
    assert_eq!(terminal.len() as u64, accepted + 8, "no response dropped");
    for i in 0..60u64 {
        assert_eq!(
            terminal.get(&format!("pre-{i}")),
            Some(&"result"),
            "accepted job pre-{i} must complete despite shutdown"
        );
    }
    for i in 0..8u64 {
        assert_eq!(terminal.get(&format!("post-{i}")), Some(&"rejected"));
    }
    // Whether the close actually raced a non-empty queue varies with
    // worker speed; log it rather than assert it.
    eprintln!("closed with backlog: {closed_with_backlog}");
}

/// The pool holds ≥64 concurrently in-flight jobs (queued + running)
/// within its bounded queue — the serving capacity the design specifies.
#[test]
fn holds_64_in_flight_jobs_with_bounded_queue() {
    stress_gate!();
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 128,
        cache_capacity: 256,
    };
    let server = Server::start(cfg);
    let (tx, rx) = channel();
    let mut enqueued = 0u64;
    let mut max_depth = 0u64;
    for i in 0..64u64 {
        match server.submit(&format!("cap-{i}"), gc_job(20, i, 1), &tx) {
            SubmitOutcome::Enqueued => enqueued += 1,
            // A fast worker may finish an early job before we finish
            // submitting; that's still 64 admitted without rejection.
            SubmitOutcome::CacheHit | SubmitOutcome::Coalesced => {}
            SubmitOutcome::Rejected => panic!("64 concurrent jobs must fit"),
        }
        max_depth = max_depth.max(server.stats().queue_depth);
    }
    assert!(enqueued >= 62, "the submissions are all distinct keys");
    assert!(
        max_depth <= cfg.queue_capacity as u64,
        "queue depth {max_depth} must respect the bound"
    );
    server.close();
    server.drain();
    let mut results = 0;
    while let Ok(r) = rx.try_recv() {
        if matches!(r, Response::Result { .. }) {
            results += 1;
        }
    }
    assert_eq!(results, 64, "every admitted job answers");
    server.join();
}

/// A duplicate-heavy mix: ≥90% of submissions answer from the cache or a
/// coalesced execution, and every answer for a key is byte-identical.
#[test]
fn duplicate_mix_hits_at_least_90_percent() {
    stress_gate!();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 64,
    });
    let (tx, rx) = channel();
    // 100 submissions over 8 distinct jobs → 92 duplicates. Interleave so
    // duplicates arrive both while the original is in flight (coalesce)
    // and after it finished (cache hit).
    for round in 0..25u64 {
        for k in 0..4u64 {
            let distinct = (round * 4 + k) % 8;
            server.submit(&format!("mix-{round}-{k}"), gc_job(20, distinct, 1), &tx);
        }
    }
    server.close();
    server.drain();

    let stats = server.stats();
    assert_eq!(stats.completed, 8, "exactly one cold run per distinct job");
    assert!(
        stats.duplicate_hit_rate() >= 0.90,
        "hit rate {:.3} below the 90% bar (hits={} coalesced={} misses={})",
        stats.duplicate_hit_rate(),
        stats.cache.hits,
        stats.coalesced,
        stats.cache.misses
    );

    // Byte-identity: group artifacts by cache key (in the meta) and
    // check each group is uniform.
    let mut by_key: HashMap<String, Vec<String>> = HashMap::new();
    let mut results = 0;
    while let Ok(r) = rx.try_recv() {
        if let Response::Result { artifact, .. } = r {
            results += 1;
            let parsed = cc_trace::RunArtifact::from_json_str(&artifact).unwrap();
            let key = parsed
                .meta
                .iter()
                .find(|(k, _)| k == "cache_key")
                .map(|(_, v)| v.clone())
                .expect("artifacts carry their cache key");
            by_key.entry(key).or_default().push(artifact.to_string());
        }
    }
    assert_eq!(results, 100, "every submission answered with a result");
    assert_eq!(by_key.len(), 8);
    for (key, artifacts) in by_key {
        assert!(
            artifacts.windows(2).all(|w| w[0] == w[1]),
            "answers for {key} must be byte-identical"
        );
    }
    server.join();
}

/// Ungated smoke so debug `cargo test` still exercises the pool
/// end-to-end at a tiny size.
#[test]
fn small_mix_smoke() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
    });
    let (tx, rx) = channel();
    for i in 0..6u64 {
        server.submit(&format!("s{i}"), gc_job(12, i % 2, 1), &tx);
    }
    server.close();
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    assert!(stats.duplicate_hit_rate() >= 0.5);
    let mut results = 0;
    while let Ok(r) = rx.try_recv() {
        if matches!(r, Response::Result { .. }) {
            results += 1;
        }
    }
    assert_eq!(results, 6);
    server.join();
}

/// The live fold a worker runs while the job executes gives exactly the
/// `comm` snapshot that folding a separately recorded run of the same
/// spec gives, for every job kind.
#[test]
fn live_comm_snapshot_equals_the_fold_of_a_recorded_run() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (tx, rx) = channel();
    let specs = [gc_job(16, 1, 1), mst_job(12, 2, 1), rt_job(12, 3, 1)];
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(
            server.submit(&format!("j{i}"), spec.clone(), &tx),
            SubmitOutcome::Enqueued
        );
        let artifact = loop {
            match rx.recv().expect("a terminal response must arrive") {
                Response::Result { artifact, .. } => break artifact,
                r if r.terminal() => panic!("expected a result, got {r:?}"),
                _ => {}
            }
        };
        let artifact = RunArtifact::from_json_str(&artifact).unwrap();
        let served = artifact
            .metrics
            .iter()
            .find(|(name, _)| name == "comm")
            .map(|(_, m)| m.to_json().emit())
            .expect("a comm snapshot");

        let rec = RecordingTracer::new();
        execute(spec, Box::new(rec.clone())).unwrap();
        let n = spec.graph.n();
        let folded = CommLedger::fold(n, &ModelSpec::clique(), &rec.events()).unwrap();
        assert_eq!(
            served,
            comm_metrics(&folded).to_json().emit(),
            "{}",
            spec.algorithm.tag()
        );
    }
    server.join();
}
