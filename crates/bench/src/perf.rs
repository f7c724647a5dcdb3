//! The `bench perf` fixed suite: model-cost measurements of the
//! reproduction's hot paths, emitted as a schema-versioned [`PerfSuite`]
//! (`BENCH_<stamp>.json`) and gated at zero tolerance against a committed
//! `BENCH_baseline.json` (see DESIGN.md §12). Wall-clock time lives in
//! the `benchmark/` package, not here.
//!
//! Case selection mirrors the crates the north star cares about: the
//! Theorem 4 sketch-GC pipeline on the direct simulator, Theorem 7's
//! EXACT-MST, the Lenzen routing collective the algorithms lean on, and
//! the runtime port of connectivity on *both* engine backends (which must
//! agree on model cost).
//!
//! Every case runs twice with a fixed seed, so the model quantities —
//! rounds, messages, words — must be bit-identical across the two runs;
//! the suite panics if they are not, because that would mean
//! nondeterminism.

use cc_core::{exact_mst, gc, run_connectivity, ExactMstConfig};
use cc_graph::{generators, Graph};
use cc_net::{Cost, NetConfig};
use cc_profile::{PerfCase, PerfSuite};
use cc_route::{all_to_all_share, Net};
use cc_runtime::Runtime;
use cc_sketch::{GraphSketchSpace, NeighborhoodScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which large-`n` scaling entries to append to the suite.
///
/// The large cases exist because the delivery loop's allocation behavior
/// only dominates (and the paper's asymptotics only show their shape) at
/// `n` in the thousands; they are opt-in because they cost seconds, not
/// microseconds, per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Large {
    /// No large cases (the PR-4 suite).
    Off,
    /// The `route-a2a` collective at `n = 2048` plus the no-network
    /// `sketch-build` kernel case at `n = 16 384` — the CI smoke entries.
    Smoke,
    /// `route-a2a` at `n ∈ {512, 2048, 4096}`, `gc-sketch` at
    /// `n ∈ {2048, 4096}` (the E19 scaling table), and `sketch-build` at
    /// `n ∈ {16 384, 65 536}` (the E24 large-`n` kernel table).
    Full,
}

#[cfg(feature = "count-allocs")]
fn alloc_counts() -> (u64, u64) {
    cc_profile::alloc::CountingAlloc::counts()
}
#[cfg(not(feature = "count-allocs"))]
fn alloc_counts() -> (u64, u64) {
    (0, 0)
}

/// Runs `f` twice and folds its model cost into a [`PerfCase`].
///
/// # Panics
///
/// Panics if the two runs' model costs differ (the suite is seeded; a
/// mismatch means nondeterminism).
fn measure<F: FnMut() -> Cost>(id: &str, backend: &str, n: usize, mut f: F) -> PerfCase {
    let (a0, b0) = alloc_counts();
    let model = f();
    let (a1, b1) = alloc_counts();
    assert_eq!(
        model,
        f(),
        "case {id}/{backend}/n={n}: model cost drifted between runs"
    );
    let counting = cfg!(feature = "count-allocs");
    PerfCase {
        id: id.to_string(),
        backend: backend.to_string(),
        n: n as u64,
        rounds: model.rounds,
        messages: model.messages,
        words: model.words,
        allocs: counting.then_some(a1 - a0),
        alloc_bytes: counting.then_some(b1 - b0),
    }
}

fn adjacency(g: &Graph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.n()];
    for e in g.edges() {
        adj[e.u as usize].push(e.v as usize);
        adj[e.v as usize].push(e.u as usize);
    }
    adj
}

/// One large-`n` all-to-all case: 8 collectives per run on one
/// `Net`, like the small-`n` entries — the multi-collective region is
/// exactly what buffer pooling is supposed to make cheap, so a pooled
/// engine shows up here and a per-round reallocating one does not.
fn large_a2a_case(n: usize) -> PerfCase {
    let values: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
    measure("route-a2a", "net", n, || {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(7));
        let before = net.cost();
        for _ in 0..8 {
            let shared = all_to_all_share(&mut net, &values).expect("collective");
            assert_eq!(shared.len(), n);
        }
        net.cost().since(&before)
    })
}

/// One large-`n` GC-sketch case (full pipeline, direct simulator).
fn large_gc_case(n: usize) -> PerfCase {
    let mut rng = ChaCha8Rng::seed_from_u64(4000 + n as u64);
    let g = generators::random_connected_graph(n, 3.0 / n as f64, &mut rng);
    measure("gc-sketch", "net", n, || {
        let run = gc::run(&g, &NetConfig::kt1(n).with_seed(n as u64)).expect("gc run");
        run.cost
    })
}

/// One large-`n` sketch-construction case: every vertex's neighborhood
/// sketch through the batched SoA kernels, fed from a streamed CSR graph
/// (never the `C(n, 2)` pair sweep — at `n = 65 536` that sweep alone is
/// 2.1 billion coin flips and the dense edge set would not fit a laptop).
///
/// No network runs here, so the [`Cost`] fields are repurposed as the
/// kernel's *model quantities* for the zero-drift gate (the gate compares
/// rounds/messages/words exactly; see `cc_profile::baseline`):
///
/// * `messages` — incidences inserted (`2m`, one per directed edge);
/// * `words` — an FNV-1a-style fold over every produced sketch's wire
///   words (vertex order), reduced mod 1e9+7: any numeric drift in the batched
///   `F_p` kernels (a changed hash draw, a mis-reduced product, a
///   scatter to the wrong cell) flips this fingerprint and trips
///   MODEL-DRIFT, which is exactly the bit-identical guarantee the
///   scalar-vs-batched proptests pin at small `n` extended to sizes
///   proptest cannot reach;
/// * `rounds` — 0 (no simulator involved).
fn sketch_build_case(n: usize) -> PerfCase {
    let mut rng = ChaCha8Rng::seed_from_u64(16_000 + n as u64);
    let g = cc_graph::random_connected_csr(n, 2 * n, &mut rng);
    measure("sketch-build", "kernel", n, || {
        let space = GraphSketchSpace::new(n, 9_000 + n as u64);
        let mut scratch = NeighborhoodScratch::default();
        let mut incidences = 0u64;
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for v in 0..n {
            let sk = space.sketch_neighborhood_with(
                v,
                g.neighbors(v).iter().map(|&u| u as usize),
                &mut scratch,
            );
            incidences += g.degree(v) as u64;
            for w in sk.to_words() {
                fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3) ^ w;
            }
        }
        Cost {
            rounds: 0,
            messages: incidences,
            words: fingerprint % 1_000_000_007,
            bits: 0,
        }
    })
}

/// Appends the [`Large`] scaling entries to `cases`.
fn push_large_cases(cases: &mut Vec<PerfCase>, large: Large) {
    match large {
        Large::Off => {}
        Large::Smoke => {
            cases.push(large_a2a_case(2048));
            cases.push(sketch_build_case(16_384));
        }
        Large::Full => {
            for n in [512, 2048, 4096] {
                cases.push(large_a2a_case(n));
            }
            for n in [2048, 4096] {
                cases.push(large_gc_case(n));
            }
            for n in [16_384, 65_536] {
                cases.push(sketch_build_case(n));
            }
        }
    }
}

/// Runs the fixed suite and returns the dated artifact
/// (`created_unix` is stamped from the system clock by
/// [`PerfSuite::new`]). Shorthand for [`run_suite_with`] without large
/// cases.
pub fn run_suite(quick: bool) -> PerfSuite {
    run_suite_with(quick, Large::Off)
}

/// Runs the fixed suite plus the requested [`Large`] scaling entries.
pub fn run_suite_with(quick: bool, large: Large) -> PerfSuite {
    let mut cases = Vec::new();

    // Theorem 4 sketch-GC, full pipeline on the direct simulator.
    let gc_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in gc_ns {
        let mut rng = ChaCha8Rng::seed_from_u64(4000 + n as u64);
        let g = generators::random_connected_graph(n, 3.0 / n as f64, &mut rng);
        cases.push(measure("gc-sketch", "net", n, || {
            let run = gc::run(&g, &NetConfig::kt1(n).with_seed(n as u64)).expect("gc run");
            run.cost
        }));
    }

    // Theorem 7 EXACT-MST on random weighted cliques.
    let mst_ns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    for &n in mst_ns {
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + n as u64);
        let g = generators::complete_wgraph(n, &mut rng);
        cases.push(measure("exact-mst", "net", n, || {
            let mut net = Net::new(NetConfig::kt1(n).with_seed(n as u64));
            let run = exact_mst(&mut net, &g, &ExactMstConfig::default()).expect("mst run");
            run.cost
        }));
    }

    // The all-to-all collective: 1 round, Θ(n²) messages — the routing
    // pattern the O(log log log n) algorithms use freely.
    let a2a_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in a2a_ns {
        let values: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        cases.push(measure("route-a2a", "net", n, || {
            let mut net = Net::new(NetConfig::kt1(n).with_seed(7));
            let before = net.cost();
            // 8 collectives per run so the measured region is not
            // dominated by Net construction.
            for _ in 0..8 {
                let shared = all_to_all_share(&mut net, &values).expect("collective");
                assert_eq!(shared.len(), n);
            }
            net.cost().since(&before)
        }));
    }

    // Runtime connectivity on both backends, same seeds: model costs
    // must match across engines.
    let rt_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in rt_ns {
        let mut rng = ChaCha8Rng::seed_from_u64(9000 + n as u64);
        let g = generators::random_connected_graph(n, 4.0 / n as f64, &mut rng);
        let adj = adjacency(&g);
        cases.push(measure("rt-conn", "serial", n, || {
            let mut rt = Runtime::serial(NetConfig::kt1(n).with_seed(n as u64));
            let out = run_connectivity(&mut rt, &adj, None, 200_000).expect("serial gc");
            assert!(out.connected);
            rt.cost()
        }));
        cases.push(measure("rt-conn", "parallel", n, || {
            let mut rt = Runtime::parallel(NetConfig::kt1(n).with_seed(n as u64));
            let out = run_connectivity(&mut rt, &adj, None, 200_000).expect("parallel gc");
            assert!(out.connected);
            rt.cost()
        }));
    }

    push_large_cases(&mut cases, large);

    let mut suite = PerfSuite::new("cc-bench perf")
        .with_meta("mode", if quick { "quick" } else { "full" })
        .with_meta(
            "large",
            match large {
                Large::Off => "off",
                Large::Smoke => "smoke",
                Large::Full => "full",
            },
        )
        .with_meta("count_allocs", &cfg!(feature = "count-allocs").to_string());
    suite.cases = cases;
    suite
}

/// The `id/backend/n=N` display key `--filter` patterns match against.
pub fn case_key(c: &PerfCase) -> String {
    format!("{}/{}/n={}", c.id, c.backend, c.n)
}

/// The case keys [`run_suite_with`] would produce, in suite order,
/// *without* running anything — `perf --list` prints these so `--filter`
/// patterns can be written against the real keys. A unit test pins this
/// enumeration to an actual quick run.
pub fn case_keys(quick: bool, large: Large) -> Vec<String> {
    let mut keys = Vec::new();
    let key = |id: &str, backend: &str, n: usize| format!("{id}/{backend}/n={n}");
    let gc_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in gc_ns {
        keys.push(key("gc-sketch", "net", n));
    }
    let mst_ns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    for &n in mst_ns {
        keys.push(key("exact-mst", "net", n));
    }
    let a2a_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in a2a_ns {
        keys.push(key("route-a2a", "net", n));
    }
    let rt_ns: &[usize] = if quick { &[32, 64] } else { &[32, 64, 128] };
    for &n in rt_ns {
        keys.push(key("rt-conn", "serial", n));
        keys.push(key("rt-conn", "parallel", n));
    }
    match large {
        Large::Off => {}
        Large::Smoke => {
            keys.push(key("route-a2a", "net", 2048));
            keys.push(key("sketch-build", "kernel", 16_384));
        }
        Large::Full => {
            for n in [512, 2048, 4096] {
                keys.push(key("route-a2a", "net", n));
            }
            for n in [2048, 4096] {
                keys.push(key("gc-sketch", "net", n));
            }
            for n in [16_384, 65_536] {
                keys.push(key("sketch-build", "kernel", n));
            }
        }
    }
    keys
}

/// Keeps only cases whose [`case_key`] contains one of the
/// comma-separated `patterns`.
///
/// Errors when no case survives, listing every valid key — a typo'd
/// filter should name what it *could* have matched instead of silently
/// gating nothing.
pub fn filter_cases(suite: &mut PerfSuite, patterns: &str) -> Result<(), String> {
    let pats: Vec<&str> = patterns.split(',').filter(|p| !p.is_empty()).collect();
    let available: Vec<String> = suite.cases.iter().map(case_key).collect();
    suite
        .cases
        .retain(|c| pats.iter().any(|p| case_key(c).contains(p)));
    if suite.cases.is_empty() {
        return Err(format!(
            "--filter {patterns:?} matched no cases; valid case keys:\n  {}",
            available.join("\n  ")
        ));
    }
    Ok(())
}

/// Keeps only the cases of `suite` this suite produces — everything but
/// the `serve-*` and `grid-*` sections `loadgen` and `grid` own (for
/// gating a fresh run against a combined baseline).
pub fn perf_section(suite: &PerfSuite) -> PerfSuite {
    let mut only = suite.clone();
    only.cases
        .retain(|c| !c.id.starts_with("serve-") && !c.id.starts_with("grid-"));
    only
}

/// `(year, month, day)` in UTC for a unix timestamp — for naming
/// `BENCH_<stamp>.json` without a date/time dependency. Howard Hinnant's
/// `civil_from_days` algorithm.
pub fn civil_from_unix(secs: u64) -> (u64, u64, u64) {
    let days = secs / 86_400;
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y, m, d)
}

/// The dated artifact filename for a run: `BENCH_YYYYMMDD.json`.
pub fn stamp_name(created_unix: u64) -> String {
    let (y, m, d) = civil_from_unix(created_unix);
    format!("BENCH_{y:04}{m:02}{d:02}.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_profile::compare;

    #[test]
    fn filter_zero_match_errors_with_valid_names() {
        let mut suite = PerfSuite::new("test");
        suite.cases = vec![
            PerfCase {
                id: "gc-sketch".into(),
                backend: "net".into(),
                n: 32,
                ..PerfCase::default()
            },
            PerfCase {
                id: "rt-conn".into(),
                backend: "serial".into(),
                n: 64,
                ..PerfCase::default()
            },
        ];
        // A matching filter keeps the matching case and succeeds.
        let mut ok = suite.clone();
        filter_cases(&mut ok, "rt-conn").expect("matching filter");
        assert_eq!(ok.cases.len(), 1);
        assert_eq!(ok.cases[0].id, "rt-conn");

        // A zero-match filter errors and names every valid key.
        let mut none = suite.clone();
        let err = filter_cases(&mut none, "rt-con/net,bogus").unwrap_err();
        assert!(err.contains("matched no cases"), "{err}");
        assert!(err.contains("gc-sketch/net/n=32"), "{err}");
        assert!(err.contains("rt-conn/serial/n=64"), "{err}");
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_unix(0), (1970, 1, 1));
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(civil_from_unix(1_785_974_400), (2026, 8, 6));
        assert_eq!(stamp_name(0), "BENCH_19700101.json");
    }

    #[test]
    fn measure_records_the_model_cost() {
        let case = measure("toy", "net", 4, || Cost {
            rounds: 2,
            messages: 10,
            words: 20,
            bits: 240,
        });
        assert_eq!((case.rounds, case.messages, case.words), (2, 10, 20));
    }

    #[test]
    #[should_panic(expected = "model cost drifted")]
    fn nondeterministic_model_cost_panics() {
        let mut r = 0u64;
        let _ = measure("toy", "net", 4, || {
            r += 1;
            Cost {
                rounds: r,
                messages: 0,
                words: 0,
                bits: 0,
            }
        });
    }

    #[test]
    fn quick_suite_is_deterministic_and_self_consistent() {
        let suite = run_suite(true);
        assert!(suite.validate().is_ok(), "{:?}", suite.validate());
        assert_eq!(suite.cases.len(), 10, "2+2+2 net cases + 2×2 rt cases");
        // A replay with the same seeds must carry identical model costs:
        // the suite gates itself at zero model tolerance.
        let again = run_suite(true);
        assert!(
            compare(&again, &suite).passed(),
            "model quantities must be reproducible"
        );
        // Both rt backends exist and agree on model cost per n.
        for &n in &[32u64, 64] {
            let serial = suite
                .cases
                .iter()
                .find(|c| c.id == "rt-conn" && c.backend == "serial" && c.n == n)
                .expect("serial case");
            let parallel = suite
                .cases
                .iter()
                .find(|c| c.id == "rt-conn" && c.backend == "parallel" && c.n == n)
                .expect("parallel case");
            assert_eq!(
                (serial.rounds, serial.messages, serial.words),
                (parallel.rounds, parallel.messages, parallel.words),
                "engines must agree on model cost at n={n}"
            );
        }
    }

    #[test]
    fn case_keys_enumerates_exactly_what_the_suite_runs() {
        // The static enumeration behind `perf --list` must match the keys
        // an actual run produces, in order.
        let suite = run_suite(true);
        let real: Vec<String> = suite.cases.iter().map(case_key).collect();
        assert_eq!(case_keys(true, Large::Off), real);
        // The other shapes are pinned structurally (running them takes
        // seconds per case): the full suite extends the sizes, the large
        // tiers only append.
        let full = case_keys(false, Large::Off);
        assert_eq!(full.len(), 15, "3+3+3 net cases + 2×3 rt cases");
        for k in case_keys(true, Large::Off) {
            assert!(full.contains(&k), "quick key {k} missing from full");
        }
        let smoke = case_keys(false, Large::Smoke);
        assert_eq!(&smoke[..full.len()], &full[..]);
        assert_eq!(
            &smoke[full.len()..],
            &["route-a2a/net/n=2048", "sketch-build/kernel/n=16384"]
        );
        assert_eq!(case_keys(false, Large::Full).len(), full.len() + 7);
    }

    #[test]
    fn sketch_build_case_model_quantities_are_deterministic() {
        // The fingerprint packed into `words` must be reproducible (it is
        // what the MODEL-DRIFT gate compares for this case; `measure`
        // panics otherwise), and `messages` must equal 2m of the streamed
        // graph.
        let a = sketch_build_case(96);
        let mut rng = ChaCha8Rng::seed_from_u64(16_000 + 96);
        let g = cc_graph::random_connected_csr(96, 192, &mut rng);
        assert_eq!(a.messages, 2 * g.m() as u64);
        assert_eq!(a.rounds, 0);
        assert!(a.words < 1_000_000_007);
    }
}
