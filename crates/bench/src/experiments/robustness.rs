//! E17 — the robustness harness: GC, EXACT-MST, and KT1-MST under the CI
//! fault schedules, each run classified *correct* / *detected-failure* /
//! *silent-wrong-answer* against the sequential reference; E17b — the
//! whp seed sweep: sketch-connectivity failure rate across seeds and
//! clique sizes with a deliberately starved sketch budget, probing the
//! `1/n^c` shape of Theorem 1's failure bound.
//!
//! The harness is the consumer the `cc-chaos` subsystem exists for: a
//! fault plan interposes on the very same `CliqueNet` the algorithms
//! run on, every run is replayable from `(schedule, seed)`, and the
//! headline claim — **zero silent wrong answers for GC and EXACT-MST
//! with validation enabled** — is enforced by `verify the table` tests
//! and the `chaos` binary's exit code.

use crate::table::{f, Table};
use cc_chaos::{FaultPlan, LinkSelector, Outcome, RoundRange};
use cc_core::exact_mst::{exact_mst, ExactMstConfig};
use cc_core::gc::{self, GcConfig};
use cc_core::kt1_mst::{kt1_mst, Kt1MstConfig};
use cc_core::{validate_gc, validate_mst_minimal, CoreError};
use cc_graph::connectivity::component_labels;
use cc_graph::{generators, WGraph};
use cc_net::NetConfig;
use cc_route::Net;
use cc_trace::{Event, RecordingTracer, RobustnessRecord, WhpPoint};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Round watchdog for faulted runs: a fault schedule must never hang the
/// harness, so every net carries a generous cap and a blown cap counts
/// as a detected failure.
const ROUND_CAP: u64 = 100_000;

/// The CI fault schedules: one clean control plus one schedule per fault
/// kind, plus a combined "mayhem" schedule. Every plan is seeded from
/// `seed`, so the whole suite replays from one number.
pub fn ci_schedules(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let all = RoundRange::all();
    vec![
        ("clean", FaultPlan::new(seed)),
        (
            "drop-2pct",
            FaultPlan::new(seed).drop_messages(all, LinkSelector::All, 0.02),
        ),
        (
            "drop-20pct",
            FaultPlan::new(seed).drop_messages(all, LinkSelector::All, 0.20),
        ),
        (
            "dup-5pct",
            FaultPlan::new(seed).duplicate_messages(all, LinkSelector::All, 0.05),
        ),
        (
            "corrupt-5pct",
            FaultPlan::new(seed).corrupt_messages(all, LinkSelector::All, 0.05),
        ),
        (
            "defer-5pct",
            FaultPlan::new(seed).defer_messages(all, LinkSelector::All, 0.05, 2),
        ),
        ("crash-1", FaultPlan::new(seed).crash(3, 4)),
        (
            "squeeze-2w",
            FaultPlan::new(seed).squeeze(RoundRange::starting_at(2), 2),
        ),
        (
            "mayhem",
            FaultPlan::new(seed)
                .drop_messages(all, LinkSelector::All, 0.03)
                .duplicate_messages(all, LinkSelector::All, 0.03)
                .corrupt_messages(all, LinkSelector::All, 0.03)
                .defer_messages(all, LinkSelector::All, 0.03, 1)
                .crash(5, 6),
        ),
    ]
}

/// One faulted algorithm run, fully classified.
struct Classified {
    outcome: Outcome,
    faults: u64,
    detail: String,
}

/// Runs `algo` on a fresh faulted net and classifies the result.
///
/// `finished` = the run returned `Ok` (panics are caught and count as
/// loud failures); `accepted` = the output validator said yes;
/// `matches` = the differential check against the sequential reference
/// agreed. [`Outcome::classify`] folds the three into the taxonomy.
fn classify<T>(
    net_cfg: NetConfig,
    plan: &FaultPlan,
    algo: impl FnOnce(&mut Net) -> Result<T, CoreError>,
    check: impl FnOnce(&T) -> (bool, bool, String),
) -> Classified {
    let rec = RecordingTracer::new();
    let mut net = Net::new(net_cfg);
    net.set_tracer(Box::new(rec.clone()));
    net.set_fault_injector(Box::new(plan.injector()));
    let result = catch_unwind(AssertUnwindSafe(|| algo(&mut net)));
    let faults = rec
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Fault { .. } | Event::NodeCrash { .. }))
        .count() as u64;
    let (outcome, detail) = match result {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            (Outcome::DetectedFailure, format!("panic: {msg}"))
        }
        Ok(Err(e)) => (Outcome::DetectedFailure, format!("error: {e}")),
        Ok(Ok(out)) => {
            let (accepted, matches, detail) = check(&out);
            (Outcome::classify(true, accepted, matches), detail)
        }
    };
    Classified {
        outcome,
        faults,
        detail,
    }
}

/// Runs every algorithm under every CI schedule and returns one record
/// per run (the artifact's `robustness` section).
pub fn robustness_records(quick: bool) -> Vec<RobustnessRecord> {
    let n = if quick { 24 } else { 48 };
    let seed = 0xC1A05u64;
    let net_cfg = || NetConfig::kt1(n).with_seed(seed).with_round_cap(ROUND_CAP);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g_gc = generators::random_connected_graph(n, 0.15, &mut rng);
    let gc_reference = component_labels(&g_gc);
    let g_mst = generators::random_connected_wgraph(n, 0.3, 10_000, &mut rng);
    let mst_reference = WGraph::total_weight(&cc_graph::mst::kruskal(&g_mst));
    let g_kt1 = generators::random_connected_wgraph(n, 4.0 / n as f64, 10_000, &mut rng);
    let kt1_reference = WGraph::total_weight(&cc_graph::mst::kruskal(&g_kt1));

    let mut records = Vec::new();
    for (schedule, plan) in ci_schedules(seed) {
        let runs: Vec<(&str, Classified)> = vec![
            (
                "gc",
                classify(
                    net_cfg(),
                    &plan,
                    |net| gc::run_on(net, &g_gc, &GcConfig::default()),
                    |out| {
                        let accepted = validate_gc(&g_gc, out);
                        let matches = out.labels == gc_reference;
                        let detail = accepted.clone().err().unwrap_or_default();
                        (accepted.is_ok(), matches, detail)
                    },
                ),
            ),
            (
                "exact-mst",
                classify(
                    net_cfg(),
                    &plan,
                    |net| exact_mst(net, &g_mst, &ExactMstConfig::default()),
                    |run| {
                        let accepted = validate_mst_minimal(&g_mst, &run.mst);
                        let matches = WGraph::total_weight(&run.mst) == mst_reference;
                        let detail = accepted.clone().err().unwrap_or_default();
                        (accepted.is_ok(), matches, detail)
                    },
                ),
            ),
            (
                "kt1-mst",
                classify(
                    net_cfg(),
                    &plan,
                    |net| kt1_mst(net, &g_kt1, &Kt1MstConfig::default()),
                    |run| {
                        let accepted = if run.complete {
                            validate_mst_minimal(&g_kt1, &run.mst)
                        } else {
                            Err("run did not converge within the phase cap".into())
                        };
                        let matches = WGraph::total_weight(&run.mst) == kt1_reference;
                        let detail = accepted.clone().err().unwrap_or_default();
                        (accepted.is_ok(), matches, detail)
                    },
                ),
            ),
        ];
        for (algo, c) in runs {
            records.push(RobustnessRecord {
                algo: algo.into(),
                schedule: schedule.into(),
                n: n as u64,
                seed,
                outcome: c.outcome.as_str().into(),
                faults: c.faults,
                detail: c.detail,
            });
        }
    }
    records
}

/// E17 — the robustness table rendered from [`robustness_records`].
pub fn e17_robustness(quick: bool) -> Table {
    let mut t = Table::new(
        "E17",
        "Robustness harness: outcome per (algorithm, fault schedule); \
         silent-wrong-answer must never appear with validation on",
        &["algo", "schedule", "n", "outcome", "faults", "detail"],
    );
    for r in robustness_records(quick) {
        t.push_row(vec![
            r.algo,
            r.schedule,
            r.n.to_string(),
            r.outcome,
            r.faults.to_string(),
            if r.detail.chars().count() > 48 {
                let head: String = r.detail.chars().take(48).collect();
                format!("{head}…")
            } else {
                r.detail
            },
        ]);
    }
    t
}

/// The starved family budget of the whp sweep. Calibrated empirically:
/// the success threshold is sharp (at these sizes `t ≤ 2` always fails,
/// `t ≥ 5` never does), and `t = 3` sits in the measurable interior at
/// every swept `n`.
const STARVED_FAMILIES: usize = 3;

/// The whp seed sweep (the artifact's `whp_sweep` section): sketch
/// connectivity with zero Lotker phases (all merging rides on sketches)
/// and a *fixed* `STARVED_FAMILIES` family budget, run across
/// `trials` seeds per clique size. A *failure* is a loud error or a
/// wrong labelling. With `t` families the union-bound failure
/// probability scales like `n · 2^{-Θ(t)}`: holding `t` fixed, the
/// measured rate must *grow* toward 1 with `n` — the necessity half of
/// Theorem 1's `t = Θ(log n)` choice — while the paper-budget control
/// column of E17b stays at zero, consistent with the `1/n^c` bound.
pub fn whp_points(quick: bool) -> Vec<WhpPoint> {
    let (ns, trials): (&[usize], u64) = if quick {
        (&[16, 32], 40)
    } else {
        (&[16, 32, 64], 120)
    };
    let starved = GcConfig {
        phases: Some(0),
        families: Some(STARVED_FAMILIES),
    };
    let mut points = Vec::new();
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = generators::random_connected_graph(n, 0.2, &mut rng);
        let reference = component_labels(&g);
        let mut failures = 0u64;
        for trial in 0..trials {
            let cfg = NetConfig::kt1(n)
                .with_seed(0x5EED + 977 * trial + n as u64)
                .with_round_cap(ROUND_CAP);
            match gc::run_with(&g, &cfg, &starved) {
                Ok(run) if run.output.labels == reference => {}
                _ => failures += 1,
            }
        }
        points.push(WhpPoint {
            n: n as u64,
            trials,
            failures,
        });
    }
    points
}

/// E17b — the whp sweep rendered from [`whp_points`], with the paper's
/// `Θ(log n)`-family configuration as the control column.
pub fn e17b_whp_sweep(quick: bool) -> Table {
    let mut t = Table::new(
        "E17b",
        "Thm 1 whp shape: sketch-GC failure rate across seeds — fixed t=3 \
         families grows toward 1 with n, the paper's Θ(log n) stays at 0",
        &[
            "n",
            "trials",
            "starved_failures",
            "starved_rate",
            "paper_failures",
        ],
    );
    let points = whp_points(quick);
    for p in &points {
        // Control: same sweep under the paper's defaults (failures here
        // would indicate a harness bug, not a sketch property).
        let mut rng = ChaCha8Rng::seed_from_u64(p.n);
        let g = generators::random_connected_graph(p.n as usize, 0.2, &mut rng);
        let reference = component_labels(&g);
        let control_trials = p.trials.min(20);
        let mut control_failures = 0u64;
        for trial in 0..control_trials {
            let cfg = NetConfig::kt1(p.n as usize)
                .with_seed(0x5EED + 977 * trial + p.n)
                .with_round_cap(ROUND_CAP);
            match gc::run_with(&g, &cfg, &GcConfig::default()) {
                Ok(run) if run.output.labels == reference => {}
                _ => control_failures += 1,
            }
        }
        t.push_row(vec![
            p.n.to_string(),
            p.trials.to_string(),
            p.failures.to_string(),
            f(p.rate()),
            control_failures.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_schedule_is_all_correct_and_faulted_runs_never_lie() {
        let records = robustness_records(true);
        assert_eq!(records.len(), ci_schedules(0).len() * 3);
        for r in &records {
            assert!(
                cc_trace::ROBUSTNESS_OUTCOMES.contains(&r.outcome.as_str()),
                "unknown outcome {}",
                r.outcome
            );
            if r.schedule == "clean" {
                assert_eq!(
                    r.outcome, "correct",
                    "{}: clean run not correct: {}",
                    r.algo, r.detail
                );
                assert_eq!(r.faults, 0, "{}: clean run saw faults", r.algo);
            }
            // The headline acceptance criterion: with validation enabled,
            // GC and EXACT-MST never silently lie.
            if r.algo != "kt1-mst" {
                assert_ne!(
                    r.outcome, "silent-wrong-answer",
                    "{} under {} returned a silent wrong answer",
                    r.algo, r.schedule
                );
            }
        }
        // At least one schedule must actually have injected faults.
        assert!(records.iter().any(|r| r.faults > 0));
    }

    #[test]
    fn whp_sweep_produces_the_series() {
        let points = whp_points(true);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.trials > 0);
            assert!(p.failures <= p.trials);
            assert!((0.0..=1.0).contains(&p.rate()));
        }
        // The calibrated budget sits in the measurable interior …
        assert!(
            points[0].failures > 0 && points[0].failures < points[0].trials,
            "starved budget no longer interior at n={}: {}/{}",
            points[0].n,
            points[0].failures,
            points[0].trials
        );
        // … and the union-bound shape shows: fixed t, rate grows with n.
        for w in points.windows(2) {
            assert!(
                w[0].rate() <= w[1].rate(),
                "failure rate fell with n: {:?}",
                points
            );
        }
    }
}
