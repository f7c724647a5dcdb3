//! E17 — the robustness harness: GC, EXACT-MST, and KT1-MST under the CI
//! fault schedules, each run rendered as *correct* / *detected-failure* /
//! *silent-wrong-answer*; E17b — the whp seed sweep: sketch-connectivity
//! failure rate across seeds and clique sizes with a deliberately starved
//! sketch budget, probing the `1/n^c` shape of Theorem 1's failure bound.
//!
//! The harness is the consumer the `cc-chaos` subsystem exists for: a
//! fault plan interposes on the very same `CliqueNet` the algorithms
//! run on, every run is replayable from `(schedule, seed)`, and the
//! headline claim — **zero silent wrong answers with validation
//! enabled** — is enforced by `verify the table` tests and the `chaos`
//! binary's exit code. Each row is one [`guard::run`] of one
//! [`cc_core::catalog`] entry (check and reference differential
//! included); E17 only renders its [`Verdict`], and its `faults` column
//! is the run's [`CommLedger::faults`](cc_lens::CommLedger::faults).

use crate::guard::{self, Verdict};
use crate::table::{f, Table};
use cc_chaos::{FaultPlan, LinkSelector, RoundRange};
use cc_core::catalog::Entry;
use cc_core::gc::{self, GcConfig};
use cc_graph::connectivity::component_labels;
use cc_graph::generators;
use cc_net::NetConfig;
use cc_trace::{RobustnessRecord, WhpPoint};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// Runs every catalog entry under every CI schedule through
/// [`guard::run`]: one record per run (the artifact's `robustness`
/// section), each with the verdict it renders.
pub fn fault_matrix(quick: bool) -> Vec<(RobustnessRecord, Verdict)> {
    let n = if quick { 24 } else { 48 };
    let seed = 0xC1A05u64;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g_gc = generators::random_connected_graph(n, 0.15, &mut rng);
    let g_mst = generators::random_connected_wgraph(n, 0.3, 10_000, &mut rng);
    let g_kt1 = generators::random_connected_wgraph(n, 4.0 / n as f64, 10_000, &mut rng);
    let rows = [
        ("gc", Entry::GcSketch(&g_gc)),
        ("exact-mst", Entry::ExactMst(&g_mst)),
        ("kt1-mst", Entry::Kt1Mst(&g_kt1)),
    ];

    let mut matrix = Vec::new();
    for (schedule, plan) in ci_schedules(seed) {
        for &(algo, entry) in &rows {
            let run = guard::run(NetConfig::kt1(n).with_seed(seed), Some(&plan), entry);
            let record = RobustnessRecord {
                algo: algo.into(),
                schedule: schedule.into(),
                n: n as u64,
                seed,
                outcome: run.verdict.outcome().into(),
                faults: run.ledger.faults(),
                detail: run.verdict.outcome_detail(),
            };
            matrix.push((record, run.verdict));
        }
    }
    matrix
}

/// E17 — the fault matrix rendered by [`e17_table`] (the `tables`
/// registry entry).
pub fn e17_robustness(quick: bool) -> Table {
    let records: Vec<RobustnessRecord> = fault_matrix(quick).into_iter().map(|(r, _)| r).collect();
    e17_table(&records)
}

/// Renders robustness records as the E17 table (`detail` cut at 48
/// characters) — the one renderer `tables`, `chaos` and `trace_report`
/// share.
pub fn e17_table(records: &[RobustnessRecord]) -> Table {
    let mut t = Table::new(
        "E17",
        "Robustness harness: outcome per (algorithm, fault schedule); \
         silent-wrong-answer must never appear with validation on",
        &["algo", "schedule", "n", "outcome", "faults", "detail"],
    );
    for r in records {
        t.push_row(vec![
            r.algo.clone(),
            r.schedule.clone(),
            r.n.to_string(),
            r.outcome.clone(),
            r.faults.to_string(),
            if r.detail.chars().count() > 48 {
                let head: String = r.detail.chars().take(48).collect();
                format!("{head}…")
            } else {
                r.detail.clone()
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
    ns.iter()
        .map(|&n| WhpPoint {
            n: n as u64,
            trials,
            failures: sweep_failures(n, trials, &starved),
        })
        .collect()
}

/// Failed GC runs (a loud error or a wrong labelling) over `trials`
/// seeds at clique size `n` under `cfg`, on the sweep's fixed graph.
fn sweep_failures(n: usize, trials: u64, cfg: &GcConfig) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
    let g = generators::random_connected_graph(n, 0.2, &mut rng);
    let reference = component_labels(&g);
    (0..trials)
        .filter(|trial| {
            let net_cfg = NetConfig::kt1(n)
                .with_seed(0x5EED + 977 * trial + n as u64)
                .with_round_cap(guard::ROUND_CAP);
            !matches!(gc::run_with(&g, &net_cfg, cfg), Ok(run) if run.output.labels == reference)
        })
        .count() as u64
}

/// E17b — the whp sweep as `tables` prints it.
pub fn e17b_whp_sweep(quick: bool) -> Table {
    e17b_table(&whp_points(quick))
}

/// Renders whp sweep points as the E17b table, with the paper's
/// `Θ(log n)`-family configuration as the control column.
pub fn e17b_table(points: &[WhpPoint]) -> Table {
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
    for p in points {
        // Control: same sweep under the paper's defaults (failures here
        // would indicate a harness bug, not a sketch property).
        let control_failures = sweep_failures(p.n as usize, p.trials.min(20), &GcConfig::default());
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
        let matrix = fault_matrix(true);
        assert_eq!(matrix.len(), ci_schedules(0).len() * 3);
        let records: Vec<&RobustnessRecord> = matrix.iter().map(|(r, _)| r).collect();
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
            // no catalog entry ever silently lies.
            assert_ne!(
                r.outcome, "silent-wrong-answer",
                "{} under {} returned a silent wrong answer",
                r.algo, r.schedule
            );
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
