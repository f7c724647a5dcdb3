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

/// One run of the fault matrix: which catalog entry ran under which
/// schedule, and how it ended.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// Catalog entry (`gc`, `exact-mst`, `kt1-mst`).
    pub algo: &'static str,
    /// Fault-schedule name (`drop-2pct`, `crash-1`, …).
    pub schedule: &'static str,
    /// Clique size.
    pub n: usize,
    /// Fault-plan seed.
    pub seed: u64,
    /// Faults injected during the run (fault + crash events).
    pub faults: u64,
    /// How the run ended.
    pub verdict: Verdict,
}

/// Runs every catalog entry under every CI schedule through
/// [`guard::run`]: one [`FaultRun`] per run.
pub fn fault_matrix(quick: bool) -> Vec<FaultRun> {
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
            matrix.push(FaultRun {
                algo,
                schedule,
                n,
                seed,
                faults: run.ledger.faults(),
                verdict: run.verdict,
            });
        }
    }
    matrix
}

/// The runs that returned a silent wrong answer
/// ([`Verdict::SilentWrong`]): the failure mode validation exists to rule
/// out, and what makes `chaos` exit non-zero.
pub fn silent_wrong(runs: &[FaultRun]) -> Vec<&FaultRun> {
    runs.iter()
        .filter(|r| matches!(r.verdict, Verdict::SilentWrong { .. }))
        .collect()
}

/// E17 — the fault matrix rendered by [`e17_table`] (the `tables`
/// registry entry).
pub fn e17_robustness(quick: bool) -> Table {
    e17_table(&fault_matrix(quick))
}

/// Renders the fault matrix as the E17 table (`detail` cut at 48
/// characters) — the one renderer `tables` and `chaos` share.
pub fn e17_table(runs: &[FaultRun]) -> Table {
    let mut t = Table::new(
        "E17",
        "Robustness harness: outcome per (algorithm, fault schedule); \
         silent-wrong-answer must never appear with validation on",
        &["algo", "schedule", "n", "outcome", "faults", "detail"],
    );
    for r in runs {
        let detail = r.verdict.outcome_detail();
        t.push_row(vec![
            r.algo.into(),
            r.schedule.into(),
            r.n.to_string(),
            r.verdict.outcome().into(),
            r.faults.to_string(),
            if detail.chars().count() > 48 {
                let head: String = detail.chars().take(48).collect();
                format!("{head}…")
            } else {
                detail
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

/// One point of the whp seed sweep: sketch connectivity run across
/// `trials` independent seeds at clique size `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhpPoint {
    /// Clique size.
    pub n: usize,
    /// Independent seeds tried.
    pub trials: u64,
    /// Runs that failed (a loud error or a wrong labelling).
    pub failures: u64,
}

impl WhpPoint {
    /// Empirical failure rate.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }
}

/// The whp seed sweep (E17b's starved columns): sketch
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
            n,
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
        let control_failures = sweep_failures(p.n, p.trials.min(20), &GcConfig::default());
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
        for r in &matrix {
            if r.schedule == "clean" {
                assert_eq!(r.verdict, Verdict::Ok, "{}: clean run not correct", r.algo);
                assert_eq!(r.faults, 0, "{}: clean run saw faults", r.algo);
            }
        }
        // The headline acceptance criterion: with validation enabled,
        // no catalog entry ever silently lies.
        assert!(silent_wrong(&matrix).is_empty());
        // Every loud failure is a typed error: a corrupted word that
        // names no node ends KT1-MST with `malformed-message`, not an
        // index out of bounds.
        for r in &matrix {
            assert!(
                !matches!(r.verdict, Verdict::Panic { .. }),
                "{} under {}: {:?}",
                r.algo,
                r.schedule,
                r.verdict
            );
            if r.algo == "kt1-mst" && r.schedule == "corrupt-5pct" {
                assert_eq!(
                    r.verdict.kind(),
                    Some("malformed-message"),
                    "{:?}",
                    r.verdict
                );
            }
        }
        // At least one schedule must actually have injected faults.
        assert!(matrix.iter().any(|r| r.faults > 0));
    }

    /// `chaos` exits non-zero on exactly the runs whose verdict is
    /// [`Verdict::SilentWrong`]; a rejected answer is a detected failure.
    #[test]
    fn silent_wrong_picks_the_silent_wrong_verdicts() {
        let run = |schedule, verdict| FaultRun {
            algo: "gc",
            schedule,
            n: 8,
            seed: 1,
            faults: 3,
            verdict,
        };
        let runs = [
            run("clean", Verdict::Ok),
            run(
                "drop",
                Verdict::DetectedError {
                    kind: "wrong-answer",
                    detail: "forest weight differs".into(),
                },
            ),
            run(
                "corrupt",
                Verdict::SilentWrong {
                    detail: "labels differ".into(),
                },
            ),
            run(
                "mayhem",
                Verdict::Panic {
                    detail: "boom".into(),
                },
            ),
        ];
        let silent: Vec<&str> = silent_wrong(&runs).iter().map(|r| r.schedule).collect();
        assert_eq!(silent, ["corrupt"]);
        let e17 = e17_table(&runs);
        assert_eq!(e17.rows[2][3], "silent-wrong-answer");
        assert_eq!(e17.rows[1][3], "detected-failure");
    }

    #[test]
    fn whp_rate_is_failures_over_trials() {
        let p = |trials, failures| WhpPoint {
            n: 16,
            trials,
            failures,
        };
        assert!((p(40, 10).rate() - 0.25).abs() < 1e-12);
        assert_eq!(p(0, 0).rate(), 0.0);
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
