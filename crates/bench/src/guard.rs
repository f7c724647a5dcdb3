//! One guarded run of a [`cc_core::catalog`] entry, and one [`Verdict`]
//! on how it ended.
//!
//! The model grid (E22/E23) and the fault matrix (E17) ask one question:
//! weaken the model or inject faults, and does the algorithm still answer
//! correctly, fail loudly, or lie? [`run`] answers it once. It builds one
//! [`Net`] under [`ROUND_CAP`] with one [`LedgerTracer`] on the net's own
//! model, attaches the fault plan's injector if there is one, runs the
//! entry inside `catch_unwind`, applies the entry's check, and finally
//! the independent differential against the sequential reference
//! (component labels for GC, Kruskal's weight for both MSTs). Each
//! harness only renders the verdict: the grid as `ok` / `model-reject` /
//! `failed` plus a kind, E17 as `correct`, `detected-failure` or
//! `silent-wrong-answer` ([`Verdict::outcome`]).

use cc_chaos::FaultPlan;
use cc_core::catalog::{Answer, Entry};
use cc_core::CoreError;
use cc_graph::connectivity::component_labels;
use cc_graph::{mst, WGraph};
use cc_lens::{CommLedger, LedgerTracer};
use cc_net::{Cost, NetConfig, NetError};
use cc_route::Net;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Round watchdog for every guarded run: a weakened model or a fault
/// plan must never hang a sweep, so a blown cap is a typed `round-cap`
/// refusal.
pub const ROUND_CAP: u64 = 100_000;

/// The kind of a [`Verdict::DetectedError`] whose answer the entry's
/// check rejected.
const WRONG_ANSWER: &str = "wrong-answer";

/// How one guarded run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Completed, accepted by its check, and equal to the sequential
    /// reference.
    Ok,
    /// The simulator refused the run: a [`CoreError::Net`] other than
    /// [`NetError::BadHeader`], whose
    /// [`kind`](cc_net::NetError::kind) and display name the round and
    /// link where the run first left the model.
    ModelReject {
        /// The [`cc_net::NetError`] kind tag.
        kind: &'static str,
        /// The full error display.
        detail: String,
    },
    /// The run failed loudly: the sketch budget ran out
    /// (`sketch-exhausted`), a shipped bundle lost or duplicated a
    /// fragment or a sketch arrived short (`fragment-lost`), a node read
    /// a message its protocol cannot have sent (`malformed-message`, or
    /// `bad-header` for a routed frame whose header names no node), or
    /// the check rejected the answer (`wrong-answer`).
    DetectedError {
        /// `sketch-exhausted`, `fragment-lost`, `malformed-message`,
        /// `bad-header` or `wrong-answer`.
        kind: &'static str,
        /// The error display, or the check's reason.
        detail: String,
    },
    /// The run panicked.
    Panic {
        /// The panic payload.
        detail: String,
    },
    /// The check accepted an answer that disagrees with the sequential
    /// reference — the outcome validation exists to rule out.
    SilentWrong {
        /// What disagreed.
        detail: String,
    },
}

impl Verdict {
    /// The verdict on a run that returned `result`: its error, else the
    /// `check`'s rejection, else whether `reference` agrees.
    pub fn returned<A>(
        result: Result<A, CoreError>,
        check: impl FnOnce(&A) -> Result<(), String>,
        reference: impl FnOnce(&A) -> bool,
    ) -> Verdict {
        let answer = match result {
            Ok(answer) => answer,
            Err(e) => {
                let detail = e.to_string();
                return match e {
                    // A corrupted routed-frame header is bad input read,
                    // not a rule the run broke.
                    CoreError::Net(net @ NetError::BadHeader { .. }) => Verdict::DetectedError {
                        kind: net.kind(),
                        detail,
                    },
                    CoreError::Net(net) => Verdict::ModelReject {
                        kind: net.kind(),
                        detail,
                    },
                    CoreError::SketchExhausted { .. } => Verdict::DetectedError {
                        kind: "sketch-exhausted",
                        detail,
                    },
                    CoreError::Fragment(_) | CoreError::SketchSize { .. } => {
                        Verdict::DetectedError {
                            kind: "fragment-lost",
                            detail,
                        }
                    }
                    CoreError::Malformed(_) => Verdict::DetectedError {
                        kind: "malformed-message",
                        detail,
                    },
                };
            }
        };
        match check(&answer) {
            Err(detail) => Verdict::DetectedError {
                kind: WRONG_ANSWER,
                detail,
            },
            Ok(()) if reference(&answer) => Verdict::Ok,
            Ok(()) => Verdict::SilentWrong {
                detail: "accepted, but disagrees with the sequential reference".into(),
            },
        }
    }

    /// The grid status: `ok`, `model-reject`, or `failed` for every
    /// outcome a weaker model must never cause.
    pub fn status(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::ModelReject { .. } => "model-reject",
            _ => "failed",
        }
    }

    /// Machine-readable kind of a non-ok verdict.
    pub fn kind(&self) -> Option<&'static str> {
        match self {
            Verdict::Ok => None,
            Verdict::ModelReject { kind, .. } | Verdict::DetectedError { kind, .. } => Some(kind),
            Verdict::Panic { .. } => Some("panic"),
            Verdict::SilentWrong { .. } => Some("silent-wrong"),
        }
    }

    /// Human-readable detail of a non-ok verdict.
    pub fn detail(&self) -> Option<&str> {
        match self {
            Verdict::Ok => None,
            Verdict::ModelReject { detail, .. }
            | Verdict::DetectedError { detail, .. }
            | Verdict::Panic { detail }
            | Verdict::SilentWrong { detail } => Some(detail),
        }
    }

    /// The E17 outcome: a run is `correct`, a `detected-failure` (every
    /// loud failure, a model refusal included) or a
    /// `silent-wrong-answer`.
    pub fn outcome(&self) -> &'static str {
        match self {
            Verdict::Ok => "correct",
            Verdict::SilentWrong { .. } => "silent-wrong-answer",
            _ => "detected-failure",
        }
    }

    /// The E17 detail: errors as `error: …`, panics as `panic: …`, a
    /// check's reason verbatim, empty when correct.
    pub fn outcome_detail(&self) -> String {
        match self {
            Verdict::Ok => String::new(),
            Verdict::DetectedError {
                kind: WRONG_ANSWER,
                detail,
            }
            | Verdict::SilentWrong { detail } => detail.clone(),
            Verdict::ModelReject { detail, .. } | Verdict::DetectedError { detail, .. } => {
                format!("error: {detail}")
            }
            Verdict::Panic { detail } => format!("panic: {detail}"),
        }
    }
}

/// One guarded run: its verdict, the net's metered cost, the live
/// communication fold, and the wall time of the run itself.
#[derive(Clone, Debug)]
pub struct Run {
    /// How the run ended.
    pub verdict: Verdict,
    /// Rounds, messages and words metered (up to the failure point for a
    /// run that did not finish).
    pub cost: Cost,
    /// The cc-lens fold of the run's traffic under the net's model.
    pub ledger: CommLedger,
    /// Wall-clock nanoseconds of the run, check excluded.
    pub nanos: u64,
}

/// Runs `entry` on a fresh net built from `cfg` (capped at
/// [`ROUND_CAP`]) under `plan`, and judges it.
pub fn run(cfg: NetConfig, plan: Option<&FaultPlan>, entry: Entry) -> Run {
    run_with(cfg, plan, entry, |net| entry.run(net))
}

/// [`run`] with `runner` in place of `entry`'s own algorithm; the answer
/// still faces `entry`'s check and differential. The grid's
/// broadcast-only `gc-sketch` cell is the one caller.
pub fn run_with(
    cfg: NetConfig,
    plan: Option<&FaultPlan>,
    entry: Entry,
    runner: impl FnOnce(&mut Net) -> Result<Answer, CoreError>,
) -> Run {
    let fold = LedgerTracer::new(cfg.n, &cfg.model()).expect("a net config is a valid model");
    let mut net = Net::new(cfg.with_round_cap(ROUND_CAP));
    net.set_tracer(Box::new(fold.clone()));
    if let Some(plan) = plan {
        net.set_fault_injector(Box::new(plan.injector()));
    }
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| runner(&mut net)));
    let nanos = t0.elapsed().as_nanos() as u64;
    let cost = net.cost();
    drop(net);
    let verdict = match result {
        Ok(result) => {
            Verdict::returned(result, |a| entry.check(a), |a| matches_reference(entry, a))
        }
        Err(payload) => Verdict::Panic {
            detail: payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic")
                .to_string(),
        },
    };
    let ledger = fold
        .finish()
        .expect("an engine's batches stay inside its clique");
    Run {
        verdict,
        cost,
        ledger,
        nanos,
    }
}

/// The independent differential: does `answer` agree with the
/// sequential reference?
fn matches_reference(entry: Entry, answer: &Answer) -> bool {
    let kruskal = |g| WGraph::total_weight(&mst::kruskal(g));
    match (entry, answer) {
        (Entry::GcSketch(g), Answer::Gc(out)) => out.labels == component_labels(g),
        (Entry::ExactMst(g), Answer::ExactMst(run)) => WGraph::total_weight(&run.mst) == kruskal(g),
        (Entry::Kt1Mst(g), Answer::Kt1Mst(run)) => WGraph::total_weight(&run.mst) == kruskal(g),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_net::NetError;

    fn judge(result: Result<(), CoreError>, accepted: bool, matches: bool) -> Verdict {
        Verdict::returned(
            result,
            |_| {
                if accepted {
                    Ok(())
                } else {
                    Err("rejected".into())
                }
            },
            |_| matches,
        )
    }

    #[test]
    fn verdict_truth_table_and_renderings() {
        let refused = CoreError::Net(NetError::RoundCapExceeded { cap: 3 });
        let exhausted = CoreError::SketchExhausted { failures: 2 };
        let malformed = CoreError::Malformed(cc_lotker::MalformedMessage {
            round: 4,
            sender: 1,
            receiver: 0,
            defect: cc_lotker::Defect::Length { found: 1 },
        });
        let bad_header = CoreError::Net(NetError::BadHeader {
            round: 1,
            node: 2,
            word: None,
        });
        // (verdict, grid status, grid kind, E17 outcome, E17 detail prefix)
        let cases = [
            (judge(Ok(()), true, true), "ok", None, "correct", ""),
            (
                judge(Ok(()), true, false),
                "failed",
                Some("silent-wrong"),
                "silent-wrong-answer",
                "accepted",
            ),
            // A rejected answer is loud whatever the reference says.
            (
                judge(Ok(()), false, true),
                "failed",
                Some("wrong-answer"),
                "detected-failure",
                "rejected",
            ),
            (
                judge(Ok(()), false, false),
                "failed",
                Some("wrong-answer"),
                "detected-failure",
                "rejected",
            ),
            (
                judge(Err(refused), true, true),
                "model-reject",
                Some("round-cap"),
                "detected-failure",
                "error: network error:",
            ),
            (
                judge(Err(exhausted), true, true),
                "failed",
                Some("sketch-exhausted"),
                "detected-failure",
                "error: sketch families exhausted",
            ),
            (
                judge(Err(malformed), true, true),
                "failed",
                Some("malformed-message"),
                "detected-failure",
                "error: malformed message: round 4",
            ),
            // A corrupted header is read input, not a broken model rule.
            (
                judge(Err(bad_header), true, true),
                "failed",
                Some("bad-header"),
                "detected-failure",
                "error: network error: round 1: node 2",
            ),
            (
                Verdict::Panic {
                    detail: "boom".into(),
                },
                "failed",
                Some("panic"),
                "detected-failure",
                "panic: boom",
            ),
        ];
        for (verdict, status, kind, outcome, detail) in cases {
            assert_eq!(verdict.status(), status, "{verdict:?}");
            assert_eq!(verdict.kind(), kind, "{verdict:?}");
            assert_eq!(verdict.detail().is_none(), verdict == Verdict::Ok);
            assert_eq!(verdict.outcome(), outcome, "{verdict:?}");
            assert!(
                verdict.outcome_detail().starts_with(detail),
                "{verdict:?}: {}",
                verdict.outcome_detail()
            );
        }
    }
}
