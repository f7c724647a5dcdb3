//! The versioned, machine-readable run artifact.
//!
//! A [`RunArtifact`] is the single JSON file a harness run leaves behind:
//! configuration/metadata, every experiment table, every claim verdict,
//! per-phase cost breakdowns for the headline algorithms, and metrics
//! snapshots. The plain-text outputs (`docs/experiment_tables.txt`,
//! `docs/claims_checklist.txt`) are *rendered from* this artifact, so the
//! human-readable and machine-readable views cannot drift apart, and the
//! `BENCH_*.json` performance trajectory is generated from the same file.
//!
//! The format is versioned via [`SCHEMA_VERSION`]; [`RunArtifact::validate`]
//! checks the structural invariants the schema documents (DESIGN.md §10).

use crate::event::CostSnapshot;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// Current artifact schema version. Bump on any incompatible change and
/// document the migration in DESIGN.md §10.
///
/// v2 (chaos): adds the `robustness` and `whp_sweep` sections for the
/// fault-injection harness (DESIGN.md §11).
///
/// v3 (serve): adds the per-job `queued_unix_nanos` / `started_unix_nanos`
/// / `finished_unix_nanos` wall-clock fields so a served job's latency is
/// attributable to queueing vs compute (DESIGN.md §14).
///
/// Only this version is read: older documents are refused, not migrated.
pub const SCHEMA_VERSION: u64 = 3;

/// The canonical outcome labels of the robustness taxonomy (DESIGN.md
/// §11): a faulted run is *correct*, a *detected failure* (an error was
/// raised, a panic caught, or the output validator rejected), or a
/// *silent wrong answer* (validation passed but the differential check
/// against the sequential reference disagrees).
pub const ROBUSTNESS_OUTCOMES: [&str; 3] = ["correct", "detected-failure", "silent-wrong-answer"];

/// One experiment table (mirror of `cc_bench::Table`, kept stringly so
/// the artifact layer needs no knowledge of individual experiments).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Experiment ID (e.g. `e1`).
    pub id: String,
    /// Caption tying the table to the paper's claim.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each exactly `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

/// One machine-checked paper claim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimRecord {
    /// Paper reference ("Thm 4 (E1)", …).
    pub claim: String,
    /// What was checked, in one sentence.
    pub check: String,
    /// Did it hold?
    pub pass: bool,
}

/// Per-phase cost breakdown of one algorithm run (same-named scopes
/// summed, first-appearance order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Algorithm name (`gc`, `exact-mst`, `kt1-mst`, …).
    pub algo: String,
    /// Clique size of the run.
    pub n: u64,
    /// Total metered cost.
    pub total: CostSnapshot,
    /// `(phase name, cost)` in execution order.
    pub phases: Vec<(String, CostSnapshot)>,
}

/// One fault-schedule run of the robustness harness (schema v2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RobustnessRecord {
    /// Algorithm under test (`gc`, `exact-mst`, `kt1-mst`, …).
    pub algo: String,
    /// Fault-schedule name (`drop-1pct`, `crash-1`, …).
    pub schedule: String,
    /// Clique size.
    pub n: u64,
    /// Fault-plan seed.
    pub seed: u64,
    /// One of [`ROBUSTNESS_OUTCOMES`].
    pub outcome: String,
    /// Faults injected during the run (fault + crash events).
    pub faults: u64,
    /// Error / mismatch detail; empty for correct runs.
    pub detail: String,
}

/// One point of the whp failure-rate seed sweep (schema v2): sketch
/// connectivity run across `trials` independent seeds at clique size `n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WhpPoint {
    /// Clique size.
    pub n: u64,
    /// Independent seeds tried.
    pub trials: u64,
    /// Runs that failed (sketch exhaustion or a wrong answer).
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

/// The versioned run artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArtifact {
    /// Schema version ([`SCHEMA_VERSION`] on emit).
    pub schema_version: u64,
    /// What produced the artifact (binary name + flags).
    pub generator: String,
    /// Unix timestamp (seconds) of the run; 0 when unavailable.
    pub created_unix: u64,
    /// When the producing job was admitted to a serve queue (unix
    /// nanoseconds; 0 when the artifact was not produced by a job).
    pub queued_unix_nanos: u64,
    /// When a worker started executing the job (unix nanoseconds; 0 as
    /// above).
    pub started_unix_nanos: u64,
    /// When the job finished and the artifact was sealed (unix
    /// nanoseconds; 0 as above).
    pub finished_unix_nanos: u64,
    /// Free-form metadata: git commit, sweep mode, host, seeds…
    pub meta: Vec<(String, String)>,
    /// Experiment tables.
    pub experiments: Vec<ExperimentRecord>,
    /// Claim verdicts.
    pub claims: Vec<ClaimRecord>,
    /// Per-algorithm phase breakdowns.
    pub breakdowns: Vec<PhaseBreakdown>,
    /// Named metrics snapshots (one per traced workload).
    pub metrics: Vec<(String, MetricsSnapshot)>,
    /// Robustness-harness outcomes (empty when the harness did not run).
    pub robustness: Vec<RobustnessRecord>,
    /// whp failure-rate sweep (empty when the sweep did not run).
    pub whp_sweep: Vec<WhpPoint>,
}

impl RunArtifact {
    /// A fresh artifact stamped with the current schema version and time.
    pub fn new(generator: &str) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            generator: generator.to_string(),
            created_unix,
            ..Default::default()
        }
    }

    /// Adds a metadata key/value pair.
    pub fn with_meta(mut self, key: &str, value: &str) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Stamps the per-job lifecycle timestamps (unix nanoseconds).
    pub fn with_job_timestamps(mut self, queued: u64, started: u64, finished: u64) -> Self {
        self.queued_unix_nanos = queued;
        self.started_unix_nanos = started;
        self.finished_unix_nanos = finished;
        self
    }

    /// Nanoseconds the producing job spent waiting in the queue
    /// (`started - queued`, saturating; 0 when the timestamps are absent).
    pub fn queue_nanos(&self) -> u64 {
        self.started_unix_nanos
            .saturating_sub(self.queued_unix_nanos)
    }

    /// Nanoseconds the producing job spent computing
    /// (`finished - started`, saturating; 0 when the timestamps are
    /// absent).
    pub fn compute_nanos(&self) -> u64 {
        self.finished_unix_nanos
            .saturating_sub(self.started_unix_nanos)
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::UInt(self.schema_version)),
            ("generator", Json::Str(self.generator.clone())),
            ("created_unix", Json::UInt(self.created_unix)),
            ("queued_unix_nanos", Json::UInt(self.queued_unix_nanos)),
            ("started_unix_nanos", Json::UInt(self.started_unix_nanos)),
            ("finished_unix_nanos", Json::UInt(self.finished_unix_nanos)),
            (
                "meta",
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "experiments",
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("id", Json::Str(e.id.clone())),
                                ("caption", Json::Str(e.caption.clone())),
                                (
                                    "headers",
                                    Json::Arr(e.headers.iter().cloned().map(Json::Str).collect()),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        e.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(
                                                    r.iter().cloned().map(Json::Str).collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "claims",
                Json::Arr(
                    self.claims
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("claim", Json::Str(c.claim.clone())),
                                ("check", Json::Str(c.check.clone())),
                                ("pass", Json::Bool(c.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "breakdowns",
                Json::Arr(
                    self.breakdowns
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("algo", Json::Str(b.algo.clone())),
                                ("n", Json::UInt(b.n)),
                                ("total", b.total.to_json()),
                                (
                                    "phases",
                                    Json::Arr(
                                        b.phases
                                            .iter()
                                            .map(|(name, cost)| {
                                                Json::obj(vec![
                                                    ("name", Json::Str(name.clone())),
                                                    ("cost", cost.to_json()),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, m)| (k.clone(), m.to_json()))
                        .collect(),
                ),
            ),
            (
                "robustness",
                Json::Arr(
                    self.robustness
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("algo", Json::Str(r.algo.clone())),
                                ("schedule", Json::Str(r.schedule.clone())),
                                ("n", Json::UInt(r.n)),
                                ("seed", Json::UInt(r.seed)),
                                ("outcome", Json::Str(r.outcome.clone())),
                                ("faults", Json::UInt(r.faults)),
                                ("detail", Json::Str(r.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "whp_sweep",
                Json::Arr(
                    self.whp_sweep
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("n", Json::UInt(p.n)),
                                ("trials", Json::UInt(p.trials)),
                                ("failures", Json::UInt(p.failures)),
                                ("rate", Json::Float(p.rate())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON document (the on-disk form).
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parses an artifact document.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem (also rejects unknown
    /// schema versions — parsing implies understanding).
    pub fn from_json_str(text: &str) -> Result<RunArtifact, String> {
        let v = Json::parse(text)?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("artifact: missing `schema_version`")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "artifact: schema_version {schema_version} not supported \
                 (expected {SCHEMA_VERSION})"
            ));
        }
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("artifact: missing u64 field `{name}`"))
        };
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("artifact: missing string field `{name}`"))
        };
        let meta = match v.get("meta") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("artifact: meta `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("artifact: missing `meta` object".into()),
        };
        let experiments = v
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing `experiments` array")?
            .iter()
            .map(parse_experiment)
            .collect::<Result<Vec<_>, _>>()?;
        let claims = v
            .get("claims")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing `claims` array")?
            .iter()
            .map(|c| {
                Ok(ClaimRecord {
                    claim: c
                        .get("claim")
                        .and_then(Json::as_str)
                        .ok_or("claim: missing `claim`")?
                        .to_string(),
                    check: c
                        .get("check")
                        .and_then(Json::as_str)
                        .ok_or("claim: missing `check`")?
                        .to_string(),
                    pass: c
                        .get("pass")
                        .and_then(Json::as_bool)
                        .ok_or("claim: missing `pass`")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let breakdowns = v
            .get("breakdowns")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing `breakdowns` array")?
            .iter()
            .map(parse_breakdown)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, m)| MetricsSnapshot::from_json(m).map(|s| (k.clone(), s)))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("artifact: missing `metrics` object".into()),
        };
        let robustness = v
            .get("robustness")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing `robustness` array")?
            .iter()
            .map(parse_robustness)
            .collect::<Result<Vec<_>, _>>()?;
        let whp_sweep = v
            .get("whp_sweep")
            .and_then(Json::as_arr)
            .ok_or("artifact: missing `whp_sweep` array")?
            .iter()
            .map(|p| {
                let field = |name: &str| -> Result<u64, String> {
                    p.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("whp point: missing u64 field `{name}`"))
                };
                Ok(WhpPoint {
                    n: field("n")?,
                    trials: field("trials")?,
                    failures: field("failures")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunArtifact {
            schema_version,
            generator: str_field("generator")?,
            created_unix: u64_field("created_unix")?,
            queued_unix_nanos: u64_field("queued_unix_nanos")?,
            started_unix_nanos: u64_field("started_unix_nanos")?,
            finished_unix_nanos: u64_field("finished_unix_nanos")?,
            meta,
            experiments,
            claims,
            breakdowns,
            metrics,
            robustness,
            whp_sweep,
        })
    }

    /// Checks the documented structural invariants beyond what parsing
    /// already guarantees.
    ///
    /// # Errors
    ///
    /// Every violation found, one message each.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.schema_version != SCHEMA_VERSION {
            problems.push(format!(
                "schema_version {} != supported {SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.queued_unix_nanos > self.started_unix_nanos
            || self.started_unix_nanos > self.finished_unix_nanos
        {
            // A job is queued, then started, then finished; all three are
            // 0 for non-job artifacts, which trivially satisfies this.
            problems.push(format!(
                "job timestamps out of order: queued {} / started {} / finished {}",
                self.queued_unix_nanos, self.started_unix_nanos, self.finished_unix_nanos
            ));
        }
        if self.generator.is_empty() {
            problems.push("generator is empty".into());
        }
        let mut ids: Vec<&str> = self.experiments.iter().map(|e| e.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != before {
            problems.push("duplicate experiment ids".into());
        }
        for e in &self.experiments {
            if e.id.is_empty() {
                problems.push("experiment with empty id".into());
            }
            if e.headers.is_empty() {
                problems.push(format!("experiment {}: no headers", e.id));
            }
            for (i, row) in e.rows.iter().enumerate() {
                if row.len() != e.headers.len() {
                    problems.push(format!(
                        "experiment {}: row {i} has {} cells, expected {}",
                        e.id,
                        row.len(),
                        e.headers.len()
                    ));
                }
            }
        }
        for c in &self.claims {
            if c.claim.is_empty() || c.check.is_empty() {
                problems.push("claim with empty text".into());
            }
        }
        for b in &self.breakdowns {
            if b.algo.is_empty() {
                problems.push("breakdown with empty algo name".into());
            }
            let phase_msgs: u64 = b.phases.iter().map(|(_, c)| c.messages).sum();
            if phase_msgs > b.total.messages {
                // Phases may legitimately under-cover the total (unscoped
                // traffic), but can never exceed it — unless scopes nest,
                // in which case inner costs are double-counted by design;
                // tolerate up to 2× before flagging.
                if phase_msgs > b.total.messages.saturating_mul(2) {
                    problems.push(format!(
                        "breakdown {}: phase messages {} exceed 2x total {}",
                        b.algo, phase_msgs, b.total.messages
                    ));
                }
            }
        }
        for r in &self.robustness {
            if r.algo.is_empty() || r.schedule.is_empty() {
                problems.push("robustness record with empty algo/schedule".into());
            }
            if !ROBUSTNESS_OUTCOMES.contains(&r.outcome.as_str()) {
                problems.push(format!(
                    "robustness {}/{}: unknown outcome `{}`",
                    r.algo, r.schedule, r.outcome
                ));
            }
        }
        for p in &self.whp_sweep {
            if p.trials == 0 {
                problems.push(format!("whp point n={}: zero trials", p.n));
            }
            if p.failures > p.trials {
                problems.push(format!(
                    "whp point n={}: {} failures out of {} trials",
                    p.n, p.failures, p.trials
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

fn parse_robustness(r: &Json) -> Result<RobustnessRecord, String> {
    let s = |name: &str| -> Result<String, String> {
        r.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("robustness: missing string field `{name}`"))
    };
    let u = |name: &str| -> Result<u64, String> {
        r.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("robustness: missing u64 field `{name}`"))
    };
    Ok(RobustnessRecord {
        algo: s("algo")?,
        schedule: s("schedule")?,
        n: u("n")?,
        seed: u("seed")?,
        outcome: s("outcome")?,
        faults: u("faults")?,
        detail: s("detail")?,
    })
}

fn parse_experiment(e: &Json) -> Result<ExperimentRecord, String> {
    let strings = |name: &str| -> Result<Vec<String>, String> {
        e.get(name)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("experiment: missing `{name}`"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("experiment: non-string in `{name}`"))
            })
            .collect()
    };
    let rows = e
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("experiment: missing `rows`")?
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or("experiment: row is not an array")?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or("experiment: non-string cell".to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ExperimentRecord {
        id: e
            .get("id")
            .and_then(Json::as_str)
            .ok_or("experiment: missing `id`")?
            .to_string(),
        caption: e
            .get("caption")
            .and_then(Json::as_str)
            .ok_or("experiment: missing `caption`")?
            .to_string(),
        headers: strings("headers")?,
        rows,
    })
}

fn parse_breakdown(b: &Json) -> Result<PhaseBreakdown, String> {
    let phases = b
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("breakdown: missing `phases`")?
        .iter()
        .map(|p| {
            let name = p
                .get("name")
                .and_then(Json::as_str)
                .ok_or("breakdown: phase missing `name`")?
                .to_string();
            let cost =
                CostSnapshot::from_json(p.get("cost").ok_or("breakdown: phase missing `cost`")?)?;
            Ok((name, cost))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PhaseBreakdown {
        algo: b
            .get("algo")
            .and_then(Json::as_str)
            .ok_or("breakdown: missing `algo`")?
            .to_string(),
        n: b.get("n")
            .and_then(Json::as_u64)
            .ok_or("breakdown: missing `n`")?,
        total: CostSnapshot::from_json(b.get("total").ok_or("breakdown: missing `total`")?)?,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifact {
        let mut a = RunArtifact::new("test-harness").with_meta("mode", "quick");
        a.experiments.push(ExperimentRecord {
            id: "e1".into(),
            caption: "demo".into(),
            headers: vec!["n".into(), "rounds".into()],
            rows: vec![vec!["8".into(), "12".into()]],
        });
        a.claims.push(ClaimRecord {
            claim: "Thm 4".into(),
            check: "rounds grow slowly".into(),
            pass: true,
        });
        a.breakdowns.push(PhaseBreakdown {
            algo: "gc".into(),
            n: 64,
            total: CostSnapshot {
                rounds: 30,
                messages: 1000,
                words: 2000,
                bits: 12000,
            },
            phases: vec![(
                "phase1".into(),
                CostSnapshot {
                    rounds: 25,
                    messages: 800,
                    words: 1600,
                    bits: 9600,
                },
            )],
        });
        a.metrics.push((
            "gc-n64".into(),
            crate::metrics::MetricsRegistry::new().snapshot(),
        ));
        a.robustness.push(RobustnessRecord {
            algo: "gc".into(),
            schedule: "drop-1pct".into(),
            n: 32,
            seed: 7,
            outcome: "correct".into(),
            faults: 12,
            detail: String::new(),
        });
        a.whp_sweep.push(WhpPoint {
            n: 16,
            trials: 40,
            failures: 3,
        });
        a.with_job_timestamps(100, 250, 900)
    }

    #[test]
    fn round_trips_and_validates() {
        let a = sample();
        let text = a.to_json_string();
        let parsed = RunArtifact::from_json_str(&text).unwrap();
        assert_eq!(parsed, a);
        parsed.validate().unwrap();
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let mut a = sample();
        a.schema_version = 99;
        let text = a.to_json_string();
        assert!(RunArtifact::from_json_str(&text)
            .unwrap_err()
            .contains("schema_version"));
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_catches_ragged_rows_and_dup_ids() {
        let mut a = sample();
        a.experiments[0].rows.push(vec!["only-one-cell".into()]);
        a.experiments.push(a.experiments[0].clone());
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("row 1")));
        assert!(problems.iter().any(|p| p.contains("duplicate")));
    }

    #[test]
    fn validate_flags_impossible_breakdowns() {
        let mut a = sample();
        a.breakdowns[0].phases[0].1.messages = 10_000; // > 2x total
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_checks_robustness_and_whp_invariants() {
        let mut a = sample();
        a.robustness[0].outcome = "mystery".into();
        a.whp_sweep[0].failures = 99;
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("unknown outcome")));
        assert!(problems.iter().any(|p| p.contains("99 failures")));
    }

    #[test]
    fn whp_rate_is_failures_over_trials() {
        let p = WhpPoint {
            n: 16,
            trials: 40,
            failures: 10,
        };
        assert!((p.rate() - 0.25).abs() < 1e-12);
        assert_eq!(WhpPoint::default().rate(), 0.0);
    }

    #[test]
    fn rejects_garbage_documents() {
        assert!(RunArtifact::from_json_str("{}").is_err());
        assert!(RunArtifact::from_json_str("not json").is_err());
    }

    #[test]
    fn job_timestamps_split_queue_and_compute() {
        let a = sample();
        assert_eq!(a.queue_nanos(), 150);
        assert_eq!(a.compute_nanos(), 650);
        assert_eq!(RunArtifact::default().queue_nanos(), 0);
    }

    #[test]
    fn validate_rejects_out_of_order_job_timestamps() {
        let a = sample().with_job_timestamps(900, 250, 100);
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("timestamps")));
    }

    /// A v2 document — the pre-serve on-disk form, with no job timestamp
    /// fields — is refused with an error naming the schema version.
    #[test]
    fn refuses_v2_documents() {
        let mut v2 = sample().with_job_timestamps(0, 0, 0);
        v2.schema_version = 2;
        let text: String = v2
            .to_json_string()
            .lines()
            .filter(|l| !l.contains("_unix_nanos"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = RunArtifact::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        assert!(v2.validate().unwrap_err()[0].contains("schema_version"));
    }
}
