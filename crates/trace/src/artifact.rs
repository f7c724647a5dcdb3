//! The versioned, machine-readable run artifact.
//!
//! A [`RunArtifact`] is the single JSON file a harness run leaves behind:
//! metadata, tables and metrics snapshots. Every result a run produces —
//! an experiment table, the claim checklist, a per-phase cost breakdown,
//! the fault matrix, the whp sweep — is one [`ExperimentRecord`], the
//! same value the harness prints, so the plain-text outputs
//! (`docs/experiment_tables.txt`, `docs/claims_checklist.txt`) and the
//! JSON cannot drift apart.
//!
//! The format is versioned via [`SCHEMA_VERSION`]; [`RunArtifact::validate`]
//! checks the structural invariants the schema documents (DESIGN.md §10).

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use std::fmt;

/// Current artifact schema version. Bump on any incompatible change and
/// document the migration in DESIGN.md §10.
///
/// v3 (serve): adds the per-job `queued_unix_nanos` / `started_unix_nanos`
/// / `finished_unix_nanos` wall-clock fields so a served job's latency is
/// attributable to queueing vs compute (DESIGN.md §14).
///
/// v4: drops the typed `claims`, `breakdowns`, `robustness` and
/// `whp_sweep` sections; each is now a table in `experiments`.
///
/// Only this version is read: older documents are refused, not migrated.
pub const SCHEMA_VERSION: u64 = 4;

/// A titled table with a caption tying it to the paper's claim: one
/// experiment table, and the one type for every tabular result a run
/// stores. Cells are strings, so tests can assert structural invariants
/// without parsing formatted output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// Table identifier, stored verbatim (e.g. `E6b`).
    pub id: String,
    /// What the table shows and which claim it reproduces.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each exactly `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentRecord {
    /// Creates an empty table.
    pub fn new(id: &str, caption: &str, headers: &[&str]) -> Self {
        ExperimentRecord {
            id: id.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as CSV (caption as a `#` comment line).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {}: {}\n", self.id, self.caption);
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Column values parsed as `f64` (for shape assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if no column is named `name`.
    pub fn column_f64(&self, name: &str) -> Vec<f64> {
        let idx = self
            .headers
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column named {name}"));
        self.rows
            .iter()
            .map(|r| r[idx].parse::<f64>().unwrap_or(f64::NAN))
            .collect()
    }

    fn to_json(&self) -> Json {
        let strings = |cells: &[String]| Json::Arr(cells.iter().cloned().map(Json::Str).collect());
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("caption", Json::Str(self.caption.clone())),
            ("headers", strings(&self.headers)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
    }

    fn from_json(e: &Json) -> Result<ExperimentRecord, String> {
        let strings = |v: &Json, what: &str| -> Result<Vec<String>, String> {
            v.as_arr()
                .ok_or_else(|| format!("experiment: `{what}` is not an array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("experiment: non-string in `{what}`"))
                })
                .collect()
        };
        let field = |name: &str| {
            e.get(name)
                .ok_or_else(|| format!("experiment: missing `{name}`"))
        };
        let text = |name: &str| -> Result<String, String> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("experiment: `{name}` is not a string"))
        };
        Ok(ExperimentRecord {
            id: text("id")?,
            caption: text("caption")?,
            headers: strings(field("headers")?, "headers")?,
            rows: field("rows")?
                .as_arr()
                .ok_or("experiment: `rows` is not an array")?
                .iter()
                .map(|r| strings(r, "rows"))
                .collect::<Result<_, _>>()?,
        })
    }
}

impl fmt::Display for ExperimentRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.caption)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
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
    /// Every table the run produced.
    pub experiments: Vec<ExperimentRecord>,
    /// Named metrics snapshots (one per traced workload).
    pub metrics: Vec<(String, MetricsSnapshot)>,
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
                        .map(ExperimentRecord::to_json)
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
            .map(ExperimentRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, m)| MetricsSnapshot::from_json(m).map(|s| (k.clone(), s)))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("artifact: missing `metrics` object".into()),
        };
        Ok(RunArtifact {
            schema_version,
            generator: str_field("generator")?,
            created_unix: u64_field("created_unix")?,
            queued_unix_nanos: u64_field("queued_unix_nanos")?,
            started_unix_nanos: u64_field("started_unix_nanos")?,
            finished_unix_nanos: u64_field("finished_unix_nanos")?,
            meta,
            experiments,
            metrics,
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
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifact {
        let mut a = RunArtifact::new("test-harness").with_meta("mode", "quick");
        let mut e1 = ExperimentRecord::new("e1", "demo", &["n", "rounds"]);
        e1.push_row(vec!["8".into(), "12".into()]);
        let mut claims =
            ExperimentRecord::new("claims", "checked claims", &["claim", "check", "verdict"]);
        claims.push_row(vec![
            "Thm 4".into(),
            "rounds grow slowly".into(),
            "PASS".into(),
        ]);
        a.experiments = vec![e1, claims];
        a.metrics.push((
            "gc-n64".into(),
            crate::metrics::MetricsRegistry::new().snapshot(),
        ));
        a.with_job_timestamps(100, 250, 900)
    }

    #[test]
    fn round_trips_and_validates() {
        let a = sample();
        let text = a.to_json_string();
        let parsed = RunArtifact::from_json_str(&text).unwrap();
        assert_eq!(parsed, a);
        parsed.validate().unwrap();
        // The v4 document is metadata, tables and metrics, nothing else.
        let keys: Vec<String> = match Json::parse(&text).unwrap() {
            Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "schema_version",
                "generator",
                "created_unix",
                "queued_unix_nanos",
                "started_unix_nanos",
                "finished_unix_nanos",
                "meta",
                "experiments",
                "metrics"
            ]
        );
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

    /// A v3 document — with the typed `claims`, `breakdowns`,
    /// `robustness` and `whp_sweep` sections v4 dropped — is refused with
    /// an error naming the schema version.
    #[test]
    fn refuses_v3_documents() {
        let mut v3 = sample().to_json();
        let Json::Obj(pairs) = &mut v3 else {
            unreachable!("an artifact is an object")
        };
        pairs[0].1 = Json::UInt(3);
        for section in ["claims", "breakdowns", "robustness", "whp_sweep"] {
            pairs.push((section.into(), Json::Arr(Vec::new())));
        }
        let err = RunArtifact::from_json_str(&v3.emit_pretty()).unwrap_err();
        assert!(err.contains("schema_version 3"), "{err}");
        let mut a = sample();
        a.schema_version = 3;
        assert!(a.validate().unwrap_err()[0].contains("schema_version"));
    }

    #[test]
    fn tables_render_and_parse() {
        let mut t = ExperimentRecord::new("E0", "demo", &["n", "rounds"]);
        t.push_row(vec!["8".into(), "12".into()]);
        t.push_row(vec!["16".into(), "14".into()]);
        assert_eq!(
            t.to_string(),
            "== E0: demo ==\n\
             |  n | rounds |\n\
             ---------------\n\
             |  8 |     12 |\n\
             | 16 |     14 |\n"
        );
        assert_eq!(t.column_f64("rounds"), vec![12.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = ExperimentRecord::new("E0", "demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_rendering() {
        let mut t = ExperimentRecord::new("E0", "demo", &["n", "rounds"]);
        t.push_row(vec!["8".into(), "12".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# E0: demo\n"));
        assert!(csv.contains("n,rounds\n8,12\n"));
    }
}
