//! The perf-baseline store: the versioned `BENCH_<stamp>.json` schema and
//! the zero-tolerance model-drift gate.
//!
//! `bench perf`, `bench loadgen` and `bench grid` emit [`PerfSuite`]
//! documents whose cases carry only deterministic model quantities
//! (rounds/messages/words), and [`compare`] them against the committed
//! `BENCH_baseline.json`. Those quantities are a pure function of the
//! protocol and the seed, so the gate has **zero** tolerance: any drift is
//! a real behavioural change, not noise. Wall-clock time is not recorded
//! here; the `benchmark/` package (`ccbench`) is the one timing harness.

use cc_trace::Json;
use std::fmt::Write as _;

/// Current `BENCH_*.json` schema version. Bump on any incompatible
/// change and document the migration in DESIGN.md §12. v2 dropped the
/// v1 timing columns (`runs`, `nanos_*`); v1 documents are not read.
pub const PERF_SCHEMA_VERSION: u64 = 2;

/// One baseline case: the model cost of a (workload, engine, size)
/// triple.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfCase {
    /// Workload ID (`gc-sketch`, `exact-mst`, `rt-connectivity`, …).
    pub id: String,
    /// Engine that ran it (`net`, `serial`, `parallel`).
    pub backend: String,
    /// Clique size.
    pub n: u64,
    /// Metered rounds (deterministic; gated at zero tolerance).
    pub rounds: u64,
    /// Metered messages (deterministic; gated at zero tolerance).
    pub messages: u64,
    /// Metered words (deterministic; gated at zero tolerance).
    pub words: u64,
    /// Heap allocations during the first run, when the counting
    /// allocator was compiled in (`--features count-allocs`).
    pub allocs: Option<u64>,
    /// Bytes requested by those allocations.
    pub alloc_bytes: Option<u64>,
}

impl PerfCase {
    /// The identity key baselines are matched on.
    pub fn key(&self) -> (String, String, u64) {
        (self.id.clone(), self.backend.clone(), self.n)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::Str(self.id.clone())),
            ("backend", Json::Str(self.backend.clone())),
            ("n", Json::UInt(self.n)),
            ("rounds", Json::UInt(self.rounds)),
            ("messages", Json::UInt(self.messages)),
            ("words", Json::UInt(self.words)),
        ];
        if let Some(a) = self.allocs {
            fields.push(("allocs", Json::UInt(a)));
        }
        if let Some(b) = self.alloc_bytes {
            fields.push(("alloc_bytes", Json::UInt(b)));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<PerfCase, String> {
        let u = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("perf case: missing u64 field `{name}`"))
        };
        let s = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("perf case: missing string field `{name}`"))
        };
        Ok(PerfCase {
            id: s("id")?,
            backend: s("backend")?,
            n: u("n")?,
            rounds: u("rounds")?,
            messages: u("messages")?,
            words: u("words")?,
            allocs: v.get("allocs").and_then(Json::as_u64),
            alloc_bytes: v.get("alloc_bytes").and_then(Json::as_u64),
        })
    }
}

/// A dated suite of [`PerfCase`]s — the on-disk `BENCH_<stamp>.json`
/// document, following the `RunArtifact` conventions (schema version,
/// generator, free-form metadata).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfSuite {
    /// Schema version ([`PERF_SCHEMA_VERSION`] on emit).
    pub schema_version: u64,
    /// What produced the document (binary name + flags).
    pub generator: String,
    /// Unix timestamp (seconds) of the run; 0 when unavailable.
    pub created_unix: u64,
    /// Free-form metadata: mode, load shape…
    pub meta: Vec<(String, String)>,
    /// The measured cases.
    pub cases: Vec<PerfCase>,
}

impl PerfSuite {
    /// A fresh suite stamped with the current schema version and time.
    pub fn new(generator: &str) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        PerfSuite {
            schema_version: PERF_SCHEMA_VERSION,
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

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::UInt(self.schema_version)),
            ("generator", Json::Str(self.generator.clone())),
            ("created_unix", Json::UInt(self.created_unix)),
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
                "cases",
                Json::Arr(self.cases.iter().map(PerfCase::to_json).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON document (the on-disk form).
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parses a suite document.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem; rejects every schema
    /// version but [`PERF_SCHEMA_VERSION`].
    pub fn from_json_str(text: &str) -> Result<PerfSuite, String> {
        let v = Json::parse(text)?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("perf suite: missing `schema_version`")?;
        if schema_version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf suite: schema_version {schema_version} not supported (expected {PERF_SCHEMA_VERSION})"
            ));
        }
        let meta = match v.get("meta") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("perf suite: meta `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("perf suite: missing `meta` object".into()),
        };
        let cases = v
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("perf suite: missing `cases` array")?
            .iter()
            .map(PerfCase::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PerfSuite {
            schema_version,
            generator: v
                .get("generator")
                .and_then(Json::as_str)
                .ok_or("perf suite: missing `generator`")?
                .to_string(),
            created_unix: v
                .get("created_unix")
                .and_then(Json::as_u64)
                .ok_or("perf suite: missing `created_unix`")?,
            meta,
            cases,
        })
    }

    /// Checks the documented structural invariants.
    ///
    /// # Errors
    ///
    /// Every violation found, one message each.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.schema_version != PERF_SCHEMA_VERSION {
            problems.push(format!(
                "schema_version {} != supported {PERF_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.generator.is_empty() {
            problems.push("generator is empty".into());
        }
        let mut keys: Vec<_> = self.cases.iter().map(PerfCase::key).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        if keys.len() != before {
            problems.push("duplicate case keys".into());
        }
        if self
            .cases
            .iter()
            .any(|c| c.id.is_empty() || c.backend.is_empty())
        {
            problems.push("case with empty id/backend".into());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// One matched (current, baseline) case pair.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseDelta {
    /// Workload ID.
    pub id: String,
    /// Engine.
    pub backend: String,
    /// Clique size.
    pub n: u64,
    /// Deterministic-quantity drift (rounds/messages/words changed),
    /// described per field; empty when none.
    pub model_drift: Vec<String>,
}

impl CaseDelta {
    /// Whether this pair fails the gate.
    pub fn regressed(&self) -> bool {
        !self.model_drift.is_empty()
    }
}

/// The outcome of comparing a current suite against a baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfComparison {
    /// Matched case pairs, in current-suite order.
    pub deltas: Vec<CaseDelta>,
    /// Baseline cases the current suite no longer runs.
    pub missing: Vec<(String, String, u64)>,
    /// Current cases the baseline has no record of (not a failure — new
    /// cases enter the baseline on its next refresh).
    pub new_cases: Vec<(String, String, u64)>,
}

impl PerfComparison {
    /// Every failing pair.
    pub fn regressions(&self) -> Vec<&CaseDelta> {
        self.deltas.iter().filter(|d| d.regressed()).collect()
    }

    /// Whether the gate passes (no model drift and no vanished cases).
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }
}

/// Compares `current` against `baseline`: every matched case must carry
/// exactly the baseline's rounds, messages and words.
pub fn compare(current: &PerfSuite, baseline: &PerfSuite) -> PerfComparison {
    let mut cmp = PerfComparison::default();
    for cur in &current.cases {
        let Some(base) = baseline.cases.iter().find(|b| b.key() == cur.key()) else {
            cmp.new_cases.push(cur.key());
            continue;
        };
        let mut model_drift = Vec::new();
        for (name, c, b) in [
            ("rounds", cur.rounds, base.rounds),
            ("messages", cur.messages, base.messages),
            ("words", cur.words, base.words),
        ] {
            if c != b {
                model_drift.push(format!("{name} {b} -> {c}"));
            }
        }
        cmp.deltas.push(CaseDelta {
            id: cur.id.clone(),
            backend: cur.backend.clone(),
            n: cur.n,
            model_drift,
        });
    }
    for base in &baseline.cases {
        if !current.cases.iter().any(|c| c.key() == base.key()) {
            cmp.missing.push(base.key());
        }
    }
    cmp
}

/// Renders a comparison as an aligned text table plus a verdict line.
pub fn render_comparison(cmp: &PerfComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<24} {:<16} {:>5}  verdict", "case", "backend", "n");
    out.push_str(&"-".repeat(56));
    out.push('\n');
    for d in &cmp.deltas {
        let verdict = if d.regressed() { "MODEL-DRIFT" } else { "ok" };
        let _ = writeln!(out, "{:<24} {:<16} {:>5}  {verdict}", d.id, d.backend, d.n);
        for drift in &d.model_drift {
            let _ = writeln!(out, "    model drift: {drift}");
        }
    }
    for (id, backend, n) in &cmp.missing {
        let _ = writeln!(out, "MISSING from current run: {id}/{backend}/n={n}");
    }
    for (id, backend, n) in &cmp.new_cases {
        let _ = writeln!(out, "new case (no baseline yet): {id}/{backend}/n={n}");
    }
    let _ = writeln!(
        out,
        "\nmodel quantities (rounds/messages/words) gated exactly\nverdict: {}",
        if cmp.passed() { "PASS" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(id: &str, backend: &str, n: u64) -> PerfCase {
        PerfCase {
            id: id.into(),
            backend: backend.into(),
            n,
            rounds: 30,
            messages: 1000,
            words: 2000,
            allocs: None,
            alloc_bytes: None,
        }
    }

    fn suite(cases: Vec<PerfCase>) -> PerfSuite {
        let mut s = PerfSuite::new("test").with_meta("mode", "quick");
        s.cases = cases;
        s
    }

    #[test]
    fn suite_round_trips_and_validates() {
        let mut s = suite(vec![case("gc-sketch", "net", 64)]);
        s.cases[0].allocs = Some(4242);
        s.cases[0].alloc_bytes = Some(1 << 20);
        let text = s.to_json_string();
        let parsed = PerfSuite::from_json_str(&text).unwrap();
        assert_eq!(parsed, s);
        parsed.validate().unwrap();
    }

    #[test]
    fn validate_catches_broken_suites() {
        let mut s = suite(vec![
            case("a", "net", 8),
            case("a", "net", 8), // duplicate key
        ]);
        s.cases[0].backend.clear();
        s.cases[1].backend.clear();
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("duplicate")));
        assert!(problems.iter().any(|p| p.contains("empty id/backend")));
    }

    #[test]
    fn rejects_other_schema_versions() {
        for version in [1, 99] {
            let mut s = suite(vec![]);
            s.schema_version = version;
            assert!(PerfSuite::from_json_str(&s.to_json_string())
                .unwrap_err()
                .contains("schema_version"));
        }
    }

    #[test]
    fn deterministic_quantities_have_zero_tolerance() {
        let base = suite(vec![case("gc-sketch", "net", 64)]);
        assert!(compare(&base, &base).passed());
        let mut cur = base.clone();
        cur.cases[0].messages += 1;
        let cmp = compare(&cur, &base);
        assert!(!cmp.passed());
        assert!(cmp.regressions()[0].model_drift[0].contains("messages"));
        let rendered = render_comparison(&cmp);
        assert!(rendered.contains("MODEL-DRIFT"), "{rendered}");
        assert!(rendered.contains("FAIL"), "{rendered}");
    }

    #[test]
    fn missing_and_new_cases_are_distinguished() {
        let base = suite(vec![case("a", "net", 8), case("b", "net", 8)]);
        let cur = suite(vec![case("a", "net", 8), case("c", "net", 8)]);
        let cmp = compare(&cur, &base);
        assert_eq!(cmp.missing, vec![("b".into(), "net".into(), 8)]);
        assert_eq!(cmp.new_cases, vec![("c".into(), "net".into(), 8)]);
        assert!(!cmp.passed(), "a vanished case fails the gate");
    }
}
