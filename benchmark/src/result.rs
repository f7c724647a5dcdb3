//! Result files: what `run`, `trace` and `smoke` write and `compare`
//! reads, and how a workload's rounds fold into its metrics.

use crate::round::RoundOut;
use crate::sink::ScopeCount;
use crate::spec::Workload;
use crate::stats;
use cc_trace::Json;
use std::collections::BTreeMap;

/// One workload's line of a result file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Ops attempted in the timed sections of all rounds.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The percentile `op_tail_ms` reports, 0 in a traced result.
    pub tail_pct: u32,
    pub metrics: BTreeMap<String, f64>,
    /// Calls and inclusive simulated cost per scope name and op (traced).
    pub scopes: BTreeMap<String, ScopeCount>,
}

/// A whole result file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunFile {
    /// `run`, `trace` or `smoke`.
    pub kind: String,
    pub seed: u64,
    /// nproc, CPU model, kernel, commit.
    pub host: BTreeMap<String, String>,
    pub workloads: Vec<WorkloadResult>,
}

/// `{name: number}` as a JSON object.
pub fn numbers_to_json(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)))
            .collect(),
    )
}

/// The inverse of [`numbers_to_json`]; an absent object is empty.
pub fn numbers_from_json(v: Option<&Json>) -> Result<BTreeMap<String, f64>, String> {
    v.map(Json::as_map)
        .unwrap_or_default()
        .into_iter()
        .map(|(k, x)| {
            let x = x.as_f64().ok_or_else(|| format!("`{k}` is not a number"))?;
            Ok((k.to_string(), x))
        })
        .collect()
}

/// `{scope: [calls, rounds, messages, words]}` as a JSON object.
pub fn scopes_to_json(map: &BTreeMap<String, ScopeCount>) -> Json {
    let counts = |s: &ScopeCount| {
        let c = [s.calls, s.rounds, s.messages, s.words];
        Json::Arr(c.iter().map(|&x| Json::Float(x)).collect())
    };
    Json::Obj(map.iter().map(|(k, s)| (k.clone(), counts(s))).collect())
}

/// The inverse of [`scopes_to_json`]; an absent object is empty.
pub fn scopes_from_json(v: Option<&Json>) -> Result<BTreeMap<String, ScopeCount>, String> {
    v.map(Json::as_map)
        .unwrap_or_default()
        .into_iter()
        .map(|(k, x)| {
            let c: Option<Vec<f64>> = x
                .as_arr()
                .and_then(|a| a.iter().map(Json::as_f64).collect());
            match c.as_deref() {
                Some(&[calls, rounds, messages, words]) => Ok((
                    k.to_string(),
                    ScopeCount {
                        calls,
                        rounds,
                        messages,
                        words,
                    },
                )),
                _ => Err(format!("scope `{k}` does not hold four counts")),
            }
        })
        .collect()
}

/// Folds the untraced rounds of one workload into the ten end-to-end
/// metrics: latency samples pool across rounds; rates, CPU, memory and
/// set-up are the median of rounds.
pub fn end_to_end(w: &Workload, rounds: &[RoundOut]) -> WorkloadResult {
    let pooled = stats::sorted(
        rounds
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect(),
    );
    let attempted = pooled.len() as u64;
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let per_round =
        |f: fn(&RoundOut) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let tail_pct = stats::tail_pct(pooled.len(), w.tail_pct);
    let sim =
        |i: usize| rounds.iter().map(|r| r.sim[i]).sum::<u64>() as f64 / attempted.max(1) as f64;

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    put("setup_s", per_round(|r| r.setup_s));
    put("op_p50_ms", stats::percentile(&pooled, 50.0));
    put(
        "op_tail_ms",
        stats::percentile(&pooled, f64::from(tail_pct)),
    );
    put(
        "ops_per_s",
        per_round(|r| r.latencies_ms.len() as f64 / r.wall_s),
    );
    put(
        "cpu_ms_per_op",
        per_round(|r| r.cpu_ms / r.latencies_ms.len().max(1) as f64),
    );
    put("peak_rss_mb", per_round(|r| r.peak_rss_mb));
    put("fail_share", failed as f64 / attempted.max(1) as f64);
    put("sim_rounds_per_op", sim(0));
    put("sim_messages_per_op", sim(1));
    put("sim_words_per_op", sim(2));
    WorkloadResult {
        name: w.name.to_string(),
        attempted,
        failed,
        first_failure: rounds.iter().find_map(|r| r.first_failure.clone()),
        tail_pct,
        metrics,
        scopes: BTreeMap::new(),
    }
}

/// The per-layer result of one traced round.
pub fn per_layer(w: &Workload, round: &RoundOut) -> WorkloadResult {
    let trace = round.trace.as_ref();
    WorkloadResult {
        name: w.name.to_string(),
        attempted: round.latencies_ms.len() as u64,
        failed: round.failed,
        first_failure: round.first_failure.clone(),
        tail_pct: 0,
        metrics: trace.map(|t| t.layers.clone()).unwrap_or_default(),
        scopes: trace.map(|t| t.scopes.clone()).unwrap_or_default(),
    }
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "first_failure",
                self.first_failure.clone().map_or(Json::Null, Json::Str),
            ),
            ("tail_pct", Json::UInt(u64::from(self.tail_pct))),
            ("metrics", numbers_to_json(&self.metrics)),
            ("scopes", scopes_to_json(&self.scopes)),
        ])
    }

    fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let count = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("workload: missing count `{k}`"))
        };
        Ok(WorkloadResult {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload: missing `name`")?
                .to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            first_failure: v
                .get("first_failure")
                .and_then(Json::as_str)
                .map(str::to_string),
            tail_pct: count("tail_pct")? as u32,
            metrics: numbers_from_json(v.get("metrics"))?,
            scopes: scopes_from_json(v.get("scopes"))?,
        })
    }
}

impl RunFile {
    pub fn to_json(&self) -> Json {
        let host = self
            .host
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        Json::obj(vec![
            ("schema", Json::UInt(1)),
            ("kind", Json::Str(self.kind.clone())),
            ("seed", Json::UInt(self.seed)),
            ("host", Json::Obj(host)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunFile, String> {
        if v.get("schema").and_then(Json::as_u64) != Some(1) {
            return Err("not a schema-1 result file".into());
        }
        let host = v
            .get("host")
            .map(Json::as_map)
            .unwrap_or_default()
            .into_iter()
            .map(|(k, x)| (k.to_string(), x.as_str().unwrap_or_default().to_string()))
            .collect();
        Ok(RunFile {
            kind: v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("result: missing `kind`")?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("result: missing `seed`")?,
            host,
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("result: missing `workloads`")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &std::path::Path) -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        RunFile::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn round(latencies: &[f64], wall_s: f64) -> RoundOut {
        RoundOut {
            setup_s: 0.5,
            wall_s,
            cpu_ms: 10.0 * latencies.len() as f64,
            peak_rss_mb: 30.0,
            latencies_ms: latencies.to_vec(),
            sim: [10 * latencies.len() as u64, 0, 7],
            ..RoundOut::default()
        }
    }

    #[test]
    fn rounds_fold_into_the_ten_metrics() {
        let fast: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut slow = round(&fast, 4.0);
        slow.setup_s = 0.9;
        slow.fail("op 3: wrong".into());
        let rounds = [round(&fast, 2.0), slow, round(&fast, 1.0)];
        let r = end_to_end(&WORKLOADS[0], &rounds);
        assert_eq!(r.attempted, 60);
        assert_eq!(r.failed, 1);
        assert_eq!(r.first_failure.as_deref(), Some("op 3: wrong"));
        assert_eq!(r.tail_pct, 75, "60 samples: 15 lie beyond p75");
        assert_eq!(r.metrics.len(), crate::spec::END_TO_END.len());
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert_eq!(r.metrics["op_p50_ms"], 10.5);
        assert_eq!(r.metrics["ops_per_s"], 10.0);
        assert_eq!(r.metrics["cpu_ms_per_op"], 10.0);
        assert_eq!(r.metrics["fail_share"], 1.0 / 60.0);
        assert_eq!(r.metrics["sim_rounds_per_op"], 10.0);
        assert_eq!(r.metrics["sim_words_per_op"], 21.0 / 60.0);
    }

    #[test]
    fn result_file_round_trips() {
        let mut w = end_to_end(&WORKLOADS[2], &[round(&[1.0, 2.5], 1.0)]);
        w.scopes.insert(
            "phase2".into(),
            ScopeCount {
                calls: 1.0,
                rounds: 2.0,
                messages: 0.0,
                words: 0.5,
            },
        );
        let file = RunFile {
            kind: "run".into(),
            seed: u64::MAX,
            host: [
                ("nproc".into(), "2".into()),
                ("kernel".into(), "6.1".into()),
            ]
            .into(),
            workloads: vec![w],
        };
        let text = file.to_json().emit_pretty();
        let back = RunFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        assert!(RunFile::from_json(&Json::parse("{\"schema\":2}").unwrap()).is_err());
    }
}
