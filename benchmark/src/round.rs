//! One (workload, round): what a child process of the runner measures
//! and reports back as one JSON line.

use crate::procfs;
use crate::replay::{self, Replay};
use crate::result::{numbers_from_json, numbers_to_json, scopes_from_json, scopes_to_json};
use crate::sink::{self, Collected, ScopeCount, Sink};
use crate::stats;
use crate::workloads::Library;
use cc_net::Cost;
use cc_trace::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops at the start of a library round that warm allocator and caches
/// and are not timed.
const WARM_UP_OPS: u64 = 2;

/// How much work a round's timed section does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// A fixed op count, so simulated costs sum identically run to run.
    Ops(usize),
    /// As many ops as fit, for the driver's `--seconds`.
    Seconds(f64),
}

impl Budget {
    pub fn spent(self, ops: usize, since: Instant) -> bool {
        match self {
            Budget::Ops(n) => ops >= n,
            Budget::Seconds(s) => since.elapsed().as_secs_f64() >= s,
        }
    }

    /// A part of this budget: a traced round splits its budget between
    /// op stretches and leaves the rest of the time to the replays.
    pub fn share(self, part: f64) -> Budget {
        match self {
            Budget::Ops(n) => Budget::Ops(((n as f64 * part).ceil() as usize).max(1)),
            Budget::Seconds(s) => Budget::Seconds(s * part),
        }
    }
}

/// The per-layer half of a traced round.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOut {
    pub layers: BTreeMap<String, f64>,
    pub scopes: BTreeMap<String, ScopeCount>,
    /// The span dump of the round's first traced op.
    pub spans: Json,
}

/// What one round measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundOut {
    pub setup_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// CPU the work process burned during the timed section.
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    /// One sample per attempted op, failed ones included.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Simulated rounds, messages and words summed over the timed ops.
    pub sim: [u64; 3],
    pub trace: Option<TraceOut>,
}

impl RoundOut {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn add_cost(&mut self, cost: &Cost) {
        self.sim[0] += cost.rounds;
        self.sim[1] += cost.messages;
        self.sim[2] += cost.words;
    }

    pub fn to_json(&self) -> Json {
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Float(x)).collect());
        let mut fields = vec![
            ("setup_s", Json::Float(self.setup_s)),
            ("wall_s", Json::Float(self.wall_s)),
            ("cpu_ms", Json::Float(self.cpu_ms)),
            ("peak_rss_mb", Json::Float(self.peak_rss_mb)),
            ("latencies_ms", floats(&self.latencies_ms)),
            ("failed", Json::UInt(self.failed)),
            (
                "first_failure",
                self.first_failure.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "sim",
                Json::Arr(self.sim.iter().map(|&x| Json::UInt(x)).collect()),
            ),
        ];
        if let Some(t) = &self.trace {
            fields.push(("layers", numbers_to_json(&t.layers)));
            fields.push(("scopes", scopes_to_json(&t.scopes)));
            fields.push(("spans", t.spans.clone()));
        }
        Json::obj(fields)
    }

    pub fn from_json(v: &Json) -> Result<RoundOut, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round: missing number `{k}`"))
        };
        let arr = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("round: missing array `{k}`"))
        };
        let floats = |items: &[Json]| -> Result<Vec<f64>, String> {
            items
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| "round: non-number".to_string()))
                .collect()
        };
        let sim = arr(v, "sim")?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<u64>>>()
            .and_then(|s| <[u64; 3]>::try_from(s).ok())
            .ok_or("round: `sim` is not three counts")?;
        let trace = match v.get("layers") {
            None => None,
            Some(layers) => Some(TraceOut {
                layers: numbers_from_json(Some(layers))?,
                scopes: scopes_from_json(v.get("scopes"))?,
                spans: v.get("spans").cloned().unwrap_or(Json::Null),
            }),
        };
        Ok(RoundOut {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_ms: num("cpu_ms")?,
            peak_rss_mb: num("peak_rss_mb")?,
            latencies_ms: floats(&arr(v, "latencies_ms")?)?,
            failed: v.get("failed").and_then(Json::as_u64).unwrap_or(0),
            first_failure: v
                .get("first_failure")
                .and_then(Json::as_str)
                .map(str::to_string),
            sim,
            trace,
        })
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generates the inputs and runs the warm-up ops; everything up to the
/// first timed op is set-up.
fn set_up<W: Library>(started: Instant, make: impl FnOnce() -> W, first: u64) -> (W, f64) {
    let w = make();
    for index in first..first + WARM_UP_OPS {
        // A failing warm-up op fails again, visibly, as a timed op.
        let _ = w.op(index, None);
    }
    (w, started.elapsed().as_secs_f64())
}

/// Op index and outcome of every op of a section, kept for validation.
type Kept<W> = Vec<(u64, Result<(<W as Library>::Out, Cost), String>)>;

/// Validates kept outputs once the timed section has closed, so neither
/// wall nor CPU metrics include oracle time. Returns the time per check.
fn validate<W: Library>(w: &W, kept: Kept<W>, out: &mut RoundOut) -> Vec<f64> {
    let mut check_ms = Vec::with_capacity(kept.len());
    for (index, result) in kept {
        match result {
            Err(e) => out.fail(format!("op {index}: {e}")),
            Ok((output, cost)) => {
                out.add_cost(&cost);
                let t = Instant::now();
                let verdict = w.check(index, &output);
                check_ms.push(ms_since(t));
                if let Err(e) = verdict {
                    out.fail(format!("op {index}: {e}"));
                }
            }
        }
    }
    check_ms
}

/// An untraced library round: the source of every end-to-end metric.
///
/// `started` is when the child process began; ops are numbered from
/// `first` so that every round of a run draws inputs of its own.
pub fn library<W: Library>(
    started: Instant,
    make: impl FnOnce() -> W,
    budget: Budget,
    first: u64,
) -> RoundOut {
    let (w, setup_s) = set_up(started, make, first);
    let mut out = RoundOut {
        setup_s,
        ..RoundOut::default()
    };
    let pid = std::process::id();
    let cpu_before = procfs::cpu_ms(pid).unwrap_or(0.0);
    let timed = Instant::now();
    let mut kept = Vec::new();
    while !budget.spent(kept.len(), timed) {
        let index = first + kept.len() as u64;
        let t = Instant::now();
        let result = w.op(index, None);
        out.latencies_ms.push(ms_since(t));
        kept.push((index, result));
    }
    out.wall_s = timed.elapsed().as_secs_f64();
    out.cpu_ms = procfs::cpu_ms(pid).unwrap_or(0.0) - cpu_before;
    out.peak_rss_mb = procfs::peak_rss_mb(pid).unwrap_or(0.0);
    validate(&w, kept, &mut out);
    out
}

/// A traced library round: the source of the per-layer metrics.
///
/// Each op index runs twice, untraced then under the sink, so the two
/// latency medians compare like with like (`bench.trace_overhead`) and
/// the sink's counts can be checked against the untraced run's cost.
pub fn library_traced<W: Library + Replay>(
    started: Instant,
    make: impl FnOnce() -> W,
    budget: Budget,
    first: u64,
    seed: u64,
) -> RoundOut {
    let (w, setup_s) = set_up(started, make, first);
    let mut out = RoundOut {
        setup_s,
        ..RoundOut::default()
    };
    let collected = Collected::default();
    let epoch = Instant::now();
    let timed = Instant::now();
    let budget = budget.share(0.5);
    let (mut plain, mut traced, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    while !budget.spent(plain.len(), timed) {
        let index = first + plain.len() as u64;
        let t = Instant::now();
        let result = w.op(index, None);
        out.latencies_ms.push(ms_since(t));
        plain.push((index, result));

        let sink = Sink::new(index, epoch, &collected);
        let t = Instant::now();
        let result = w.op(index, Some(sink));
        traced_ms.push(ms_since(t));
        traced.push((index, result));
    }
    out.wall_s = timed.elapsed().as_secs_f64();
    out.peak_rss_mb = procfs::peak_rss_mb(std::process::id()).unwrap_or(0.0);

    let check_ms = validate(&w, plain, &mut out);
    // The traced ops are ops too: same oracle, and tracing must not
    // change what is simulated.
    let mut under_sink = RoundOut::default();
    validate(&w, traced, &mut under_sink);
    out.failed += under_sink.failed;
    out.first_failure = out.first_failure.take().or(under_sink.first_failure);
    if out.failed == 0 && under_sink.sim != out.sim {
        let (traced, plain) = (under_sink.sim, out.sim);
        out.fail(format!("traced ops cost {traced:?}, untraced {plain:?}"));
    }

    let traces = std::mem::take(&mut *collected.lock().expect("sink collection"));
    let report = sink::report(&traces);
    let ops = out.latencies_ms.len() as f64;
    for (name, total) in ["net.rounds", "net.messages", "net.words"]
        .into_iter()
        .zip(out.sim)
    {
        let seen = report.metrics.get(name).copied().unwrap_or(0.0);
        if out.failed == 0 && seen != total as f64 / ops {
            out.fail(format!(
                "{name}: the sink counted {seen} per op, the run's cost says {}",
                total as f64 / ops
            ));
        }
    }

    let untraced_p50_ms = stats::median(&out.latencies_ms);
    let mut layers = report.metrics.clone();
    layers.insert(
        "bench.trace_overhead",
        stats::median(&traced_ms) / untraced_p50_ms,
    );
    layers.insert("graph.gen_ms", stats::median(w.gen_ms()));
    if !check_ms.is_empty() {
        layers.insert("graph.oracle_ms", stats::median(&check_ms));
    }
    let ctx = replay::Context {
        seed,
        report: &report,
        untraced_p50_ms,
    };
    w.replay(&ctx, &mut layers);
    out.trace = Some(TraceOut {
        layers: layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        scopes: report.scopes,
        spans: traces.first().map_or(Json::Null, sink::OpTrace::to_json),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_survives_the_pipe() {
        let mut out = RoundOut {
            setup_s: 0.25,
            wall_s: 3.5,
            cpu_ms: 3400.0,
            peak_rss_mb: 41.75,
            latencies_ms: vec![1.5, 2.25, 1e-3],
            sim: [52, 1_572_413, u64::MAX],
            ..RoundOut::default()
        };
        out.fail("op 3: forest has a cycle".into());
        out.fail("op 4: later".into());
        assert_eq!(
            out.first_failure.as_deref(),
            Some("op 3: forest has a cycle")
        );
        let line = out.to_json().emit();
        let back = RoundOut::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, out);

        out.trace = Some(TraceOut {
            layers: [("net.rounds".to_string(), 52.0)].into(),
            scopes: [(
                "phase2".to_string(),
                ScopeCount {
                    calls: 1.0,
                    rounds: 3.5,
                    messages: 0.0,
                    words: 0.0,
                },
            )]
            .into(),
            spans: Json::obj(vec![("op", Json::UInt(7))]),
        });
        let line = out.to_json().emit();
        let back = RoundOut::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn budgets() {
        let now = Instant::now();
        assert!(!Budget::Ops(3).spent(2, now));
        assert!(Budget::Ops(3).spent(3, now));
        assert!(!Budget::Seconds(60.0).spent(1_000_000, now));
        assert!(Budget::Seconds(0.0).spent(0, now));
        assert_eq!(Budget::Seconds(4.0).share(0.5), Budget::Seconds(2.0));
        assert_eq!(Budget::Ops(5).share(0.5), Budget::Ops(3));
    }
}
