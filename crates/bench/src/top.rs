//! `cc-top`: live telemetry for a serve session.
//!
//! Two modes share this module:
//!
//! * **`--once`** — summarize a *recorded* response stream (the stdout of
//!   a stdio serve session, or `loadgen --log`): one pass over the lines
//!   counts jobs, cold runs, and duplicate answers **exactly** — every
//!   `result` line is counted from the same bytes the client saw. The
//!   loadgen report takes its counts from this same summary and checks
//!   them against the server's own counters. Latency percentiles and
//!   throughput are rebuilt from the `*_unix_nanos` timestamps embedded
//!   in the artifacts, and the default SLO rules are re-evaluated over
//!   those same timestamps.
//! * **`--connect`** — poll a live TCP server with `{"op":"metrics"}` /
//!   `{"op":"health"}` and render a dashboard frame from the windowed
//!   snapshot and health report.
//!
//! Everything here is pure (lines in, summary/frame out); the bin owns
//! the I/O.

use cc_obs::{AlertEngine, HealthReport, WindowSpec, WindowedRegistry, WindowedSnapshot};
use cc_serve::pool::default_slo_rules;
use cc_trace::{Json, LogHistogram};

/// What one pass over a recorded response stream found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopSummary {
    /// Terminal `result` lines (answered jobs).
    pub jobs: u64,
    /// Results with `cached: false` (cold executions).
    pub cold_runs: u64,
    /// Results with `cached: true` (cache hits + coalesced answers).
    pub dup_answers: u64,
    /// `rejected` lines.
    pub rejected: u64,
    /// `error` lines (failed jobs and protocol errors).
    pub errors: u64,
    /// Duplicate hit rate in thousandths over answered jobs.
    pub hit_milli: u64,
    /// Highest queue depth any `queued` line reported.
    pub max_queue_depth: u64,
    /// Earliest artifact admission to latest artifact finish, nanoseconds.
    pub span_nanos: u64,
    /// `jobs` over `span_nanos`.
    pub jobs_per_sec: f64,
    /// Median cold-job wall latency (queued → finished), nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile cold-job wall latency.
    pub p95_nanos: u64,
    /// 99th percentile cold-job wall latency.
    pub p99_nanos: u64,
    /// SLO rules firing at the end of the stream (default rule set
    /// re-evaluated over the artifact timestamps).
    pub firing: Vec<String>,
    /// Summed `comm.words` over the cold artifacts' embedded cc-lens
    /// folds (0 for streams from servers that predate the fold).
    pub comm_words: u64,
    /// Max `comm.peak_util_milli` over the cold artifacts.
    pub comm_peak_util_milli: u64,
    /// Summed `comm.broadcast_words` over the cold artifacts.
    pub comm_broadcast_words: u64,
    /// Summed `comm.unicast_words` over the cold artifacts.
    pub comm_unicast_words: u64,
}

impl TopSummary {
    /// JSON object form (the `--once --json` output).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("jobs", Json::UInt(self.jobs)),
            ("cold_runs", Json::UInt(self.cold_runs)),
            ("dup_answers", Json::UInt(self.dup_answers)),
            ("rejected", Json::UInt(self.rejected)),
            ("errors", Json::UInt(self.errors)),
            ("hit_milli", Json::UInt(self.hit_milli)),
            ("max_queue_depth", Json::UInt(self.max_queue_depth)),
            ("span_nanos", Json::UInt(self.span_nanos)),
            ("jobs_per_sec", Json::Float(self.jobs_per_sec)),
            ("p50_nanos", Json::UInt(self.p50_nanos)),
            ("p95_nanos", Json::UInt(self.p95_nanos)),
            ("p99_nanos", Json::UInt(self.p99_nanos)),
            (
                "firing",
                Json::Arr(self.firing.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "comm",
                Json::obj(vec![
                    ("words", Json::UInt(self.comm_words)),
                    ("peak_util_milli", Json::UInt(self.comm_peak_util_milli)),
                    (
                        "headroom_milli",
                        Json::UInt(1000u64.saturating_sub(self.comm_peak_util_milli)),
                    ),
                    ("broadcast_words", Json::UInt(self.comm_broadcast_words)),
                    ("unicast_words", Json::UInt(self.comm_unicast_words)),
                ]),
            ),
        ])
    }

    /// Human-readable rendering (the `--once` output without `--json`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "jobs        {:>10}   ({} cold, {} duplicate answers, {} rejected, {} errors)\n",
            self.jobs, self.cold_runs, self.dup_answers, self.rejected, self.errors
        ));
        out.push_str(&format!(
            "throughput  {:>10.1} jobs/s over {:.1} ms\n",
            self.jobs_per_sec,
            self.span_nanos as f64 / 1e6
        ));
        out.push_str(&format!(
            "latency     p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms   (cold jobs)\n",
            self.p50_nanos as f64 / 1e6,
            self.p95_nanos as f64 / 1e6,
            self.p99_nanos as f64 / 1e6
        ));
        out.push_str(&format!(
            "hit rate    {:>9.1}%   max queue depth {}\n",
            self.hit_milli as f64 / 10.0,
            self.max_queue_depth
        ));
        if self.comm_words > 0 {
            out.push_str(&format!(
                "links       {:>10} words moved   peak util {}‰ (headroom {}‰)   {} broadcast / {} unicast\n",
                self.comm_words,
                self.comm_peak_util_milli,
                1000u64.saturating_sub(self.comm_peak_util_milli),
                self.comm_broadcast_words,
                self.comm_unicast_words
            ));
        }
        if self.firing.is_empty() {
            out.push_str("alerts      none firing\n");
        } else {
            out.push_str(&format!("alerts      FIRING: {}\n", self.firing.join(", ")));
        }
        out
    }
}

/// Summarizes a recorded response stream (one JSON response per line;
/// blank lines skipped, lines without a `kind` ignored).
///
/// # Errors
///
/// Reports the first line that is not JSON.
pub fn summarize_lines<I, S>(lines: I) -> Result<TopSummary, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut summary = TopSummary::default();
    let mut cold_walls = LogHistogram::new();
    let mut min_queued = u64::MAX;
    let mut max_finished = 0u64;
    // The SLO replay: feed the default windowed registry from the
    // artifact timestamps and ask the default rules at the end.
    let mut reg = WindowedRegistry::new(WindowSpec::standard());
    let mut engine = AlertEngine::new(default_slo_rules());

    for (i, line) in lines.into_iter().enumerate() {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(kind) = v.get("kind").and_then(Json::as_str) else {
            continue; // a request echo or foreign log line: not ours
        };
        match kind {
            "queued" => {
                let depth = v.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
                summary.max_queue_depth = summary.max_queue_depth.max(depth);
            }
            "rejected" => summary.rejected += 1,
            "error" => summary.errors += 1,
            "result" => {
                summary.jobs += 1;
                let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
                let artifact = v
                    .get("artifact")
                    .ok_or_else(|| format!("line {}: result without an artifact", i + 1))?;
                let stamp = |field: &str| artifact.get(field).and_then(Json::as_u64).unwrap_or(0);
                let (queued, finished) = (stamp("queued_unix_nanos"), stamp("finished_unix_nanos"));
                if finished > 0 {
                    min_queued = min_queued.min(queued);
                    max_finished = max_finished.max(finished);
                }
                if cached {
                    summary.dup_answers += 1;
                    reg.counter_add("serve.cache_hits", finished, 1);
                } else {
                    summary.cold_runs += 1;
                    let wall = finished.saturating_sub(queued);
                    cold_walls.observe(wall);
                    reg.counter_add("serve.cache_misses", finished, 1);
                    reg.counter_add("serve.jobs_completed", finished, 1);
                    reg.observe("serve.job_wall_nanos", finished, wall);
                    // The embedded cc-lens fold: one `comm` snapshot per
                    // cold artifact; streams from older servers simply
                    // lack it, which keeps the aggregate at zero.
                    if let Some(counters) = artifact
                        .get("metrics")
                        .and_then(|m| m.get("comm"))
                        .and_then(|c| c.get("counters"))
                    {
                        let cnt =
                            |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
                        summary.comm_words += cnt("comm.words");
                        summary.comm_peak_util_milli = summary
                            .comm_peak_util_milli
                            .max(cnt("comm.peak_util_milli"));
                        summary.comm_broadcast_words += cnt("comm.broadcast_words");
                        summary.comm_unicast_words += cnt("comm.unicast_words");
                    }
                }
            }
            _ => {} // running / progress / stats / metrics / health / spans / closing
        }
    }

    summary.hit_milli = (summary.dup_answers * 1000)
        .checked_div(summary.jobs)
        .unwrap_or(0);
    if max_finished > 0 && max_finished > min_queued {
        summary.span_nanos = max_finished - min_queued;
        summary.jobs_per_sec = summary.jobs as f64 * 1e9 / summary.span_nanos as f64;
    }
    let walls = cold_walls.snapshot();
    summary.p50_nanos = walls.quantile(0.50);
    summary.p95_nanos = walls.quantile(0.95);
    summary.p99_nanos = walls.quantile(0.99);
    if max_finished > 0 {
        let snap = reg.snapshot(max_finished);
        let _ = engine.evaluate(max_finished, &snap, summary.max_queue_depth as usize, 0);
        summary.firing = engine.firing();
    }
    Ok(summary)
}

/// Renders one live dashboard frame from a polled windowed snapshot and
/// health report. Pure text (the bin prepends the ANSI clear).
pub fn render_live_frame(windows: &WindowedSnapshot, health: &HealthReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cc-top · up {:.1}s · {}\n",
        health.uptime_nanos as f64 / 1e9,
        if health.ok() { "healthy" } else { "DEGRADED" }
    ));
    out.push_str(&format!(
        "queue {:>4}/{:<4}  in-flight {:>3}  workers {}/{}  cache {}/{} ({} KiB)\n",
        health.queue_depth,
        health.queue_capacity,
        health.in_flight,
        health.workers_alive,
        health.workers,
        health.cache_entries,
        health.cache_capacity,
        health.cache_resident_bytes / 1024
    ));
    out.push_str("window   jobs/s    done   hits  miss   p50 ms   p95 ms   p99 ms\n");
    for w in &windows.windows {
        let (p50, p95, p99) = w
            .histogram("serve.job_wall_nanos")
            .map(|h| (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)))
            .unwrap_or((0, 0, 0));
        out.push_str(&format!(
            "{:<6} {:>8.1} {:>7} {:>6} {:>5} {:>8.2} {:>8.2} {:>8.2}\n",
            w.label,
            w.rate_per_sec("serve.jobs_completed"),
            w.counter("serve.jobs_completed"),
            w.counter("serve.cache_hits") + w.counter("serve.coalesced_hits"),
            w.counter("serve.cache_misses"),
            p50 as f64 / 1e6,
            p95 as f64 / 1e6,
            p99 as f64 / 1e6
        ));
    }
    if health.firing.is_empty() {
        out.push_str("alerts: none firing\n");
    } else {
        out.push_str(&format!("alerts FIRING: {}\n", health.firing.join(", ")));
    }
    out
}

/// Renders the optional links pane of the live frame from an
/// `{"op":"links"}` answer — the server's [`cc_lens::CommAggregate`]
/// over every cold job it executed. The caller omits the pane when the
/// daemon predates the op.
pub fn render_links_pane(links: &cc_trace::Json) -> String {
    let g = |name: &str| links.get(name).and_then(Json::as_u64).unwrap_or(0);
    format!(
        "links  {} jobs folded  {} words  peak util {}‰ (headroom {}‰)  p50/p95/p99 {}‰/{}‰/{}‰  {} bc / {} uni words\n",
        g("jobs"),
        g("words"),
        g("peak_util_milli"),
        g("headroom_milli"),
        g("p50_util_milli"),
        g("p95_util_milli"),
        g("p99_util_milli"),
        g("broadcast_words"),
        g("unicast_words"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_line(id: &str, cached: bool, queued: u64, finished: u64) -> String {
        format!(
            "{{\"kind\":\"result\",\"id\":\"{id}\",\"cached\":{cached},\"artifact\":{{\
             \"schema_version\":3,\"tool\":\"t\",\"queued_unix_nanos\":{queued},\
             \"started_unix_nanos\":{queued},\"finished_unix_nanos\":{finished}}}}}"
        )
    }

    #[test]
    fn counts_jobs_exactly_from_the_stream() {
        let s = 1_000_000_000u64;
        let lines = vec![
            "{\"kind\":\"queued\",\"id\":\"a\",\"queue_depth\":2,\"coalesced\":false}".to_string(),
            "{\"kind\":\"running\",\"id\":\"a\",\"queue_nanos\":5}".to_string(),
            result_line("a", false, s, 2 * s),
            result_line("b", true, s, 2 * s),
            result_line("c", true, s, 2 * s),
            "{\"kind\":\"rejected\",\"id\":\"d\",\"reason\":\"full\"}".to_string(),
            "{\"kind\":\"queued\",\"id\":\"e\",\"queue_depth\":7,\"coalesced\":false}".to_string(),
            result_line("e", false, 2 * s, 4 * s),
            String::new(),
            "{\"kind\":\"closing\"}".to_string(),
        ];
        let t = summarize_lines(lines).unwrap();
        assert_eq!(t.jobs, 4);
        assert_eq!(t.cold_runs, 2);
        assert_eq!(t.dup_answers, 2);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.hit_milli, 500);
        assert_eq!(t.max_queue_depth, 7);
        assert_eq!(t.span_nanos, 3 * s, "earliest queued to latest finished");
        assert!((t.jobs_per_sec - 4.0 / 3.0).abs() < 1e-9);
        // Cold walls are 1 s and 2 s: p50 lands in the lower, p99 the upper.
        assert!(t.p50_nanos >= s && t.p50_nanos <= 2 * s);
        assert_eq!(t.p99_nanos, 2 * s);
        // 2 s walls breach the default 1 s p95 burn threshold.
        assert_eq!(t.firing, vec!["latency-burn-p95".to_string()]);
        let j = t.to_json();
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(4));
        assert!(!t.render_text().is_empty());
    }

    #[test]
    fn tolerates_foreign_lines_and_rejects_non_json() {
        let ok = summarize_lines(vec![
            "{\"op\":\"metrics\"}".to_string(), // request echo: skipped
            "{\"no_kind\":1}".to_string(),
        ])
        .unwrap();
        assert_eq!(ok, TopSummary::default());
        assert!(summarize_lines(vec!["not json".to_string()]).is_err());
        assert!(summarize_lines(Vec::<String>::new()).unwrap().jobs == 0);
    }

    #[test]
    fn live_frame_renders_all_windows() {
        let mut reg = WindowedRegistry::new(WindowSpec::standard());
        reg.counter_add("serve.jobs_completed", 1_000_000_000, 5);
        reg.observe("serve.job_wall_nanos", 1_000_000_000, 2_000_000);
        let windows = reg.snapshot(1_500_000_000);
        let health = HealthReport {
            accepting: true,
            queue_depth: 1,
            queue_capacity: 128,
            in_flight: 1,
            workers: 2,
            workers_alive: 2,
            cache_entries: 3,
            cache_capacity: 256,
            cache_resident_bytes: 2048,
            uptime_nanos: 9_000_000_000,
            firing: vec![],
        };
        let frame = render_live_frame(&windows, &health);
        assert!(frame.contains("healthy"));
        assert!(frame.contains("1s"));
        assert!(frame.contains("10s"));
        assert!(frame.contains("60s"));
        assert!(frame.contains("alerts: none firing"));
        let mut degraded = health.clone();
        degraded.workers_alive = 1;
        degraded.firing = vec!["latency-burn-p95".into()];
        let frame = render_live_frame(&windows, &degraded);
        assert!(frame.contains("DEGRADED"));
        assert!(frame.contains("FIRING: latency-burn-p95"));
    }
}
