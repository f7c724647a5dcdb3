//! The wire protocol: line-delimited JSON requests in, line-delimited
//! JSON responses out.
//!
//! One request per line. Seven operations:
//!
//! ```json
//! {"op":"submit","id":"job-1","job":{"graph":{"kind":"random-connected","n":64,"degree_milli":3000,"seed":7},"algorithm":"gc-sketch","engine":"net","seed":1}}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"health"}
//! {"op":"spans"}
//! {"op":"links"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are the [`Response`] lines documented
//! in [`crate::pool`]: a submission streams `queued` → `running` →
//! `progress`… → `result` (or terminates early with `rejected` /
//! `error`); `stats` answers with one `stats` line; `shutdown` answers
//! `closing`, stops admissions, and drains in-flight jobs before the
//! session ends. Responses from concurrent jobs interleave; the `id`
//! field ties each line to its submission.
//!
//! [`run_session`] multiplexes one reader over a shared [`Server`]: all
//! responses funnel through a single writer thread so concurrent jobs
//! never tear each other's lines.

use crate::job::JobSpec;
use crate::pool::{Response, Server};
use cc_trace::Json;
use std::io::{BufRead, Write};
use std::sync::mpsc::{channel, Sender};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job under a client-chosen id.
    Submit {
        /// Client-chosen id echoed in every response for this job.
        id: String,
        /// The job to run.
        job: JobSpec,
    },
    /// Ask for a statistics snapshot.
    Stats,
    /// Ask for the Prometheus-style exposition plus windowed metrics.
    Metrics,
    /// Ask for a health report.
    Health,
    /// Ask for live and recent job spans.
    Spans,
    /// Ask for the live communication aggregate (link utilization,
    /// headroom, broadcast/unicast mix) over every cold job.
    Links,
    /// Stop admissions and drain.
    Shutdown,
}

/// Every op the protocol accepts, for error messages and docs.
pub const VALID_OPS: &[&str] = &[
    "submit", "stats", "metrics", "health", "spans", "links", "shutdown",
];

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    match op {
        "submit" => {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or("submit needs a string `id`")?
                .to_string();
            if id.is_empty() {
                return Err("submit `id` must be non-empty".into());
            }
            let job = v.get("job").ok_or("submit needs a `job` object")?;
            let job = JobSpec::from_json(job)?;
            Ok(Request::Submit { id, job })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "spans" => Ok(Request::Spans),
        "links" => Ok(Request::Links),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (valid ops: {})",
            VALID_OPS.join(", ")
        )),
    }
}

/// Runs one protocol session: reads request lines from `reader` until EOF
/// (or a `shutdown` op), writes every response as one line on `writer`.
///
/// When `close_on_end` is set, reaching EOF closes the server and drains
/// outstanding jobs before the session returns — the semantics of the
/// stdio daemon, where the session *is* the server's lifetime. A TCP
/// handler shares the server across sessions and passes `false`.
///
/// Returns the writer (all responses flushed) so in-process callers can
/// inspect the bytes.
pub fn run_session<R: BufRead, W: Write + Send + 'static>(
    server: &Server,
    reader: R,
    writer: W,
    close_on_end: bool,
) -> std::io::Result<W> {
    let (tx, rx) = channel::<Response>();
    let writer_thread = std::thread::spawn(move || -> std::io::Result<W> {
        let mut w = writer;
        for response in rx {
            writeln!(w, "{}", response.to_line())?;
            w.flush()?;
        }
        Ok(w)
    });

    let mut saw_shutdown = false;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Ok(Request::Submit { id, job }) => {
                server.submit(&id, job, &tx);
            }
            Ok(Request::Stats) => {
                let _ = tx.send(Response::Stats(Box::new(server.stats())));
            }
            Ok(Request::Metrics) => {
                let (exposition, windows) = server.metrics_exposition();
                let _ = tx.send(Response::Metrics {
                    exposition,
                    windows: windows.to_json(),
                });
            }
            Ok(Request::Health) => {
                let _ = tx.send(Response::Health(Box::new(server.health())));
            }
            Ok(Request::Spans) => {
                let _ = tx.send(Response::Spans(server.spans_json()));
            }
            Ok(Request::Links) => {
                let _ = tx.send(Response::Links(server.links_json()));
            }
            Ok(Request::Shutdown) => {
                server.close();
                let _ = tx.send(Response::Closing);
                saw_shutdown = true;
                break;
            }
            Err(error) => {
                let _ = tx.send(Response::Error {
                    id: request_id_of(&line),
                    error,
                });
            }
        }
        // Alert transitions go to stderr as structured log lines, never
        // into the protocol stream: clients keep a fixed response
        // grammar, operators still see every firing/resolution.
        for event in server.take_alert_events() {
            eprintln!("{}", event.to_json().emit());
        }
    }
    if close_on_end || saw_shutdown {
        server.close();
        server.drain();
    } else {
        // Jobs submitted on this session must still answer on it.
        server.drain();
    }
    // All job-held senders are gone after drain; dropping ours ends the
    // writer thread once the last queued response is flushed.
    for event in server.take_alert_events() {
        eprintln!("{}", event.to_json().emit());
    }
    drop(tx);
    writer_thread
        .join()
        .map_err(|_| std::io::Error::other("response writer panicked"))?
}

/// Best-effort id extraction for error responses to unparseable or
/// invalid request lines.
fn request_id_of(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Convenience for in-process clients (tests, loadgen): a sender wrapper
/// that tags submissions with sequential ids.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Response>,
}

impl Client {
    /// A client delivering responses to `tx`.
    pub fn new(tx: Sender<Response>) -> Client {
        Client { tx }
    }

    /// Submits `job` as `id`, streaming responses to this client's channel.
    pub fn submit(&self, server: &Server, id: &str, job: JobSpec) -> crate::pool::SubmitOutcome {
        server.submit(id, job, &self.tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Algorithm, Engine, GraphSpec};
    use crate::pool::ServeConfig;
    use std::io::Cursor;

    fn submit_line(id: &str, seed: u64) -> String {
        let job = JobSpec {
            graph: GraphSpec::RandomConnected {
                n: 16,
                degree_milli: 3000,
                seed: 5,
            },
            algorithm: Algorithm::GcSketch,
            engine: Engine::Net,
            seed,
        };
        format!(
            "{{\"op\":\"submit\",\"id\":{},\"job\":{}}}",
            Json::Str(id.into()).emit(),
            job.to_json().emit()
        )
    }

    fn run_lines(lines: &[String]) -> Vec<Json> {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let input = lines.join("\n");
        let out = run_session(&server, Cursor::new(input), Vec::new(), true).unwrap();
        server.join();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l}: {e}")))
            .collect()
    }

    fn kinds_for<'a>(responses: &'a [Json], id: &str) -> Vec<&'a str> {
        responses
            .iter()
            .filter(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .map(|r| r.get("kind").and_then(Json::as_str).unwrap())
            .collect()
    }

    #[test]
    fn parse_request_covers_all_ops() {
        assert_eq!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        );
        assert!(matches!(
            parse_request(&submit_line("a", 1)),
            Ok(Request::Submit { .. })
        ));
        assert_eq!(parse_request("{\"op\":\"metrics\"}"), Ok(Request::Metrics));
        assert_eq!(parse_request("{\"op\":\"health\"}"), Ok(Request::Health));
        assert_eq!(parse_request("{\"op\":\"spans\"}"), Ok(Request::Spans));
        assert_eq!(parse_request("{\"op\":\"links\"}"), Ok(Request::Links));
        assert!(parse_request("{\"op\":\"dance\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"submit\",\"id\":\"\"}").is_err());
    }

    #[test]
    fn unknown_op_error_lists_the_valid_ops() {
        let err = parse_request("{\"op\":\"dance\"}").unwrap_err();
        assert!(err.contains("\"dance\""), "names the offender: {err}");
        for op in VALID_OPS {
            assert!(err.contains(op), "error must list {op}: {err}");
        }
    }

    #[test]
    fn metrics_health_and_spans_answer_inline() {
        let responses = run_lines(&[
            submit_line("m", 4),
            "{\"op\":\"metrics\"}".to_string(),
            "{\"op\":\"health\"}".to_string(),
            "{\"op\":\"spans\"}".to_string(),
            "{\"op\":\"links\"}".to_string(),
        ]);
        let by_kind = |kind: &str| {
            responses
                .iter()
                .find(|r| r.get("kind").and_then(Json::as_str) == Some(kind))
                .unwrap_or_else(|| panic!("no {kind} response"))
        };
        // The exposition inside the metrics answer is well-formed and
        // carries serve.* series (requests are handled in order, so the
        // submitted job has already been counted at least as a miss).
        let metrics = by_kind("metrics");
        let exposition = metrics
            .get("exposition")
            .and_then(Json::as_str)
            .expect("metrics carries exposition text");
        cc_obs::check_exposition(exposition).expect("well-formed exposition");
        assert!(exposition.contains("serve_cache_misses_total"));
        let windows = metrics.get("windows").expect("windowed snapshot");
        let parsed = cc_obs::WindowedSnapshot::from_json(windows).unwrap();
        assert_eq!(parsed.windows.len(), 3, "1s/10s/60s standard windows");
        // Health round-trips and reports a healthy single-session pool.
        let health = by_kind("health");
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        let report = cc_obs::HealthReport::from_json(health).unwrap();
        assert!(report.ok());
        assert_eq!(report.workers, 1);
        // The spans answer lists the submitted job (live or finished,
        // depending on worker timing).
        let spans = by_kind("spans");
        let all: Vec<&Json> = spans
            .get("live")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .chain(spans.get("recent").and_then(Json::as_arr).unwrap())
            .collect();
        assert!(
            all.iter()
                .any(|s| s.get("id").and_then(Json::as_str) == Some("m")),
            "span for job m present: {spans:?}"
        );
        // The links answer carries the aggregate shape (the job may or
        // may not have finished when it was taken — both are valid).
        let links = by_kind("links");
        let jobs = links.get("jobs").and_then(Json::as_u64).unwrap();
        let words = links.get("words").and_then(Json::as_u64).unwrap();
        assert!(jobs <= 1);
        assert!(links.get("headroom_milli").and_then(Json::as_u64).is_some());
        if jobs == 0 {
            assert_eq!(words, 0, "an empty aggregate carries no traffic");
        } else {
            assert!(words > 0, "a folded gc-sketch run moved words");
        }
    }

    #[test]
    fn session_streams_lifecycle_and_result() {
        let responses = run_lines(&[submit_line("one", 1)]);
        let kinds = kinds_for(&responses, "one");
        assert_eq!(kinds.first(), Some(&"queued"));
        assert_eq!(kinds.last(), Some(&"result"));
        let result = responses
            .iter()
            .find(|r| r.get("kind").and_then(Json::as_str) == Some("result"))
            .unwrap();
        let artifact = result.get("artifact").unwrap();
        assert_eq!(
            artifact.get("schema_version").and_then(Json::as_u64),
            Some(cc_trace::SCHEMA_VERSION)
        );
    }

    #[test]
    fn duplicate_submissions_answer_identically() {
        let responses = run_lines(&[
            submit_line("a", 7),
            submit_line("b", 7),
            submit_line("c", 7),
        ]);
        let artifacts: Vec<String> = responses
            .iter()
            .filter(|r| r.get("kind").and_then(Json::as_str) == Some("result"))
            .map(|r| r.get("artifact").unwrap().emit())
            .collect();
        assert_eq!(artifacts.len(), 3);
        assert!(artifacts.windows(2).all(|w| w[0] == w[1]));
        let cached: Vec<bool> = responses
            .iter()
            .filter(|r| r.get("kind").and_then(Json::as_str) == Some("result"))
            .map(|r| r.get("cached").and_then(Json::as_bool).unwrap())
            .collect();
        assert_eq!(cached.iter().filter(|&&c| c).count(), 2, "two duplicates");
    }

    #[test]
    fn bad_lines_answer_error_with_request_id() {
        let responses = run_lines(&[
            "{\"op\":\"submit\",\"id\":\"oops\"}".to_string(),
            "garbage".to_string(),
        ]);
        assert_eq!(kinds_for(&responses, "oops"), vec!["error"]);
        assert_eq!(kinds_for(&responses, ""), vec!["error"]);
    }

    #[test]
    fn stats_and_shutdown_answer_inline() {
        let responses = run_lines(&[
            submit_line("s", 2),
            "{\"op\":\"stats\"}".to_string(),
            "{\"op\":\"shutdown\"}".to_string(),
            // After shutdown the session stops reading; this line is
            // never processed and must not panic anything.
            submit_line("late", 3),
        ]);
        let kinds: Vec<&str> = responses
            .iter()
            .map(|r| r.get("kind").and_then(Json::as_str).unwrap())
            .collect();
        assert!(kinds.contains(&"stats"));
        assert!(kinds.contains(&"closing"));
        assert!(kinds_for(&responses, "late").is_empty());
        // The pre-shutdown job still completed during drain.
        assert_eq!(kinds_for(&responses, "s").last(), Some(&"result"));
    }
}
