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

use crate::job::{JobSpec, MAX_EDGES};
use crate::pool::{Response, Server};
use cc_trace::Json;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{channel, Sender};

/// Widest compact weighted edge: `[4095,4095,18446744073709551615],`.
const MAX_EDGE_BYTES: usize = 33;

/// Longest request line a session reads, in bytes before the newline: a
/// submit of [`MAX_EDGES`] widest edges, plus 64 KiB for the rest.
pub const MAX_LINE_BYTES: usize = MAX_EDGES * MAX_EDGE_BYTES + (64 << 10);

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
///
/// A line longer than [`MAX_LINE_BYTES`] or not UTF-8 gets one `error`
/// response and the session continues. A read error ends the input like
/// EOF does; it is returned once the session has drained.
pub fn run_session<R: BufRead, W: Write + Send + 'static>(
    server: &Server,
    reader: R,
    writer: W,
    close_on_end: bool,
) -> std::io::Result<W> {
    session(server, reader, writer, close_on_end, MAX_LINE_BYTES)
}

/// [`run_session`] with the line bound as a parameter.
fn session<R: BufRead, W: Write + Send + 'static>(
    server: &Server,
    mut reader: R,
    writer: W,
    close_on_end: bool,
    max_line: usize,
) -> std::io::Result<W> {
    let (tx, rx) = channel::<Response>();
    let writer_thread = std::thread::spawn(move || -> std::io::Result<W> {
        let mut w = writer;
        for response in rx {
            // One buffer, one write: a line split over two sends makes
            // the second wait out the peer's delayed ACK on TCP.
            let mut line = response.to_line();
            line.push('\n');
            w.write_all(line.as_bytes())?;
            w.flush()?;
        }
        Ok(w)
    });

    let mut saw_shutdown = false;
    let mut read_error = None;
    loop {
        let (request, line) = match read_line(&mut reader, max_line) {
            Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
            Ok(Some(Ok(line))) => (parse_request(&line), line),
            Ok(Some(Err(error))) => (Err(error), String::new()),
            Ok(None) => break,
            Err(e) => {
                read_error = Some(e);
                break;
            }
        };
        match request {
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
    let writer = writer_thread
        .join()
        .map_err(|_| std::io::Error::other("response writer panicked"))??;
    match read_error {
        Some(e) => Err(e),
        None => Ok(writer),
    }
}

/// Reads the next line of at most `max_line` bytes before its `\n` (a
/// trailing `\r` is dropped). `None` at EOF; `Some(Err(reason))` for a
/// line that is too long (skipped through its newline, never buffered)
/// or not UTF-8.
fn read_line<R: BufRead>(
    reader: &mut R,
    max_line: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    let read = reader
        .take(max_line as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > max_line {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!("request line exceeds {max_line} bytes"))));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    let text = String::from_utf8(line).map_err(|_| "request line is not valid UTF-8".to_string());
    Ok(Some(text))
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

    /// A writer that keeps every `write` call's bytes separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_is_one_write_of_one_line() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // Cold job, duplicate (hit or coalesced), probes, a parse error.
        let input = [
            submit_line("a", 1),
            submit_line("b", 1),
            "{\"op\":\"stats\"}".to_string(),
            "{\"op\":\"health\"}".to_string(),
            "not json".to_string(),
        ]
        .join("\n");
        let log = run_session(&server, Cursor::new(input), WriteLog::default(), true).unwrap();
        server.join();
        assert!(
            log.0.len() >= 7,
            "queued/running/result + probes: {}",
            log.0.len()
        );
        for call in &log.0 {
            let text = std::str::from_utf8(call).unwrap();
            assert!(text.ends_with('\n'), "a write must end its line: {text:?}");
            assert_eq!(
                text.matches('\n').count(),
                1,
                "one line per write: {text:?}"
            );
            Json::parse(text.trim_end()).unwrap();
        }
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
        // A served artifact is metadata, tables and metrics: exactly the
        // v4 top-level keys.
        let Json::Obj(pairs) = artifact else {
            panic!("the artifact is not an object: {artifact:?}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
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

    /// A non-UTF-8 line and an over-long line each get one `error`; the
    /// session keeps reading and answers the requests around them.
    #[test]
    fn bad_bytes_and_long_lines_do_not_end_the_session() {
        let submit = submit_line("ok", 1);
        let cap = submit.len();
        let mut input = Vec::new();
        for line in [
            submit.as_bytes(),
            &[0xFF, 0xFE],
            "x".repeat(cap + 1).as_bytes(),
            b"{\"op\":\"health\"}",
        ] {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let out = session(&server, Cursor::new(input), Vec::new(), true, cap).unwrap();
        server.join();
        let responses: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(kinds_for(&responses, "ok").last(), Some(&"result"));
        let errors: Vec<&str> = responses
            .iter()
            .filter(|r| r.get("kind").and_then(Json::as_str) == Some("error"))
            .map(|r| r.get("error").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            errors,
            vec![
                "request line is not valid UTF-8".to_string(),
                format!("request line exceeds {cap} bytes"),
            ]
        );
        assert!(responses
            .iter()
            .any(|r| r.get("kind").and_then(Json::as_str) == Some("health")));
    }

    #[test]
    fn line_bound_admits_exactly_max_line_bytes() {
        let cap = 8;
        for (len, fits) in [(cap - 1, true), (cap, true), (cap + 1, false)] {
            let input = format!("{}\nnext", "a".repeat(len));
            let mut reader = Cursor::new(input.into_bytes());
            let first = read_line(&mut reader, cap).unwrap().unwrap();
            assert_eq!(first.is_ok(), fits, "len {len}");
            // Either way the reader resumes right after the newline.
            let next = read_line(&mut reader, cap).unwrap().unwrap();
            assert_eq!(next.as_deref(), Ok("next"));
            assert!(read_line(&mut reader, cap).unwrap().is_none());
        }
        let mut crlf = Cursor::new(b"op\r\n".to_vec());
        assert_eq!(read_line(&mut crlf, cap).unwrap(), Some(Ok("op".into())));
    }

    #[test]
    fn a_maximal_compact_edge_fits_the_edge_allowance() {
        let widest = format!("[{m},{m},{}],", u64::MAX, m = crate::job::MAX_N - 1);
        assert_eq!(widest.len(), MAX_EDGE_BYTES);
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
