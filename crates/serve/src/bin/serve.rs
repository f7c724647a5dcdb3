//! The `serve` daemon: line-delimited JSON over stdin/stdout (default)
//! or a localhost TCP listener.
//!
//! ```text
//! serve [--workers N] [--queue N] [--cache N] [--tcp ADDR]
//! ```
//!
//! In stdio mode the session is the server's lifetime: EOF (or a
//! `shutdown` op) stops admissions, drains in-flight jobs, flushes every
//! response, and exits. In TCP mode each connection is a session over
//! the shared server; a `shutdown` op from any connection stops the
//! daemon after draining.

use cc_serve::pool::{ServeConfig, Server};
use cc_serve::server::run_session;
use cc_trace::Json;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Pause after a failed accept. A persistent failure (`EMFILE` while the
/// process is out of descriptors) would otherwise spin a core and flood
/// the log with one `serve-accept-failed` line per retry.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a TCP session may send nothing before it ends. Jobs it
/// already submitted still answer on it before it closes.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long one response write may block on a client that stopped
/// reading before its session ends.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The write half of a TCP session. A failed write shuts the whole
/// connection down, so the session's reader sees the end of its input
/// and the session closes through its usual drain path instead of
/// reading requests it can no longer answer.
struct SessionWriter(TcpStream);

impl Write for SessionWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf).inspect_err(|_| {
            let _ = self.0.shutdown(Shutdown::Both);
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

struct Options {
    cfg: ServeConfig,
    tcp: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--workers N] [--queue N] [--cache N] [--tcp ADDR]\n\
         \n\
         Speaks line-delimited JSON: {{\"op\":\"submit\",\"id\":...,\"job\":...}},\n\
         {{\"op\":\"stats\"}}, {{\"op\":\"metrics\"}}, {{\"op\":\"health\"}}, {{\"op\":\"spans\"}},\n\
         {{\"op\":\"shutdown\"}}. Default transport is stdin/stdout;\n\
         --tcp 127.0.0.1:PORT serves connections instead."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut cfg = ServeConfig::default();
    let mut tcp = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .filter(|&v: &usize| v > 0)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a positive integer");
                    usage()
                })
        };
        match arg.as_str() {
            "--workers" => cfg.workers = num("--workers"),
            "--queue" => cfg.queue_capacity = num("--queue"),
            "--cache" => cfg.cache_capacity = num("--cache"),
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    Options { cfg, tcp }
}

fn serve_stdio(server: &Server) -> std::io::Result<()> {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout();
    run_session(server, stdin, stdout, true)?;
    Ok(())
}

fn serve_tcp(server: Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("serve: listening on {local}");
    let closing = Arc::new(AtomicBool::new(false));
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if closing.load(Ordering::SeqCst) {
            break;
        }
        // Finished sessions need no join; dropping their handles keeps
        // `sessions` at the number of live connections.
        sessions.retain(|s| !s.is_finished());
        // One failed accept costs one connection, never the daemon.
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                log_line(
                    "serve-accept-failed",
                    vec![("error", Json::Str(e.to_string()))],
                );
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // Responses are single complete lines; send each at once. A
        // stream that refuses the option still works, only slower.
        if let Err(e) = stream.set_nodelay(true) {
            log_line(
                "serve-nodelay-failed",
                vec![("error", Json::Str(e.to_string()))],
            );
        }
        // A client that goes quiet or stops reading holds a session
        // thread only until a timeout ends it.
        let timeouts = stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
        if let Err(e) = timeouts {
            // Dropping `stream` closes the connection.
            log_line(
                "serve-timeout-failed",
                vec![("error", Json::Str(e.to_string()))],
            );
            continue;
        }
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        let reader = match stream.try_clone() {
            Ok(read_half) => BufReader::new(read_half),
            Err(e) => {
                // Dropping `stream` closes the connection.
                log_line(
                    "serve-clone-failed",
                    vec![("error", Json::Str(e.to_string()))],
                );
                continue;
            }
        };
        let server = Arc::clone(&server);
        let closing = Arc::clone(&closing);
        sessions.push(std::thread::spawn(move || {
            if let Err(e) = run_session(&server, reader, SessionWriter(stream), false) {
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    log_line(
                        "serve-timeout",
                        vec![
                            ("peer", Json::Str(peer)),
                            ("error", Json::Str(e.to_string())),
                        ],
                    );
                }
            }
            if !server.stats().accepting {
                // A shutdown op arrived on this session: wake the accept
                // loop with a no-op connection so the daemon can exit.
                closing.store(true, Ordering::SeqCst);
                if let Ok(mut s) = std::net::TcpStream::connect(local) {
                    let _ = s.write_all(b"\n");
                }
            }
        }));
    }
    for s in sessions {
        let _ = s.join();
    }
    Ok(())
}

/// One structured log line on stderr (stdout is the protocol stream).
fn log_line(kind: &str, mut fields: Vec<(&str, Json)>) {
    let mut obj = vec![("kind", Json::Str(kind.to_string()))];
    obj.append(&mut fields);
    eprintln!("{}", Json::obj(obj).emit());
}

fn main() {
    let opts = parse_args();
    let listen = opts
        .tcp
        .as_ref()
        .map_or("stdio".to_string(), |addr| format!("tcp:{addr}"));
    log_line(
        "serve-start",
        vec![
            ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            ("workers", Json::UInt(opts.cfg.workers as u64)),
            ("queue_capacity", Json::UInt(opts.cfg.queue_capacity as u64)),
            ("cache_capacity", Json::UInt(opts.cfg.cache_capacity as u64)),
            ("listen", Json::Str(listen.clone())),
        ],
    );
    let server = Server::start(opts.cfg);
    let (result, stats) = match &opts.tcp {
        None => {
            let r = serve_stdio(&server);
            let stats = server.stats();
            server.join();
            (r, stats)
        }
        Some(addr) => {
            let server = Arc::new(server);
            let r = serve_tcp(Arc::clone(&server), addr);
            let stats = server.stats();
            if let Ok(s) = Arc::try_unwrap(server) {
                s.join();
            }
            (r, stats)
        }
    };
    log_line(
        "serve-stop",
        vec![
            ("listen", Json::Str(listen)),
            ("submitted", Json::UInt(stats.submitted)),
            ("completed", Json::UInt(stats.completed)),
            ("failed", Json::UInt(stats.failed)),
            ("rejected", Json::UInt(stats.rejected)),
        ],
    );
    if let Err(e) = result {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}
