//! `cc-top`: a terminal dashboard for the cc-serve job service.
//!
//! ```text
//! cc-top --once [--json] [FILE]        # summarize a recorded stream
//! cc-top --connect 127.0.0.1:PORT \
//!        [--interval MS] [--iterations K]   # poll a live daemon
//! ```
//!
//! `--once` reads a response stream (the stdout of a stdio serve
//! session, or `loadgen --log`) from FILE or stdin and prints one
//! summary — job/hit counts are counted from the same bytes the clients
//! saw, so they match the server's own counters exactly. `--json` emits
//! the summary as one JSON object (the CI mode).
//!
//! `--connect` polls a TCP daemon with `{"op":"metrics"}` and
//! `{"op":"health"}` every `--interval` ms (default 1000), redrawing a
//! frame of windowed rates, quantiles, pool health, and firing SLO
//! alerts. `--iterations K` stops after K frames (0 = run until the
//! connection closes).
//!
//! Exit codes: 0 ok, 1 summarize/poll failure, 2 usage error.

use cc_bench::cli::{Args, Usage};
use cc_bench::top::{render_links_pane, render_live_frame, summarize_lines};
use cc_bench::{out, outln};
use cc_obs::{HealthReport, WindowedSnapshot};
use cc_trace::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

const USAGE: Usage = Usage {
    line: "cc-top --once [--json] [FILE]\n\
           \u{20}      cc-top --connect ADDR [--interval MS] [--iterations K]",
    switches: &["--once", "--json"],
    valued: &["--connect", "--interval", "--iterations"],
    positional: true,
};

fn once(args: &Args) -> Result<(), String> {
    let mut text = String::new();
    match args.positional.as_slice() {
        [path] => {
            text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        }
        [] => {
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("stdin: {e}"))?;
        }
        _ => args.fail("--once reads at most one FILE"),
    }
    let summary = summarize_lines(text.lines())?;
    if args.has("--json") {
        outln!("{}", summary.to_json().emit());
    } else {
        out!("{}", summary.render_text());
    }
    Ok(())
}

/// Sends one op and reads response lines until the wanted `kind`
/// arrives (submit-stream lines from other sessions may interleave).
fn ask(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    op: &str,
    want: &str,
) -> Result<Json, String> {
    stream
        .write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes())
        .map_err(|e| format!("send {op}: {e}"))?;
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read {op}: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed while waiting for {want}"));
        }
        let v = Json::parse(line.trim()).map_err(|e| format!("{op}: {e}"))?;
        match v.get("kind").and_then(Json::as_str) {
            Some(k) if k == want => return Ok(v),
            Some("error") => {
                return Err(format!(
                    "{op}: server said {}",
                    v.get("error").and_then(Json::as_str).unwrap_or("error")
                ))
            }
            _ => {} // someone else's traffic on a shared daemon
        }
    }
}

fn connect(args: &Args, addr: &str) -> Result<(), String> {
    let interval_ms: u64 = args.number("--interval").unwrap_or(1000);
    let iterations: u64 = args.number("--iterations").unwrap_or(0);
    if !args.positional.is_empty() {
        args.fail("--connect takes no FILE");
    }
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut frame = 0u64;
    loop {
        let metrics = ask(&mut stream, &mut reader, "metrics", "metrics")?;
        let health_json = ask(&mut stream, &mut reader, "health", "health")?;
        // Daemons that predate {"op":"links"} answer an error; skip the
        // pane rather than failing the whole dashboard.
        let links = ask(&mut stream, &mut reader, "links", "links").ok();
        let windows = metrics
            .get("windows")
            .ok_or("metrics response lacks windows")
            .and_then(|w| WindowedSnapshot::from_json(w).map_err(|_| "bad windowed snapshot"))
            .map_err(str::to_string)?;
        let health = HealthReport::from_json(&health_json)?;
        // Clear, home, draw.
        out!("\u{1b}[2J\u{1b}[H{}", render_live_frame(&windows, &health));
        if let Some(links) = &links {
            out!("{}", render_links_pane(links));
        }
        frame += 1;
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() {
    let args = USAGE.parse();
    let result = if args.has("--once") {
        once(&args)
    } else if let Some(addr) = args.value("--connect") {
        connect(&args, addr)
    } else {
        args.fail("pick --once or --connect")
    };
    if let Err(e) = result {
        eprintln!("cc-top: {e}");
        std::process::exit(1);
    }
}
