//! A TCP client that stops reading its responses costs the daemon one
//! session, ended by the write timeout: the daemon logs one
//! `serve-timeout` line and keeps answering its other sessions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// The daemon under test, killed if the test fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sends one request line on `stream` and returns the response line.
fn ask(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    line
}

#[test]
fn a_client_that_stops_reading_times_out_alone() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--tcp", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let (tx, log) = mpsc::channel();
    let stderr = daemon.0.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let _ = tx.send(line.unwrap());
        }
    });
    let wait = Duration::from_secs(60);
    let addr = loop {
        let line = log.recv_timeout(wait).unwrap();
        if let Some(addr) = line.strip_prefix("serve: listening on ") {
            break addr.to_string();
        }
    };

    // Far more responses than the socket buffers between the daemon and
    // a client that never reads hold, so the daemon's writes block.
    let mut stuck = TcpStream::connect(&addr).unwrap();
    let requests = "{\"op\":\"stats\"}\n".repeat(40_000);
    stuck.write_all(requests.as_bytes()).unwrap();

    let timeout = loop {
        let line = log.recv_timeout(wait).unwrap();
        if line.contains("\"serve-timeout\"") {
            break line;
        }
    };
    assert!(timeout.contains("\"peer\""), "{timeout}");

    // Another session is untouched.
    let mut fresh = TcpStream::connect(&addr).unwrap();
    let health = ask(&mut fresh, "{\"op\":\"health\"}");
    assert!(health.contains("\"health\""), "{health}");
    let closing = ask(&mut fresh, "{\"op\":\"shutdown\"}");
    assert!(!closing.is_empty());
    assert!(daemon.0.wait().unwrap().success());
    reader.join().unwrap();
    let rest: Vec<String> = log.try_iter().collect();
    assert!(
        !rest.iter().any(|l| l.contains("\"serve-timeout\"")),
        "one timeout line: {rest:?}"
    );
    drop(stuck);
}
