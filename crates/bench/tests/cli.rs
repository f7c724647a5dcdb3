//! Every bench binary refuses arguments it does not know: exit 2 with a
//! usage line, before doing any work. The retired gate flags are the
//! cases that matter most — a script still passing them must fail, not
//! silently skip the check it used to run.
//!
//! A binary whose stdout reader is gone exits 141, the status of a
//! process killed by `SIGPIPE`, without a panic.

use std::process::Command;

fn refuses(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
}

#[test]
fn retired_gate_flags_are_usage_errors() {
    refuses(env!("CARGO_BIN_EXE_grid"), &["--baseline", "x"]);
    refuses(env!("CARGO_BIN_EXE_grid"), &["--quick"]);
    refuses(env!("CARGO_BIN_EXE_perf"), &["--quick"]);
    refuses(env!("CARGO_BIN_EXE_perf"), &["--baseline", "x"]);
    refuses(env!("CARGO_BIN_EXE_loadgen"), &["--update-baseline", "x"]);
    refuses(env!("CARGO_BIN_EXE_loadgen"), &["--out", "x"]);
    refuses(
        env!("CARGO_BIN_EXE_trace_report"),
        &["run.json", "--docs", "docs"],
    );
}

#[test]
fn unknown_flags_and_experiment_ids_are_usage_errors() {
    refuses(env!("CARGO_BIN_EXE_tables"), &["--bogus", "e1"]);
    refuses(env!("CARGO_BIN_EXE_tables"), &["e1", "bogus"]);
    refuses(env!("CARGO_BIN_EXE_verify_claims"), &["--bogus"]);
    refuses(env!("CARGO_BIN_EXE_chaos"), &["--bogus"]);
    refuses(env!("CARGO_BIN_EXE_cc-top"), &["--once", "--bogus"]);
}

/// Runs `bin` with stdout on a pipe whose read end is already closed, so
/// its first write finds no reader.
fn into_a_closed_pipe(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn a_closed_stdout_exits_141_without_a_panic() {
    into_a_closed_pipe(env!("CARGO_BIN_EXE_tables"), &["--quick", "e1"]);
    let trace = format!("{}/closed_pipe.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let events = [
        cc_trace::Event::RoundStart { round: 0 },
        cc_trace::Event::RoundEnd {
            round: 0,
            messages: 0,
            words: 0,
        },
    ];
    std::fs::write(&trace, cc_trace::export::to_jsonl(&events)).expect("write trace");
    into_a_closed_pipe(env!("CARGO_BIN_EXE_trace_report"), &["profile", &trace]);
}
