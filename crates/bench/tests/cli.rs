//! Every bench binary refuses arguments it does not know: exit 2 with a
//! usage line, before doing any work. The retired gate flags are the
//! cases that matter most — a script still passing them must fail, not
//! silently skip the check it used to run.

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
