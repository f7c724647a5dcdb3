//! `ccbench`: the repository's wire-to-kernel benchmark.
//!
//! ```text
//! ccbench run     [--seed S] [--out FILE]       every workload untraced, all end-to-end metrics
//! ccbench trace   [--seed S] [--out FILE] [--spans DIR]   the traced run: per-layer metrics, span dumps
//! ccbench compare A B                           two result files or directories, metric by metric
//! ccbench list                                  every workload and metric
//! ccbench smoke   [--seed S]                    all workloads at a tenth of the ops; not for comparison
//! ccbench --workload W --seed S --seconds N --trace 0|1      the driver's contract (BENCHMARK.json)
//! ```
//!
//! See `benchmark/README.md` for what each name means.

mod compare;
mod procfs;
mod replay;
mod result;
mod round;
mod runner;
mod seed;
mod serve;
mod sink;
mod spec;
mod stats;
mod workloads;

use round::Budget;
use runner::ChildJob;
use spec::{END_TO_END, PER_LAYER, ROUNDS, WORKLOADS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Share of the fixed op counts the traced run spends on its op pairs.
const TRACE_SHARE: f64 = 0.5;

/// Share of the fixed op counts `smoke` runs, in a single round.
const SMOKE_SHARE: f64 = 0.1;

/// `--flag value` pairs after the subcommand.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    flags.insert(flag[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected `--flag value`, got `{}`", pair.join(" "))),
            }
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or_else(|| format!("missing --{name}"))
    }
}

fn write_result(
    file: &result::RunFile,
    out: Option<PathBuf>,
    default_name: &str,
) -> Result<(), String> {
    let path = match out {
        Some(path) => path,
        None => runner::scratch_dir()?.join(default_name),
    };
    std::fs::write(&path, file.to_json().emit_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn list() {
    println!(
        "workloads ({} rounds each, one child process per round):",
        ROUNDS
    );
    for w in WORKLOADS {
        println!(
            "  {:<14} {:>4} ops, tail p{}: {}",
            w.name, w.ops, w.tail_pct, w.why
        );
    }
    for (title, metrics) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("\n{title} metrics:");
        println!(
            "  {:<32} {:<9} {:<7} {:<11} {:<7} definition",
            "name", "unit", "better", "bound", "source"
        );
        for m in metrics {
            println!(
                "  {:<32} {:<9} {:<7} {:<11} {:<7} {}",
                m.name,
                m.unit,
                m.better.tag(),
                m.bound.describe(),
                m.source.tag(),
                m.what
            );
        }
    }
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        // No subcommand: the driver's flags.
        _ => ("driver", &args[..]),
    };
    if command == "compare" {
        let [base, new] = rest else {
            return Err("usage: ccbench compare A B".into());
        };
        let base = compare::load_set(Path::new(base))?;
        let new = compare::load_set(Path::new(new))?;
        let regressed = compare::compare(&base, &new);
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let flags = Flags::parse(rest)?;
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    match command {
        "list" => list(),
        "run" | "smoke" => {
            let (rounds, share) = match command {
                "run" => (ROUNDS, 1.0 / ROUNDS as f64),
                _ => (1, SMOKE_SHARE),
            };
            let file = runner::run_all(seed, rounds, share, command)?;
            if command == "smoke" {
                println!("\nsmoke numbers are not for comparison");
            }
            write_result(&file, flags.get("out")?, &format!("{command}-{seed}.json"))?;
            if let Some(failure) = runner::first_failure(&file) {
                return Err(failure);
            }
        }
        "trace" => {
            let spans: PathBuf = match flags.get("spans")? {
                Some(dir) => dir,
                None => runner::scratch_dir()?,
            };
            let file = runner::trace_all(seed, TRACE_SHARE, &spans)?;
            write_result(&file, flags.get("out")?, &format!("trace-{seed}.json"))?;
            if let Some(failure) = runner::first_failure(&file) {
                return Err(failure);
            }
        }
        "driver" => {
            let traced = flags.need::<u8>("trace")? != 0;
            runner::driver(
                &flags.need::<String>("workload")?,
                seed,
                flags.need("seconds")?,
                traced,
            )?;
        }
        "child" => {
            let budget = match (flags.get("ops")?, flags.get("seconds")?) {
                (Some(n), None) => Budget::Ops(n),
                (None, Some(s)) => Budget::Seconds(s),
                _ => return Err("child: give one of --ops and --seconds".into()),
            };
            let job = ChildJob {
                workload: flags.need("workload")?,
                round: flags.need("round")?,
                seed,
                budget,
                traced: flags.need::<u8>("trace")? != 0,
                serve_bin: flags.get("serve-bin")?,
            };
            let out = runner::child(&job, started)?;
            println!("{}", out.to_json().emit());
        }
        other => {
            return Err(format!(
                "unknown command `{other}`; see `ccbench list` and the README"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Set-up time of a round counts from here.
    let started = Instant::now();
    real_main(started).unwrap_or_else(|e| {
        eprintln!("ccbench: {e}");
        ExitCode::FAILURE
    })
}
