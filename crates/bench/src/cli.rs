//! The one argument parser and the one stdout writer the bench binaries
//! share.
//!
//! Each binary declares a [`Usage`]: its usage line, the switches and
//! valued flags it accepts, and whether it takes positional arguments.
//! Anything else — an unknown flag, a flag missing its value, a stray
//! positional — exits 2 with the usage line instead of being ignored, so
//! a stale flag in a script fails loudly rather than silently skipping
//! what it used to do.
//!
//! The binaries print with [`out!`](crate::out) and
//! [`outln!`](crate::outln), which exit quietly with
//! [`BROKEN_PIPE_STATUS`] when stdout's reader went away (`tables |
//! head`), where `print!` would panic.

use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

/// The exit status of a bench binary whose stdout reader closed early:
/// 128 + 13, what a shell reports for a process killed by `SIGPIPE`.
/// It is not 0, so a gate piped into `head` never reads as a pass.
pub const BROKEN_PIPE_STATUS: i32 = 141;

/// Writes `args` to stdout and flushes it. A closed reader exits the
/// process with [`BROKEN_PIPE_STATUS`], any other write error exits 1.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    let mut out = io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(BROKEN_PIPE_STATUS);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// What one binary accepts on its command line.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// The usage line printed on a usage error (without `usage: `).
    pub line: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take the next argument as their value.
    pub valued: &'static [&'static str],
    /// Whether non-flag arguments are accepted.
    pub positional: bool,
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    usage: Usage,
    flags: Vec<(&'static str, Option<String>)>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Usage {
    /// Parses the process arguments; exits 2 with the usage line on
    /// anything this binary does not accept.
    pub fn parse(self) -> Args {
        self.parse_from(std::env::args().skip(1))
            .unwrap_or_else(|e| usage_error(self.line, &e))
    }

    /// Parses `args` (without the program name).
    pub fn parse_from(self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            usage: self,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = self.switches.iter().find(|&&s| s == arg) {
                parsed.flags.push((flag, None));
            } else if let Some(&flag) = self.valued.iter().find(|&&s| s == arg) {
                let value = args.next().ok_or_else(|| format!("{flag} wants a value"))?;
                parsed.flags.push((flag, Some(value)));
            } else if arg.starts_with("--") || !self.positional {
                return Err(format!("unknown argument `{arg}`"));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last occurrence of `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` parsed as a `T`; exits 2 if it does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} wants a number, got `{v}`")))
        })
    }

    /// Prints `msg` and the usage line, then exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(self.usage.line, msg)
    }
}

fn usage_error(line: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {line}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: Usage = Usage {
        line: "demo [--quick] [--out PATH] [ID...]",
        switches: &["--quick"],
        valued: &["--out"],
        positional: true,
    };

    fn parse(args: &[&str], usage: Usage) -> Result<Args, String> {
        usage.parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepted_arguments_parse() {
        let a = parse(&["e1", "--quick", "--out", "-", "e2"], USAGE).unwrap();
        assert!(a.has("--quick"));
        assert_eq!(a.value("--out"), Some("-"));
        assert_eq!(a.positional, ["e1", "e2"]);
    }

    #[test]
    fn unknown_flags_missing_values_and_stray_positionals_are_errors() {
        let err = parse(&["--quick", "--bogus"], USAGE).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = parse(&["--out"], USAGE).unwrap_err();
        assert!(err.contains("--out wants a value"), "{err}");
        let closed = Usage {
            positional: false,
            ..USAGE
        };
        assert!(parse(&["e1"], closed).is_err());
    }
}
