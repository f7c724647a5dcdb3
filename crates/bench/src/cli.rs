//! The one argument parser the bench binaries share.
//!
//! Each binary declares a [`Usage`]: its usage line, the switches and
//! valued flags it accepts, and whether it takes positional arguments.
//! Anything else — an unknown flag, a flag missing its value, a stray
//! positional — exits 2 with the usage line instead of being ignored, so
//! a stale flag in a script fails loudly rather than silently skipping
//! what it used to do.

use std::str::FromStr;

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
