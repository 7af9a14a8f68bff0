//! Strict command-line parsing shared by the binaries.
//!
//! Each binary declares its flags once in a [`Cli`]: the flags that take
//! a value and the switches that stand alone. Everything else that looks
//! like a flag is rejected, as is a value flag given without a value or
//! twice, and a value that does not parse; each of these prints the
//! message and the usage text to stderr and exits 2. `--help` (or `-h`)
//! prints the usage to stdout and exits 0 before anything runs.

use std::str::FromStr;

/// A binary's flag declaration and usage text.
#[derive(Debug)]
pub struct Cli {
    /// Printed on `--help` and after every rejected command line.
    pub usage: &'static str,
    /// Flags followed by a value (`--jobs N`).
    pub values: &'static [&'static str],
    /// Flags without a value (`--quick`).
    pub switches: &'static [&'static str],
}

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// The command line is malformed; the message names the problem.
    Invalid(String),
}

/// A command line checked against its [`Cli`].
#[derive(Debug)]
pub struct Args {
    cli: &'static Cli,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// The arguments that are not flags or flag values, in order.
    pub positional: Vec<String>,
}

impl Cli {
    /// Checks `raw` (the arguments after the program name) against the
    /// declared flags.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Invalid`] on an
    /// unknown flag, a missing value or a repeated value flag.
    pub fn parse(&'static self, raw: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
        let mut args = Args {
            cli: self,
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            if let Some(&flag) = self.values.iter().find(|&&f| f == arg) {
                let value = raw
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError::Invalid(format!("{flag} expects a value")))?;
                if args.values.iter().any(|&(f, _)| f == flag) {
                    return Err(CliError::Invalid(format!("{flag} given twice")));
                }
                args.values.push((flag, value));
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                args.switches.push(flag);
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(CliError::Invalid(format!("unknown flag {arg:?}")));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// [`Cli::parse`] for a binary: on `--help` prints the usage and
    /// exits 0, on a malformed command line exits 2 via [`Cli::fail`].
    pub fn parse_or_exit(&'static self, raw: impl IntoIterator<Item = String>) -> Args {
        match self.parse(raw) {
            Ok(args) => args,
            Err(CliError::Help) => {
                println!("{}", self.usage);
                std::process::exit(0);
            }
            Err(CliError::Invalid(msg)) => self.fail(&msg),
        }
    }

    /// Parses the process's own arguments (see [`Cli::parse_or_exit`]).
    pub fn from_env(&'static self) -> Args {
        self.parse_or_exit(std::env::args().skip(1))
    }

    /// Prints `msg` and the usage text to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2);
    }
}

impl Args {
    /// True if the switch `flag` was given.
    ///
    /// # Panics
    ///
    /// Panics if `flag` is not one of the declared switches.
    pub fn has(&self, flag: &str) -> bool {
        assert!(
            self.cli.switches.contains(&flag),
            "undeclared switch {flag}"
        );
        self.switches.contains(&flag)
    }

    /// The raw value of the value flag `flag`, if it was given.
    ///
    /// # Panics
    ///
    /// Panics if `flag` is not one of the declared value flags.
    pub fn value(&self, flag: &str) -> Option<&str> {
        assert!(
            self.cli.values.contains(&flag),
            "undeclared value flag {flag}"
        );
        self.values
            .iter()
            .find(|&&(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as `T`, if it was given. An unparsable
    /// value exits 2 with the usage text.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag}: invalid value {v:?}")))
        })
    }

    /// Prints `msg` and the usage text to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        self.cli.fail(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CLI: Cli = Cli {
        usage: "usage: t [--jobs N] [--quick] ID...",
        values: &["--jobs"],
        switches: &["--quick"],
    };

    fn parse(s: &[&str]) -> Result<Args, CliError> {
        CLI.parse(s.iter().map(ToString::to_string))
    }

    #[test]
    fn splits_flags_values_and_positionals() {
        let a = parse(&["fig14", "--jobs", "4", "--quick", "fig19"]).unwrap();
        assert_eq!(a.value("--jobs"), Some("4"));
        assert_eq!(a.parsed::<usize>("--jobs"), Some(4));
        assert!(a.has("--quick"));
        assert_eq!(a.positional, ["fig14", "fig19"]);
        let b = parse(&[]).unwrap();
        assert_eq!(b.value("--jobs"), None);
        assert!(!b.has("--quick"));
    }

    #[test]
    fn rejects_unknown_missing_and_repeated() {
        let invalid = |s: &[&str]| matches!(parse(s), Err(CliError::Invalid(_)));
        assert!(invalid(&["--varient", "netcrafter"]), "unknown flag");
        assert!(invalid(&["--jobs=4"]), "no `=` form");
        assert!(invalid(&["--jobs"]), "missing value at the end");
        assert!(invalid(&["--jobs", "--quick"]), "a flag is not a value");
        assert!(invalid(&["--jobs", "1", "--jobs", "2"]), "given twice");
    }

    #[test]
    fn help_wins_anywhere() {
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["fig14", "-h"]).unwrap_err(), CliError::Help);
    }

    #[test]
    #[should_panic(expected = "undeclared value flag")]
    fn undeclared_lookup_is_a_bug() {
        let _ = parse(&[]).unwrap().value("--workload");
    }
}
