//! Shared command-line plumbing for every binary in the workspace.
//!
//! `preimpl`, `pilint`, `flowstat` and `pi-serve` all speak the same
//! dialect: a leading subcommand, positional inputs, `--flag` switches and
//! `--flag VALUE` options, the BrokenPipe-tolerant stdout contract, and
//! the shared [`crate::exit`] code convention. Before this module each
//! binary re-implemented that loop by hand and they drifted (different
//! error spellings, different `--threads` validation). Now a binary
//! declares its flags as a table and how many positionals each subcommand
//! takes, and gets parsing, validation and the `main` wrapper from one
//! place. A positional past that count is a usage error, never ignored:
//!
//! ```
//! use preimpl_cnn::cli::{parse_from, Cli, Flag};
//!
//! const FLAGS: &[Flag] = &[Flag::switch("--json"), Flag::value("--device")];
//! fn positionals(_: &Cli) -> usize {
//!     1
//! }
//! let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
//! let cli = parse_from(args(&["lint", "a.cnn", "--json"]), FLAGS, positionals, "usage").unwrap();
//! assert_eq!(cli.command, "lint");
//! assert!(cli.switch("--json"));
//! assert_eq!(cli.value("--device"), None);
//! assert!(parse_from(args(&["lint", "a.cnn", "junk"]), FLAGS, positionals, "usage").is_err());
//! ```

use std::process::ExitCode;
use std::str::FromStr;

/// How a flag consumes arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// A bare switch (`--json`).
    Switch,
    /// An option that always consumes the next argument (`--device NAME`).
    Value,
}

/// One accepted flag: a bare switch (`--json`) or an option that consumes
/// the next argument (`--device NAME`). Options may repeat; [`Cli::value`]
/// returns the last occurrence, [`Cli::values`] all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    pub name: &'static str,
    pub kind: FlagKind,
}

impl Flag {
    /// A boolean switch (`--json`).
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            kind: FlagKind::Switch,
        }
    }

    /// An option consuming the next argument (`--device NAME`).
    pub const fn value(name: &'static str) -> Flag {
        Flag {
            name,
            kind: FlagKind::Value,
        }
    }
}

/// A parsed command line: subcommand, positionals, and the flags seen.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// The leading subcommand (`stats`, `diff`, `serve`, ...).
    pub command: String,
    /// Non-flag arguments in order.
    pub positional: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Cli {
    /// Was this switch present?
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Last value given for this option, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for this (repeatable) option, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Last value of this option parsed as `T`, with a uniform error
    /// message (`--seeds must be a number`-style).
    pub fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{name} must be {what}")),
        }
    }

    /// The `i`-th positional, or a `missing <what>` usage error.
    pub fn positional(&self, i: usize, what: &str, usage: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing <{what}>\n{usage}"))
    }

    /// The shared `--threads N` knob: validated to be at least 1.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        match self.parsed::<usize>("--threads", "a number")? {
            Some(0) => Err("--threads must be at least 1".to_string()),
            other => Ok(other),
        }
    }

    /// The shared `--device NAME` knob with its workspace-wide default.
    pub fn device(&self) -> &str {
        self.value("--device").unwrap_or("xcku5p-like")
    }

    /// The shared `--block` granularity switch.
    pub fn granularity(&self) -> pi_cnn::graph::Granularity {
        if self.switch("--block") {
            pi_cnn::graph::Granularity::Block
        } else {
            pi_cnn::graph::Granularity::Layer
        }
    }
}

/// Parse the process arguments (skipping `argv[0]`) against a flag table.
/// `positionals` says how many positionals the parsed subcommand takes
/// (it may read the flags, e.g. `--model` standing in for an archdef);
/// one more is an `unexpected argument` usage error.
pub fn parse(
    flags: &'static [Flag],
    positionals: fn(&Cli) -> usize,
    usage: &str,
) -> Result<Cli, String> {
    parse_from(std::env::args().skip(1), flags, positionals, usage)
}

/// [`parse`] over an explicit argument stream (testable).
pub fn parse_from(
    argv: impl IntoIterator<Item = String>,
    flags: &'static [Flag],
    positionals: fn(&Cli) -> usize,
    usage: &str,
) -> Result<Cli, String> {
    let mut argv = argv.into_iter();
    let mut cli = Cli {
        command: argv.next().ok_or_else(|| usage.to_string())?,
        ..Cli::default()
    };
    while let Some(a) = argv.next() {
        if let Some(flag) = flags.iter().find(|f| f.name == a) {
            match flag.kind {
                FlagKind::Switch => cli.switches.push(flag.name),
                FlagKind::Value => {
                    let v = argv.next().ok_or(format!("{} needs a value", flag.name))?;
                    cli.values.push((flag.name, v));
                }
            }
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}\n{usage}"));
        } else {
            cli.positional.push(a);
        }
    }
    match cli.positional.get(positionals(&cli)) {
        Some(extra) => Err(format!("unexpected argument {extra}\n{usage}")),
        None => Ok(cli),
    }
}

/// Write a rendering to stdout, tolerating a closed pipe (`tool … | head`
/// is a normal way to consume output, not an error — swallow `BrokenPipe`
/// instead of panicking like `println!` would).
pub fn emit(text: &str) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}

/// The shared `main` wrapper: run the tool, map `Err` onto
/// [`crate::exit::OPERATIONAL_ERROR`] with the uniform `error:` rendering.
/// Gate trips ([`crate::exit::GATE`]) are an `Ok` exit code — the tool did
/// its job — so they pass through untouched.
pub fn run_main(run: impl FnOnce() -> Result<ExitCode, String>) -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(crate::exit::OPERATIONAL_ERROR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::switch("--json"),
        Flag::switch("--block"),
        Flag::value("--device"),
        Flag::value("--threads"),
        Flag::value("--allow"),
        Flag::value("--fail-on-regression"),
    ];

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn two(_: &Cli) -> usize {
        2
    }

    /// Parse with a table that takes up to two positionals.
    fn parse2(parts: &[&str], usage: &str) -> Result<Cli, String> {
        parse_from(args(parts), FLAGS, two, usage)
    }

    #[test]
    fn parses_command_positionals_switches_and_values() {
        let cli = parse2(
            &["lint", "a.cnn", "--json", "--device", "test-part", "b"],
            "usage",
        )
        .unwrap();
        assert_eq!(cli.command, "lint");
        assert_eq!(cli.positional, vec!["a.cnn", "b"]);
        assert!(cli.switch("--json"));
        assert!(!cli.switch("--block"));
        assert_eq!(cli.value("--device"), Some("test-part"));
        assert_eq!(cli.device(), "test-part");
    }

    #[test]
    fn repeatable_options_keep_every_occurrence() {
        let cli = parse2(&["lint", "--allow", "PL0101", "--allow", "PL0102"], "usage").unwrap();
        assert_eq!(cli.values("--allow"), vec!["PL0101", "PL0102"]);
        assert_eq!(cli.value("--allow"), Some("PL0102"), "last wins");
    }

    #[test]
    fn unknown_flags_and_missing_values_error_with_usage() {
        let e = parse2(&["lint", "--nope"], "USAGE").unwrap_err();
        assert!(e.contains("unknown flag --nope") && e.contains("USAGE"));
        let e = parse2(&["lint", "--device"], "USAGE").unwrap_err();
        assert_eq!(e, "--device needs a value");
        let e = parse2(&[], "USAGE").unwrap_err();
        assert_eq!(e, "USAGE");
    }

    #[test]
    fn value_flags_take_one_argument_in_any_position() {
        // `flowstat diff`'s gate: the flag owns exactly the argument after
        // it, so the two traces stay positionals 0 and 1 wherever it sits.
        for argv in [
            ["diff", "--fail-on-regression", "5", "a", "b"],
            ["diff", "a", "b", "--fail-on-regression", "5"],
        ] {
            let cli = parse2(&argv, "u").unwrap();
            assert_eq!(cli.positional, vec!["a", "b"], "{argv:?}");
            assert_eq!(cli.value("--fail-on-regression"), Some("5"), "{argv:?}");
        }
        // There is no bare form: a trailing flag is an error, never a
        // silently defaulted threshold.
        let e = parse2(&["diff", "a", "b", "--fail-on-regression"], "u").unwrap_err();
        assert_eq!(e, "--fail-on-regression needs a value");
    }

    #[test]
    fn threads_validation_is_uniform() {
        let ok = parse2(&["x", "--threads", "2"], "u").unwrap();
        assert_eq!(ok.threads().unwrap(), Some(2));
        let zero = parse2(&["x", "--threads", "0"], "u").unwrap();
        assert_eq!(zero.threads().unwrap_err(), "--threads must be at least 1");
        let junk = parse2(&["x", "--threads", "many"], "u").unwrap();
        assert_eq!(junk.threads().unwrap_err(), "--threads must be a number");
        assert_eq!(parse2(&["x"], "u").unwrap().threads(), Ok(None));
    }

    #[test]
    fn a_positional_past_the_subcommands_count_is_a_usage_error() {
        // `preimpl stats a.arch junk` used to ignore `junk`.
        let e = parse2(&["stats", "a.arch", "--json", "b", "junk"], "USAGE").unwrap_err();
        assert_eq!(e, "unexpected argument junk\nUSAGE");
        // The count may read the flags: a flag can stand in for a positional.
        fn archdef_unless_model(cli: &Cli) -> usize {
            usize::from(cli.value("--device").is_none())
        }
        let ok = parse_from(args(&["stats", "a.arch"]), FLAGS, archdef_unless_model, "U");
        assert_eq!(ok.unwrap().positional, vec!["a.arch"]);
        let e = parse_from(
            args(&["stats", "--device", "d", "a.arch"]),
            FLAGS,
            archdef_unless_model,
            "U",
        )
        .unwrap_err();
        assert_eq!(e, "unexpected argument a.arch\nU");
    }

    #[test]
    fn defaults_and_positional_errors() {
        let cli = parse2(&["x"], "u").unwrap();
        assert_eq!(cli.device(), "xcku5p-like");
        assert_eq!(cli.granularity(), pi_cnn::graph::Granularity::Layer);
        assert_eq!(
            cli.positional(0, "archdef", "U").unwrap_err(),
            "missing <archdef>\nU"
        );
        let blk = parse2(&["x", "--block"], "u").unwrap();
        assert_eq!(blk.granularity(), pi_cnn::graph::Granularity::Block);
    }
}
