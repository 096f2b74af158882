//! The one flag table behind every `repro` subcommand.
//!
//! Each subcommand is a [`Command`] constant: its name, what it does,
//! its flags (name, value metavar or none for a boolean, help text)
//! and the function that runs it. [`parse`] is the only argv loop in
//! the crate; [`help`] renders `repro [<sub>] --help` and
//! [`reference()`] renders the README flag reference from the same
//! constants, so neither can drift from what the parser accepts.

use std::fmt::Write as _;

/// One flag of a subcommand.
pub struct Flag {
    /// The flag as typed, e.g. `--exp`.
    pub name: &'static str,
    /// A second accepted spelling, e.g. `-q` for `--quiet`.
    pub alias: Option<&'static str>,
    /// Metavar of the value the flag takes; `None` for a boolean.
    pub value: Option<&'static str>,
    /// One-sentence description for `--help` and the README.
    pub help: &'static str,
}

/// A flag that takes a value.
const fn val(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        alias: None,
        value: Some(value),
        help,
    }
}

/// A boolean flag.
const fn switch(name: &'static str, alias: Option<&'static str>, help: &'static str) -> Flag {
    Flag {
        name,
        alias,
        value: None,
        help,
    }
}

/// One `repro` subcommand: what `--help` says about it, the flags it
/// accepts, and its entry point.
pub struct Command {
    /// Subcommand word; empty for the default collect-and-derive run.
    pub name: &'static str,
    /// One line: heads the command's `--help` and lists it in `repro --help`.
    pub summary: &'static str,
    /// What the subcommand does, for its own `--help` and the README.
    pub about: &'static str,
    /// Metavar of the single positional argument, if it takes one.
    pub positional: Option<&'static str>,
    /// The accepted flags, in help order.
    pub flags: &'static [Flag],
    /// Runs the subcommand over its parsed arguments. An `Err` is a
    /// runtime failure: the dispatcher prints it after `repro <sub>: `
    /// and exits 1.
    pub run: fn(&Parsed) -> Result<(), String>,
}

// The flag tables keep one row per flag, as `--help` prints them; each
// is `rustfmt::skip` because rustfmt would stack every cell on a line
// of its own.

#[rustfmt::skip]
const RUN_FLAGS: &[Flag] = &[
    val("--exp", "id", "experiment to regenerate: an id from --list, or `all`"),
    val("--scale", "f", "world size relative to the paper's 26.8 M resolvers"),
    val("--weeks", "n", "simulated weeks of the weekly enumeration"),
    val("--seed", "n", "world seed; output is a pure function of seed, scale and flags"),
    val("--snoop-sample", "n", "resolvers probed by the cache-snooping campaign"),
    val("--faults", "profile", "flaky|bursty|outage|flappy|ratelimited|hostile; implies 3 tries"),
    val("--retries", "n", "probe attempts per retrying campaign (enumeration stays at one)"),
    val("--strict-coverage", "pct", "exit 3 if a campaign's response coverage falls below pct"),
    val("--json", "path", "also write the machine-readable reports to this file"),
    val("--store", "dir", "persist campaign snapshots; resume a killed run, re-serve a done one"),
    val("--metrics", "path", "write a goingwild.metrics.v1 snapshot of the run's telemetry"),
    val("--trace", "path", "stream JSON-lines spans and events (sim-time only, byte-stable)"),
    val("--record", "path", "persist flight-recorder probe records for `repro trace`"),
    val("--record-rate", "f", "share of targets recorded, all-or-none per IP (default 1.0)"),
    val("--profile", "path", "write sim-time folded stacks; with -v, span quantiles on stderr"),
    switch("--quiet", Some("-q"), "only errors on stderr (stdout reports are unaffected)"),
    switch("--verbose", Some("-v"), "debug-level status on stderr"),
    switch("--list", None, "print every experiment id and exit"),
];

/// `repro [flags]`: collect once, derive every selected experiment.
pub const RUN: Command = Command {
    name: "",
    summary: "regenerate the paper's tables and figures",
    about: "Collects the selected experiments' campaigns in one pass over one schedule\n\
            (each campaign once; the domain scan beside the others, on a simulated world\n\
            of its own), then derives every experiment's artifact from that bundle. Defaults:\n\
            --exp all --scale 0.0005 --weeks 55 --seed 20151028 --snoop-sample 1500.",
    positional: None,
    flags: RUN_FLAGS,
    run: crate::run::main,
};

#[rustfmt::skip]
const SERVE_FLAGS: &[Flag] = &[
    val("--store", "dir", "campaign store to serve, from `repro --store <dir>` (required)"),
    val("--addr", "host:port", "listen address; port 0 picks a free port and announces it"),
    val("--refresh-ms", "n", "interval of the check for new segments; 0 never refreshes"),
    val("--metrics", "path", "write the final telemetry snapshot here on shutdown"),
    val("--slo", "spec", "objectives like p99=5ms,err=0.1%; /healthz is 503 while they burn"),
    val("--trace", "path", "write the request-trace stream, for `repro tail --file`"),
    val("--max-inflight", "n", "admission cap on live connections; half as many may queue 100 ms"),
    val("--deadline-ms", "n", "per-request bound, 503 deadline_exceeded past it; 0 sets none"),
    switch("--selftest", None, "run daemon and seeded fleet in-process, print one report line"),
    val("--chaos", "profile", "with --selftest, attack instead: overload|malformed|corruption"),
    val("--fleet", "host:port", "replay the seeded fleet against a running daemon"),
    val("--seed", "n", "fleet seed"),
    val("--clients", "n", "concurrent fleet clients"),
    val("--requests", "n", "requests per fleet client"),
];

/// `repro serve`: the query daemon, its selftest fleet and chaos profiles.
pub const SERVE: Command = Command {
    name: "serve",
    summary: "query daemon over an on-disk store; selftest fleet and chaos profiles",
    about: "Answers /classify, /churn, /amplifiers, /coverage and /campaigns over HTTP/JSON\n\
            straight from an on-disk store, refreshing as a writer commits; also /metrics,\n\
            /slo, /debug/requests, /admin/scrub. SIGINT/SIGTERM drains, then flushes metrics.\n\
            Every request is traced; one slower than the --slo p99 (100 ms without one)\n\
            enters the slow log.",
    positional: None,
    flags: SERVE_FLAGS,
    run: crate::serve::main,
};

#[rustfmt::skip]
const TRACE_FLAGS: &[Flag] = &[
    val("--campaign", "name", "keep only this campaign's records"),
    val("--probe", "a.b.c.d", "full timeline of one probed address"),
    val("--asn", "n", "every record of the probes inside one AS"),
    val("--fault", "reason", "the datagrams one fault kind dropped"),
    switch("--gave-up", None, "the probes that exhausted every attempt"),
    val("--limit", "n", "records shown per listing; 0 shows all (default 50)"),
];

/// `repro trace`: query a recorded flight-recorder stream.
pub const TRACE: Command = Command {
    name: "trace",
    summary: "query a recorded flight-recorder stream",
    about: "Reads a stream written by `repro --record`: one probe's timeline, the probes a\n\
            fault kind killed, or with no filter a summary of the whole stream.",
    positional: Some("stream.gwrs"),
    flags: TRACE_FLAGS,
    run: crate::trace::main,
};

#[rustfmt::skip]
const SCRUB_FLAGS: &[Flag] = &[
    val("--store", "dir", "store root to check (required)"),
    switch("--json", None, "print one JSON document instead of the text report"),
];

/// `repro scrub`: offline store integrity pass.
pub const SCRUB: Command = Command {
    name: "scrub",
    summary: "offline store integrity pass",
    about: "CRC and manifest cross-check of every campaign store under the root, with a\n\
            verdict per segment (ok, missing, size_mismatch, corrupt, seq_mismatch).\n\
            Exit 1 if anything is unhealthy.",
    positional: None,
    flags: SCRUB_FLAGS,
    run: crate::scrub::main,
};

#[rustfmt::skip]
const TAIL_FLAGS: &[Flag] = &[
    val("--addr", "host:port", "poll this live daemon"),
    val("--file", "path", "follow this recorded trace stream instead"),
    switch("--once", None, "take one sample and exit"),
    switch("--json", None, "print goingwild.tail.v1 JSON instead of the console"),
];

/// `repro tail`: live ops console.
pub const TAIL: Command = Command {
    name: "tail",
    summary: "live ops console over a daemon or a trace stream",
    about: "QPS, per-endpoint latency quantiles, SLO burn, cache hit ratio and the 8 newest\n\
            slow queries of a running daemon, or the traced requests and collect.progress\n\
            heartbeats of a recorded trace stream; refreshed every second.",
    positional: None,
    flags: TAIL_FLAGS,
    run: crate::tail::main,
};

/// Every command, the default run first.
pub const COMMANDS: &[&Command] = &[&RUN, &SERVE, &TRACE, &SCRUB, &TAIL];

/// The subcommand a first argument names, if any.
pub fn subcommand(word: &str) -> Option<&'static Command> {
    COMMANDS
        .iter()
        .copied()
        .find(|c| !c.name.is_empty() && c.name == word)
}

impl Command {
    /// Every flag of the command, in help order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter()
    }

    fn find(&self, arg: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == arg || f.alias == Some(arg))
    }

    /// `repro` or `repro <sub>`.
    pub fn invocation(&self) -> String {
        if self.name.is_empty() {
            "repro".to_string()
        } else {
            format!("repro {}", self.name)
        }
    }
}

/// Why [`parse`] stopped short of a [`Parsed`].
#[derive(Debug, PartialEq)]
pub enum Stop {
    /// `--help` or `-h` was given.
    Help,
    /// The arguments are malformed; the message is the usage error.
    Usage(String),
}

/// Arguments checked against a command's flag table.
pub struct Parsed {
    cmd: &'static Command,
    values: Vec<(&'static str, String)>,
    /// The positional argument, for commands that take one.
    pub positional: Option<String>,
}

/// Checks `argv` against `cmd`'s table. A repeated flag keeps its
/// last value.
pub fn parse(cmd: &'static Command, argv: Vec<String>) -> Result<Parsed, Stop> {
    let mut parsed = Parsed {
        cmd,
        values: Vec::new(),
        positional: None,
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            return Err(Stop::Help);
        }
        match cmd.find(&a) {
            Some(flag) => {
                let value = match flag.value {
                    Some(_) => it
                        .next()
                        .ok_or_else(|| Stop::Usage(format!("{a} requires a value")))?,
                    None => String::new(),
                };
                parsed.values.push((flag.name, value));
            }
            None if cmd.positional.is_some()
                && parsed.positional.is_none()
                && !a.starts_with('-') =>
            {
                parsed.positional = Some(a)
            }
            None if cmd.name.is_empty() => {
                return Err(Stop::Usage(format!("unknown argument {a}")))
            }
            None => return Err(Stop::Usage(format!("unknown {} argument {a}", cmd.name))),
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// The value given for `name`, or `Some("")` for a boolean that is
    /// set. Panics on a name the command's table does not hold, so a
    /// typo in a subcommand body fails its first test, not silently.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.position(name).map(|i| self.values[i].1.as_str())
    }

    /// Where among the given flags `name` last appears, for flags
    /// that override each other in order.
    pub fn position(&self, name: &str) -> Option<usize> {
        assert!(
            self.cmd.flags().any(|f| f.name == name),
            "{name} is not in the `{}` flag table",
            self.cmd.invocation()
        );
        self.values.iter().rposition(|(n, _)| *n == name)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of `name` as an owned string.
    pub fn string(&self, name: &str) -> Option<String> {
        self.get(name).map(str::to_string)
    }

    /// The value of `name` as a number; garbage like `--weeks banana`
    /// is a one-line usage error, not a panic.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|value| {
            value
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects a number, got `{value}`")))
        })
    }
}

/// Prints a usage error and exits 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("run `repro --list` for the experiment ids, or `repro --help` for the flags");
    std::process::exit(2);
}

/// Writes a finished report to stdout in one write and ignores the
/// error: a downstream `head` closing the pipe is not a failure.
pub fn emit(text: &str) {
    let _ = std::io::Write::write_all(&mut std::io::stdout(), text.as_bytes());
}

/// The `--help` text of one command.
pub fn help(cmd: &Command) -> String {
    const HELP: Flag = switch("--help", Some("-h"), "print this help and exit");
    let name = cmd.invocation();
    let mut out = format!("{name} — {}\n\nusage: {name}", cmd.summary);
    if let Some(metavar) = cmd.positional {
        let _ = write!(out, " <{metavar}>");
    }
    let _ = write!(out, " [flags]\n\n{}\n\nflags:\n", cmd.about);
    for f in cmd.flags().chain(std::iter::once(&HELP)) {
        let mut left = match f.alias {
            Some(alias) => format!("{alias}, {}", f.name),
            None => f.name.to_string(),
        };
        if let Some(metavar) = f.value {
            let _ = write!(left, " <{metavar}>");
        }
        let _ = writeln!(out, "  {left:<23} {}", f.help);
    }
    if cmd.name.is_empty() {
        out.push_str("\nsubcommands (each takes --help):\n");
        for sub in COMMANDS.iter().filter(|c| !c.name.is_empty()) {
            let _ = writeln!(out, "  {:<10} {}", sub.name, sub.summary);
        }
    }
    out
}

/// The README flag reference: every command's `--help`, in order.
pub fn reference() -> String {
    let mut out = String::from("```text\n");
    for (i, cmd) in COMMANDS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&help(cmd));
    }
    out.push_str("```\n");
    out
}
