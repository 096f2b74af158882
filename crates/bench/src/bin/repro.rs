//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --exp all  --scale 0.001 --weeks 55 --seed 20151028
//! repro --exp fig1 --weeks 12
//! repro --exp fig1 --store runs/main   # collect once, re-serve from disk
//! repro --list
//! repro trace run.gwrs --probe 4.9.0.2 # replay one probe's timeline
//! repro --help                         # every flag; also `repro <sub> --help`
//! ```
//!
//! This file only dispatches: the first argument picks a subcommand
//! from [`bench::cli::COMMANDS`] (none means the default run), the one
//! parser checks the rest against that command's flag table, and the
//! command's module does the work.

use bench::cli::{self, Stop};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match argv.first().and_then(|word| cli::subcommand(word)) {
        Some(cmd) => {
            argv.remove(0);
            cmd
        }
        None => &cli::RUN,
    };
    match cli::parse(cmd, argv) {
        Ok(parsed) => {
            if let Err(msg) = (cmd.run)(&parsed) {
                eprintln!("{}: {msg}", cmd.invocation());
                std::process::exit(1);
            }
        }
        Err(Stop::Help) => cli::emit(&cli::help(cmd)),
        Err(Stop::Usage(msg)) => cli::usage_error(&msg),
    }
}
