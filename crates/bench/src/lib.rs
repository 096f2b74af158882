//! The `repro` binary's subcommands behind one flag table
//! ([`cli`]).

pub mod cli;
pub mod run;
pub mod scrub;
pub mod serve;
pub mod tail;
pub mod trace;
