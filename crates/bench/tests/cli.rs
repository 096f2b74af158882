//! The `repro` front end: every flag of the table parses, the help
//! and the README reference come from that table, and the flags with
//! no other caller (`--record`, `--record-rate`, `repro trace`,
//! `--list`) work end to end.

use bench::cli::{self, Stop, COMMANDS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf8")
}

#[test]
fn every_flag_in_the_table_parses() {
    let mut names = BTreeSet::new();
    for cmd in COMMANDS {
        for flag in cmd.flags() {
            names.insert(flag.name);
            for spelling in std::iter::once(flag.name).chain(flag.alias) {
                let mut argv = vec![spelling.to_string()];
                if flag.value.is_some() {
                    // Without its value the flag is a usage error that
                    // names it …
                    match cli::parse(cmd, argv.clone()) {
                        Err(Stop::Usage(msg)) => assert!(msg.starts_with(spelling), "{msg}"),
                        _ => panic!("`{}` {spelling}: no usage error", cmd.name),
                    }
                    argv.push("7".to_string());
                }
                // … and with it (or as a boolean) it reads back.
                let parsed = cli::parse(cmd, argv)
                    .unwrap_or_else(|e| panic!("`{}` {spelling}: {e:?}", cmd.name));
                let expect = if flag.value.is_some() { "7" } else { "" };
                assert_eq!(parsed.get(flag.name), Some(expect), "{spelling}");
                assert!(parsed.has(flag.name));
            }
        }
        let unknown = cli::parse(cmd, vec!["--no-such-flag".to_string()]);
        let sub = if cmd.name.is_empty() {
            String::new()
        } else {
            format!("{} ", cmd.name)
        };
        assert_eq!(
            unknown.err(),
            Some(Stop::Usage(format!("unknown {sub}argument --no-such-flag")))
        );
        for help in ["--help", "-h"] {
            assert_eq!(
                cli::parse(cmd, vec![help.to_string()]).err(),
                Some(Stop::Help)
            );
        }
    }
    // The tracked size of the operator surface: distinct flag names
    // over all subcommands and the rows of their tables, `--help` aside.
    assert_eq!(names.len(), 36, "{names:?}");
    let rows: usize = COMMANDS.iter().map(|cmd| cmd.flags.len()).sum();
    assert_eq!(rows, 44);
}

#[test]
fn a_repeated_flag_keeps_its_last_value() {
    let argv = ["--weeks", "3", "-q", "--weeks", "9"].map(String::from);
    let parsed = cli::parse(&cli::RUN, argv.to_vec()).unwrap();
    assert_eq!(parsed.num::<u32>("--weeks"), Some(9));
    assert!(parsed.has("--quiet"));
    assert!(!parsed.has("--verbose"));
}

#[test]
fn help_exits_0_and_names_every_flag() {
    for cmd in [&cli::RUN, &cli::SERVE] {
        let mut args = vec![cmd.name, "--help"];
        args.retain(|a| !a.is_empty());
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = stdout_of(&out);
        assert_eq!(text, cli::help(cmd));
        for flag in cmd.flags() {
            assert!(text.contains(flag.name), "{args:?} omits {}", flag.name);
        }
        assert!(text.contains("--help"), "{text}");
    }
    // The top-level help is also the index of subcommands.
    let top = cli::help(&cli::RUN);
    for cmd in COMMANDS.iter().filter(|c| !c.name.is_empty()) {
        assert!(top.contains(cmd.name), "top-level help omits {}", cmd.name);
    }
}

#[test]
fn readme_flag_reference_matches_the_table() {
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let text = std::fs::read_to_string(readme).expect("read README.md");
    let (begin, end) = ("<!-- repro-flags:begin -->\n", "<!-- repro-flags:end -->");
    let start = text.find(begin).expect("begin marker") + begin.len();
    let stop = text.find(end).expect("end marker");
    let expect = cli::reference();
    assert!(
        text[start..stop] == expect,
        "README.md flag reference is stale; replace the block between the markers with:\n{expect}"
    );
}

/// `args` exit 2 with the usage text, naming `unknown` as the argument
/// nothing accepts.
fn assert_unknown_argument(args: &[&str], unknown: &str) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown argument {unknown}")),
        "{stderr}"
    );
    assert!(stderr.contains("--help"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn the_removed_bench_subcommand_is_a_usage_error() {
    assert_unknown_argument(&["bench", "--bench", "repro_all"], "bench");
}

#[test]
fn the_removed_sharded_engine_left_no_flag_or_subcommand() {
    assert_unknown_argument(&["--exp", "fig1", "--shards", "2"], "--shards");
    assert_unknown_argument(&["shardstat", "--json"], "shardstat");
    assert_eq!(COMMANDS.len(), 5);
    let defaults = cli::RUN.about.lines().last().expect("about text");
    assert!(defaults.ends_with("--snoop-sample 1500."), "{defaults}");
}

#[test]
fn list_prints_every_experiment_id() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout_of(&out);
    for e in goingwild::experiments::REGISTRY {
        assert!(text.contains(e.id), "--list omits {}", e.id);
    }
}

/// Fig. 2 on a tiny world under the flaky profile; Table 3 on one large
/// enough that CHAOS gives up on a few resolvers under the hostile one.
const FLAKY_FIG2: [&str; 6] = ["--exp", "fig2", "--scale", "0.00005", "--faults", "flaky"];
const HOSTILE_TAB3: [&str; 6] = ["--exp", "tab3", "--scale", "0.0002", "--faults", "hostile"];

/// Records `run` into `stream`.
fn record(stream: &Path, run: &[&str], extra: &[&str]) {
    let mut args = run.to_vec();
    args.extend(["--weeks", "2", "--quiet", "--record"]);
    args.push(stream.to_str().unwrap());
    args.extend_from_slice(extra);
    let out = repro(&args);
    assert!(
        out.status.success(),
        "record run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `repro trace <stream> <filter…>`: exit 0 and something on stdout.
fn trace(stream: &Path, filter: &[&str]) -> String {
    let mut args = vec!["trace", stream.to_str().unwrap()];
    args.extend_from_slice(filter);
    let out = repro(&args);
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    let text = stdout_of(&out);
    assert!(!text.is_empty(), "{args:?} printed nothing");
    text
}

#[test]
fn recorded_streams_replay_identically_across_same_seed_runs() {
    // Cargo's scratch directory for this test target, under `target/`.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (tmp.join("a.gwrs"), tmp.join("b.gwrs"));
    record(&a, &FLAKY_FIG2, &[]);
    record(&b, &FLAKY_FIG2, &[]);

    let gave_up = trace(&a, &["--gave-up"]);
    assert_eq!(gave_up, trace(&b, &["--gave-up"]));
    // Under the flaky profile some probe exhausts its three attempts;
    // replay the timeline of the first one listed.
    let ip = gave_up
        .split("gave up on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no gave-up record to follow:\n{gave_up}"));
    let timeline = trace(&a, &["--probe", ip, "--limit", "5"]);
    assert!(timeline.contains("attempt #3"), "{timeline}");
    assert_eq!(timeline, trace(&b, &["--probe", ip, "--limit", "5"]));

    // Sampling is per address: at half rate the stream holds fewer
    // probes, but not none.
    let half = tmp.join("half.gwrs");
    record(&half, &FLAKY_FIG2, &["--record-rate", "0.5"]);
    let probes = |summary: String| -> u64 {
        let tail = summary.split(" records, ").nth(1).expect("summary line");
        tail.split(' ')
            .next()
            .unwrap()
            .parse()
            .expect("probe count")
    };
    let (all, sampled) = (probes(trace(&a, &[])), probes(trace(&half, &[])));
    assert!(0 < sampled && sampled < all, "{sampled} of {all} probes");

    // CHAOS gives up in fleet order, not a hash map's: with several
    // give-ups the whole stream is still the same bytes on every run.
    let (c, d) = (tmp.join("c.gwrs"), tmp.join("d.gwrs"));
    record(&c, &HOSTILE_TAB3, &["--record-rate", "1.0"]);
    record(&d, &HOSTILE_TAB3, &["--record-rate", "1.0"]);
    let gave_up = trace(&c, &["--gave-up"]);
    assert!(gave_up.matches("gave up on ").count() >= 2, "{gave_up}");
    let bytes = |stream: &Path| std::fs::read(stream).expect("read stream");
    assert!(bytes(&c) == bytes(&d), "same seed, different streams");
}
