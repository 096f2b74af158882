//! `gwbench` — the repository's one benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! gwbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! gwbench --all [--trace 0|1] [--quick]      one fresh process per judged workload
//! gwbench --check-stability [--quick]        two interleaved sets of 3 runs per judged workload; medians against bounds
//! gwbench --spread [--quick]                 every judged workload on ten seeds; quartile spreads against bounds
//! ```
//!
//! A run prints `name value unit` lines for people and, as the last line
//! of standard output, one JSON object with exactly `correct`,
//! `attempted`, `failed` and `metrics`.

mod batch;
mod common;
mod kernels;
mod ledger;
mod metrics;
mod procfs;
mod serveload;
mod stats;
mod trace;

use metrics::{Outcome, END_TO_END};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnumSeq,
    EnumShards2,
    ReproAll,
    ServeHot,
    ServeCold,
}

impl Workload {
    /// The workloads `BENCHMARK.json` names: the ones a change is judged
    /// by, and the ones `--all`, `--check-stability` and `--spread` run.
    pub const JUDGED: [Workload; 4] = [
        Workload::EnumSeq,
        Workload::ReproAll,
        Workload::ServeHot,
        Workload::ServeCold,
    ];

    /// Every workload `--workload` accepts. `enum_shards2` is run by hand
    /// only: the sharded engine runs three threads on two cores and its
    /// wall-clock is bimodal here, so it carries no bound (see the README).
    const ALL: [Workload; 5] = [
        Workload::EnumSeq,
        Workload::EnumShards2,
        Workload::ReproAll,
        Workload::ServeHot,
        Workload::ServeCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnumSeq => "enum_seq",
            Workload::EnumShards2 => "enum_shards2",
            Workload::ReproAll => "repro_all",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

impl Args {
    /// Time each kernel may spend: 2% of the window, at least 20 ms.
    pub fn kernel_budget(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.02).max(0.02))
    }
}

const DEFAULT_SEED: u64 = 2015_1028;
const DEFAULT_SECONDS: f64 = 18.0;
const QUICK_SECONDS: f64 = 2.0;

enum Mode {
    One(Args),
    All {
        traced: bool,
        quick: bool,
    },
    CheckStability {
        quick: bool,
    },
    Spread {
        quick: bool,
    },
    /// Internal: the serve workloads collect their store in a child.
    CollectStore {
        dir: std::path::PathBuf,
        quick: bool,
    },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut collect_store = None;
    let (mut traced, mut quick, mut all, mut stability, mut spread) =
        (false, false, false, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => traced = true,
            "--quick" => quick = true,
            "--all" => all = true,
            "--check-stability" => stability = true,
            "--spread" => spread = true,
            "--collect-store" => collect_store = Some(value("a directory")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(dir) = collect_store {
        return Ok(Mode::CollectStore { dir, quick });
    }
    if stability {
        return Ok(Mode::CheckStability { quick });
    }
    if spread {
        return Ok(Mode::Spread { quick });
    }
    if all {
        return Ok(Mode::All { traced, quick });
    }
    let workload =
        workload.ok_or("one of --workload <name>, --all, --check-stability is required")?;
    let seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(Mode::One(Args {
        workload,
        seed,
        seconds,
        traced,
        quick,
    }))
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> ExitCode {
    let mut out = Outcome::default();
    let result = match (args.workload, args.traced) {
        (Workload::ServeHot | Workload::ServeCold, false) => serveload::run(args, &mut out),
        (Workload::ServeHot | Workload::ServeCold, true) => serveload::run_traced(args, &mut out),
        (_, false) => batch::run(args, &mut out),
        (_, true) => batch::run_traced(args, &mut out),
    };
    if let Err(e) = result {
        out.op(false, || format!("{}: {e}", args.workload.name()));
    }
    println!(
        "\n# {} seed={} seconds={} trace={} host_cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for (name, value, unit) in out.reported(args.traced) {
        match Outcome::annotation(name) {
            // A layer the workload does not exercise: keep the table short.
            Some(_) if value == 0.0 => {}
            Some(note) => println!("{name} {value} {unit}  {note}"),
            None => println!("{name} {value} {unit}"),
        }
    }
    for (name, value) in &out.info {
        println!("{name} {value}");
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_ratio {ratio} ratio ({} of {} operations)",
        out.failed, out.attempted
    );
    for failure in &out.failures {
        println!("FAILED {failure}");
    }
    println!("{}", out.document(args.traced));
    ExitCode::SUCCESS
}

/// Spawns this executable for one workload; returns its standard output.
fn spawn(workload: Workload, seed: u64, traced: bool, quick: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}\n{stdout}",
            workload.name(),
            output.status
        ));
    }
    Ok(stdout)
}

/// `--all`: one fresh process per workload, so that peak memory and CPU
/// time belong to that workload alone.
fn run_all(traced: bool, quick: bool) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::JUDGED {
        match spawn(workload, DEFAULT_SEED, traced, quick) {
            Ok(stdout) => {
                print!("{stdout}");
                if !stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\":true"))
                {
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("gwbench: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// The end-to-end values in a run's last output line.
fn parse_result(stdout: &str) -> Result<Vec<f64>, String> {
    use serde_json::Value;
    let line = stdout.lines().last().ok_or("no output")?;
    let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let Value::Object(doc) = doc else {
        return Err("result is not an object".to_string());
    };
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("run was not correct: {line}"));
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("no metrics".to_string());
    };
    END_TO_END
        .iter()
        .map(|m| match metrics.get(m.name) {
            Some(Value::Object(o)) => match o.get("value") {
                Some(Value::F64(v)) => Ok(*v),
                other => Err(format!("{}: {other:?}", m.name)),
            },
            other => Err(format!("{}: {other:?}", m.name)),
        })
        .collect()
}

/// `--check-stability`: two sets of runs of the same code, compared the
/// way a change is compared with its parent. Per workload the sets' runs
/// alternate (first, second, first, …; three each, every run a fresh
/// process on its own seed), so that a slow phase of the host falls on
/// both sets; each set's median is then held against the metric's bound.
/// A single pair of runs cannot pass on a shared host: identical runs
/// minutes apart were seen 40% apart.
fn check_stability(quick: bool) -> ExitCode {
    const RUNS_PER_SET: u64 = 3;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut misses = 0;
    for workload in Workload::JUDGED {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for run in 0..2 * RUNS_PER_SET {
            let set = (run % 2) as usize;
            eprintln!(
                "gwbench: {} set {} run {}",
                workload.name(),
                set + 1,
                run / 2 + 1
            );
            match spawn(workload, DEFAULT_SEED + run, false, quick).and_then(|s| parse_result(&s)) {
                Ok(values) => sets[set].push(values),
                Err(e) => {
                    eprintln!("gwbench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let median_of =
                |set: &[Vec<f64>]| stats::median(&set.iter().map(|r| r[i]).collect::<Vec<_>>());
            let (a, b) = (median_of(&sets[0]), median_of(&sets[1]));
            // By how much the second set reads worse than the first (the
            // rule a change is held to); same code, so either sign is noise.
            let worse = if m.better == "lower" {
                b / a - 1.0
            } else {
                a / b - 1.0
            };
            let ok = worse.abs() <= m.bound;
            misses += u32::from(!ok);
            println!(
                "{:<13} {:<12} {a:>14.3} {b:>14.3} {:>+7.1}% {:>5.0}%  {}",
                workload.name(),
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                if ok { "within" } else { "MISS" }
            );
        }
    }
    if misses > 0 {
        println!("{misses} metric(s) differed between two sets of runs of the same code by more than their bound");
        return ExitCode::FAILURE;
    }
    println!("every metric agreed between the two sets within its bound");
    ExitCode::SUCCESS
}

/// `--spread`: the acceptance rule. Ten runs of every workload, each on
/// another seed and in a fresh process; for every end-to-end metric the
/// distance between the first and third quartile of the ten values as a
/// share of their median, against the metric's bound. `setup_s` is shown
/// but, as in the rule, not judged on its spread.
fn spread(quick: bool) -> ExitCode {
    const RUNS: u64 = 10;
    println!(
        "{:<13} {:<12} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut misses = 0;
    for workload in Workload::JUDGED {
        let mut runs = Vec::new();
        for i in 0..RUNS {
            eprintln!("gwbench: {} seed {}", workload.name(), DEFAULT_SEED + i);
            match spawn(workload, DEFAULT_SEED + i, false, quick).and_then(|s| parse_result(&s)) {
                Ok(values) => runs.push(values),
                Err(e) => {
                    eprintln!("gwbench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r[i]).collect();
            let share = stats::iqr_share(&values);
            let verdict = if m.name == "setup_s" {
                "not judged"
            } else if share < m.bound / 3.0 {
                "steady"
            } else if share <= m.bound {
                "within"
            } else {
                misses += 1;
                "MISS"
            };
            println!(
                "{:<13} {:<12} {:>14.3} {:>7.1}% {:>5.0}%  {verdict}",
                workload.name(),
                m.name,
                stats::median(&values),
                100.0 * share,
                100.0 * m.bound,
            );
        }
    }
    if misses > 0 {
        println!("{misses} metric(s) spread wider than their bound over {RUNS} seeds");
        return ExitCode::FAILURE;
    }
    println!("every judged metric's quartile spread over {RUNS} seeds is within its bound");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::One(args)) => run_one(&args),
        Ok(Mode::All { traced, quick }) => run_all(traced, quick),
        Ok(Mode::CheckStability { quick }) => check_stability(quick),
        Ok(Mode::Spread { quick }) => spread(quick),
        Ok(Mode::CollectStore { dir, quick }) => match serveload::collect_store(&dir, quick) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gwbench: collecting {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("gwbench: {e}");
            eprintln!(
                "usage: gwbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] | --all | \
                 --check-stability | --spread"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Mode::One(args)) = parse_args(&argv(
            "--workload serve_cold --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("one run expected")
        };
        assert_eq!(args.workload, Workload::ServeCold);
        assert_eq!(
            (args.seed, args.seconds, args.traced, args.quick),
            (7, 10.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload enum_seq --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload enum_seq --trace 2")).is_err());
        assert!(parse_args(&argv("")).is_err());
        assert!(matches!(
            parse_args(&argv("--all --traced")),
            Ok(Mode::All {
                traced: true,
                quick: false
            })
        ));
    }

    /// Two in-process runs of `--quick enum_seq` derive the same outputs,
    /// and every operation of both succeeds.
    #[test]
    fn quick_enum_seq_digest_is_stable_across_runs() {
        let spec = batch::BatchSpec::of(Workload::EnumSeq, true);
        let opts = spec.options(DEFAULT_SEED);
        let first = batch::run_pass(&spec, &opts, None).expect("first pass");
        let second = batch::run_pass(&spec, &opts, None).expect("second pass");
        assert_eq!(first.digest, second.digest);
        assert!(first.outputs.iter().all(Result::is_ok));
        let other =
            batch::run_pass(&spec, &spec.options(DEFAULT_SEED + 1), None).expect("other seed");
        assert_ne!(first.digest, other.digest, "the seed generates the inputs");
    }
}
