//! Graceful-shutdown integration test: spawn the real `repro serve`
//! daemon, hit it, send SIGTERM, and verify it drains and flushes the
//! final metrics snapshot before exiting cleanly.

#![cfg(unix)]

mod common;

use common::{seed_weekly, TempDir};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Starts `repro serve` over `store` and waits for the line announcing
/// its bound address (the daemon prints it once it is ready).
fn spawn_daemon(store: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--store", store.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut announce = String::new();
    stdout.read_line(&mut announce).unwrap();
    // Kept open: a daemon printing into a closed pipe would die of it.
    child.stdout = Some(stdout.into_inner());
    let addr = announce
        .trim_end()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {announce}"))
        .to_string();
    (child, addr)
}

fn classify(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET /classify?ip=0.0.0.1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// SIGTERM, then the daemon's stderr once it has exited 0.
fn terminate(mut child: Child) -> String {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");

    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = child.try_wait().unwrap() {
            break exit;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(exit.success(), "daemon exited non-zero: {exit:?}");

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    stderr
}

#[test]
fn sigterm_drains_and_flushes_metrics() {
    let tmp = TempDir::new("sigterm");
    seed_weekly(&tmp.0, &[64]);
    let metrics = tmp.0.join("serve-metrics.json");
    let (child, addr) = spawn_daemon(&tmp.0, &["--metrics", metrics.to_str().unwrap()]);

    // It answers queries while alive.
    let response = classify(&addr);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"found\":true"), "{response}");

    // SIGTERM → drain → metrics flush → clean exit.
    let stderr = terminate(child);
    assert!(
        stderr.contains("drained"),
        "no drain confirmation: {stderr}"
    );

    // The final snapshot was written and records the served request.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert!(snapshot.contains("serve.requests"), "{snapshot}");
    assert!(snapshot.contains("serve.shutdown.requests"), "{snapshot}");
}

/// An idle daemon waits in the kernel: its controller's 25 ms timer is
/// 40 wake-ups a second and idle workers block in `accept`, where a
/// 100 us nap between poll rounds was 4,900 (and 14 % of a core).
#[test]
#[cfg(target_os = "linux")]
fn idle_daemon_sleeps_and_still_drains() {
    let tmp = TempDir::new("idle");
    seed_weekly(&tmp.0, &[64]);
    let (child, addr) = spawn_daemon(&tmp.0, &[]);
    // `serve::run` answers on a controller thread and its workers while
    // the main thread waits for them: sum the counters of every thread.
    let voluntary_switches = || -> u64 {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", child.id())).unwrap();
        tasks
            .map(|task| {
                let status = std::fs::read_to_string(task.unwrap().path().join("status")).unwrap();
                let line = status
                    .lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
                line.unwrap().trim().parse::<u64>().unwrap()
            })
            .sum()
    };
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_secs(1));
    let idle = voluntary_switches() - before;
    assert!(idle < 500, "{idle} wake-ups in an idle second");

    let response = classify(&addr);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let stderr = terminate(child);
    assert!(stderr.contains("drained"), "{stderr}");
}

#[test]
fn serve_on_missing_store_fails_with_one_line_error() {
    let tmp = TempDir::new("missing");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--store", tmp.0.join("nope").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("repro serve:"), "{stderr}");

    // A good store on a taken port: the error names the address.
    seed_weekly(&tmp.0, &[64]);
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--store", tmp.0.to_str().unwrap(), "--addr", &addr])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains(&format!("cannot bind {addr}: ")),
        "{stderr}"
    );
}

#[test]
fn trace_rejects_truncated_streams_without_panicking() {
    let tmp = TempDir::new("trace-garbage");
    // Well-framed bodies holding only a huge string count: decoding
    // must not preallocate from it (1 << 40 aborted the allocator,
    // 1 << 62 overflowed the capacity). A frame is "GWRS", the body's
    // length (u32 LE), the body and its IEEE CRC-32 (u32 LE).
    let huge_count = |n: u64| {
        let mut body = Vec::new();
        scanstore::varint::put_u64(&mut body, n);
        let mut frame = b"GWRS".to_vec();
        frame.extend((body.len() as u32).to_le_bytes());
        frame.extend(&body);
        frame.extend(scanstore::crc32::crc32(&body).to_le_bytes());
        frame
    };
    let garbage = b"this is definitely not a GWRS recorder stream".to_vec();
    let inputs = [
        ("garbage", garbage),
        ("count-2^40", huge_count(1 << 40)),
        ("count-2^62", huge_count(1 << 62)),
    ];
    for (name, bytes) in inputs {
        let path = tmp.0.join(format!("{name}.gwrs"));
        std::fs::write(&path, bytes).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["trace", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{name}: expected exit 1");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("no decodable GWRS segments"),
            "{name}: missing one-line error: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: trace panicked: {stderr}"
        );
    }
}

#[test]
fn numeric_flag_garbage_is_a_usage_error_not_a_panic() {
    for args in [
        vec!["--weeks", "banana"],
        vec!["--seed", "not-a-number"],
        vec!["trace", "x.gwrs", "--limit", "many"],
        vec!["serve", "--store", "s", "--refresh-ms", "soon"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("expects a number"),
            "args {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
}

/// Each mode rejects the flags it would ignore, naming the flag:
/// `--chaos` profiles and the `--fleet` traffic generator start no
/// daemon of this process, and a plain daemon runs no fleet. A removed
/// flag is an unknown argument.
#[test]
fn flags_a_mode_ignores_are_usage_errors() {
    let daemon_only = [
        "--addr",
        "--refresh-ms",
        "--metrics",
        "--slo",
        "--trace",
        "--max-inflight",
        "--deadline-ms",
    ];
    let serve = |mode: &[&'static str], flag| {
        let mut argv = vec!["serve", "--store", "s"];
        argv.extend(mode);
        argv.extend([flag, "1"]);
        argv
    };
    let (chaos, fleet) = (
        ["--selftest", "--chaos", "overload"],
        ["--fleet", "127.0.0.1:1"],
    );
    let mut rows = Vec::new();
    for flag in daemon_only {
        rows.push((
            serve(&chaos, flag),
            format!("{flag} has no effect with --chaos"),
        ));
        rows.push((
            serve(&fleet, flag),
            format!("{flag} has no effect with --fleet"),
        ));
    }
    for flag in ["--clients", "--requests"] {
        rows.push((
            serve(&chaos, flag),
            format!("{flag} has no effect with --chaos"),
        ));
    }
    let selftest = vec![
        "serve",
        "--store",
        "s",
        "--fleet",
        "127.0.0.1:1",
        "--selftest",
    ];
    rows.push((selftest, "--selftest has no effect with --fleet".into()));
    for flag in ["--seed", "--clients", "--requests"] {
        let says = format!("{flag} has no effect without --selftest or --fleet");
        rows.push((serve(&[], flag), says));
    }
    for flag in ["--cache-cap", "--trace-sample", "--slow-ms", "--max-queue"] {
        rows.push((serve(&[], flag), format!("unknown serve argument {flag}")));
    }
    let tail = vec!["tail", "--interval-ms", "soon"];
    rows.push((tail, "unknown tail argument --interval-ms".into()));
    for (args, says) in rows {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains(&says), "args {args:?}: {stderr}");
    }
}

#[test]
fn out_of_range_flags_are_usage_errors() {
    for (flag, value) in [
        ("--scale", "inf"),
        ("--scale", "-1"),
        ("--scale", "0"),
        ("--scale", "nan"),
        ("--record-rate", "2"),
        ("--strict-coverage", "101"),
        ("--retries", "0"),
    ] {
        // A small run, in case a bad value ever slips through.
        let args = ["--exp", "tab1", "--weeks", "1", flag, value];
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains(flag), "args {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
}
