//! `repro serve` — long-running query service over a campaign store,
//! its deterministic selftest fleet, and the chaos profiles.

use crate::cli::{usage_error, Parsed};
use serve::{run_fleet, ServeOptions};
use std::path::PathBuf;

/// Flags only a daemon this process starts reads: `--chaos` (whose
/// profiles start daemons of their own) and `--fleet` reject them.
const DAEMON_FLAGS: [&str; 7] = [
    "--addr",
    "--refresh-ms",
    "--metrics",
    "--slo",
    "--trace",
    "--max-inflight",
    "--deadline-ms",
];

/// Flags only the seeded fleet reads (chaos reads `--seed` too): a
/// plain daemon rejects them.
const FLEET_FLAGS: [&str; 3] = ["--seed", "--clients", "--requests"];

/// A usage error naming the first of `flags` given, which `mode`
/// would ignore.
fn reject(p: &Parsed, flags: &[&str], mode: &str) {
    if let Some(flag) = flags.iter().find(|f| p.has(f)) {
        usage_error(&format!("{flag} has no effect {mode}"));
    }
}

/// The daemon options: a flag that is absent leaves the daemon's own
/// default in place.
fn read_options(p: &Parsed, store: PathBuf) -> ServeOptions {
    let d = ServeOptions::default();
    ServeOptions {
        store,
        addr: p.string("--addr").unwrap_or(d.addr),
        refresh_ms: p.num("--refresh-ms").unwrap_or(d.refresh_ms),
        metrics: p.get("--metrics").map(PathBuf::from),
        slo: p.get("--slo").map(|spec| {
            telemetry::SloSpec::parse(spec).unwrap_or_else(|e| usage_error(&format!("--slo: {e}")))
        }),
        admission: serve::AdmissionOptions {
            max_inflight: p.num("--max-inflight").unwrap_or(d.admission.max_inflight),
            deadline_ms: p.num("--deadline-ms").unwrap_or(d.admission.deadline_ms),
        },
        ..d
    }
}

pub fn main(p: &Parsed) -> Result<(), String> {
    let Some(store) = p.get("--store").map(PathBuf::from) else {
        usage_error(
            "serve requires --store <dir> (a campaign store from `repro --exp … --store <dir>`)",
        );
    };
    let selftest = p.has("--selftest");
    let fleet_addr = p.get("--fleet");
    let trace = p.get("--trace");
    let seed = p.num("--seed").unwrap_or(2015_1028);
    let (clients, requests) = (
        p.num("--clients").unwrap_or(4),
        p.num("--requests").unwrap_or(100),
    );
    if (selftest || fleet_addr.is_some()) && (clients == 0 || requests == 0) {
        usage_error("--selftest/--fleet need at least 1 client and 1 request");
    }
    let fleet = |addr| serve::FleetOptions {
        addr,
        store: store.clone(),
        seed,
        clients,
        requests,
    };
    if let Some(profile) = p.get("--chaos") {
        // Adversarial self-test: start a real daemon, attack it with
        // the profile's hostile clients, and report pass/fail
        // deterministically — stdout carries exactly one JSON line of
        // booleans which two same-seed runs reproduce byte-for-byte;
        // per-check details go to stderr.
        if !selftest {
            usage_error("--chaos requires --selftest (profiles start their own daemon)");
        }
        reject(p, &DAEMON_FLAGS, "with --chaos");
        reject(p, &["--clients", "--requests"], "with --chaos");
        let report = serve::run_chaos(&serve::ChaosOptions {
            store,
            profile: profile.to_string(),
            seed,
        })
        .map_err(|e| format!("chaos profile failed: {e}"))?;
        for c in &report.checks {
            let verdict = if c.pass { "PASS" } else { "FAIL" };
            eprintln!(
                "repro serve: chaos {profile}: {verdict} {} — {}",
                c.name, c.detail
            );
        }
        println!("{}", report.deterministic_json());
        if !report.pass() {
            std::process::exit(1);
        }
        return Ok(());
    }
    if let Some(addr) = fleet_addr {
        // Traffic generator only: replay the seeded fleet against a
        // daemon that is already running (e.g. the one `ci/check.sh` starts).
        reject(p, &DAEMON_FLAGS, "with --fleet");
        reject(p, &["--selftest"], "with --fleet");
        let addr: std::net::SocketAddr = addr
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("--fleet expects host:port, got `{addr}`")));
        let report = run_fleet(&fleet(addr)).map_err(|e| format!("fleet failed: {e}"))?;
        println!("{}", report.deterministic_json());
        if report.errors > 0 {
            return Err(format!("fleet saw {} errors", report.errors));
        }
        return Ok(());
    }
    if !selftest {
        reject(p, &FLEET_FLAGS, "without --selftest or --fleet");
    }
    let opts = read_options(p, store.clone());
    if let Some(path) = trace {
        // The daemon's request traces, as a followable JSON-lines
        // stream (`repro tail --file`).
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| usage_error(&format!("--trace path {path}: {e}")));
        telemetry::attach_trace(Box::new(std::io::BufWriter::new(file)));
    }
    if selftest {
        // Start the daemon in-process, replay the seeded fleet against
        // it, and report deterministically: stdout carries exactly one
        // JSON line which two same-seed runs must reproduce
        // byte-for-byte; timing-dependent numbers go to stderr.
        let server =
            serve::RunningServer::start(&opts).map_err(|e| format!("cannot start daemon: {e}"))?;
        let report = run_fleet(&fleet(server.addr())).map_err(|e| format!("fleet failed: {e}"))?;
        let summary = server
            .stop()
            .map_err(|e| format!("daemon shutdown failed: {e}"))?;
        if trace.is_some() {
            // Flush the buffered trace file before reporting.
            let _ = telemetry::detach_trace();
        }
        println!("{}", report.deterministic_json());
        eprintln!(
            "repro serve: selftest {} requests in {} ms ({} qps), {} served, {} refreshes",
            report.requests,
            report.wall_ms,
            (report.requests * 1000)
                .checked_div(report.wall_ms)
                .unwrap_or(0),
            summary.requests,
            summary.refreshes,
        );
        // Where each request's wall-clock went, from the same spans
        // that feed `serve.latency_us` and the `span.*` counters.
        eprint!(
            "repro serve: request layers (wall-clock)\n{}",
            summary.layers.render()
        );
        if report.errors > 0 {
            return Err(format!("selftest saw {} errors", report.errors));
        }
        return Ok(());
    }
    serve::signal::install();
    let result = serve::server::run(&opts);
    if trace.is_some() {
        let _ = telemetry::detach_trace();
    }
    let summary = result.map_err(|e| e.to_string())?;
    eprintln!(
        "repro serve: drained, {} requests served, {} engine refreshes",
        summary.requests, summary.refreshes
    );
    Ok(())
}
