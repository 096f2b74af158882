//! `repro serve` — long-running query service over a campaign store,
//! its deterministic selftest fleet, and the chaos profiles.

use crate::cli::{usage_error, Parsed};
use serve::{run_fleet, ServeOptions};
use std::path::PathBuf;

/// The daemon options: a flag that is absent leaves the daemon's own
/// default in place.
fn read_options(p: &Parsed) -> ServeOptions {
    let Some(store) = p.get("--store") else {
        usage_error(
            "serve requires --store <dir> (a campaign store from `repro --exp … --store <dir>`)",
        );
    };
    let d = ServeOptions::default();
    ServeOptions {
        store: PathBuf::from(store),
        addr: p.string("--addr").unwrap_or(d.addr),
        cache_cap: p.num("--cache-cap").unwrap_or(d.cache_cap),
        refresh_ms: p.num("--refresh-ms").unwrap_or(d.refresh_ms),
        metrics: p.get("--metrics").map(PathBuf::from),
        obs: serve::ObsOptions {
            trace_sample: p.num("--trace-sample").unwrap_or(d.obs.trace_sample),
            debug_requests: p.num("--debug-requests").unwrap_or(d.obs.debug_requests),
            slow_us: p
                .num::<u64>("--slow-ms")
                .map_or(d.obs.slow_us, |ms| ms.saturating_mul(1_000)),
            slo: p.get("--slo").map(|spec| {
                telemetry::SloSpec::parse(spec)
                    .unwrap_or_else(|e| usage_error(&format!("--slo: {e}")))
            }),
        },
        admission: serve::AdmissionOptions {
            max_inflight: p.num("--max-inflight").unwrap_or(d.admission.max_inflight),
            max_queue: p.num("--max-queue").unwrap_or(d.admission.max_queue),
            queue_wait_ms: p
                .num("--queue-wait-ms")
                .unwrap_or(d.admission.queue_wait_ms),
            deadline_ms: p.num("--deadline-ms").unwrap_or(d.admission.deadline_ms),
        },
        ..d
    }
}

pub fn main(p: &Parsed) -> Result<(), String> {
    let opts = read_options(p);
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
        store: opts.store.clone(),
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
        let report = serve::run_chaos(&serve::ChaosOptions {
            store: opts.store.clone(),
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
