//! The serve-chaos harness (DESIGN §13): adversarial self-test
//! profiles behind `repro serve --selftest --chaos <profile>`.
//!
//! Each profile starts a real daemon, drives it with hostile clients
//! — overload bursts, slow-loris writers, malformed and oversized
//! requests, mid-refresh segment corruption and disk-full faults
//! through a [`Faulty`] disk — and emits a deterministic pass/fail
//! report: the daemon never panics, sheds with uniform `429`/`503`
//! bodies instead of hanging, keeps serving stale-but-valid data
//! through a tripped refresh breaker, and recovers once the fault
//! clears. Check outcomes are booleans over bounded polls, so the
//! report JSON for a given profile and seed is byte-identical across
//! runs.

use crate::breaker::BreakerOptions;
use crate::fleet::{chaos_burst, fetch, raw_request, LorisSquad};
use crate::server::{RunningServer, ServeOptions};
use scanstore::sink::{ObservationSink, SnapshotSink};
use scanstore::{CampaignStore, FaultSpec, Faulty, Observation};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use telemetry::json;

/// The profiles `--chaos` accepts.
pub const PROFILES: [&str; 3] = ["overload", "malformed", "corruption"];

/// Chaos-run configuration.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Store to serve (the corruption profile works on a scratch
    /// copy; the store itself is never touched).
    pub store: PathBuf,
    /// Which profile to run.
    pub profile: String,
    /// Seed for the burst clients.
    pub seed: u64,
}

/// One named check inside a profile.
#[derive(Debug, Clone)]
pub struct ChaosCheck {
    pub name: &'static str,
    pub pass: bool,
    /// Human detail for the stderr report; not part of the
    /// deterministic JSON.
    pub detail: String,
}

/// A profile's outcome.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub profile: String,
    pub seed: u64,
    pub checks: Vec<ChaosCheck>,
}

impl ChaosReport {
    /// Whether every check passed (an empty report is a failure).
    pub fn pass(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// The deterministic report line: profile, seed, and per-check
    /// booleans only — no timings, counts, or other run-variant data.
    pub fn deterministic_json(&self) -> String {
        json::to_string(|o| {
            o.field("chaos", &self.profile);
            o.field("seed", self.seed);
            o.field("pass", self.pass());
            o.array("checks", |a| {
                for c in &self.checks {
                    a.object(|o| {
                        o.field("check", c.name);
                        o.field("pass", c.pass);
                    });
                }
            });
        })
    }
}

/// Runs one chaos profile against `opts.store` and reports.
pub fn run_chaos(opts: &ChaosOptions) -> io::Result<ChaosReport> {
    let checks = match opts.profile.as_str() {
        "overload" => overload_profile(&opts.store, opts.seed)?,
        "malformed" => malformed_profile(&opts.store)?,
        "corruption" => corruption_profile(&opts.store)?,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown chaos profile {other:?}; expected one of {PROFILES:?}"),
            ))
        }
    };
    Ok(ChaosReport {
        profile: opts.profile.clone(),
        seed: opts.seed,
        checks,
    })
}

// ---------------------------------------------------------------------------
// Shared plumbing.
// ---------------------------------------------------------------------------

fn check(name: &'static str, pass: bool, detail: impl Into<String>) -> ChaosCheck {
    ChaosCheck {
        name,
        pass,
        detail: detail.into(),
    }
}

/// Polls `f` every `step_ms` for up to `tries` rounds.
fn poll(tries: usize, step_ms: u64, mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..tries {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(step_ms));
    }
    f()
}

fn status_of(addr: SocketAddr, target: &str) -> u16 {
    fetch(addr, target).map(|(s, _)| s).unwrap_or(0)
}

fn body_of(addr: SocketAddr, target: &str) -> String {
    fetch(addr, target)
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default()
}

/// Whether `body` holds `"key":value` as the daemon writes it.
fn has(body: impl AsRef<[u8]>, key: &str, value: impl json::Encode) -> bool {
    let member = json::to_string(|o| o.field(key, value));
    String::from_utf8_lossy(body.as_ref()).contains(&member[1..member.len() - 1])
}

fn counter_value(key: &str) -> u64 {
    telemetry::snapshot().counter(key).unwrap_or(0)
}

fn counter_sum(prefix: &str) -> u64 {
    telemetry::snapshot().counter_sum(prefix)
}

// ---------------------------------------------------------------------------
// Profile: overload.
// ---------------------------------------------------------------------------

/// Overload: a tiny admission cap, a slow-loris squad pinning the
/// load signal above it, and a seeded burst. The daemon must shed
/// (429 with Retry-After) instead of hanging, keep the critical
/// endpoints answering, and recover once the squad hangs up.
fn overload_profile(store: &Path, seed: u64) -> io::Result<Vec<ChaosCheck>> {
    let opts = ServeOptions {
        store: store.to_path_buf(),
        admission: crate::admission::AdmissionOptions {
            max_inflight: 4,
            deadline_ms: 500,
        },
        // Loris connections must outlive the whole profile.
        conn_timeout_ms: 10_000,
        refresh_ms: 0,
        cache_cap: 64,
        slo: Some(telemetry::SloSpec::parse("p99=250ms,err=20%").map_err(io::Error::other)?),
        ..ServeOptions::default()
    };
    let shed_before = counter_sum("serve.shed");
    let server = RunningServer::start(&opts)?;
    let addr = server.addr();
    let mut checks = Vec::new();

    let baseline =
        status_of(addr, "/healthz") == 200 && status_of(addr, "/classify?ip=0.0.0.1") == 200;
    checks.push(check(
        "baseline_ok",
        baseline,
        "healthz + classify answer 200",
    ));

    let squad = LorisSquad::hold(addr, 12)?;
    let held = poll(1000, 5, || {
        telemetry::snapshot()
            .gauge("serve.inflight")
            .is_some_and(|g| g >= 12.0)
    });
    checks.push(check(
        "loris_held",
        held && squad.len() == 12,
        "12 stalled connections pin serve.inflight at or above the cap",
    ));

    let mut expensive_shed = true;
    let mut saw_retry_after = false;
    for _ in 0..8 {
        match fetch(addr, "/amplifiers?country=ZZ") {
            Ok((429, body)) => {
                saw_retry_after |= String::from_utf8_lossy(&body).contains("Retry-After:");
            }
            _ => expensive_shed = false,
        }
    }
    checks.push(check(
        "expensive_shed",
        expensive_shed && saw_retry_after,
        "expensive endpoints shed immediately with 429 + Retry-After",
    ));

    let normal_shed = (0..3).all(|_| status_of(addr, "/classify?ip=0.0.0.1") == 429);
    checks.push(check(
        "normal_queue_timeout",
        normal_shed,
        "normal queries queue, then shed 429 when the wait deadline passes",
    ));

    let critical = status_of(addr, "/healthz") == 200 && status_of(addr, "/metrics") == 200;
    checks.push(check(
        "critical_bypass",
        critical,
        "healthz and metrics bypass admission under full load",
    ));

    squad.release();
    let recovered = poll(1000, 5, || status_of(addr, "/classify?ip=0.0.0.1") == 200);
    checks.push(check(
        "recovery",
        recovered,
        "normal queries admitted again after the squad hangs up",
    ));

    let tally = chaos_burst(addr, seed, 8, 20);
    checks.push(check(
        "burst_answered",
        tally.sent == 160 && tally.transport_errors == 0 && tally.other == 0 && tally.ok >= 1,
        format!("burst tally: {tally:?} (every request answered 200/429/503)"),
    ));

    checks.push(check(
        "slo_ok",
        has(body_of(addr, "/slo"), "state", "ok"),
        "sheds are 4xx, so the error-budget burn stays ok",
    ));
    checks.push(check(
        "shed_counters",
        counter_sum("serve.shed") > shed_before,
        "serve.shed{reason=} ticked",
    ));

    let summary = server.stop()?;
    checks.push(check(
        "clean_shutdown",
        summary.requests > 0,
        "daemon drained and reported its request count",
    ));
    Ok(checks)
}

// ---------------------------------------------------------------------------
// Profile: malformed.
// ---------------------------------------------------------------------------

/// Malformed: garbage request lines, non-GET methods, invalid UTF-8,
/// and oversized heads. Every one must get a uniform JSON error with
/// the right status — never a dropped connection or a panic.
fn malformed_profile(store: &Path) -> io::Result<Vec<ChaosCheck>> {
    let opts = ServeOptions {
        store: store.to_path_buf(),
        refresh_ms: 0,
        ..ServeOptions::default()
    };
    let oversized_before = counter_value("serve.shed{reason=oversized}");
    let server = RunningServer::start(&opts)?;
    let addr = server.addr();
    let mut checks = Vec::new();

    checks.push(check(
        "baseline_ok",
        status_of(addr, "/healthz") == 200,
        "healthz answers 200",
    ));

    let (garbage_status, garbage_body) = raw_request(addr, b"GARBAGE\r\n\r\n")?;
    checks.push(check(
        "garbage_line_400",
        garbage_status == 400 && has(&garbage_body, "status", 400u16),
        "a garbage request line answers a uniform 400 body",
    ));

    let (post_status, _) = raw_request(addr, b"POST /classify HTTP/1.1\r\n\r\n")?;
    checks.push(check("post_405", post_status == 405, "POST answers 405"));

    let (utf8_status, utf8_body) = raw_request(addr, b"GET /\xff\xff HTTP/1.1\r\n\r\n")?;
    checks.push(check(
        "bad_utf8_400",
        utf8_status == 400 && has(&utf8_body, "status", 400u16),
        "a non-UTF-8 head answers a uniform 400 body",
    ));

    let mut oversized = Vec::with_capacity(10 * 1024 + 32);
    oversized.extend_from_slice(b"GET /classify?ip=0.0.0.1 HTTP/1.1\r\nX-Pad: ");
    oversized.resize(10 * 1024, b'a');
    oversized.extend_from_slice(b"\r\n\r\n");
    let (big_status, big_body) = raw_request(addr, &oversized)?;
    checks.push(check(
        "oversized_431",
        big_status == 431
            && has(&big_body, "status", 431u16)
            && counter_value("serve.shed{reason=oversized}") > oversized_before,
        "an oversized head answers 431 and ticks serve.shed{reason=oversized}",
    ));

    checks.push(check(
        "unknown_path_404",
        status_of(addr, "/nope") == 404 && has(body_of(addr, "/nope"), "status", 404u16),
        "unknown paths answer a uniform 404 body",
    ));
    checks.push(check(
        "debug_limit_clamped",
        status_of(addr, "/debug/requests?limit=999999") == 200,
        "an absurd debug limit is clamped, not honored",
    ));
    checks.push(check(
        "still_serving",
        status_of(addr, "/classify?ip=0.0.0.1") == 200,
        "real queries still answer 200 after the abuse",
    ));

    let summary = server.stop()?;
    checks.push(check(
        "clean_shutdown",
        summary.requests > 0,
        "daemon drained and reported its request count",
    ));
    Ok(checks)
}

// ---------------------------------------------------------------------------
// Profile: corruption.
// ---------------------------------------------------------------------------

/// Copies `src` into `dst` recursively (store trees are two levels).
fn copy_tree(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Commits one fresh observation so the daemon's refresh has
/// something new to pick up.
fn commit_ip(store: &mut CampaignStore, label: &str, ip: u32, t_ms: u64) -> io::Result<()> {
    store.observe(Observation::at(ip, 0, t_ms));
    store.commit(label, t_ms, &[])?;
    Ok(())
}

fn found(addr: SocketAddr, ip: u32) -> bool {
    has(
        body_of(addr, &format!("/classify?ip=0.0.0.{ip}")),
        "found",
        true,
    )
}

/// Corruption: refresh faults trip the breaker (daemon serves the
/// last good generation, reports degraded, recovers); a torn tail
/// rolls the view back; scrub flags the damage; a disk-full writer
/// fails cleanly without touching the serving path. Works on a
/// scratch copy so the caller's store is never mutated.
fn corruption_profile(store: &Path) -> io::Result<Vec<ChaosCheck>> {
    let scratch = std::env::temp_dir().join(format!("gw-chaos-{}-corruption", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(store, &scratch)?;
    let result = corruption_checks(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn corruption_checks(scratch: &Path) -> io::Result<Vec<ChaosCheck>> {
    // The writer and the daemon read and write through this one disk.
    let disk = Arc::new(Faulty::default());
    // The first campaign directory: the one a writer commits to.
    let Some((_, campaign)) = scanstore::campaign_dirs(&*disk, scratch)?
        .into_iter()
        .next()
    else {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} holds no campaign manifest", scratch.display()),
        ));
    };
    let opts = ServeOptions {
        store: scratch.to_path_buf(),
        disk: disk.clone(),
        refresh_ms: 25,
        breaker: BreakerOptions {
            max_backoff_ticks: 8,
        },
        ..ServeOptions::default()
    };
    let trips_before = counter_value("serve.breaker.trips");
    let recoveries_before = counter_value("serve.breaker.recoveries");
    let rollbacks_before = counter_value("scanstore.view.rollbacks");
    let server = RunningServer::start(&opts)?;
    let addr = server.addr();
    let mut checks = Vec::new();

    checks.push(check(
        "baseline_ok",
        status_of(addr, "/healthz") == 200 && !body_of(addr, "/healthz").contains("degraded"),
        "healthz answers 200, not degraded",
    ));

    let mut writer = CampaignStore::open_on(disk.clone(), &campaign)?;
    commit_ip(&mut writer, "chaos-a", 101, 9_000_001)?;
    checks.push(check(
        "refresh_live",
        poll(400, 5, || found(addr, 101)),
        "a fresh commit becomes visible through background refresh",
    ));

    // Break every manifest read: refresh now fails each tick until the
    // breaker trips.
    disk.arm(&FaultSpec {
        manifest_read_errors: 1_000_000,
        ..FaultSpec::default()
    });
    checks.push(check(
        "breaker_trips",
        poll(400, 5, || has(body_of(addr, "/healthz"), "degraded", true)),
        "consecutive refresh failures trip the breaker; healthz reports degraded",
    ));
    checks.push(check(
        "stale_served",
        status_of(addr, "/healthz") == 200 && found(addr, 101),
        "the last good generation keeps serving through the tripped breaker",
    ));
    let slo = body_of(addr, "/slo");
    checks.push(check(
        "slo_reports_breaker",
        has(&slo, "breaker", "open") || has(&slo, "breaker", "half_open"),
        "the /slo refresh block shows the breaker non-closed",
    ));
    disk.arm(&FaultSpec::default());
    checks.push(check(
        "breaker_recovers",
        poll(400, 5, || !body_of(addr, "/healthz").contains("degraded")),
        "a half-open probe succeeds once the fault clears",
    ));
    checks.push(check(
        "breaker_counters",
        counter_value("serve.breaker.trips") > trips_before
            && counter_value("serve.breaker.recoveries") > recoveries_before,
        "serve.breaker.{trips,recoveries} ticked",
    ));

    commit_ip(&mut writer, "chaos-b", 102, 9_000_002)?;
    checks.push(check(
        "refresh_after_recovery",
        poll(400, 5, || found(addr, 102)),
        "refresh picks up new commits again after recovery",
    ));

    // Corrupt the next commit's tail: the view must roll back to the
    // committed prefix and keep serving it. The fault is armed before
    // the commit so the daemon cannot decode the segment in the window
    // before the on-disk truncation below lands.
    disk.arm(&FaultSpec {
        segment_corruptions: 1_000_000,
        ..FaultSpec::default()
    });
    commit_ip(&mut writer, "chaos-c", 103, 9_000_003)?;
    let rolled = poll(400, 5, || {
        counter_value("scanstore.view.rollbacks") > rollbacks_before
    });
    let newest = newest_segment(&campaign)?;
    let len = std::fs::metadata(&newest)?.len();
    truncate_file(&newest, len / 2)?;
    checks.push(check(
        "rollback_ticks",
        rolled,
        "a torn tail rolls the view back and ticks scanstore.view.rollbacks",
    ));
    disk.arm(&FaultSpec::default());
    checks.push(check(
        "stale_prefix_served",
        found(addr, 102) && !found(addr, 103),
        "the committed prefix keeps serving; the torn commit never appears",
    ));
    let scrub = body_of(addr, "/admin/scrub");
    checks.push(check(
        "scrub_detects",
        has(&scrub, "healthy", false) && scrub.contains("size_mismatch"),
        "/admin/scrub flags the truncated segment",
    ));

    // Disk full: the writer's commit fails cleanly and the serving
    // path never notices.
    disk.arm(&FaultSpec {
        write_enospc: 1_000_000,
        ..FaultSpec::default()
    });
    let err = commit_ip(&mut writer, "chaos-d", 104, 9_000_004);
    checks.push(check(
        "diskfull_graceful",
        err.is_err()
            && err.unwrap_err().to_string().contains("injected fault")
            && status_of(addr, "/healthz") == 200,
        "a disk-full commit errors out without breaking the daemon",
    ));

    let summary = server.stop()?;
    checks.push(check(
        "clean_shutdown",
        summary.requests > 0,
        "daemon drained and reported its request count",
    ));
    Ok(checks)
}

/// The newest `seg-*.gws` file in a campaign directory.
fn newest_segment(dir: &Path) -> io::Result<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".gws"))
        })
        .collect();
    segs.sort();
    segs.into_iter().next_back().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} holds no segments", dir.display()),
        )
    })
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}
