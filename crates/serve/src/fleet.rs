//! A deterministic synthetic client fleet.
//!
//! Replays a B-Root-shaped query mix against a running daemon: mostly
//! point lookups concentrated on a hot head of popular keys, with a
//! tail of aggregate queries (churn curves, amplifier rankings,
//! coverage). "Shape" here means composition and skew, not captured
//! traffic: ~70% classify, 10% churn, 10% amplifiers, 5% coverage,
//! 5% inventory, with hot-key concentration via a squared-uniform
//! index into the popularity ranking.
//!
//! Everything is seeded: client `i` derives its own [`SmallRng`] from
//! `seed`, targets come from the store itself (ranked by observed
//! stability), and each response folds into a per-client FNV-1a
//! digest. Client digests combine in client-index order, so the fleet
//! digest is independent of thread timing — two runs with the same
//! seed against the same store bytes must report the same digest.

use crate::engine::QueryEngine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telemetry::json;

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Daemon address to query.
    pub addr: SocketAddr,
    /// Store root, used to derive the target population (IPs ranked by
    /// stability, AS numbers, countries, campaign names).
    pub store: PathBuf,
    /// Master seed; same seed + same store = same requests and digest.
    pub seed: u64,
    /// Concurrent clients (std threads).
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
}

/// What the fleet observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetReport {
    /// Requests attempted across all clients.
    pub requests: u64,
    /// Transport failures plus non-200 responses.
    pub errors: u64,
    /// Total response bytes received.
    pub bytes: u64,
    /// Order-stable FNV-1a digest over every response.
    pub digest: u64,
    /// Wall-clock duration of the fleet run.
    pub wall_ms: u64,
}

impl FleetReport {
    /// The run's outcome without wall-clock fields: byte-identical
    /// across same-seed runs, so CI can diff it directly.
    pub fn deterministic_json(&self) -> String {
        json::to_string(|o| {
            o.field("requests", self.requests);
            o.field("errors", self.errors);
            o.field("bytes", self.bytes);
            o.field("digest", json::Text(format_args!("{:016x}", self.digest)));
        })
    }
}

/// The target population, derived once from the store.
#[derive(Debug, Clone)]
struct Plan {
    /// IPs ranked hottest-first (most rounds observed).
    ips: Vec<Ipv4Addr>,
    asns: Vec<u32>,
    countries: Vec<String>,
    campaigns: Vec<String>,
}

fn build_plan(store: &PathBuf) -> io::Result<Plan> {
    let engine = QueryEngine::open(store)?;
    let mut ranked: Vec<(u32, u32)> = Vec::new(); // (rounds, ip)
    let mut asns: Vec<u32> = Vec::new();
    let mut countries: Vec<String> = Vec::new();
    let mut campaigns: Vec<String> = Vec::new();
    for name in engine.campaigns().map(str::to_string).collect::<Vec<_>>() {
        // The names come from `engine.campaigns()`, so the lookup
        // cannot miss; skip defensively rather than panicking.
        let Some(view) = engine.view(&name) else {
            continue;
        };
        for e in view.index().entries() {
            ranked.push((e.rounds, e.ip));
            let country = scanstore::SnapshotSource::string(view, e.latest.country);
            if !country.is_empty() && !countries.iter().any(|c| c == country) {
                countries.push(country.to_string());
            }
        }
        for asn in view.index().asns() {
            if asn != 0 && !asns.contains(&asn) {
                asns.push(asn);
            }
        }
        campaigns.push(name);
    }
    // Hottest first; ties resolve by address for a total order.
    ranked.sort_by_key(|&(rounds, ip)| (std::cmp::Reverse(rounds), ip));
    ranked.dedup_by_key(|&mut (_, ip)| ip);
    ranked.truncate(512);
    asns.sort_unstable();
    asns.truncate(64);
    countries.sort_unstable();
    countries.truncate(32);
    Ok(Plan {
        ips: ranked.iter().map(|&(_, ip)| Ipv4Addr::from(ip)).collect(),
        asns,
        countries,
        campaigns,
    })
}

/// Picks a hot-skewed index: squaring a uniform draw concentrates mass
/// near 0, i.e. on the hottest keys.
fn hot_index(rng: &mut SmallRng, len: usize) -> usize {
    let u = rng.gen::<f64>();
    ((u * u * len as f64) as usize).min(len - 1)
}

/// One client's next request target.
fn next_target(rng: &mut SmallRng, plan: &Plan) -> String {
    let roll = rng.gen_range(0..100u32);
    if roll < 70 && !plan.ips.is_empty() {
        // 2% of lookups ask about addresses nobody has scanned, the
        // way a real consumer probes candidates.
        if rng.gen_bool(0.02) {
            let a = rng.gen_range(0..256u32);
            let b = rng.gen_range(0..256u32);
            return format!("/classify?ip=203.0.{a}.{b}");
        }
        let ip = plan.ips[hot_index(rng, plan.ips.len())];
        format!("/classify?ip={ip}")
    } else if roll < 80 && !plan.asns.is_empty() {
        let asn = plan.asns[hot_index(rng, plan.asns.len())];
        format!("/churn?asn={asn}")
    } else if roll < 90 && !plan.countries.is_empty() {
        let country = &plan.countries[hot_index(rng, plan.countries.len())];
        let limit = 5 + 5 * rng.gen_range(0..4u32);
        format!("/amplifiers?country={country}&limit={limit}")
    } else if roll < 95 && !plan.campaigns.is_empty() {
        let campaign = &plan.campaigns[rng.gen_range(0..plan.campaigns.len())];
        format!("/coverage?campaign={campaign}")
    } else {
        "/campaigns".to_string()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

struct ClientReport {
    requests: u64,
    errors: u64,
    bytes: u64,
    digest: u64,
}

/// Issues one blocking request; returns `(status, response bytes)`.
pub(crate) fn fetch(addr: SocketAddr, target: &str) -> io::Result<(u16, Vec<u8>)> {
    let head = format!("GET {target} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n");
    match raw_request(addr, head.as_bytes())? {
        (0, _) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad status line",
        )),
        answered => Ok(answered),
    }
}

fn run_client(addr: SocketAddr, plan: &Plan, seed: u64, requests: usize) -> ClientReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = ClientReport {
        requests: 0,
        errors: 0,
        bytes: 0,
        digest: FNV_OFFSET,
    };
    for _ in 0..requests {
        let target = next_target(&mut rng, plan);
        report.requests += 1;
        match fetch(addr, &target) {
            Ok((200, body)) => {
                report.bytes += body.len() as u64;
                report.digest = fnv_fold(report.digest, &body);
            }
            Ok((status, body)) => {
                report.errors += 1;
                report.bytes += body.len() as u64;
                eprintln!("fleet: {target} -> {status}");
            }
            Err(e) => {
                report.errors += 1;
                eprintln!("fleet: {target} -> {e}");
            }
        }
    }
    report
}

/// Runs the fleet to completion and folds per-client results in
/// client-index order.
pub fn run_fleet(opts: &FleetOptions) -> io::Result<FleetReport> {
    let plan = build_plan(&opts.store)?;
    if plan.ips.is_empty() && plan.campaigns.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "store has no committed observations to query",
        ));
    }
    let started = Instant::now();
    let mut handles = Vec::with_capacity(opts.clients);
    for client in 0..opts.clients {
        let plan = plan.clone();
        let addr = opts.addr;
        // Distinct, reproducible per-client stream.
        let seed = opts.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let requests = opts.requests;
        handles.push(std::thread::spawn(move || {
            run_client(addr, &plan, seed, requests)
        }));
    }
    let mut report = FleetReport {
        requests: 0,
        errors: 0,
        bytes: 0,
        digest: FNV_OFFSET,
        wall_ms: 0,
    };
    for handle in handles {
        let client = handle
            .join()
            .map_err(|_| io::Error::other("fleet client panicked"))?;
        report.requests += client.requests;
        report.errors += client.errors;
        report.bytes += client.bytes;
        report.digest = fnv_fold(report.digest, &client.digest.to_be_bytes());
    }
    report.wall_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Adversarial client modes (the serve-chaos harness, DESIGN §13).
// ---------------------------------------------------------------------------

/// A squad of slow-loris connections: each connects and writes only a
/// partial request head, pinning a live-connection slot until the
/// squad is dropped. Each one holds a daemon worker and counts in the
/// load signal: the deterministic way to hold it above the admission cap.
pub(crate) struct LorisSquad {
    streams: Vec<TcpStream>,
}

impl LorisSquad {
    /// Opens `count` connections, each stalled mid-head.
    pub(crate) fn hold(addr: SocketAddr, count: usize) -> io::Result<LorisSquad> {
        let mut streams = Vec::with_capacity(count);
        for _ in 0..count {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            // An incomplete request line: the daemon sits in read_head
            // until we hang up or its connection timeout fires.
            s.write_all(b"GET /classify?ip=")?;
            streams.push(s);
        }
        Ok(LorisSquad { streams })
    }

    /// How many connections the squad is holding.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    /// Hangs up every connection (dropping does the same).
    pub(crate) fn release(self) {}
}

/// Sends raw bytes as the request and returns `(status, response)`.
/// Status 0 means the daemon closed the connection without answering.
pub(crate) fn raw_request(addr: SocketAddr, head: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    stream.write_all(head)?;
    let mut response = Vec::with_capacity(1024);
    stream.read_to_end(&mut response)?;
    Ok((crate::http::wire_status(&response), response))
}

/// Status-class tally of a seeded overload burst.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BurstTally {
    pub(crate) sent: u64,
    pub(crate) ok: u64,
    pub(crate) shed: u64,
    pub(crate) deadline: u64,
    pub(crate) other: u64,
    pub(crate) transport_errors: u64,
}

/// Fires `clients` concurrent threads of `requests` seeded lookups
/// each (half point lookups, half expensive scans) and tallies the
/// status classes. The chaos harness asserts the daemon answered
/// everything with 200/429/503 — no hangs, no resets, no panics.
pub(crate) fn chaos_burst(
    addr: SocketAddr,
    seed: u64,
    clients: usize,
    requests: usize,
) -> BurstTally {
    let mut handles = Vec::with_capacity(clients);
    for client in 0..clients {
        let seed = seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tally = BurstTally::default();
            for _ in 0..requests {
                let target = if rng.gen_bool(0.5) {
                    format!("/classify?ip=0.0.0.{}", rng.gen_range(0..64u32))
                } else {
                    "/amplifiers?country=US".to_string()
                };
                tally.sent += 1;
                match fetch(addr, &target) {
                    Ok((200, _)) => tally.ok += 1,
                    Ok((429, _)) => tally.shed += 1,
                    Ok((503, _)) => tally.deadline += 1,
                    Ok(_) => tally.other += 1,
                    Err(_) => tally.transport_errors += 1,
                }
            }
            tally
        }));
    }
    let mut total = BurstTally::default();
    for handle in handles {
        let Ok(t) = handle.join() else {
            total.transport_errors += 1;
            continue;
        };
        total.sent += t.sent;
        total.ok += t.ok;
        total.shed += t.shed;
        total.deadline += t.deadline;
        total.other += t.other;
        total.transport_errors += t.transport_errors;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_streams_are_seed_deterministic() {
        let plan = Plan {
            ips: vec![Ipv4Addr::new(0, 0, 0, 10), Ipv4Addr::new(0, 0, 0, 20)],
            asns: vec![1, 2],
            countries: vec!["DE".into(), "US".into()],
            campaigns: vec!["weekly".into()],
        };
        let targets = |seed: u64| -> Vec<String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50).map(|_| next_target(&mut rng, &plan)).collect()
        };
        assert_eq!(targets(7), targets(7));
        assert_ne!(targets(7), targets(8));
        // The mix leans heavily on point lookups.
        let classify = targets(7)
            .iter()
            .filter(|t| t.starts_with("/classify"))
            .count();
        assert!(classify > 25, "{classify} classify targets out of 50");
    }

    #[test]
    fn digest_folding_is_order_stable() {
        let d1 = fnv_fold(FNV_OFFSET, b"hello");
        let d2 = fnv_fold(FNV_OFFSET, b"hello");
        assert_eq!(d1, d2);
        assert_ne!(fnv_fold(d1, b"a"), fnv_fold(d1, b"b"));
    }
}
