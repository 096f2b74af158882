//! The serve workloads: `serve_hot` and `serve_cold`.
//!
//! Set-up collects a campaign store to disk and starts the query daemon
//! in this process on a loopback port. After a short warm-up the run has
//! two phases of equal length: **A**, a closed loop of two clients (each
//! sends its next request when the previous answer is complete — the
//! callers `serve::run_fleet` models), which gives the throughput; and
//! **B**, an open loop at a fixed rate (independent consumers), where
//! every request is timed from the instant it was *due*, so a stall is
//! charged to the requests queued behind it. Traffic crosses the host's
//! loopback interface, one connection per request, and the daemon shares
//! the machine's cores with the load generator.

use crate::common::{Delta, Scratch};
use crate::kernels::{self, family_of, FAMILIES};
use crate::metrics::Outcome;
use crate::trace::{Source, Tracer};
use crate::{ledger, procfs, stats, Args, Workload};
use goingwild::{collect_bundle, BundleOptions, CampaignKind, WorldConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{QueryEngine, RunningServer, ServeOptions};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads of both phases: the host has two cores.
const CLIENTS: usize = 2;
/// Offered rate of the open loop, requests per second. About a third of
/// what the closed loop sustains on the reference host, so the queue
/// drains after a stall instead of growing for the rest of the phase.
const OPEN_RATE: f64 = 1_500.0;
/// Distinct targets of the hot set; the daemon's cache holds 256.
const HOT_SET: usize = 128;
/// One response in this many is compared byte for byte with the oracle.
const ORACLE_EVERY: usize = 64;
/// Times an untraced run sets up (collect the store, open it, start the
/// daemon): before the window, in it and after it, so that one slow spell
/// of the host (5–20 s) cannot cover them all. `setup_s` is the fastest,
/// the same fast-side estimate the slices get; the first one's daemon
/// serves the whole run. At least 2.
const SETUPS: usize = 3;
/// A request sent this long after it was due counts as late.
const LATE_NS: u64 = 1_000_000;

const KINDS: [CampaignKind; 5] = [
    CampaignKind::Weekly,
    CampaignKind::Fleet,
    CampaignKind::Chaos,
    CampaignKind::Banner,
    CampaignKind::Churn,
];

/// The store is the dataset and is the same for every seed (its world
/// is pinned like `repro_all`'s); `--seed` generates the traffic: which
/// targets are hot, and every client's request stream. A store per seed
/// would change the countries' sizes, and with them the cost of the
/// `/amplifiers` tenth of the mix, from run to run.
fn store_options(quick: bool) -> BundleOptions {
    let cfg = WorldConfig {
        seed: crate::batch::PINNED_WORLD_SEED,
        scale: if quick { 0.00008 } else { 0.0002 },
        weeks: if quick { 2 } else { 4 },
        ..WorldConfig::default()
    };
    BundleOptions::new(cfg)
}

/// Every distinct request the workload can send, by family, with the
/// request bytes prebuilt so the clients do no formatting while timed.
pub struct Targets {
    pub table: Vec<String>,
    requests: Vec<Vec<u8>>,
    /// Indices into `table` per family, in [`FAMILIES`] order.
    by_family: Vec<Vec<usize>>,
    /// The hot set (empty on the cold workload).
    hot: Vec<usize>,
}

impl Targets {
    /// All indexed IPs, ASNs, countries and campaigns of the store become
    /// targets; the hot set is 128 distinct ones drawn with the fleet mix.
    fn build(engine: &QueryEngine, seed: u64, hot: bool) -> Targets {
        let mut ips = Vec::new();
        let mut asns = Vec::new();
        let mut countries = Vec::new();
        let campaigns: Vec<String> = engine.campaigns().map(str::to_string).collect();
        for name in &campaigns {
            let Some(view) = engine.view(name) else {
                continue;
            };
            for e in view.index().entries() {
                ips.push(e.ip);
                let country = scanstore::SnapshotSource::string(view, e.latest.country);
                if !country.is_empty() {
                    countries.push(country.to_string());
                }
            }
            asns.extend(view.index().asns().filter(|&a| a != 0));
        }
        for list in [&mut ips, &mut asns] {
            list.sort_unstable();
            list.dedup();
        }
        countries.sort_unstable();
        countries.dedup();

        let mut table = Vec::new();
        let mut by_family = vec![Vec::new(); FAMILIES.len()];
        let mut add = |family: usize, target: String| {
            by_family[family].push(table.len());
            table.push(target);
        };
        for ip in &ips {
            add(0, format!("/classify?ip={}", std::net::Ipv4Addr::from(*ip)));
        }
        for asn in &asns {
            add(1, format!("/churn?asn={asn}"));
        }
        for country in &countries {
            for limit in [5, 10, 15, 20] {
                add(2, format!("/amplifiers?country={country}&limit={limit}"));
            }
        }
        for campaign in &campaigns {
            add(3, format!("/coverage?campaign={campaign}"));
        }
        add(4, "/campaigns".to_string());
        let requests = table
            .iter()
            .map(|t| {
                format!("GET {t} HTTP/1.1\r\nHost: gwbench\r\nConnection: close\r\n\r\n")
                    .into_bytes()
            })
            .collect();
        let mut targets = Targets {
            table,
            requests,
            by_family,
            hot: Vec::new(),
        };
        if hot {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x407);
            let mut set = std::collections::BTreeSet::new();
            let want = HOT_SET.min(targets.table.len());
            while set.len() < want {
                set.insert(targets.mix(&mut rng));
            }
            targets.hot = set.into_iter().collect();
        }
        targets
    }

    /// One draw of the fleet's 70/10/10/5/5 mix, uniform within a family.
    fn mix(&self, rng: &mut SmallRng) -> usize {
        let roll = rng.gen_range(0..100u32);
        let family = match roll {
            0..=69 => 0,
            70..=79 => 1,
            80..=89 => 2,
            90..=94 => 3,
            _ => 4,
        };
        // A family the store has no key for falls back to /campaigns.
        let list = if self.by_family[family].is_empty() {
            &self.by_family[4]
        } else {
            &self.by_family[family]
        };
        list[rng.gen_range(0..list.len())]
    }

    /// The next request of a client's stream.
    fn next(&self, rng: &mut SmallRng) -> usize {
        if self.hot.is_empty() {
            self.mix(rng)
        } else {
            self.hot[rng.gen_range(0..self.hot.len())]
        }
    }

    /// Targets a kernel should run over: what the workload requests.
    fn sample(&self, seed: u64, n: usize) -> Vec<String> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a);
        (0..n)
            .map(|_| self.table[self.next(&mut rng)].clone())
            .collect()
    }
}

/// One request as the client saw it. Times are ns since the phase began.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub target: usize,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_ns: u64,
    pub start_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    pub bytes: u32,
}

impl Sample {
    /// Latency as a consumer experiences it: from the due time.
    pub fn latency_ns(&self) -> u64 {
        if self.ok {
            self.done_ns.saturating_sub(self.due_ns)
        } else {
            // A failed request misses every latency limit.
            u64::MAX
        }
    }

    pub fn late_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }
}

/// The open loop's schedule: request `i` is due at `i × interval`. Workers
/// take the next undue-or-overdue request; nothing is ever skipped, so a
/// stalled worker makes later requests start late rather than vanish.
pub struct Schedule {
    interval_ns: u64,
    count: usize,
    next: AtomicUsize,
}

impl Schedule {
    pub fn new(rate_per_s: f64, duration: Duration) -> Schedule {
        let interval_ns = (1e9 / rate_per_s) as u64;
        Schedule {
            interval_ns,
            count: (duration.as_nanos() as u64 / interval_ns.max(1)) as usize,
            next: AtomicUsize::new(0),
        }
    }

    /// The next request's ordinal and due time, or `None` when done.
    pub fn take(&self) -> Option<(usize, u64)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.count).then(|| (i, i as u64 * self.interval_ns))
    }
}

/// Responses kept for the byte-for-byte oracle check.
type Kept = Vec<(usize, Vec<u8>)>;

fn fetch(addr: SocketAddr, request: &[u8], body: &mut Vec<u8>) -> io::Result<(u16, Instant)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    body.clear();
    let mut buf = [0u8; 4096];
    let n = stream.read(&mut buf)?;
    let first_byte = Instant::now();
    body.extend_from_slice(&buf[..n]);
    if n > 0 {
        stream.read_to_end(body)?;
    }
    Ok((serve::http::wire_status(body), first_byte))
}

/// One client thread's connection loop state.
struct Client<'a> {
    addr: SocketAddr,
    targets: &'a Targets,
    /// When the phase began; sample times count from here.
    epoch: Instant,
    samples: Vec<Sample>,
    kept: Kept,
    body: Vec<u8>,
}

impl<'a> Client<'a> {
    fn new(addr: SocketAddr, targets: &'a Targets, epoch: Instant) -> Client<'a> {
        Client {
            addr,
            targets,
            epoch,
            samples: Vec::new(),
            kept: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Sends request `target`, the phase's `ordinal`-th, due at `due_ns`,
    /// and records it.
    fn request(&mut self, target: usize, ordinal: usize, due_ns: u64) {
        let epoch = self.epoch;
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let start = Instant::now();
        let result = fetch(self.addr, &self.targets.requests[target], &mut self.body);
        let done = Instant::now();
        let ok = matches!(result, Ok((200, _)));
        if ok && ordinal.is_multiple_of(ORACLE_EVERY) {
            self.kept.push((target, self.body.clone()));
        }
        self.samples.push(Sample {
            target,
            due_ns,
            start_ns: ns(start),
            first_byte_ns: result.map_or(ns(done), |(_, t)| ns(t)),
            done_ns: ns(done),
            ok,
            bytes: self.body.len() as u32,
        });
    }

    fn finish(self) -> (Vec<Sample>, Kept) {
        (self.samples, self.kept)
    }
}

/// Closed loop: each client sends its next request when the previous
/// answer is complete, until `duration` has passed.
fn closed_loop(
    addr: SocketAddr,
    targets: &Targets,
    seed: u64,
    duration: Duration,
) -> (Vec<Sample>, Kept) {
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    let mut c = Client::new(addr, targets, epoch);
                    while epoch.elapsed() < duration {
                        let target = targets.next(&mut rng);
                        let now = epoch.elapsed().as_nanos() as u64;
                        c.request(target, c.samples.len(), now);
                    }
                    c.finish()
                })
            })
            .collect();
        merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        )
    })
}

/// Open loop: requests fall due at a fixed rate whatever the daemon does;
/// at most [`CLIENTS`] are in flight.
fn open_loop(
    addr: SocketAddr,
    targets: &Targets,
    seed: u64,
    duration: Duration,
) -> (Vec<Sample>, Kept) {
    let schedule = Schedule::new(OPEN_RATE, duration);
    // The request stream is fixed before the phase, independent of which
    // worker ends up sending which request.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0be1);
    let stream: Vec<usize> = (0..schedule.count)
        .map(|_| targets.next(&mut rng))
        .collect();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::new(addr, targets, epoch);
                    while let Some((i, due_ns)) = schedule.take() {
                        wait_until(epoch + Duration::from_nanos(due_ns));
                        c.request(stream[i], i, due_ns);
                    }
                    c.finish()
                })
            })
            .collect();
        merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        )
    })
}

/// Yields until `t`. Not a sleep: a sleeping client lets its core go idle,
/// and how fast an idle virtual core wakes for the daemon's next accept is
/// the host's business, not the program's — in one bad quarter of an hour
/// identical runs' open-loop medians ranged 147–299 µs with clients that
/// slept and 182–260 µs with clients that yield. Not a spin either: a
/// yielding client hands the core to a daemon thread as soon as one is
/// runnable.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

fn merge(parts: impl Iterator<Item = (Vec<Sample>, Kept)>) -> (Vec<Sample>, Kept) {
    let mut samples = Vec::new();
    let mut kept = Vec::new();
    for (s, k) in parts {
        samples.extend(s);
        kept.extend(k);
    }
    (samples, kept)
}

/// Slices a phase is cut into; each is one repeated measurement.
const SLICES: usize = 10;

/// Rounds the untraced run alternates its two phases in: a chunk of A,
/// a chunk of B, and so on, each chunk `SLICES / ROUNDS` slices long. The
/// host's slow spells last 5–20 s, so two contiguous halves would put
/// one phase inside a spell and the other outside it; alternating lets
/// both phases see the whole window.
const ROUNDS: usize = 5;
const _: () = assert!(SLICES % ROUNDS == 0, "a chunk is a whole number of slices");

/// Phases A and B of `phase` each, in [`ROUNDS`] alternating chunks. A
/// chunk's sample times are moved to where the chunk would lie in an
/// unbroken phase, so the slices are cut as if the phase were contiguous.
/// `after_round` runs between rounds, while no request is in flight.
fn alternating_phases(
    addr: SocketAddr,
    targets: &Targets,
    seed: u64,
    phase: Duration,
    mut after_round: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<[(Vec<Sample>, Kept); 2]> {
    let chunk = phase / ROUNDS as u32;
    let moved = |(mut samples, kept): (Vec<Sample>, Kept), round: usize| {
        let by = (chunk * round as u32).as_nanos() as u64;
        for s in &mut samples {
            s.due_ns += by;
            s.start_ns += by;
            s.first_byte_ns += by;
            s.done_ns += by;
        }
        (samples, kept)
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let seed = seed.wrapping_add((round as u64) << 32);
        a.push(moved(closed_loop(addr, targets, seed, chunk), round));
        b.push(moved(open_loop(addr, targets, seed, chunk), round));
        after_round(round)?;
    }
    Ok([merge(a.into_iter()), merge(b.into_iter())])
}

/// Successful responses per second in each of the phase's slices.
fn slice_rates(samples: &[Sample], duration: Duration) -> Vec<f64> {
    let slice_ns = (duration.as_nanos() as u64 / SLICES as u64).max(1);
    let mut counts = [0u64; SLICES];
    for s in samples.iter().filter(|s| s.ok) {
        if let Some(c) = counts.get_mut((s.done_ns / slice_ns) as usize) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / slice_ns as f64)
        .collect()
}

/// Nearest-rank percentile `p` of the latencies (µs, from the due time)
/// of the requests due in each slice. A failed request counts with an
/// unbounded latency. Slices nothing fell due in are left out.
fn slice_latency_us(samples: &[Sample], duration: Duration, p: f64) -> Vec<f64> {
    let slice_ns = (duration.as_nanos() as u64 / SLICES as u64).max(1);
    let mut slices = vec![Vec::new(); SLICES];
    for s in samples {
        if let Some(slice) = slices.get_mut((s.due_ns / slice_ns) as usize) {
            slice.push(s.latency_ns() as f64 / 1e3);
        }
    }
    slices
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            stats::percentile_sorted(&v, p)
        })
        .collect()
}

/// Throughput of the closed loop: the fast-side quartile of its slices.
fn closed_loop_rate(samples: &[Sample], duration: Duration) -> f64 {
    stats::fast_quartile(&slice_rates(samples, duration), true)
}

/// A running daemon plus everything set-up produced.
struct Rig {
    server: RunningServer,
    engine: QueryEngine,
    targets: Targets,
    collect_s: f64,
    view_open_ms: f64,
    store_bytes: u64,
    store_records: u64,
}

fn start_daemon(store: &Path) -> io::Result<RunningServer> {
    let server = RunningServer::start(&ServeOptions {
        store: store.to_path_buf(),
        refresh_ms: 0,
        ..ServeOptions::default()
    })?;
    let mut body = Vec::new();
    let (status, _) = fetch(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: gwbench\r\n\r\n",
        &mut body,
    )?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "daemon /healthz answered {status}"
        )));
    }
    Ok(server)
}

/// Collects the campaign store: what the hidden `--collect-store` mode
/// runs in a child process, so that the serve workloads' peak memory is
/// the daemon's and the load generator's, not the simulated Internet's.
/// Prints `collect_s records` for the parent.
pub fn collect_store(dir: &Path, quick: bool) -> io::Result<()> {
    let before = telemetry::snapshot();
    let t = Instant::now();
    drop(collect_bundle(&store_options(quick), &KINDS, Some(dir))?);
    let collect_s = t.elapsed().as_secs_f64();
    let delta = Delta::between(before, telemetry::snapshot());
    println!(
        "{collect_s} {}",
        delta.counter_sum("scanstore.records_committed")
    );
    Ok(())
}

/// Runs [`collect_store`] in a child process and waits for it.
fn collect_store_in_child(dir: &Path, args: &Args) -> io::Result<(f64, u64)> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.arg("--collect-store").arg(dir);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut fields = stdout.split_whitespace();
    let parsed = fields
        .next()
        .and_then(|s| s.parse().ok())
        .zip(fields.next().and_then(|r| r.parse().ok()));
    match parsed {
        Some(result) if output.status.success() => Ok(result),
        _ => Err(io::Error::other(format!(
            "store collection failed ({}): {stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ))),
    }
}

/// One whole set-up: collect the store (in a child), open it, build the
/// target table, start the daemon and see it answer.
fn set_up(store: &Path, args: &Args) -> io::Result<Rig> {
    let (collect_s, store_records) = collect_store_in_child(store, args)?;
    let t = Instant::now();
    let engine = QueryEngine::open(store)?;
    let view_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let targets = Targets::build(&engine, args.seed, args.workload == Workload::ServeHot);
    Ok(Rig {
        server: start_daemon(store)?,
        engine,
        targets,
        collect_s,
        view_open_ms,
        store_bytes: crate::common::dir_bytes(store)?,
        store_records,
    })
}

/// One timed [`set_up`] on a store of its own, the run's `n`-th.
fn timed_set_up(scratch: &Scratch, n: usize, args: &Args, times: &mut Vec<f64>) -> io::Result<Rig> {
    let t = Instant::now();
    let rig = set_up(&scratch.sub(&format!("store-{n}")), args)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(rig)
}

/// Counts a phase's requests into `out`, oracle check included.
fn account(rig: &Rig, phase: &str, samples: &[Sample], kept: &Kept, out: &mut Outcome) {
    let bad = samples.iter().filter(|s| !s.ok).count() as u64;
    let mismatched = kept
        .iter()
        .filter(|(target, wire)| rig.engine.handle(&rig.targets.table[*target]).to_wire() != *wire)
        .count() as u64;
    out.attempted += samples.len() as u64;
    out.failed += bad + mismatched;
    if bad + mismatched > 0 {
        out.failures.push(format!(
            "phase {phase}: {bad} of {} requests not 200, {mismatched} of {} sampled bodies differ from the oracle",
            samples.len(),
            kept.len()
        ));
    }
    out.note(
        &format!("phase_{phase}.requests"),
        format!("{} count", samples.len()),
    );
    out.note(
        &format!("phase_{phase}.oracle_checked"),
        format!("{} count", kept.len()),
    );
}

fn hit_rate(delta: &Delta) -> f64 {
    let hits = delta.counter_sum("serve.cache.hit");
    hits as f64 / (hits + delta.counter_sum("serve.cache.miss")).max(1) as f64
}

/// The workload is what it claims only if the cache behaves as designed.
fn assert_working_set(args: &Args, rate: f64, out: &mut Outcome) {
    // /campaigns and /coverage have a handful of keys and are a tenth of
    // the mix, so even the cold workload hits on those.
    let (ok, want) = match args.workload {
        Workload::ServeHot => (rate >= 0.95, ">= 0.95"),
        _ => (rate <= 0.20, "<= 0.20"),
    };
    out.op(ok, || {
        format!("serve.cache_hit_rate {rate:.3}, workload needs {want}")
    });
}

fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ns() as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The untraced run: reports the end-to-end metrics.
pub fn run(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let scratch = Scratch::new(args.workload.name())?;
    let mut setups = Vec::new();
    let rig = timed_set_up(&scratch, 0, args, &mut setups)?;
    let addr = rig.server.addr();
    let phase = Duration::from_secs_f64(args.seconds / 2.0);
    closed_loop(
        addr,
        &rig.targets,
        args.seed ^ 0x77,
        Duration::from_secs_f64((args.seconds / 20.0).max(0.2)),
    );

    // The daemon is at its steady state (cache full, every thread has
    // run); what the phases add from here is the load generator's own
    // sample buffers, which grow with the throughput they measure.
    let peak_rss_mb = procfs::peak_rss_mb();

    let before = telemetry::snapshot();
    let [(a, kept_a), (b, kept_b)] =
        alternating_phases(addr, &rig.targets, args.seed, phase, |round| {
            // The other set-ups: when an equal part of the rounds is done.
            if (1..SETUPS).any(|k| round + 1 == ROUNDS * k / (SETUPS - 1)) {
                let extra = timed_set_up(&scratch, setups.len(), args, &mut setups)?;
                RunningServer::stop(extra.server)?;
            }
            Ok(())
        })?;
    let delta = Delta::between(before, telemetry::snapshot());
    account(&rig, "a", &a, &kept_a, out);
    account(&rig, "b", &b, &kept_b, out);
    assert_working_set(args, hit_rate(&delta), out);

    let lat = latencies_us(&b);
    let qps = closed_loop_rate(&a, phase);
    let slice_p50 = slice_latency_us(&b, phase, 0.5);
    let p50 = stats::fast_quartile(&slice_p50, false);
    out.metrics
        .set("setup_s", stats::fast_quartile(&setups, false));
    out.metrics.set("work_per_s", qps);
    out.metrics.set("latency_us", p50);
    if let Some(mb) = peak_rss_mb {
        out.metrics.set("peak_rss_mb", mb);
    }
    if let Some(mb) = procfs::peak_rss_mb() {
        out.note("peak_rss_mb.with_samples", format!("{mb:.2} MB"));
    }
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note("setups_s", each.join(" "));
    out.note("qps", format!("{qps:.0} 1/s"));
    out.note(
        "qps.median_slice",
        format!("{:.0} 1/s", stats::median(&slice_rates(&a, phase))),
    );
    out.note("p50_us", format!("{p50:.1} us"));
    let join = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("slice_qps", join(&slice_rates(&a, phase)));
    out.note("slice_p50_us", join(&slice_p50));
    out.note(
        "p50_us.whole_phase",
        format!("{:.1} us", stats::percentile_sorted(&lat, 0.5)),
    );
    out.note(
        "p99_us.whole_phase",
        format!(
            "{:.1} us ({} samples, {} beyond)",
            stats::percentile_sorted(&lat, 0.99),
            lat.len(),
            stats::samples_beyond(lat.len(), 0.99)
        ),
    );
    out.note("open_rate", format!("{OPEN_RATE} 1/s"));
    out.note("open_late_ratio", format!("{:.4} ratio", late_ratio(&b)));
    out.note("cache_hit_rate", format!("{:.4} ratio", hit_rate(&delta)));
    out.note("store_collect_s", format!("{:.4} s", rig.collect_s));
    out.note("targets", format!("{} count", rig.targets.table.len()));
    RunningServer::stop(rig.server)?;
    Ok(())
}

fn late_ratio(samples: &[Sample]) -> f64 {
    samples.iter().filter(|s| s.late_ns() > LATE_NS).count() as f64 / samples.len().max(1) as f64
}

/// The traced run: per-request spans, kernels, counts, ledger.
pub fn run_traced(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let cpu0 = procfs::cpu_s().unwrap_or(0.0);
    let scratch = Scratch::new(args.workload.name())?;
    let rig = set_up(&scratch.sub("store"), args)?;
    let addr = rig.server.addr();
    let phase = Duration::from_secs_f64(args.seconds / 4.0);
    closed_loop(
        addr,
        &rig.targets,
        args.seed ^ 0x77,
        Duration::from_secs_f64((args.seconds / 20.0).max(0.2)),
    );

    let before = telemetry::snapshot();
    let (a, kept_a) = closed_loop(addr, &rig.targets, args.seed, phase);
    let mut tracer = Tracer::new();
    let phase_b = tracer.enter("serve", "phase_b");
    let (b, kept_b) = open_loop(addr, &rig.targets, args.seed, phase);
    tracer.exit(phase_b);
    let delta = Delta::between(before, telemetry::snapshot());
    account(&rig, "a", &a, &kept_a, out);
    account(&rig, "b", &b, &kept_b, out);
    let rate = hit_rate(&delta);
    assert_working_set(args, rate, out);

    // One trace per request: waiting for a free client, connect to first
    // byte (accept, parse, cache or engine, first write), and the rest.
    let base = tracer.spans()[phase_b as usize].start_ns;
    for (i, s) in b.iter().enumerate() {
        tracer.set_trace(i as u64 + 1);
        let request = tracer.record(
            Some(phase_b),
            "serve",
            &rig.targets.table[s.target],
            base + s.due_ns,
            base + s.done_ns,
            Source::Measured,
        );
        tracer.record(
            Some(request),
            "gwbench",
            "wait_for_client",
            base + s.due_ns,
            base + s.start_ns,
            Source::Measured,
        );
        tracer.record(
            Some(request),
            "serve",
            "connect_to_first_byte",
            base + s.start_ns,
            base + s.first_byte_ns,
            Source::Measured,
        );
        tracer.record(
            Some(request),
            "serve",
            "read_to_end",
            base + s.first_byte_ns,
            base + s.done_ns,
            Source::Measured,
        );
    }

    let kernel = kernels::serve(
        &rig.engine,
        &rig.targets.sample(args.seed, 2_048),
        args.kernel_budget(),
        out,
    );
    let lat = latencies_us(&b);
    let requests = (a.len() + b.len()).max(1) as f64;
    let bytes: u64 = a.iter().chain(&b).map(|s| u64::from(s.bytes)).sum();
    let mut to_first: Vec<f64> = b
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.first_byte_ns - s.start_ns) as f64 / 1e3)
        .collect();
    to_first.sort_by(f64::total_cmp);

    // What the daemon does in-process per request, from the kernels: every
    // request is parsed and probes the cache; a miss also runs the engine,
    // serializes, and inserts.
    let mix_handle_ns: f64 = FAMILIES
        .iter()
        .map(|f| {
            let share = b
                .iter()
                .filter(|s| family_of(&rig.targets.table[s.target]) == *f)
                .count() as f64
                / b.len().max(1) as f64;
            share
                * kernel
                    .handle_ns
                    .iter()
                    .find(|(name, _)| name == f)
                    .map_or(0.0, |&(_, ns)| ns)
        })
        .sum();
    let in_process_ns = kernel.parse_ns
        + kernel.cache_get_ns
        + (1.0 - rate) * (mix_handle_ns + kernel.to_wire_ns + kernel.cache_put_ns);

    let m = &mut out.metrics;
    m.set("serve.qps", closed_loop_rate(&a, phase));
    m.set("serve.p50_us", stats::percentile_sorted(&lat, 0.5));
    m.set("serve.p99_us", stats::percentile_sorted(&lat, 0.99));
    m.set(
        "serve.p99_quiet_us",
        stats::fast_quartile(&slice_latency_us(&b, phase, 0.99), false),
    );
    m.set("serve.p999_us", stats::percentile_sorted(&lat, 0.999));
    m.set("serve.open_late_ratio", late_ratio(&b));
    m.set("serve.cache_hit_rate", rate);
    m.set("serve.bytes_per_response", bytes as f64 / requests);
    m.set("serve.shed", delta.counter_sum("serve.shed") as f64);
    if !to_first.is_empty() {
        m.set(
            "serve.conn_us",
            stats::percentile_sorted(&to_first, 0.5) - in_process_ns / 1e3,
        );
    }
    m.set("scanstore.view_open_ms", rig.view_open_ms);
    m.set(
        "scanstore.bytes_per_record",
        rig.store_bytes as f64 / rig.store_records.max(1) as f64,
    );
    m.set("goingwild.collect_s", rig.collect_s);
    let t = Instant::now();
    std::hint::black_box(telemetry::snapshot());
    m.set("telemetry.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    m.set("proc.cpu_s", procfs::cpu_s().unwrap_or(0.0) - cpu0);
    // Nothing of the daemon is wrapped: the spans are client-side stamps.
    m.set("trace.overhead_pct", 0.0);

    let supported = stats::highest_supported_percentile(lat.len());
    out.note(
        "phase_b.highest_supported_percentile",
        format!("{supported:?}"),
    );
    let path = crate::common::work_root().join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write_jsonl(&path)?;
    out.note("span_file", path.display());
    ledger::print_serve(
        &b,
        &to_first,
        &kernel,
        mix_handle_ns,
        rate,
        in_process_ns,
        out,
    );
    RunningServer::stop(rig.server)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One worker, 10 ms between due times, the third request stalls for
    /// 35 ms: the requests queued behind it start late and their latency
    /// from the due time includes the wait, though each took 1 ms.
    #[test]
    fn open_loop_charges_a_stall_to_later_requests() {
        let schedule = Schedule::new(100.0, Duration::from_millis(60));
        let service_ms = [1u64, 1, 35, 1, 1, 1];
        let mut now = 0u64;
        let mut samples = Vec::new();
        while let Some((i, due_ns)) = schedule.take() {
            let start_ns = now.max(due_ns);
            let done_ns = start_ns + service_ms[i] * 1_000_000;
            now = done_ns;
            samples.push(Sample {
                target: 0,
                due_ns,
                start_ns,
                first_byte_ns: done_ns,
                done_ns,
                ok: true,
                bytes: 0,
            });
        }
        assert_eq!(samples.len(), 6);
        let ms = |ns: u64| ns / 1_000_000;
        let latency: Vec<u64> = samples.iter().map(|s| ms(s.latency_ns())).collect();
        // Due at 0,10,20,30,40,50; the stall holds the worker until 55.
        assert_eq!(latency, [1, 1, 35, 26, 17, 8]);
        let late: Vec<u64> = samples.iter().map(|s| ms(s.late_ns())).collect();
        assert_eq!(late, [0, 0, 0, 25, 16, 7]);
        assert!((late_ratio(&samples) - 0.5).abs() < 1e-9);
        // Timed from when they were sent, the stall would have vanished.
        assert!(samples
            .iter()
            .skip(3)
            .all(|s| ms(s.done_ns - s.start_ns) == 1));
        // A failed request misses every limit.
        let failed = Sample {
            ok: false,
            ..samples[0]
        };
        assert_eq!(failed.latency_ns(), u64::MAX);
    }

    #[test]
    fn closed_loop_rate_is_the_fast_quartile_of_slices() {
        // 10 slices of 100 ms; nine hold 10 completions, one holds none.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            if slice == 4 {
                continue;
            }
            for k in 0..10u64 {
                let done_ns = slice * 100_000_000 + k * 1_000_000;
                samples.push(Sample {
                    target: 0,
                    due_ns: 0,
                    start_ns: 0,
                    first_byte_ns: 0,
                    done_ns,
                    ok: true,
                    bytes: 0,
                });
            }
        }
        assert_eq!(closed_loop_rate(&samples, Duration::from_secs(1)), 100.0);
    }
}
