//! The sharded engine: the simulated Internet partitioned across cores.
//!
//! [`ShardedNet`] holds the fully built [`Network`] it was made from —
//! clock, event heap, sockets, route maps, filters, fault state, stats —
//! with the hosts moved out to N long-lived worker threads, each owning
//! the hosts of a slice of the allocated address regions. It runs the
//! one send pipeline `netsim::network` defines — evaluate (pure) →
//! commit (ordered) — with the two halves on different threads: workers
//! run hosts and call [`Evaluator::eval`] on what they send; the coordinator
//! pops and routes events ([`Network::route`]) and commits the returned
//! [`Emission`]s in sequential order ([`Network::commit`]). The
//! sequential engine is the same pipeline run inline, one datagram at a
//! time, so the result is **byte-identical** to it at any shard count —
//! the acceptance bar the equivalence tests and the `shard-smoke` CI job
//! enforce.
//!
//! # Why windows are safe (conservative lookahead)
//!
//! Every scheduled delivery travels at least `L = min(latency_lo,
//! min_injection_delay + 1)` milliseconds of sim time (clamped to 1).
//! Processing a window `[W0, W1)` with `W1 - W0 <= L` therefore cannot
//! spawn a delivery strictly *before* any event already popped from the
//! window: a spawn from an event at `τ ∈ [W0, W1)` lands at `τ + d >=
//! W0 + L - 1 >= W1 - 1`, and every already-popped event has a
//! timestamp `<= W1 - 1`. The only contact is *equality* at `W1 - 1`,
//! and equal-timestamp order is decided by `seq` — which the spawn only
//! receives when its parent's emissions are committed, i.e. strictly
//! after every event the sequential engine would have popped first.
//! Hence processing windows in bulk, in `(at, seq)` pop order, and
//! committing emissions in `(parent, emit)` order replays the exact
//! sequential schedule.
//!
//! # Why evaluating elsewhere cannot change outcomes
//!
//! Evaluation is pure: every per-packet decision is a function of the
//! packet and frozen views (`Arc<RouteMaps>`, `Arc<Vec<Filter>>`,
//! forked observer replicas, cache-only fault replicas), and never
//! touches shared counters, the recorder, `seq`, or the token buckets —
//! so *where* it runs cannot matter. Everything order-dependent happens
//! in commit, on the coordinator, in the order the sequential engine
//! would have sent.
//!
//! # Observability (DESIGN §15)
//!
//! The engine keeps deterministic per-shard accounting in
//! [`ShardStats`]: windows, stalls with attribution (which shard's
//! head event was clipped, and why — min-latency bound, injector
//! bound, or an emptying queue), a cross-shard traffic matrix, and
//! per-shard event/emission/busy-window counts, all pure functions of
//! the seeded workload. Wall-clock figures (worker busy time, the
//! coordinator's commit-barrier wait) travel only as `netsim.wall.*`
//! metrics counters — the same side-channel rule `reqtrace` follows —
//! so traces and reports stay byte-identical with instrumentation on
//! or off. Under `--profile`, a commit-phase profiler breaks the
//! serialized commit into wall-µs categories beneath the
//! `shard_commit` folded root, and the [`scaling`] module fits a
//! critical-path model that predicts multi-worker speedup from a
//! single-core run (`repro shardstat`).

use crate::engine::{NetEngine, RunReport, Sealed};
use crate::faults::{FaultPlan, FaultState, FaultStats};
use crate::host::{Host, HostCtx, TcpError, TcpRequest, TcpResponse};
use crate::network::{Emission, Evaluator, Network, RouteMaps};
use crate::packet::Datagram;
use crate::time::SimTime;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub mod scaling;

/// Batches below this size are evaluated inline on the coordinator —
/// the channel round-trip costs more than the pipeline itself.
const INLINE_BATCH: usize = 256;

/// One host delivery assigned to a shard, tagged with its global pop
/// order within the window.
struct DeliverItem {
    order: u64,
    at: SimTime,
    host: u32,
    dgram: Datagram,
}

/// Commands the coordinator sends to a shard worker.
enum Cmd {
    /// Deliver datagrams to this shard's hosts (in `order`) and return
    /// the speculative emissions of everything they send.
    Deliver {
        items: Vec<DeliverItem>,
        maps: Arc<RouteMaps>,
    },
    /// Evaluate a contiguous chunk of driver sends, all departing `at`.
    EvalSends {
        base: u64,
        at: SimTime,
        dgrams: Vec<Datagram>,
        maps: Arc<RouteMaps>,
    },
    /// Run a synchronous TCP request against one of this shard's hosts.
    Tcp {
        host: u32,
        now: SimTime,
        dst: Ipv4Addr,
        port: u16,
        req: TcpRequest,
    },
    /// Replace the fault replica (cold caches; purity makes that safe).
    SetFaults(Option<FaultPlan>),
}

enum Reply {
    Emissions(Vec<Emission>),
    Tcp(Option<TcpResponse>),
}

struct WorkerHandle {
    tx: Sender<Cmd>,
    rx: Receiver<Reply>,
    /// Wall time the worker spent processing commands (µs), written by
    /// the worker thread, read by the coordinator at telemetry flush.
    /// Side channel only — never feeds deterministic state.
    busy_wall_us: Arc<AtomicU64>,
    join: JoinHandle<()>,
}

/// Per-worker state: this shard's hosts (indexed by global `HostId`),
/// its replica of the evaluation state, and scratch.
struct WorkerState {
    ev: Evaluator,
    hosts: Vec<Option<Box<dyn Host>>>,
    scratch: Vec<(u64, Datagram)>,
}

/// Snapshot of every worker's busy wall time (µs).
fn busy_wall_us(workers: &[WorkerHandle]) -> Vec<u64> {
    workers
        .iter()
        .map(|w| w.busy_wall_us.load(Ordering::Relaxed))
        .collect()
}

fn worker_loop(rx: Receiver<Cmd>, tx: Sender<Reply>, mut st: WorkerState, busy: Arc<AtomicU64>) {
    while let Ok(cmd) = rx.recv() {
        let t0 = Instant::now();
        match cmd {
            Cmd::Deliver { items, maps } => {
                let mut emissions = Vec::new();
                for item in items {
                    st.scratch.clear();
                    let mut outgoing = std::mem::take(&mut st.scratch);
                    {
                        let mut ctx = HostCtx::new(item.at, item.dgram.dst_ip, &mut outgoing);
                        st.hosts[item.host as usize]
                            .as_mut()
                            .expect("delivery routed to a host this shard owns")
                            .on_udp(&mut ctx, &item.dgram);
                    }
                    for (emit, (delay, out)) in outgoing.drain(..).enumerate() {
                        let at = item.at + delay;
                        emissions.push(st.ev.eval(&maps, out, at, item.order, emit as u32));
                    }
                    st.scratch = outgoing;
                }
                if tx.send(Reply::Emissions(emissions)).is_err() {
                    return;
                }
            }
            Cmd::EvalSends {
                base,
                at,
                dgrams,
                maps,
            } => {
                let emissions = dgrams
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| st.ev.eval(&maps, d, at, base + i as u64, 0))
                    .collect();
                if tx.send(Reply::Emissions(emissions)).is_err() {
                    return;
                }
            }
            Cmd::Tcp {
                host,
                now,
                dst,
                port,
                req,
            } => {
                let resp = st.hosts[host as usize]
                    .as_mut()
                    .expect("tcp routed to a host this shard owns")
                    .on_tcp(now, dst, port, &req);
                if tx.send(Reply::Tcp(resp)).is_err() {
                    return;
                }
            }
            Cmd::SetFaults(plan) => {
                st.ev.faults = plan.map(|p| FaultState::new(p, FaultStats::default()));
            }
        }
        busy.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

/// Why the conservative lookahead is as narrow as it is — fixed at
/// construction from the network config and the installed observers,
/// and reported as the "why" of every held-back stall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StallBound {
    /// The path-latency floor (`latency_ms.0`) bounds the window.
    #[default]
    MinLatency,
    /// An installed [`PathObserver`]'s minimum injection delay is the
    /// tighter bound.
    Injector,
}

impl StallBound {
    /// Stable label, used in counters and `shardstat` reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StallBound::MinLatency => "min_latency",
            StallBound::Injector => "injector",
        }
    }
}

/// Deterministic per-shard accounting for one engine instance. Every
/// field is a pure function of the seeded workload — sim-time only,
/// never wall clock — so the values are safe in traces, reports, and
/// byte-identity gates. Wall-clock shard figures travel separately, as
/// `netsim.wall.*` counters in the metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker count (1 for the sequential engine).
    pub shards: usize,
    /// Conservative lookahead (window-width bound), sim-ms.
    pub lookahead_ms: u64,
    /// What bounds the lookahead.
    pub bound: StallBound,
    /// Horizon windows processed.
    pub windows: u64,
    /// Windows clipped by the lookahead before the run target.
    pub stalls: u64,
    /// Stalled windows that actually held events back, with the
    /// min-latency floor as the bound.
    pub stalls_min_latency: u64,
    /// As above, with an injector's minimum delay as the bound.
    pub stalls_injector: u64,
    /// Stalled windows where the queue ran dry anyway — the clip held
    /// nothing back.
    pub stalls_empty_queue: u64,
    /// Stalls attributed to the shard owning the window's head event.
    pub stall_by_shard: Vec<u64>,
    /// Stalls whose head event had no owning shard (socket or dark
    /// space delivery, handled on the coordinator).
    pub stalls_unrouted: u64,
    /// Host deliveries routed to each shard.
    pub events: Vec<u64>,
    /// Speculative emissions returned by each shard.
    pub emissions: Vec<u64>,
    /// Windows in which the shard had deliveries to run.
    pub busy_windows: Vec<u64>,
    /// Windows in which the shard sat idle while another shard worked
    /// — the deterministic horizon-wait / load-imbalance measure.
    pub idle_windows: Vec<u64>,
    /// Host-to-host deliveries by `[source shard][destination shard]`.
    /// The diagonal is shard-local traffic; the off-diagonal total
    /// equals [`ShardStats::cross_messages`].
    pub traffic: Vec<Vec<u64>>,
    /// Off-diagonal traffic total (`netsim.shard.cross_messages`).
    pub cross_messages: u64,
}

impl ShardStats {
    /// Zeroed accounting for `shards` workers.
    pub fn new(shards: usize, lookahead_ms: u64, bound: StallBound) -> ShardStats {
        ShardStats {
            shards,
            lookahead_ms,
            bound,
            stall_by_shard: vec![0; shards],
            events: vec![0; shards],
            emissions: vec![0; shards],
            busy_windows: vec![0; shards],
            idle_windows: vec![0; shards],
            traffic: vec![vec![0; shards]; shards],
            ..ShardStats::default()
        }
    }

    /// Max/min per-shard event ratio, ×1000. Zero when some shard saw
    /// no events at all (the ratio would be unbounded).
    pub fn imbalance_permille(&self) -> u64 {
        let max = self.events.iter().copied().max().unwrap_or(0);
        let min = self.events.iter().copied().min().unwrap_or(0);
        (max * 1000).checked_div(min).unwrap_or(0)
    }
}

/// Wall-clock profiler for the serialized commit phase, present only
/// while `telemetry::profiling_enabled()`. Section timings accumulate
/// in nanosecond counters, are cut into per-window microsecond
/// samples, and drain into the global profile under the
/// `shard_commit` folded root at every telemetry flush — wall time
/// only, never feeding deterministic state.
#[derive(Default)]
pub(crate) struct CommitProf {
    pub(crate) recorder_ns: u64,
    pub(crate) bucket_ns: u64,
    pub(crate) schedule_ns: u64,
    /// Per-window self time of the commit loop (µs), minus categories.
    total: Vec<u64>,
    recorder: Vec<u64>,
    bucket: Vec<u64>,
    schedule: Vec<u64>,
    /// Per-flush duration of the stats flush itself (µs).
    stats_flush: Vec<u64>,
}

impl CommitProf {
    /// Drains the collected samples into the global profile. Units are
    /// wall microseconds, kept apart from the sim-ms span stacks by
    /// the `shard_commit` folded root (DESIGN §15).
    fn contribute(&mut self) {
        telemetry::profile_contrib("shard_commit", "shard_commit", &self.total);
        self.total.clear();
        telemetry::profile_contrib(
            "shard_commit;recorder_append",
            "shard_commit.recorder_append",
            &self.recorder,
        );
        self.recorder.clear();
        telemetry::profile_contrib(
            "shard_commit;rate_limit",
            "shard_commit.rate_limit",
            &self.bucket,
        );
        self.bucket.clear();
        telemetry::profile_contrib(
            "shard_commit;schedule",
            "shard_commit.schedule",
            &self.schedule,
        );
        self.schedule.clear();
        telemetry::profile_contrib(
            "shard_commit;stats_flush",
            "shard_commit.stats_flush",
            &self.stats_flush,
        );
        self.stats_flush.clear();
    }
}

/// Pre-fetched handles for the `netsim.shard.*` counter family,
/// delta-flushed alongside the base [`NetTelemetry`].
struct ShardTelemetry {
    cross: telemetry::Counter,
    stalls: telemetry::Counter,
    windows: telemetry::Counter,
    per_shard: Vec<telemetry::Counter>,
    per_shard_emissions: Vec<telemetry::Counter>,
    /// `netsim.shard.stall_reason{reason=min_latency|injector|empty_queue}`.
    stall_reason: [telemetry::Counter; 3],
    /// Wall-clock side channel: worker busy time and the coordinator's
    /// commit-barrier wait. Metrics only, never traces or reports.
    busy_wall: Vec<telemetry::Counter>,
    barrier_wall: telemetry::Counter,
    imbalance: telemetry::Gauge,
    synced: ShardStats,
    synced_busy_wall: Vec<u64>,
    synced_barrier_wall: u64,
}

impl ShardTelemetry {
    fn new(acc: &ShardStats, busy_wall: &[u64], barrier_wall: u64) -> ShardTelemetry {
        let reg = telemetry::global();
        let shards = acc.shards;
        ShardTelemetry {
            cross: reg.counter("netsim.shard.cross_messages"),
            stalls: reg.counter("netsim.shard.horizon_stalls"),
            windows: reg.counter("netsim.shard.windows"),
            per_shard: (0..shards)
                .map(|i| reg.counter_with("netsim.shard.events", &[("shard", &i.to_string())]))
                .collect(),
            per_shard_emissions: (0..shards)
                .map(|i| reg.counter_with("netsim.shard.emissions", &[("shard", &i.to_string())]))
                .collect(),
            stall_reason: [
                reg.counter_with("netsim.shard.stall_reason", &[("reason", "min_latency")]),
                reg.counter_with("netsim.shard.stall_reason", &[("reason", "injector")]),
                reg.counter_with("netsim.shard.stall_reason", &[("reason", "empty_queue")]),
            ],
            busy_wall: (0..shards)
                .map(|i| {
                    reg.counter_with("netsim.wall.shard_busy_us", &[("shard", &i.to_string())])
                })
                .collect(),
            barrier_wall: reg.counter("netsim.wall.commit_barrier_us"),
            imbalance: reg.gauge("netsim.shard.imbalance_permille"),
            synced: acc.clone(),
            synced_busy_wall: busy_wall.to_vec(),
            synced_barrier_wall: barrier_wall,
        }
    }

    fn flush(&mut self, acc: &ShardStats, busy_wall: &[u64], barrier_wall: u64) {
        self.cross
            .add(acc.cross_messages - self.synced.cross_messages);
        self.stalls.add(acc.stalls - self.synced.stalls);
        self.windows.add(acc.windows - self.synced.windows);
        for (i, c) in self.per_shard.iter().enumerate() {
            c.add(acc.events[i] - self.synced.events[i]);
        }
        for (i, c) in self.per_shard_emissions.iter().enumerate() {
            c.add(acc.emissions[i] - self.synced.emissions[i]);
        }
        self.stall_reason[0].add(acc.stalls_min_latency - self.synced.stalls_min_latency);
        self.stall_reason[1].add(acc.stalls_injector - self.synced.stalls_injector);
        self.stall_reason[2].add(acc.stalls_empty_queue - self.synced.stalls_empty_queue);
        for (i, c) in self.busy_wall.iter().enumerate() {
            c.add(busy_wall[i] - self.synced_busy_wall[i]);
        }
        self.barrier_wall
            .add(barrier_wall - self.synced_barrier_wall);
        self.imbalance.set(acc.imbalance_permille() as f64);
        self.synced = acc.clone();
        self.synced_busy_wall.copy_from_slice(busy_wall);
        self.synced_barrier_wall = barrier_wall;
    }
}

/// The parallel engine. Construct with [`ShardedNet::from_network`] (or
/// [`crate::NetHandle::sharded`]); drive through [`NetEngine`].
pub struct ShardedNet {
    /// The engine state, with `hosts` moved out to the workers. Its
    /// observers are the coordinator's own copies (used by inline
    /// sends) and its fault state is the authoritative one: it owns the
    /// counters and token buckets.
    net: Network,
    host_shard: Vec<usize>,
    shard_telemetry: Option<ShardTelemetry>,
    /// Deterministic per-shard accounting (DESIGN §15).
    acc: ShardStats,
    /// Coordinator wall time blocked on worker replies (µs) — metrics
    /// side channel only.
    barrier_wall_us: u64,
    /// Scaling-model accumulator, present only while
    /// [`scaling::enabled`].
    scale: Option<Box<scaling::ScaleAcc>>,
    workers: Vec<WorkerHandle>,
}

/// Index of the allocated region containing `ip`, for the shard
/// partition function. `regions` must be sorted by start.
fn region_index_of(regions: &[(u32, u32)], ip: Ipv4Addr) -> Option<usize> {
    let v = u32::from(ip);
    let i = regions.partition_point(|&(lo, _)| lo <= v);
    if i == 0 {
        return None;
    }
    let (lo, hi) = regions[i - 1];
    (v >= lo && v <= hi).then_some(i - 1)
}

impl ShardedNet {
    /// Partition a fully built [`Network`] across `shards` worker
    /// threads. Hosts are assigned by the allocated region their first
    /// bound IP falls in (`region_index % shards`), so a whole lease
    /// pool — within which churn renumbers — stays on one shard and
    /// hosts never migrate. Hosts outside every region hash by /16;
    /// unbound hosts hash by id.
    ///
    /// # Panics
    ///
    /// If an installed [`PathObserver`] does not support
    /// [`PathObserver::fork`] — such an observer cannot be replicated
    /// onto workers.
    pub fn from_network(
        mut net: Network,
        shards: usize,
        regions: &[(Ipv4Addr, Ipv4Addr)],
    ) -> ShardedNet {
        assert!(shards >= 1, "at least one shard");
        let hosts = std::mem::take(&mut net.hosts);

        let mut sorted_regions: Vec<(u32, u32)> = regions
            .iter()
            .map(|&(lo, hi)| (u32::from(lo), u32::from(hi)))
            .collect();
        sorted_regions.sort_unstable();

        let host_shard: Vec<usize> = net
            .host_ips
            .iter()
            .enumerate()
            .map(|(h, ips)| match ips.first() {
                Some(&ip) => match region_index_of(&sorted_regions, ip) {
                    Some(r) => r % shards,
                    None => (u32::from(ip) >> 16) as usize % shards,
                },
                None => h % shards,
            })
            .collect();

        let min_inj_delay = net
            .ev
            .injectors
            .iter()
            .map(|i| i.min_delay_ms())
            .min()
            .unwrap_or(u64::MAX);
        let latency_lo = net.ev.cfg.latency_ms.0;
        let lookahead_ms = latency_lo.min(min_inj_delay.saturating_add(1)).max(1);
        let bound = if min_inj_delay.saturating_add(1) < latency_lo {
            StallBound::Injector
        } else {
            StallBound::MinLatency
        };

        // Distribute hosts: worker i owns slot h iff host_shard[h] == i.
        let host_count = hosts.len();
        let mut per_shard_hosts: Vec<Vec<Option<Box<dyn Host>>>> = (0..shards)
            .map(|_| {
                let mut v = Vec::with_capacity(host_count);
                v.resize_with(host_count, || None);
                v
            })
            .collect();
        for (h, host) in hosts.into_iter().enumerate() {
            per_shard_hosts[host_shard[h]][h] = Some(host);
        }

        let workers = per_shard_hosts
            .into_iter()
            .enumerate()
            .map(|(i, shard_hosts)| {
                let state = WorkerState {
                    ev: net.ev.fork(),
                    hosts: shard_hosts,
                    scratch: Vec::new(),
                };
                let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let busy_wall_us = Arc::new(AtomicU64::new(0));
                let busy = Arc::clone(&busy_wall_us);
                let join = std::thread::Builder::new()
                    .name(format!("netsim-shard-{i}"))
                    .spawn(move || worker_loop(cmd_rx, reply_tx, state, busy))
                    .expect("spawn shard worker");
                WorkerHandle {
                    tx: cmd_tx,
                    rx: reply_rx,
                    busy_wall_us,
                    join,
                }
            })
            .collect();

        let acc = ShardStats::new(shards, lookahead_ms, bound);
        let shard_telemetry = net
            .telemetry
            .is_some()
            .then(|| ShardTelemetry::new(&acc, &vec![0; shards], 0));
        ShardedNet {
            net,
            host_shard,
            shard_telemetry,
            acc,
            barrier_wall_us: 0,
            scale: None,
            workers,
        }
    }

    /// Total host-to-host deliveries whose source host lives on a
    /// different shard than the destination host.
    pub fn cross_shard_messages(&self) -> u64 {
        self.acc.cross_messages
    }

    /// Commit a batch of worker emissions in `(parent, emit)` order —
    /// the order the sequential engine would have sent them in — and,
    /// under `--profile`, cut the batch's commit wall time into samples.
    fn commit_batch(&mut self, emissions: &mut Vec<Emission>) {
        emissions.sort_unstable_by_key(|e| (e.parent, e.emit));
        let mark = self
            .net
            .commit_prof
            .as_ref()
            .map(|p| (Instant::now(), p.recorder_ns, p.bucket_ns, p.schedule_ns));
        for e in emissions.drain(..) {
            self.net.commit(e);
        }
        if let (Some(p), Some((t0, r0, b0, s0))) = (&mut self.net.commit_prof, mark) {
            let total_us = t0.elapsed().as_micros() as u64;
            let rec = (p.recorder_ns - r0) / 1_000;
            let buck = (p.bucket_ns - b0) / 1_000;
            let sched = (p.schedule_ns - s0) / 1_000;
            p.recorder.push(rec);
            p.bucket.push(buck);
            p.schedule.push(sched);
            p.total.push(total_us.saturating_sub(rec + buck + sched));
        }
    }

    /// Creates or drops the profiling-gated accumulators so the off
    /// path pays nothing. Called at the head of every run/batch entry
    /// point (the gates can flip between calls).
    fn sync_instrumentation(&mut self) {
        if telemetry::profiling_enabled() {
            self.net.commit_prof.get_or_insert_with(Box::default);
        } else {
            self.net.commit_prof = None;
        }
        if scaling::enabled() {
            let (shards, sent) = (self.workers.len(), self.net.stats.udp_sent);
            self.scale
                .get_or_insert_with(|| Box::new(scaling::ScaleAcc::new(shards, sent)));
        } else {
            self.scale = None;
        }
    }

    fn flush_telemetry(&mut self) {
        let t0 = self.net.commit_prof.as_ref().map(|_| Instant::now());
        self.net.flush_telemetry();
        if let Some(st) = &mut self.shard_telemetry {
            st.flush(
                &self.acc,
                &busy_wall_us(&self.workers),
                self.barrier_wall_us,
            );
        }
        if let (Some(p), Some(t0)) = (&mut self.net.commit_prof, t0) {
            p.stats_flush.push(t0.elapsed().as_micros() as u64);
            p.contribute();
        }
        if let Some(sc) = &self.scale {
            scaling::publish(sc.measurement(&self.acc, self.net.stats.udp_sent));
        }
    }

    /// The window loop: pop one conservative-lookahead window of events
    /// in `(at, seq)` order, fan host deliveries out to the owning
    /// shards, then commit the returned emissions in sequential order.
    fn run_window_loop(&mut self, t: SimTime) {
        let shards = self.workers.len();
        let mut worklists: Vec<Vec<DeliverItem>> = (0..shards).map(|_| Vec::new()).collect();
        let mut busy: Vec<usize> = Vec::with_capacity(shards);
        let mut emissions: Vec<Emission> = Vec::new();
        let mut window_work: Vec<u64> = vec![0; shards];
        loop {
            // The head event defines the window start; its owning
            // shard is charged if the lookahead clips this window.
            let (w0, head_shard) = match self.net.events.peek() {
                Some(ev) if ev.0.at <= t => {
                    let shard = self
                        .net
                        .host_at(ev.0.dgram.dst_ip)
                        .map(|h| self.host_shard[h.0 as usize]);
                    (ev.0.at.millis(), shard)
                }
                _ => break,
            };
            let w1 = (w0 + self.acc.lookahead_ms).min(t.millis() + 1);
            let stalled = w1 < t.millis() + 1;
            if stalled {
                self.acc.stalls += 1;
                match head_shard {
                    Some(s) => self.acc.stall_by_shard[s] += 1,
                    None => self.acc.stalls_unrouted += 1,
                }
            }
            self.acc.windows += 1;
            let mut routed = 0u64;
            let mut order = 0u64;
            // Route in pop order — this IS the sequential delivery
            // order, so socket queues need no re-sorting.
            while let Some(dgram) = self.net.pop_due(SimTime(w1 - 1)) {
                routed += 1;
                let Some((host, dgram)) = self.net.route(dgram) else {
                    continue;
                };
                let shard = self.host_shard[host.0 as usize];
                if let Some(src_host) = self.net.host_at(dgram.src_ip) {
                    let src_shard = self.host_shard[src_host.0 as usize];
                    self.acc.traffic[src_shard][shard] += 1;
                    if src_shard != shard {
                        self.acc.cross_messages += 1;
                    }
                }
                self.acc.events[shard] += 1;
                worklists[shard].push(DeliverItem {
                    order,
                    at: self.net.now,
                    host: host.0,
                    dgram,
                });
                order += 1;
            }
            busy.clear();
            window_work.iter_mut().for_each(|w| *w = 0);
            for (i, items) in worklists.iter_mut().enumerate() {
                if items.is_empty() {
                    continue;
                }
                window_work[i] = items.len() as u64;
                let batch = std::mem::take(items);
                self.workers[i]
                    .tx
                    .send(Cmd::Deliver {
                        items: batch,
                        maps: Arc::clone(&self.net.maps),
                    })
                    .expect("shard worker alive");
                busy.push(i);
            }
            if !busy.is_empty() {
                for (i, &work) in window_work.iter().enumerate().take(shards) {
                    if work > 0 {
                        self.acc.busy_windows[i] += 1;
                    } else {
                        self.acc.idle_windows[i] += 1;
                    }
                }
                let bar0 = Instant::now();
                for &i in &busy {
                    match self.workers[i].rx.recv().expect("shard worker alive") {
                        Reply::Emissions(mut e) => {
                            self.acc.emissions[i] += e.len() as u64;
                            window_work[i] += e.len() as u64;
                            emissions.append(&mut e);
                        }
                        Reply::Tcp(_) => unreachable!("no tcp in flight during a window"),
                    }
                }
                self.barrier_wall_us += bar0.elapsed().as_micros() as u64;
            }
            self.commit_batch(&mut emissions);
            if let Some(sc) = &mut self.scale {
                sc.record_batch(&window_work, routed);
            }
            if stalled {
                // The "why": a stall only hurt if events were in fact
                // held back past the clip; otherwise the queue ran dry
                // and the narrow window cost nothing.
                let held_back = matches!(self.net.events.peek(), Some(ev) if ev.0.at <= t);
                if held_back {
                    match self.acc.bound {
                        StallBound::MinLatency => self.acc.stalls_min_latency += 1,
                        StallBound::Injector => self.acc.stalls_injector += 1,
                    }
                } else {
                    self.acc.stalls_empty_queue += 1;
                }
            }
        }
    }
}

impl Drop for ShardedNet {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.tx);
            drop(w.rx);
            let _ = w.join.join();
        }
    }
}

impl Sealed for ShardedNet {
    fn core(&self) -> &Network {
        &self.net
    }
    fn core_mut(&mut self) -> &mut Network {
        &mut self.net
    }
}

impl NetEngine for ShardedNet {
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        let replica_plan = (!plan.is_noop()).then(|| plan.clone());
        self.net.set_fault_plan(plan);
        for w in &self.workers {
            w.tx.send(Cmd::SetFaults(replica_plan.clone()))
                .expect("shard worker alive");
        }
    }

    fn set_instrumentation(&mut self, on: bool) {
        self.net.set_instrumentation(on);
        self.shard_telemetry = on.then(|| {
            ShardTelemetry::new(
                &self.acc,
                &busy_wall_us(&self.workers),
                self.barrier_wall_us,
            )
        });
    }

    fn send_many(&mut self, mut dgrams: Vec<Datagram>) {
        self.sync_instrumentation();
        let n = dgrams.len();
        let shards = self.workers.len();
        if n < INLINE_BATCH || shards <= 1 {
            for d in dgrams {
                self.net.send_udp(d);
            }
            return;
        }
        // Chop into contiguous chunks; each worker evaluates its chunk,
        // then the coordinator commits everything in original order —
        // identical to a sequential send loop.
        let chunk = n.div_ceil(shards);
        let mut busy = 0usize;
        let mut base = 0u64;
        let mut batch_work: Vec<u64> = vec![0; shards];
        for (i, work) in batch_work.iter_mut().enumerate() {
            if dgrams.is_empty() {
                break;
            }
            let take = chunk.min(dgrams.len());
            let rest = dgrams.split_off(take);
            let batch = std::mem::replace(&mut dgrams, rest);
            *work = take as u64;
            self.workers[i]
                .tx
                .send(Cmd::EvalSends {
                    base,
                    at: self.net.now,
                    dgrams: batch,
                    maps: Arc::clone(&self.net.maps),
                })
                .expect("shard worker alive");
            base += take as u64;
            busy += 1;
        }
        let mut emissions: Vec<Emission> = Vec::with_capacity(n);
        let bar0 = Instant::now();
        for (i, w) in self.workers[..busy].iter().enumerate() {
            match w.rx.recv().expect("shard worker alive") {
                Reply::Emissions(mut e) => {
                    self.acc.emissions[i] += e.len() as u64;
                    emissions.append(&mut e);
                }
                Reply::Tcp(_) => unreachable!("no tcp in flight during a batch send"),
            }
        }
        self.barrier_wall_us += bar0.elapsed().as_micros() as u64;
        self.commit_batch(&mut emissions);
        if let Some(sc) = &mut self.scale {
            sc.record_batch(&batch_work, 0);
        }
    }

    fn run_until(&mut self, t: SimTime) -> RunReport {
        self.sync_instrumentation();
        let events_before = self.net.events_dispatched;
        let delivered_before = self.net.stats.udp_delivered;
        let stalls_before = self.acc.stalls;
        self.run_window_loop(t);
        self.net.now = self.net.now.max(t);
        self.flush_telemetry();
        RunReport {
            events: self.net.events_dispatched - events_before,
            delivered: self.net.stats.udp_delivered - delivered_before,
            end: self.net.now,
            stalls: self.acc.stalls - stalls_before,
        }
    }

    fn tcp_query(
        &mut self,
        dst_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Result<TcpResponse, TcpError> {
        let host = self.net.tcp_admit(dst_ip, port, req)?;
        let worker = &self.workers[self.host_shard[host.0 as usize]];
        worker
            .tx
            .send(Cmd::Tcp {
                host: host.0,
                now: self.net.now,
                dst: dst_ip,
                port,
                req: req.clone(),
            })
            .expect("shard worker alive");
        match worker.rx.recv().expect("shard worker alive") {
            Reply::Tcp(resp) => resp.ok_or(TcpError::Refused),
            Reply::Emissions(_) => unreachable!("tcp reply expected"),
        }
    }

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn shard_stats(&self) -> ShardStats {
        self.acc.clone()
    }
}
