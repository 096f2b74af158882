//! The event-driven network core and the one send pipeline.
//!
//! Every datagram — a driver send or a host reply — goes through
//! [`Network::send`] in one straight pass: observers (whose injections
//! are scheduled first) → send-time filters → dark space → fault stages
//! (events, outages, flaps, the token bucket, bursts, spikes) → loss
//! roll → path latency → the event heap. Each stage that decides the
//! packet's fate bumps its counter and, for a drop past dark space,
//! writes the flight-recorder record right there.
//!
//! The event loop is sequential: pop → route → host → send.

use crate::faults::{DropCause, FaultPlan, FaultState, FaultStats};
use crate::host::{Host, HostCtx, TcpError, TcpRequest, TcpResponse};
use crate::packet::Datagram;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// Identifier of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Handle of a measurement socket (used by scanners — endpoints that
/// are driven from outside the simulation rather than by a [`Host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub u32);

/// Typed misuse errors for measurement sockets: the network reports
/// what is wrong with a handle instead of panicking on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The socket was valid once but has been closed.
    Closed,
    /// The handle never referred to a socket of this network.
    Unknown,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Closed => write!(f, "socket already closed"),
            SocketError::Unknown => write!(f, "unknown socket handle"),
        }
    }
}

impl std::error::Error for SocketError {}

/// What a run call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Events dispatched by this call.
    pub events: u64,
    /// Datagrams delivered (to hosts or sockets) by this call.
    pub delivered: u64,
    /// The clock after the call.
    pub end: SimTime,
}

/// Which traffic a network filter drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDirection {
    /// Drop traffic destined *to* the range (ingress filtering).
    Inbound,
    /// Drop traffic originating *from* the range (egress filtering).
    Outbound,
    /// Drop both directions.
    Both,
}

/// An on-path observer that can inject packets in response to traffic it
/// sees — the Great Firewall model. Returned tuples are
/// `(delay_ms, datagram)`; injected datagrams are delivered directly
/// (the injector is on-path, so it wins races against end-to-end paths
/// when its delay is smaller).
pub trait PathObserver {
    /// Observe a datagram at send time; return `(delay_ms, datagram)`
    /// injections to deliver.
    fn on_transit(&mut self, now: SimTime, dgram: &Datagram) -> Vec<(u64, Datagram)>;
}

/// Tunables for the transport model.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Seed for all deterministic pseudo-random decisions.
    pub seed: u64,
    /// Probability that a UDP datagram is lost en route.
    pub udp_loss: f64,
    /// One-way path latency range in milliseconds; the concrete value is
    /// a deterministic function of the (src /16, dst /16) pair.
    pub latency_ms: (u64, u64),
    /// Probability that a TCP request times out.
    pub tcp_loss: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 0x60176,
            udp_loss: 0.01,
            latency_ms: (10, 180),
            tcp_loss: 0.005,
        }
    }
}

/// Counters exposed for tests and the politeness ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// UDP datagrams handed to the transport.
    pub udp_sent: u64,
    /// Datagrams delivered to a host or socket.
    pub udp_delivered: u64,
    /// Datagrams dropped by the loss model.
    pub udp_lost: u64,
    /// Datagrams dropped by active filters.
    pub udp_filtered: u64,
    /// Datagrams addressed to unbound space.
    pub udp_unbound: u64,
    /// Datagrams injected by on-path observers.
    pub injected: u64,
    /// Synchronous TCP requests issued.
    pub tcp_queries: u64,
}

struct Filter {
    lo: u32,
    hi: u32,
    direction: FilterDirection,
    active_from: SimTime,
    /// When set, the filter only applies to traffic whose *other*
    /// endpoint falls in this range — e.g. a network that blocks one
    /// scanning /8 but is otherwise reachable (Sec. 2.3, explanation i).
    peer: Option<(u32, u32)>,
}

/// The route state sends and deliveries are resolved against: IP and
/// socket bindings.
///
/// The maps are only ever probed (`get`/`insert`/`remove`/`len`, and an
/// order-insensitive `retain`), never iterated for output, so their
/// internal order is unobservable and the hasher is free to be cheap:
/// every send asks both whether anything is bound at its destination.
#[derive(Default)]
struct RouteMaps {
    bindings: HashMap<Ipv4Addr, HostId, BuildHasherDefault<RouteHasher>>,
    socket_bindings: HashMap<(Ipv4Addr, u16), u32, BuildHasherDefault<RouteHasher>>,
}

/// Multiplicative hasher for the route maps' address keys: one
/// multiply per word written, deterministic, no per-map key. The keys
/// come from the simulation's own address plan, not from outside the
/// program, so SipHash's collision resistance buys nothing here.
#[derive(Clone, Copy, Default)]
struct RouteHasher(u64);

impl RouteHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for RouteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    /// Slice length prefixes: the keys are fixed-width, so the length
    /// distinguishes nothing.
    fn write_usize(&mut self, _: usize) {}

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

struct SocketState {
    queue: VecDeque<(SimTime, Datagram)>,
    /// False once the socket has been closed: use-after-close is a
    /// typed error instead of a silent no-op.
    open: bool,
}

/// Pre-fetched global-registry handles. The hot path only bumps the
/// plain [`NetStats`] fields the simulator keeps anyway; the shared
/// atomic counters are updated in bulk — deltas since the last flush —
/// at the end of each event-loop run and TCP query, so instrumentation
/// adds no per-packet cost.
struct NetTelemetry {
    udp_sent: telemetry::Counter,
    udp_delivered: telemetry::Counter,
    udp_lost: telemetry::Counter,
    udp_filtered: telemetry::Counter,
    udp_unbound: telemetry::Counter,
    injected: telemetry::Counter,
    tcp_queries: telemetry::Counter,
    events_dispatched: telemetry::Counter,
    queue_depth_max: telemetry::Gauge,
    fault_burst_drops: telemetry::Counter,
    fault_outage_drops: telemetry::Counter,
    fault_flap_drops: telemetry::Counter,
    fault_rate_limit_drops: telemetry::Counter,
    fault_latency_spiked: telemetry::Counter,
    /// Totals already flushed to the shared counters; each flush adds
    /// only what accumulated since. Zero, like a new network's stats.
    synced: NetStats,
    synced_dispatched: u64,
    synced_queue_max: u64,
    synced_faults: FaultStats,
}

impl NetTelemetry {
    /// Handles into the installed registry, nothing flushed yet.
    fn new() -> NetTelemetry {
        NetTelemetry {
            udp_sent: telemetry::counter("netsim.udp_sent"),
            udp_delivered: telemetry::counter("netsim.udp_delivered"),
            udp_lost: telemetry::counter("netsim.udp_lost"),
            udp_filtered: telemetry::counter("netsim.udp_filtered"),
            udp_unbound: telemetry::counter("netsim.udp_unbound"),
            injected: telemetry::counter("netsim.injected"),
            tcp_queries: telemetry::counter("netsim.tcp_queries"),
            events_dispatched: telemetry::counter("netsim.events_dispatched"),
            queue_depth_max: telemetry::gauge("netsim.queue_depth_max"),
            fault_burst_drops: telemetry::counter("netsim.faults.burst_drops"),
            fault_outage_drops: telemetry::counter("netsim.faults.outage_drops"),
            fault_flap_drops: telemetry::counter("netsim.faults.flap_drops"),
            fault_rate_limit_drops: telemetry::counter("netsim.faults.rate_limit_drops"),
            fault_latency_spiked: telemetry::counter("netsim.faults.latency_spiked"),
            synced: NetStats::default(),
            synced_dispatched: 0,
            synced_queue_max: 0,
            synced_faults: FaultStats::default(),
        }
    }

    fn flush(&mut self, stats: NetStats, dispatched: u64, queue_max: u64, faults: FaultStats) {
        self.udp_sent.add(stats.udp_sent - self.synced.udp_sent);
        self.udp_delivered
            .add(stats.udp_delivered - self.synced.udp_delivered);
        self.udp_lost.add(stats.udp_lost - self.synced.udp_lost);
        self.udp_filtered
            .add(stats.udp_filtered - self.synced.udp_filtered);
        self.udp_unbound
            .add(stats.udp_unbound - self.synced.udp_unbound);
        self.injected.add(stats.injected - self.synced.injected);
        self.tcp_queries
            .add(stats.tcp_queries - self.synced.tcp_queries);
        self.events_dispatched
            .add(dispatched - self.synced_dispatched);
        if queue_max > self.synced_queue_max {
            self.queue_depth_max.set_max(queue_max as f64);
            self.synced_queue_max = queue_max;
        }
        let synced = self.synced_faults;
        self.fault_burst_drops
            .add(faults.burst_drops - synced.burst_drops);
        self.fault_outage_drops
            .add(faults.outage_drops - synced.outage_drops);
        self.fault_flap_drops
            .add(faults.flap_drops - synced.flap_drops);
        self.fault_rate_limit_drops
            .add(faults.rate_limit_drops - synced.rate_limit_drops);
        self.fault_latency_spiked
            .add(faults.latency_spiked - synced.latency_spiked);
        self.synced = stats;
        self.synced_dispatched = dispatched;
        self.synced_faults = faults;
    }
}

struct Event {
    at: SimTime,
    seq: u64,
    dgram: Datagram,
}

// Order events by (time, seq) — BinaryHeap is a max-heap, so wrap in
// Reverse at the call sites.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The addresses bound to one host, in binding order. Nearly every host
/// has exactly one, which is held in place.
enum BoundIps {
    None,
    One(Ipv4Addr),
    Many(Vec<Ipv4Addr>),
}

impl BoundIps {
    fn as_slice(&self) -> &[Ipv4Addr] {
        match self {
            BoundIps::None => &[],
            BoundIps::One(ip) => std::slice::from_ref(ip),
            BoundIps::Many(ips) => ips,
        }
    }

    fn push(&mut self, ip: Ipv4Addr) {
        match self {
            BoundIps::None => *self = BoundIps::One(ip),
            BoundIps::One(first) if *first != ip => *self = BoundIps::Many(vec![*first, ip]),
            BoundIps::Many(ips) if !ips.contains(&ip) => ips.push(ip),
            _ => {} // already bound
        }
    }

    fn remove(&mut self, ip: Ipv4Addr) {
        match self {
            BoundIps::One(only) if *only == ip => *self = BoundIps::None,
            BoundIps::Many(ips) => ips.retain(|&i| i != ip),
            _ => {}
        }
    }
}

/// The simulated network: topology, sockets, the send pipeline's state
/// and the sequential event loop.
pub struct Network {
    cfg: NetworkConfig,
    filters: Vec<Filter>,
    injectors: Vec<Box<dyn PathObserver>>,
    faults: Option<FaultState>,
    /// Held outside `faults` so that no plan swap can reset them.
    fault_stats: FaultStats,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    hosts: Vec<Box<dyn Host>>,
    maps: RouteMaps,
    host_ips: Vec<BoundIps>,
    sockets: Vec<SocketState>,
    stats: NetStats,
    telemetry: NetTelemetry,
    events_dispatched: u64,
    queue_depth_max: u64,
    scratch: Vec<(u64, Datagram)>,
}

impl Network {
    /// A fresh, empty network.
    pub fn new(cfg: NetworkConfig) -> Self {
        Network {
            cfg,
            filters: Vec::new(),
            injectors: Vec::new(),
            faults: None,
            fault_stats: FaultStats::default(),
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            hosts: Vec::new(),
            maps: RouteMaps::default(),
            host_ips: Vec::new(),
            sockets: Vec::new(),
            stats: NetStats::default(),
            telemetry: NetTelemetry::new(),
            events_dispatched: 0,
            queue_depth_max: 0,
            scratch: Vec::new(),
        }
    }

    /// Install (or replace) a fault-injection plan. A no-op plan is
    /// equivalent to removing fault injection entirely — the hot path
    /// pays nothing. Fault counters survive plan changes so telemetry
    /// deltas stay monotone.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = (!plan.is_noop()).then(|| FaultState::new(plan));
    }

    /// Counters of injected faults so far, under every plan installed.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock without processing events (any still pending
    /// before `t` are processed first on the next run call). Useful to
    /// jump between weekly scans.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    // ---- topology -------------------------------------------------

    /// Register a host behaviour. The host starts with no IP bindings.
    pub fn add_host(&mut self, host: Box<dyn Host>) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(host);
        self.host_ips.push(BoundIps::None);
        id
    }

    /// Resident bytes of the topology, from lengths: the hosts, the
    /// address → host table (a hash table touches every bucket it
    /// allocated) and the per-host address lists.
    pub fn resident_bytes(&self) -> [usize; 3] {
        use std::mem::{size_of, size_of_val};
        let boxed = |h: &dyn Host| size_of::<Box<dyn Host>>() + size_of_val(h);
        let buckets = self.maps.bindings.capacity() * 8 / 7;
        [
            self.hosts.iter().map(|h| boxed(h.as_ref())).sum(),
            buckets * (size_of::<(Ipv4Addr, HostId)>() + 1),
            self.host_ips.len() * size_of::<BoundIps>(),
        ]
    }

    /// Bind `ip` to `host`, displacing any previous binding of that IP.
    pub fn bind_ip(&mut self, ip: Ipv4Addr, host: HostId) {
        assert!((host.0 as usize) < self.host_ips.len(), "unknown host");
        if let Some(prev) = self.maps.bindings.insert(ip, host) {
            if prev != host {
                self.host_ips[prev.0 as usize].remove(ip);
            }
        }
        self.host_ips[host.0 as usize].push(ip);
    }

    /// Remove the binding of `ip`, if any.
    pub fn unbind_ip(&mut self, ip: Ipv4Addr) {
        if let Some(host) = self.maps.bindings.remove(&ip) {
            self.host_ips[host.0 as usize].remove(ip);
        }
    }

    /// Host currently bound to `ip`.
    pub fn host_at(&self, ip: Ipv4Addr) -> Option<HostId> {
        self.maps.bindings.get(&ip).copied()
    }

    /// IPs currently bound to `host`.
    pub fn ips_of(&self, host: HostId) -> &[Ipv4Addr] {
        self.host_ips[host.0 as usize].as_slice()
    }

    /// Number of bound IPs.
    pub fn binding_count(&self) -> usize {
        self.maps.bindings.len()
    }

    /// Install an on-path observer.
    pub fn add_injector(&mut self, injector: Box<dyn PathObserver>) {
        self.injectors.push(injector);
    }

    /// Install a network filter over the inclusive range `[lo, hi]`,
    /// active from `active_from` onwards. Models ISPs introducing DNS
    /// ingress/egress filtering mid-study (Sec. 2.3).
    pub fn add_filter(
        &mut self,
        lo: Ipv4Addr,
        hi: Ipv4Addr,
        direction: FilterDirection,
        active_from: SimTime,
    ) {
        self.insert_filter(Filter {
            lo: u32::from(lo),
            hi: u32::from(hi),
            direction,
            active_from,
            peer: None,
        });
    }

    /// Keep `filters` sorted by activation time, which lets
    /// [`filters_match`] skip every filter not yet active.
    fn insert_filter(&mut self, filter: Filter) {
        let filters = &mut self.filters;
        let at = filters.partition_point(|f| f.active_from <= filter.active_from);
        filters.insert(at, filter);
    }

    /// Install a filter that drops traffic between `[lo, hi]` and the
    /// peer range `[peer_lo, peer_hi]` only — e.g. an ISP blacklisting a
    /// scanner's /8 while staying reachable from everywhere else.
    pub fn add_pair_filter(
        &mut self,
        lo: Ipv4Addr,
        hi: Ipv4Addr,
        peer_lo: Ipv4Addr,
        peer_hi: Ipv4Addr,
        active_from: SimTime,
    ) {
        self.insert_filter(Filter {
            lo: u32::from(lo),
            hi: u32::from(hi),
            direction: FilterDirection::Both,
            active_from,
            peer: Some((u32::from(peer_lo), u32::from(peer_hi))),
        });
    }

    // ---- measurement sockets --------------------------------------

    /// Open a measurement socket bound to `(ip, port)`.
    pub fn open_socket(&mut self, ip: Ipv4Addr, port: u16) -> SocketHandle {
        let id = self.sockets.len() as u32;
        self.sockets.push(SocketState {
            queue: VecDeque::new(),
            open: true,
        });
        self.maps.socket_bindings.insert((ip, port), id);
        SocketHandle(id)
    }

    /// The state behind an open socket handle, or what is wrong with
    /// the handle.
    fn socket_mut(&mut self, sock: SocketHandle) -> Result<&mut SocketState, SocketError> {
        match self.sockets.get_mut(sock.0 as usize) {
            None => Err(SocketError::Unknown),
            Some(s) if !s.open => Err(SocketError::Closed),
            Some(s) => Ok(s),
        }
    }

    /// Close a measurement socket: unbinds its address and drops any
    /// queued datagrams. Campaigns close their port blocks so long
    /// multi-scan experiments do not accumulate dead queues. Double
    /// close is a typed error.
    pub fn close_socket(&mut self, sock: SocketHandle) -> Result<(), SocketError> {
        let state = self.socket_mut(sock)?;
        state.queue.clear();
        state.queue.shrink_to_fit();
        state.open = false;
        self.maps.socket_bindings.retain(|_, &mut id| id != sock.0);
        Ok(())
    }

    /// Receive the next datagram queued on a socket.
    pub fn recv(&mut self, sock: SocketHandle) -> Result<Option<(SimTime, Datagram)>, SocketError> {
        Ok(self.socket_mut(sock)?.queue.pop_front())
    }

    /// Drain all queued datagrams on a socket.
    pub fn recv_all(
        &mut self,
        sock: SocketHandle,
    ) -> Result<Vec<(SimTime, Datagram)>, SocketError> {
        Ok(self.socket_mut(sock)?.queue.drain(..).collect())
    }

    // ---- the send pipeline -----------------------------------------

    /// Send a datagram (from a measurement socket, a host or any
    /// synthesized source), either now (`at: None`) or at a given future
    /// departure time, through every stage of the pipeline in one pass.
    pub fn send(&mut self, dgram: Datagram, at: Option<SimTime>) {
        let at = at.unwrap_or(self.now).max(self.now);
        self.stats.udp_sent += 1;
        // On-path observers see the packet (and may inject) whatever its
        // own fate turns out to be. Injections are scheduled (and take
        // their `seq`) before the packet's own outcome.
        for i in 0..self.injectors.len() {
            for (delay, d) in self.injectors[i].on_transit(at, &dgram) {
                self.stats.injected += 1;
                self.schedule(d, at + delay);
            }
        }
        // Egress/ingress filtering at send time.
        if filters_match(&self.filters, &dgram, at) {
            self.stats.udp_filtered += 1;
            return;
        }
        // Dark space: nothing is bound at the destination, so the packet
        // can never be observed. Decide it here instead of paying heap
        // scheduling plus a later dead delivery — enumeration sweeps hit
        // mostly unbound space, making this the hottest branch of a full
        // scan.
        let (dst, dst_port) = (dgram.dst_ip, dgram.dst_port);
        if !self.maps.bindings.contains_key(&dst)
            && !self.maps.socket_bindings.contains_key(&(dst, dst_port))
        {
            self.stats.udp_unbound += 1;
            return;
        }
        // Injected faults sit between the dark-space fast path and the
        // i.i.d. loss roll: they only ever touch traffic that could
        // otherwise be observed, and the loss roll consumes the same hash
        // stream whether or not a plan is installed.
        let key = flow_key(at, &dgram);
        let mut extra_ms = 0;
        if let Some(fs) = &mut self.faults {
            match fs.udp(at, dgram.src_ip, dst, dst_port, key) {
                Err(cause) => {
                    self.fault_stats.bump(cause);
                    return self.lose(&dgram, cause.as_str(), at);
                }
                Ok(0) => {}
                // Counted here, before the loss roll, which may still
                // eat the packet.
                Ok(spike_ms) => {
                    self.fault_stats.latency_spiked += 1;
                    extra_ms = spike_ms;
                }
            }
        }
        // The i.i.d. loss roll, keyed on the datagram's flow identity
        // (send time, endpoints, payload) rather than a global send
        // counter, so a packet's fate never depends on how much other
        // traffic the network carried before it — campaigns sharing a
        // network stay mutually independent.
        let roll = mix64(self.cfg.seed, LOSS_CHANNEL, key) as f64 / u64::MAX as f64;
        if roll < self.cfg.udp_loss {
            return self.lose(&dgram, "loss", at);
        }
        let latency = path_latency(&self.cfg, dgram.src_ip, dst, key) + extra_ms;
        self.schedule(dgram, at + latency);
    }

    /// Count a datagram as lost and, when the flight recorder is on,
    /// append its drop record.
    fn lose(&mut self, dgram: &Datagram, cause: &'static str, at: SimTime) {
        self.stats.udp_lost += 1;
        if telemetry::recorder::enabled() {
            telemetry::recorder::drop_fault(
                u32::from(dgram.src_ip),
                u32::from(dgram.dst_ip),
                dgram.dst_port,
                cause,
                at.millis(),
            );
        }
    }

    fn schedule(&mut self, dgram: Datagram, at: SimTime) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.seq,
            dgram,
        }));
        self.queue_depth_max = self.queue_depth_max.max(self.events.len() as u64);
    }

    // ---- event loop ------------------------------------------------

    /// Pop the next event due at or before `t`, advancing the clock to
    /// it.
    fn pop_due(&mut self, t: SimTime) -> Option<Datagram> {
        if self.events.peek()?.0.at > t {
            return None;
        }
        let Reverse(ev) = self.events.pop()?;
        self.now = ev.at;
        self.events_dispatched += 1;
        Some(ev.dgram)
    }

    /// Route one popped datagram: filter → socket → host binding →
    /// unbound, counting whichever it hits. Socket deliveries are
    /// queued here; a host delivery is returned for the event loop to
    /// run.
    fn route(&mut self, dgram: Datagram) -> Option<(HostId, Datagram)> {
        // Filters also apply at delivery time: a filter activated while
        // the packet was in flight still kills it, which matches how
        // border filtering behaves.
        if filters_match(&self.filters, &dgram, self.now) {
            self.stats.udp_filtered += 1;
            return None;
        }
        if let Some(&sid) = self
            .maps
            .socket_bindings
            .get(&(dgram.dst_ip, dgram.dst_port))
        {
            self.stats.udp_delivered += 1;
            self.sockets[sid as usize]
                .queue
                .push_back((self.now, dgram));
            return None;
        }
        let Some(&host) = self.maps.bindings.get(&dgram.dst_ip) else {
            self.stats.udp_unbound += 1;
            return None;
        };
        self.stats.udp_delivered += 1;
        Some((host, dgram))
    }

    /// Process all events up to and including time `t`, one at a time
    /// (pop → route → host → send), then set the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) -> RunReport {
        let events_before = self.events_dispatched;
        let delivered_before = self.stats.udp_delivered;
        while let Some(dgram) = self.pop_due(t) {
            let Some((host, dgram)) = self.route(dgram) else {
                continue;
            };
            let now = self.now;
            let mut outgoing = std::mem::take(&mut self.scratch);
            let mut ctx = HostCtx::new(now, dgram.dst_ip, &mut outgoing);
            self.hosts[host.0 as usize].on_udp(&mut ctx, &dgram);
            for (delay, out) in outgoing.drain(..) {
                self.send(out, Some(now + delay));
            }
            self.scratch = outgoing;
        }
        self.now = self.now.max(t);
        self.flush_telemetry();
        RunReport {
            events: self.events_dispatched - events_before,
            delivered: self.stats.udp_delivered - delivered_before,
            end: self.now,
        }
    }

    /// Push the deltas accumulated in the plain counters since the last
    /// flush out to the shared telemetry handles. Called at event-loop
    /// quiescent points, never per packet.
    fn flush_telemetry(&mut self) {
        self.telemetry.flush(
            self.stats,
            self.events_dispatched,
            self.queue_depth_max,
            self.fault_stats,
        );
    }

    // ---- synchronous TCP --------------------------------------------

    /// Admit a TCP request to `(dst_ip, port)` at the current simulated
    /// time: count it, then filter → fault plan → loss roll → binding
    /// lookup. Synchronous: the result reflects the binding state *now*.
    /// Returns the host to run the request on.
    fn tcp_admit(
        &mut self,
        dst_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Result<HostId, TcpError> {
        self.stats.tcp_queries += 1;
        self.flush_telemetry();
        let probe = Datagram::new(Ipv4Addr::new(0, 0, 0, 0), 0, dst_ip, port, &b""[..]);
        if filters_match(&self.filters, &probe, self.now) {
            return Err(TcpError::Unreachable);
        }
        // Keyed on (time, target, request) like the UDP loss roll, so
        // concurrent campaigns cannot shift each other's TCP outcomes.
        let key = tcp_key(self.now, dst_ip, port, req);
        if let Some(fs) = &mut self.faults {
            if let Some(cause) = fs.tcp_fault(self.now, dst_ip, key) {
                self.fault_stats.bump(cause);
                // A gone path is unreachable; a silent host times out.
                return Err(match cause {
                    DropCause::Outage => TcpError::Unreachable,
                    _ => TcpError::Timeout,
                });
            }
        }
        let roll = mix64(self.cfg.seed, TCP_CHANNEL, key) as f64 / u64::MAX as f64;
        if roll < self.cfg.tcp_loss {
            return Err(TcpError::Timeout);
        }
        self.host_at(dst_ip).ok_or(TcpError::Unreachable)
    }

    /// Issue a synchronous TCP request at the current simulated time.
    pub fn tcp_query(
        &mut self,
        dst_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Result<TcpResponse, TcpError> {
        let host = self.tcp_admit(dst_ip, port, req)?;
        self.hosts[host.0 as usize]
            .on_tcp(self.now, dst_ip, port, req)
            .ok_or(TcpError::Refused)
    }
}

/// Does any active filter drop this datagram at time `at`? `filters`
/// is sorted by `active_from`, so only the prefix already active is
/// examined.
fn filters_match(filters: &[Filter], dgram: &Datagram, at: SimTime) -> bool {
    let src = u32::from(dgram.src_ip);
    let dst = u32::from(dgram.dst_ip);
    let active = filters.partition_point(|f| f.active_from <= at);
    filters[..active].iter().any(|f| {
        let range_hit = |v: u32| (f.lo..=f.hi).contains(&v);
        let dir_hit = match f.direction {
            FilterDirection::Inbound => range_hit(dst),
            FilterDirection::Outbound => range_hit(src),
            FilterDirection::Both => range_hit(dst) || range_hit(src),
        };
        if !dir_hit {
            return false;
        }
        match f.peer {
            None => true,
            Some((plo, phi)) => {
                // The endpoint *not* matched by the range must fall
                // into the peer range for the filter to apply.
                let other = if range_hit(dst) { src } else { dst };
                (plo..=phi).contains(&other)
            }
        }
    })
}

/// Deterministic one-way latency for a packet, a pure function of the
/// config and flow identity.
fn path_latency(cfg: &NetworkConfig, src: Ipv4Addr, dst: Ipv4Addr, key: u64) -> u64 {
    let (lo, hi) = cfg.latency_ms;
    if hi <= lo {
        return lo;
    }
    // Stable per /16-pair base latency + small per-packet jitter,
    // keyed on the same flow identity as the loss roll.
    let a = u32::from(src) >> 16;
    let b = u32::from(dst) >> 16;
    let base = mix64(cfg.seed, a as u64, b as u64) % (hi - lo);
    let jitter = mix64(cfg.seed, JITTER_CHANNEL, key) % 5;
    lo + base + jitter
}

/// SplitMix64-style mixing of three words — the deterministic source of
/// all per-packet randomness (shared with the fault layer).
pub(crate) fn mix64(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xbf58476d1ce4e5b9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Channel discriminators keeping loss, jitter, and TCP rolls mutually
/// independent even when drawn from the same flow key.
const LOSS_CHANNEL: u64 = 0x1055;
const JITTER_CHANNEL: u64 = 0x117e4;
const TCP_CHANNEL: u64 = 0x7c9;

/// A datagram's deterministic flow identity: send time, endpoints, and
/// payload. Two sends are keyed identically only if they are the same
/// packet sent at the same instant — so per-packet randomness depends
/// on the packet alone, never on unrelated traffic.
fn flow_key(at: SimTime, d: &Datagram) -> u64 {
    let ends = ((u32::from(d.src_ip) as u64) << 32) | u32::from(d.dst_ip) as u64;
    let ports = ((d.src_port as u64) << 16) | d.dst_port as u64;
    mix64(at.millis(), ends, mix64(ports, fnv64(&d.payload), 0))
}

/// Flow identity of a TCP exchange: time, target endpoint, and the
/// request's content.
fn tcp_key(now: SimTime, dst: Ipv4Addr, port: u16, req: &TcpRequest) -> u64 {
    let which = match req {
        TcpRequest::BannerProbe => 1,
        TcpRequest::Http(h) => {
            let sni = h.sni.as_deref().map_or(0, |s| fnv64(s.as_bytes()));
            mix64(
                fnv64(h.host.as_bytes()),
                fnv64(h.path.as_bytes()),
                ((h.tls as u64) << 1) | 2,
            )
            .wrapping_add(sni)
        }
        TcpRequest::MailProbe(p) => match p {
            crate::host::MailProto::Smtp => 3,
            crate::host::MailProto::Imap => 4,
            crate::host::MailProto::Pop3 => 5,
        },
    };
    mix64(
        now.millis(),
        ((u32::from(dst) as u64) << 16) | port as u64,
        which,
    )
}

/// FNV-1a over a byte slice, for hashing payloads into flow keys.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{EchoHost, FnHost};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn lossless() -> NetworkConfig {
        NetworkConfig {
            seed: 1,
            udp_loss: 0.0,
            latency_ms: (5, 50),
            tcp_loss: 0.0,
        }
    }

    #[test]
    fn udp_round_trip_via_echo_host() {
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"ping"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        let (at, reply) = net.recv(sock).unwrap().expect("echo reply");
        assert_eq!(&reply.payload[..], b"ping");
        assert_eq!(reply.src_ip, ip("9.9.9.9"));
        assert!(at.millis() >= 10, "two path traversals take time");
        assert!(net.recv(sock).unwrap().is_none());
    }

    #[test]
    fn unbound_ip_drops_silently() {
        let mut net = Network::new(lossless());
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("8.8.8.8"), 53, &b"x"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        assert!(net.recv(sock).unwrap().is_none());
        assert_eq!(net.stats().udp_unbound, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = NetworkConfig {
                seed,
                udp_loss: 0.3,
                ..Default::default()
            };
            let mut net = Network::new(cfg);
            let h = net.add_host(Box::new(EchoHost));
            net.bind_ip(ip("9.9.9.9"), h);
            let sock = net.open_socket(ip("100.0.0.1"), 40000);
            for i in 0..200u16 {
                net.send(
                    Datagram::new(
                        ip("100.0.0.1"),
                        40000,
                        ip("9.9.9.9"),
                        53,
                        i.to_be_bytes().to_vec(),
                    ),
                    None,
                );
            }
            net.run_until(SimTime::from_secs(30));
            net.recv_all(sock)
                .unwrap()
                .into_iter()
                .map(|(t, d)| (t, d.payload.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn loss_rate_roughly_honored() {
        let mut cfg = lossless();
        cfg.udp_loss = 0.5;
        let mut net = Network::new(cfg);
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        for i in 0..1000u16 {
            net.send(
                Datagram::new(
                    ip("100.0.0.1"),
                    40000,
                    ip("9.9.9.9"),
                    53,
                    i.to_be_bytes().to_vec(),
                ),
                None,
            );
        }
        net.run_until(SimTime::from_secs(60));
        // Loss applies independently to the query and the reply, so the
        // round-trip survival rate is (1-p)^2 = 0.25.
        let received = net.recv_all(sock).unwrap().len();
        assert!((150..350).contains(&received), "received={received}");
        let lost = net.stats().udp_lost;
        assert!((650..850).contains(&lost), "lost={lost}");
    }

    #[test]
    fn rebinding_moves_traffic_to_new_host() {
        let mut net = Network::new(lossless());
        let a = net.add_host(Box::new(FnHost(|ctx: &mut HostCtx<'_>, d: &Datagram| {
            ctx.send_udp(d.reply_with(&b"host-a"[..]));
        })));
        let b = net.add_host(Box::new(FnHost(|ctx: &mut HostCtx<'_>, d: &Datagram| {
            ctx.send_udp(d.reply_with(&b"host-b"[..]));
        })));
        let target = ip("9.9.9.9");
        net.bind_ip(target, a);
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, target, 53, &b"q1"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(2));
        net.bind_ip(target, b);
        assert_eq!(net.ips_of(a), &[] as &[Ipv4Addr]);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, target, 53, &b"q2"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(4));
        let replies: Vec<_> = net
            .recv_all(sock)
            .unwrap()
            .into_iter()
            .map(|(_, d)| d.payload.to_vec())
            .collect();
        assert_eq!(replies, vec![b"host-a".to_vec(), b"host-b".to_vec()]);
    }

    #[test]
    fn filters_activate_at_configured_time() {
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        net.add_filter(
            ip("9.9.0.0"),
            ip("9.9.255.255"),
            FilterDirection::Inbound,
            SimTime::from_days(7),
        );
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        // Before activation: works.
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"a"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.recv_all(sock).unwrap().len(), 1);
        // After activation: dropped.
        net.advance_to(SimTime::from_days(8));
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"b"[..]),
            None,
        );
        net.run_until(SimTime::from_days(8) + SimTime::MINUTE);
        assert!(net.recv(sock).unwrap().is_none());
        assert!(net.stats().udp_filtered >= 1);
    }

    #[test]
    fn outbound_filter_blocks_replies_only() {
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        // Egress filtering of the 9.9/16 range from t=0: queries get in,
        // responses never leave.
        net.add_filter(
            ip("9.9.0.0"),
            ip("9.9.255.255"),
            FilterDirection::Outbound,
            SimTime::ZERO,
        );
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"a"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        assert!(net.recv(sock).unwrap().is_none());
        assert_eq!(
            net.stats().udp_delivered,
            1,
            "query was delivered to the host"
        );
    }

    #[test]
    fn injector_races_ahead() {
        struct Forger;
        impl PathObserver for Forger {
            fn on_transit(&mut self, _now: SimTime, d: &Datagram) -> Vec<(u64, Datagram)> {
                // Match *queries* only (port 53), like the real GFW —
                // otherwise the injector would also fire on the reply.
                if d.dst_port == 53 && &d.payload[..] == b"censored?" {
                    vec![(1, d.reply_with(&b"forged"[..]))]
                } else {
                    vec![]
                }
            }
        }
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        net.add_injector(Box::new(Forger));
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"censored?"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        let replies: Vec<_> = net
            .recv_all(sock)
            .unwrap()
            .into_iter()
            .map(|(t, d)| (t, d.payload.to_vec()))
            .collect();
        // Both the forged and the real (echoed) response arrive; the
        // forged one arrives strictly first.
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].1, b"forged".to_vec());
        assert_eq!(replies[1].1, b"censored?".to_vec());
        assert!(replies[0].0 < replies[1].0);
    }

    #[test]
    fn tcp_query_semantics() {
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        // Open port.
        let r = net
            .tcp_query(ip("9.9.9.9"), 7, &TcpRequest::BannerProbe)
            .unwrap();
        assert_eq!(r.as_banner(), Some("echo"));
        // Closed port.
        assert_eq!(
            net.tcp_query(ip("9.9.9.9"), 80, &TcpRequest::BannerProbe),
            Err(TcpError::Refused)
        );
        // Unbound address.
        assert_eq!(
            net.tcp_query(ip("8.8.8.8"), 7, &TcpRequest::BannerProbe),
            Err(TcpError::Unreachable)
        );
        // Faults: a downed host times out, a downed prefix is
        // unreachable, and each counts under its cause.
        use crate::faults::{FaultEvent, FaultPlan, FaultStats};
        net.bind_ip(ip("9.9.8.8"), h);
        let (from, until) = (SimTime::ZERO, SimTime::from_days(1));
        net.set_fault_plan(FaultPlan {
            events: vec![
                FaultEvent::HostDown {
                    ip: ip("9.9.9.9"),
                    from,
                    until,
                },
                FaultEvent::PrefixDown {
                    lo: ip("9.9.8.0"),
                    hi: ip("9.9.8.255"),
                    from,
                    until,
                },
            ],
            ..FaultPlan::none()
        });
        let probe = |net: &mut Network, to| net.tcp_query(ip(to), 7, &TcpRequest::BannerProbe);
        assert_eq!(probe(&mut net, "9.9.9.9"), Err(TcpError::Timeout));
        assert_eq!(probe(&mut net, "9.9.8.8"), Err(TcpError::Unreachable));
        let counted = FaultStats {
            flap_drops: 1,
            outage_drops: 1,
            ..FaultStats::default()
        };
        assert_eq!(net.fault_stats(), counted);
    }

    #[test]
    fn event_order_is_stable_for_equal_times() {
        // Two packets sent the same tick to the same host must be
        // delivered in send order when latencies tie (same /16 pair).
        let mut net = Network::new(NetworkConfig {
            seed: 3,
            udp_loss: 0.0,
            latency_ms: (10, 10),
            tcp_loss: 0.0,
        });
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        for i in 0..10u8 {
            net.send(
                Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, vec![i]),
                None,
            );
        }
        net.run_until(SimTime::from_secs(5));
        let order: Vec<u8> = net
            .recv_all(sock)
            .unwrap()
            .iter()
            .map(|(_, d)| d.payload[0])
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn fault_plan_host_down_window_drops_and_is_otherwise_transparent() {
        use crate::faults::{FaultEvent, FaultPlan};
        let run = |plan: Option<FaultPlan>| {
            let mut net = Network::new(lossless());
            let h = net.add_host(Box::new(EchoHost));
            net.bind_ip(ip("9.9.9.9"), h);
            if let Some(p) = plan {
                net.set_fault_plan(p);
            }
            let sock = net.open_socket(ip("100.0.0.1"), 40000);
            for i in 0..5u64 {
                net.send(
                    Datagram::new(
                        ip("100.0.0.1"),
                        40000,
                        ip("9.9.9.9"),
                        53,
                        i.to_be_bytes().to_vec(),
                    ),
                    Some(SimTime::from_secs(i * 10)),
                );
            }
            net.run_until(SimTime::from_secs(120));
            let got: Vec<_> = net
                .recv_all(sock)
                .unwrap()
                .into_iter()
                .map(|(t, d)| (t, d.payload.to_vec()))
                .collect();
            (got, net.fault_stats())
        };
        let (baseline, base_stats) = run(None);
        assert_eq!(baseline.len(), 5);
        assert_eq!(base_stats, crate::faults::FaultStats::default());

        // Host down over [15s, 35s): probes at 20s and 30s die, both
        // ways; everything else is byte- and time-identical.
        let down = FaultPlan {
            events: vec![FaultEvent::HostDown {
                ip: ip("9.9.9.9"),
                from: SimTime::from_secs(15),
                until: SimTime::from_secs(35),
            }],
            seed: 9,
            ..FaultPlan::none()
        };
        let (with_fault, stats) = run(Some(down));
        assert_eq!(stats.flap_drops, 2);
        let expected: Vec<_> = baseline
            .iter()
            .filter(|(t, _)| t.millis() < 15_000 || t.millis() >= 35_000)
            .cloned()
            .collect();
        assert_eq!(with_fault, expected);

        // A plan whose only event never overlaps the traffic changes
        // nothing at all — delivery times included.
        let dormant = FaultPlan {
            events: vec![FaultEvent::HostDown {
                ip: ip("9.9.9.9"),
                from: SimTime::from_days(300),
                until: SimTime::from_days(301),
            }],
            seed: 9,
            ..FaultPlan::none()
        };
        let (with_dormant, stats) = run(Some(dormant));
        assert_eq!(stats, crate::faults::FaultStats::default());
        assert_eq!(with_dormant, baseline);
    }

    #[test]
    fn fault_plan_latency_spike_event_delays_but_delivers() {
        use crate::faults::{FaultEvent, FaultPlan};
        let mut net = Network::new(lossless());
        let h = net.add_host(Box::new(EchoHost));
        net.bind_ip(ip("9.9.9.9"), h);
        net.set_fault_plan(FaultPlan {
            events: vec![FaultEvent::LatencySpike {
                lo: ip("9.9.0.0"),
                hi: ip("9.9.255.255"),
                from: SimTime::ZERO,
                until: SimTime::from_secs(60),
                extra_ms: 400,
            }],
            seed: 9,
            ..FaultPlan::none()
        });
        let sock = net.open_socket(ip("100.0.0.1"), 40000);
        net.send(
            Datagram::new(ip("100.0.0.1"), 40000, ip("9.9.9.9"), 53, &b"ping"[..]),
            None,
        );
        net.run_until(SimTime::from_secs(5));
        let (at, reply) = net.recv(sock).unwrap().expect("delayed but delivered");
        assert_eq!(&reply.payload[..], b"ping");
        // Both directions crossed the spiked prefix: ≥800ms extra.
        assert!(at.millis() >= 800, "arrived at {}", at.millis());
        assert_eq!(net.fault_stats().latency_spiked, 2);
    }

    /// The pipeline's stage order, one row per outcome, driven through
    /// `send`. A mis-ordered stage shows in the goldens only as a changed
    /// digest — this table names the rule it broke.
    #[test]
    fn pipeline_stage_order_is_pinned() {
        use crate::faults::{FaultEvent, FaultPlan, FaultStats, FaultWindows, RateLimit};
        struct Forger;
        impl PathObserver for Forger {
            fn on_transit(&mut self, _now: SimTime, d: &Datagram) -> Vec<(u64, Datagram)> {
                if &d.payload[..] == b"censored?" {
                    vec![(10, d.reply_with(&b"forged"[..]))]
                } else {
                    vec![]
                }
            }
        }
        let (bound, dark, walled) = (ip("9.9.9.9"), ip("8.8.8.8"), ip("7.7.7.7"));
        let (from, until) = (SimTime::ZERO, SimTime::from_days(1));
        let host_down = |ip| FaultEvent::HostDown { ip, from, until };
        let spike = |ip| FaultEvent::LatencySpike {
            lo: ip,
            hi: ip,
            from,
            until,
            extra_ms: 400,
        };
        let always_out = FaultWindows {
            window_ms: 1000,
            rate: 1.0,
            duration_ms: (1000, 1001),
        };
        let plan = |events, outages, rate_limit| FaultPlan {
            events,
            outages,
            rate_limit,
            seed: 5,
            ..FaultPlan::none()
        };
        let one_token = Some(RateLimit {
            tokens_per_sec: 1.0,
            burst: 1.0,
        });
        let fresh = |loss, plan: FaultPlan| {
            let mut net = Network::new(NetworkConfig {
                seed: 1,
                udp_loss: loss,
                latency_ms: (10, 10),
                tcp_loss: 0.0,
            });
            let h = net.add_host(Box::new(EchoHost));
            net.bind_ip(bound, h);
            net.add_filter(walled, walled, FilterDirection::Inbound, SimTime::ZERO);
            net.add_injector(Box::new(Forger));
            net.set_fault_plan(plan);
            net
        };
        let query =
            |dst, payload: &[u8]| Datagram::new(ip("100.0.0.1"), 40000, dst, 53, payload.to_vec());
        let sent = NetStats {
            udp_sent: 1,
            ..NetStats::default()
        };
        let two = NetStats {
            udp_sent: 2,
            ..NetStats::default()
        };
        let none = FaultStats::default();
        let _in = telemetry::Telemetry::new().enter();
        telemetry::recorder::enable(1.0, 1, 64);
        telemetry::recorder::set_context("stage-order", 1);
        let drops = || -> Vec<&'static str> {
            let recs = telemetry::recorder::drain();
            recs.iter().map(|r| r.reason).collect()
        };

        // (why, loss, plan, destination, queries sent — a one-byte
        //  payload per character, in order — stats, fault stats, drop
        //  record, payloads scheduled)
        #[rustfmt::skip]
        let table = [
            ("filtered beats dark: the walled address is also unbound",
             0.0, FaultPlan::none(), walled, "q",
             NetStats { udp_filtered: 1, ..sent }, none, None, ""),
            ("dark beats faults: a downed but unbound address is just dark",
             0.0, plan(vec![host_down(dark)], None, None), dark, "q",
             NetStats { udp_unbound: 1, ..sent }, none, None, ""),
            ("explicit HostDown beats the outage window covering it",
             0.0, plan(vec![host_down(bound)], Some(always_out), None), bound, "q",
             NetStats { udp_lost: 1, ..sent }, FaultStats { flap_drops: 1, ..none }, Some("flap"), ""),
            ("a latency spike is counted even when the loss roll eats the packet",
             1.0, plan(vec![spike(bound)], None, None), bound, "q",
             NetStats { udp_lost: 1, ..sent }, FaultStats { latency_spiked: 1, ..none }, Some("loss"), ""),
            ("a one-token bucket delivers the first of two queries and drops the second",
             0.0, plan(vec![], None, one_token.clone()), bound, "12",
             NetStats { udp_lost: 1, ..two }, FaultStats { rate_limit_drops: 1, ..none },
             Some("rate_limit"), "1"),
            ("a query the bucket drops inside a LatencySpike counts no spike",
             0.0, plan(vec![spike(bound)], None, one_token), bound, "12",
             NetStats { udp_lost: 1, ..two },
             FaultStats { rate_limit_drops: 1, latency_spiked: 1, ..none },
             Some("rate_limit"), "1"),
        ];
        for (why, loss, plan, dst, sends, stats, faults, drop, scheduled) in table {
            let mut net = fresh(loss, plan);
            for p in sends.bytes() {
                net.send(query(dst, &[p]), None);
            }
            assert_eq!(net.stats(), stats, "{why}");
            assert_eq!(net.fault_stats(), faults, "{why}");
            assert_eq!(drops(), Vec::from_iter(drop), "{why}");
            let queued: Vec<u8> = net.events.iter().map(|e| e.0.dgram.payload[0]).collect();
            assert_eq!(queued, scheduled.as_bytes(), "{why}");
        }

        // An observer injection is scheduled — and takes its `seq` —
        // before the packet's own outcome: forged reply and query land
        // at the same instant, and the forged one pops first.
        let mut net = fresh(0.0, FaultPlan::none());
        net.send(query(bound, b"censored?"), None);
        let scheduled = NetStats {
            injected: 1,
            ..sent
        };
        assert_eq!((net.stats(), net.fault_stats()), (scheduled, none));
        let Reverse(head) = net.events.pop().unwrap();
        assert_eq!(
            (head.at, head.seq, &head.dgram.payload[..]),
            (SimTime(10), 1, &b"forged"[..])
        );
        let Reverse(next) = net.events.pop().unwrap();
        assert_eq!((next.at, next.seq), (SimTime(10), 2));
        assert!(drops().is_empty());
        telemetry::recorder::disable();
    }

    proptest::proptest! {
        /// Filters are stored sorted by activation time and only the
        /// active prefix is walked: that must agree with asking every
        /// filter, in the order the caller installed them, whether it
        /// is active and hits.
        #[test]
        fn filters_match_equals_brute_force_over_any_insertion_order(
            specs in proptest::collection::vec(
                (0u32..64, 0u32..16, 0u8..3, 0u64..8, proptest::prelude::any::<bool>(), 0u32..64, 0u32..16),
                0..12,
            ),
            probes in proptest::collection::vec((0u32..64, 0u32..64, 0u64..10), 1..24),
        ) {
            let mut net = Network::new(lossless());
            for &(lo, span, dir, from, paired, plo, pspan) in &specs {
                let (lo_ip, hi_ip) = (Ipv4Addr::from(lo), Ipv4Addr::from(lo + span));
                if paired {
                    let (a, b) = (Ipv4Addr::from(plo), Ipv4Addr::from(plo + pspan));
                    net.add_pair_filter(lo_ip, hi_ip, a, b, SimTime(from));
                } else {
                    let direction = [
                        FilterDirection::Inbound,
                        FilterDirection::Outbound,
                        FilterDirection::Both,
                    ][dir as usize];
                    net.add_filter(lo_ip, hi_ip, direction, SimTime(from));
                }
            }
            for &(src, dst, at) in &probes {
                let brute = specs.iter().any(|&(lo, span, dir, from, paired, plo, pspan)| {
                    let within = |v: u32| lo <= v && v <= lo + span;
                    if at < from {
                        false
                    } else if paired {
                        // Both directions, and the endpoint the range
                        // did not claim must sit in the peer range.
                        let other = if within(dst) { src } else { dst };
                        (within(dst) || within(src)) && plo <= other && other <= plo + pspan
                    } else {
                        match dir {
                            0 => within(dst),
                            1 => within(src),
                            _ => within(dst) || within(src),
                        }
                    }
                });
                let d = Datagram::new(Ipv4Addr::from(src), 1, Ipv4Addr::from(dst), 53, &b""[..]);
                proptest::prop_assert_eq!(
                    filters_match(&net.filters, &d, SimTime(at)),
                    brute,
                    "src={} dst={} at={} specs={:?}", src, dst, at, specs
                );
            }
            let order: Vec<SimTime> = net.filters.iter().map(|f| f.active_from).collect();
            proptest::prop_assert!(order.windows(2).all(|w| w[0] <= w[1]), "sorted: {:?}", order);
        }
    }
}
