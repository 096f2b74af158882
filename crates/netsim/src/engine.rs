//! The engine facade: [`NetEngine`] + [`NetHandle`].
//!
//! Everything outside netsim programs against this narrow surface —
//! socket open/close, send, recv, run-until, fault-plan install —
//! instead of the ~30 ad-hoc `Network` methods it used to poke
//! directly. The trait is *sealed*: the single-threaded
//! [`Network`] and the parallel [`crate::sharded::ShardedNet`] are the
//! only implementations, so the contract (and its byte-identical
//! determinism guarantee) cannot be diluted from outside the crate.

use crate::faults::{FaultPlan, FaultStats};
use crate::host::{TcpError, TcpRequest, TcpResponse};
use crate::network::{HostId, NetStats, Network, SocketHandle};
use crate::packet::Datagram;
use crate::sharded::{ShardStats, ShardedNet, StallBound};
use crate::time::SimTime;
use std::net::Ipv4Addr;

/// Typed misuse errors for measurement sockets: the facade reports
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
    /// Horizon stalls: windows the sharded engine closed early at the
    /// conservative lookahead bound. Always 0 on the single-threaded
    /// engine.
    pub stalls: u64,
}

mod sealed {
    /// Seals [`super::NetEngine`] and gives its provided methods the
    /// engine state both implementations share.
    pub trait Sealed {
        fn core(&self) -> &crate::network::Network;
        fn core_mut(&mut self) -> &mut crate::network::Network;
    }
    impl Sealed for crate::network::Network {
        fn core(&self) -> &crate::network::Network {
            self
        }
        fn core_mut(&mut self) -> &mut crate::network::Network {
            self
        }
    }
}
pub(crate) use sealed::Sealed;

/// The network engine contract. Sealed — implemented exactly by
/// [`Network`] (single-threaded reference) and
/// [`crate::sharded::ShardedNet`] (parallel, byte-identical to the
/// reference at any shard count). Both run one engine state through one
/// send pipeline, so everything they answer identically is provided
/// here; an implementation supplies only how events are run, how a
/// batch is evaluated, and where hosts live.
pub trait NetEngine: sealed::Sealed + Send {
    /// Current simulated time.
    fn now(&self) -> SimTime {
        self.core().now
    }

    /// Advance the clock without processing events (any still pending
    /// before `t` are processed first on the next run call). Useful to
    /// jump between weekly scans.
    fn advance_to(&mut self, t: SimTime) {
        let net = self.core_mut();
        net.now = net.now.max(t);
    }

    /// Transport statistics so far.
    fn stats(&self) -> NetStats {
        self.core().stats
    }

    /// Counters of injected faults so far.
    fn fault_stats(&self) -> FaultStats {
        self.core().fault_stats()
    }

    /// Install (or replace) a fault-injection plan.
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core_mut().set_fault_plan(plan)
    }

    /// Enable or disable global-registry instrumentation.
    fn set_instrumentation(&mut self, on: bool) {
        self.core_mut().set_instrumentation(on)
    }

    /// Bind `ip` to `host`, displacing any previous binding of that IP.
    fn bind_ip(&mut self, ip: Ipv4Addr, host: HostId) {
        self.core_mut().bind_ip(ip, host)
    }

    /// Remove the binding of `ip`, if any.
    fn unbind_ip(&mut self, ip: Ipv4Addr) {
        self.core_mut().unbind_ip(ip)
    }

    /// Host currently bound to `ip`.
    fn host_at(&self, ip: Ipv4Addr) -> Option<HostId> {
        self.core().host_at(ip)
    }

    /// IPs currently bound to `host`.
    fn ips_of(&self, host: HostId) -> &[Ipv4Addr] {
        &self.core().host_ips[host.0 as usize]
    }

    /// Number of bound IPs.
    fn binding_count(&self) -> usize {
        self.core().maps.bindings.len()
    }

    /// Open a measurement socket bound to `(ip, port)`.
    fn open_socket(&mut self, ip: Ipv4Addr, port: u16) -> SocketHandle {
        self.core_mut().open_socket(ip, port)
    }

    /// Close a measurement socket. Double close is a typed error.
    fn close_socket(&mut self, sock: SocketHandle) -> Result<(), SocketError> {
        self.core_mut().close_socket(sock)
    }

    /// Send a datagram, either now (`at: None`) or at a given future
    /// departure time.
    fn send(&mut self, dgram: Datagram, at: Option<SimTime>) {
        let net = self.core_mut();
        net.send_at(dgram, at.unwrap_or(net.now))
    }

    /// Send a batch of datagrams at the current time. Semantically
    /// identical to calling [`NetEngine::send`] in order; the sharded
    /// engine evaluates the per-packet pipeline on its workers.
    fn send_many(&mut self, dgrams: Vec<Datagram>);

    /// Receive the next datagram queued on a socket.
    fn recv(&mut self, sock: SocketHandle) -> Result<Option<(SimTime, Datagram)>, SocketError> {
        Ok(self.core_mut().socket_mut(sock)?.queue.pop_front())
    }

    /// Drain all queued datagrams on a socket.
    fn recv_all(&mut self, sock: SocketHandle) -> Result<Vec<(SimTime, Datagram)>, SocketError> {
        Ok(self.core_mut().socket_mut(sock)?.queue.drain(..).collect())
    }

    /// Process all events up to and including time `t`.
    fn run_until(&mut self, t: SimTime) -> RunReport;

    /// Process events until the queue is empty or the clock passes
    /// `deadline`.
    fn run_to_idle(&mut self, deadline: SimTime) -> RunReport {
        if let Some(t) = &self.core().telemetry {
            t.run_to_idle_calls.inc();
        }
        self.run_until(deadline)
    }

    /// Issue a synchronous TCP request at the current simulated time.
    fn tcp_query(
        &mut self,
        dst_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Result<TcpResponse, TcpError>;

    /// How many event-loop shards this engine runs (1 for the
    /// single-threaded reference).
    fn shards(&self) -> usize;

    /// Deterministic per-shard accounting (DESIGN §15): events and
    /// emissions per shard, horizon-stall attribution, the cross-shard
    /// traffic matrix. The single-threaded reference reports a
    /// one-shard view with only the event count populated.
    fn shard_stats(&self) -> ShardStats;
}

impl NetEngine for Network {
    fn send_many(&mut self, dgrams: Vec<Datagram>) {
        for dgram in dgrams {
            self.send_udp(dgram);
        }
    }

    fn run_until(&mut self, t: SimTime) -> RunReport {
        Network::run_until(self, t)
    }

    fn tcp_query(
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

    fn shards(&self) -> usize {
        1
    }

    fn shard_stats(&self) -> ShardStats {
        let mut s = ShardStats::new(1, 0, StallBound::default());
        s.events[0] = self.events_dispatched;
        s
    }
}

/// Owning facade over a boxed engine. `Deref`s to `dyn NetEngine`, so
/// callers holding a `NetHandle` (or a `&mut dyn NetEngine`) use one
/// method set regardless of how many cores the simulation runs on.
pub struct NetHandle {
    inner: Box<dyn NetEngine>,
}

impl NetHandle {
    /// Wrap the single-threaded reference engine.
    pub fn single(net: Network) -> NetHandle {
        NetHandle {
            inner: Box::new(net),
        }
    }

    /// Shard `net` across `shards` worker threads, partitioning hosts
    /// by the allocated `regions` they are bound in. `shards <= 1`
    /// falls back to the reference engine.
    pub fn sharded(net: Network, shards: usize, regions: &[(Ipv4Addr, Ipv4Addr)]) -> NetHandle {
        if shards <= 1 {
            NetHandle::single(net)
        } else {
            NetHandle {
                inner: Box::new(ShardedNet::from_network(net, shards, regions)),
            }
        }
    }
}

impl std::ops::Deref for NetHandle {
    type Target = dyn NetEngine;
    fn deref(&self) -> &(dyn NetEngine + 'static) {
        &*self.inner
    }
}

impl std::ops::DerefMut for NetHandle {
    fn deref_mut(&mut self) -> &mut (dyn NetEngine + 'static) {
        &mut *self.inner
    }
}
