//! What a sweep's datagrams travel over: a simulated Internet, or real
//! UDP sockets.
//!
//! `campaign::sweep` is the one loop that sends probes and sorts what
//! comes back into its buckets. A [`Transport`] only opens a port
//! block, moves datagrams and reads a clock. Two implement it:
//!
//! * every [`Vantage`] — a simulated world seen from the scanner's side,
//!   implemented by `worldgen::World` in its own crate — carries a
//!   sweep through netsim on a [`SimScanner`], in simulated time. It is
//!   the path every campaign of the reproduction runs, statically
//!   dispatched.
//! * [`Udp`] carries it over `std::net::UdpSocket`s, in wall time. It runs
//!   the sweep's schedule with every wait divided by [`WALL_DIVISOR`].
//!   Tests and the `loopback_scan` example aim it at
//!   `resolversim::loopback` fleets.

use crate::simio::{ProbeBatch, SimScanner};
use netsim::{Datagram, SimTime, Vantage};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

/// Arrivals at a port block: `(port offset, arrival, datagram)`.
pub type Arrivals = Vec<(u16, SimTime, Datagram)>;

/// The network under a sweep.
pub trait Transport {
    /// The scanner's sockets, from open to close.
    type Block;

    /// Open a port block on `vantage`.
    fn open(&mut self, vantage: Ipv4Addr) -> Self::Block;

    /// Send every probe of `batch`, leaving it empty for reuse.
    fn send(&mut self, block: &mut Self::Block, batch: &mut ProbeBatch);

    /// Let `ms` pass, then return how many datagrams were delivered
    /// meanwhile and what reached the block, in arrival order.
    fn wait(&mut self, block: &mut Self::Block, ms: u64) -> (u64, Arrivals);

    /// The clock the campaigns stamp their records with.
    fn now(&self) -> SimTime;

    /// The AS that `ip` sits in, 0 if none is known.
    fn asn_at(&self, ip: Ipv4Addr) -> u32;

    /// Close the port block.
    fn close(&mut self, block: Self::Block);
}

impl<V: Vantage> Transport for V {
    type Block = SimScanner;

    fn open(&mut self, vantage: Ipv4Addr) -> SimScanner {
        SimScanner::open(self, vantage)
    }

    fn send(&mut self, block: &mut SimScanner, batch: &mut ProbeBatch) {
        block.send_probes(self, batch);
    }

    fn wait(&mut self, block: &mut SimScanner, ms: u64) -> (u64, Arrivals) {
        let delivered = block.pump(self, ms).delivered;
        (delivered, block.drain(self))
    }

    /// The world's clock, which a sweep's pumps do not move.
    fn now(&self) -> SimTime {
        Vantage::now(self)
    }

    fn asn_at(&self, ip: Ipv4Addr) -> u32 {
        self.asn(ip)
    }

    fn close(&mut self, block: SimScanner) {
        block.close(self);
    }
}

/// How many times shorter a wait on real sockets is than the sweep's
/// schedule asks. The pump, grace and backoff waits are sized for
/// netsim's 10–180 ms round trips; on loopback a round trip takes
/// microseconds plus a resolver's 1–7 ms of processing, so a 5 s grace
/// becomes 100 ms. The clock runs this many times faster than wall
/// time, so a wait of `ms` still advances [`Transport::now`] by about
/// `ms`.
pub const WALL_DIVISOR: u64 = 50;

/// How long a wait sleeps after a pass over the sockets found nothing.
const NAP: Duration = Duration::from_millis(1);

/// Real UDP: every probe goes to `port` on its target, from a socket
/// of the vantage's.
///
/// # Panics
///
/// A send panics when the vantage cannot give it a socket (not an
/// address of this host, or no descriptors left): a scan that cannot
/// send would read every resolver as silent.
pub struct Udp {
    port: u16,
    start: Instant,
}

impl Udp {
    /// A transport to the resolvers serving on `port`; its clock starts
    /// now.
    pub fn new(port: u16) -> Udp {
        Udp {
            port,
            start: Instant::now(),
        }
    }
}

/// A port block on real sockets: one per port offset sent from, bound
/// on the vantage to a port the kernel picks, so an answer's offset is
/// the socket it arrives on, as on netsim.
pub struct Sockets {
    vantage: Ipv4Addr,
    by_offset: Vec<Option<(UdpSocket, SocketAddrV4)>>,
}

impl Transport for Udp {
    type Block = Sockets;

    fn open(&mut self, vantage: Ipv4Addr) -> Sockets {
        let by_offset = (0..crate::encode::PORT_SPAN).map(|_| None).collect();
        Sockets { vantage, by_offset }
    }

    /// A send the kernel refuses is a probe lost on the way.
    fn send(&mut self, block: &mut Sockets, batch: &mut ProbeBatch) {
        let (buf, probes) = batch.probes();
        for (offset, dst, payload) in probes {
            let (socket, _) = block.by_offset[usize::from(offset)].get_or_insert_with(|| {
                let bound = UdpSocket::bind((block.vantage, 0)).and_then(|socket| {
                    socket.set_nonblocking(true)?;
                    match socket.local_addr()? {
                        SocketAddr::V4(local) => Ok((socket, local)),
                        SocketAddr::V6(_) => unreachable!("bound V4"),
                    }
                });
                let vantage = block.vantage;
                bound.unwrap_or_else(|e| panic!("no scanner socket on {vantage}: {e}"))
            });
            let _ = socket.send_to(&buf[payload], (dst, self.port));
        }
        batch.clear();
    }

    /// Drains every socket until the wall-time deadline, napping only
    /// after a pass that found nothing. A receive error is no datagram.
    fn wait(&mut self, block: &mut Sockets, ms: u64) -> (u64, Arrivals) {
        let deadline = Instant::now() + Duration::from_micros(ms * 1_000 / WALL_DIVISOR);
        let mut arrivals = Vec::new();
        let mut buf = vec![0u8; 65_536];
        loop {
            let before = arrivals.len();
            for (offset, socket) in block.by_offset.iter().enumerate() {
                let Some((socket, local)) = socket else {
                    continue;
                };
                while let Ok((len, SocketAddr::V4(peer))) = socket.recv_from(&mut buf) {
                    let dgram = Datagram::new(
                        *peer.ip(),
                        peer.port(),
                        *local.ip(),
                        local.port(),
                        buf[..len].to_vec(),
                    );
                    arrivals.push((offset as u16, self.now(), dgram));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            if arrivals.len() == before {
                std::thread::sleep(left.min(NAP));
            }
        }
        arrivals.sort_by_key(|(_, at, _)| *at);
        (arrivals.len() as u64, arrivals)
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64 * WALL_DIVISOR / 1_000)
    }

    /// A real address comes with no AS.
    fn asn_at(&self, _ip: Ipv4Addr) -> u32 {
        0
    }

    fn close(&mut self, block: Sockets) {
        drop(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chaos_scan, scan_domains_streaming_with_policy};
    use crate::{ChaosObservation, ProbePolicy, TupleObs};
    use dnswire::Rcode;
    use resolversim::loopback::spawn_fleet;
    use resolversim::{
        CacheProfile, ChaosPolicy, DeviceProfile, DnsUniverse, DomainCategory, DomainKind,
        DomainRecord, ResolverBehavior, ResolverHost, SoftwareProfile, TldCacheSim,
    };
    use std::sync::Arc;

    fn host(behavior: ResolverBehavior, version: &str) -> ResolverHost {
        let mut u = DnsUniverse::new();
        u.add_domain(DomainRecord {
            name: "probe.example".into(),
            category: DomainCategory::Misc,
            kind: DomainKind::Fixed(vec![Ipv4Addr::new(198, 51, 100, 77)]),
            ttl: 60,
            is_mail_host: false,
        });
        ResolverHost::new(
            Arc::new(u),
            behavior,
            SoftwareProfile::new("BIND", version, ChaosPolicy::Genuine),
            DeviceProfile::closed(),
            TldCacheSim::new(CacheProfile::EmptyAnswer),
            geodb::Rir::Ripe,
            7,
        )
    }

    /// The domain scan of one name over every address at `port`.
    fn scan(port: u16, resolvers: &[Ipv4Addr]) -> Vec<TupleObs> {
        let mut tuples = Vec::new();
        let domains = ["probe.example".to_string()];
        let (policy, sink) = (ProbePolicy::single(), &mut |t| tuples.push(t));
        let (net, vantage) = (&mut Udp::new(port), Ipv4Addr::LOCALHOST);
        scan_domains_streaming_with_policy(net, vantage, resolvers, &domains, 1, &policy, sink);
        tuples
    }

    /// Sec. 2.2 + 2.4 on loopback: find the open resolvers, then
    /// fingerprint them with CHAOS.
    #[test]
    fn loopback_enumerate_and_fingerprint() {
        let fleet = spawn_fleet(
            vec![
                host(ResolverBehavior::Honest, "9.8.2"),
                host(ResolverBehavior::RefusedAll, "9.9.5"),
                host(ResolverBehavior::Honest, "9.3.6"),
            ],
            SocketAddrV4::new(Ipv4Addr::new(127, 0, 3, 1), 0),
        )
        .unwrap();
        let port = fleet[0].local_addr.port();
        let targets: Vec<Ipv4Addr> = fleet.iter().map(|s| *s.local_addr.ip()).collect();

        let results = scan(port, &targets);
        let open: Vec<Ipv4Addr> = results
            .iter()
            .filter(|t| t.rcode == Rcode::NoError)
            .map(|t| t.resolver_ip)
            .collect();
        let (policy, sink) = (ProbePolicy::single(), &mut scanstore::NullSink);
        let (net, vantage) = (&mut Udp::new(port), Ipv4Addr::LOCALHOST);
        let (versions, _) = chaos_scan(net, vantage, &open, 2, &policy, sink);

        assert_eq!(results.len(), 3);
        let noerror = results.iter().filter(|t| t.rcode == Rcode::NoError);
        let refused = results.iter().filter(|t| t.rcode == Rcode::Refused);
        assert_eq!(noerror.count(), 2);
        assert_eq!(refused.count(), 1);
        let versions: Vec<&str> = versions
            .values()
            .filter_map(|obs| match obs {
                ChaosObservation::Version(v) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        assert!(versions.contains(&"BIND 9.8.2"));
        assert!(versions.contains(&"BIND 9.3.6"));

        for s in fleet {
            s.shutdown();
        }
    }

    #[test]
    fn unresponsive_targets_do_not_hang() {
        // Nothing listens on this port (bind+drop to find a free one).
        let free = {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.local_addr().unwrap().port()
        };
        let results = scan(free, &[Ipv4Addr::LOCALHOST]);
        assert!(results.is_empty());
    }
}
