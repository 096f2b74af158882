//! The scanner's socket block on a simulated [`Vantage`]'s network.
//!
//! Sweeps send through a [`ProbeBatch`]: payloads are written back to
//! back into one buffer the batch keeps between sends, and each send
//! shares one copy of that buffer among the batch's datagrams as
//! [`Bytes::slice`] views — one allocation per batch (the shared
//! copy), none per probe.

use bytes::Bytes;
use netsim::{Datagram, RunReport, SimTime, SocketHandle, Vantage};
use std::net::Ipv4Addr;
use std::ops::Range;

/// Base port of the scanner's 512-port block (9 encoded bits).
pub const BASE_PORT: u16 = 40_000;

/// Probes waiting to be sent to port 53, payloads back to back in one
/// reused buffer.
#[derive(Default)]
pub struct ProbeBatch {
    buf: Vec<u8>,
    /// `(port-block offset, target, end of its payload in buf)`, in
    /// send order.
    probes: Vec<(u16, Ipv4Addr, usize)>,
}

impl ProbeBatch {
    /// Number of pending probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Queue a `len`-byte probe from port-block offset `offset` to
    /// `dst` and return its payload slot, zeroed, for the caller to
    /// fill.
    pub fn push(&mut self, offset: u16, dst: Ipv4Addr, len: usize) -> &mut [u8] {
        debug_assert!(offset < crate::encode::PORT_SPAN);
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        self.probes.push((offset, dst, start + len));
        &mut self.buf[start..]
    }

    /// The payloads back to back, and every pending probe as
    /// `(port-block offset, target, its payload's range)`, in send
    /// order: what each transport walks to send the batch.
    pub(crate) fn probes(
        &self,
    ) -> (
        &[u8],
        impl Iterator<Item = (u16, Ipv4Addr, Range<usize>)> + '_,
    ) {
        let mut start = 0;
        let probes = self.probes.iter().map(move |&(offset, dst, end)| {
            let payload = start..end;
            start = end;
            (offset, dst, payload)
        });
        (&self.buf, probes)
    }

    /// Forget every pending probe, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.probes.clear();
    }
}

/// A scanning endpoint: 512 UDP sockets on one vantage address.
pub struct SimScanner {
    vantage: Ipv4Addr,
    sockets: Vec<SocketHandle>,
}

impl SimScanner {
    /// Open the port block on `vantage`.
    pub fn open(world: &mut impl Vantage, vantage: Ipv4Addr) -> Self {
        let sockets = (0..crate::encode::PORT_SPAN)
            .map(|off| world.net().open_socket(vantage, BASE_PORT + off))
            .collect();
        SimScanner { vantage, sockets }
    }

    /// Send a DNS payload to `dst:53` from port-block offset `offset`.
    pub fn send(&self, world: &mut impl Vantage, offset: u16, dst: Ipv4Addr, payload: Vec<u8>) {
        debug_assert!(offset < crate::encode::PORT_SPAN);
        world.net().send(
            Datagram::new(self.vantage, BASE_PORT + offset, dst, 53, payload),
            None,
        );
    }

    /// Send a whole probe batch to port 53, leaving `batch` empty for
    /// reuse. Identical to calling [`SimScanner::send`] per target,
    /// except that the payloads share one allocation.
    pub fn send_probes(&self, world: &mut impl Vantage, batch: &mut ProbeBatch) {
        if batch.is_empty() {
            return;
        }
        let (buf, probes) = batch.probes();
        let (net, payloads) = (world.net(), Bytes::copy_from_slice(buf));
        for (offset, dst, payload) in probes {
            let payload = payloads.slice(payload);
            net.send(
                Datagram::new(self.vantage, BASE_PORT + offset, dst, 53, payload),
                None,
            );
        }
        batch.clear();
    }

    /// [`SimScanner::send_probes`] for payloads the caller already
    /// owns: they are copied into a batch buffer and sent the same way.
    pub fn send_batch(
        &self,
        world: &mut impl Vantage,
        offset: u16,
        batch: Vec<(Ipv4Addr, Vec<u8>)>,
    ) {
        let mut probes = ProbeBatch::default();
        for (dst, payload) in batch {
            probes
                .push(offset, dst, payload.len())
                .copy_from_slice(&payload);
        }
        self.send_probes(world, &mut probes);
    }

    /// Let the simulation run for `ms` of virtual time, reporting what
    /// the engine actually did.
    pub fn pump(&self, world: &mut impl Vantage, ms: u64) -> RunReport {
        let net = world.net();
        let target = SimTime(net.now().millis() + ms);
        net.run_until(target)
    }

    /// Close the port block (campaigns call this when done).
    pub fn close(&self, world: &mut impl Vantage) {
        for sock in &self.sockets {
            world
                .net()
                .close_socket(*sock)
                .expect("scanner port block closed twice");
        }
    }

    /// Drain all received datagrams as `(port_offset, time, datagram)`.
    pub fn drain(&self, world: &mut impl Vantage) -> Vec<(u16, SimTime, Datagram)> {
        let (net, mut out) = (world.net(), Vec::new());
        for (off, sock) in self.sockets.iter().enumerate() {
            while let Some((t, d)) = net.recv(*sock).expect("scanner socket still open") {
                out.push((off as u16, t, d));
            }
        }
        // Merge in arrival order — netsim queues are per-socket FIFO.
        out.sort_by_key(|(_, t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{build_world, WorldConfig};

    #[test]
    fn port_block_round_trip() {
        let mut w = build_world(WorldConfig::tiny(3));
        let vantage = w.scanner_ip;
        let scanner = SimScanner::open(&mut w, vantage);
        // Echo through a real resolver: query an honest one.
        let meta = w
            .resolvers
            .iter()
            .find(|m| m.behavior == worldgen::BehaviorKind::Honest && m.spawn_week == 0)
            .unwrap();
        let ip = w.resolver_ip(meta).unwrap();
        let (msg, _) = crate::encode::enumeration_query(ip, &w.catalog.scan_zone.clone(), 1);
        scanner.send(&mut w, 7, ip, msg.encode());
        let report = scanner.pump(&mut w, 3_000);
        assert!(report.delivered >= 1, "query and reply moved: {report:?}");
        let got = scanner.drain(&mut w);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 7, "reply arrives on the sending port");
    }

    /// A reused batch, owned payloads and one `send` per target are
    /// three spellings of the same sends.
    #[test]
    fn batched_sends_match_per_probe_sends() {
        let run = |mode: u8| {
            let mut w = build_world(WorldConfig::tiny(3));
            let vantage = w.scanner_ip;
            let scanner = SimScanner::open(&mut w, vantage);
            let tmpl = crate::encode::EnumProbeTemplate::new(&w.catalog.scan_zone.clone(), 5);
            let targets: Vec<Ipv4Addr> = w
                .resolvers
                .iter()
                .filter(|m| m.spawn_week == 0)
                .map(|m| m.initial_ip)
                .take(40)
                .collect();
            let mut batch = ProbeBatch::default();
            for half in targets.chunks(25) {
                match mode {
                    0 => half
                        .iter()
                        .for_each(|&ip| scanner.send(&mut w, 3, ip, tmpl.probe(ip))),
                    1 => {
                        let owned = half.iter().map(|&ip| (ip, tmpl.probe(ip))).collect();
                        scanner.send_batch(&mut w, 3, owned);
                    }
                    _ => {
                        for &ip in half {
                            tmpl.stamp(ip, batch.push(3, ip, tmpl.probe_len()));
                        }
                        assert_eq!(batch.len(), half.len());
                        scanner.send_probes(&mut w, &mut batch);
                        assert!(batch.is_empty());
                    }
                }
            }
            scanner.pump(&mut w, 3_000);
            (scanner.drain(&mut w), w.net.stats())
        };
        let reference = run(0);
        assert!(reference.0.len() > 20, "replies came back");
        assert_eq!(run(1), reference);
        assert_eq!(run(2), reference);
    }
}
