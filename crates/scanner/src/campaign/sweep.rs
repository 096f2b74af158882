//! The one sweep loop behind every UDP campaign.
//!
//! A campaign says what to ask and how to read an answer ([`Campaign`]).
//! This module owns the rest, once: the scanner's port block from open
//! to close, the reused [`ProbeBatch`], the pump cadence, TXID-space
//! recycling, the drain and its accounting, retransmission rounds, the
//! flight-recorder protocol and the counter epilogue. Retransmission
//! round `r` waits `schedule[r]` of the policy's one jittered backoff
//! schedule, keyed per campaign; nothing observed during a scan changes
//! a wait. Where the campaigns differ in numbers, the numbers are the
//! rows of one table, [`Params`].
//!
//! Probes are stamped in one of two places, and sent from one. An
//! [`Inline`] campaign stamps each slot in the loop, because its probe
//! reads the sweep's state. A campaign whose probe depends on its target
//! alone is stamped ahead, on a scoped thread of its own
//! ([`Sweep::scan_ahead`]). Either way the probes leave from this thread
//! with the same [`Sweep::cadence`], so the bytes and the simulated
//! instants do not depend on which thread stamped them.
//!
//! What the probes travel over is a [`Transport`]: the simulated world,
//! or real UDP sockets on the same schedule in wall time.

use crate::encode::QueryTemplate;
use crate::probe::ProbePolicy;
use crate::simio::ProbeBatch;
use crate::transport::Transport;
use dnswire::MessageView;
use netsim::Datagram;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use telemetry::recorder;

/// What the campaigns differ in as numbers; DESIGN §8 mirrors the rows.
/// TXID, port offset and template are the campaign's, in its `stamp`.
pub(crate) struct Params {
    /// Telemetry label and flight-recorder context.
    pub name: &'static str,
    /// A round pumps the network for `pump_ms` after every `batch`
    /// probes; a scan waits `grace_ms` for stragglers once its native
    /// round is out.
    pub batch: usize,
    pub pump_ms: u64,
    pub grace_ms: u64,
    /// TXIDs number the probes in send order, so the 16-bit space is
    /// recycled every [`RECYCLE_EVERY`] probes.
    pub recycles: bool,
    /// Attempts, responses and give-ups go to the flight recorder.
    pub recorded: bool,
    /// Retransmission jitter key: `seed ^ key.0 ^ index << key.1`, the
    /// index being the hourly round or the domain.
    pub key: (u64, u32),
}

pub(crate) const ENUMERATE: Params = Params {
    name: "enumerate",
    batch: 4_096,
    pump_ms: 500,
    grace_ms: 5_000,
    recycles: false,
    recorded: false,
    key: (0, 0), // never retransmits
};
pub(crate) const CHURN: Params = Params {
    name: "churn",
    recorded: true,
    key: (0xC4_0412, 0),
    ..ENUMERATE
};
pub(crate) const CHAOS: Params = Params {
    name: "chaos",
    batch: 2_000,
    pump_ms: 400,
    recycles: true,
    recorded: true,
    key: (0xC4A05, 0),
    ..ENUMERATE
};
pub(crate) const SNOOP: Params = Params {
    name: "snoop",
    batch: 2_000,
    pump_ms: 300,
    recycles: true,
    key: (0x5_0090, 20),
    ..ENUMERATE
};
pub(crate) const DOMAINS: Params = Params {
    name: "domains",
    pump_ms: 400,
    grace_ms: 4_000,
    key: (0xD0_0A15, 16),
    ..ENUMERATE
};

/// Probes between two recyclings of the TXID space; a grace period
/// lets the outstanding ones land first.
const RECYCLE_EVERY: u64 = 60_000;

/// Probes in one chunk a stamper hands over. It divides the batch of
/// every campaign stamped ahead (asserted at compile time), so every pump
/// falls between two chunks.
const CHUNK: usize = 1_024;

/// Full chunks that may wait for the lane. With the one being stamped
/// and the one being sent, at most `AHEAD + 2` chunks exist, however
/// far the stamper could run ahead.
const AHEAD: usize = 4;

/// What a response turned out to be. The address is the probed one.
pub(crate) enum Outcome {
    /// The first answer to a probe.
    Matched(Ipv4Addr),
    /// A further answer to a probe already answered.
    Duplicate(Ipv4Addr),
    /// Names no outstanding probe: a stranger's packet, or a reply whose
    /// TXID has been recycled, which cannot be told from one.
    Unsolicited,
}

/// What every campaign supplies.
pub(crate) trait Campaign {
    /// Its row of the table.
    const P: Params;

    /// Fold a response into the campaign's result.
    fn read(&mut self, msg: &MessageView<'_>, port_offset: u16, dgram: &Datagram) -> Outcome;

    /// Forget which TXID stands for which slot.
    fn recycle(&mut self) {}
}

/// A campaign stamped in the loop, slot by slot, because a probe reads
/// the sweep's state: its TXID table, its sequence number, the flight
/// recorder's interleaving. Only such a campaign retransmits.
pub(crate) trait Inline: Campaign {
    /// One question to one target.
    type Slot: Copy;

    /// Queue the probe for `slot`, the `seq`-th this sweep sends, and
    /// return the address it goes to.
    fn stamp(&mut self, slot: Self::Slot, seq: u64, batch: &mut ProbeBatch) -> Ipv4Addr;

    /// Slots still unanswered, in native order.
    fn missing(&self) -> Vec<Self::Slot>;
}

/// What a sweep sent and where every packet it drained went: `drained`
/// is the sum of the five buckets below it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Probes sent, retransmissions included.
    pub probes: u64,
    pub retries: u64,
    /// Datagrams the network delivered while the sweep pumped it,
    /// straight from the engine's `RunReport`s.
    pub delivered: u64,
    pub drained: u64,
    pub matched: u64,
    pub duplicate: u64,
    pub unsolicited: u64,
    pub not_response: u64,
    pub malformed: u64,
}

/// What a recorded sweep remembers for the flight recorder: every
/// address in the order it was probed, and which of them answered.
struct Flight {
    probed: Vec<Ipv4Addr>,
    answered: HashSet<Ipv4Addr>,
}

/// One scanner port block, from open to close, and the campaign
/// scanning through it.
pub(crate) struct Sweep<C: Campaign, T: Transport> {
    pub campaign: C,
    block: T::Block,
    policy: ProbePolicy,
    batch: ProbeBatch,
    seq: u64,
    /// Probes of this round since its last pump.
    pending: usize,
    flight: Option<Flight>,
    /// How long this thread waited for a stamper, if one ran.
    stamp_wait: Option<Duration>,
    tally: Tally,
}

impl<C: Campaign, T: Transport> Sweep<C, T> {
    pub fn open(net: &mut T, vantage: Ipv4Addr, campaign: C, policy: ProbePolicy) -> Self {
        // Publish the probe context, so netsim's drop records share a
        // campaign/attempt identity with our attempt/response records.
        let flight = (C::P.recorded && recorder::enabled()).then(|| {
            recorder::set_context(C::P.name, 1);
            Flight {
                probed: Vec::new(),
                answered: HashSet::new(),
            }
        });
        Sweep {
            campaign,
            block: net.open(vantage),
            policy,
            batch: ProbeBatch::default(),
            seq: 0,
            pending: 0,
            flight,
            stamp_wait: None,
            tally: Tally::default(),
        }
    }

    /// The native round of a single-probe campaign whose probe depends on
    /// its target alone, then the grace period. A scoped stamper thread
    /// walks `targets` and `stamp`s them into chunks of [`CHUNK`] probes;
    /// this thread sends each chunk as it arrives, keeps the cadence, and
    /// hands the spent chunk back for reuse. The stamper is joined before
    /// this returns, so whatever `targets` counted is complete by then,
    /// and a stamper that panicked fails the sweep here.
    pub fn scan_ahead<I, F>(&mut self, net: &mut T, targets: I, stamp: F)
    where
        I: Iterator<Item = Ipv4Addr> + Send,
        F: Fn(Ipv4Addr, &mut ProbeBatch) + Send,
    {
        const {
            let p = C::P;
            assert!(p.batch.is_multiple_of(CHUNK) && !p.recycles && !p.recorded);
        }
        assert_eq!(
            self.policy.attempts, 1,
            "a sweep stamped ahead never retransmits"
        );
        let mut waited = Duration::ZERO;
        self.pending = 0;
        std::thread::scope(|scope| {
            let (full, chunks) = mpsc::sync_channel(AHEAD);
            let (spent, returned) = mpsc::channel();
            let stamper = scope.spawn(move || {
                let mut chunk = ProbeBatch::default();
                for target in targets {
                    stamp(target, &mut chunk);
                    if chunk.len() == CHUNK {
                        // The lane is gone only if it panicked.
                        if full.send(chunk).is_err() {
                            return;
                        }
                        chunk = returned.try_recv().unwrap_or_default();
                    }
                }
                if !chunk.is_empty() {
                    let _ = full.send(chunk);
                }
            });
            let mut next = || {
                chunks.try_recv().or_else(|_| {
                    // Empty, or the stamper is done and this returns at once.
                    let blocked = Instant::now();
                    let chunk = chunks.recv();
                    waited += blocked.elapsed();
                    chunk
                })
            };
            while let Ok(mut chunk) = next() {
                let n = chunk.len();
                net.send(&mut self.block, &mut chunk);
                self.cadence(net, n);
                // The stamper has finished if nobody takes it back.
                let _ = spent.send(chunk);
            }
            stamper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        });
        self.stamp_wait = Some(waited);
        self.wait(net, C::P.grace_ms);
    }

    /// Count `n` more probes of this round, sent or queued in the batch,
    /// and keep the cadence every round keeps: after each `P.batch` of
    /// them the network is pumped, and a recycling campaign waits out a
    /// grace period and forgets its TXIDs every [`RECYCLE_EVERY`] probes
    /// of the sweep. What is queued leaves before the network runs.
    fn cadence(&mut self, net: &mut T, n: usize) {
        self.seq += n as u64;
        self.tally.probes += n as u64;
        self.pending += n;
        if self.pending == C::P.batch {
            self.pending = 0;
            net.send(&mut self.block, &mut self.batch);
            self.wait(net, C::P.pump_ms);
        }
        if C::P.recycles && self.seq.is_multiple_of(RECYCLE_EVERY) {
            net.send(&mut self.block, &mut self.batch);
            self.wait(net, C::P.grace_ms);
            self.campaign.recycle();
        }
    }

    /// Let the network run for `ms`, then put everything that arrived
    /// in exactly one bucket (corrupted packets are ignored, Sec. 5 —
    /// and counted).
    fn wait(&mut self, net: &mut T, ms: u64) {
        let (delivered, arrivals) = net.wait(&mut self.block, ms);
        self.tally.delivered += delivered;
        for (port_offset, at, dgram) in arrivals {
            self.tally.drained += 1;
            let Ok(msg) = MessageView::parse(&dgram.payload) else {
                self.tally.malformed += 1;
                continue;
            };
            if !msg.is_response() {
                self.tally.not_response += 1;
                continue;
            }
            let target = match self.campaign.read(&msg, port_offset, &dgram) {
                Outcome::Matched(target) => {
                    self.tally.matched += 1;
                    target
                }
                Outcome::Duplicate(target) => {
                    self.tally.duplicate += 1;
                    target
                }
                Outcome::Unsolicited => {
                    self.tally.unsolicited += 1;
                    continue;
                }
            };
            if let Some(flight) = &mut self.flight {
                flight.answered.insert(target);
                recorder::response(u32::from(target), msg.rcode().to_u8(), at.millis());
            }
        }
    }

    /// Close the port block, record who never answered — in the order
    /// they were probed — and publish the counters: what was sent, and
    /// the drain funnel `drained == responses_matched + the four other
    /// buckets`; the buckets a clean run has no use for exist only once
    /// there is something to count.
    pub fn finish(mut self, net: &mut T) -> (C, Tally) {
        net.close(self.block);
        if let Some(mut flight) = self.flight.take() {
            let now = net.now().millis();
            for ip in std::mem::take(&mut flight.probed) {
                if flight.answered.insert(ip) {
                    let asn = net.asn_at(ip);
                    recorder::gave_up(u32::from(ip), asn, self.policy.attempts, now);
                }
            }
            recorder::clear_context();
        }
        let t = self.tally;
        debug_assert_eq!(
            t.drained,
            t.matched + t.duplicate + t.unsolicited + t.not_response + t.malformed
        );
        for (name, n) in [
            ("probes_sent", t.probes),
            ("drained", t.drained),
            ("responses_matched", t.matched),
        ] {
            super::count(name, C::P.name, n);
        }
        for (name, n) in [
            ("retries", t.retries),
            ("responses_malformed", t.malformed),
            ("responses_duplicate", t.duplicate),
            ("responses_unsolicited", t.unsolicited),
            ("responses_not_response", t.not_response),
        ] {
            if n > 0 {
                super::count(name, C::P.name, n);
            }
        }
        // Wall-clock, so `wall_us` in the name keeps it out of every
        // comparison of deterministic outputs.
        if let Some(waited) = self.stamp_wait {
            super::count("stamp_wait.wall_us", C::P.name, waited.as_micros() as u64);
        }
        #[cfg(test)]
        super::tests::FINISHED.with(|done| done.borrow_mut().push((C::P.name, t)));
        (self.campaign, t)
    }
}

impl<C: Inline, T: Transport> Sweep<C, T> {
    /// Probe `slots` in order, wait out the grace period, then resend
    /// whatever the campaign still misses in backed-off rounds — a
    /// resend at a later sim time re-rolls the probe's fate.
    pub fn scan<I>(&mut self, net: &mut T, slots: I, seed: u64, index: u64)
    where
        I: IntoIterator<Item = C::Slot>,
    {
        self.round(net, slots);
        self.wait(net, C::P.grace_ms);
        if self.policy.attempts > 1 {
            let key = seed ^ C::P.key.0 ^ (index << C::P.key.1);
            let schedule = self.policy.schedule(key);
            // Round r waits schedule[r]; the last entry goes unused.
            for (round, &wait) in schedule[..schedule.len() - 1].iter().enumerate() {
                // Answers to the round before count only if they came
                // within its wait.
                self.campaign.recycle();
                let missing = self.campaign.missing();
                if missing.is_empty() {
                    break;
                }
                if self.flight.is_some() {
                    recorder::set_context(C::P.name, round as u32 + 2);
                }
                self.tally.retries += missing.len() as u64;
                self.round(net, missing);
                if self.flight.is_some() {
                    recorder::backoff(round as u32, wait, net.now().millis());
                }
                self.wait(net, wait);
            }
        }
    }

    /// Send one round, a batch at a time.
    fn round(&mut self, net: &mut T, slots: impl IntoIterator<Item = C::Slot>) {
        self.pending = 0;
        for slot in slots {
            let target = self.campaign.stamp(slot, self.seq, &mut self.batch);
            if let Some(flight) = &mut self.flight {
                flight.probed.push(target);
                let asn = net.asn_at(target);
                recorder::attempt(u32::from(target), asn, net.now().millis());
                // A batch of one, so attempt records stay interleaved
                // with the engine's drop records.
                net.send(&mut self.block, &mut self.batch);
            }
            self.cadence(net, 1);
        }
        net.send(&mut self.block, &mut self.batch);
    }
}

/// What a [`Grid`] campaign keeps of one answer.
pub(crate) trait Answer {
    /// The campaign's row of the table.
    const P: Params;

    fn read(msg: &MessageView<'_>) -> Self;
}

/// The campaign that asks every resolver the same few questions, a slot
/// each, `resolver × questions + question`. Probes differ in TXID only,
/// and the TXID is the probe's sequence number — so it says which slot
/// an answer fills, and must be recycled before the 16 bits wrap.
pub(crate) struct Grid<'a, A> {
    resolvers: &'a [Ipv4Addr],
    queries: &'a [QueryTemplate],
    /// TXID of the sweep's first probe.
    first_txid: u16,
    txids: HashMap<u16, usize>,
    /// The first answer to each slot.
    pub answers: Vec<Option<A>>,
}

impl<'a, A> Grid<'a, A> {
    pub fn new(resolvers: &'a [Ipv4Addr], queries: &'a [QueryTemplate], first_txid: u16) -> Self {
        let answers = (0..resolvers.len() * queries.len()).map(|_| None);
        Grid {
            resolvers,
            answers: answers.collect(),
            queries,
            first_txid,
            txids: HashMap::new(),
        }
    }
}

impl<A: Answer> Campaign for Grid<'_, A> {
    const P: Params = A::P;

    fn read(&mut self, msg: &MessageView<'_>, _port_offset: u16, _dgram: &Datagram) -> Outcome {
        let Some(&slot) = self.txids.get(&msg.id()) else {
            return Outcome::Unsolicited;
        };
        let ip = self.resolvers[slot / self.queries.len()];
        if self.answers[slot].is_some() {
            return Outcome::Duplicate(ip);
        }
        self.answers[slot] = Some(A::read(msg));
        Outcome::Matched(ip)
    }

    fn recycle(&mut self) {
        self.txids.clear();
    }
}

impl<A: Answer> Inline for Grid<'_, A> {
    type Slot = usize;

    fn stamp(&mut self, slot: usize, seq: u64, batch: &mut ProbeBatch) -> Ipv4Addr {
        let txid = self.first_txid.wrapping_add(seq as u16);
        self.txids.insert(txid, slot);
        let ip = self.resolvers[slot / self.queries.len()];
        let query = &self.queries[slot % self.queries.len()];
        let payload = batch.push((seq % 509) as u16, ip, query.probe_len());
        query.stamp(txid.into(), payload);
        ip
    }

    fn missing(&self) -> Vec<usize> {
        let unanswered = |slot: &usize| self.answers[*slot].is_none();
        (0..self.answers.len()).filter(unanswered).collect()
    }
}
