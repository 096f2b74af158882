//! CHAOS `version.bind` / `version.server` fingerprinting (Sec. 2.4).

use super::sweep::{self, Answer, Grid, Sweep};
use crate::encode::QueryTemplate;
use crate::probe::ProbePolicy;
use crate::transport::Transport;
use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Outcome of the two CHAOS queries against one resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosObservation {
    /// Both queries errored (REFUSED / SERVFAIL).
    Errors,
    /// NOERROR but no version in either answer.
    EmptyAnswers,
    /// A version string was returned (may be an admin-chosen decoy —
    /// the classifier decides).
    Version(String),
    /// No response to either query.
    Silent,
}

/// What the campaign keeps of one answer: its rcode and, when that is
/// NOERROR, the non-empty text of its first TXT record.
struct ChaosAnswer {
    rcode: Rcode,
    version: Option<String>,
}

/// Query `version.bind` and `version.server` at every resolver over any
/// [`Transport`] — a simulated [`Vantage`](netsim::Vantage), or real sockets —
/// under `policy` (query slots still unanswered after the native sweep
/// are retransmitted in backed-off rounds), writing each responding
/// resolver into `sink`, in `resolvers` order: the CHAOS outcome in the
/// flag bits, the version string interned into `software`, no record
/// for a silent resolver. Also returns the number of retransmitted
/// query slots.
pub fn chaos_scan<T: Transport>(
    net: &mut T,
    vantage: Ipv4Addr,
    resolvers: &[Ipv4Addr],
    seed: u64,
    policy: &ProbePolicy,
    sink: &mut dyn scanstore::ObservationSink,
) -> (HashMap<Ipv4Addr, ChaosObservation>, u64) {
    use scanstore::{flags, Observation};
    // One pre-encoded query per name.
    let queries = ["version.bind", "version.server"].map(|qname| {
        let qname = Name::parse(qname).expect("a valid name");
        QueryTemplate::new(&MessageBuilder::chaos_query(0, qname).build())
    });
    let grid = Grid::<ChaosAnswer>::new(resolvers, &queries, seed as u16);
    let mut sweep = Sweep::open(net, vantage, grid, *policy);
    let mut sp = telemetry::span("campaign.chaos", net.now().millis());
    sweep.scan(net, 0..2 * resolvers.len(), seed, 0);
    let (grid, tally) = sweep.finish(net);
    let mut answers = grid.answers.into_iter();

    let now_ms = net.now().millis();
    let mut out = HashMap::with_capacity(resolvers.len());
    let mut silent = 0u64;
    for &ip in resolvers {
        let obs = classify([answers.next().flatten(), answers.next().flatten()]);
        let (outcome, software) = match &obs {
            ChaosObservation::Silent => (None, 0),
            ChaosObservation::Errors => (Some(flags::CHAOS_ERRORS), 0),
            ChaosObservation::EmptyAnswers => (Some(flags::CHAOS_EMPTY), 0),
            ChaosObservation::Version(v) => (Some(flags::CHAOS_VERSION), sink.intern(v)),
        };
        match outcome {
            None => silent += 1,
            Some(outcome) => sink.observe(Observation {
                flags: flags::with_chaos(0, outcome),
                software,
                ..Observation::at(u32::from(ip), Rcode::NoError.to_u8(), now_ms)
            }),
        }
        out.insert(ip, obs);
    }
    let responders = out.len() as u64 - silent;
    super::count("responses", "chaos", responders);
    telemetry::counter("scanner.chaos_silent").add(silent);
    sp.attr("probes_sent", tally.probes);
    sp.attr("responders", responders);
    sp.attr("silent", silent);
    sp.attr("retries", tally.retries);
    sp.finish(net.now().millis());
    (out, tally.retries)
}

impl Answer for ChaosAnswer {
    const P: sweep::Params = sweep::CHAOS;

    fn read(msg: &MessageView<'_>) -> ChaosAnswer {
        let rcode = msg.rcode();
        let version = (rcode == Rcode::NoError)
            .then(|| msg.answers().find(|rr| rr.rtype == RecordType::Txt))
            .flatten()
            .and_then(|rr| rr.rdata().txt_joined())
            .filter(|s| !s.is_empty());
        ChaosAnswer { rcode, version }
    }
}

fn classify(slots: [Option<ChaosAnswer>; 2]) -> ChaosObservation {
    let mut any_response = false;
    let mut any_noerror_empty = false;
    for slot in slots.into_iter().flatten() {
        any_response = true;
        if slot.rcode == Rcode::NoError {
            match slot.version {
                Some(v) => return ChaosObservation::Version(v),
                None => any_noerror_empty = true,
            }
        }
    }
    if !any_response {
        ChaosObservation::Silent
    } else if any_noerror_empty {
        ChaosObservation::EmptyAnswers
    } else {
        ChaosObservation::Errors
    }
}
