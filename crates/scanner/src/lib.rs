//! # scanner — the measurement apparatus of the *Going Wild* reproduction
//!
//! Everything the paper's measurement side does, as code:
//!
//! * [`lfsr`] — maximal-length LFSRs and the polite address-space
//!   permutation (Sec. 2.2).
//! * [`encode`] — hex-IP scan names and the 25-bit resolver-identifier
//!   encoding (16-bit TXID + 9-bit source port + 0x20 redundancy,
//!   Sec. 3.3).
//! * [`simio`] — the scanner's socket block on a simulated [`Vantage`].
//! * [`transport`] — what a sweep's datagrams travel over: a
//!   simulated [`Vantage`], or real UDP sockets in wall time. The CHAOS scan
//!   and the domain scan take either; tests and the `loopback_scan`
//!   example run them against `resolversim::loopback` fleets.
//! * [`probe`] — the retransmission policy and coverage accounting.
//! * [`campaign`] — the campaigns, one entry point each: the enumeration
//!   (the weekly sweeps of Fig. 1 and both passes of the dual-vantage
//!   verification, Sec. 2.2), CHAOS software fingerprinting (Table 3),
//!   TCP banner grabs (Table 4), cohort churn rounds (Fig. 2), cache
//!   snooping (Sec. 2.6), the 155-domain scan (Sec. 3.3), and
//!   HTTP(S)/mail data acquisition (Sec. 3.5). The five that speak UDP
//!   say what to ask and how to read the answer; one loop,
//!   `campaign::sweep`, sends, waits, retransmits and counts. Each
//!   campaign streams into a `scanstore` sink, and the `*_from_source`
//!   readers derive results back out of what was committed.
//!
//! The campaigns see a simulated world only as a [`Vantage`], and this
//! crate depends on neither `worldgen` nor `resolversim`: nothing here
//! can read what a world planted.
//!
//! [`Vantage`]: netsim::Vantage

pub mod blacklist;
pub mod campaign;
pub mod encode;
pub mod lfsr;
pub mod probe;
pub mod simio;
pub mod transport;

pub use blacklist::Blacklist;
pub use campaign::acquire::{acquire, acquire_with_policy, resolve_at, Acquired, FetchedPage};
pub use campaign::banner::{banner_scan, BannerObservation};
pub use campaign::chaos::{chaos_scan, ChaosObservation};
pub use campaign::churn::{churn_from_source, probe_alive_with_policy, ChurnResult};
pub use campaign::domains::{scan_domains, scan_domains_streaming_with_policy, TupleObs};
pub use campaign::enumerate::{enumerate, enumerate_with_sink, EnumObservation, EnumerationResult};
pub use campaign::snoop::{
    decode_snoop_sample, encode_snoop_sample, snoop_from_source, snoop_full_ttls_from_source,
    snoop_scan, SnoopResult, SnoopSample,
};
pub use encode::{decode_probe, encode_probe, enumeration_query, target_from_qname};
pub use lfsr::{IpPermutation, Lfsr};
pub use probe::{tcp_query_with_retry, Coverage, ProbePolicy};
pub use transport::{Transport, Udp};
