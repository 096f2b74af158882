//! # netsim — a deterministic discrete-event IPv4 network simulator
//!
//! The *Going Wild* paper runs against the live Internet; this
//! reproduction runs against `netsim`. The simulator models exactly the
//! network phenomena the paper's measurement methodology has to cope
//! with, and nothing more:
//!
//! * **UDP datagram delivery** with per-path latency and deterministic
//!   pseudo-random packet loss (DNS is UDP; Sec. 5 discusses loss as a
//!   completeness limit).
//! * **A synchronous TCP request/response channel** for banner grabbing
//!   (FTP/HTTP/SSH/Telnet fingerprinting, Sec. 2.4), HTTP(S) content
//!   acquisition (Sec. 3.5) and mail-banner probes.
//! * **On-path packet injectors** ([`PathObserver`]) — the Great
//!   Firewall model that races forged DNS answers ahead of legitimate
//!   ones (Sec. 4.2).
//! * **Network-level filters** that appear at configurable times —
//!   the ISPs that deployed DNS ingress/egress filtering mid-study and
//!   caused entire networks of resolvers to vanish (Sec. 2.3).
//! * **DHCP-style address churn** ([`churn::LeasePool`]) — consumer
//!   devices renumber daily, producing the 52.2%-gone-in-a-week curve of
//!   Figure 2.
//!
//! Determinism: every random decision is a pure function of the
//! simulation seed and the event's identity, so a run is reproducible
//! bit-for-bit. Event ordering is total (time, then insertion sequence).

pub mod churn;
pub mod faults;
pub mod host;
pub mod network;
pub mod packet;
pub mod time;
pub mod vantage;

pub use churn::{ChurnConfig, LeasePool};
pub use faults::{
    BurstLoss, FaultEvent, FaultPlan, FaultStats, FaultWindows, LatencySpikes, RateLimit,
};
pub use host::{
    Host, HostCtx, HttpRequest, HttpResponse, MailProto, TcpError, TcpRequest, TcpResponse,
    TlsCertificate,
};
pub use network::{
    FilterDirection, HostId, NetStats, Network, NetworkConfig, PathObserver, RunReport,
    SocketError, SocketHandle,
};
pub use packet::Datagram;
pub use time::SimTime;
pub use vantage::{ScanPlan, Vantage};
