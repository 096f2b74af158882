//! # resolversim — host behaviours for the simulated DNS world
//!
//! Every kind of host the *Going Wild* study encounters is modelled
//! here as a [`netsim::Host`] implementation:
//!
//! * [`ResolverHost`] — an open recursive resolver with a configurable
//!   [`ResolverBehavior`] (honest, censoring, NX-monetizing, static-IP,
//!   self-IP, REFUSED/SERVFAIL, NS-only, proxy-to-mail, …), a
//!   [`SoftwareProfile`] answering CHAOS `version.bind` scans, a
//!   [`DeviceProfile`] exposing TCP service banners, and a
//!   [`CacheProfile`] driving cache-snooping semantics.
//! * [`WebHost`] — web/mail endpoints: legitimate category sites, CDN
//!   edges, censorship landing pages, parking, search, router logins,
//!   captive portals, phishing kits, transparent proxies, ad injectors,
//!   fake-update malware hosts and mail servers.
//! * [`GreatFirewall`] — an on-path injector racing forged answers for
//!   censored domains queried at Chinese address space.
//!
//! The shared fabric is [`DnsUniverse`]: the authoritative view of which
//! domains exist, which IPs legitimately serve them (including
//! region-dependent CDN answers), and which TLD name servers exist (for
//! the snooping campaign). Hosts hold an `Arc<DnsUniverse>`.
//!
//! The [`loopback`] module serves any [`ResolverHost`] on a real UDP
//! socket from a thread of its own, so the scanner's campaigns can be
//! run end-to-end over real sockets on loopback.

pub mod behavior;
pub mod cachesim;
pub mod device;
pub mod forwarder;
pub mod gfw;
pub mod loopback;
pub mod resolver;
pub mod software;
pub mod universe;
pub mod webhost;

pub use behavior::{Answer, CensorPolicy, CensorRule, QueryCtx, Reply, ResolverBehavior};
pub use cachesim::{CacheProfile, SnoopObservation, TldCacheSim};
pub use device::{DeviceClass, DeviceOs, DeviceProfile};
pub use forwarder::ForwarderHost;
pub use gfw::GreatFirewall;
pub use resolver::{Alive, ResolverHost};
pub use software::{ChaosPolicy, SoftwareProfile};
pub use universe::{DnsUniverse, DomainCategory, DomainKind, DomainRecord, Resolution};
pub use webhost::{WebHost, WebRole};
