//! serve: a long-running HTTP/JSON query service over on-disk
//! [`scanstore`] campaigns.
//!
//! The collection pipeline ends in static tables; this crate turns a
//! committed store into a *service*. Four query families, answered
//! straight from [`scanstore::StoreView`] read indexes:
//!
//! * `GET /classify?ip=a.b.c.d` — everything the campaigns know about
//!   one resolver: liveness, rcode, proxy/TCP flags, CHAOS outcome,
//!   software, device, country, AS, rDNS token, presence history;
//! * `GET /churn?asn=N[&campaign=c]` — per-snapshot presence and
//!   cohort-survival series for one AS (Fig. 2 shape, scoped to an AS);
//! * `GET /amplifiers?country=CC[&limit=n][&campaign=c]` — top
//!   amplification candidates in a country, ranked by a deterministic
//!   integer score (stability, open recursion, TCP fallback);
//! * `GET /coverage?campaign=c` — per-snapshot record counts, labels,
//!   and commit metadata for one campaign.
//!
//! Plus `GET /campaigns` (inventory), `GET /healthz` (degrades to 503
//! while the SLO burn rate says the service is breaching its
//! objectives), and the live endpoints the daemon answers itself:
//! `GET /metrics` (telemetry snapshot — JSON by default, Prometheus
//! text exposition via `?format=prometheus` or `Accept: text/plain`),
//! `GET /slo` (objectives, multi-window burn state, per-endpoint
//! rolling latency quantiles), and `GET /debug/requests` (recent
//! request span trees plus the slow-query feed).
//!
//! Architecture (DESIGN §10): the daemon holds an immutable
//! [`QueryEngine`] behind a swap lock. Requests clone the current
//! `Arc<QueryEngine>` and keep answering from it even if a refresh
//! swaps in a newer engine mid-flight, so a new campaign commit is
//! served without dropping in-flight queries. Responses are cached in
//! an LRU keyed by `(engine generation, request path)` with
//! per-endpoint `serve.cache.{hit,miss,evict}` telemetry. Every
//! response body is a pure function of (store bytes, request), so two
//! runs of the seeded [`fleet`] against the same store are
//! byte-identical.
//!
//! Observability (DESIGN §11): each request whose head was read is
//! answered under its own [`telemetry::Telemetry::scope`], whose root
//! span is the request and whose layers (`admission`, `cache`, `parse`,
//! `probe`, `serialize`) are plain `telemetry::span` guards.
//! [`obs::ServeObs`] takes the scope's spans: the root is the latency
//! (rolling windows, SLO burn), the layers add to the layer tree, and
//! the request becomes one deterministic `type: "request"` trace line
//! and a `/debug/requests` entry.
//!
//! Overload hardening (DESIGN §13): [`admission`] gates requests
//! cost-aware in front of the router (uniform `429` sheds with
//! `Retry-After`, per-request deadlines answered `503
//! deadline_exceeded`), [`breaker`] keeps the daemon on the last good
//! generation through refresh failures, and [`chaos`] drives the
//! adversarial self-test profiles behind `repro serve --selftest
//! --chaos`. Everything defaults to off, so default-configuration
//! serving is byte-identical to the unhardened daemon.

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod fleet;
pub mod http;
pub mod obs;
pub mod server;
pub mod signal;

pub use admission::{cost_of, Admission, AdmissionOptions, Cost, Deadline};
pub use breaker::{BreakerOptions, BreakerState, RefreshBreaker, RefreshHealth};
pub use cache::LruCache;
pub use chaos::{run_chaos, ChaosOptions, ChaosReport};
pub use engine::QueryEngine;
pub use fleet::{run_fleet, FleetOptions, FleetReport};
pub use obs::{endpoint_of, ServeObs, DEBUG_REQUESTS, ENDPOINTS};
pub use server::{RunningServer, ServeOptions, ServeSummary};
