//! Admission control and per-request deadlines (DESIGN §13).
//!
//! The daemon's load signal is its live connection count: each one
//! holds a worker thread from its accept to its close, so held-open
//! or slow connections are exactly what overload looks like. The gate
//! in front of the router is **cost-aware**:
//!
//! * **Critical** endpoints (`/healthz`, `/metrics`, `/slo`,
//!   `/debug/requests`) always pass — they are how an operator sees
//!   the overload.
//! * **Expensive** endpoints (`/amplifiers`, `/churn`, `/coverage` —
//!   aggregate scans over the whole index) shed immediately once the
//!   connection count exceeds the cap.
//! * **Normal** endpoints (point lookups, inventory) may wait in a
//!   queue of half the cap, for at most 100 ms, for the load to drop
//!   before they too are shed.
//!
//! Every shed is the uniform `429` JSON error body plus a
//! `Retry-After` hint, counted under `serve.shed{reason=...}`. With
//! `max_inflight == 0` (the default) the gate is disabled and the
//! request path is byte-for-byte what it was without it.

use crate::http::Response;
use crate::obs::Labeled;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Admission and deadline configuration. The defaults disable both,
/// preserving existing behaviour (and selftest byte-identity).
#[derive(Debug, Clone, Default)]
pub struct AdmissionOptions {
    /// Live-connection cap before shedding; 0 disables admission.
    /// Normal-cost requests above it may wait in a queue of half as
    /// many.
    pub max_inflight: usize,
    /// Per-request deadline enforced across router → cache → engine;
    /// 0 disables deadlines.
    pub deadline_ms: u64,
}

/// Endpoint cost class: what gets shed first under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Health and live-ops surfaces; never shed.
    Critical,
    /// Aggregate scans over the index; shed first, never queued.
    Expensive,
    /// Point lookups and inventory; may queue briefly.
    Normal,
}

/// Maps an endpoint family (see [`crate::obs::ENDPOINTS`]) to its
/// cost class.
pub fn cost_of(endpoint: &str) -> Cost {
    match endpoint {
        "healthz" | "metrics" | "slo" | "debug" => Cost::Critical,
        "amplifiers" | "churn" | "coverage" => Cost::Expensive,
        _ => Cost::Normal,
    }
}

/// How often a queued request re-checks the load.
const QUEUE_POLL: Duration = Duration::from_millis(2);

/// How long a queued request may wait before it is shed.
const QUEUE_WAIT: Duration = Duration::from_millis(100);

/// The `Retry-After` of a shed: the queue wait, in whole seconds
/// rounded up.
const RETRY_AFTER_S: u32 = 1;

/// The admission controller. One per server; shared by every
/// worker.
pub struct Admission {
    opts: AdmissionOptions,
    queued: AtomicUsize,
    /// `serve.shed{reason}`; the server sheds oversized heads into it too.
    pub(crate) shed: Labeled,
}

impl Admission {
    pub fn new(opts: AdmissionOptions) -> Admission {
        let reasons = &["expensive", "queue_full", "queue_timeout", "oversized"];
        Admission {
            opts,
            queued: AtomicUsize::new(0),
            shed: Labeled::new("serve.shed", "reason", reasons),
        }
    }

    /// Whether the gate is active at all. The disabled path must never
    /// wait, so default-configuration serving is unchanged.
    pub fn enabled(&self) -> bool {
        self.opts.max_inflight > 0
    }

    /// The per-request deadline starting now, if one is configured.
    pub fn deadline(&self) -> Deadline {
        Deadline::after_ms(self.opts.deadline_ms)
    }

    fn shed(&self, reason: &'static str, message: &str) -> Response {
        self.shed.inc(reason);
        Response::shed(429, message, RETRY_AFTER_S)
    }

    /// Decides admission for one parsed request. `load` is the live
    /// connection count (this connection included). Returns the shed
    /// response, or `None` to admit.
    pub fn admit(&self, endpoint: &'static str, load: &AtomicUsize) -> Option<Response> {
        if !self.enabled() {
            return None;
        }
        let cost = cost_of(endpoint);
        if cost == Cost::Critical {
            return None;
        }
        let cap = self.opts.max_inflight;
        if load.load(Ordering::SeqCst) <= cap {
            return None;
        }
        if cost == Cost::Expensive {
            return Some(self.shed("expensive", "overloaded: expensive query shed"));
        }
        // Normal cost: take a queue slot if one is free and wait for
        // the load to drop, up to the queue-wait deadline.
        if self
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < cap / 2).then_some(q + 1)
            })
            .is_err()
        {
            return Some(self.shed("queue_full", "overloaded: queue full"));
        }
        let give_up = Instant::now() + QUEUE_WAIT;
        let mut admitted = false;
        while Instant::now() < give_up {
            if load.load(Ordering::SeqCst) <= cap {
                admitted = true;
                break;
            }
            std::thread::sleep(QUEUE_POLL);
        }
        self.queued.fetch_sub(1, Ordering::SeqCst);
        if admitted {
            telemetry::counter("serve.admission.queued_admitted").inc();
            None
        } else {
            Some(self.shed("queue_timeout", "overloaded: queue wait deadline exceeded"))
        }
    }
}

/// A cooperative per-request deadline, threaded router → cache →
/// engine. `None` inside means "no deadline", so the disabled path is
/// a single branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: `expired` is always false.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// A deadline `ms` from now; `ms == 0` means no deadline.
    pub fn after_ms(ms: u64) -> Deadline {
        if ms == 0 {
            Deadline(None)
        } else {
            Deadline(Some(Instant::now() + Duration::from_millis(ms)))
        }
    }

    /// An already-expired deadline (tests and probes).
    pub fn expired_now() -> Deadline {
        Deadline(Some(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }
}

/// The uniform deadline-exceeded response: `503 deadline_exceeded`,
/// counted per endpoint family in `exceeded`.
pub fn deadline_response(exceeded: &Labeled, endpoint: &'static str) -> Response {
    exceeded.inc(endpoint);
    Response::error(503, "deadline_exceeded")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_classes_cover_every_endpoint() {
        for endpoint in crate::obs::ENDPOINTS {
            let cost = cost_of(endpoint);
            match endpoint {
                "healthz" | "metrics" | "slo" | "debug" => assert_eq!(cost, Cost::Critical),
                "amplifiers" | "churn" | "coverage" => assert_eq!(cost, Cost::Expensive),
                _ => assert_eq!(cost, Cost::Normal),
            }
        }
    }

    #[test]
    fn deadlines_expire_only_when_set() {
        assert!(!Deadline::none().expired());
        assert!(!Deadline::after_ms(0).expired());
        assert!(!Deadline::after_ms(60_000).expired());
        assert!(Deadline::expired_now().expired());
        let exceeded = Labeled::new("serve.deadline_exceeded", "endpoint", &["classify"]);
        let r = deadline_response(&exceeded, "classify");
        assert_eq!(r.status, 503);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"deadline_exceeded\",\"status\":503}\n"
        );
    }

    #[test]
    fn gate_sheds_by_cost_class() {
        let adm = Admission::new(AdmissionOptions {
            max_inflight: 2,
            deadline_ms: 0,
        });
        let load = AtomicUsize::new(10);

        // Critical endpoints always pass.
        assert!(adm.admit("healthz", &load).is_none());
        assert!(adm.admit("metrics", &load).is_none());

        // Expensive endpoints shed immediately with a Retry-After.
        let shed = adm.admit("amplifiers", &load).unwrap();
        assert_eq!(shed.status, 429);
        assert_eq!(shed.retry_after, Some(1));

        // Normal endpoints queue, then time out when load never drops.
        let shed = adm.admit("classify", &load).unwrap();
        assert_eq!(shed.status, 429);
        assert!(
            String::from_utf8(shed.body).unwrap().contains("queue wait"),
            "expected a queue-timeout shed"
        );

        // Below the cap everything is admitted.
        load.store(1, Ordering::SeqCst);
        assert!(adm.admit("classify", &load).is_none());
        assert!(adm.admit("amplifiers", &load).is_none());
    }

    /// A cap of 4 queues two normal requests above it; a third is shed
    /// `queue_full` at once.
    #[test]
    fn the_queue_holds_half_the_cap() {
        let adm = Admission::new(AdmissionOptions {
            max_inflight: 4,
            deadline_ms: 0,
        });
        let load = AtomicUsize::new(10);
        let is_full = |r: Response| String::from_utf8(r.body).unwrap().contains("queue full");
        std::thread::scope(|s| {
            // Each waiter queues again after a timeout until admitted.
            let waiters: Vec<_> = (0..2)
                .map(|_| s.spawn(|| while adm.admit("classify", &load).is_some() {}))
                .collect();
            // The third request may race a waiter's timeout: it is
            // retried until it meets a full queue.
            let full = (0..100).any(|_| {
                while adm.queued.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                adm.admit("classify", &load).is_some_and(is_full)
            });
            load.store(1, Ordering::SeqCst);
            for waiter in waiters {
                waiter.join().unwrap();
            }
            assert!(full, "a third request never met a full queue");
        });
        assert_eq!(adm.queued.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disabled_gate_admits_everything() {
        let adm = Admission::new(AdmissionOptions::default());
        assert!(!adm.enabled());
        let load = AtomicUsize::new(usize::MAX);
        assert!(adm.admit("amplifiers", &load).is_none());
        assert!(!adm.deadline().expired());
    }
}
