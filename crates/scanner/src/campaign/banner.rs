//! TCP banner grabbing for device fingerprinting (Sec. 2.4).
//!
//! The paper connects to FTP, HTTP, HTTPS, SSH and Telnet on every
//! resolver and aggregates whatever banner/text the services return;
//! 26.3% of resolvers answered on at least one port.

use crate::probe::{tcp_query_with_retry, Coverage, ProbePolicy};
use netsim::{HttpRequest, TcpError, TcpRequest, Vantage};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Ports probed, mirroring the paper's protocol list.
pub const PROBE_PORTS: [u16; 4] = [21, 22, 23, 80];

/// Banners collected from one host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BannerObservation {
    /// `(port, banner text)` for every responsive service.
    pub banners: Vec<(u16, String)>,
    /// Body of the HTTP front page, when port 80 served one.
    pub http_body: Option<String>,
}

impl BannerObservation {
    /// Whether any TCP service responded.
    pub fn responsive(&self) -> bool {
        !self.banners.is_empty() || self.http_body.is_some()
    }

    /// Concatenated text for regex fingerprinting.
    pub fn corpus(&self) -> String {
        let mut s = String::new();
        for (port, b) in &self.banners {
            s.push_str(&format!("[{port}] {b}\n"));
        }
        if let Some(body) = &self.http_body {
            s.push_str(body);
        }
        s
    }
}

/// Probe every resolver's TCP surface under `policy`, with coverage
/// accounting: timed-out connections are retried per the policy, every
/// TCP error is counted by kind, and the returned [`Coverage`]
/// classifies each host — answered (any connection accepted or
/// actively refused), gave up (some port timed out, none answered) or
/// unreachable (every probe was administratively unreachable).
pub fn banner_scan(
    world: &mut impl Vantage,
    resolvers: &[Ipv4Addr],
    policy: &ProbePolicy,
) -> (HashMap<Ipv4Addr, BannerObservation>, Coverage) {
    let mut out = HashMap::with_capacity(resolvers.len());
    let (net, mut cov) = (world.net(), Coverage::default());
    let (mut refused, mut unreachable, mut timeout) = (0u64, 0u64, 0u64);
    for &ip in resolvers {
        let mut obs = BannerObservation::default();
        let (mut any_ok, mut any_refused, mut any_timeout) = (false, false, false);
        let mut tally = |res: &Result<netsim::TcpResponse, TcpError>| match res {
            Ok(_) => any_ok = true,
            Err(TcpError::Refused) => {
                any_refused = true;
                refused += 1;
            }
            Err(TcpError::Unreachable) => unreachable += 1,
            Err(TcpError::Timeout) => {
                any_timeout = true;
                timeout += 1;
            }
        };
        for port in PROBE_PORTS {
            let (res, r) =
                tcp_query_with_retry(net, policy, "banner", ip, port, &TcpRequest::BannerProbe);
            cov.retries += r;
            tally(&res);
            if let Ok(resp) = res {
                if let Some(b) = resp.as_banner() {
                    obs.banners.push((port, b.to_string()));
                }
            }
        }
        // HTTP body often carries the device identity (login pages).
        let front = TcpRequest::Http(HttpRequest::http(&ip.to_string()));
        let (res, r) = tcp_query_with_retry(net, policy, "banner", ip, 80, &front);
        cov.retries += r;
        tally(&res);
        if let Ok(resp) = res {
            if let Some(http) = resp.as_http() {
                obs.http_body = Some(http.body.clone());
            }
        }
        cov.attempted += 1;
        if any_ok || any_refused {
            cov.answered += 1;
        } else if any_timeout {
            cov.gave_up += 1;
        } else {
            cov.unreachable += 1;
        }
        if obs.responsive() {
            out.insert(ip, obs);
        }
    }
    let campaign = ("campaign", "banner");
    for (kind, n) in [
        ("refused", refused),
        ("unreachable", unreachable),
        ("timeout", timeout),
    ] {
        if n > 0 {
            telemetry::counter_with("scanner.tcp_errors", &[campaign, ("kind", kind)]).add(n);
        }
    }
    (out, cov)
}
