//! HTTP(S) and mail data acquisition (Sec. 3.5).
//!
//! For every unexpected `(domain ∘ ip ∘ resolver)` tuple, fetch what a
//! client would see: HTTP and HTTPS content with the domain in the Host
//! header (SNI on and off), following up to two redirects — re-resolving
//! redirect targets *at the same resolver* — and, for MX hostnames,
//! IMAP/POP3/SMTP greeting banners.

use crate::probe::{tcp_query_with_retry, ProbePolicy};
use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
use netsim::{Datagram, HttpRequest, MailProto, SimTime, TcpRequest, TlsCertificate};
use std::net::Ipv4Addr;
use worldgen::World;

/// Maximum redirect/frame hops followed (Sec. 3.5: "two times at most").
pub const MAX_REDIRECTS: u8 = 2;

/// A fetched page after redirect-following.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedPage {
    /// Final HTTP status.
    pub status: u16,
    /// Final response body.
    pub body: String,
    /// Certificate observed on the TLS handshake (TLS fetches only).
    pub certificate: Option<TlsCertificate>,
    /// Number of redirects followed.
    pub redirects: u8,
    /// Host header of the final request.
    pub final_host: String,
    /// IP the final request was sent to.
    pub final_ip: Ipv4Addr,
}

/// Everything acquired for one tuple.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Acquired {
    /// Plain-HTTP fetch result.
    pub http: Option<FetchedPage>,
    /// HTTPS fetch with SNI.
    pub https_sni: Option<FetchedPage>,
    /// HTTPS fetch without SNI (default certificate).
    pub https_nosni: Option<FetchedPage>,
    /// `(protocol name, banner)` for responsive mail services.
    pub mail_banners: Vec<(String, String)>,
}

impl Acquired {
    /// Whether any HTTP(S) payload was obtained (88.9% of tuples in the
    /// paper).
    pub fn has_http(&self) -> bool {
        self.http.is_some() || self.https_sni.is_some() || self.https_nosni.is_some()
    }
}

/// Resolve `domain` by querying the resolver at `resolver_ip` directly —
/// used when redirects introduce new domains (Sec. 3.5).
pub fn resolve_at(
    world: &mut World,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
) -> Option<(Rcode, Vec<Ipv4Addr>)> {
    let name = Name::parse(domain).ok()?;
    let txid = (u32::from(resolver_ip) as u16) ^ (domain.len() as u16) ^ 0x7A7A;
    let sock = world.net.open_socket(vantage, 39_990);
    let q = MessageBuilder::query(txid, name, RecordType::A).build();
    world.net.send(
        Datagram::new(vantage, 39_990, resolver_ip, 53, q.encode()),
        None,
    );
    let deadline = SimTime(world.net.now().millis() + 3_000);
    world.net.run_until(deadline);
    let replies = world.net.recv_all(sock).expect("socket just opened");
    world.net.close_socket(sock).expect("socket just opened");
    for (_, d) in replies {
        match MessageView::parse(&d.payload) {
            Ok(msg) if msg.is_response() && msg.id() == txid => {
                return Some((msg.rcode(), msg.answer_ips().collect()));
            }
            Ok(_) => {}
            Err(_) => super::count("responses_malformed", "acquire", 1),
        }
    }
    None
}

/// Parse an absolute `http(s)://host/path` URL into `(tls, host, path)`.
fn parse_url(url: &str) -> Option<(bool, String, String)> {
    let (tls, rest) = if let Some(r) = url.strip_prefix("https://") {
        (true, r)
    } else if let Some(r) = url.strip_prefix("http://") {
        (false, r)
    } else {
        return None;
    };
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if host.is_empty() {
        return None;
    }
    Some((tls, host.to_ascii_lowercase(), path.to_string()))
}

/// One HTTP(S) fetch chain with redirect following.
#[allow(clippy::too_many_arguments)]
fn fetch_chain(
    world: &mut World,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    mut host: String,
    mut ip: Ipv4Addr,
    tls: bool,
    sni: bool,
    policy: &ProbePolicy,
) -> Option<FetchedPage> {
    let mut path = "/".to_string();
    let mut redirects = 0u8;
    loop {
        let req = HttpRequest {
            host: host.clone(),
            path: path.clone(),
            tls,
            sni: if tls && sni { Some(host.clone()) } else { None },
        };
        let port = if tls { 443 } else { 80 };
        // Browsers retry transient timeouts; so do we, through the
        // shared probe engine (backed-off, time-advancing attempts —
        // a same-instant TCP retry would deterministically repeat the
        // first outcome).
        let (res, _retries) = tcp_query_with_retry(
            &mut world.net,
            policy,
            "acquire",
            ip,
            port,
            &TcpRequest::Http(req.clone()),
        );
        let resp = res.ok()?;
        let http = resp.as_http()?.clone();
        if let (true, Some(location)) = (http.status / 100 == 3, http.location.as_ref()) {
            if redirects >= MAX_REDIRECTS {
                return Some(FetchedPage {
                    status: http.status,
                    body: http.body,
                    certificate: http.certificate,
                    redirects,
                    final_host: host,
                    final_ip: ip,
                });
            }
            redirects += 1;
            if let Some((next_tls, next_host, next_path)) = parse_url(location) {
                if next_host != host {
                    // New domain: resolve it at the same resolver.
                    let (rcode, ips) = resolve_at(world, vantage, resolver_ip, &next_host)?;
                    if rcode != Rcode::NoError || ips.is_empty() {
                        return None;
                    }
                    ip = ips[0];
                    host = next_host;
                }
                path = next_path;
                if next_tls != tls {
                    // Scheme switches are treated as chain end: the
                    // variant fetches are per-scheme.
                    return Some(FetchedPage {
                        status: http.status,
                        body: http.body,
                        certificate: http.certificate,
                        redirects,
                        final_host: host,
                        final_ip: ip,
                    });
                }
                continue;
            }
            // Relative redirect: same host.
            path = location.clone();
            continue;
        }
        return Some(FetchedPage {
            status: http.status,
            body: http.body,
            certificate: http.certificate,
            redirects,
            final_host: host,
            final_ip: ip,
        });
    }
}

/// Acquire content for one `(domain ∘ ip ∘ resolver)` tuple.
pub fn acquire(
    world: &mut World,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
    ip: Ipv4Addr,
    is_mail_host: bool,
) -> Acquired {
    acquire_with_policy(
        world,
        vantage,
        resolver_ip,
        domain,
        ip,
        is_mail_host,
        &ProbePolicy::single(),
    )
}

/// [`acquire`] under an explicit [`ProbePolicy`] for its TCP fetches.
/// A single-attempt policy is byte-identical to [`acquire`].
#[allow(clippy::too_many_arguments)]
pub fn acquire_with_policy(
    world: &mut World,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
    ip: Ipv4Addr,
    is_mail_host: bool,
    policy: &ProbePolicy,
) -> Acquired {
    let mut out = Acquired {
        http: fetch_chain(
            world,
            vantage,
            resolver_ip,
            domain.to_string(),
            ip,
            false,
            false,
            policy,
        ),
        https_sni: fetch_chain(
            world,
            vantage,
            resolver_ip,
            domain.to_string(),
            ip,
            true,
            true,
            policy,
        ),
        https_nosni: fetch_chain(
            world,
            vantage,
            resolver_ip,
            domain.to_string(),
            ip,
            true,
            false,
            policy,
        ),
        mail_banners: Vec::new(),
    };
    if is_mail_host {
        for proto in [MailProto::Smtp, MailProto::Imap, MailProto::Pop3] {
            if let Ok(resp) = world
                .net
                .tcp_query(ip, proto.port(), &TcpRequest::MailProbe(proto))
            {
                if let Some(b) = resp.as_banner() {
                    let name = match proto {
                        MailProto::Smtp => "smtp",
                        MailProto::Imap => "imap",
                        MailProto::Pop3 => "pop3",
                    };
                    out.mail_banners.push((name.to_string(), b.to_string()));
                }
            }
        }
    }
    out
}

/// Acquire the ground-truth representation of `domain` via a *trusted*
/// resolution (our own recursive resolution through the universe).
pub fn acquire_trusted(world: &mut World, vantage: Ipv4Addr, domain: &str) -> Option<Acquired> {
    use resolversim::Resolution;
    let region = geodb::Rir::Arin; // the measurement host's region
    let res = world.universe.resolve(domain, region, 0);
    let Resolution::Ips { ips, .. } = res else {
        return None;
    };
    let ip = *ips.first()?;
    let is_mail = world
        .universe
        .record(domain)
        .map(|r| r.is_mail_host)
        .unwrap_or(false);
    // Trusted acquisition does not depend on any open resolver; pass the
    // authoritative answer's own address for redirect re-resolution.
    Some(acquire(world, vantage, ip, domain, ip, is_mail))
}
