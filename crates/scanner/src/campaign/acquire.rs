//! HTTP(S) and mail data acquisition (Sec. 3.5).
//!
//! For every unexpected `(domain ∘ ip ∘ resolver)` tuple, fetch what a
//! client would see: HTTP and HTTPS content with the domain in the Host
//! header (SNI on and off), following up to two redirects — re-resolving
//! redirect targets *at the same resolver* — and, for MX hostnames,
//! IMAP/POP3/SMTP greeting banners.

use crate::probe::{tcp_query_with_retry, ProbePolicy};
use dnswire::{MessageBuilder, MessageView, Name, Rcode, RecordType};
use netsim::{Datagram, HttpRequest, MailProto, SimTime, TcpRequest, TlsCertificate, Vantage};
use std::net::Ipv4Addr;

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
    world: &mut impl Vantage,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
) -> Option<(Rcode, Vec<Ipv4Addr>)> {
    let name = Name::parse(domain).ok()?;
    let txid = (u32::from(resolver_ip) as u16) ^ (domain.len() as u16) ^ 0x7A7A;
    let net = world.net();
    let sock = net.open_socket(vantage, 39_990);
    let q = MessageBuilder::query(txid, name, RecordType::A).build();
    net.send(
        Datagram::new(vantage, 39_990, resolver_ip, 53, q.encode()),
        None,
    );
    let deadline = SimTime(net.now().millis() + 3_000);
    net.run_until(deadline);
    let replies = net.recv_all(sock).expect("socket just opened");
    net.close_socket(sock).expect("socket just opened");
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
    world: &mut impl Vantage,
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
    let http = loop {
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
        let req = TcpRequest::Http(req);
        let (res, _retries) = tcp_query_with_retry(world.net(), policy, "acquire", ip, port, &req);
        let resp = res.ok()?;
        let http = resp.as_http()?.clone();
        let redirect = http.location.as_ref().filter(|_| http.status / 100 == 3);
        let Some(location) = redirect.filter(|_| redirects < MAX_REDIRECTS) else {
            break http;
        };
        redirects += 1;
        let Some((next_tls, next_host, next_path)) = parse_url(location) else {
            // Relative redirect: same host.
            path = location.clone();
            continue;
        };
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
            // Scheme switches are treated as chain end: the variant
            // fetches are per-scheme.
            break http;
        }
    };
    Some(FetchedPage {
        status: http.status,
        body: http.body,
        certificate: http.certificate,
        redirects,
        final_host: host,
        final_ip: ip,
    })
}

/// Acquire content for one `(domain ∘ ip ∘ resolver)` tuple.
pub fn acquire(
    world: &mut impl Vantage,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
    ip: Ipv4Addr,
    is_mail_host: bool,
) -> Acquired {
    let policy = ProbePolicy::single();
    acquire_with_policy(
        world,
        vantage,
        resolver_ip,
        domain,
        ip,
        is_mail_host,
        &policy,
    )
}

/// [`acquire`] under an explicit [`ProbePolicy`] for its TCP fetches.
/// A single-attempt policy is byte-identical to [`acquire`].
#[allow(clippy::too_many_arguments)]
pub fn acquire_with_policy(
    world: &mut impl Vantage,
    vantage: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    domain: &str,
    ip: Ipv4Addr,
    is_mail_host: bool,
    policy: &ProbePolicy,
) -> Acquired {
    // Plain HTTP, then HTTPS with SNI and without (default certificate).
    let [http, https_sni, https_nosni] =
        [(false, false), (true, true), (true, false)].map(|(tls, sni)| {
            let host = domain.to_string();
            fetch_chain(world, vantage, resolver_ip, host, ip, tls, sni, policy)
        });
    let mut out = Acquired {
        http,
        https_sni,
        https_nosni,
        mail_banners: Vec::new(),
    };
    if is_mail_host {
        for proto in [MailProto::Smtp, MailProto::Imap, MailProto::Pop3] {
            if let Ok(resp) = world
                .net()
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
