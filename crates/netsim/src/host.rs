//! Host behaviour traits and the TCP request/response vocabulary.

use crate::packet::Datagram;
use crate::time::SimTime;
use bytes::Bytes;
use std::net::Ipv4Addr;

/// Context handed to a host while it processes a datagram. Collects the
/// host's outgoing datagrams (with optional extra delay, e.g. a slow CPE
/// device or a deliberately delayed second answer).
pub struct HostCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The IP the datagram was delivered to (hosts can be multi-homed).
    pub local_ip: Ipv4Addr,
    pub(crate) outgoing: &'a mut Vec<(u64, Datagram)>,
}

impl<'a> HostCtx<'a> {
    /// Construct a context around an outgoing-datagram buffer. Exposed
    /// so host behaviours can be driven outside a [`crate::Network`]
    /// (unit tests, the loopback resolver server).
    pub fn new(now: SimTime, local_ip: Ipv4Addr, outgoing: &'a mut Vec<(u64, Datagram)>) -> Self {
        HostCtx {
            now,
            local_ip,
            outgoing,
        }
    }

    /// Queue a datagram for sending after `delay_ms` of host-side
    /// processing time (path latency is added by the network).
    pub fn send_udp_delayed(&mut self, dgram: Datagram, delay_ms: u64) {
        self.outgoing.push((delay_ms, dgram));
    }

    /// Queue a datagram for immediate sending.
    pub fn send_udp(&mut self, dgram: Datagram) {
        self.send_udp_delayed(dgram, 0);
    }
}

/// An HTTP request as issued by the data-acquisition client. The `host`
/// header carries the *domain* the client believes it is talking to —
/// transparent proxies, phishing kits and CDN nodes all key on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `Host:` header value.
    pub host: String,
    /// Request path, e.g. `/`.
    pub path: String,
    /// Whether this is an HTTPS (TLS) request.
    pub tls: bool,
    /// TLS Server Name Indication; `None` models a request with SNI
    /// disabled (the prefilter sends both variants, Sec. 3.4).
    pub sni: Option<String>,
}

impl HttpRequest {
    /// Plain HTTP GET for `/` at `host`.
    pub fn http(host: &str) -> Self {
        HttpRequest {
            host: host.to_string(),
            path: "/".to_string(),
            tls: false,
            sni: None,
        }
    }

    /// HTTPS GET with SNI enabled.
    pub fn https_sni(host: &str) -> Self {
        HttpRequest {
            host: host.to_string(),
            path: "/".to_string(),
            tls: true,
            sni: Some(host.to_string()),
        }
    }

    /// HTTPS GET with SNI disabled (server returns its default cert).
    pub fn https_no_sni(host: &str) -> Self {
        HttpRequest {
            host: host.to_string(),
            path: "/".to_string(),
            tls: true,
            sni: None,
        }
    }
}

/// A TLS certificate, reduced to the fields the prefilter checks:
/// subject names and whether a trusted CA signed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsCertificate {
    /// Common name.
    pub common_name: String,
    /// Subject alternative names (may contain wildcards like
    /// `*.cdn.example`).
    pub san: Vec<String>,
    /// Whether the chain validates against the trusted roots. Phishing
    /// hosts present self-signed certs (`false`).
    pub valid_chain: bool,
}

impl TlsCertificate {
    /// A CA-signed certificate for one name.
    pub fn valid_for(name: &str) -> Self {
        TlsCertificate {
            common_name: name.to_string(),
            san: vec![name.to_string()],
            valid_chain: true,
        }
    }

    /// A self-signed certificate (phishing hosts, Sec. 4.3).
    pub fn self_signed(name: &str) -> Self {
        TlsCertificate {
            common_name: name.to_string(),
            san: vec![name.to_string()],
            valid_chain: false,
        }
    }

    /// Whether this certificate covers `domain`, honoring single-label
    /// wildcards.
    pub fn covers(&self, domain: &str) -> bool {
        let d = domain.to_ascii_lowercase();
        std::iter::once(&self.common_name)
            .chain(self.san.iter())
            .any(|n| {
                let n = n.to_ascii_lowercase();
                if let Some(suffix) = n.strip_prefix("*.") {
                    // Wildcard matches exactly one extra label.
                    d.strip_suffix(suffix)
                        .map(|head| {
                            head.ends_with('.') && head[..head.len() - 1].split('.').count() == 1
                        })
                        .unwrap_or(false)
                } else {
                    n == d
                }
            })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Redirect target (`Location:`), if any.
    pub location: Option<String>,
    /// Response body.
    pub body: String,
    /// Certificate presented during the TLS handshake (TLS requests only).
    pub certificate: Option<TlsCertificate>,
}

impl HttpResponse {
    /// A 200 response with `body`.
    pub fn ok(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            location: None,
            body: body.into(),
            certificate: None,
        }
    }

    /// A 302 redirect to `to`.
    pub fn redirect(to: impl Into<String>) -> Self {
        HttpResponse {
            status: 302,
            location: Some(to.into()),
            body: String::new(),
            certificate: None,
        }
    }

    /// An error response with `status`.
    pub fn error(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            location: None,
            body: body.into(),
            certificate: None,
        }
    }

    /// Attach the TLS certificate presented on the handshake.
    pub fn with_certificate(mut self, cert: TlsCertificate) -> Self {
        self.certificate = Some(cert);
        self
    }
}

/// Mail protocols probed for the MX domain set (Sec. 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MailProto {
    /// Simple Mail Transfer Protocol (port 25).
    Smtp,
    /// IMAP4 (port 143).
    Imap,
    /// POP3 (port 110).
    Pop3,
}

impl MailProto {
    /// Conventional port.
    pub fn port(self) -> u16 {
        match self {
            MailProto::Smtp => 25,
            MailProto::Imap => 143,
            MailProto::Pop3 => 110,
        }
    }
}

/// A TCP-level request the simulator models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpRequest {
    /// Connect and read the protocol banner (FTP 21, SSH 22, Telnet 23 …).
    BannerProbe,
    /// An HTTP(S) exchange.
    Http(HttpRequest),
    /// Connect to a mail service and read its greeting banner.
    MailProbe(MailProto),
}

/// A TCP-level response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpResponse {
    /// A service greeting banner.
    Banner(String),
    /// An HTTP exchange result.
    Http(HttpResponse),
    /// A mail-service greeting.
    MailBanner(String),
}

impl TcpResponse {
    /// The HTTP response, if this was an HTTP exchange.
    pub fn as_http(&self) -> Option<&HttpResponse> {
        match self {
            TcpResponse::Http(r) => Some(r),
            _ => None,
        }
    }

    /// The banner text, if this was a banner or mail probe.
    pub fn as_banner(&self) -> Option<&str> {
        match self {
            TcpResponse::Banner(b) => Some(b),
            TcpResponse::MailBanner(b) => Some(b),
            _ => None,
        }
    }
}

/// TCP connection failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Nothing bound to the destination address (or filtered en route).
    Unreachable,
    /// Host is up but the port is closed.
    Refused,
    /// The connection timed out (simulated loss).
    Timeout,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Unreachable => write!(f, "destination unreachable"),
            TcpError::Refused => write!(f, "connection refused"),
            TcpError::Timeout => write!(f, "connection timed out"),
        }
    }
}

impl std::error::Error for TcpError {}

/// A simulated host. One instance may be bound to several IPs
/// (multi-homing) or renumbered over time (churn).
pub trait Host {
    /// Handle an incoming UDP datagram.
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, dgram: &Datagram);

    /// Handle a TCP request on `port`. `None` means the port is closed
    /// (connection refused).
    fn on_tcp(
        &mut self,
        now: SimTime,
        local_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Option<TcpResponse> {
        let _ = (now, local_ip, port, req);
        None
    }
}

/// A host that drops everything — unallocated address space.
pub struct NullHost;

impl Host for NullHost {
    fn on_udp(&mut self, _ctx: &mut HostCtx<'_>, _dgram: &Datagram) {}
}

/// Convenience: a host wrapping a closure, for tests.
pub struct FnHost<F>(pub F)
where
    F: FnMut(&mut HostCtx<'_>, &Datagram);

impl<F> Host for FnHost<F>
where
    F: FnMut(&mut HostCtx<'_>, &Datagram),
{
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, dgram: &Datagram) {
        (self.0)(ctx, dgram);
    }
}

/// Echo host used by tests and the quickstart example.
pub struct EchoHost;

impl Host for EchoHost {
    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, dgram: &Datagram) {
        let payload: Bytes = dgram.payload.clone();
        ctx.send_udp(dgram.reply_with(payload));
    }

    fn on_tcp(
        &mut self,
        _now: SimTime,
        _local_ip: Ipv4Addr,
        port: u16,
        req: &TcpRequest,
    ) -> Option<TcpResponse> {
        match (port, req) {
            (7, TcpRequest::BannerProbe) => Some(TcpResponse::Banner("echo".into())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_coverage() {
        let c = TlsCertificate::valid_for("www.bank.example");
        assert!(c.covers("www.bank.example"));
        assert!(c.covers("WWW.BANK.EXAMPLE"));
        assert!(!c.covers("bank.example"));

        let wild = TlsCertificate {
            common_name: "*.cdn.example".into(),
            san: vec!["*.cdn.example".into(), "cdn.example".into()],
            valid_chain: true,
        };
        assert!(wild.covers("edge1.cdn.example"));
        assert!(wild.covers("cdn.example"));
        assert!(!wild.covers("a.b.cdn.example"), "wildcard is single-label");
        assert!(!wild.covers("cdn.example.evil"));
    }

    #[test]
    fn self_signed_flagged() {
        assert!(!TlsCertificate::self_signed("paypal.example").valid_chain);
    }

    #[test]
    fn mail_ports() {
        assert_eq!(MailProto::Smtp.port(), 25);
        assert_eq!(MailProto::Imap.port(), 143);
        assert_eq!(MailProto::Pop3.port(), 110);
    }

    #[test]
    fn response_constructors() {
        assert_eq!(HttpResponse::ok("x").status, 200);
        assert_eq!(
            HttpResponse::redirect("http://a/").location.unwrap(),
            "http://a/"
        );
        assert_eq!(HttpResponse::error(503, "").status, 503);
    }
}
