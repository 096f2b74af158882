//! Minimal HTTP/1.1 plumbing for the query service.
//!
//! The daemon speaks just enough HTTP for curl, browsers, and the
//! synthetic fleet: `GET` requests, `Connection: close`, explicit
//! `Content-Length`, JSON bodies. Responses carry no wall-clock
//! headers, so a response is a pure function of (store, request).

use std::io::Write;
use telemetry::json;

/// A computed response, before serialization to the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 400, 404, 405, 429, 431, 5xx).
    pub status: u16,
    /// Body, newline-terminated (JSON unless `content_type` says
    /// otherwise).
    pub body: Vec<u8>,
    /// Whether the body may be stored in the response cache.
    pub cacheable: bool,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` hint in seconds, emitted only on shed responses.
    /// `None` leaves the wire bytes of every other response unchanged.
    pub retry_after: Option<u32>,
}

/// Default body content type.
pub const CONTENT_TYPE_JSON: &str = "application/json";

/// A response body: one JSON object, newline-terminated.
pub fn json_body(capacity: usize, fill: impl FnOnce(&mut json::Object<'_>)) -> String {
    let mut body = String::with_capacity(capacity);
    json::object(&mut body, fill);
    body.push('\n');
    body
}

impl Response {
    /// A cacheable 200 with a JSON body.
    pub fn ok(body: String) -> Response {
        Response {
            cacheable: true,
            ..Response::ok_live(body, CONTENT_TYPE_JSON)
        }
    }

    /// A non-cacheable 200 (live data: metrics, SLO state, debug).
    pub fn ok_live(body: String, content_type: &'static str) -> Response {
        Response {
            status: 200,
            body: body.into_bytes(),
            cacheable: false,
            content_type,
            retry_after: None,
        }
    }

    /// An error response. Every 4xx/5xx this service emits goes
    /// through here, so the body shape is uniform:
    /// `{"error": <message>, "status": <code>}` with fixed key order.
    pub fn error(status: u16, message: &str) -> Response {
        let body = json_body(32 + message.len(), |o| {
            o.field("error", message);
            o.field("status", status);
        });
        Response {
            status,
            ..Response::ok_live(body, CONTENT_TYPE_JSON)
        }
    }

    /// A load-shed error (admission control): the uniform error body
    /// plus a `Retry-After` hint telling clients when to come back.
    pub fn shed(status: u16, message: &str, retry_after_s: u32) -> Response {
        Response {
            retry_after: Some(retry_after_s),
            ..Response::error(status, message)
        }
    }

    /// Serializes status line + headers + body.
    pub fn to_wire(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Error",
        };
        // Head and body go into one buffer, sized once: the head's
        // fixed text, a 31-byte reason, 20-digit lengths and a
        // Retry-After line come to under 160 bytes besides the type.
        let mut wire = Vec::with_capacity(160 + self.content_type.len() + self.body.len());
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        if let Some(s) = self.retry_after {
            let _ = write!(wire, "Retry-After: {s}\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        wire
    }
}

/// The status code of serialized wire bytes (`HTTP/1.1 NNN ...`).
pub fn wire_status(wire: &[u8]) -> u16 {
    wire.strip_prefix(b"HTTP/1.1 ")
        .and_then(|rest| std::str::from_utf8(rest.get(..3)?).ok())
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or(0)
}

/// Parses the request line of an HTTP request head, returning
/// `(method, target)`.
pub fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    Some((method, target))
}

/// The target of a GET request line, or the uniform error that answers
/// any other: `405` for another method, `400` for no request line.
pub fn request_target(head: &str) -> Result<&str, Response> {
    match parse_request_line(head) {
        Some(("GET", target)) => Ok(target),
        Some(_) => Err(Response::error(405, "only GET is supported")),
        None => Err(Response::error(400, "malformed request line")),
    }
}

/// The value of header `name` (case-insensitive) in a request head,
/// trimmed. `None` when absent.
pub fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// Splits a request target into `(path, query pairs)`. No percent
/// decoding: every value this API accepts is plain ASCII.
pub fn split_target(target: &str) -> (&str, Vec<(&str, &str)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, query)) => {
            let params = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| p.split_once('=').unwrap_or((p, "")))
                .collect();
            (path, params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_and_target() {
        let (m, t) =
            parse_request_line("GET /classify?ip=1.2.3.4 HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!((m, t), ("GET", "/classify?ip=1.2.3.4"));
        let (path, params) = split_target(t);
        assert_eq!(path, "/classify");
        assert_eq!(params, vec![("ip", "1.2.3.4")]);
        let (path, params) = split_target("/campaigns");
        assert_eq!(path, "/campaigns");
        assert!(params.is_empty());
    }

    #[test]
    fn wire_format_is_deterministic() {
        let r = Response::ok("{\"ok\":true}\n".to_string());
        let wire = String::from_utf8(r.to_wire()).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(wire.contains("Content-Length: 12\r\n"));
        assert!(wire.ends_with("{\"ok\":true}\n"));
        assert!(!wire.contains("Date:"), "no wall-clock headers");
    }

    #[test]
    fn error_bodies_are_uniform() {
        // Regression: every 4xx/5xx body is `{"error":...,"status":N}`
        // with exactly this key order.
        let r = Response::error(404, "unknown path /nope");
        assert_eq!(
            String::from_utf8(r.body.clone()).unwrap(),
            "{\"error\":\"unknown path /nope\",\"status\":404}\n"
        );
        assert!(!r.cacheable);
        let wire = String::from_utf8(Response::error(503, "slo breach").to_wire()).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{wire}"
        );
        assert!(
            wire.ends_with("{\"error\":\"slo breach\",\"status\":503}\n"),
            "{wire}"
        );
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let r = Response::shed(429, "overloaded: queue full", 2);
        assert_eq!(
            String::from_utf8(r.body.clone()).unwrap(),
            "{\"error\":\"overloaded: queue full\",\"status\":429}\n"
        );
        let wire = String::from_utf8(r.to_wire()).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{wire}"
        );
        assert!(wire.contains("Retry-After: 2\r\n"), "{wire}");
        // The hint sits inside the header block, before the blank line.
        assert!(
            wire.find("Retry-After").unwrap() < wire.find("\r\n\r\n").unwrap(),
            "{wire}"
        );
        let wire = String::from_utf8(Response::error(431, "too big").to_wire()).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{wire}"
        );
        assert!(!wire.contains("Retry-After"), "{wire}");
    }

    #[test]
    fn header_values_and_wire_status() {
        let head = "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n";
        assert_eq!(header_value(head, "accept"), Some("text/plain"));
        assert_eq!(header_value(head, "Accept"), Some("text/plain"));
        assert_eq!(header_value(head, "user-agent"), None);
        assert_eq!(wire_status(&Response::error(405, "x").to_wire()), 405);
        assert_eq!(wire_status(b"garbage"), 0);
    }
}
