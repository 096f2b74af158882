//! Hostile request lines and targets, seeded: each goes the way the
//! daemon takes a readable head — `http::request_target`, then
//! `split_target` and `QueryEngine::handle` — and must end without a
//! panic in a status the router returns, every non-200 body in the
//! uniform `{"error":…,"status":…}` shape. The companion of
//! `server::tests::a_split_terminator_parses_like_a_single_write`,
//! which covers the bytes before the head is complete.

mod common;

use common::TempDir;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serve::http::{request_target, split_target, Response};
use serve::QueryEngine;

/// Whether `r` is one the router can return, in the uniform error shape
/// unless it is a 200.
fn routable(r: &Response) -> bool {
    let body = String::from_utf8_lossy(&r.body);
    let suffix = format!("\",\"status\":{}}}\n", r.status);
    let uniform = body
        .strip_prefix("{\"error\":\"")
        .and_then(|b| b.strip_suffix(&suffix))
        .is_some_and(|msg| {
            // Escaped: no control byte, and no quote that ends it early.
            let mut escaped = false;
            msg.bytes().all(|b| {
                let ok = b >= 0x20 && (b != b'"' || escaped);
                escaped = !escaped && b == b'\\';
                ok
            })
        });
    r.status == 200 || (matches!(r.status, 400 | 404 | 405 | 500 | 503) && uniform)
}

/// One mutation of `line`: a bit flip, a truncation, a run of query
/// punctuation, a 2ᵏ-digit number or another method.
fn mutate(rng: &mut SmallRng, line: &[u8]) -> Vec<u8> {
    let mut out = line.to_vec();
    let rest = line.splitn(2, |&b| b == b' ').nth(1).unwrap_or_default();
    match rng.gen_range(0..5) {
        0 if !out.is_empty() => {
            let at = rng.gen_range(0..out.len());
            out[at] ^= 1 << rng.gen_range(0..8);
        }
        1 if !out.is_empty() => out.truncate(rng.gen_range(0..out.len())),
        2 => {
            let run = vec![b"?&="[rng.gen_range(0..3)]; rng.gen_range(1..9)];
            let at = rng.gen_range(0..=out.len());
            out.splice(at..at, run);
        }
        3 => {
            let path = ["classify", "churn", "amplifiers"][rng.gen_range(0..3)];
            let key = ["ip", "asn", "limit"][rng.gen_range(0..3)];
            let digit = char::from(b'0' + rng.gen_range(0..10));
            let value = String::from(digit).repeat(1 << rng.gen_range(0..17));
            out = format!("GET /{path}?country=US&{key}={value} HTTP/1.1").into_bytes();
        }
        _ => {
            let method = ["POST", "PUT", "DELETE", "HEAD", "get", "OPTIONS", ""];
            out = [
                method[rng.gen_range(0..method.len())].as_bytes(),
                b" ",
                rest,
            ]
            .concat();
        }
    }
    out
}

#[test]
fn hostile_request_targets_end_in_a_routable_status() {
    let tmp = TempDir::new("hostile");
    common::seed_store(&tmp.0);
    let engine = QueryEngine::open(&tmp.0).unwrap();
    const LINES: [&str; 7] = [
        "GET /classify?ip=0.0.0.10 HTTP/1.1",
        "GET /churn?asn=1&campaign=weekly HTTP/1.1",
        "GET /amplifiers?country=US&limit=5 HTTP/1.1",
        "GET /coverage?campaign=banner HTTP/1.1",
        "GET /campaigns HTTP/1.1",
        "GET /healthz HTTP/1.1",
        "GET /classify?ip=0.0.0.9&x=1 HTTP/1.1",
    ];
    let mut rng = SmallRng::seed_from_u64(41);
    let mut statuses = std::collections::BTreeMap::new();
    for case in 0..1_500 {
        let mut bytes = mutate(&mut rng, LINES[case % LINES.len()].as_bytes());
        if rng.gen_bool(0.3) {
            bytes = mutate(&mut rng, &bytes);
        }
        bytes.extend_from_slice(b"\r\nHost: t\r\n\r\n");
        let input = String::from_utf8_lossy(&bytes).into_owned();
        let response = std::panic::catch_unwind(|| match String::from_utf8(bytes.clone()) {
            // What the daemon answers a head that is not UTF-8.
            Err(_) => Response::error(400, "request head is not valid UTF-8"),
            Ok(head) => request_target(&head).map_or_else(
                |r| r,
                |target| {
                    let (path, params) = split_target(target);
                    assert!(target.starts_with(path) && params.len() <= target.len());
                    engine.handle(target)
                },
            ),
        });
        let response = response.unwrap_or_else(|_| panic!("case {case} panicked: {input:?}"));
        assert!(
            routable(&response),
            "case {case}: {input:?} => {response:?}"
        );
        *statuses.entry(response.status).or_insert(0) += 1;
    }
    let seen: Vec<u16> = statuses.keys().copied().collect();
    assert_eq!(seen, [200, 400, 404, 405], "{statuses:?}");
}
