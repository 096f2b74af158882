//! Serve-chaos harness integration tests (DESIGN §13), against the
//! real `repro` binary: each chaos profile must pass, the report line
//! must be byte-identical across same-seed runs, and `repro scrub`
//! must gate on store damage.

#![cfg(unix)]

mod common;

use common::{seed_weekly, TempDir};
use std::path::Path;
use std::process::Command;

/// Runs `repro serve --selftest` (plus `extra`) and returns
/// (exit code, stdout).
fn run_selftest(store: &Path, extra: &[&str]) -> (i32, String) {
    let mut args = vec!["serve", "--store", store.to_str().unwrap(), "--selftest"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).unwrap(),
    )
}

#[test]
fn malformed_profile_passes_and_is_byte_identical() {
    let tmp = TempDir::new("malformed");
    seed_weekly(&tmp.0, &[64, 48]);
    let (code_a, out_a) = run_selftest(&tmp.0, &["--chaos", "malformed"]);
    let (code_b, out_b) = run_selftest(&tmp.0, &["--chaos", "malformed"]);
    assert_eq!(code_a, 0, "{out_a}");
    assert_eq!(code_b, 0);
    assert!(out_a.contains("\"pass\":true"), "{out_a}");
    assert_eq!(
        out_a, out_b,
        "chaos report must be byte-identical across runs"
    );
}

#[test]
fn overload_profile_passes() {
    let tmp = TempDir::new("overload");
    seed_weekly(&tmp.0, &[64, 48]);
    let (code, out) = run_selftest(&tmp.0, &["--chaos", "overload"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"chaos\":\"overload\""), "{out}");
    assert!(out.contains("\"pass\":true"), "{out}");
}

#[test]
fn corruption_profile_passes() {
    let tmp = TempDir::new("corruption");
    seed_weekly(&tmp.0, &[64, 48]);
    let (code, out) = run_selftest(&tmp.0, &["--chaos", "corruption"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"chaos\":\"corruption\""), "{out}");
    assert!(out.contains("\"pass\":true"), "{out}");
}

#[test]
fn unknown_profile_is_a_usage_error() {
    let tmp = TempDir::new("unknown");
    seed_weekly(&tmp.0, &[64, 48]);
    let (code, _) = run_selftest(&tmp.0, &["--chaos", "nope"]);
    assert_ne!(code, 0);
}

/// The hardening flags at uncontended values must not change the
/// deterministic selftest report: admission admits everything and the
/// deadline never expires, so the fleet sees identical bytes.
#[test]
fn uncontended_hardening_flags_leave_selftest_identical() {
    let tmp = TempDir::new("flags");
    seed_weekly(&tmp.0, &[64, 48]);
    let (code_plain, plain) = run_selftest(&tmp.0, &[]);
    let (code_armed, armed) =
        run_selftest(&tmp.0, &["--max-inflight", "64", "--deadline-ms", "1000"]);
    assert_eq!(code_plain, 0, "{plain}");
    assert_eq!(code_armed, 0, "{armed}");
    assert_eq!(plain, armed);
}

#[test]
fn scrub_cli_gates_on_store_damage() {
    let tmp = TempDir::new("scrub");
    seed_weekly(&tmp.0, &[64, 48]);
    let healthy = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scrub", "--store", tmp.0.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(healthy.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&healthy.stdout).contains("weekly: ok"));

    // Truncate the newest committed segment: scrub must exit 1 and
    // name the verdict.
    let seg = tmp.0.join("weekly").join("seg-00001.gws");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);
    let damaged = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scrub", "--store", tmp.0.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(damaged.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&damaged.stdout);
    assert!(stdout.contains("UNHEALTHY"), "{stdout}");
    assert!(stdout.contains("SizeMismatch"), "{stdout}");

    let json = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scrub", "--store", tmp.0.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert_eq!(json.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&json.stdout).contains("size_mismatch"));
}
