//! Telemetry must never perturb the science: traces are byte-stable
//! for a fixed seed, and the derived reports are identical whether or
//! not any exporter is attached.

use goingwild::{
    collect_bundle, experiments, fig1_from_source, run_analysis, AnalysisOptions, BundleData,
    BundleOptions, CampaignKind, DeriveOptions, WorldConfig,
};
use std::net::Ipv4Addr;
use telemetry::recorder::RecordKind;
use telemetry::Telemetry;
use worldgen::build_world;

mod common;
use common::SharedBuf;

fn cfg() -> WorldConfig {
    WorldConfig {
        seed: 0xD1CE,
        scale: 0.0001,
        udp_loss: 0.004,
        weeks: 3,
        ..WorldConfig::default()
    }
}

/// One campaign of `cfg()`, collected into memory the way the binary
/// collects it.
fn collect(kind: CampaignKind, weeks: u32) -> BundleData {
    let opts = BundleOptions {
        weeks,
        ..BundleOptions::new(cfg())
    };
    collect_bundle(&opts, &[kind], None).expect("collect")
}

fn traced_weekly_run() -> Vec<u8> {
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    collect(CampaignKind::Weekly, 3);
    telemetry::detach_trace().expect("flush trace");
    buf.contents()
}

#[test]
fn traces_are_byte_identical_across_runs() {
    let tel = Telemetry::new();
    let _in = tel.enter();
    let first = traced_weekly_run();
    let second = traced_weekly_run();
    assert!(!first.is_empty(), "trace captured nothing");
    assert_eq!(
        first, second,
        "same seed must produce byte-identical traces"
    );
    // Trace lines are sim-time only: wall-clock would break stability.
    let text = String::from_utf8(first).expect("utf8");
    for line in text.lines() {
        assert!(
            !line.contains("wall"),
            "wall time leaked into trace: {line}"
        );
    }
}

#[test]
fn reports_are_unchanged_by_exporters() {
    // Bare run: no trace attached.
    let bare = {
        let tel = Telemetry::new();
        let _in = tel.enter();
        let bundle = collect(CampaignKind::Weekly, 3);
        fig1_from_source(bundle.source(CampaignKind::Weekly).unwrap()).expect("derive")
    };

    // Instrumented run: trace attached, on a registry of its own.
    let instrumented = {
        let tel = Telemetry::new();
        let _in = tel.enter();
        let buf = SharedBuf::default();
        telemetry::attach_trace(Box::new(buf.clone()));
        let bundle = collect(CampaignKind::Weekly, 3);
        telemetry::detach_trace().expect("flush trace");
        assert!(!buf.contents().is_empty());
        fig1_from_source(bundle.source(CampaignKind::Weekly).unwrap()).expect("derive")
    };

    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        serde_json::to_string(&instrumented).unwrap(),
        "attaching exporters must not change the derived report"
    );
}

/// Collects a weekly-only bundle and derives the three Weekly-backed
/// experiments in parallel (`classify::par_map`), with a trace attached
/// throughout.
/// Returns the trace bytes and, when `profiled`, the sim-time profile.
fn traced_bundle_run(profiled: bool) -> (Vec<u8>, Option<telemetry::Profile>) {
    let buf = SharedBuf::default();
    telemetry::attach_trace(Box::new(buf.clone()));
    if profiled {
        telemetry::enable_profile();
    }
    let opts = BundleOptions::new(cfg());
    let bundle = collect_bundle(&opts, &[CampaignKind::Weekly], None).expect("collect");
    let exps: Vec<_> = ["fig1", "tab1", "tab2"]
        .iter()
        .map(|id| experiments::experiment(id).expect("known experiment"))
        .collect();
    let outs = experiments::derive_all(&bundle, &exps, &DeriveOptions::default());
    assert_eq!(outs.len(), 3);
    for out in &outs {
        out.as_ref().expect("derivation succeeds");
    }
    telemetry::detach_trace().expect("flush trace");
    (buf.contents(), telemetry::take_profile())
}

#[test]
fn parallel_derivation_spans_stay_out_of_traces() {
    let tel = Telemetry::new();
    let _in = tel.enter();
    let (plain_a, no_profile) = traced_bundle_run(false);
    assert!(no_profile.is_none(), "profiler must stay off by default");
    let (profiled, profile) = traced_bundle_run(true);
    let (plain_b, _) = traced_bundle_run(false);

    // Default path: byte-stable, with the profiling-only spans
    // (collect.bundle root, derive.* workers) consuming no span ids.
    assert_eq!(
        plain_a, plain_b,
        "a profiled run in between must not shift later unprofiled traces"
    );
    let plain_text = String::from_utf8(plain_a).expect("utf8");
    assert!(
        !plain_text.contains("collect.bundle") && !plain_text.contains("derive."),
        "profiling-only spans leaked into an unprofiled trace"
    );

    // Profiled path: derive spans are quiet — worker threads close them
    // in scheduler-dependent order, so trace lines would break the
    // byte-stability contract even under --profile.
    let profiled_text = String::from_utf8(profiled).expect("utf8");
    assert!(
        profiled_text.contains("collect.bundle"),
        "profiling should add the root collect span to the trace"
    );
    assert!(
        !profiled_text.contains("derive."),
        "worker-closed derive spans must never write trace lines"
    );

    // The profile sees each derivation exactly once, folded at the
    // root: a span closed on a worker thread must not interleave into
    // another thread's open stack, regardless of which worker ran it.
    let profile = profile.expect("profile collected");
    for id in ["fig1", "tab1", "tab2"] {
        let name = format!("derive.{id}");
        let span = profile
            .spans()
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("profile is missing {name}"));
        assert_eq!(span.count, 1, "{name} derived once");
        assert!(
            profile.folded().contains_key(&name),
            "{name} should fold as a root-level stack"
        );
    }
    for path in profile.folded().keys() {
        if let Some(pos) = path.find("derive.") {
            assert_eq!(pos, 0, "derive span nested under another stack: {path}");
            assert!(
                !path.contains(';'),
                "stack grew under a derive span: {path}"
            );
        }
    }
}

#[test]
fn flight_recorder_does_not_perturb_traces() {
    let tel = Telemetry::new();
    let _in = tel.enter();
    // Churn probes run through the instrumented retry engine, so this
    // workload exercises the recorder hooks (weekly sweeps do not).
    let traced_churn_run = || {
        let buf = SharedBuf::default();
        telemetry::attach_trace(Box::new(buf.clone()));
        collect(CampaignKind::Churn, 2);
        telemetry::detach_trace().expect("flush trace");
        buf.contents()
    };
    let plain = traced_churn_run();
    let (recorded, records) = {
        telemetry::recorder::enable(1.0, cfg().seed, 1 << 20);
        let trace = traced_churn_run();
        let stats = telemetry::recorder::stats();
        let records = telemetry::recorder::drain();
        telemetry::recorder::disable();
        assert!(stats.recorded > 0, "recorder captured nothing");
        assert_eq!(records.len() as u64, stats.buffered);
        (trace, records)
    };
    assert_eq!(
        plain, recorded,
        "enabling the flight recorder must not change trace bytes"
    );
    // Attempts and give-ups carry the AS the bought database names for
    // the address, also where churn has emptied it since the cohort scan.
    let mut world = build_world(cfg());
    let end = records.iter().map(|r| r.t_ms).max().expect("records");
    world.advance_to(netsim::SimTime(end));
    let mut emptied = false;
    for r in &records {
        if !matches!(r.kind, RecordKind::Attempt | RecordKind::GaveUp) {
            continue;
        }
        let ip = Ipv4Addr::from(r.ip);
        assert_eq!(r.asn, world.geo.asn(ip).unwrap_or(0), "{r:?}");
        emptied |= r.kind == RecordKind::GaveUp && r.asn != 0 && world.resolver_at(ip).is_none();
    }
    assert!(emptied, "no give-up on an address churn emptied");
}

#[test]
fn analysis_report_is_unchanged_by_exporters() {
    let tel = Telemetry::new();
    let _in = tel.enter();
    let run = |traced: bool| {
        let buf = SharedBuf::default();
        if traced {
            telemetry::attach_trace(Box::new(buf.clone()));
        }
        let mut world = build_world(cfg());
        let report = run_analysis(&mut world, &AnalysisOptions::default());
        if traced {
            telemetry::detach_trace().expect("flush trace");
        }
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(false), run(true));
}
