//! Byte pins for a `ScrubReport`'s JSON: every verdict kind, an error
//! string holding quotes and control characters, orphans, and the
//! unreadable-manifest report. The literals were recorded from the
//! hand-written emitter this document used to come from; any change to
//! an output byte fails here.

use scanstore::scrub::SegmentReport;
use scanstore::{ScrubReport, SegmentVerdict};

fn json(report: &ScrubReport) -> String {
    telemetry::json::to_string(|o| report.write_json(o))
}

fn segment(seq: u32, file: &str, verdict: SegmentVerdict) -> SegmentReport {
    SegmentReport {
        seq,
        file: file.to_string(),
        verdict,
    }
}

#[test]
fn every_verdict_kind_is_pinned() {
    let report = ScrubReport {
        committed: 5,
        manifest_ok: true,
        segments: vec![
            segment(0, "seg-00000.gws", SegmentVerdict::Ok),
            segment(1, "seg-00001.gws", SegmentVerdict::Missing),
            segment(
                2,
                "seg-00002.gws",
                SegmentVerdict::SizeMismatch {
                    manifest: 4096,
                    disk: 2048,
                },
            ),
            segment(
                3,
                "seg \"3\"\\.gws",
                SegmentVerdict::Corrupt {
                    error: "crc \"mismatch\"\n\tat \\ byte\u{0}\u{1b}\u{7f}é".to_string(),
                },
            ),
            segment(
                4,
                "seg-00004.gws",
                SegmentVerdict::SeqMismatch { header: 9 },
            ),
        ],
        orphans: vec!["seg-00005.gws".to_string(), "x\"y\n.tmp".to_string()],
    };
    assert_eq!(
        json(&report),
        "{\"healthy\":false,\"manifest_ok\":true,\"committed\":5,\"segments\":[{\"seq\":0,\"file\":\"seg-00000.gws\",\"verdict\":\"ok\"},{\"seq\":1,\"file\":\"seg-00001.gws\",\"verdict\":\"missing\"},{\"seq\":2,\"file\":\"seg-00002.gws\",\"verdict\":\"size_mismatch\",\"manifest_bytes\":4096,\"disk_bytes\":2048},{\"seq\":3,\"file\":\"seg \\\"3\\\"\\\\.gws\",\"verdict\":\"corrupt\",\"error\":\"crc \\\"mismatch\\\"\\n\\tat \\\\ byte\\u0000\\u001b\u{7f}é\"},{\"seq\":4,\"file\":\"seg-00004.gws\",\"verdict\":\"seq_mismatch\",\"header_seq\":9}],\"orphans\":[\"seg-00005.gws\",\"x\\\"y\\n.tmp\"]}"
    );
}

#[test]
fn an_unreadable_manifest_is_pinned() {
    let report = ScrubReport {
        committed: 0,
        manifest_ok: false,
        segments: Vec::new(),
        orphans: Vec::new(),
    };
    assert_eq!(
        json(&report),
        "{\"healthy\":false,\"manifest_ok\":false,\"committed\":0,\"segments\":[],\"orphans\":[]}"
    );
}
