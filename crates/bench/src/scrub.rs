//! `repro scrub` — offline store integrity pass.

use crate::cli::{usage_error, Parsed};
use std::path::PathBuf;

pub fn main(p: &Parsed) -> Result<(), String> {
    let Some(store) = p.get("--store").map(PathBuf::from) else {
        usage_error("scrub requires --store <dir>");
    };
    let json = p.has("--json");
    let reports = scanstore::scrub_root(&store).map_err(|e| e.to_string())?;
    if reports.is_empty() {
        return Err(format!("{} holds no campaign stores", store.display()));
    }
    let healthy = reports.iter().all(|(_, r)| r.healthy());
    if json {
        let out = telemetry::json::to_string(|o| {
            for (name, report) in &reports {
                o.object(name, |o| report.write_json(o));
            }
        });
        println!("{out}");
    } else {
        for (name, report) in &reports {
            let verdict = if report.healthy() { "ok" } else { "UNHEALTHY" };
            println!(
                "{name}: {verdict} ({} committed, {} segments checked, {} orphans)",
                report.committed,
                report.segments.len(),
                report.orphans.len()
            );
            if !report.manifest_ok {
                println!("  manifest: unreadable or wrong version");
            }
            for seg in report
                .segments
                .iter()
                .filter(|s| s.verdict != scanstore::SegmentVerdict::Ok)
            {
                println!("  seg {} ({}): {:?}", seg.seq, seg.file, seg.verdict);
            }
        }
    }
    if !healthy {
        std::process::exit(1);
    }
    Ok(())
}
