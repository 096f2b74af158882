//! `repro trace` — query a recorded GWRS flight-recorder stream.

use crate::cli::{emit, usage_error, Parsed};
use scanstore::StoredRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use telemetry::recorder::RecordKind;

struct TraceArgs {
    stream: PathBuf,
    campaign: Option<String>,
    probe: Option<Ipv4Addr>,
    asn: Option<u32>,
    fault: Option<String>,
    gave_up: bool,
    limit: usize,
}

fn read_args(p: &Parsed) -> TraceArgs {
    let Some(stream) = &p.positional else {
        usage_error("trace requires a recorded stream path (from `repro --record <path>`)");
    };
    TraceArgs {
        stream: PathBuf::from(stream),
        campaign: p.string("--campaign"),
        probe: p.get("--probe").map(|ip| {
            ip.parse()
                .unwrap_or_else(|_| usage_error("--probe expects a dotted IPv4 address"))
        }),
        asn: p.num("--asn"),
        fault: p.string("--fault"),
        gave_up: p.has("--gave-up"),
        limit: p.num("--limit").unwrap_or(50),
    }
}

fn fmt_ms(t_ms: u64) -> String {
    format!("t+{}.{:03}s", t_ms / 1000, t_ms % 1000)
}

/// One human-readable timeline line per record.
fn fmt_record(r: &StoredRecord) -> String {
    let ip = Ipv4Addr::from(r.ip);
    match r.kind {
        RecordKind::Attempt => format!(
            "{} {:<6} attempt #{} sent to {ip}{}",
            fmt_ms(r.t_ms),
            r.campaign,
            r.attempt,
            if r.asn != 0 {
                format!(" (AS{})", r.asn)
            } else {
                String::new()
            }
        ),
        RecordKind::Backoff => format!(
            "{} {:<6} backoff: wait {} ms before attempt #{} (campaign-wide)",
            fmt_ms(r.t_ms),
            r.campaign,
            r.value,
            r.attempt
        ),
        RecordKind::Drop => format!(
            "{} {:<6} attempt #{}: datagram for {ip} dropped by `{}`",
            fmt_ms(r.t_ms),
            r.campaign,
            r.attempt,
            r.reason
        ),
        RecordKind::Response => format!(
            "{} {:<6} response from {ip}, rcode {}",
            fmt_ms(r.t_ms),
            r.campaign,
            r.value
        ),
        RecordKind::GaveUp => format!(
            "{} {:<6} gave up on {ip} after {} attempts{}",
            fmt_ms(r.t_ms),
            r.campaign,
            r.value,
            if r.asn != 0 {
                format!(" (AS{})", r.asn)
            } else {
                String::new()
            }
        ),
    }
}

pub fn main(p: &Parsed) -> Result<(), String> {
    let ta = read_args(p);
    let mut records = scanstore::read_stream(&ta.stream)
        .map_err(|e| format!("cannot read {}: {e}", ta.stream.display()))?;
    // `read_stream` recovers by keeping the longest valid prefix — but
    // a non-empty file yielding *zero* records is not a recovery, it's
    // the wrong (or fully truncated) file. An empty stream file is
    // legitimate: a recorder armed on a run that probed nothing.
    if records.is_empty() {
        let len = std::fs::metadata(&ta.stream).map(|m| m.len()).unwrap_or(0);
        if len > 0 {
            return Err(format!(
                "{} ({len} bytes) contains no decodable GWRS segments — truncated or not a recorder stream",
                ta.stream.display()
            ));
        }
    }
    if let Some(c) = &ta.campaign {
        records.retain(|r| &r.campaign == c);
    }
    let mut out = String::new();
    render_trace(&ta, &records, &mut out);
    emit(&out);
    Ok(())
}

fn render_trace(ta: &TraceArgs, records: &[StoredRecord], out: &mut String) {
    use std::fmt::Write as _;
    if records.is_empty() {
        let _ = writeln!(out, "no records match (stream {})", ta.stream.display());
        return;
    }

    if let Some(ip) = ta.probe {
        // Full timeline for one probe: its own records plus the
        // campaign-wide backoff decisions of the campaigns it was
        // probed by, replayed in sequence order.
        let ip_u32 = u32::from(ip);
        let campaigns: BTreeSet<&str> = records
            .iter()
            .filter(|r| r.ip == ip_u32)
            .map(|r| r.campaign.as_str())
            .collect();
        let timeline: Vec<&StoredRecord> = records
            .iter()
            .filter(|r| r.ip == ip_u32 || (r.ip == 0 && campaigns.contains(r.campaign.as_str())))
            .collect();
        let _ = writeln!(out, "# timeline for {ip} — {} records", timeline.len());
        for r in timeline {
            let _ = writeln!(out, "  [{:>6}] {}", r.seq, fmt_record(r));
        }
        return;
    }

    if let Some(asn) = ta.asn {
        let ips: BTreeSet<u32> = records
            .iter()
            .filter(|r| r.asn == asn && r.ip != 0)
            .map(|r| r.ip)
            .collect();
        let matching: Vec<&StoredRecord> = records.iter().filter(|r| ips.contains(&r.ip)).collect();
        let _ = writeln!(
            out,
            "# AS{asn} — {} probes, {} records",
            ips.len(),
            matching.len()
        );
        print_limited(&matching, ta.limit, out);
        return;
    }

    if let Some(reason) = &ta.fault {
        let matching: Vec<&StoredRecord> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Drop && &r.reason == reason)
            .collect();
        let _ = writeln!(
            out,
            "# drops caused by `{reason}` — {} records",
            matching.len()
        );
        print_limited(&matching, ta.limit, out);
        return;
    }

    if ta.gave_up {
        let matching: Vec<&StoredRecord> = records
            .iter()
            .filter(|r| r.kind == RecordKind::GaveUp)
            .collect();
        let _ = writeln!(
            out,
            "# probes that exhausted every attempt — {}",
            matching.len()
        );
        print_limited(&matching, ta.limit, out);
        return;
    }

    // No filter: summarize the stream.
    let mut by_campaign: BTreeMap<&str, [u64; 5]> = BTreeMap::new();
    let mut drop_reasons: BTreeMap<&str, u64> = BTreeMap::new();
    let mut probes: BTreeSet<u32> = BTreeSet::new();
    for r in records {
        by_campaign.entry(r.campaign.as_str()).or_default()[r.kind.to_u8() as usize] += 1;
        if r.kind == RecordKind::Drop {
            *drop_reasons.entry(r.reason.as_str()).or_default() += 1;
        }
        if r.ip != 0 {
            probes.insert(r.ip);
        }
    }
    let _ = writeln!(
        out,
        "# {} — {} records, {} distinct probes",
        ta.stream.display(),
        records.len(),
        probes.len()
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "campaign", "attempts", "backoffs", "drops", "responses", "gave_up"
    );
    for (campaign, counts) in &by_campaign {
        let _ = writeln!(
            out,
            "  {campaign:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            counts[0], counts[1], counts[2], counts[3], counts[4]
        );
    }
    if !drop_reasons.is_empty() {
        let _ = writeln!(out, "  drop reasons:");
        for (reason, n) in &drop_reasons {
            let _ = writeln!(out, "    {reason:<12} {n}");
        }
    }
    let _ = writeln!(
        out,
        "  filter with --probe/--asn/--fault/--gave-up/--campaign for timelines"
    );
}

fn print_limited(records: &[&StoredRecord], limit: usize, out: &mut String) {
    use std::fmt::Write as _;
    let shown = if limit == 0 {
        records.len()
    } else {
        records.len().min(limit)
    };
    for r in &records[..shown] {
        let _ = writeln!(out, "  [{:>6}] {}", r.seq, fmt_record(r));
    }
    if shown < records.len() {
        let _ = writeln!(
            out,
            "  … {} more (raise --limit, or 0 for all)",
            records.len() - shown
        );
    }
}
