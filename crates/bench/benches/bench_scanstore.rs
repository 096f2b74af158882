//! scanstore throughput: segment writes, diff-cursor reads, and the
//! delta-encoded format's compression ratio against naive JSON lines.
//!
//! After the criterion timings the read group prints the workload's
//! compression line. The ratio is asserted in tier-1
//! (`scanstore/tests/store_roundtrip.rs`); the tracked size figure is
//! gwbench's `scanstore.bytes_per_record`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scanstore::{CampaignStore, Observation, SnapshotSink, SnapshotSource};
use std::path::{Path, PathBuf};

const PER_WEEK: u32 = 20_000;
const WEEKS: u32 = 8;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("gw-bench-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One week's worth of observations over a slowly drifting population:
/// ~1/7 of addresses rotate out each week, mirroring the churn the
/// weekly enumeration campaign produces.
fn synth_week(store: &mut dyn SnapshotSink, week: u32, per_week: u32) {
    let software = store.intern("dnsmasq-2.51");
    let country = store.intern("CN");
    for i in 0..per_week {
        let ip = 0x0a00_0000 + i * 11;
        if (ip as u64 + week as u64).is_multiple_of(7) {
            continue; // rotated out this week
        }
        let mut obs = Observation::at(ip, 0, 1_000_000 + week as u64 * 604_800_000);
        obs.software = software;
        obs.country = country;
        obs.banner_hash = (ip as u64) << 7 | week as u64;
        store.observe(obs);
    }
    store
        .commit(&format!("week-{week}"), week as u64 * 604_800_000, &[])
        .expect("commit");
}

fn populate(dir: &Path, weeks: u32, per_week: u32) -> CampaignStore {
    let mut store = CampaignStore::open(dir).expect("open store");
    for week in 0..weeks {
        synth_week(&mut store, week, per_week);
    }
    store
}

fn bench_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("scanstore_write");
    g.sample_size(10);
    for &per_week in &[2_000u32, PER_WEEK] {
        g.throughput(Throughput::Elements(per_week as u64 * WEEKS as u64));
        g.bench_with_input(
            BenchmarkId::new("commit_weeks", per_week),
            &per_week,
            |b, &per_week| {
                b.iter_with_setup(
                    || TempDir::new("write"),
                    |tmp| {
                        populate(&tmp.0, WEEKS, per_week);
                        tmp
                    },
                )
            },
        );
    }
    g.finish();
}

fn bench_read(c: &mut Criterion) {
    let tmp = TempDir::new("read");
    let store = populate(&tmp.0, WEEKS, PER_WEEK);
    let live: u64 = (0..WEEKS - 1)
        .map(|w| store.diff(w).unwrap().upserts.len() as u64)
        .sum();

    let mut g = c.benchmark_group("scanstore_read");
    g.sample_size(20);
    g.throughput(Throughput::Elements(live));
    g.bench_function("diff_cursor", |b| {
        b.iter(|| {
            let mut upserts = 0u64;
            for seq in 0..store.snapshot_count() - 1 {
                let d = store.diff(seq).expect("diff");
                upserts += d.upserts.len() as u64;
            }
            upserts
        })
    });
    g.bench_function("snapshot_scan", |b| {
        b.iter(|| {
            let mut records = 0u64;
            store
                .for_each_snapshot(&mut |snap| {
                    records += snap.records.len() as u64;
                    Ok(())
                })
                .expect("scan");
            records
        })
    });
    g.finish();

    let stats = store.stats();
    println!(
        "compression: {} bytes on disk vs {} as JSON lines ({:.1}x)",
        stats.bytes_written, stats.json_bytes_equiv, stats.compression_ratio
    );
}

criterion_group!(benches, bench_write, bench_read);
criterion_main!(benches);
