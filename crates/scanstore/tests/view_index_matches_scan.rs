//! Property test: the interned read-side index ([`scanstore::ReadIndex`])
//! must agree with a plain linear scan of the decoded snapshots, for
//! arbitrary committed stores. The scan side replays the writer's
//! `CampaignStore` snapshots through `SnapshotSource`. Writer and view
//! load segments through the same reader (`scanstore::disk`), so this
//! does not test decoding; it tests the index, and the two paths share
//! no index code.

mod common;

use common::TempDir;
use proptest::prelude::*;
use scanstore::{
    CampaignStore, Observation, ObservationSink, SnapshotSink, SnapshotSource, StoreView,
};
use std::collections::{BTreeMap, HashMap};

const BASE_MS: u64 = 1_000_000;

fn arb_observation() -> impl Strategy<Value = Observation> {
    (
        0u32..400,
        any::<u8>(),
        any::<u8>(),
        any::<u32>(),
        0u32..6,
        any::<u64>(),
        0u64..1 << 40,
        0u64..1 << 40,
    )
        .prop_map(
            |(ip, rcode, flags, software, asn, banner_hash, first, dur)| Observation {
                ip,
                rcode,
                flags,
                software,
                device: software % 7,
                country: software % 5,
                asn,
                rdns: software % 3,
                banner_hash,
                value: banner_hash ^ dur,
                first_seen_ms: first,
                last_seen_ms: first + dur,
            },
        )
}

fn arb_batch() -> impl Strategy<Value = Vec<Observation>> {
    proptest::collection::vec(arb_observation(), 0..80).prop_map(|mut v| {
        v.sort_by_key(|o| o.ip);
        v.dedup_by_key(|o| o.ip);
        v
    })
}

/// The linear-scan oracle: everything the index claims, recomputed
/// naively from materialized snapshots.
struct Scan {
    per_ip: BTreeMap<u32, (Observation, u32, u32, u32)>, // latest, first, last, rounds
    present: BTreeMap<u32, Vec<u64>>,
    survivors: BTreeMap<u32, Vec<u64>>,
    sizes: Vec<u64>,
}

fn linear_scan(store: &CampaignStore) -> Scan {
    let snapshots = store.snapshot_count();
    let mut scan = Scan {
        per_ip: BTreeMap::new(),
        present: BTreeMap::new(),
        survivors: BTreeMap::new(),
        sizes: Vec::new(),
    };
    let mut cohort0: HashMap<u32, u32> = HashMap::new();
    for seq in 0..snapshots {
        let snap = store.snapshot(seq).unwrap();
        scan.sizes.push(snap.records.len() as u64);
        if seq == 0 {
            for o in &snap.records {
                cohort0.insert(o.ip, o.asn);
            }
        }
        for o in &snap.records {
            scan.per_ip
                .entry(o.ip)
                .and_modify(|(latest, _, last, rounds)| {
                    *latest = *o;
                    *last = seq;
                    *rounds += 1;
                })
                .or_insert((*o, seq, seq, 1));
            let series = scan.present.entry(o.asn).or_default();
            series.resize(snapshots as usize, 0);
            series[seq as usize] += 1;
            if let Some(&asn0) = cohort0.get(&o.ip) {
                let series = scan.survivors.entry(asn0).or_default();
                series.resize(snapshots as usize, 0);
                series[seq as usize] += 1;
            }
        }
    }
    scan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_agrees_with_linear_scan(batches in proptest::collection::vec(arb_batch(), 1..5)) {
        let tmp = TempDir::new("prop-index");
        {
            let mut store = CampaignStore::open(&tmp.0).unwrap();
            for (w, batch) in batches.iter().enumerate() {
                for o in batch {
                    store.observe(*o);
                }
                store.commit(&format!("week-{w}"), BASE_MS + w as u64, &[]).unwrap();
            }
        }
        let store = CampaignStore::open(&tmp.0).unwrap();
        let view = StoreView::open(&tmp.0).unwrap();
        let scan = linear_scan(&store);
        let idx = view.index();
        let last = store.snapshot_count() - 1;

        // Per-IP point lookups.
        prop_assert_eq!(idx.entries().len(), scan.per_ip.len());
        for (&ip, &(latest, first_seq, last_seq, rounds)) in &scan.per_ip {
            let e = idx.lookup(ip).expect("scanned IP must be indexed");
            prop_assert_eq!(e.latest, latest);
            prop_assert_eq!(e.first_seq, first_seq);
            prop_assert_eq!(e.last_seq, last_seq);
            prop_assert_eq!(e.rounds, rounds);
            prop_assert_eq!(e.live, last_seq == last);
        }
        // No phantom entries: everything indexed was scanned, and IPs
        // never committed are absent.
        for e in idx.entries() {
            prop_assert!(scan.per_ip.contains_key(&e.ip));
        }
        prop_assert!(idx.lookup(401).is_none());

        // Aggregates: per-AS presence/survival and snapshot sizes.
        prop_assert_eq!(idx.snapshot_sizes(), scan.sizes.as_slice());
        let indexed_asns: Vec<u32> = idx.asns().collect();
        let scanned_asns: Vec<u32> = scan
            .present
            .keys()
            .chain(scan.survivors.keys())
            .copied()
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        prop_assert_eq!(indexed_asns, scanned_asns);
        let zeroes = vec![0u64; store.snapshot_count() as usize];
        for asn in idx.asns() {
            let series = idx.asn_series(asn).unwrap();
            let present = scan.present.get(&asn).unwrap_or(&zeroes);
            let survivors = scan.survivors.get(&asn).unwrap_or(&zeroes);
            prop_assert_eq!(&series.present, present);
            prop_assert_eq!(&series.survivors, survivors);
        }

        // Strings resolve identically through both readers.
        for e in idx.entries() {
            prop_assert_eq!(
                SnapshotSource::string(&view, e.latest.country),
                store.string(e.latest.country)
            );
        }
    }
}
