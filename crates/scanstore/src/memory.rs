//! In-memory store: the zero-persistence counterpart to
//! [`CampaignStore`](crate::CampaignStore). Campaigns stream into it
//! through the same sink traits, and report code reads it through the
//! same [`SnapshotSource`] — which is what makes the store-vs-scratch
//! equivalence tests byte-for-byte.

use crate::record::{decode_records, encode_records, Observation};
use crate::sink::{ObservationSink, SnapshotSink};
use crate::source::{Snapshot, SnapshotSource};
use crate::varint::Reader;
use std::collections::HashMap;
use std::io;

/// Sorts pending observations by IP, keeping the first occurrence of
/// each duplicate IP (first-response-wins).
pub(crate) fn seal_pending(pending: &mut Vec<Observation>) -> Vec<Observation> {
    let mut records = std::mem::take(pending);
    records.sort_by_key(|o| o.ip);
    records.dedup_by_key(|o| o.ip);
    records
}

/// A committed snapshot, its records held as the bytes of the record
/// codec the disk segments use (gap-coded addresses, varint fields,
/// timestamps relative to `t_ms`): a weekly record is ≈ 10 bytes here
/// and 64 as an [`Observation`].
#[derive(Debug)]
struct Packed {
    label: String,
    t_ms: u64,
    meta: Vec<(String, String)>,
    count: usize,
    records: Vec<u8>,
}

impl Packed {
    fn unpack(&self, seq: u32) -> io::Result<Snapshot> {
        let mut reader = Reader::new(&self.records);
        let records = decode_records(&mut reader, self.count, self.t_ms)?;
        Ok(Snapshot {
            seq,
            label: self.label.clone(),
            t_ms: self.t_ms,
            meta: self.meta.clone(),
            records,
        })
    }
}

/// An in-memory snapshot sequence with interned strings.
#[derive(Debug, Default)]
pub struct MemoryStore {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
    pending: Vec<Observation>,
    snapshots: Vec<Packed>,
}

impl MemoryStore {
    /// An empty store; string id 0 is reserved for "absent".
    pub fn new() -> MemoryStore {
        MemoryStore {
            strings: vec![String::new()],
            ids: HashMap::new(),
            pending: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Resident bytes, from lengths: the packed records and their meta,
    /// uncommitted observations and the string table (each string is
    /// held twice, by id and as lookup key).
    pub fn resident_bytes(&self) -> usize {
        let meta = |s: &Packed| s.meta.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
        let packed = self.snapshots.iter().map(|s| s.records.len() + meta(s));
        let strings = self.strings.iter().map(|s| 2 * s.len());
        packed.sum::<usize>()
            + strings.sum::<usize>()
            + self.pending.len() * std::mem::size_of::<Observation>()
    }
}

impl ObservationSink for MemoryStore {
    fn observe(&mut self, obs: Observation) {
        self.pending.push(obs);
    }

    fn intern(&mut self, s: &str) -> u32 {
        if s.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }
}

impl SnapshotSink for MemoryStore {
    fn commit(&mut self, label: &str, t_ms: u64, meta: &[(String, String)]) -> io::Result<u32> {
        let seq = self.snapshots.len() as u32;
        let records = seal_pending(&mut self.pending);
        telemetry::counter_with("scanstore.segments_written", &[("backend", "memory")]).inc();
        telemetry::counter_with("scanstore.records_committed", &[("backend", "memory")])
            .add(records.len() as u64);
        let mut packed = Vec::with_capacity(records.len() * 12);
        encode_records(&mut packed, &records, t_ms);
        packed.shrink_to_fit();
        self.snapshots.push(Packed {
            label: label.to_string(),
            t_ms,
            meta: meta.to_vec(),
            count: records.len(),
            records: packed,
        });
        Ok(seq)
    }
}

impl SnapshotSource for MemoryStore {
    fn snapshot_count(&self) -> u32 {
        self.snapshots.len() as u32
    }

    fn string(&self, id: u32) -> &str {
        self.strings
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn snapshot(&self, seq: u32) -> io::Result<Snapshot> {
        self.snapshots
            .get(seq as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no snapshot {seq}")))?
            .unpack(seq)
    }

    fn find_label(&self, label: &str) -> Option<u32> {
        self.snapshots
            .iter()
            .position(|s| s.label == label)
            .map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_zero_is_absent() {
        let mut store = MemoryStore::new();
        assert_eq!(store.intern(""), 0);
        let us = store.intern("US");
        let de = store.intern("DE");
        assert_ne!(us, de);
        assert_eq!(store.intern("US"), us);
        assert_eq!(store.string(us), "US");
        assert_eq!(store.string(0), "");
        assert_eq!(store.string(999), "");
    }

    #[test]
    fn commit_sorts_and_first_response_wins() {
        let mut store = MemoryStore::new();
        store.observe(Observation::at(9, 0, 10));
        store.observe(Observation::at(3, 5, 10));
        store.observe(Observation::at(9, 2, 11)); // duplicate, loses
        let seq = store.commit("week-0", 10, &[]).unwrap();
        assert_eq!(seq, 0);
        let snap = store.snapshot(0).unwrap();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.records[0].ip, 3);
        assert_eq!(snap.records[1].ip, 9);
        assert_eq!(snap.records[1].rcode, 0);
    }
}
