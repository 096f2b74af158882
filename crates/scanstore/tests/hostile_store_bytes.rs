//! Hostile store bytes: a valid store's `manifest.json` and segments,
//! mutated by seeded bit flips, truncations, and count or length fields
//! inflated to 2ᵏ, go through every reader of a store directory — the
//! view's open, the writer's open and the scrubber. Each must end in a
//! typed result without a panic, and they must agree: a scrub is
//! healthy exactly when the view opens without rolling back, and the
//! writer keeps the prefix the view holds.

mod common;

use common::{MemDisk, Tree};
use scanstore::crc32::crc32;
use scanstore::varint::{put_u64, Reader};
use scanstore::{
    scrub_store, CampaignStore, Observation, ObservationSink, SnapshotSink, SnapshotSource,
    StoreView,
};
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DIR: &str = "/store";
const CASES: u64 = 600;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Three commits with labels, meta, new strings, upserts and removals.
fn valid_store() -> Tree {
    let disk = Arc::new(MemDisk::new(Tree::default()));
    let mut store = CampaignStore::open_on(disk.clone(), DIR).unwrap();
    for week in 0..3u32 {
        let tag = store.intern(&format!("tag-{week}"));
        for ip in (week..40).step_by(1 + week as usize) {
            let mut o = Observation::at(ip, (ip % 3) as u8, 1_000 + u64::from(week));
            o.country = tag;
            store.observe(o);
        }
        let meta = [("week".to_string(), week.to_string())];
        store.commit(&format!("week-{week}"), 1_000, &meta).unwrap();
    }
    disk.tree()
}

/// Offsets of a segment's count and length varints: the label's
/// length, the meta count and each key and value length, the string
/// count and each string length, the removed count and the upsert count.
fn varint_fields(segment: &[u8]) -> Vec<usize> {
    let mut r = Reader::new(&segment[..segment.len() - 4]);
    r.bytes(17).unwrap(); // magic, seq, t_ms, kind
    let mut fields = Vec::new();
    let mut field = |r: &mut Reader<'_>| {
        fields.push(r.position());
        r.u64().unwrap() as usize
    };
    let label = field(&mut r);
    r.bytes(label).unwrap();
    for _ in 0..field(&mut r) * 2 {
        let len = field(&mut r);
        r.bytes(len).unwrap();
    }
    for _ in 0..field(&mut r) {
        let len = field(&mut r);
        r.bytes(len).unwrap();
    }
    for _ in 0..field(&mut r) {
        r.u64().unwrap();
    }
    field(&mut r);
    fields
}

/// Replaces the varint at `at` with `value` and re-seals the CRC, so
/// the decoder, not the checksum, meets the value.
fn inflate_segment(segment: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut r = Reader::new(&segment[at..]);
    r.u64().unwrap();
    let mut body = segment[..at].to_vec();
    put_u64(&mut body, value);
    body.extend_from_slice(&segment[at + r.position()..segment.len() - 4]);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Replaces the `nth` decimal number in the manifest with `value`.
fn inflate_manifest(manifest: &[u8], nth: usize, value: &str) -> Vec<u8> {
    let starts = (0..manifest.len()).filter(|&i| {
        manifest[i].is_ascii_digit() && (i == 0 || !manifest[i - 1].is_ascii_alphanumeric())
    });
    let starts: Vec<usize> = starts.filter(|&i| manifest[i - 1] == b':').collect();
    let at = starts[nth % starts.len()];
    let end = (at..manifest.len())
        .find(|&i| !manifest[i].is_ascii_digit())
        .unwrap();
    [&manifest[..at], value.as_bytes(), &manifest[end..]].concat()
}

/// Sets the manifest's byte count for `file` to `bytes`.
fn set_manifest_bytes(manifest: &[u8], file: &str, bytes: usize) -> Vec<u8> {
    let text = String::from_utf8(manifest.to_vec()).unwrap();
    let named = text.find(&format!("\"{file}\"")).unwrap();
    let entry = text[..named].rfind('{').unwrap();
    let at = entry + text[entry..].find("\"bytes\":").unwrap() + "\"bytes\":".len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{bytes}{}", &text[..at], &text[end..]).into_bytes()
}

/// Case `case`'s mutation of `valid`, and what it did.
fn mutate(valid: &Tree, case: u64) -> (Tree, String) {
    let mut rng = 0x5eed_0013 ^ case.wrapping_mul(0x9e37_79b9);
    let dir = Path::new(DIR);
    let targets: Vec<PathBuf> = valid.files.keys().cloned().collect();
    let target = &targets[splitmix(&mut rng) as usize % targets.len()];
    let name = target.file_name().unwrap().to_string_lossy().into_owned();
    let bytes = &valid.files[target];
    let mut tree = valid.clone();
    let k = splitmix(&mut rng) % 65;
    let what = match splitmix(&mut rng) % 3 {
        0 => {
            let mut flipped = bytes.clone();
            let flips = 1 + splitmix(&mut rng) % 3;
            for _ in 0..flips {
                let bit = splitmix(&mut rng) as usize % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            tree.files.insert(target.clone(), flipped);
            format!("{flips} bit flips in {name}")
        }
        1 => {
            let len = splitmix(&mut rng) as usize % bytes.len();
            tree.files.insert(target.clone(), bytes[..len].to_vec());
            format!("{name} cut to {len} bytes")
        }
        _ if name == "manifest.json" => {
            let nth = splitmix(&mut rng) as usize;
            let value = (1u128 << k).to_string();
            tree.files
                .insert(target.clone(), inflate_manifest(bytes, nth, &value));
            format!("number {nth} of {name} set to 2^{k}")
        }
        _ => {
            let fields = varint_fields(bytes);
            let at = fields[splitmix(&mut rng) as usize % fields.len()];
            let inflated = inflate_segment(bytes, at, 1u64 << k.min(63));
            let manifest = dir.join("manifest.json");
            let sized = set_manifest_bytes(&tree.files[&manifest], &name, inflated.len());
            tree.files.insert(manifest, sized);
            tree.files.insert(target.clone(), inflated);
            format!("varint at {at} of {name} set to 2^{}", k.min(63))
        }
    };
    (tree, what)
}

#[test]
fn mutated_store_bytes_end_in_typed_results_that_agree() {
    let valid = valid_store();
    let dir = Path::new(DIR);
    let mut rolled_back = 0;
    for case in 0..CASES {
        let (tree, what) = mutate(&valid, case);
        let disk = || Arc::new(MemDisk::new(tree.clone()));
        let outcome = catch_unwind(|| {
            let view = StoreView::open_on(disk(), dir);
            let scrub = scrub_store(&*disk(), dir);
            let writer = CampaignStore::open_on(disk(), dir);
            (view, scrub, writer)
        });
        let Ok((view, scrub, writer)) = outcome else {
            panic!("case {case} ({what}) panicked");
        };
        // Bytes, however hostile, are a verdict, not an I/O error.
        let at = format!("case {case} ({what})");
        let view = view.unwrap_or_else(|e| panic!("{at}: {e}"));
        let scrub = scrub.unwrap_or_else(|e| panic!("{at}: {e}"));
        let writer = writer.unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(scrub.healthy(), !view.recovered(), "{at}: {scrub:?}");
        assert_eq!(writer.snapshot_count(), view.generation(), "{at}");
        rolled_back += u32::from(view.recovered());
    }
    // Most cases are caught; some are harmless, such as a changed
    // manifest field no reader checks (a label, a record count).
    assert!(rolled_back > CASES as u32 / 2, "{rolled_back} rolled back");
    assert!(rolled_back < CASES as u32, "every case rolled back");
}
