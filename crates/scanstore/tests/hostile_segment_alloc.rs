//! A hostile count reserves no more memory than its bytes back: a
//! CRC-valid store segment or recorder (GWRS) frame whose counts claim
//! 2⁴⁰ entries fails before reserving room for them. `check_segment`,
//! and through it every view open, refresh and `repro scrub`, reaches
//! the segment decoder; `repro trace` reaches the stream reader.
//!
//! One test in this binary: the allocator's counters are process-wide.

mod common;
#[path = "../../scanner/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use scanstore::crc32::crc32;
use scanstore::varint::put_u64;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// A 31-byte segment, CRC included, with no label and the meta, dict,
/// removed and upsert counts `counts`.
fn segment(counts: [u64; 4]) -> Vec<u8> {
    let mut body = scanstore::segment::MAGIC.to_vec();
    body.extend_from_slice(&0u32.to_le_bytes()); // seq
    body.extend_from_slice(&0u64.to_le_bytes()); // t_ms
    body.extend_from_slice(&[0, 0]); // kind: full; label: ""
    for count in counts {
        put_u64(&mut body, count);
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// One GWRS frame, CRC included, whose payload is `counts`: the string
/// table's count, then (if given) the records' count.
fn gwrs_frame(counts: &[u64]) -> Vec<u8> {
    let mut body = Vec::new();
    for &count in counts {
        put_u64(&mut body, count);
    }
    let mut frame = b"GWRS".to_vec();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame
}

#[test]
fn counts_claiming_2_40_entries_reserve_at_most_64_kib() {
    for claimed in 0..4 {
        let mut counts = [0; 4];
        counts[claimed] = 1 << 40;
        let bytes = segment(counts);
        assert_eq!(bytes.len(), 31);
        counting_alloc::reset_peak_live_bytes();
        let base = counting_alloc::live_bytes();
        let decoded = scanstore::segment::decode(&bytes);
        let peak = counting_alloc::peak_live_bytes() - base;
        assert!(decoded.is_err(), "count {claimed} decoded: {decoded:?}");
        assert!(peak <= 64 << 10, "count {claimed}: {peak} bytes reserved");
    }

    // The recorder stream: the string table's count, then the records'.
    // A corrupt frame ends the valid prefix, so nothing is read back.
    let tmp = common::TempDir::new("hostile-gwrs");
    std::fs::create_dir_all(&tmp.0).unwrap();
    for (name, counts) in [("strings", &[1 << 40][..]), ("records", &[0, 1 << 40])] {
        let path = tmp.0.join(format!("{name}.gwrs"));
        std::fs::write(&path, gwrs_frame(counts)).unwrap();
        counting_alloc::reset_peak_live_bytes();
        let base = counting_alloc::live_bytes();
        let read = scanstore::read_stream(&path);
        let peak = counting_alloc::peak_live_bytes() - base;
        assert!(read.unwrap().is_empty(), "{name} count decoded");
        assert!(peak <= 64 << 10, "{name} count: {peak} bytes reserved");
    }
}
