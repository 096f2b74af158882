//! scanstore: a persistent, delta-encoded snapshot store with
//! checkpoint/resume for scan campaigns.
//!
//! A campaign (weekly enumeration, churn cohort tracking, CHAOS and
//! banner sweeps) streams [`Observation`]s into an
//! [`ObservationSink`] and seals each scan round with
//! [`SnapshotSink::commit`]. Two sinks are provided:
//!
//! * [`MemoryStore`] — keeps snapshots in memory; the default when no
//!   `--store` directory is given.
//! * [`CampaignStore`] — appends each snapshot as a CRC-checked,
//!   delta-encoded segment file and commits it durably with an
//!   atomic manifest rename. Reopening a store after a crash resumes
//!   from the last committed segment; torn or corrupted segments roll
//!   the checkpoint back to the longest valid prefix.
//!
//! Report code reads either store through [`SnapshotSource`] —
//! snapshot iterators, adjacent-snapshot diff cursors, and
//! [`cohort_survival`] tracking — so figures and tables derived from
//! a reopened store are byte-for-byte identical to a from-scratch run
//! over the same snapshots.

pub mod crc32;
pub mod faults;
pub mod memory;
pub mod record;
pub mod recorder;
pub mod scrub;
pub mod segment;
pub mod sink;
pub mod source;
pub mod store;
pub mod varint;
pub mod view;

pub use faults::FaultSpec;
pub use memory::MemoryStore;
pub use record::{flags, fnv1a, Observation, SnapshotDiff};
pub use recorder::{read_stream, RecorderStream, StoredRecord};
pub use scrub::{scrub_root, scrub_store, ScrubReport, SegmentVerdict};
pub use sink::{NullSink, ObservationSink, SnapshotSink};
pub use source::{cohort_survival, Snapshot, SnapshotSource};
pub use store::{CampaignStore, SegmentEntry, StoreStats};
pub use view::{campaign_dirs, AsnSeries, IndexEntry, ReadIndex, StoreView};
