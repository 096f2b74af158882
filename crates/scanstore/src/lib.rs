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
//! Every reader of a store directory — the writer's open, the
//! read-only [`StoreView`] and the scrubber — goes through `disk.rs`:
//! one manifest type, one segment check, one prefix loader. Every file
//! operation they make goes through a [`Disk`] handle taken at open:
//! [`StdDisk`] is the real disk, [`Faulty`] injects the serve-chaos
//! faults, and tests stand in fakes.
//!
//! Report code reads either store through [`SnapshotSource`] —
//! snapshot iterators, adjacent-snapshot diff cursors, and
//! [`cohort_survival`] tracking — so figures and tables derived from
//! a reopened store are byte-for-byte identical to a from-scratch run
//! over the same snapshots.

pub mod crc32;
mod disk;
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
pub mod vfs;
pub mod view;

pub use disk::{SegmentEntry, SegmentVerdict};
pub use faults::{FaultSpec, Faulty};
pub use memory::MemoryStore;
pub use record::{flags, fnv1a, Observation, SnapshotDiff};
pub use recorder::{read_stream, RecorderStream, StoredRecord};
pub use scrub::{scrub_root, scrub_store, ScrubReport};
pub use sink::{NullSink, ObservationSink, SnapshotSink};
pub use source::{cohort_survival, Snapshot, SnapshotSource};
pub use store::{CampaignStore, StoreStats};
pub use vfs::{Disk, StdDisk};
pub use view::{campaign_dirs, AsnSeries, IndexEntry, ReadIndex, StoreView};
