//! Sink traits: how campaigns hand observations to a store.
//!
//! Campaign code (`scanner::campaign::*`) is written against
//! [`ObservationSink`] so the same scan loop can stream into an
//! in-memory store, a persistent [`CampaignStore`](crate::CampaignStore),
//! or a [`NullSink`] when the caller only wants the returned summary.

use crate::record::Observation;
use std::io;

/// Receives observations for the snapshot currently being built.
pub trait ObservationSink {
    /// Records one observation. Observations may arrive in any order;
    /// the sink sorts by IP at commit time. If the same IP is observed
    /// twice within one snapshot, the first observation wins (matching
    /// the first-response-wins semantics of the enumeration scan).
    fn observe(&mut self, obs: Observation);

    /// Interns a string, returning its id (stable for the lifetime of
    /// the campaign; `0` is reserved for "absent").
    fn intern(&mut self, s: &str) -> u32;
}

/// A sink that can seal the pending observations into a committed,
/// durable snapshot.
pub trait SnapshotSink: ObservationSink {
    /// Commits the pending observations as the next snapshot and
    /// returns its sequence number. `meta` carries small key/value
    /// annotations (ground truth, per-scan counters).
    fn commit(&mut self, label: &str, t_ms: u64, meta: &[(String, String)]) -> io::Result<u32>;

    /// Opens a group: the commits made until [`end_group`] form one
    /// checkpoint. A sink that pays per checkpoint (the on-disk store)
    /// may stage them and make them durable together; every other sink
    /// has nothing to defer. For campaigns that are all-or-nothing
    /// anyway, where a checkpoint per snapshot buys nothing.
    ///
    /// An error inside a group is a crash as far as the sink is
    /// concerned: the caller drops the handle, and what is durable is
    /// the checkpoint from before the group.
    ///
    /// [`end_group`]: SnapshotSink::end_group
    fn begin_group(&mut self) {}

    /// Closes the group opened by [`begin_group`](Self::begin_group):
    /// on `Ok` every commit since is durable.
    fn end_group(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Swallows everything. Lets campaign entry points keep a sink
/// parameter without forcing callers to persist.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObservationSink for NullSink {
    fn observe(&mut self, _obs: Observation) {}

    fn intern(&mut self, _s: &str) -> u32 {
        0
    }
}

impl SnapshotSink for NullSink {
    fn commit(&mut self, _label: &str, _t_ms: u64, _meta: &[(String, String)]) -> io::Result<u32> {
        Ok(0)
    }
}
