//! Every crash point of the commit protocol (DESIGN §3, `scanstore`'s
//! crash model), after ALICE (Pillai et al., "All File Systems Are Not
//! Created Equal", OSDI 2014) applied to the store's own operations.
//!
//! A scripted, seeded workload — single commits, a six-segment group,
//! a reopen-and-resume and commits after it — runs on a recording
//! in-memory disk. For every prefix of the log of operations that
//! changed the tree, two crash states are rebuilt:
//!
//! * *all applied*: every operation in the prefix took effect;
//! * *durable only*: a file holds the contents of its last fsync
//!   (nothing if it was never synced), and a create, rename or remove
//!   survives only if its directory was fsynced after it. Directories
//!   are durable once made: the store directory's own entry belongs to
//!   its parent, which the store does not own.
//!
//! Each state must reopen without a rollback and hold a committed
//! prefix: every commit the script saw return `Ok` by then, each
//! snapshot equal to the uninterrupted run's. Running the rest of the
//! script must then leave the uninterrupted run's tree, byte for byte.

mod common;

use common::{MemDisk, Op, Tree};
use scanstore::{
    CampaignStore, Disk, Observation, ObservationSink, Snapshot, SnapshotSink, SnapshotSource,
    StoreView,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DIR: &str = "/store";
const SEED: u64 = 0x5eed_2015;
const BASE_MS: u64 = 1_000_000;

enum Step {
    Commit(u32),
    /// Weeks `.0..1`, committed as one group.
    Group(u32, u32),
    /// Drops the writer and opens the store again.
    Reopen,
}

const SCRIPT: [Step; 6] = [
    Step::Commit(0),
    Step::Commit(1),
    Step::Group(2, 8),
    Step::Reopen,
    Step::Commit(8),
    Step::Commit(9),
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Week `w`'s seeded snapshot: about three quarters of 64 addresses,
/// under a tag that is new in the first four weeks and reused after.
fn commit_week(store: &mut CampaignStore, w: u32) -> io::Result<u32> {
    let mut rng = SEED ^ (u64::from(w) << 32);
    let tag = store.intern(&format!("tag-{}", w % 4));
    let t_ms = BASE_MS + u64::from(w);
    for ip in 0..64u32 {
        let r = splitmix(&mut rng);
        if !r.is_multiple_of(4) {
            store.observe(Observation {
                country: tag,
                asn: (r >> 16) as u32 % 5,
                banner_hash: r,
                ..Observation::at(ip, (r >> 8) as u8 % 6, t_ms)
            });
        }
    }
    let meta = [("roll".to_string(), splitmix(&mut rng).to_string())];
    store.commit(&format!("week-{w}"), t_ms, &meta)
}

/// Runs the script on `disk`, skipping the weeks the store already
/// holds; `acked` hears the snapshot count each step made durable.
fn run_script(disk: Arc<dyn Disk>, mut acked: impl FnMut(u32)) -> io::Result<()> {
    let mut store = CampaignStore::open_on(disk.clone(), DIR)?;
    for step in SCRIPT {
        let held = store.snapshot_count();
        match step {
            Step::Commit(w) if w >= held => {
                commit_week(&mut store, w)?;
                acked(w + 1);
            }
            Step::Group(from, to) if to > held => {
                store.begin_group();
                for w in from.max(held)..to {
                    commit_week(&mut store, w)?;
                }
                store.end_group()?;
                acked(to);
            }
            Step::Reopen => {
                drop(store);
                store = CampaignStore::open_on(disk.clone(), DIR)?;
            }
            Step::Commit(_) | Step::Group(..) => {}
        }
    }
    Ok(())
}

/// The file-system state a log prefix leaves: files are inodes, so a
/// rename carries what was synced under the old name.
#[derive(Default)]
struct Model {
    /// Per inode: its contents now, and at its last fsync.
    inodes: Vec<(Vec<u8>, Vec<u8>)>,
    live: BTreeMap<PathBuf, usize>,
    durable: BTreeMap<PathBuf, usize>,
    dirs: BTreeSet<PathBuf>,
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Write(path, bytes) => match self.live.get(path) {
                Some(&inode) => self.inodes[inode].0 = bytes.clone(),
                None => {
                    self.live.insert(path.clone(), self.inodes.len());
                    self.inodes.push((bytes.clone(), Vec::new()));
                }
            },
            Op::Sync(dir) if self.dirs.contains(dir) => {
                let inside = |path: &PathBuf| path.parent() == Some(dir.as_path());
                self.durable.retain(|path, _| !inside(path));
                let entries = self.live.iter().filter(|(path, _)| inside(path));
                self.durable
                    .extend(entries.map(|(path, &inode)| (path.clone(), inode)));
            }
            Op::Sync(path) => {
                let inode = &mut self.inodes[self.live[path]];
                inode.1 = inode.0.clone();
            }
            Op::Rename(from, to) => {
                let inode = self.live.remove(from).expect("the log renames what exists");
                self.live.insert(to.clone(), inode);
            }
            Op::Remove(path) => drop(self.live.remove(path)),
            Op::CreateDir(dir) => self.dirs.extend(dir.ancestors().map(Path::to_path_buf)),
        }
    }

    /// The *all applied* state, or with `durable` the *durable only* one.
    fn crash_state(&self, durable: bool) -> Tree {
        let (names, synced) = if durable {
            (&self.durable, true)
        } else {
            (&self.live, false)
        };
        let contents = |inode: usize| {
            let (now, at_sync) = &self.inodes[inode];
            if synced { at_sync } else { now }.clone()
        };
        Tree {
            files: names
                .iter()
                .map(|(p, &i)| (p.clone(), contents(i)))
                .collect(),
            dirs: self.dirs.clone(),
        }
    }
}

/// The uninterrupted run: its operation log, `(log length, snapshots
/// durable)` at each acknowledgement, its snapshots and its final tree.
struct Reference {
    log: Vec<Op>,
    acks: Vec<(usize, u32)>,
    snapshots: Vec<Snapshot>,
    tree: Tree,
}

fn reference() -> Reference {
    let disk = Arc::new(MemDisk::new(Tree::default()));
    let mut acks = Vec::new();
    run_script(disk.clone(), |held| acks.push((disk.log().len(), held))).unwrap();
    let (log, tree) = (disk.log(), disk.tree());
    let store = CampaignStore::open_on(disk, DIR).unwrap();
    let snapshots = (0..store.snapshot_count())
        .map(|seq| store.snapshot(seq).unwrap())
        .collect();
    Reference {
        log,
        acks,
        snapshots,
        tree,
    }
}

/// Reopens crash state `tree` of prefix `k` and resumes the script.
fn check_crash_state(reference: &Reference, k: usize, tree: Tree, what: &str) {
    let at = format!("{what} after {k} of {} operations", reference.log.len());
    let dir = Path::new(DIR);
    let disk = Arc::new(MemDisk::new(tree.clone()));
    match StoreView::open_on(disk.clone(), dir) {
        Ok(view) => assert!(!view.recovered(), "{at}: the view rolled back"),
        Err(e) => {
            let missing = e.kind() == io::ErrorKind::NotFound && !tree.dirs.contains(dir);
            assert!(missing, "{at}: {e}");
        }
    }
    let store = CampaignStore::open_on(disk.clone(), dir).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(store.stats().recovery_events, 0, "{at}: counted a rollback");
    let held = store.snapshot_count();
    let acked = reference.acks.iter().filter(|&&(len, _)| len <= k);
    let acked = acked.map(|&(_, held)| held).max().unwrap_or(0);
    assert!(held >= acked, "{at}: holds {held} of {acked} acknowledged");
    for seq in 0..held {
        let snapshot = store.snapshot(seq).unwrap();
        assert_eq!(
            snapshot, reference.snapshots[seq as usize],
            "{at}: seq {seq}"
        );
    }
    if let Ok(view) = StoreView::open_on(disk.clone(), dir) {
        assert_eq!(view.generation(), held, "{at}");
    }
    drop(store);
    run_script(disk.clone(), |_| {}).unwrap_or_else(|e| panic!("{at}: resume: {e}"));
    assert!(
        disk.tree() == reference.tree,
        "{at}: the resumed tree differs"
    );
}

#[test]
fn every_prefix_reopens_at_a_committed_prefix_and_resumes() {
    let reference = reference();
    assert_eq!(reference.snapshots.len(), 10);
    assert_eq!(reference.acks.last(), Some(&(reference.log.len(), 10)));
    let mut model = Model::default();
    for k in 0..=reference.log.len() {
        if k > 0 {
            model.apply(&reference.log[k - 1]);
        }
        check_crash_state(&reference, k, model.crash_state(false), "all applied");
        check_crash_state(&reference, k, model.crash_state(true), "durable only");
    }
}

/// A failed directory fsync fails the commit, alone or at a group's
/// end, and leaves the manifest, so a healthy reopen reads the
/// checkpoint before it.
#[test]
fn a_failed_directory_sync_fails_the_commit() {
    let dir = Path::new(DIR);
    let manifest = dir.join("manifest.json");
    for grouped in [false, true] {
        let armed = Arc::new(AtomicBool::new(false));
        let fails = Arc::clone(&armed);
        let disk = Arc::new(MemDisk::failing(Tree::default(), move |op| {
            matches!(op, Op::Sync(p) if p == Path::new(DIR)) && fails.load(Ordering::SeqCst)
        }));
        let mut store = CampaignStore::open_on(disk.clone(), dir).unwrap();
        commit_week(&mut store, 0).unwrap();
        commit_week(&mut store, 1).unwrap();
        let before = store.snapshot(1).unwrap();
        let on_disk = disk.tree().files[&manifest].clone();

        armed.store(true, Ordering::SeqCst);
        let outcome = if grouped {
            store.begin_group();
            commit_week(&mut store, 2).unwrap();
            commit_week(&mut store, 3).unwrap();
            store.end_group()
        } else {
            commit_week(&mut store, 2).map(drop)
        };
        let err = outcome.expect_err("the directory fsync failed");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(disk.tree().files[&manifest], on_disk, "grouped: {grouped}");
        drop(store);

        let healthy = Arc::new(MemDisk::new(disk.tree()));
        let store = CampaignStore::open_on(healthy, dir).unwrap();
        assert_eq!(store.snapshot_count(), 2, "grouped: {grouped}");
        assert_eq!(store.snapshot(1).unwrap(), before);
        assert_eq!(store.stats().recovery_events, 0);
    }
}
