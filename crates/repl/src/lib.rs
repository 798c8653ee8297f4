//! # bur-repl — warm-standby replication for `bur` indexes
//!
//! The `bur-wal` log is a self-describing, CRC-framed, generation-tagged
//! record stream living on the primary's page disk or, for an index on a
//! real file, in the `.wal` sidecar beside it. This crate ships that
//! stream to a **follower**: a second index image on its own disk
//! that redoes the primary's page records and serves read-only window /
//! kNN queries from a consistent committed prefix — and, at failover,
//! promotes into a fully writable primary.
//!
//! * [`LogShipper`] — tails the primary's log with an incremental
//!   [`bur_wal::LogCursor`]: each [`LogShipper::poll`] returns the
//!   records appended since the last poll as a torn-tail-safe
//!   [`ShipBatch`], surviving checkpoint rewinds via the generation tag.
//! * [`Follower`] — applies shipped batches onto its own disk through
//!   the same redo rules as crash recovery (full images overwrite,
//!   deltas chain onto the image at their recorded `base_lsn`), but
//!   **only at commit boundaries**: page records stay buffered until
//!   their covering commit arrives, so the replica's pages never contain
//!   an unacknowledged suffix and every query — served through a
//!   read-only [`Bur`] handle from [`Follower::handle`] — sees exactly
//!   the primary's state at the apply-LSN watermark.
//! * [`Follower::promote`] — the failover path: discard the uncommitted
//!   tail, run the tail of recovery (summary / hash / parent-pointer
//!   rebuild, log reattach + checkpoint-rewind) and flip every
//!   outstanding read handle writable in place.
//!
//! When the primary **checkpoints**, its log rewinds onto a fresh
//! generation whose base image is the primary's disk — state the log no
//! longer describes. The shipper reports the rewind and the follower
//! *resyncs*: it recopies the primary's page image and replays the new
//! generation from its opening checkpoint record, never replaying stale
//! records (LSNs are globally monotonic across generations). The same
//! mechanism seeds a fresh follower at [`Follower::attach`] time.
//!
//! The base-image copy is *fuzzy* (the primary keeps writing while it is
//! taken, like any online basebackup): each page read is atomic, and
//! because the first record for a page in a generation is always a full
//! image, replaying the generation normalizes every logged page. A page
//! can only be flushed once its covering commit is durable, so the
//! replica is commit-consistent from the first applied batch.
//!
//! ```
//! use bur_core::{Batch, IndexBuilder, IndexOptions};
//! use bur_geom::{Point, Rect};
//! use bur_repl::{Follower, LogShipper};
//! use bur_storage::MemDisk;
//! use std::sync::Arc;
//!
//! // A durable primary on a shared in-memory disk.
//! let disk = Arc::new(MemDisk::new(1024));
//! let primary = IndexBuilder::generalized().durable().disk(disk.clone()).build().unwrap();
//! let mut batch = Batch::new();
//! batch.insert(1, Point::new(0.2, 0.2)).insert(2, Point::new(0.8, 0.8));
//! primary.apply(&batch).unwrap().wait().unwrap();
//!
//! // Attach a follower, ship the log, query the replica read-only.
//! let mut shipper = LogShipper::new(disk);
//! let mut follower = Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
//! follower.sync_once(&mut shipper).unwrap();
//! let replica = follower.handle();
//! assert_eq!(replica.len(), 2);
//! assert!(replica.insert(3, Point::new(0.5, 0.5)).is_err(), "read-only");
//!
//! // Failover: promote the follower into a writable primary.
//! let new_primary = follower.promote().unwrap();
//! new_primary.insert(3, Point::new(0.5, 0.5)).unwrap();
//! assert_eq!(new_primary.count_in(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), 3);
//! ```

#![warn(missing_docs)]

use bur_core::{Bur, CoreError, IndexOptions, RTreeIndex, LOG_DISK_ANCHOR, WAL_ANCHOR};
use bur_storage::{DiskBackend, Lsn, MemDisk, PageId, StorageError};
use bur_wal::{LogCursor, RedoError, WalRecord};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

pub use bur_wal::ShipBatch;

/// Result alias for replication operations.
pub type ReplResult<T> = Result<T, ReplError>;

/// Errors raised by the replication layer.
#[derive(Debug)]
pub enum ReplError {
    /// Propagated index failure (replay, view construction, promote).
    Core(CoreError),
    /// Propagated disk failure (shipping, base-image copy).
    Storage(StorageError),
    /// The shipped stream violated the replication protocol: a delta
    /// chained to a state the follower never replayed, records arrived
    /// out of LSN order, or a batch belonged to a generation the
    /// follower cannot reach. The follower is desynchronized and must
    /// resync or fail over.
    Protocol(String),
    /// The primary's disk carries no write-ahead log at the anchor page:
    /// only durable indexes can be replicated.
    NotDurable,
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Core(e) => write!(f, "replication: {e}"),
            ReplError::Storage(e) => write!(f, "replication storage: {e}"),
            ReplError::Protocol(msg) => write!(f, "replication protocol: {msg}"),
            ReplError::NotDurable => write!(
                f,
                "primary has no write-ahead log (index not built with durability?)"
            ),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Core(e) => Some(e),
            ReplError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ReplError {
    fn from(e: CoreError) -> Self {
        ReplError::Core(e)
    }
}

impl From<StorageError> for ReplError {
    fn from(e: StorageError) -> Self {
        ReplError::Storage(e)
    }
}

/// Lifetime counters of a [`Follower`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// Records received from the shipper (all kinds).
    pub records_shipped: u64,
    /// Commit/checkpoint records applied (watermark advances).
    pub commits_applied: u64,
    /// Full page images redone.
    pub images_applied: u64,
    /// Page deltas redone.
    pub deltas_applied: u64,
    /// Base-image resynchronizations (attach + checkpoint rewinds).
    pub resyncs: u64,
    /// Pages copied by those resyncs.
    pub pages_copied: u64,
}

/// What one [`Follower::apply`] / [`Follower::sync_once`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Records consumed from the batch.
    pub records: u64,
    /// Commits applied (how often the watermark advanced).
    pub commits: u64,
    /// `true` when the batch carried a generation change and the base
    /// image was recopied from the primary.
    pub resynced: bool,
    /// The apply-LSN watermark after this batch.
    pub applied_lsn: Lsn,
    /// Page records still buffered, waiting for their covering commit.
    pub pending: u64,
}

/// Tails a primary's write-ahead log for shipping (see the crate docs).
///
/// The shipper only ever *reads* the primary's disks; it holds no lock
/// and no reference into the primary's index, so it can run in any
/// thread — or any process that can see the pages.
pub struct LogShipper {
    /// The primary's data pages: the base image followers resync from.
    disk: Arc<dyn DiskBackend>,
    /// The disk the cursor tails — `disk` again when the primary logs in
    /// place.
    log: Arc<dyn DiskBackend>,
    cursor: LogCursor,
}

impl fmt::Debug for LogShipper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (generation, lsn) = self.cursor.position();
        f.debug_struct("LogShipper")
            .field("generation", &generation)
            .field("shipped_lsn", &lsn)
            .finish_non_exhaustive()
    }
}

impl LogShipper {
    /// Tail the log of a durable index that logs in place on `primary`
    /// (the chain anchored at [`WAL_ANCHOR`]) — every index built through
    /// `IndexBuilder::disk(..)` without a log disk.
    #[must_use]
    pub fn new(primary: Arc<dyn DiskBackend>) -> Self {
        Self {
            cursor: LogCursor::new(WAL_ANCHOR),
            log: primary.clone(),
            disk: primary,
        }
    }

    /// Tail the log of a durable index whose log lives on a disk of its
    /// own (the chain anchored at [`LOG_DISK_ANCHOR`] of `log`): records
    /// come from `log`, base images from `primary`. For an index file,
    /// `bur_core::IndexFiles` resolves the pair.
    #[must_use]
    pub fn with_log_disk(primary: Arc<dyn DiskBackend>, log: Arc<dyn DiskBackend>) -> Self {
        Self {
            cursor: LogCursor::new(LOG_DISK_ANCHOR),
            log,
            disk: primary,
        }
    }

    /// `true` when the primary keeps its log on a disk of its own — its
    /// base image then carries no log chain a promoted replica could
    /// reattach.
    #[must_use]
    pub fn logs_elsewhere(&self) -> bool {
        !Arc::ptr_eq(&self.disk, &self.log)
    }

    /// The primary's disk (what followers resync their base image from).
    #[must_use]
    pub fn primary(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// `(generation, last shipped LSN)` — where the shipper stands.
    #[must_use]
    pub fn position(&self) -> (u32, Lsn) {
        self.cursor.position()
    }

    /// Ship everything appended since the last poll. An empty
    /// [`ShipBatch::records`] means the follower is caught up.
    pub fn poll(&mut self) -> ReplResult<ShipBatch> {
        self.cursor.poll(self.log.as_ref()).map_err(|e| match &e {
            StorageError::Io(io) if io.to_string().contains("not a write-ahead log") => {
                ReplError::NotDurable
            }
            _ => ReplError::Storage(e),
        })
    }
}

/// A warm standby: redoes shipped batches onto its own disk and serves
/// read-only queries at the apply-LSN watermark (see the crate docs).
pub struct Follower {
    /// The primary's disk — the base-image source for resyncs. Dropped
    /// (detached) by [`Follower::promote`].
    primary: Arc<dyn DiskBackend>,
    /// The replica's own disk, wrapped by `bur`'s buffer pool.
    bur: Bur,
    /// Where the promoted replica will keep its log when the base image
    /// brings none along (the primary logs elsewhere); empty until then.
    log_disk: Option<Arc<dyn DiskBackend>>,
    /// Options the follower promotes with (strategy, durability, ...).
    opts: IndexOptions,
    /// Generation currently being applied.
    generation: u32,
    /// LSN of the last applied commit — the consistent-prefix watermark.
    applied_lsn: Lsn,
    /// Page records since the last commit, held back so queries never
    /// see an unacknowledged suffix.
    pending: Vec<(Lsn, WalRecord)>,
    /// Last replayed record per page, for delta chain verification.
    page_lsns: HashMap<PageId, Lsn>,
    stats: ReplStats,
}

impl fmt::Debug for Follower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Follower")
            .field("generation", &self.generation)
            .field("applied_lsn", &self.applied_lsn)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Follower {
    /// Attach a fresh follower: copy the primary's base image onto the
    /// (empty) `replica` disk, position at the current log generation,
    /// and apply its surviving records. `opts` is the configuration the
    /// follower will [`Follower::promote`] with; its page size must
    /// match the primary's.
    ///
    /// A primary that logs in place hands the replica a copy of its log
    /// chain with the base image, and promotion recycles it. A primary
    /// that logs elsewhere ([`LogShipper::with_log_disk`]) does not:
    /// promoting its replica with durable options needs
    /// [`Follower::attach_with_log_disk`].
    pub fn attach(
        shipper: &mut LogShipper,
        replica: Arc<dyn DiskBackend>,
        opts: IndexOptions,
    ) -> ReplResult<Self> {
        Self::attach_inner(shipper, replica, None, opts)
    }

    /// [`Follower::attach`], with an (empty) disk for the log the
    /// promoted replica will write — the replica's own `.wal` sidecar.
    pub fn attach_with_log_disk(
        shipper: &mut LogShipper,
        replica: Arc<dyn DiskBackend>,
        replica_log: Arc<dyn DiskBackend>,
        opts: IndexOptions,
    ) -> ReplResult<Self> {
        Self::attach_inner(shipper, replica, Some(replica_log), opts)
    }

    fn attach_inner(
        shipper: &mut LogShipper,
        replica: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
    ) -> ReplResult<Self> {
        let ps = shipper.primary().page_size();
        if replica.page_size() != ps {
            return Err(ReplError::Protocol(format!(
                "replica page size {} != primary's {ps}",
                replica.page_size()
            )));
        }
        if replica.num_pages() != 0 {
            return Err(ReplError::Protocol(
                "attach requires an empty replica disk".into(),
            ));
        }
        let batch = shipper.poll()?;
        if !batch.rewound {
            return Err(ReplError::Protocol(
                "attach poll must start a generation (cursor already used?)".into(),
            ));
        }
        let Some((first_lsn, WalRecord::Checkpoint { meta })) = batch.records.first() else {
            // Every live generation opens with its checkpoint record; a
            // missing one means the primary crashed mid-rewind — recover
            // it first, then attach.
            return Err(ReplError::Protocol(
                "primary log has no opening checkpoint (crashed mid-rewind? recover it first)"
                    .into(),
            ));
        };
        let meta = meta.clone();
        let mut follower = Self {
            primary: shipper.primary().clone(),
            // Placeholder; replaced right after the base copy below.
            bur: Bur::from_index_read_only(RTreeIndex::replica_view(
                replica.clone(),
                opts.buffer_frames,
                &meta,
            )?),
            log_disk,
            opts,
            generation: batch.generation,
            applied_lsn: *first_lsn,
            pending: Vec::new(),
            page_lsns: HashMap::new(),
            stats: ReplStats::default(),
        };
        // The view above was built before the copy only to validate the
        // snapshot; the real base image lands now (atomically with the
        // snapshot install), then the rest of the generation replays
        // through the ordinary path.
        follower.resync_base(*first_lsn, &meta)?;
        follower.stats.records_shipped += batch.records.len() as u64;
        follower.apply_records(&batch.records[1..])?;
        Ok(follower)
    }

    /// [`Follower::attach`] onto a fresh in-memory disk sized like the
    /// primary's pages (and a second one for the replica's log when the
    /// primary logs elsewhere).
    pub fn attach_in_memory(shipper: &mut LogShipper, opts: IndexOptions) -> ReplResult<Self> {
        let ps = shipper.primary().page_size();
        let log_disk = shipper
            .logs_elsewhere()
            .then(|| Arc::new(MemDisk::new(ps)) as Arc<dyn DiskBackend>);
        Self::attach_inner(shipper, Arc::new(MemDisk::new(ps)), log_disk, opts)
    }

    /// A read-only handle on the replica for query threads. Clones stay
    /// valid across applies and resyncs, and become writable handles on
    /// the new primary after [`Follower::promote`].
    #[must_use]
    pub fn handle(&self) -> Bur {
        self.bur.clone()
    }

    /// The apply-LSN watermark: every query through [`Follower::handle`]
    /// sees exactly the primary's committed state at this LSN.
    #[must_use]
    pub fn applied_lsn(&self) -> Lsn {
        self.applied_lsn
    }

    /// The log generation the follower is applying.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Page records buffered since the last commit (never visible to
    /// queries; discarded by a promote).
    #[must_use]
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ReplStats {
        self.stats
    }

    /// Poll the shipper once and apply what arrived — the standby pump.
    pub fn sync_once(&mut self, shipper: &mut LogShipper) -> ReplResult<ApplyReport> {
        let batch = shipper.poll()?;
        self.apply(&batch)
    }

    /// Ship-and-apply until the follower is caught up with the log's
    /// current end (two consecutive empty polls), e.g. before a planned
    /// failover. Returns the final report.
    pub fn catch_up(&mut self, shipper: &mut LogShipper) -> ReplResult<ApplyReport> {
        let mut report = self.sync_once(shipper)?;
        let mut quiet = 0;
        while quiet < 2 {
            let r = self.sync_once(shipper)?;
            if r.records == 0 {
                quiet += 1;
            } else {
                quiet = 0;
                report = r;
            }
        }
        Ok(report)
    }

    /// Apply one shipped batch.
    ///
    /// A batch carrying a generation change ([`ShipBatch::rewound`])
    /// triggers a base-image resync from the primary's disk before its
    /// records (which restart at the new generation's checkpoint) are
    /// applied. Page records are redone in LSN order but only become
    /// visible — and [`Follower::applied_lsn`] only advances — when
    /// their covering commit record applies.
    pub fn apply(&mut self, batch: &ShipBatch) -> ReplResult<ApplyReport> {
        let before_commits = self.stats.commits_applied;
        let mut resynced = false;
        let mut records: &[(Lsn, WalRecord)] = &batch.records;
        if batch.rewound || batch.generation != self.generation {
            if batch.generation < self.generation {
                return Err(ReplError::Protocol(format!(
                    "batch generation {} behind follower's {}",
                    batch.generation, self.generation
                )));
            }
            // The primary checkpoint-rewound. Resync only once the new
            // generation's opening checkpoint record has arrived — the
            // base image and its snapshot swap together, atomically
            // under the index lock, so readers never see new pages under
            // old metadata. Until then (e.g. a poll that caught the
            // rewind mid-write) the follower keeps serving its last
            // consistent state.
            let Some((ckpt_lsn, first)) = records.first() else {
                return Ok(ApplyReport {
                    records: 0,
                    commits: 0,
                    resynced: false,
                    applied_lsn: self.applied_lsn,
                    pending: self.pending.len() as u64,
                });
            };
            let WalRecord::Checkpoint { meta } = first else {
                return Err(ReplError::Protocol(
                    "rewound stream does not open with a checkpoint record".into(),
                ));
            };
            let meta = meta.clone();
            self.generation = batch.generation;
            self.pending.clear();
            self.page_lsns.clear();
            self.resync_base(*ckpt_lsn, &meta)?;
            self.stats.records_shipped += 1;
            resynced = true;
            records = &records[1..];
        }
        self.stats.records_shipped += records.len() as u64;
        self.apply_records(records)?;
        Ok(ApplyReport {
            records: batch.records.len() as u64,
            commits: self.stats.commits_applied - before_commits,
            resynced,
            applied_lsn: self.applied_lsn,
            pending: self.pending.len() as u64,
        })
    }

    /// Fail over: detach from the primary, discard the uncommitted tail,
    /// and promote the replica into a writable index with the options
    /// given at attach time. Every [`Follower::handle`] clone becomes a
    /// handle on the new primary. The returned [`Bur`] serves writes
    /// immediately; with durable options its write-ahead log starts a
    /// fresh generation over the adopted state.
    pub fn promote(self) -> ReplResult<Bur> {
        let Follower {
            bur,
            opts,
            log_disk,
            ..
        } = self;
        bur.promote_replica(opts, log_disk)?;
        Ok(bur)
    }

    /// Redo `records` in order, releasing them to queries per commit.
    fn apply_records(&mut self, records: &[(Lsn, WalRecord)]) -> ReplResult<()> {
        for (lsn, rec) in records {
            let last = self.pending.last().map_or(self.applied_lsn, |&(l, _)| l);
            if *lsn <= last {
                return Err(ReplError::Protocol(format!(
                    "record lsn {lsn} arrived at or behind shipped lsn {last}"
                )));
            }
            match rec {
                WalRecord::PageImage { .. } | WalRecord::PageDelta { .. } => {
                    self.pending.push((*lsn, rec.clone()));
                }
                WalRecord::Commit { meta } | WalRecord::Checkpoint { meta } => {
                    self.apply_commit(*lsn, meta)?;
                }
            }
        }
        Ok(())
    }

    /// Redo the buffered page records and install the commit's snapshot
    /// — one atomic step under the index's exclusive lock, so concurrent
    /// readers jump from watermark to watermark. A malformed record
    /// refuses the commit whole: no page is written, the watermark stays.
    fn apply_commit(&mut self, lsn: Lsn, meta: &[u8]) -> ReplResult<()> {
        let Follower {
            bur,
            pending,
            page_lsns,
            stats,
            ..
        } = self;
        let drained = std::mem::take(pending);
        bur.with_index_mut(|index| -> ReplResult<()> {
            let (images, deltas) =
                bur_wal::redo(index.pool(), &drained, page_lsns).map_err(|e| match e {
                    RedoError::Corrupt(msg) => ReplError::Protocol(msg),
                    RedoError::Storage(e) => ReplError::Storage(e),
                })?;
            stats.images_applied += images;
            stats.deltas_applied += deltas;
            index.install_replica_snapshot(meta)?;
            Ok(())
        })?;
        self.applied_lsn = lsn;
        self.stats.commits_applied += 1;
        Ok(())
    }

    /// Copy every primary page onto the replica through its buffer pool
    /// (so cached frames stay coherent, extending the replica disk as
    /// needed) and install the new generation's opening checkpoint
    /// snapshot — one atomic step under the index's exclusive lock, so
    /// readers move from the old consistent state to the new one without
    /// ever seeing new pages under old metadata. The copy itself is
    /// fuzzy — see the crate docs for why replaying the generation on
    /// top of it converges.
    fn resync_base(&mut self, checkpoint_lsn: Lsn, meta: &[u8]) -> ReplResult<()> {
        let Follower {
            primary,
            bur,
            stats,
            ..
        } = self;
        bur.with_index_mut(|index| -> ReplResult<()> {
            let pool = index.pool().clone();
            let ps = pool.page_size();
            let mut buf = vec![0u8; ps];
            let n = primary.num_pages();
            for pid in 0..n {
                primary.read(pid, &mut buf).map_err(ReplError::Storage)?;
                while pid >= pool.disk().num_pages() {
                    pool.disk().allocate().map_err(ReplError::Storage)?;
                }
                let guard = pool.fetch_for_overwrite(pid).map_err(ReplError::Storage)?;
                guard.write().copy_from_slice(&buf);
            }
            stats.pages_copied += u64::from(n);
            index.install_replica_snapshot(meta)?;
            Ok(())
        })?;
        self.applied_lsn = checkpoint_lsn;
        self.stats.commits_applied += 1;
        self.stats.resyncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_core::{Batch, IndexBuilder};
    use bur_geom::{Point, Rect};

    const PAGE: usize = 1024;

    fn primary_pair() -> (Bur, Arc<MemDisk>) {
        let disk = Arc::new(MemDisk::new(PAGE));
        let primary = IndexBuilder::generalized()
            .durable()
            .disk(disk.clone())
            .build()
            .unwrap();
        (primary, disk)
    }

    fn grid_batch(range: std::ops::Range<u64>) -> Batch {
        let mut batch = Batch::new();
        for oid in range {
            batch.insert(
                oid,
                Point::new((oid % 16) as f32 / 16.0, ((oid / 16) % 16) as f32 / 16.0),
            );
        }
        batch
    }

    #[test]
    fn follower_tracks_primary_and_serves_reads() {
        let (primary, disk) = primary_pair();
        primary.apply(&grid_batch(0..64)).unwrap().wait().unwrap();

        let mut shipper = LogShipper::new(disk);
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        let replica = follower.handle();
        assert!(replica.is_read_only());
        assert_eq!(replica.len(), 64);

        // More primary writes arrive incrementally.
        primary.apply(&grid_batch(64..128)).unwrap().wait().unwrap();
        let report = follower.sync_once(&mut shipper).unwrap();
        assert!(report.commits >= 1);
        assert_eq!(replica.len(), 128);
        let w = Rect::new(0.0, 0.0, 0.49, 0.49);
        let mut a: Vec<u64> = primary.query(&w).unwrap().collect();
        let mut b: Vec<u64> = replica.query(&w).unwrap().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        replica.validate().unwrap();
    }

    #[test]
    fn read_only_handle_refuses_writes_until_promoted() {
        let (primary, disk) = primary_pair();
        primary.apply(&grid_batch(0..32)).unwrap().wait().unwrap();
        let mut shipper = LogShipper::new(disk);
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        follower.catch_up(&mut shipper).unwrap();
        let replica = follower.handle();
        assert!(matches!(
            replica.insert(900, Point::new(0.5, 0.5)),
            Err(CoreError::ReadOnly)
        ));
        assert!(matches!(
            replica.apply(&grid_batch(900..901)),
            Err(CoreError::ReadOnly)
        ));
        assert!(matches!(replica.checkpoint(), Err(CoreError::ReadOnly)));
        assert!(matches!(
            replica.update(0, Point::new(0.0, 0.0), Point::new(0.1, 0.1)),
            Err(CoreError::ReadOnly)
        ));
        assert!(matches!(
            replica.delete(0, Point::new(0.0, 0.0)),
            Err(CoreError::ReadOnly)
        ));
        // The replica view has no log of its own.
        assert!(replica.wal_stats().is_none());

        let new_primary = follower.promote().unwrap();
        assert!(!replica.is_read_only(), "clones flip writable in place");
        new_primary.insert(900, Point::new(0.5, 0.5)).unwrap();
        assert!(
            replica.wal_stats().unwrap().durable_lsn > 0,
            "the promoted log"
        );
        assert_eq!(replica.len(), 33);
        new_primary.validate().unwrap();
    }

    #[test]
    fn uncommitted_tail_is_invisible_and_discarded_by_promote() {
        let (primary, disk) = primary_pair();
        let mut shipper = LogShipper::new(disk);
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        primary.apply(&grid_batch(0..48)).unwrap().wait().unwrap();
        let mut full = shipper.poll().unwrap();
        assert!(!full.records.is_empty());
        // Strip the trailing commit: pure page records, no covering
        // commit — the batch a crash would cut mid-flight.
        while matches!(
            full.records.last(),
            Some((_, WalRecord::Commit { .. } | WalRecord::Checkpoint { .. }))
        ) {
            full.records.pop();
        }
        let before = follower.applied_lsn();
        let report = follower.apply(&full).unwrap();
        assert_eq!(report.commits, 0);
        assert_eq!(follower.applied_lsn(), before, "watermark must not move");
        assert!(follower.pending_records() > 0);
        assert_eq!(follower.handle().len(), 0, "tail stays invisible");

        let promoted = follower.promote().unwrap();
        assert_eq!(promoted.len(), 0, "unacked batch not half-applied");
        promoted.validate().unwrap();
    }

    /// Shipped records come from outside the follower, and CRC framing
    /// passes a well-framed bad one. A commit whose records include one
    /// is refused whole: no earlier record of it reaches the replica, so
    /// queries never see newer pages under older metadata.
    #[test]
    fn a_malformed_shipped_record_refuses_the_commit_whole() {
        let (primary, disk) = primary_pair();
        primary.apply(&grid_batch(0..64)).unwrap().wait().unwrap();
        let mut shipper = LogShipper::new(disk.clone());
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        follower.catch_up(&mut shipper).unwrap();
        let replica = follower.handle();
        let leaf = primary
            .with_index(|index| index.locate_leaf(0))
            .unwrap()
            .expect("object 0 is indexed");
        let leaf_bytes = || {
            replica
                .with_index(|index| index.pool().fetch(leaf).map(|p| p.read().to_vec()))
                .unwrap()
        };
        let before = leaf_bytes();
        let scanned = bur_wal::scan(disk.as_ref(), WAL_ANCHOR).unwrap();
        let meta = scanned
            .records
            .iter()
            .rev()
            .find_map(|(_, rec)| match rec {
                WalRecord::Commit { meta } => Some(meta.clone()),
                _ => None,
            })
            .expect("the primary committed");

        let lsn = follower.applied_lsn();
        let batch = ShipBatch {
            generation: follower.generation(),
            rewound: false,
            records: vec![
                (
                    lsn + 1,
                    WalRecord::PageImage {
                        pid: leaf,
                        data: vec![0; PAGE],
                    },
                ),
                (
                    lsn + 2,
                    WalRecord::PageDelta {
                        pid: leaf,
                        // A commit's LSN: no page record ever had it.
                        base_lsn: lsn,
                        ranges: vec![bur_wal::DeltaRange {
                            offset: 0,
                            bytes: vec![1],
                        }],
                    },
                ),
                (lsn + 3, WalRecord::Commit { meta }),
            ],
            torn_tail: false,
        };
        assert!(matches!(
            follower.apply(&batch),
            Err(ReplError::Protocol(_))
        ));
        assert_eq!(follower.applied_lsn(), lsn, "watermark must not move");
        assert_eq!(leaf_bytes(), before, "the zeroing image must not land");
        replica.validate().unwrap();
    }

    #[test]
    fn checkpoint_rewind_resyncs_without_stale_records() {
        let (primary, disk) = primary_pair();
        primary.apply(&grid_batch(0..40)).unwrap().wait().unwrap();
        let mut shipper = LogShipper::new(disk);
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        follower.catch_up(&mut shipper).unwrap();
        let gen_before = follower.generation();
        let resyncs_before = follower.stats().resyncs;

        primary.checkpoint().unwrap(); // log rewinds
        primary.apply(&grid_batch(40..80)).unwrap().wait().unwrap();
        let report = follower.catch_up(&mut shipper).unwrap();
        let _ = report;
        assert!(follower.generation() > gen_before);
        assert_eq!(follower.stats().resyncs, resyncs_before + 1);
        assert_eq!(follower.handle().len(), 80);
        follower.handle().validate().unwrap();
    }

    #[test]
    fn follower_of_a_primary_that_logs_elsewhere_ships_resyncs_and_promotes() {
        let data = Arc::new(MemDisk::new(PAGE));
        let log = Arc::new(MemDisk::new(PAGE));
        let primary = IndexBuilder::generalized()
            .durable()
            .disk(data.clone())
            .log_disk(log.clone())
            .build()
            .unwrap();
        primary.apply(&grid_batch(0..40)).unwrap().wait().unwrap();

        // Records come from the log disk, base images from the data disk.
        let mut shipper = LogShipper::with_log_disk(data.clone(), log);
        assert!(shipper.logs_elsewhere());
        let mut follower =
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()).unwrap();
        primary.checkpoint().unwrap(); // rewind → resync from the data disk
        primary.apply(&grid_batch(40..80)).unwrap().wait().unwrap();
        follower.catch_up(&mut shipper).unwrap();
        assert_eq!(follower.handle().len(), 80);
        assert!(follower.stats().resyncs >= 2);

        // The base image carries no log chain, so the promoted replica
        // logs to the disk attach gave it — and a replica without one
        // fails closed instead of rewinding over a tree page.
        let promoted = follower.promote().unwrap();
        promoted.insert(900, Point::new(0.5, 0.5)).unwrap();
        assert!(promoted.wal_stats().unwrap().durable_lsn > 0);
        promoted.validate().unwrap();

        let mut shipper = LogShipper::with_log_disk(data, shipper.log.clone());
        let bare = Follower::attach(
            &mut shipper,
            Arc::new(MemDisk::new(PAGE)),
            IndexOptions::durable(),
        )
        .unwrap();
        assert!(matches!(
            bare.promote(),
            Err(ReplError::Core(CoreError::LogMissing(_)))
        ));
    }

    #[test]
    fn attach_rejects_bad_replica_disks_and_dead_primaries() {
        let (_primary, disk) = primary_pair();
        let mut shipper = LogShipper::new(disk.clone());
        // Wrong page size.
        let bad = Arc::new(MemDisk::new(512));
        assert!(Follower::attach(&mut shipper, bad, IndexOptions::durable()).is_err());
        // Non-empty replica disk.
        let used = Arc::new(MemDisk::new(PAGE));
        used.allocate().unwrap();
        let mut shipper = LogShipper::new(disk);
        assert!(Follower::attach(&mut shipper, used, IndexOptions::durable()).is_err());
        // A disk that was never durable.
        let cold = Arc::new(MemDisk::new(PAGE));
        cold.allocate().unwrap();
        cold.allocate().unwrap();
        let mut shipper = LogShipper::new(cold);
        assert!(matches!(
            Follower::attach_in_memory(&mut shipper, IndexOptions::durable()),
            Err(ReplError::NotDurable)
        ));
    }

    #[test]
    fn error_display_names_the_failure() {
        assert!(ReplError::NotDurable.to_string().contains("write-ahead"));
        assert!(ReplError::Protocol("x".into()).to_string().contains('x'));
        let e: ReplError = StorageError::DiskFull.into();
        assert!(e.to_string().contains("storage"));
        let e: ReplError = CoreError::ReadOnly.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
