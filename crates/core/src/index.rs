//! Public index facade: construction, the object API (insert / delete /
//! update / query), persistence, and validation.
//!
//! The index owns its write-ahead log, when it is durable, beside the
//! tree it logs. Every write goes through one commit and every
//! persistence step through one checkpoint, both in `commit.rs`, the
//! only code that knows the commit protocol.

use crate::batch::{Batch, BatchReport, Op};
use crate::commit::{self, Log};
use crate::concurrent::{tally, Planned};
use crate::config::{Durability, IndexOptions, UpdateStrategy, WalOptions};
use crate::error::{CoreError, CoreResult};
use crate::files::{stored_snapshot, Stored};
use crate::knn::{self, Neighbor};
use crate::meta::{read_meta_chain, MetaSnapshot, LOG_DISK_ANCHOR, META_PAGE};
use crate::node::{LeafEntry, NodeView, ObjectId};
use crate::pins::PinSet;
use crate::stats::{OpStats, UpdateOutcome};
use crate::summary::SummaryStructure;
use crate::tree::RTree;
use crate::{bottom_up, topdown};
use bur_geom::{Point, Rect};
use bur_storage::{
    BufferPool, DiskBackend, IoStats, Lsn, PageId, PoolConfig, StorageError, INVALID_PAGE,
};
use bur_wal::{LogEnd, LogReader, RedoError, Wal, WalRecord, WalStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the log replay of [`crate::IndexBuilder`]'s
/// [`crate::OpenMode::Recover`] mode, or of its [`crate::OpenMode::Open`]
/// mode on a durable index, did to bring the index back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records that survived in the log (all kinds), up to its end.
    pub scanned_records: u64,
    /// Full page images replayed onto the base image.
    pub replayed_images: u64,
    /// Page deltas replayed on top of those images.
    pub replayed_deltas: u64,
    /// Commit records replayed; a batch is one, however many operations
    /// it holds.
    pub commits: u64,
    /// LSN of the recovery point (last durable commit or checkpoint).
    pub recovered_lsn: u64,
    /// Objects in the recovered index.
    pub recovered_len: u64,
    /// Log generation that was scanned.
    pub log_generation: u32,
    /// `true` when the log ended in a torn record (expected after a
    /// power cut mid-write; the torn tail was not acknowledged and is
    /// discarded).
    pub torn_tail: bool,
}

/// A disk-resident R-tree index over 2-D objects with configurable update
/// strategy (TD / LBU / GBU).
///
/// This is the single-threaded engine: `&mut self` writes, no internal
/// locking. Construct one through [`crate::IndexBuilder::build_index`]
/// when embedding the index in a single-threaded driver (benches, CLI
/// tools); shared multi-threaded use goes through the clonable
/// [`crate::Bur`] handle instead ([`crate::IndexBuilder::build`]).
///
/// ```
/// use bur_core::IndexBuilder;
/// use bur_geom::{Point, Rect};
///
/// let mut index = IndexBuilder::generalized().build_index().unwrap();
/// index.insert(1, Point::new(0.25, 0.5)).unwrap();
/// index.insert(2, Point::new(0.75, 0.5)).unwrap();
/// index.update(1, Point::new(0.25, 0.5), Point::new(0.26, 0.5)).unwrap();
/// let hits = index.query(&Rect::new(0.0, 0.0, 0.5, 1.0)).unwrap();
/// assert_eq!(hits, vec![1]);
/// ```
pub struct RTreeIndex {
    pub(crate) tree: RTree,
    /// The write-ahead log, when the index is durable.
    pub(crate) log: Option<Log>,
    /// What the log replay of this index's open did, when it redid one.
    pub(crate) recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for RTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTreeIndex")
            .field("strategy", &self.tree.opts.strategy.name())
            .field("len", &self.tree.len())
            .field("height", &self.tree.height)
            .field("root", &self.tree.root)
            .finish_non_exhaustive()
    }
}

impl RTreeIndex {
    // ---- construction ----------------------------------------------------
    //
    // [`crate::IndexBuilder`] is the only public way to construct an
    // index (it covers the full backend × open-mode × durability ×
    // strategy matrix in one place); it drives the `_inner` functions
    // below. The historical direct constructors were deprecated for one
    // release and have been removed.

    //
    // A durable index keeps its write-ahead log on `log_disk`, chained
    // from [`LOG_DISK_ANCHOR`]; a volatile one takes none.

    /// A new index on `disk`, its empty tree filled by `fill`, and then,
    /// when durable, its log attached: the tree `fill` left is the first
    /// base image recovery starts from, and a build logs nothing page by
    /// page. Gating every bulk write would pin the whole index in memory.
    pub(crate) fn create_on_inner(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
        fill: impl FnOnce(&mut RTree) -> CoreResult<()>,
    ) -> CoreResult<Self> {
        opts.validate()?;
        check_page_size("disk", disk.page_size(), "configured", opts.page_size)?;
        let log = match opts.durability {
            Durability::Wal(_) if log_disk.is_none() => {
                return Err(CoreError::BadConfig(
                    "a durable index keeps its write-ahead log on a disk of its own: \
                     pass log_disk(..) with disk(..)"
                        .into(),
                ))
            }
            Durability::Wal(wopts) => Some((log_disk_of(log_disk, &opts)?, wopts)),
            Durability::None if log_disk.is_some() => return Err(log_disk_without_log()),
            Durability::None => None,
        };
        if disk.num_pages() != 0 || log.as_ref().is_some_and(|(l, _)| l.num_pages() != 0) {
            return Err(CoreError::BadConfig(
                "create mode requires an empty disk; use open mode for existing files".into(),
            ));
        }
        let pool = Arc::new(BufferPool::new(
            disk,
            PoolConfig {
                capacity: opts.buffer_frames,
            },
        ));
        // Reserve the metadata page before any other allocation.
        let (meta_pid, guard) = pool.new_page()?;
        debug_assert_eq!(meta_pid, META_PAGE);
        guard.write().fill(0);
        drop(guard);
        let mut tree = RTree::from_snapshot(pool, opts, None, Vec::new(), &[])?;
        let wal = match log {
            Some((log, wopts)) => {
                let wal = Wal::create(log)?;
                debug_assert_eq!(wal.anchor(), LOG_DISK_ANCHOR);
                Some((wal, wopts))
            }
            None => None,
        };
        fill(&mut tree)?;
        let log = match wal {
            Some((wal, wopts)) => Some(Log::attach(wal, wopts, &mut tree)?),
            None => None,
        };
        Ok(Self {
            tree,
            log,
            recovery: None,
        })
    }

    /// Open the index on `disk`. The summary structure is rebuilt from a
    /// tree scan (it is main-memory state, exactly as in the paper); the
    /// hash index is reloaded when the snapshot names one, or rebuilt
    /// when the strategy needs one it lacks.
    ///
    /// Durability is a property of the *file*, not of the caller's
    /// options: with [`Durability::Wal`] options, with `needs_log`
    /// ([`crate::OpenMode::Recover`]), or whenever the stored metadata
    /// records a log, the log on `log_disk` is redone up to its last
    /// durable commit (ARIES-style redo onto the surviving base image),
    /// the index is rebuilt over the result and checkpointed, and the
    /// report says what the redo did. Options that ask for no log get
    /// default [`crate::WalOptions`] then. Redoing is always safe (a
    /// cleanly shut down log replays to exactly the stored image), and
    /// opening a durable file *without* its log would let unlogged page
    /// writes race a stale log generation. Without a log disk, or with
    /// one that holds no log, this fails with [`CoreError::LogMissing`].
    /// `stored` is page 0's chain when the caller read it already. The
    /// index keeps the report ([`RTreeIndex::recovery_report`]).
    pub(crate) fn open_on_inner(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
        needs_log: bool,
        stored: Option<Stored>,
    ) -> CoreResult<Self> {
        opts.validate()?;
        check_page_size("disk", disk.page_size(), "configured", opts.page_size)?;
        let pool = Arc::new(BufferPool::new(
            disk,
            PoolConfig {
                capacity: opts.buffer_frames,
            },
        ));
        let stored = stored.unwrap_or_else(|| stored_snapshot(&pool));
        let names_log = stored
            .as_ref()
            .is_ok_and(|((snap, _), _)| snap.wal_anchor != INVALID_PAGE);
        let wopts = match opts.durability {
            Durability::Wal(wopts) => wopts,
            Durability::None if needs_log || names_log => WalOptions::default(),
            Durability::None => {
                let ((snap, _), meta_chain) = stored?;
                check_page_size("stored", snap.page_size, "configured", opts.page_size)?;
                if log_disk.is_some() {
                    return Err(log_disk_without_log());
                }
                let tree = RTree::from_snapshot(pool, opts, Some(&snap), meta_chain, &[])?;
                return Ok(Self {
                    tree,
                    log: None,
                    recovery: None,
                });
            }
        };
        let opts = opts.with_durability(Durability::Wal(wopts));
        // A log page that cannot be read fails here, before anything is
        // written: redoing the prefix in front of it would drop every
        // commit behind it, and the checkpoint would make that final.
        let log = log_disk_of(log_disk, &opts)?;
        let Some((snap, report, end)) = redo_log(&pool, log.as_ref(), LOG_DISK_ANCHOR)? else {
            return Err(CoreError::LogMissing(
                "the log disk holds no write-ahead log (index not created with Durability::Wal?)"
                    .into(),
            ));
        };
        check_page_size("logged", snap.page_size, "configured", opts.page_size)?;
        // The metadata chain of the last completed checkpoint is
        // superseded by the checkpoint below, which recycles its pages.
        // A torn `next` pointer could name a *live* tree page, so they
        // are only trusted when the chain round-trips as a snapshot.
        let meta_chain = stored.map_or_else(|_| Vec::new(), |(_, pages)| pages);
        let mut tree = RTree::from_snapshot(pool, opts, Some(&snap), meta_chain, &[])?;
        let log = Log::attach(Wal::reopen(log, &end), wopts, &mut tree)?;
        Ok(Self {
            tree,
            log: Some(log),
            recovery: Some(report),
        })
    }

    /// What the log replay did when this index was built in
    /// [`crate::OpenMode::Recover`], or in [`crate::OpenMode::Open`] on a
    /// durable index; `None` for fresh indexes and for opened
    /// non-durable ones.
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Write the metadata (and the hash directory) so the index can be
    /// reopened through [`crate::IndexBuilder`]'s open mode, and flush
    /// every dirty page as the new base image; a durable index also
    /// syncs its log first and rewinds it after. Bounds recovery replay
    /// to the operations committed after this call, and is the step a
    /// clean shutdown ends with.
    pub fn checkpoint(&mut self) -> CoreResult<()> {
        commit::checkpoint(&mut self.tree, self.log.as_ref())
    }

    /// `true` when the checkpoint cadence of a durable index has been
    /// reached ([`Log::checkpoint_due`]).
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.log.as_ref().is_some_and(Log::checkpoint_due)
    }

    /// `true` when the index write-ahead-logs its updates.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Log activity counters, when the index is durable.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.log.as_ref().map(|log| log.wal.stats())
    }

    /// Highest log sequence number assigned so far (`None` without a
    /// WAL). Immediately after a commit this covers every acknowledged
    /// operation — the LSN a [`crate::CommitTicket`] waits on.
    #[must_use]
    pub fn last_lsn(&self) -> Option<u64> {
        self.log.as_ref().map(|log| log.wal.last_lsn())
    }

    /// Run `apply` as one batch on the exclusive engine, then commit the
    /// number of operations `changed` counts in its result under one
    /// record. The batch's operations share one [`PinSet`], which starts
    /// with the nodes of `planned` (updates a shared pass planned for
    /// this batch, written here first) and which the commit logs
    /// through.
    pub(crate) fn exclusive<T>(
        &mut self,
        planned: Planned<'_>,
        apply: impl for<'p> FnOnce(&mut Self, &mut PinSet<'p>) -> CoreResult<T>,
        changed: impl FnOnce(&T) -> u64,
    ) -> CoreResult<T> {
        let pool = Arc::clone(&self.tree.pool);
        let hash = self.tree.hash.clone();
        let mut ops = PinSet::new(&pool, hash.as_deref(), self.is_durable());
        planned.write(&mut ops)?;
        let applied = apply(self, &mut ops)?;
        self.commit(changed(&applied), ops)?;
        Ok(applied)
    }

    /// Commit the `ops` operations the exclusive engine just applied
    /// under one record ([`commit::commit`]): every page the pool saw
    /// touched since the last commit, in ascending page order, through
    /// the pin the batch's set kept for it, unpinned right after. A
    /// touched page the batch does not hold was left by an earlier
    /// commit that failed; that one is fetched. Then checkpoint when
    /// the cadence says so. No record when nothing changed (`ops == 0`)
    /// or without a WAL.
    fn commit(&mut self, ops: u64, pins: PinSet<'_>) -> CoreResult<()> {
        let pool = &self.tree.pool;
        let touched = || {
            let mut held = pins.into_pins().into_iter().peekable();
            pool.touched_pages().into_iter().map(move |pid| {
                while held.next_if(|pin| pin.pid() < pid).is_some() {}
                match held.next_if(|pin| pin.pid() == pid) {
                    Some(pin) => Ok(pin),
                    None => Ok(pool.fetch(pid)?),
                }
            })
        };
        let logged = commit::commit(self.log.as_ref(), &self.tree, ops, touched)?;
        if logged.is_some() && self.checkpoint_due() {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ---- object API --------------------------------------------------------

    /// Apply a [`Batch`] of mixed operations in order.
    ///
    /// On a durable index the whole batch is covered by **one** group
    /// commit record appended after the last operation: with respect to
    /// the write-ahead log the batch is atomic — a crash recovers either
    /// all of it or none of it. The single-op writers below are batches
    /// of one in the same sense: apply, then commit once.
    ///
    /// Failed deletes (object not indexed at the stated position) are
    /// counted in [`BatchReport::missing_deletes`], not errors. Any
    /// other failing operation aborts the rest of the batch: operations
    /// before it stay applied (and are committed under one record so
    /// the log never diverges from the tree), and the error reports the
    /// failing position as [`CoreError::Batch`]. A batch that changed
    /// nothing writes no record.
    pub fn apply_batch(&mut self, batch: &Batch) -> CoreResult<BatchReport> {
        self.apply_batch_from(batch, Planned::default())
    }

    /// [`RTreeIndex::apply_batch`], starting with the ops of `batch` a
    /// shared pass already planned: `planned` writes them through the
    /// pins the pass took and checks their nodes into the batch's pin
    /// set, and the engine resumes at the op that stopped the pass. With
    /// nothing planned it starts at op 0.
    pub(crate) fn apply_batch_from(
        &mut self,
        batch: &Batch,
        mut planned: Planned<'_>,
    ) -> CoreResult<BatchReport> {
        let effects = planned.take_effects();
        let (report, failed) = self.exclusive(
            planned,
            |index, ops| {
                let mut report = BatchReport::default();
                tally(&effects, &index.tree.stats, &mut report);
                report.applied = effects.len() as u64;
                let failed = index.apply_ops(ops, batch, &mut report);
                Ok((report, failed))
            },
            // Commit what *was* applied before surfacing a failure; a
            // commit error outranks it.
            |(report, _)| report.inserted + report.updated + report.deleted,
        )?;
        failed.map_or(Ok(report), Err)
    }

    /// Apply `batch`'s operations in order from position
    /// `report.applied` up to the first that fails, adding what they did
    /// to `report`; returns that failure.
    fn apply_ops(
        &mut self,
        ops: &mut PinSet<'_>,
        batch: &Batch,
        report: &mut BatchReport,
    ) -> Option<CoreError> {
        let start = report.applied as usize;
        for (i, op) in batch.ops().iter().enumerate().skip(start) {
            ops.begin_op(i + 1 == batch.len());
            let step = match *op {
                Op::Insert { oid, rect } => self.apply_insert(ops, oid, rect).map(|()| {
                    report.inserted += 1;
                }),
                Op::Update { oid, old, new } => self.apply_update(ops, oid, old, new).map(|_| {
                    report.updated += 1;
                }),
                Op::Delete { oid, position } => {
                    self.apply_delete(ops, oid, position).map(|found| {
                        if found {
                            report.deleted += 1;
                        } else {
                            report.missing_deletes += 1;
                        }
                    })
                }
            };
            if let Err(source) = step {
                return Some(CoreError::Batch {
                    op_index: i,
                    source: Box::new(source),
                });
            }
            report.applied += 1;
        }
        None
    }

    /// Insert a point object under a fresh id. With a hash index present
    /// (LBU/GBU) duplicate ids are rejected; TD trusts the caller.
    pub fn insert(&mut self, oid: ObjectId, position: Point) -> CoreResult<()> {
        self.insert_rect(oid, Rect::from_point(position))
    }

    /// Insert an object with a rectangular extent.
    pub fn insert_rect(&mut self, oid: ObjectId, rect: Rect) -> CoreResult<()> {
        self.exclusive(
            Planned::default(),
            |index, ops| index.apply_insert(ops, oid, rect),
            |_| 1,
        )
    }

    /// Delete the object `oid` located at `position`. Returns `false`
    /// when it is not indexed there.
    pub fn delete(&mut self, oid: ObjectId, position: Point) -> CoreResult<bool> {
        self.exclusive(
            Planned::default(),
            |index, ops| index.apply_delete(ops, oid, position),
            |&found| u64::from(found),
        )
    }

    /// Move object `oid` from `old` to `new` using the configured update
    /// strategy; returns which path the update took.
    pub fn update(&mut self, oid: ObjectId, old: Point, new: Point) -> CoreResult<UpdateOutcome> {
        self.exclusive(
            Planned::default(),
            |index, ops| index.apply_update(ops, oid, old, new),
            |_| 1,
        )
    }

    /// [`RTreeIndex::insert_rect`] without the commit.
    fn apply_insert(&mut self, ops: &mut PinSet<'_>, oid: ObjectId, rect: Rect) -> CoreResult<()> {
        if !rect.is_valid() {
            return Err(CoreError::BadConfig(format!("invalid rect {rect}")));
        }
        if let Some(h) = &self.tree.hash {
            if h.get(oid)?.is_some() {
                return Err(CoreError::DuplicateObject(oid));
            }
        }
        self.tree.insert_object(ops, LeafEntry { oid, rect })?;
        self.tree.len += 1;
        self.tree.stats.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// [`RTreeIndex::delete`] without the commit.
    fn apply_delete(
        &mut self,
        ops: &mut PinSet<'_>,
        oid: ObjectId,
        position: Point,
    ) -> CoreResult<bool> {
        let found = self.tree.delete_object(ops, oid, position)?;
        if found {
            self.tree.len -= 1;
            self.tree.stats.deletes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(found)
    }

    /// [`RTreeIndex::update`] without the commit.
    fn apply_update(
        &mut self,
        ops: &mut PinSet<'_>,
        oid: ObjectId,
        old: Point,
        new: Point,
    ) -> CoreResult<UpdateOutcome> {
        let outcome = match self.tree.opts.strategy {
            UpdateStrategy::TopDown => topdown::update(&mut self.tree, ops, oid, old, new)?,
            UpdateStrategy::Localized(_) | UpdateStrategy::Generalized(_) => {
                bottom_up::update(&mut self.tree, ops, oid, old, new)?
            }
        };
        self.tree.stats.record_update(outcome);
        Ok(outcome)
    }

    /// Window query: ids of all objects whose rect intersects `window`.
    /// GBU indexes answer through the summary structure.
    pub fn query(&self, window: &Rect) -> CoreResult<Vec<ObjectId>> {
        let mut out = Vec::new();
        self.query_into(window, &mut out)?;
        Ok(out)
    }

    /// Window query into a reusable buffer.
    pub fn query_into(&self, window: &Rect, out: &mut Vec<ObjectId>) -> CoreResult<()> {
        self.tree.stats.queries.fetch_add(1, Ordering::Relaxed);
        match self.tree.opts.strategy {
            UpdateStrategy::Generalized(_) => self.tree.query_with_summary(window, out),
            _ => self.tree.query_into(window, out),
        }
    }

    /// Window query forced through the plain top-down descent: the
    /// reference descent the summary-assisted path of GBU is checked
    /// against.
    pub fn query_top_down(&self, window: &Rect, out: &mut Vec<ObjectId>) -> CoreResult<()> {
        self.tree.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.tree.query_into(window, out)
    }

    /// Exact-position query: ids of all objects whose rect contains
    /// `position` (a degenerate window query).
    pub fn point_query(&self, position: Point) -> CoreResult<Vec<ObjectId>> {
        self.query(&Rect::from_point(position))
    }

    /// The `k` nearest neighbors of `query`, closest first (best-first
    /// MINDIST search; see [`crate::Neighbor`]). GBU indexes seed the
    /// search from the in-memory direct access table, skipping reads of
    /// internal nodes above level 1. Ties are broken arbitrarily. Library extension — the paper evaluates window
    /// queries only.
    pub fn nearest_neighbors(&self, query: Point, k: usize) -> CoreResult<Vec<Neighbor>> {
        if !query.is_finite() {
            return Err(CoreError::BadConfig(format!(
                "non-finite kNN query point {query}"
            )));
        }
        self.tree.stats.queries.fetch_add(1, Ordering::Relaxed);
        match self.tree.opts.strategy {
            UpdateStrategy::Generalized(_) => knn::nearest_with_summary(&self.tree, query, k),
            _ => knn::nearest(&self.tree, query, k),
        }
    }

    /// The single nearest neighbor of `query` (`None` on an empty index).
    pub fn nearest_neighbor(&self, query: Point) -> CoreResult<Option<Neighbor>> {
        Ok(self.nearest_neighbors(query, 1)?.into_iter().next())
    }

    /// All objects whose rect lies within Euclidean `radius` of `center`,
    /// closest first. Implemented as a window query over the bounding
    /// square followed by an exact distance filter.
    pub fn within_distance(&self, center: Point, radius: f32) -> CoreResult<Vec<Neighbor>> {
        if !center.is_finite() || !radius.is_finite() || radius < 0.0 {
            return Err(CoreError::BadConfig(format!(
                "invalid within_distance arguments: center {center}, radius {radius}"
            )));
        }
        let window = Rect::new(
            center.x - radius,
            center.y - radius,
            center.x + radius,
            center.y + radius,
        );
        self.tree.stats.queries.fetch_add(1, Ordering::Relaxed);
        let mut hits = Vec::new();
        self.tree.query_entries_into(&window, &mut hits)?;
        let mut out: Vec<Neighbor> = hits
            .into_iter()
            .filter_map(|e| {
                let d2 = e.rect.distance_sq_to_point(&center);
                (d2 <= radius * radius).then(|| Neighbor {
                    oid: e.oid,
                    distance: d2.sqrt(),
                })
            })
            .collect();
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        Ok(out)
    }

    /// Window query that returns object extents along with ids (the
    /// entries as stored in the leaves).
    pub fn query_entries(&self, window: &Rect) -> CoreResult<Vec<LeafEntry>> {
        self.tree.stats.queries.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        self.tree.query_entries_into(window, &mut out)?;
        Ok(out)
    }

    /// Number of objects intersecting `window` without keeping the ids.
    pub fn count_in(&self, window: &Rect) -> CoreResult<usize> {
        let mut out = Vec::new();
        self.query_into(window, &mut out)?;
        Ok(out.len())
    }

    // ---- introspection -------------------------------------------------------

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// `true` when no objects are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.len() == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u16 {
        self.tree.height
    }

    /// Minimum bounding rectangle of everything indexed — the root
    /// node's MBR — or [`Rect::EMPTY`] when the index holds nothing.
    /// Costs one (usually cached) page read; used by the shard router to
    /// prune shards whose contents cannot beat a kNN candidate.
    pub fn bounds(&self) -> CoreResult<Rect> {
        if self.tree.len() == 0 {
            return Ok(Rect::EMPTY);
        }
        self.tree.root_mbr()
    }

    /// The construction options.
    #[must_use]
    pub fn options(&self) -> &IndexOptions {
        &self.tree.opts
    }

    /// Physical I/O counters of the underlying buffer pool.
    #[must_use]
    pub fn io_stats(&self) -> &IoStats {
        self.tree.pool.stats()
    }

    /// Operation counters (update outcome classes, splits, ...).
    #[must_use]
    pub fn op_stats(&self) -> &OpStats {
        &self.tree.stats
    }

    /// The buffer pool (shared with the hash index).
    #[must_use]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.tree.pool
    }

    /// The summary structure, when the strategy maintains one.
    #[must_use]
    pub fn summary(&self) -> Option<&SummaryStructure> {
        self.tree.summary.as_ref()
    }

    /// Resize the buffer (frames of *unpinned* retention).
    pub fn set_buffer_capacity(&self, frames: usize) -> CoreResult<()> {
        self.tree.pool.set_capacity(frames)?;
        Ok(())
    }

    /// Flush all dirty pages (counts physical writes).
    pub fn flush(&self) -> CoreResult<()> {
        self.tree.pool.flush_all()?;
        Ok(())
    }

    /// Number of R-tree node pages currently reachable.
    pub fn tree_pages(&self) -> CoreResult<u64> {
        self.tree.node_count()
    }

    /// Number of pages used by the secondary hash index (0 without one).
    #[must_use]
    pub fn hash_pages(&self) -> usize {
        self.tree.hash.as_ref().map_or(0, |h| h.page_count())
    }

    /// Total data pages (tree + hash) — what experiments size buffers
    /// against ("buffer ... is 1 % of the database size").
    pub fn data_pages(&self) -> CoreResult<u64> {
        Ok(self.tree_pages()? + self.hash_pages() as u64)
    }

    /// Deep invariant check (structure, fill, containment, hash and
    /// summary agreement). Expensive; intended for tests.
    pub fn validate(&self) -> CoreResult<()> {
        self.tree.validate()
    }

    /// The page currently holding `oid` according to the hash index
    /// (`None` for TD indexes, which keep no secondary index). The
    /// [`crate::Bur`] handle uses this to pick the leaf a bottom-up
    /// update claims.
    pub fn locate_leaf(&self, oid: ObjectId) -> CoreResult<Option<PageId>> {
        match &self.tree.hash {
            Some(h) => Ok(h.get(oid)?),
            None => Ok(None),
        }
    }
}

/// Refuse pages of size `got` where `want` is expected: the one check of
/// every page size an index meets, worded "`what` page size `got` !=
/// `whose` `want`".
pub(crate) fn check_page_size(what: &str, got: usize, whose: &str, want: usize) -> CoreResult<()> {
    if got == want {
        return Ok(());
    }
    Err(CoreError::BadConfig(format!(
        "{what} page size {got} != {whose} {want}"
    )))
}

/// The log disk a durable index was handed, page size checked;
/// [`CoreError::LogMissing`] without one.
pub(crate) fn log_disk_of(
    log_disk: Option<Arc<dyn DiskBackend>>,
    opts: &IndexOptions,
) -> CoreResult<Arc<dyn DiskBackend>> {
    let log = log_disk.ok_or_else(|| {
        CoreError::LogMissing(
            "a durable index keeps its write-ahead log on a log disk, and none was given".into(),
        )
    })?;
    check_page_size("disk", log.page_size(), "configured", opts.page_size)?;
    Ok(log)
}

pub(crate) fn log_disk_without_log() -> CoreError {
    CoreError::BadConfig("a log disk was given, but the index is not durable".into())
}

/// The last commit or checkpoint record in a log, which recovery redoes
/// the log up to: records after it belong to a batch that was never
/// acknowledged.
struct RecoveryPoint {
    lsn: Lsn,
    /// The snapshot the record carries.
    meta: Vec<u8>,
    /// Records up to and including it.
    records: u64,
    /// Commit records up to and including it.
    commits: u64,
}

/// Redo the log chained from `anchor` on `log` onto `pool`, up to its
/// recovery point, and return the snapshot recovered, what the redo did
/// and where the log ends; `Ok(None)` when `anchor` holds no log.
///
/// Two passes, each holding one log page and one record at a time. The
/// first reads the whole log and checks every page record up to the
/// recovery point, writing nothing, so a log page that cannot be read
/// or a malformed record fails recovery before any write. The second
/// redoes the page records up to the point. A read that fails in the
/// second pass, or a record that differs from the first pass's, is an
/// error too, after some pages were written; recovering again repairs
/// them, because every page's first record in a generation is a full
/// image, so redo never depends on what the data disk holds.
pub(crate) fn redo_log(
    pool: &BufferPool,
    log: &dyn DiskBackend,
    anchor: PageId,
) -> CoreResult<Option<(MetaSnapshot, RecoveryReport, LogEnd)>> {
    let Some(mut reader) = LogReader::open(log, anchor)? else {
        return Ok(None);
    };
    // Pass 1. `chained` holds each page's last record, which its next
    // delta must chain to. A flawed record fails recovery only once a
    // commit or checkpoint follows it: only then would it be redone.
    let page_size = pool.page_size();
    let mut chained: HashMap<PageId, Lsn> = HashMap::new();
    let (mut flaw, mut point) = (None, None);
    let (mut records, mut commits) = (0, 0);
    while let Some((lsn, rec)) = reader.next_record()? {
        records += 1;
        commits += u64::from(matches!(rec, WalRecord::Commit { .. }));
        match rec {
            WalRecord::Commit { meta } | WalRecord::Checkpoint { meta } => {
                if let Some(flaw) = flaw.take() {
                    return Err(corrupt_log(flaw));
                }
                point = Some(RecoveryPoint {
                    lsn,
                    meta,
                    records,
                    commits,
                });
            }
            _ if flaw.is_some() => {}
            rec => {
                let last = |pid| chained.get(&pid).copied();
                match bur_wal::check_page_record(lsn, &rec, page_size, last) {
                    Ok(pid) => chained.extend(pid.map(|pid| (pid, lsn))),
                    Err(e) => flaw = Some(e),
                }
            }
        }
    }
    let end = reader.finish()?;
    let mut report = RecoveryReport {
        scanned_records: end.records(),
        log_generation: end.generation(),
        torn_tail: end.torn_tail(),
        ..RecoveryReport::default()
    };
    let Some(point) = point else {
        // No commit or checkpoint survived in the log. The one benign way
        // here: the crash cut the checkpoint *rewind* itself, after the
        // base image (including the metadata chain) was fully flushed but
        // before the fresh generation's checkpoint record landed. The
        // metadata chain is then the recovery point and there is nothing
        // to replay.
        let (payload, _pages) = read_meta_chain(pool).map_err(|e| {
            CoreError::BadConfig(format!(
                "write-ahead log holds no recovery point and the metadata chain is \
                 unreadable ({e})"
            ))
        })?;
        let snap = MetaSnapshot::decode(&payload)?.0;
        report.recovered_len = snap.len;
        return Ok(Some((snap, report, end)));
    };
    let (snap, _) = MetaSnapshot::decode(&point.meta)?;

    // Pass 2: redo page records in log order up to the point. Each delta
    // applies onto the state the records before it produced, which the
    // chain check (made again, against a fresh `chained`) verifies.
    let changed = || {
        CoreError::Storage(StorageError::Io(std::io::Error::other(
            "the write-ahead log changed between recovery's two passes",
        )))
    };
    let mut reader = LogReader::open(log, anchor)?.ok_or_else(changed)?;
    chained.clear();
    let mut redone = 0;
    loop {
        let (lsn, rec) = reader.next_record()?.ok_or_else(changed)?;
        redone += 1;
        if lsn >= point.lsn {
            let same = matches!(&rec, WalRecord::Commit { meta } | WalRecord::Checkpoint { meta }
                if lsn == point.lsn && *meta == point.meta && redone == point.records);
            if !same {
                return Err(changed());
            }
            break;
        }
        let last = |pid| chained.get(&pid).copied();
        if let Some(pid) =
            bur_wal::check_page_record(lsn, &rec, page_size, last).map_err(corrupt_log)?
        {
            chained.insert(pid, lsn);
            bur_wal::redo_page_record(pool, &rec)?;
            match rec {
                WalRecord::PageImage { .. } => report.replayed_images += 1,
                _ => report.replayed_deltas += 1,
            }
        }
    }
    report.recovered_lsn = point.lsn;
    report.commits = point.commits;
    report.recovered_len = snap.len;
    Ok(Some((snap, report, end)))
}

/// A malformed page record that recovery would have to redo.
fn corrupt_log(e: RedoError) -> CoreError {
    match e {
        RedoError::Corrupt(msg) => CoreError::BadConfig(format!("{msg} (corrupt log)")),
        RedoError::Storage(e) => e.into(),
    }
}

impl RTreeIndex {
    /// Diagnostic: `(leaf count, Σ leaf entry-rect area, Σ leaf margins,
    /// object count, internal count)` measured from the parent entries
    /// (the official rects). Used by tooling to quantify overlap.
    pub fn leaf_geometry(&self) -> CoreResult<(u64, f64, f64, u64, u64)> {
        let mut acc = (0, 0.0, 0.0, 0, 0);
        self.tree.walk(
            |_, node| {
                match node {
                    NodeView::Leaf(leaf) => acc.3 += leaf.len() as u64,
                    NodeView::Internal(node) => {
                        acc.4 += 1;
                        if node.level() == 1 {
                            for e in node.iter() {
                                acc.0 += 1;
                                acc.1 += f64::from(e.rect.area());
                                acc.2 += f64::from(e.rect.margin());
                            }
                        }
                    }
                }
                Ok(())
            },
            |_, _| true,
        )?;
        if self.tree.height == 1 {
            let mbr = self.tree.root_mbr()?;
            acc.0 = 1;
            acc.1 = f64::from(mbr.area());
            acc.2 = f64::from(mbr.margin());
        }
        Ok(acc)
    }
}
