//! Public index facade: construction, the object API (insert / delete /
//! update / query), persistence, and validation.

use crate::batch::{Batch, BatchReport, Op};
use crate::claims::LeafClaims;
use crate::concurrent::{tally, Planned};
use crate::config::{Durability, IndexOptions, UpdateStrategy};
use crate::error::{CoreError, CoreResult};
use crate::files::stored_snapshot;
use crate::knn::{self, Neighbor};
use crate::meta::{read_meta_chain, write_meta_chain, MetaSnapshot, LOG_DISK_ANCHOR, META_PAGE};
use crate::node::{LeafEntry, NodeEntries, ObjectId};
use crate::pins::PinSet;
use crate::stats::{OpStats, UpdateOutcome};
use crate::summary::SummaryStructure;
use crate::tree::{RTree, WalHandle};
use crate::{bottom_up, topdown};
use bur_geom::{Point, Rect};
use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_storage::{BufferPool, DiskBackend, IoStats, PageId, PoolConfig, INVALID_PAGE};
use bur_wal::{RedoError, ScanResult, Wal, WalRecord, WalStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What recovery ([`crate::IndexBuilder`]'s [`crate::OpenMode::Recover`]
/// mode) did to bring an index back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records that survived in the log (all kinds).
    pub scanned_records: u64,
    /// Full page images replayed onto the base image.
    pub replayed_images: u64,
    /// Page deltas replayed on top of those images.
    pub replayed_deltas: u64,
    /// Committed operations covered by the replay.
    pub committed_ops: u64,
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

    pub(crate) fn create_on_inner(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
    ) -> CoreResult<Self> {
        opts.validate()?;
        check_page_size(disk.as_ref(), &opts)?;
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
        let wal = match log {
            Some((log, wopts)) => {
                pool.set_wal_mode(true);
                let wal = Wal::create(log)?;
                debug_assert_eq!(wal.anchor(), LOG_DISK_ANCHOR);
                Some(WalHandle::new(wal, wopts))
            }
            None => None,
        };
        let mut tree = RTree::create(pool, opts)?;
        tree.wal = wal;
        let mut index = Self { tree };
        // Seed the log with a checkpoint of the empty tree: the base
        // image recovery starts from.
        index.tree.wal_checkpoint()?;
        Ok(index)
    }

    /// Reopen a persisted index (see [`RTreeIndex::persist`]). The
    /// summary structure is rebuilt from a tree scan (it is main-memory
    /// state, exactly as in the paper); the hash index is reloaded when
    /// present on disk or rebuilt when the requested strategy needs one
    /// the stored index lacked.
    ///
    /// Durability is a property of the *file*, not of the caller's
    /// options: with [`Durability::Wal`] options — or whenever the stored
    /// metadata records a WAL anchor — this delegates to the recovery
    /// path (upgrading `opts` with default [`crate::WalOptions`] when the
    /// caller asked for none). Replaying the log is always safe (a
    /// cleanly shut down log replays to exactly the stored image), and
    /// opening a durable file *without* its log would let unlogged page
    /// writes race a stale log generation.
    pub(crate) fn open_on_inner(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
    ) -> CoreResult<Self> {
        if matches!(opts.durability, Durability::Wal(_)) {
            return Ok(Self::recover_on_inner(disk, log_disk, opts)?.0);
        }
        opts.validate()?;
        check_page_size(disk.as_ref(), &opts)?;
        let pool = Arc::new(BufferPool::new(
            disk.clone(),
            PoolConfig {
                capacity: opts.buffer_frames,
            },
        ));
        let (payload, meta_cont) = read_meta_chain(&pool)?;
        let (snap, _) = MetaSnapshot::decode(&payload)?;
        if snap.page_size != opts.page_size {
            return Err(CoreError::BadConfig(format!(
                "stored page size {} != configured {}",
                snap.page_size, opts.page_size
            )));
        }
        if snap.wal_anchor != INVALID_PAGE {
            // The file is WAL-durable: reattach its log instead of
            // mutating pages behind a stale generation.
            drop(pool);
            let opts = opts.with_durability(Durability::Wal(crate::config::WalOptions::default()));
            return Ok(Self::recover_on_inner(disk, log_disk, opts)?.0);
        }
        if log_disk.is_some() {
            return Err(log_disk_without_log());
        }
        let mut tree = Self::tree_from_snapshot(pool, opts, &snap)?;
        tree.meta_chain_pages = meta_cont;
        Ok(Self { tree })
    }

    /// Build the tree (and rebuild whatever main-memory or secondary
    /// state the strategy needs) from a metadata snapshot whose pages are
    /// already readable through `pool`.
    fn tree_from_snapshot(
        pool: Arc<BufferPool>,
        opts: IndexOptions,
        snap: &MetaSnapshot,
    ) -> CoreResult<RTree> {
        let hash = if snap.stored_hash() {
            Some(Arc::new(LinearHashIndex::load(
                pool.clone(),
                HashIndexConfig::default(),
                snap.hash_head,
            )?))
        } else if opts.strategy.needs_hash_index() {
            Some(Arc::new(LinearHashIndex::create(
                pool.clone(),
                HashIndexConfig::default(),
            )?))
        } else {
            None
        };
        let summary = opts.strategy.needs_summary().then(SummaryStructure::new);
        let claims = LeafClaims::covering(pool.disk().num_pages() as usize);
        let mut tree = RTree {
            pool,
            opts,
            root: snap.root,
            height: snap.height,
            len: snap.len,
            free_pages: snap.free_pages.clone(),
            summary,
            hash,
            stats: OpStats::default(),
            pending_reinserts: Vec::new(),
            reinsert_armed: 0,
            insert_active: false,
            wal: None,
            meta_chain_pages: Vec::new(),
            claims,
        };
        rebuild_memory_state(
            &mut tree,
            !snap.stored_hash() && opts.strategy.needs_hash_index(),
        )?;
        Ok(tree)
    }

    /// Write metadata (and the hash directory) so the index can be
    /// reopened through [`crate::IndexBuilder`]'s open mode; flushes all
    /// dirty pages.
    /// Intended as a shutdown step: each call allocates a fresh metadata
    /// continuation chain. On a durable index this is a
    /// [`RTreeIndex::checkpoint`].
    pub fn persist(&mut self) -> CoreResult<()> {
        if self.tree.wal.is_some() {
            return self.tree.wal_checkpoint();
        }
        let hash_head = match &self.tree.hash {
            Some(h) => h.persist()?,
            None => INVALID_PAGE,
        };
        let payload = self.tree.meta_snapshot(hash_head).encode();
        write_meta_chain(&self.tree.pool, &payload, &mut self.tree.meta_chain_pages)?;
        self.tree.pool.flush_all()?;
        Ok(())
    }

    /// Take a fuzzy checkpoint now: sync the log, flush every page as the
    /// new base image, and rewind the log. Bounds recovery replay to the
    /// operations committed after this call. Equivalent to
    /// [`RTreeIndex::persist`] on a non-durable index.
    pub fn checkpoint(&mut self) -> CoreResult<()> {
        if self.tree.wal.is_some() {
            self.tree.wal_checkpoint()
        } else {
            self.persist()
        }
    }

    /// `true` when the index write-ahead-logs its updates.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.tree.wal.is_some()
    }

    /// Log activity counters, when the index is durable.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.tree.wal.as_ref().map(|h| h.wal.stats())
    }

    /// Highest log sequence number assigned so far (`None` without a
    /// WAL). Immediately after a flush this covers every acknowledged
    /// operation — the LSN a [`crate::CommitTicket`] waits on.
    #[must_use]
    pub fn last_lsn(&self) -> Option<u64> {
        self.tree.wal.as_ref().map(|h| h.wal.last_lsn())
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
        planned.write(&self.tree, &mut ops)?;
        let applied = apply(self, &mut ops)?;
        self.commit(changed(&applied), ops)?;
        Ok(applied)
    }

    /// Commit the `ops` operations the exclusive engine just applied
    /// under one record: every page the pool saw touched since the last
    /// commit goes to [`RTree::wal_commit_pages`] in ascending page
    /// order, through the pin the batch's set kept for it, and is
    /// unpinned right after. A touched page the batch does not hold was
    /// left by an earlier commit that failed; that one is fetched. Then
    /// checkpoint when the cadence says so. No record when nothing
    /// changed (`ops == 0`) or without a WAL.
    fn commit(&mut self, ops: u64, pins: PinSet<'_>) -> CoreResult<()> {
        if ops == 0 || self.tree.wal.is_none() {
            return Ok(());
        }
        let pool = &self.tree.pool;
        let mut held = pins.into_pins().into_iter().peekable();
        let touched = pool.touched_pages().into_iter().map(|pid| {
            while held.next_if(|pin| pin.pid() < pid).is_some() {}
            match held.next_if(|pin| pin.pid() == pid) {
                Some(pin) => Ok(pin),
                None => Ok(pool.fetch(pid)?),
            }
        });
        self.tree.wal_commit_pages(ops, touched)?;
        if self.tree.checkpoint_due() {
            self.tree.wal_checkpoint()?;
        }
        Ok(())
    }

    /// Recover a durable index from `disk` after a crash (ARIES-style
    /// redo): scan the write-ahead log on `log_disk`, replay every page
    /// image up to the last durable commit onto the surviving base image,
    /// rebuild the main-memory summary structure / hash index / parent
    /// pointers the strategy needs, and checkpoint so the log is clean
    /// again. Safe to call on a cleanly shut down index (the replay is
    /// then a no-op).
    ///
    /// `opts.durability` must be [`Durability::Wal`]. Without a log disk,
    /// or with one that holds no log, this fails with
    /// [`CoreError::LogMissing`].
    pub(crate) fn recover_on_inner(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
    ) -> CoreResult<(Self, RecoveryReport)> {
        opts.validate()?;
        let Durability::Wal(wopts) = opts.durability else {
            return Err(CoreError::BadConfig(
                "recovery requires IndexOptions with Durability::Wal (e.g. IndexOptions::durable())"
                    .into(),
            ));
        };
        check_page_size(disk.as_ref(), &opts)?;
        let pool = Arc::new(BufferPool::new(
            disk,
            PoolConfig {
                capacity: opts.buffer_frames,
            },
        ));
        // Best effort: a torn page 0 says nothing, and then the log is
        // the authority.
        let stored = stored_snapshot(&pool);
        let (wal, scanned) = Wal::reopen(log_disk_of(log_disk, &opts)?, LOG_DISK_ANCHOR)?;
        if !scanned.valid {
            return Err(CoreError::LogMissing(
                "the log disk holds no write-ahead log (index not created with Durability::Wal?)"
                    .into(),
            ));
        }
        let (snap, report) = redo_log(&pool, &scanned)?;
        // The on-disk metadata chain (from the last completed checkpoint)
        // is superseded the moment we re-checkpoint; hand its continuation
        // pages to the chain recycler. A torn `next` pointer could name a
        // *live* tree page, so the pages are only trusted (and later
        // overwritten by the recycler) when the walked payload round-trips
        // as a genuine metadata snapshot.
        let meta_cont = stored.map_or_else(Vec::new, |(_, pages)| pages);
        let index = Self::adopt_redone(pool, opts, &snap, meta_cont, WalHandle::new(wal, wopts))?;
        Ok((index, report))
    }

    /// The tail of recovery: rebuild the index over the redone image
    /// (summary structure, hash index and parent pointers included),
    /// attach `wal` and checkpoint — the disk becomes a clean base image
    /// and the log restarts.
    pub(crate) fn adopt_redone(
        pool: Arc<BufferPool>,
        opts: IndexOptions,
        snap: &MetaSnapshot,
        meta_cont: Vec<PageId>,
        wal: WalHandle,
    ) -> CoreResult<Self> {
        if snap.page_size != opts.page_size {
            return Err(CoreError::BadConfig(format!(
                "logged page size {} != configured {}",
                snap.page_size, opts.page_size
            )));
        }
        let mut tree = Self::tree_from_snapshot(pool, opts, snap)?;
        tree.meta_chain_pages = meta_cont;
        tree.wal = Some(wal);
        tree.pool.set_wal_mode(true);
        let mut index = Self { tree };
        index.tree.wal_checkpoint()?;
        Ok(index)
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
        Ok(self.tree.read_node(self.tree.root)?.mbr())
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

fn check_page_size(disk: &dyn DiskBackend, opts: &IndexOptions) -> CoreResult<()> {
    if disk.page_size() == opts.page_size {
        return Ok(());
    }
    Err(CoreError::BadConfig(format!(
        "disk page size {} != configured {}",
        disk.page_size(),
        opts.page_size
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
    check_page_size(log.as_ref(), opts)?;
    Ok(log)
}

pub(crate) fn log_disk_without_log() -> CoreError {
    CoreError::BadConfig("a log disk was given, but the index is not durable".into())
}

/// Redo the records of `scanned` up to its recovery point — the last
/// commit or checkpoint; records after it belong to an operation that was
/// never acknowledged — onto `pool`, and return the snapshot recovered
/// with what the redo did.
pub(crate) fn redo_log(
    pool: &BufferPool,
    scanned: &ScanResult,
) -> CoreResult<(MetaSnapshot, RecoveryReport)> {
    let mut report = RecoveryReport {
        scanned_records: scanned.records.len() as u64,
        log_generation: scanned.generation,
        torn_tail: scanned.torn_tail,
        ..RecoveryReport::default()
    };
    let point = scanned
        .records
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, (lsn, rec))| match rec {
            WalRecord::Commit { meta } | WalRecord::Checkpoint { meta } => Some((i, *lsn, meta)),
            _ => None,
        });
    let snap = if let Some((cut, lsn, meta)) = point {
        let (snap, _) = MetaSnapshot::decode(meta)?;
        report.recovered_lsn = lsn;
        // Redo: replay page records in log order. The first record of
        // every page in a generation is a full image (the delta encoder
        // anchors there), so replay never depends on the pre-crash
        // content of a page — each delta applies onto the state produced
        // by the records before it, which `redo` verifies against the
        // delta's recorded base.
        let replayed = &scanned.records[..=cut];
        let (images, deltas) =
            bur_wal::redo(pool, replayed, &mut HashMap::new()).map_err(|e| match e {
                RedoError::Corrupt(msg) => CoreError::BadConfig(format!("{msg} (corrupt log)")),
                RedoError::Storage(e) => e.into(),
            })?;
        report.replayed_images = images;
        report.replayed_deltas = deltas;
        report.committed_ops = replayed
            .iter()
            .filter(|(_, rec)| matches!(rec, WalRecord::Commit { .. }))
            .count() as u64;
        snap
    } else {
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
        MetaSnapshot::decode(&payload)?.0
    };
    report.recovered_len = snap.len;
    Ok((snap, report))
}

// ---- open-time memory-state rebuild ------------------------------------------

/// Scan the stored tree to rebuild the main-memory summary structure and
/// (when requested) a hash index the stored image lacked.
pub(crate) fn rebuild_memory_state(tree: &mut RTree, build_hash: bool) -> CoreResult<()> {
    fn walk(
        tree: &RTree,
        pid: PageId,
        summary: &mut Option<SummaryStructure>,
        hash_entries: &mut Vec<(ObjectId, PageId)>,
        build_hash: bool,
        leaf_cap: usize,
    ) -> CoreResult<()> {
        let node = tree.read_node(pid)?;
        match &node.entries {
            NodeEntries::Leaf(v) => {
                if let Some(s) = summary {
                    s.set_leaf(pid, v.len() >= leaf_cap);
                }
                if build_hash {
                    hash_entries.extend(v.iter().map(|e| (e.oid, pid)));
                }
            }
            NodeEntries::Internal(v) => {
                if let Some(s) = summary {
                    s.upsert_internal(pid, node.level, node.mbr(), v.iter().map(|e| e.child));
                }
                for e in v {
                    walk(tree, e.child, summary, hash_entries, build_hash, leaf_cap)?;
                }
            }
        }
        Ok(())
    }

    // The walk only matters when there is memory state to rebuild; a
    // bare TD index (e.g. a replica view being promoted to TD) skips it.
    if tree.summary.is_some() || build_hash {
        let mut summary = tree.summary.take();
        if let Some(s) = &mut summary {
            s.clear();
        }
        let mut hash_entries = Vec::new();
        let leaf_cap = tree.leaf_cap();
        walk(
            tree,
            tree.root,
            &mut summary,
            &mut hash_entries,
            build_hash,
            leaf_cap,
        )?;
        if let Some(s) = &mut summary {
            let root = tree.read_node(tree.root)?;
            s.set_root_mbr(root.mbr());
        }
        tree.summary = summary;
        if build_hash {
            let hash = tree.hash.as_ref().expect("caller created the hash");
            for (oid, pid) in hash_entries {
                hash.insert(oid, pid)?;
            }
        }
    }
    // LBU needs leaf parent pointers; repair any that are missing or
    // stale (e.g. the stored image was built by a TD index).
    if tree.opts.strategy.needs_parent_pointers() && tree.height >= 2 {
        let mut level1 = Vec::new();
        collect_level(tree, tree.root, 1, &mut level1)?;
        for parent_pid in level1 {
            let parent = tree.read_node(parent_pid)?;
            tree.adopt_leaves(parent.internal_entries(), parent_pid)?;
        }
    }
    Ok(())
}

/// Collect the page ids of all nodes at `level`.
fn collect_level(tree: &RTree, pid: PageId, level: u16, out: &mut Vec<PageId>) -> CoreResult<()> {
    let node = tree.read_node(pid)?;
    if node.level == level {
        out.push(pid);
        return Ok(());
    }
    if node.level > level {
        if let NodeEntries::Internal(v) = &node.entries {
            for e in v {
                collect_level(tree, e.child, level, out)?;
            }
        }
    }
    Ok(())
}

impl RTreeIndex {
    /// Diagnostic: `(leaf count, Σ leaf entry-rect area, Σ leaf margins,
    /// object count, internal count)` measured from the parent entries
    /// (the official rects). Used by tooling to quantify overlap.
    pub fn leaf_geometry(&self) -> CoreResult<(u64, f64, f64, u64, u64)> {
        fn walk(
            t: &crate::tree::RTree,
            pid: PageId,
            acc: &mut (u64, f64, f64, u64, u64),
        ) -> CoreResult<()> {
            let node = t.read_node(pid)?;
            match &node.entries {
                NodeEntries::Leaf(v) => {
                    acc.3 += v.len() as u64;
                }
                NodeEntries::Internal(v) => {
                    acc.4 += 1;
                    for e in v {
                        if node.level == 1 {
                            acc.0 += 1;
                            acc.1 += f64::from(e.rect.area());
                            acc.2 += f64::from(e.rect.margin());
                        }
                        walk(t, e.child, acc)?;
                    }
                }
            }
            Ok(())
        }
        let mut acc = (0, 0.0, 0.0, 0, 0);
        walk(&self.tree, self.tree.root, &mut acc)?;
        if self.tree.height == 1 {
            acc.0 = 1;
            let root = self.tree.read_node(self.tree.root)?;
            acc.1 = f64::from(root.mbr().area());
            acc.2 = f64::from(root.mbr().margin());
        }
        Ok(acc)
    }
}
