//! The shared index handle: one clonable type for every caller.
//!
//! [`Bur`] wraps the [`RTreeIndex`] engine in `Arc` internals with the
//! DGL granule-locking discipline the paper's throughput study uses
//! (Section 3.2.2): bottom-up updates X-lock the granule of the leaf
//! they touch under a shared tree granule, while structure-modifying
//! operations (inserts, deletes, top-down updates) take the tree
//! granule exclusively. Clone the handle freely — clones share the same
//! index.
//!
//! Since the latch-per-page rework the granule discipline is physical,
//! not just logical: the engine sits behind a reader-writer lock, and a
//! [`Bur::apply`] batch of bottom-up updates, inserts and deletes runs
//! under the *shared* side — several such batches on disjoint leaf
//! granules plan and write **at the same time**, each page access
//! serialized only by its per-frame latch
//! ([`bur_storage::PageWriteLatch`]). An insert that finds its leaf
//! full splits it as a short exclusive *make-room* commit and retries
//! shared; a batch that still needs non-leaf-local surgery (top-down
//! updates, sibling shifts, underflows, MBR ascents) escalates to the
//! exclusive side before writing anything, counted in
//! [`crate::stats::OpSnapshot::escalations`]. The full protocol — latch
//! ordering, pin-vs-latch rules, the safe-node (make-room) rule, the
//! deadlock-avoidance argument — is normative in
//! `docs/ARCHITECTURE.md` ("Latching protocol").
//!
//! The write path is **batch-first**: [`Bur::apply`] takes a [`Batch`]
//! of mixed operations, applies it under one granule acquisition, and —
//! on a durable index — flushes it as **one** write-ahead-log group
//! commit record (atomic under crashes). Every write entry point
//! returns or leads to a [`CommitTicket`] whose [`CommitTicket::wait`]
//! rides the log's durable-LSN watermark: the hard ack under
//! [`bur_storage::SyncPolicy::Async`], an instant no-op when the commit
//! already synced inline.
//!
//! Queries stream: [`Bur::query`] returns a [`QueryCursor`] backed by a
//! buffer recycled across calls (zero per-call allocation in steady
//! state) instead of a freshly allocated `Vec<ObjectId>`.
//!
//! ```
//! use bur_core::{Batch, IndexBuilder};
//! use bur_geom::{Point, Rect};
//!
//! let bur = IndexBuilder::generalized().durable().build().unwrap();
//! let mut batch = Batch::new();
//! for oid in 0..32u64 {
//!     batch.insert(oid, Point::new(oid as f32 / 32.0, 0.5));
//! }
//! let ticket = bur.apply(&batch).unwrap();
//! ticket.wait().unwrap(); // durable: one group commit record covers all 32
//! let hits: Vec<u64> = bur.query(&Rect::new(0.0, 0.0, 0.5, 1.0)).unwrap().collect();
//! assert_eq!(hits.len(), 17);
//! ```

use crate::batch::{Batch, BatchReport, Op};
use crate::concurrent::{OpEffect, SharedPass, Step};
use crate::config::{IndexOptions, UpdateStrategy};
use crate::error::{CoreError, CoreResult};
use crate::index::{RTreeIndex, RecoveryReport};
use crate::knn::Neighbor;
use crate::node::ObjectId;
use crate::stats::{OpStats, UpdateOutcome};
use bur_dgl::{CommitBatch, CommitBatcher, Granule, LockGuard, LockManager, LockMode};
use bur_geom::{Point, Rect};
use bur_storage::{IoSnapshot, PageId, PageRef};
use bur_wal::{Lsn, WalStatsSnapshot, WalWaiter};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// How many make-room splits one `apply` call may perform before giving
/// up and escalating: each split frees ~half a leaf, so repeated
/// `MakeRoom` verdicts mean the batch concentrates inserts faster than
/// preparatory splits can make room — the exclusive path handles that
/// better than a split storm would.
const MAKE_ROOM_ATTEMPTS: u32 = 4;

/// How many times one `apply` call may be refused a granule on the
/// shared path (make-room rounds not counted) before it stops retrying
/// and takes the exclusive path, whose writer queue on the physical lock
/// guarantees progress. This is the stated bound on the retry loop: no
/// batch spins on refusals forever.
const SHARED_REFUSALS: u32 = 4;

/// At most this many spare query buffers are kept for recycling; extra
/// cursors dropped concurrently just free their buffer.
const SPARE_BUFFERS: usize = 16;

/// Shared state behind every clone of a [`Bur`] handle.
struct BurShared {
    /// The engine. Writers that stay leaf-local (concurrent `apply`)
    /// hold the **read** side — the granule locks in `locks` carve up
    /// what they may touch — while structural writers hold the write
    /// side. See `docs/ARCHITECTURE.md`, "Latching protocol".
    inner: RwLock<RTreeIndex>,
    locks: LockManager,
    /// Per-granule commit hooks accumulated between group commit records
    /// (see [`Bur::set_commit_batching`] and [`Bur::apply`]).
    batcher: CommitBatcher,
    /// Single-op commit batch size; 0 or 1 means per-operation commits.
    batch_target: AtomicU32,
    /// Durable-watermark waiter, cached at construction (durable indexes
    /// only) and refreshed when a replica promotion attaches a log.
    waiter: Mutex<Option<WalWaiter>>,
    /// What recovery replayed, when the handle was built in recover mode.
    recovery: Option<RecoveryReport>,
    /// Recycled query-result buffers ([`QueryCursor`] hot path).
    spare_ids: Mutex<Vec<Vec<ObjectId>>>,
    /// Write paths refuse with [`CoreError::ReadOnly`] while set — the
    /// replication-follower mode, cleared by [`Bur::promote_replica`].
    read_only: AtomicBool,
    /// Batches currently inside the concurrent write path, and the high
    /// watermark — the overlap instrumentation behind
    /// [`Bur::peak_concurrent_batches`].
    inflight: AtomicUsize,
    inflight_peak: AtomicUsize,
}

impl BurShared {
    /// Return a query buffer to the recycling pool (cleared first; the
    /// pool is capped at [`SPARE_BUFFERS`], extras are simply freed).
    /// The single home of the recycling policy — `Bur::query`'s error
    /// path and `QueryCursor::drop` both land here.
    fn recycle(&self, mut buf: Vec<ObjectId>) {
        buf.clear();
        let mut spares = self.spare_ids.lock();
        if spares.len() < SPARE_BUFFERS {
            spares.push(buf);
        }
    }
}

/// The clonable, thread-safe index handle.
#[derive(Clone)]
pub struct Bur {
    shared: Arc<BurShared>,
}

impl std::fmt::Debug for Bur {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bur")
            .field("inner", &*self.shared.inner.read())
            .finish_non_exhaustive()
    }
}

/// Outcome of one shared-phase attempt inside [`Bur::apply`]. Every
/// variant but `Done` is returned with all locks released.
enum SharedAttempt {
    /// Planned, written and committed concurrently.
    Done(CommitTicket),
    /// Not leaf-local: replay the whole batch on the exclusive path
    /// (nothing has been written).
    Escalate,
    /// An insert found this leaf full: split it as its own short
    /// exclusive commit (a content-neutral preparatory split), then
    /// retry the batch on the shared path. Nothing has been written.
    MakeRoom(PageId),
    /// Pending single-op commits must be flushed under the exclusive
    /// lock before a concurrent commit may log its pages.
    FlushPending,
    /// A granule was refused; back off and try again (at most
    /// [`SHARED_REFUSALS`] times).
    Refused,
}

/// Counts a batch as inside the concurrent write path until dropped.
struct InFlight<'a>(&'a BurShared);

impl<'a> InFlight<'a> {
    fn enter(shared: &'a BurShared) -> Self {
        let entered = shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        shared.inflight_peak.fetch_max(entered, Ordering::Relaxed);
        Self(shared)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Bur {
    /// Wrap an existing single-threaded index in a shared handle.
    /// (Usually you build the handle directly with
    /// [`crate::IndexBuilder::build`].)
    #[must_use]
    pub fn from_index(index: RTreeIndex) -> Self {
        Self::from_index_with_report(index, None)
    }

    /// Wrap an index in a **read-only** handle: every write entry point
    /// (`apply`, `insert`, `update`, `delete`, `commit`, `checkpoint`,
    /// `persist`, `set_commit_batching`) fails with
    /// [`CoreError::ReadOnly`] until [`Bur::promote_replica`] flips the
    /// handle writable. This is how a replication follower shares its
    /// replica view with query threads while it alone redoes the shipped
    /// log through [`Bur::with_index_mut`] (the maintenance escape
    /// hatch, which stays open — it is the follower's apply path).
    #[must_use]
    pub fn from_index_read_only(index: RTreeIndex) -> Self {
        let bur = Self::from_index_with_report(index, None);
        bur.shared.read_only.store(true, Ordering::Release);
        bur
    }

    pub(crate) fn from_index_with_report(
        index: RTreeIndex,
        recovery: Option<RecoveryReport>,
    ) -> Self {
        let waiter = Mutex::new(index.wal_waiter());
        Self {
            shared: Arc::new(BurShared {
                inner: RwLock::new(index),
                locks: LockManager::new(),
                batcher: CommitBatcher::new(),
                batch_target: AtomicU32::new(1),
                waiter,
                recovery,
                spare_ids: Mutex::new(Vec::new()),
                read_only: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                inflight_peak: AtomicUsize::new(0),
            }),
        }
    }

    /// `true` while the handle is a read-only replica view (see
    /// [`Bur::from_index_read_only`]).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.shared.read_only.load(Ordering::Acquire)
    }

    /// Refuse writes through a read-only handle.
    fn check_writable(&self) -> CoreResult<()> {
        if self.is_read_only() {
            return Err(CoreError::ReadOnly);
        }
        Ok(())
    }

    /// Promote a read-only replica handle in place: run the tail of
    /// recovery ([`RTreeIndex::promote_replica`] — memory-state rebuild,
    /// log reattach + rewind, checkpoint) under the exclusive tree
    /// granule, then flip the handle writable. Every clone held by a
    /// query thread becomes a handle on the new primary at the same
    /// moment. Fails on a handle that is already writable.
    pub fn promote_replica(&self, opts: IndexOptions) -> CoreResult<()> {
        let (mut index, _tree) = self.lock_excl();
        // Checked under the exclusive lock: of two racing promotes,
        // exactly one wins — the loser sees a writable handle.
        if !self.is_read_only() {
            return Err(CoreError::BadConfig(
                "promote_replica: handle is already writable".into(),
            ));
        }
        index.promote_replica(opts)?;
        *self.shared.waiter.lock() = index.wal_waiter();
        self.shared.read_only.store(false, Ordering::Release);
        Ok(())
    }

    /// Unwrap into the inner [`RTreeIndex`]; fails (returning the handle)
    /// when other clones are still alive.
    pub fn try_into_index(self) -> Result<RTreeIndex, Self> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.inner.into_inner()),
            Err(shared) => Err(Self { shared }),
        }
    }

    /// The granule lock manager (exposed for tests).
    #[must_use]
    pub fn lock_manager(&self) -> &LockManager {
        &self.shared.locks
    }

    /// What recovery replayed when this handle was built in
    /// [`crate::OpenMode::Recover`] (or `open` of a durable file that
    /// needed replay through the builder's recover path); `None` for
    /// fresh or cleanly opened non-durable indexes.
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.recovery
    }

    // ---- locking helpers -------------------------------------------------

    /// Acquire the physical write lock plus the exclusive tree granule,
    /// try-and-retry on the granule (never blocking on a granule while
    /// holding the physical lock, so the handle cannot deadlock — the
    /// latch-order invariant of `docs/ARCHITECTURE.md`).
    fn lock_excl(&self) -> (RwLockWriteGuard<'_, RTreeIndex>, LockGuard<'_>) {
        loop {
            let index = self.shared.inner.write();
            match self
                .shared
                .locks
                .try_lock(Granule::Tree, LockMode::Exclusive)
            {
                Ok(guard) => return (index, guard),
                Err(_) => {
                    drop(index);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Acquire the physical read lock plus the shared tree granule
    /// (query-side counterpart of [`Bur::lock_excl`]).
    fn lock_shared(&self) -> (RwLockReadGuard<'_, RTreeIndex>, LockGuard<'_>) {
        loop {
            let index = self.shared.inner.read();
            match self.shared.locks.try_lock(Granule::Tree, LockMode::Shared) {
                Ok(guard) => return (index, guard),
                Err(_) => {
                    drop(index);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Register a finished write on `granule` with the commit batcher and
    /// drain the hooks whenever the core has just flushed a batch (its
    /// pending count returns to zero — on the batch boundary or a
    /// piggybacked checkpoint).
    fn after_write(&self, index: &mut RTreeIndex, granule: Granule) {
        if self.shared.batch_target.load(Ordering::Relaxed) <= 1 || !index.is_durable() {
            return;
        }
        self.shared.batcher.note(granule);
        if index.pending_commits() == 0 {
            self.shared.batcher.drain();
        }
    }

    /// Build a ticket covering everything flushed so far (call with the
    /// index lock still held, so the LSN covers exactly this commit).
    fn ticket(&self, index: &RTreeIndex, report: BatchReport, hooks: CommitBatch) -> CommitTicket {
        CommitTicket {
            report,
            hooks,
            lsn: index.last_lsn().unwrap_or(0),
            waiter: self.shared.waiter.lock().clone(),
        }
    }

    // ---- batch-first writes ----------------------------------------------

    /// Apply a [`Batch`] of mixed operations atomically with respect to
    /// the write-ahead log: the whole batch is flushed as **one** group
    /// commit record (plus any single operations already pending in the
    /// current commit batch), so a crash recovers all of it or none of
    /// it. Returns a [`CommitTicket`]; under
    /// [`bur_storage::SyncPolicy::Async`], [`CommitTicket::wait`] is the
    /// hard durability ack.
    ///
    /// Locking: batches of bottom-up updates, inserts and deletes
    /// X-lock the granules of the leaves they touch under a **shared**
    /// tree granule and the **shared** physical lock — batches on
    /// disjoint leaves (including structural ones) plan and write
    /// concurrently (see the module docs and `docs/ARCHITECTURE.md`).
    /// An insert that finds its leaf full triggers a *make-room* split:
    /// that one leaf is split under a short exclusive section as its
    /// own commit record and the batch retries shared. A batch that
    /// still cannot stay leaf-local — top-down updates, sibling shifts,
    /// underflows, MBR ascents, same-batch operations on one object —
    /// escalates to the exclusive tree granule before a single page is
    /// written, so the result is always logically identical to
    /// sequential application (the physical tree may differ by benign
    /// slack only; see `crate::concurrent`). Escalations are counted in
    /// [`crate::stats::OpSnapshot::escalations`].
    pub fn apply(&self, batch: &Batch) -> CoreResult<CommitTicket> {
        self.check_writable()?;
        if batch.is_empty() {
            let index = self.shared.inner.read();
            return Ok(self.ticket(&index, BatchReport::default(), CommitBatch::default()));
        }
        let mut room_attempts = 0u32;
        let mut refusals = 0u32;
        loop {
            match self.apply_shared(batch)? {
                SharedAttempt::Done(ticket) => {
                    self.checkpoint_if_due()?;
                    return Ok(ticket);
                }
                SharedAttempt::MakeRoom(pid) if room_attempts < MAKE_ROOM_ATTEMPTS => {
                    room_attempts += 1;
                    let (mut index, _tree) = self.lock_excl();
                    // `false` means the leaf moved on (split by a racing
                    // batch, emptied, dissolved): just retry shared.
                    index.make_room(pid)?;
                }
                SharedAttempt::FlushPending => {
                    // Single-op commits pending from before the shared
                    // phase must land under their own record first: the
                    // concurrent commit logs only this batch's pages.
                    let (mut index, _tree) = self.lock_excl();
                    index.flush_commits()?;
                }
                SharedAttempt::Refused if refusals < SHARED_REFUSALS => {
                    refusals += 1;
                    std::thread::yield_now();
                }
                SharedAttempt::Escalate | SharedAttempt::MakeRoom(_) | SharedAttempt::Refused => {
                    break;
                }
            }
        }
        // Classic exclusive path: the whole batch under the write lock
        // and the exclusive tree granule, applied by the engine and
        // flushed as one group commit record by `apply_batch`. From here
        // on the batch stays on this path — a refused tree granule is
        // retried by `lock_excl` alone, never by re-planning.
        let (mut index, _tree) = self.lock_excl();
        index.op_stats().escalations.fetch_add(1, Ordering::Relaxed);
        let result = index.apply_batch(batch);
        // A group commit record covered everything applied (the whole
        // batch, or — on error — the prefix before the failing op, which
        // `apply_batch` flushed before surfacing it): note the covered
        // granule and drain the hooks as one commit batch, so nothing
        // lingers to be misattributed to a later ticket.
        let applied = match &result {
            Ok(report) => report.applied,
            Err(CoreError::Batch { op_index, .. }) => *op_index as u64,
            Err(_) => 0,
        };
        let hooks = if index.is_durable() {
            self.shared.batcher.note_n(Granule::Tree, applied);
            self.shared.batcher.drain()
        } else {
            CommitBatch::default()
        };
        let report = result?;
        Ok(self.ticket(&index, report, hooks))
    }

    /// One attempt at the concurrent write path: under the shared
    /// physical lock and a shared tree granule, plan the batch in one
    /// in-order pass ([`SharedPass::plan`] — it takes each leaf's
    /// exclusive granule and pin as it first meets the leaf, and stops at
    /// the first op that cannot stay leaf-local), then write and commit
    /// it. Every outcome that is not `Done` has written nothing and
    /// releases everything before returning, so the caller never holds
    /// a lock or a pin across its next move.
    fn apply_shared(&self, batch: &Batch) -> CoreResult<SharedAttempt> {
        let index = self.shared.inner.read();
        if matches!(index.options().strategy, UpdateStrategy::TopDown) {
            return Ok(SharedAttempt::Escalate);
        }
        let Ok(_tree) = self.shared.locks.try_lock(Granule::Tree, LockMode::Shared) else {
            return Ok(SharedAttempt::Refused);
        };
        let _inflight = InFlight::enter(&self.shared);
        let mut pass = SharedPass::new(&index, &self.shared.locks);
        match pass.plan(batch.ops())? {
            Step::Applied => {}
            Step::MakeRoom(pid) => return Ok(SharedAttempt::MakeRoom(pid)),
            Step::Escalate => return Ok(SharedAttempt::Escalate),
            Step::Refused => return Ok(SharedAttempt::Refused),
        }
        if index.pending_commits() > 0 {
            // Checked only once the batch is known to stay shared: an
            // escalating batch folds the pending ops into its own record.
            return Ok(SharedAttempt::FlushPending);
        }
        let (report, lsn) = self.write_and_commit(&index, &pass, batch.len() as u64)?;
        let hooks = if index.is_durable() {
            for (pid, ops) in pass.leaf_ops() {
                self.shared.batcher.note_n(Granule::Leaf(pid), ops);
            }
            self.shared.batcher.drain()
        } else {
            CommitBatch::default()
        };
        Ok(SharedAttempt::Done(CommitTicket {
            report,
            hooks,
            lsn,
            waiter: self.shared.waiter.lock().clone(),
        }))
    }

    /// Write a fully planned pass through its pins and group-commit it:
    /// one record for the whole batch. Returns the report and the
    /// record's LSN (0 without a log).
    fn write_and_commit(
        &self,
        index: &RTreeIndex,
        pass: &SharedPass<'_>,
        batch_len: u64,
    ) -> CoreResult<(BatchReport, Lsn)> {
        let mut written: Vec<&PageRef<'_>> = Vec::new();
        let done = pass.execute(&mut written);
        // Shadows under one parent each push it: log every page once.
        written.sort_unstable_by_key(|p| p.pid());
        written.dedup_by_key(|p| p.pid());
        if let Some((op_index, source)) = done.failed {
            // A storage failure mid-execute (unreachable on a healthy
            // pool). Commit the pages already written — every complete
            // leaf, plus possibly a parent grown for a leaf that never
            // moved, which is benign slack — so the log never replays a
            // torn page set, then surface the error. The applied set is
            // leaf-granular here, the one documented divergence from
            // the sequential path's strict-prefix contract.
            index.commit_batch_pages(done.ops, &written, done.len_delta)?;
            if index.is_durable() {
                for (pid, ops) in pass.leaf_ops().take(done.leaves) {
                    self.shared.batcher.note_n(Granule::Leaf(pid), ops);
                }
                self.shared.batcher.drain();
            }
            return Err(CoreError::Batch {
                op_index,
                source: Box::new(source),
            });
        }
        let mut report = BatchReport {
            applied: batch_len,
            missing_deletes: pass.missing_deletes,
            ..BatchReport::default()
        };
        let stats = index.op_stats();
        for effect in pass.effects() {
            match effect {
                OpEffect::Update(outcome) => {
                    report.updated += 1;
                    stats.record_update(*outcome);
                }
                OpEffect::Insert => {
                    report.inserted += 1;
                    stats.inserts.fetch_add(1, Ordering::Relaxed);
                }
                OpEffect::Delete => {
                    report.deleted += 1;
                    stats.deletes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let lsn = index
            .commit_batch_pages(batch_len, &written, done.len_delta)?
            .unwrap_or(0);
        Ok((report, lsn))
    }

    /// Deferred checkpoint for the concurrent path: a shared-phase
    /// commit cannot checkpoint (that rewrites the log under every
    /// in-flight batch), so it only bumps the cadence counter, and the
    /// checkpoint runs here — after the granules are released, under
    /// the exclusive lock, re-checked because a racing batch may have
    /// taken it already.
    fn checkpoint_if_due(&self) -> CoreResult<()> {
        if !self.shared.inner.read().checkpoint_due() {
            return Ok(());
        }
        let (mut index, _tree) = self.lock_excl();
        if index.checkpoint_due() {
            index.checkpoint()?;
        }
        Ok(())
    }

    /// Flush any single operations pending in the current commit batch
    /// (see [`Bur::set_commit_batching`]) as one group commit record and
    /// return the covering [`CommitTicket`]. A no-op ticket when nothing
    /// was pending.
    pub fn commit(&self) -> CoreResult<CommitTicket> {
        self.check_writable()?;
        let mut index = self.shared.inner.write();
        let pending = index.pending_commits();
        index.flush_commits()?;
        let hooks = self.shared.batcher.drain();
        let report = BatchReport {
            applied: pending,
            ..BatchReport::default()
        };
        Ok(self.ticket(&index, report, hooks))
    }

    /// Block until every acknowledged operation is durable in the log
    /// (operations pending in a commit batch are flushed first); returns
    /// the durable watermark. No-op (returning 0) on a non-durable
    /// index. Unlike the ticketed wait, this holds no index lock while
    /// waiting.
    pub fn wait_durable(&self) -> CoreResult<Lsn> {
        self.commit()?.wait()
    }

    // ---- single-operation writes -----------------------------------------

    /// Insert a fresh point object (tree granule exclusive: inserts can
    /// split).
    pub fn insert(&self, oid: ObjectId, position: Point) -> CoreResult<()> {
        self.check_writable()?;
        let (mut index, _tree) = self.lock_excl();
        index.insert(oid, position)?;
        self.after_write(&mut index, Granule::Tree);
        Ok(())
    }

    /// Insert a fresh object with a rectangular extent.
    pub fn insert_rect(&self, oid: ObjectId, rect: Rect) -> CoreResult<()> {
        self.check_writable()?;
        let (mut index, _tree) = self.lock_excl();
        index.insert_rect(oid, rect)?;
        self.after_write(&mut index, Granule::Tree);
        Ok(())
    }

    /// Delete an object (tree granule exclusive). Returns `false` when
    /// it is not indexed at `position`.
    pub fn delete(&self, oid: ObjectId, position: Point) -> CoreResult<bool> {
        self.check_writable()?;
        let (mut index, _tree) = self.lock_excl();
        let found = index.delete(oid, position)?;
        if found {
            self.after_write(&mut index, Granule::Tree);
        }
        Ok(found)
    }

    /// Move an object, acquiring the DGL granules its strategy requires:
    /// bottom-up updates take the granule of the object's current leaf
    /// exclusively under a shared tree granule; top-down updates take
    /// the tree granule exclusively. A bottom-up update that plans
    /// leaf-local (in place or an extension within the parent MBR) runs
    /// through the same shared planner as [`Bur::apply`] — under the
    /// **shared** physical lock, overlapping other single-op updates and
    /// concurrent batches — and only falls back to the physical write
    /// lock when it needs structural surgery (or when commit batching is
    /// amortizing single-op records, which the shared path cannot join).
    pub fn update(&self, oid: ObjectId, old: Point, new: Point) -> CoreResult<UpdateOutcome> {
        self.check_writable()?;
        if let Some(outcome) = self.try_update_shared(oid, old, new)? {
            self.checkpoint_if_due()?;
            return Ok(outcome);
        }
        loop {
            let mut index = self.shared.inner.write();
            let bottom_up = !matches!(index.options().strategy, UpdateStrategy::TopDown);
            if bottom_up {
                let Some(leaf_pid) = index.locate_leaf(oid)? else {
                    // Unknown object: let the strategy surface the error.
                    return index.update(oid, old, new);
                };
                let tree_s = self.shared.locks.try_lock(Granule::Tree, LockMode::Shared);
                let leaf_x = self
                    .shared
                    .locks
                    .try_lock(Granule::Leaf(leaf_pid), LockMode::Exclusive);
                match (tree_s, leaf_x) {
                    (Ok(_t), Ok(_l)) => {
                        let outcome = index.update(oid, old, new)?;
                        self.after_write(&mut index, Granule::Leaf(leaf_pid));
                        return Ok(outcome);
                    }
                    _ => {
                        drop(index);
                        std::thread::yield_now();
                    }
                }
            } else {
                match self
                    .shared
                    .locks
                    .try_lock(Granule::Tree, LockMode::Exclusive)
                {
                    Ok(_g) => {
                        let outcome = index.update(oid, old, new)?;
                        self.after_write(&mut index, Granule::Tree);
                        return Ok(outcome);
                    }
                    Err(_) => {
                        drop(index);
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// One non-blocking attempt at running a single bottom-up update on
    /// the shared (concurrent) write path: a batch of one, planned and
    /// written under the shared physical lock and the object's leaf
    /// granule. `Ok(None)` means "take the exclusive path" — because the
    /// strategy is top-down, commit batching is amortizing single-op
    /// records, other commits are pending, a granule was refused, or the
    /// plan needs structural surgery (only that last case counts as an
    /// escalation).
    fn try_update_shared(
        &self,
        oid: ObjectId,
        old: Point,
        new: Point,
    ) -> CoreResult<Option<UpdateOutcome>> {
        let index = self.shared.inner.read();
        if matches!(index.options().strategy, UpdateStrategy::TopDown) {
            return Ok(None);
        }
        if index.is_durable() && self.shared.batch_target.load(Ordering::Relaxed) > 1 {
            // Joining the shared path would force a commit record per
            // op, defeating the batching the caller asked for.
            return Ok(None);
        }
        if index.pending_commits() > 0 {
            return Ok(None);
        }
        let Ok(_tree) = self.shared.locks.try_lock(Granule::Tree, LockMode::Shared) else {
            return Ok(None);
        };
        let _inflight = InFlight::enter(&self.shared);
        let mut pass = SharedPass::new(&index, &self.shared.locks);
        match pass.plan(&[Op::Update { oid, old, new }])? {
            Step::Applied => {}
            Step::Refused => return Ok(None),
            // MakeRoom cannot come out of an update plan; treat it like
            // any non-leaf-local verdict.
            Step::Escalate | Step::MakeRoom(_) => {
                index.op_stats().escalations.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        let Some(&OpEffect::Update(outcome)) = pass.effects().first() else {
            unreachable!("an update op planned to a non-update effect");
        };
        self.write_and_commit(&index, &pass, 1)?;
        Ok(Some(outcome))
    }

    // ---- streaming queries -----------------------------------------------

    /// Window query under a shared tree granule, streamed through a
    /// [`QueryCursor`]. The result buffer is recycled from cursor to
    /// cursor, so the hot path performs no per-call `Vec` allocation.
    pub fn query(&self, window: &Rect) -> CoreResult<QueryCursor> {
        let (index, _tree) = self.lock_shared();
        let mut hits = self.shared.spare_ids.lock().pop().unwrap_or_default();
        debug_assert!(hits.is_empty());
        if let Err(e) = index.query_into(window, &mut hits) {
            self.shared.recycle(hits);
            return Err(e);
        }
        Ok(QueryCursor {
            hits,
            pos: 0,
            home: self.shared.clone(),
        })
    }

    /// Number of objects intersecting `window` (a cursor-free count).
    pub fn count_in(&self, window: &Rect) -> CoreResult<usize> {
        Ok(self.query(window)?.len())
    }

    /// The `k` nearest neighbors of `point`, closest first, streamed
    /// through a [`NeighborCursor`] (shared tree granule).
    pub fn nearest(&self, point: Point, k: usize) -> CoreResult<NeighborCursor> {
        let (index, _tree) = self.lock_shared();
        let hits = index.nearest_neighbors(point, k)?;
        Ok(NeighborCursor {
            hits: hits.into_iter(),
        })
    }

    // ---- durability controls ---------------------------------------------

    /// Enable per-granule commit batching on a durable index: each write
    /// registers a commit hook under the granule it locked, and every
    /// `ops` operations the accumulated hooks are flushed as **one**
    /// group commit record. This recovers write concurrency under WAL
    /// mode — the per-operation critical section no longer pays page
    /// logging or a sync — at group commit's durability window (the
    /// unflushed tail of a batch may be lost to a crash; [`Bur::apply`]
    /// batches are flushed whole regardless). `1` restores per-operation
    /// commits. No-op on a non-durable index.
    pub fn set_commit_batching(&self, ops: u32) -> CoreResult<()> {
        self.check_writable()?;
        let ops = ops.max(1);
        let mut index = self.shared.inner.write();
        index.set_commit_batch(ops)?;
        self.shared.batch_target.store(ops, Ordering::Relaxed);
        if index.pending_commits() == 0 {
            self.shared.batcher.drain();
        }
        Ok(())
    }

    /// `(operations batched, group commit records written)` over the
    /// handle's lifetime — the batching compression ratio.
    #[must_use]
    pub fn commit_batch_totals(&self) -> (u64, u64) {
        self.shared.batcher.totals()
    }

    /// Take a checkpoint now (persist on a non-durable index): bounds
    /// recovery replay and the log's page footprint.
    pub fn checkpoint(&self) -> CoreResult<()> {
        self.check_writable()?;
        let (mut index, _tree) = self.lock_excl();
        index.checkpoint()
    }

    /// Write metadata so the index can be reopened; flushes all dirty
    /// pages (a checkpoint on a durable index). Intended as a shutdown
    /// step.
    pub fn persist(&self) -> CoreResult<()> {
        self.check_writable()?;
        let (mut index, _tree) = self.lock_excl();
        index.persist()
    }

    /// Log activity counters, when the index is durable.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.shared.inner.read().wal_stats()
    }

    /// The durable-watermark waiter, when the index is durable. Lets a
    /// coalescing layer (e.g. the `burd` write coalescer) acknowledge
    /// individual submissions against the shared watermark without
    /// holding a [`CommitTicket`] per submission.
    #[must_use]
    pub fn wal_waiter(&self) -> Option<WalWaiter> {
        self.shared.waiter.lock().clone()
    }

    // ---- concurrency controls --------------------------------------------

    /// High watermark of batches observed inside the concurrent write
    /// path at the same moment, over the handle's lifetime. A value
    /// `>= 2` proves two [`Bur::apply`] calls physically overlapped —
    /// the assertion the soak tests and scaling benchmarks rest on.
    #[must_use]
    pub fn peak_concurrent_batches(&self) -> usize {
        self.shared.inflight_peak.load(Ordering::Relaxed)
    }

    /// Reset the [`Bur::peak_concurrent_batches`] high watermark to the
    /// number of batches inside the concurrent path right now (0 when
    /// quiesced), so per-phase measurements — a benchmark's 1-writer
    /// and 8-writer runs, say — don't inherit an earlier phase's peak.
    pub fn reset_peak_concurrent_batches(&self) {
        let now = self.shared.inflight.load(Ordering::Relaxed);
        self.shared.inflight_peak.store(now, Ordering::Relaxed);
    }

    // ---- introspection ---------------------------------------------------

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.shared.inner.read().len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u16 {
        self.shared.inner.read().height()
    }

    /// Minimum bounding rectangle of everything indexed, or
    /// [`Rect::EMPTY`] when the index holds nothing.
    pub fn bounds(&self) -> CoreResult<Rect> {
        self.shared.inner.read().bounds()
    }

    /// The construction options.
    #[must_use]
    pub fn options(&self) -> IndexOptions {
        *self.shared.inner.read().options()
    }

    /// `true` when the index write-ahead-logs its updates.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.shared.inner.read().is_durable()
    }

    /// Snapshot of the physical I/O counters.
    #[must_use]
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.shared.inner.read().io_stats().snapshot()
    }

    /// Run `f` over the operation counters.
    pub fn with_op_stats<R>(&self, f: impl FnOnce(&OpStats) -> R) -> R {
        f(self.shared.inner.read().op_stats())
    }

    /// Run `f` over the underlying index (read-only diagnostics: page
    /// counts, summary inspection, ...). Holds the physical read lock
    /// but no granule lock — pair with quiesced writers for exact
    /// numbers.
    pub fn with_index<R>(&self, f: impl FnOnce(&RTreeIndex) -> R) -> R {
        f(&self.shared.inner.read())
    }

    /// Run `f` over the underlying index mutably, under an exclusive
    /// tree granule (maintenance escape hatch: buffer resizing, bulk
    /// fix-ups, ...).
    pub fn with_index_mut<R>(&self, f: impl FnOnce(&mut RTreeIndex) -> R) -> R {
        let (mut index, _tree) = self.lock_excl();
        f(&mut index)
    }

    /// Run the deep invariant check.
    pub fn validate(&self) -> CoreResult<()> {
        self.shared.inner.read().validate()
    }
}

/// Receipt for a flushed write ([`Bur::apply`] / [`Bur::commit`]).
///
/// Holding a ticket costs nothing; [`CommitTicket::wait`] blocks until
/// the log's durable-LSN watermark covers the ticket's commit record —
/// the hard ack under [`bur_storage::SyncPolicy::Async`], where commits
/// return before their batch is synced. Under the synchronous policies
/// (and on non-durable indexes) `wait` returns immediately. The wait
/// never holds the index lock, so acknowledging durability does not
/// stall concurrent writers.
#[derive(Debug)]
pub struct CommitTicket {
    report: BatchReport,
    hooks: CommitBatch,
    lsn: Lsn,
    waiter: Option<WalWaiter>,
}

impl CommitTicket {
    /// Block until the covered operations are durable; returns the
    /// durable watermark (0 on a non-durable index).
    pub fn wait(&self) -> CoreResult<Lsn> {
        match &self.waiter {
            Some(w) => Ok(w.wait(self.lsn)?),
            None => Ok(0),
        }
    }

    /// `true` once the covered operations are durable (never blocks;
    /// trivially `true` on a non-durable index).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.waiter
            .as_ref()
            .is_none_or(|w| w.durable_lsn() >= self.lsn)
    }

    /// LSN of the covering commit record (0 on a non-durable index).
    #[must_use]
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// What the write did, per operation class.
    #[must_use]
    pub fn report(&self) -> &BatchReport {
        &self.report
    }

    /// The per-granule commit hooks drained by this flush (empty when
    /// commit batching was off or the index is not durable).
    #[must_use]
    pub fn commit_batch(&self) -> &CommitBatch {
        &self.hooks
    }

    /// Consume the ticket, returning the drained commit hooks.
    #[must_use]
    pub fn into_commit_batch(self) -> CommitBatch {
        self.hooks
    }
}

/// Streaming window-query results (see [`Bur::query`]).
///
/// Iterate it like any iterator; the backing buffer returns to the
/// handle's recycling pool on drop, so steady-state queries allocate
/// nothing.
pub struct QueryCursor {
    hits: Vec<ObjectId>,
    pos: usize,
    home: Arc<BurShared>,
}

impl std::fmt::Debug for QueryCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCursor")
            .field("remaining", &self.len())
            .finish()
    }
}

impl QueryCursor {
    /// The ids not yet consumed, as a slice.
    #[must_use]
    pub fn remaining(&self) -> &[ObjectId] {
        &self.hits[self.pos..]
    }

    /// Append the remaining ids to `out` (bridge for callers that still
    /// want buffer semantics), consuming the cursor.
    pub fn collect_into(mut self, out: &mut Vec<ObjectId>) {
        out.extend_from_slice(self.remaining());
        self.pos = self.hits.len();
    }
}

impl Iterator for QueryCursor {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        let id = self.hits.get(self.pos).copied()?;
        self.pos += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hits.len() - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for QueryCursor {}

impl Drop for QueryCursor {
    fn drop(&mut self) {
        self.home.recycle(std::mem::take(&mut self.hits));
    }
}

/// Streaming k-nearest-neighbor results, closest first (see
/// [`Bur::nearest`]).
#[derive(Debug)]
pub struct NeighborCursor {
    hits: std::vec::IntoIter<Neighbor>,
}

impl Iterator for NeighborCursor {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        self.hits.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.hits.size_hint()
    }
}

impl ExactSizeIterator for NeighborCursor {}
