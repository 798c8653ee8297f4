//! The shared index handle: one clonable type for every caller.
//!
//! [`Bur`] wraps the [`RTreeIndex`] engine in `Arc` internals with the
//! locking discipline of the paper's throughput study (DGL, Section
//! 3.2.2), reduced to the bits it uses: bottom-up updates claim the leaf
//! they touch — one atomic bit per leaf — and nothing else, while
//! structure-modifying operations (splits, ascents, top-down updates)
//! exclude everyone. Clone the handle freely — clones share the same
//! index.
//!
//! There is one whole-tree lock: the engine sits behind a reader-writer
//! *structure lock*. Queries and [`Bur::apply`] batches of bottom-up
//! updates run under its *shared* side — several such batches on
//! disjoint leaves plan and write **at the same time**, each page
//! access serialized only by its per-frame latch
//! ([`bur_storage::PageWriteLatch`]). A batch that needs anything else —
//! an insert or a delete, a leaf another batch has claimed, a top-down
//! update, a sibling shift, an MBR ascent — escalates to the exclusive
//! side before writing anything, once and without retrying, counted in
//! [`crate::stats::OpSnapshot::escalations`]. The full
//! protocol — latch ordering, pin-vs-latch rules, the
//! deadlock-avoidance argument — is normative in `docs/ARCHITECTURE.md`
//! ("Latching protocol").
//!
//! The write path is **batch-first**: [`Bur::apply`] takes a [`Batch`]
//! of mixed operations and — on a durable index — flushes it as **one**
//! write-ahead-log group commit record (atomic under crashes). The
//! single-op writers ([`Bur::insert`], [`Bur::update`], ...) are batches
//! of one through the same `apply`. The commit syncs the log before
//! `apply` returns: `Ok` means durable, and an `apply` whose sync failed
//! returns the error and hands out no ticket. The [`CommitTicket`] it
//! returns is the receipt — the report, the record's LSN, and
//! [`CommitTicket::wait`] as the ack point callers are written against.
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
use crate::commit;
use crate::concurrent::{self, Planned, SharedPass, Step};
use crate::config::{IndexOptions, UpdateStrategy};
use crate::error::{CoreError, CoreResult};
use crate::index::{RTreeIndex, RecoveryReport};
use crate::knn::Neighbor;
use crate::node::ObjectId;
use crate::stats::OpStats;
use bur_geom::{Point, Rect};
use bur_storage::{BufferPool, DiskBackend, IoSnapshot, PageId, PageRef};
use bur_wal::{Lsn, WalStatsSnapshot};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// At most this many spare query buffers are kept for recycling; extra
/// cursors dropped concurrently just free their buffer.
const SPARE_BUFFERS: usize = 16;

/// Shared state behind every clone of a [`Bur`] handle.
struct BurShared {
    /// The engine behind the structure lock, the only whole-tree lock.
    /// Queries and writers that stay leaf-local (concurrent `apply`)
    /// hold the **read** side — the engine's leaf claims carve up what
    /// the writers may touch — while structural writers hold the write
    /// side. See `docs/ARCHITECTURE.md`, "Latching protocol". Its write
    /// side is taken only through [`BurShared::write`].
    inner: RwLock<RTreeIndex>,
    /// The write epoch: bumped by every acquisition of the write side and
    /// by every shared execute — everything that can change a page a
    /// shared pass has read. An escalated batch keeps the plans its pass
    /// made only if the epoch has not moved since the pass began.
    epoch: AtomicU64,
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
    /// The structure lock's write side, moving the write epoch.
    fn write(&self) -> RwLockWriteGuard<'_, RTreeIndex> {
        let index = self.inner.write();
        // `Relaxed` is enough: the lock orders this bump after every
        // earlier pass and before every later one. An execute's bump
        // that races a pass may be seen or not: either way it writes no
        // leaf the pass has claimed, and only patches parent entries
        // the pass does not plan.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        index
    }

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

/// Outcome of the shared-phase attempt inside [`Bur::apply`].
enum SharedAttempt<'p> {
    /// Planned, written and committed concurrently.
    Done(CommitTicket),
    /// Not leaf-local: finish the batch on the exclusive path (nothing
    /// has been written), with the plans the pass kept. Returned with
    /// every lock and claim released.
    Escalate(Kept<'p>),
}

/// What an escalated pass hands the exclusive path: the updates it
/// planned before the op that stopped it, and the write epoch its pass
/// began at.
struct Kept<'p> {
    planned: Planned<'p>,
    epoch: u64,
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
        Self {
            shared: Arc::new(BurShared {
                inner: RwLock::new(index),
                epoch: AtomicU64::new(0),
                spare_ids: Mutex::new(Vec::new()),
                read_only: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                inflight_peak: AtomicUsize::new(0),
            }),
        }
    }

    /// Wrap an index in a **read-only** handle: every write entry point
    /// (`apply`, `insert`, `update`, `delete`, `checkpoint`)
    /// fails with [`CoreError::ReadOnly`] until
    /// [`Bur::promote_replica`] flips the
    /// handle writable. This is how a replication follower shares its
    /// replica view with query threads while it alone redoes the shipped
    /// log through [`Bur::with_index_mut`] (the maintenance escape
    /// hatch, which stays open — it is the follower's apply path).
    #[must_use]
    pub fn from_index_read_only(index: RTreeIndex) -> Self {
        let bur = Self::from_index(index);
        bur.shared.read_only.store(true, Ordering::Release);
        bur
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
    /// log reattach + rewind, checkpoint) under the exclusive structure
    /// lock, then flip the handle writable. Every clone held by a
    /// query thread becomes a handle on the new primary at the same
    /// moment. Fails on a handle that is already writable. `log_disk` is
    /// the (empty) disk a durable promote logs to; a volatile one takes
    /// none (see [`RTreeIndex::promote_replica`]).
    pub fn promote_replica(
        &self,
        opts: IndexOptions,
        log_disk: Option<Arc<dyn DiskBackend>>,
    ) -> CoreResult<()> {
        let mut index = self.shared.write();
        // Checked under the exclusive lock: of two racing promotes,
        // exactly one wins — the loser sees a writable handle.
        if !self.is_read_only() {
            return Err(CoreError::BadConfig(
                "promote_replica: handle is already writable".into(),
            ));
        }
        index.promote_replica(opts, log_disk)?;
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

    /// Number of leaves claimed by shared-path batches right now: 0
    /// whenever no `apply` is in flight.
    #[must_use]
    pub fn claimed_leaves(&self) -> usize {
        self.shared.inner.read().tree.claims.claimed()
    }

    /// Claim leaf `pid` the way a shared-path batch does and hold the
    /// claim, without the structure lock, until the returned guard drops
    /// — so a test can make a batch meet a held claim. `None` when the
    /// leaf is claimed already or past the end of the claim table.
    #[must_use]
    pub fn hold_leaf_claim(&self, pid: PageId) -> Option<HeldLeafClaim> {
        let claimed = self.shared.inner.read().tree.claims.claim(pid);
        claimed.then(|| HeldLeafClaim {
            shared: self.shared.clone(),
            pid,
        })
    }

    /// What the log replay did when this handle's index was built
    /// ([`RTreeIndex::recovery_report`]).
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.inner.read().recovery_report()
    }

    /// Build a ticket covering everything committed so far (call with the
    /// index lock still held, so the LSN covers exactly this commit).
    fn ticket(index: &RTreeIndex, report: BatchReport) -> CommitTicket {
        CommitTicket {
            report,
            lsn: index.last_lsn().unwrap_or(0),
        }
    }

    // ---- batch-first writes ----------------------------------------------

    /// Apply a [`Batch`] of mixed operations atomically with respect to
    /// the write-ahead log: the whole batch is flushed as **one** group
    /// commit record, so a crash recovers all of it or none of it.
    /// The record is synced before this returns: `Ok` means the batch
    /// is durable, and a failed sync surfaces here as `Err` with no
    /// [`CommitTicket`] handed out.
    ///
    /// Locking: batches of bottom-up updates claim the leaves they touch
    /// under the **shared** side of the structure lock — batches on
    /// disjoint leaves plan and write concurrently (see the module docs
    /// and `docs/ARCHITECTURE.md`). A batch that cannot stay leaf-local —
    /// an insert or a delete, a leaf another batch has claimed, a
    /// top-down update, a sibling shift, an MBR ascent — escalates to the
    /// exclusive structure lock before a single page is written, so the
    /// result is always identical to sequential application. The updates
    /// before the op that escalated keep their plans: the exclusive
    /// section writes them through the pins the shared pass took and
    /// resumes at that op, unless a write landed in between, and then it
    /// replays the batch from its first op. Escalations are counted in
    /// [`crate::stats::OpSnapshot::escalations`].
    pub fn apply(&self, batch: &Batch) -> CoreResult<CommitTicket> {
        self.check_writable()?;
        if batch.is_empty() {
            let index = self.shared.inner.read();
            return Ok(Self::ticket(&index, BatchReport::default()));
        }
        // The shared passes pin pages through this clone of the pool, so
        // the plans an escalated one keeps outlive its read guard.
        let pool = Arc::clone(&self.shared.inner.read().tree.pool);
        let attempt = self.apply_shared(&pool, batch)?;
        match attempt {
            SharedAttempt::Done(ticket) => {
                self.checkpoint_if_due()?;
                Ok(ticket)
            }
            SharedAttempt::Escalate(kept) => self.exclusive(batch, kept),
        }
    }

    /// The exclusive path: the batch under the structure lock's write
    /// side, applied by the engine and flushed as one group commit
    /// record by `apply_batch_from` (on error, the record covers the
    /// prefix before the failing op). The batch waits in the lock's
    /// writer queue and never re-plans.
    ///
    /// `kept` plans are written only if the write epoch moved by this
    /// section's own acquisition alone since their pass began: then no
    /// exclusive section and no shared execute ran in between, so every
    /// page the pass read — a leaf whose claim it has since dropped, a
    /// parent entry — is still as it read it, and writing the shadows
    /// overwrites no one's commit. Otherwise they drop unwritten and the
    /// engine replays the batch from its first op.
    fn exclusive(&self, batch: &Batch, kept: Kept<'_>) -> CoreResult<CommitTicket> {
        let mut index = self.shared.write();
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        let planned = if kept.epoch + 1 == epoch {
            kept.planned
        } else {
            Planned::default()
        };
        index.op_stats().escalations.fetch_add(1, Ordering::Relaxed);
        let report = index.apply_batch_from(batch, planned)?;
        Ok(Self::ticket(&index, report))
    }

    /// The one attempt at the concurrent write path: under the structure
    /// lock's read side, plan the batch in one
    /// in-order pass ([`SharedPass::plan`] — it takes each leaf's
    /// claim and pin as it first meets the leaf, and stops at
    /// the first op that cannot stay leaf-local), then write and commit
    /// it. An escalation has written nothing and releases every lock and
    /// claim before returning, so the exclusive section never waits
    /// holding either; only its kept plans keep their pins, on `pool`.
    fn apply_shared<'p>(
        &self,
        pool: &'p BufferPool,
        batch: &Batch,
    ) -> CoreResult<SharedAttempt<'p>> {
        let index = self.shared.inner.read();
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        let escalate = |planned| Ok(SharedAttempt::Escalate(Kept { planned, epoch }));
        // The pool is the index's own unless `with_index_mut` replaced the
        // whole index since `apply` cloned it.
        if matches!(index.options().strategy, UpdateStrategy::TopDown)
            || !std::ptr::eq(pool, &*index.tree.pool)
        {
            return escalate(Planned::default());
        }
        let _inflight = InFlight::enter(&self.shared);
        let mut pass = SharedPass::new(&index, pool);
        if let Step::Escalate(resume) = pass.plan(batch.ops())? {
            return escalate(pass.into_planned(resume));
        }
        let (report, lsn) = self.write_and_commit(&index, &pass, batch.len() as u64)?;
        Ok(SharedAttempt::Done(CommitTicket { report, lsn }))
    }

    /// Write a fully planned pass through its pins and group-commit it:
    /// one record for the whole batch. Returns the report and the
    /// record's LSN (0 without a log).
    fn write_and_commit(
        &self,
        index: &RTreeIndex,
        pass: &SharedPass<'_, '_>,
        batch_len: u64,
    ) -> CoreResult<(BatchReport, Lsn)> {
        // Pages other passes have read may change from here on.
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        let mut written: Vec<&PageRef<'_>> = Vec::new();
        let done = pass.execute(&mut written);
        // Shadows under one parent each push it: log every page once.
        written.sort_unstable_by_key(|p| p.pid());
        written.dedup_by_key(|p| p.pid());
        let pages = || written.iter().map(|&page| Ok(page));
        if let Some((op_index, source)) = done.failed {
            // A storage failure mid-execute (unreachable on a healthy
            // pool). Commit the pages already written — every complete
            // leaf, plus possibly a parent grown for a leaf that never
            // moved, which is benign slack — so the log never replays a
            // torn page set, then surface the error. The applied set is
            // leaf-granular here, the one documented divergence from
            // the sequential path's strict-prefix contract.
            commit::commit(index.log.as_ref(), &index.tree, done.ops, pages)?;
            return Err(CoreError::Batch {
                op_index,
                source: Box::new(source),
            });
        }
        let mut report = BatchReport {
            applied: batch_len,
            ..BatchReport::default()
        };
        concurrent::tally(pass.effects(), index.op_stats(), &mut report);
        let lsn = commit::commit(index.log.as_ref(), &index.tree, done.ops, pages)?;
        Ok((report, lsn.unwrap_or(0)))
    }

    /// Deferred checkpoint for the concurrent path: a shared-phase
    /// commit cannot checkpoint (that rewrites the log under every
    /// in-flight batch), so it only bumps the cadence counter, and the
    /// checkpoint runs here — after the claims are released, under
    /// the exclusive lock, re-checked because a racing batch may have
    /// taken it already.
    fn checkpoint_if_due(&self) -> CoreResult<()> {
        if !self.shared.inner.read().checkpoint_due() {
            return Ok(());
        }
        let mut index = self.shared.write();
        if index.checkpoint_due() {
            index.checkpoint()?;
        }
        Ok(())
    }

    // ---- single-operation writes -----------------------------------------
    //
    // Each is a batch of one through [`Bur::apply`]: the same shared path,
    // escalation and one commit record. Its error is the op's own, not
    // [`CoreError::Batch`].

    /// Insert a fresh point object.
    pub fn insert(&self, oid: ObjectId, position: Point) -> CoreResult<CommitTicket> {
        self.insert_rect(oid, Rect::from_point(position))
    }

    /// Insert a fresh object with a rectangular extent.
    pub fn insert_rect(&self, oid: ObjectId, rect: Rect) -> CoreResult<CommitTicket> {
        self.apply_one(Op::Insert { oid, rect })
    }

    /// Delete an object. Whether it was indexed at `position` is in the
    /// ticket's report: `deleted` or `missing_deletes` is 1.
    pub fn delete(&self, oid: ObjectId, position: Point) -> CoreResult<CommitTicket> {
        self.apply_one(Op::Delete { oid, position })
    }

    /// Move an object. The outcome class it took is counted in the op
    /// stats ([`Bur::with_op_stats`]).
    pub fn update(&self, oid: ObjectId, old: Point, new: Point) -> CoreResult<CommitTicket> {
        self.apply_one(Op::Update { oid, old, new })
    }

    fn apply_one(&self, op: Op) -> CoreResult<CommitTicket> {
        let mut batch = Batch::with_capacity(1);
        batch.push(op);
        self.apply(&batch).map_err(|e| match e {
            CoreError::Batch { source, .. } => *source,
            e => e,
        })
    }

    // ---- streaming queries -----------------------------------------------

    /// Window query under the structure lock's read side, streamed through a
    /// [`QueryCursor`]. The result buffer is recycled from cursor to
    /// cursor, so the hot path performs no per-call `Vec` allocation.
    pub fn query(&self, window: &Rect) -> CoreResult<QueryCursor> {
        let index = self.shared.inner.read();
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
    /// through a [`NeighborCursor`] (structure lock's read side).
    pub fn nearest(&self, point: Point, k: usize) -> CoreResult<NeighborCursor> {
        let index = self.shared.inner.read();
        let hits = index.nearest_neighbors(point, k)?;
        Ok(NeighborCursor {
            hits: hits.into_iter(),
        })
    }

    // ---- durability controls ---------------------------------------------

    /// Take a checkpoint now ([`RTreeIndex::checkpoint`]): the index
    /// can be reopened from its file, and recovery replays only what
    /// commits after it. A clean shutdown ends with one.
    pub fn checkpoint(&self) -> CoreResult<()> {
        self.check_writable()?;
        let mut index = self.shared.write();
        index.checkpoint()
    }

    /// Log activity counters, when the index is durable.
    #[must_use]
    pub fn wal_stats(&self) -> Option<WalStatsSnapshot> {
        self.shared.inner.read().wal_stats()
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
    /// counts, summary inspection, ...). Holds the structure lock's read
    /// side but no leaf claim — pair with quiesced writers for exact
    /// numbers.
    pub fn with_index<R>(&self, f: impl FnOnce(&RTreeIndex) -> R) -> R {
        f(&self.shared.inner.read())
    }

    /// Run `f` over the underlying index mutably, under the structure
    /// lock's write side (maintenance escape hatch: buffer resizing,
    /// bulk fix-ups, ...).
    pub fn with_index_mut<R>(&self, f: impl FnOnce(&mut RTreeIndex) -> R) -> R {
        f(&mut self.shared.write())
    }

    /// Run the deep invariant check.
    pub fn validate(&self) -> CoreResult<()> {
        self.shared.inner.read().validate()
    }
}

/// A leaf claim held by [`Bur::hold_leaf_claim`]; released on drop.
pub struct HeldLeafClaim {
    shared: Arc<BurShared>,
    pid: PageId,
}

impl std::fmt::Debug for HeldLeafClaim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeldLeafClaim")
            .field("pid", &self.pid)
            .finish()
    }
}

impl Drop for HeldLeafClaim {
    fn drop(&mut self) {
        self.shared.inner.read().tree.claims.release(self.pid);
    }
}

/// Receipt for a flushed write ([`Bur::apply`]).
///
/// A ticket exists only for a commit whose record is already synced, so
/// it holds no log handle: it is the report and the record's LSN.
/// [`CommitTicket::wait`] is the ack point callers are written against.
#[derive(Debug)]
pub struct CommitTicket {
    report: BatchReport,
    lsn: Lsn,
}

impl CommitTicket {
    /// The ack point: returns the covering commit record's LSN, which
    /// is durable (0 on a non-durable index). Never blocks.
    pub fn wait(&self) -> CoreResult<Lsn> {
        Ok(self.lsn)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexBuilder;
    use std::collections::HashMap;

    fn start(oid: u64) -> Point {
        Point::new(
            (oid.wrapping_mul(2_654_435_761) % 10_007) as f32 / 10_007.0,
            (oid.wrapping_mul(40_503) % 10_009) as f32 / 10_009.0,
        )
    }

    fn midpoint(a: Point, b: Point) -> Point {
        Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    }

    /// A plan kept across a commit it never saw would write back the leaf
    /// as the plan read it, undoing that commit. The epoch check replays
    /// it instead. (Two threads cannot force this order: the fair
    /// structure lock parks new readers behind a waiting writer, so the
    /// steps run by hand.)
    #[test]
    fn a_stale_plan_is_replayed_never_written() {
        let bur = IndexBuilder::generalized().build().unwrap();
        let mut load = Batch::new();
        for oid in 0..2_000 {
            load.insert(oid, start(oid));
        }
        bur.apply(&load).unwrap();
        assert!(bur.height() > 1);
        let mut leaves: HashMap<PageId, Vec<u64>> = HashMap::new();
        bur.with_index(|index| {
            for oid in 0..2_000 {
                let leaf = index.locate_leaf(oid).unwrap().unwrap();
                leaves.entry(leaf).or_default().push(oid);
            }
        });
        // x, y and w share leaf L; z lives elsewhere.
        let shared = leaves.values().find(|l| l.len() >= 3).unwrap();
        let (x, y, w) = (shared[0], shared[1], shared[2]);
        let z = *leaves
            .values()
            .find(|l| !l.contains(&x))
            .unwrap()
            .first()
            .unwrap();
        let (x_to, y_to) = (midpoint(start(x), start(w)), midpoint(start(y), start(w)));
        let jump = Point::new((start(z).x + 0.33) % 1.0, (start(z).y + 0.33) % 1.0);
        let mut batch = Batch::new();
        batch.update(x, start(x), x_to);
        batch.update(z, start(z), jump);

        // 1. Plan the batch to its escalation: the move of x in place.
        let pool = Arc::clone(&bur.shared.inner.read().tree.pool);
        let Ok(SharedAttempt::Escalate(kept)) = bur.apply_shared(&pool, &batch) else {
            panic!("the jump stayed on the shared path");
        };
        // 2. Commit a move of y, in L too, through the write side.
        bur.with_index_mut(|index| index.update(y, start(y), y_to))
            .unwrap();
        // 3. Resume the batch.
        bur.exclusive(&batch, kept).unwrap();

        for (oid, at) in [(x, x_to), (y, y_to), (z, jump)] {
            let here: Vec<ObjectId> = bur.query(&Rect::from_point(at)).unwrap().collect();
            assert!(here.contains(&oid), "object {oid} is not at {at}");
        }
        bur.validate().unwrap();
        assert_eq!(bur.with_index(|index| index.pool().pinned_frames()), 0);
        assert_eq!(bur.claimed_leaves(), 0);
    }
}
