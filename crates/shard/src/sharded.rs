//! `ShardedBur` — the batch-first `Bur` surface over N Hilbert-range
//! shards.
//!
//! See the crate docs for the big picture and `docs/ARCHITECTURE.md`
//! ("Sharding") for the normative routing and migration contracts.

use crate::manifest::{self, key_space_for, Manifest};
use crate::router::{Migration, RangeMap, Segment};
use crate::{ShardError, ShardResult};
use bur_core::{
    Batch, BatchReport, Bur, CommitTicket, IndexBuilder, Neighbor, NeighborCursor, ObjectId, Op,
    QueryCursor,
};
use bur_geom::hilbert::{hilbert_key, hilbert_ranges};
use bur_geom::{Point, Rect};
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// Hilbert curve order for the routing keys of a new sharded index
/// (`4^16` cells — fine enough that a shard boundary splits any
/// realistic hotspot). A manifest records the order it was written with,
/// and a reopen keeps it.
pub const DEFAULT_ORDER: u32 = 16;

/// Window-query range decomposition budget of a new sharded index: more
/// ranges = tighter scatter sets but more routing work per query. A
/// manifest records it like [`DEFAULT_ORDER`].
pub const DEFAULT_SCATTER_BUDGET: usize = 16;

/// Ops per group-commit batch while migrating a key range.
const MIGRATE_CHUNK: usize = 1024;

/// Back-off while a write waits for a migration to release its range,
/// and while a migration drains pre-flip readers.
const FREEZE_BACKOFF: Duration = Duration::from_micros(200);

/// Routing state guarded by the map lock. Mutations (slack growth,
/// migration phases) happen under the write lock; routing, scatter
/// planning and reader registration happen under the read lock.
#[derive(Debug)]
struct MapState {
    map: RangeMap,
    /// Maximum half-extent (w, h) of any rect ever inserted: window
    /// queries expand by this before decomposition so an object whose
    /// rect pokes into the window is still routed to.
    slack: (f32, f32),
    /// Migration generation counter; bumped once per migration when it
    /// starts. The parity selects the active reader counter slot.
    epoch: u64,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Bur>,
    state: RwLock<MapState>,
    /// Per-parity counts of live read snapshots (queries / kNN merges).
    /// A migration drains the pre-start parity before it deletes moved
    /// entries from the source shard, so a reader that planned its
    /// scatter before the migration began never observes the deletion.
    readers: [AtomicU64; 2],
    /// Per-parity counts of routed-but-unapplied writes
    /// ([`ShardedBur::route_for_write`]). A migration drains the
    /// pre-start parity before its copy scan, so a write split under
    /// the old map cannot land on the donor after the scan passed it.
    writers: [AtomicU64; 2],
    order: u32,
    budget: usize,
    manifest_path: Option<PathBuf>,
}

/// Decrements its parity slot when the read snapshot dies.
#[derive(Debug)]
struct ReaderGuard {
    inner: Arc<Inner>,
    slot: usize,
}

impl Drop for ReaderGuard {
    fn drop(&mut self) {
        self.inner.readers[self.slot].fetch_sub(1, Ordering::AcqRel);
    }
}

/// Decrements its parity slot when the routed write completes.
#[derive(Debug)]
struct WriterGuard {
    inner: Arc<Inner>,
    slot: usize,
}

impl Drop for WriterGuard {
    fn drop(&mut self) {
        self.inner.writers[self.slot].fetch_sub(1, Ordering::AcqRel);
    }
}

/// A part [`ShardedBur::apply`] handed to [`RoutedWrite::fan_out`]:
/// left for the waiting thread to apply, or applying on a scoped thread.
enum Submitted<'scope> {
    Deferred(u32, Batch),
    Spawned(ScopedJoinHandle<'scope, ShardResult<CommitTicket>>),
}

/// A batch split into per-shard sub-batches but not yet applied (see
/// [`ShardedBur::route_for_write`]). [`Self::fan_out`] hands each part
/// to its shard's write path — [`ShardedBur::apply`] through the
/// shard's `Bur::apply`, the serving layer through the shard's
/// coalescer — and holds the writer registration, which keeps a
/// concurrent migration's copy scan from missing the routed ops, until
/// the last part is acked. The split holds for this map only: a retry
/// of the same ops after a migration may split differently, so a
/// caller that deduplicates retries does so for the write as a whole,
/// never per part.
#[derive(Debug)]
pub struct RoutedWrite {
    parts: Vec<(u32, Batch)>,
    split_updates: u64,
    _guard: WriterGuard,
}

impl RoutedWrite {
    /// The per-shard sub-batches, in first-touch order.
    #[must_use]
    pub fn parts(&self) -> &[(u32, Batch)] {
        &self.parts
    }

    /// How many cross-shard updates were decomposed into delete+insert
    /// pairs (each pair inflates the per-shard applied counts by one).
    #[must_use]
    pub fn split_updates(&self) -> u64 {
        self.split_updates
    }

    /// Hand every part to its shard and collect the acks, in
    /// first-touch order: `submit` passes a part on and returns a
    /// handle without waiting for it, `wait` turns a handle into the
    /// part's ack.
    ///
    /// The parts of most writes touch disjoint objects, so every part
    /// is submitted before any is waited for and the shards apply them
    /// side by side. A write that splits an update into a delete on one
    /// shard and an insert on another, whose two commits are not atomic
    /// together (see `docs/ARCHITECTURE.md`, "Serving sharded
    /// indexes"), goes part by part instead: each is submitted and
    /// waited for before the next, and the first failure stops the
    /// rest. Every part submitted is waited for, even past a failure,
    /// so none lands after the writer registration is gone; it goes
    /// when this returns. The error is the first in first-touch order.
    pub fn fan_out<H, A, E>(
        self,
        mut submit: impl FnMut(u32, Batch) -> Result<H, E>,
        mut wait: impl FnMut(H) -> Result<A, E>,
    ) -> Result<Vec<(u32, A)>, E> {
        let mut acks = Vec::with_capacity(self.parts.len());
        if self.split_updates > 0 {
            for (shard, part) in self.parts {
                acks.push((shard, wait(submit(shard, part)?)?));
            }
            return Ok(acks);
        }
        let submitted: Vec<_> = self
            .parts
            .into_iter()
            .map(|(shard, part)| (shard, submit(shard, part)))
            .collect();
        let mut failed = None;
        for (shard, handle) in submitted {
            match handle.and_then(&mut wait) {
                Ok(ack) => acks.push((shard, ack)),
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(acks), Err)
    }
}

/// One logical index over N independent [`Bur`] shards partitioned by
/// Hilbert-key ranges.
///
/// * Point ops route to the single shard owning their key; a mixed
///   [`Batch`] splits into per-shard sub-batches applied in parallel —
///   one group-commit record per *touched* shard, folded into an
///   [`AggregateTicket`].
/// * Window queries scatter only to shards whose key ranges intersect
///   the query's Hilbert range decomposition and gather through the
///   shards' zero-allocation cursors.
/// * kNN merges per-shard streams through a global bounded heap,
///   admitting a shard only when its root-MBR `MINDIST` can still beat
///   the current frontier.
/// * [`ShardedBur::migrate_range`] rebalances a key range shard-to-shard
///   under a migration epoch; with a manifest file attached the move is
///   all-or-nothing across crashes.
///
/// Cloning is cheap and shares the index (like [`Bur`]).
#[derive(Debug, Clone)]
pub struct ShardedBur {
    inner: Arc<Inner>,
}

/// Per-shard commit tickets for one sharded batch, folded into a single
/// aggregate handle. One ticket per shard the batch touched.
#[derive(Debug)]
pub struct AggregateTicket {
    parts: Vec<(u32, CommitTicket)>,
    report: BatchReport,
}

impl AggregateTicket {
    /// The ack point: every touched shard's sub-batch is durable. Returns
    /// the largest per-shard LSN (0 on volatile indexes) — shard logs are
    /// independent, so it is only a watermark of "everything acked", not
    /// a global order.
    pub fn wait(&self) -> ShardResult<u64> {
        Ok(self.parts.iter().map(|(_, t)| t.lsn()).max().unwrap_or(0))
    }

    /// What the batch did, folded across shards. A cross-shard update
    /// (an object moving between shards) counts as one `updated`, as it
    /// would on an unsharded index.
    #[must_use]
    pub fn report(&self) -> &BatchReport {
        &self.report
    }

    /// Per-shard `(shard, lsn)` pairs, one per touched shard.
    #[must_use]
    pub fn shard_lsns(&self) -> Vec<(u32, u64)> {
        self.parts.iter().map(|(s, t)| (*s, t.lsn())).collect()
    }

    /// How many shards the batch touched.
    #[must_use]
    pub fn shards_touched(&self) -> usize {
        self.parts.len()
    }
}

/// Gathered window-query results across shards (see
/// [`ShardedBur::query`]). Iterates each shard's recycled-buffer cursor
/// in shard order; while a migration overlaps the window it deduplicates
/// object ids (both sides of the move may hold a copy).
#[derive(Debug)]
pub struct ScatterQuery {
    cursors: Vec<QueryCursor>,
    current: usize,
    dedup: Option<HashSet<ObjectId>>,
}

impl ScatterQuery {
    /// How many shards the query scattered to.
    #[must_use]
    pub fn shards_touched(&self) -> usize {
        self.cursors.len()
    }

    /// Append every remaining id to `out`.
    pub fn collect_into(&mut self, out: &mut Vec<ObjectId>) {
        out.extend(self);
    }
}

impl Iterator for ScatterQuery {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        while self.current < self.cursors.len() {
            for oid in self.cursors[self.current].by_ref() {
                match &mut self.dedup {
                    Some(seen) => {
                        if seen.insert(oid) {
                            return Some(oid);
                        }
                    }
                    None => return Some(oid),
                }
            }
            self.current += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let upper: usize = self.cursors[self.current.min(self.cursors.len())..]
            .iter()
            .map(|c| c.size_hint().1.unwrap_or(0))
            .sum();
        if self.dedup.is_some() {
            (0, Some(upper))
        } else {
            (upper, Some(upper))
        }
    }
}

/// Heap element of the global kNN merge: the head of one shard's
/// neighbor stream. Min-ordered by `(distance, oid)` so merged output
/// is deterministic under ties.
struct Head {
    neighbor: Neighbor,
    slot: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the closest first.
        other
            .neighbor
            .distance
            .total_cmp(&self.neighbor.distance)
            .then_with(|| other.neighbor.oid.cmp(&self.neighbor.oid))
    }
}

/// Streaming merged k-nearest-neighbor results across shards, closest
/// first (see [`ShardedBur::nearest`]).
///
/// Shards are admitted lazily: a shard's stream is opened only once the
/// `MINDIST` from the query point to its root MBR is at most the
/// distance of the current best unemitted candidate — a shard whose
/// entire bounding box is farther than the k-th result is never read.
///
/// A shard query failing mid-merge ends the stream early; check
/// [`MergedNeighbors::take_error`] (or use
/// [`MergedNeighbors::try_collect`]) to observe it.
pub struct MergedNeighbors {
    inner: Arc<Inner>,
    query: Point,
    k: usize,
    emitted: usize,
    /// Unopened shards as `(mindist, shard)`, sorted descending so the
    /// nearest candidate pops off the end.
    pending: Vec<(f32, u32)>,
    cursors: Vec<NeighborCursor>,
    heap: std::collections::BinaryHeap<Head>,
    dedup: Option<HashSet<ObjectId>>,
    error: Option<ShardError>,
    /// Keeps the migration delete phase from racing this merge.
    _guard: ReaderGuard,
}

impl std::fmt::Debug for MergedNeighbors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedNeighbors")
            .field("k", &self.k)
            .field("emitted", &self.emitted)
            .field("pending_shards", &self.pending.len())
            .field("open_shards", &self.cursors.len())
            .finish()
    }
}

impl MergedNeighbors {
    /// Admit every pending shard that could still beat the current
    /// frontier, pushing its first neighbor onto the merge heap.
    fn admit(&mut self) {
        while let Some(&(mindist, shard)) = self.pending.last() {
            let frontier = self.heap.peek().map(|h| h.neighbor.distance);
            if frontier.is_some_and(|d| mindist > d) {
                break;
            }
            self.pending.pop();
            match self.inner.shards[shard as usize].nearest(self.query, self.k) {
                Ok(mut cursor) => {
                    if let Some(neighbor) = cursor.next() {
                        let slot = self.cursors.len();
                        self.cursors.push(cursor);
                        self.heap.push(Head { neighbor, slot });
                    }
                }
                Err(source) => {
                    self.error = Some(ShardError::Shard { shard, source });
                    self.pending.clear();
                    break;
                }
            }
        }
    }

    /// The error that ended the stream early, if any.
    pub fn take_error(&mut self) -> Option<ShardError> {
        self.error.take()
    }

    /// Drain the stream into a vector, surfacing any shard error.
    pub fn try_collect(mut self) -> ShardResult<Vec<Neighbor>> {
        let mut out = Vec::with_capacity(self.k.min(64));
        for n in &mut self {
            out.push(n);
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl Iterator for MergedNeighbors {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        loop {
            if self.emitted >= self.k || self.error.is_some() {
                return None;
            }
            self.admit();
            let head = self.heap.pop()?;
            if let Some(next) = self.cursors[head.slot].next() {
                self.heap.push(Head {
                    neighbor: next,
                    slot: head.slot,
                });
            }
            if let Some(seen) = &mut self.dedup {
                if !seen.insert(head.neighbor.oid) {
                    continue;
                }
            }
            self.emitted += 1;
            return Some(head.neighbor);
        }
    }
}

/// What one [`ShardedBur::migrate_range`] call moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Objects moved.
    pub moved: u64,
    /// Donor shard.
    pub from: u32,
    /// Recipient shard.
    pub to: u32,
    /// Migration epoch assigned to the move.
    pub epoch: u64,
}

/// Load snapshot of one shard (see [`ShardStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Objects on the shard.
    pub len: u64,
    /// Tree height of the shard (1 = the root is a leaf).
    pub height: u16,
}

/// Aggregate load/shape snapshot of a sharded index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Per-shard load, indexed by shard id.
    pub shards: Vec<ShardLoad>,
    /// `max(len) / mean(len)`; 1.0 for an empty or perfectly even
    /// index. The rebalance heuristics key off this.
    pub imbalance: f64,
    /// Migration generation counter.
    pub epoch: u64,
    /// Number of contiguous key-range segments in the routing map.
    pub segments: usize,
    /// Whether a range migration is in flight.
    pub migrating: bool,
}

impl ShardedBur {
    /// Assemble a sharded index over pre-built shards with an even
    /// initial key split and no on-disk manifest (routing state lives
    /// in memory only — fine for volatile indexes and tests).
    pub fn from_shards(shards: Vec<Bur>) -> ShardResult<Self> {
        Self::assemble(shards, None, None)
    }

    /// Assemble a sharded index whose routing state is persisted in the
    /// manifest file at `path`. If the manifest exists, its order,
    /// budget, segment map and slack are used, and any interrupted
    /// migration it records is first rolled back or forward so the
    /// index observes the all-or-nothing rebalance contract; otherwise
    /// a fresh even split is written there.
    pub fn with_manifest(shards: Vec<Bur>, path: PathBuf) -> ShardResult<Self> {
        let existing = if path.exists() {
            Some(manifest::load(&path)?)
        } else {
            None
        };
        Self::assemble(shards, Some(path), existing)
    }

    /// Create the sharded index `name` in `dir`: `shards` new shard
    /// files `<name>.s<k>.bur`, each built by `builder` (which names no
    /// backend), and a fresh even split in the manifest
    /// `<name>.shardmap`.
    pub fn create_in(
        dir: &Path,
        name: &str,
        shards: u32,
        builder: impl Fn() -> IndexBuilder,
    ) -> ShardResult<Self> {
        let burs = (0..shards)
            .map(|shard| {
                builder()
                    .file(shard_file(dir, name, shard))
                    .create()
                    .build()
                    .map_err(|source| ShardError::Shard { shard, source })
            })
            .collect::<ShardResult<Vec<_>>>()?;
        Self::with_manifest(burs, manifest_file(dir, name))
    }

    /// Open the sharded index `name` in `dir` from its manifest and its
    /// shard files, reading the manifest once. Each shard recovers from
    /// its own log, and an interrupted migration rolls back or forward
    /// as [`Self::with_manifest`] describes.
    pub fn open_in(dir: &Path, name: &str) -> ShardResult<Self> {
        let path = manifest_file(dir, name);
        let m = manifest::load(&path)?;
        let mut burs = Vec::with_capacity(m.shards as usize);
        for shard in 0..m.shards {
            let file = shard_file(dir, name, shard);
            if !file.exists() {
                return Err(ShardError::Manifest(format!(
                    "manifest names {} shards but {} is missing",
                    m.shards,
                    file.display()
                )));
            }
            let bur = IndexBuilder::new().file(&file).open().build();
            burs.push(bur.map_err(|source| ShardError::Shard { shard, source })?);
        }
        Self::assemble(burs, Some(path), Some(m))
    }

    fn assemble(
        shards: Vec<Bur>,
        manifest_path: Option<PathBuf>,
        existing: Option<Manifest>,
    ) -> ShardResult<Self> {
        if shards.is_empty() {
            return Err(ShardError::Config("a sharded index needs ≥ 1 shard".into()));
        }
        if u32::try_from(shards.len()).is_err() {
            return Err(ShardError::Config("too many shards".into()));
        }
        let count = shards.len() as u32;
        let (order, budget, slack, map, epoch, recover) = match existing {
            Some(m) => {
                if m.shards != count {
                    return Err(ShardError::Config(format!(
                        "manifest says {} shards, {} were provided",
                        m.shards, count
                    )));
                }
                let map = m.range_map()?;
                (m.order, m.budget, m.slack, map, m.epoch, m.migration)
            }
            None => (
                DEFAULT_ORDER,
                DEFAULT_SCATTER_BUDGET,
                (0.0, 0.0),
                RangeMap::even(count, key_space_for(DEFAULT_ORDER)),
                0,
                None,
            ),
        };
        let inner = Arc::new(Inner {
            shards,
            state: RwLock::new(MapState { map, slack, epoch }),
            readers: [AtomicU64::new(0), AtomicU64::new(0)],
            writers: [AtomicU64::new(0), AtomicU64::new(0)],
            order,
            budget,
            manifest_path,
        });
        let this = Self { inner };
        match recover {
            Some(m) => this.recover_migration(m)?,
            None => {
                // Fresh index with a manifest path: persist the initial map.
                if this.inner.manifest_path.is_some() && !this.manifest_exists() {
                    this.persist_manifest()?;
                }
            }
        }
        Ok(this)
    }

    fn manifest_exists(&self) -> bool {
        self.inner
            .manifest_path
            .as_deref()
            .is_some_and(std::path::Path::exists)
    }

    /// Write the current routing state to the manifest (no-op without a
    /// manifest path). Callers must hold no state lock, or pass the
    /// guarded state explicitly via [`Self::persist_state`].
    fn persist_manifest(&self) -> ShardResult<()> {
        let state = self.inner.state.read();
        self.persist_state(&state)
    }

    fn persist_state(&self, state: &MapState) -> ShardResult<()> {
        let Some(path) = &self.inner.manifest_path else {
            return Ok(());
        };
        let m = Manifest {
            order: self.inner.order,
            budget: self.inner.budget,
            shards: self.inner.shards.len() as u32,
            epoch: state.epoch,
            slack: state.slack,
            segments: state.map.segments().to_vec(),
            migration: state.map.pending().copied(),
        };
        manifest::store(path, &m)
    }

    // ---- routing ---------------------------------------------------------

    /// Routing key of a position on this index's curve.
    #[must_use]
    pub fn key_of(&self, p: Point) -> u64 {
        hilbert_key(p, self.inner.order)
    }

    /// The shard a point op at `p` routes to right now.
    #[must_use]
    pub fn route_point(&self, p: Point) -> u32 {
        let key = self.key_of(p);
        self.inner.state.read().map.owner(key)
    }

    /// Split `ops` into per-shard sub-batches under the current routing
    /// map, preserving relative op order per shard. A cross-shard
    /// update decomposes into a delete on the old shard and an insert
    /// on the new one; the second return is the number of such splits
    /// (for report fix-up). Deterministic for a given map. Exactly-once
    /// does not rest on it: the serving layer deduplicates a sharded
    /// write once, as a whole, in the index's one ledger, and the shard
    /// coalescers see no sessions.
    #[must_use]
    pub fn split_ops(&self, ops: &[Op]) -> (Vec<(u32, Batch)>, u64) {
        let state = self.inner.state.read();
        split_ops_with(&state.map, self.inner.order, ops)
    }

    /// Split `ops` for application through per-shard write paths
    /// ([`Self::apply`], the server's per-shard coalescers): grow the
    /// extent slack, wait out a migration overlapping any op, and
    /// return a [`RoutedWrite`] whose writer registration a later
    /// migration must drain before scanning. Its
    /// [`RoutedWrite::fan_out`] hands the parts to their shards.
    pub fn route_for_write(&self, ops: &[Op]) -> ShardResult<RoutedWrite> {
        self.grow_slack_for(ops)?;
        loop {
            let state = self.inner.state.read();
            if let Some(m) = state.map.pending() {
                if ops_touch_range(ops, self.inner.order, m.lo, m.hi) {
                    drop(state);
                    std::thread::sleep(FREEZE_BACKOFF);
                    continue;
                }
            }
            let slot = (state.epoch & 1) as usize;
            self.inner.writers[slot].fetch_add(1, Ordering::AcqRel);
            let guard = WriterGuard {
                inner: Arc::clone(&self.inner),
                slot,
            };
            let (parts, split_updates) = split_ops_with(&state.map, self.inner.order, ops);
            drop(state);
            return Ok(RoutedWrite {
                parts,
                split_updates,
                _guard: guard,
            });
        }
    }

    // ---- writes ----------------------------------------------------------

    /// Apply a mixed batch: split by key, apply sub-batches in parallel
    /// (one group-commit record per touched shard) and fold the tickets.
    /// A batch that moves an object across shards applies its parts one
    /// after another instead ([`RoutedWrite::fan_out`]).
    ///
    /// Atomicity is **per shard**: a crash keeps or drops each shard's
    /// sub-batch as a unit, but not the cross-shard whole. Ops routed
    /// into a key range that is mid-migration wait for the migration to
    /// finish before applying.
    pub fn apply(&self, batch: &Batch) -> ShardResult<AggregateTicket> {
        // The routed write's registration, not the map lock, keeps a
        // migration's copy scan from missing these ops: the scan waits
        // until the parts have landed.
        let routed = self.route_for_write(batch.ops())?;
        let split_updates = routed.split_updates();
        let apply = |shard: u32, part: &Batch| {
            self.inner.shards[shard as usize]
                .apply(part)
                .map_err(|source| ShardError::Shard { shard, source })
        };
        // A part submitted while none is outstanding applies on this
        // thread once it is waited for, so a one-part write and a write
        // going part by part spawn nothing; the parts submitted beside
        // it apply on scoped threads meanwhile.
        let outstanding = Cell::new(false);
        let tickets = std::thread::scope(|scope| {
            routed.fan_out(
                |shard, part| {
                    Ok(if outstanding.replace(true) {
                        Submitted::Spawned(scope.spawn(move || apply(shard, &part)))
                    } else {
                        Submitted::Deferred(shard, part)
                    })
                },
                |submitted| match submitted {
                    Submitted::Deferred(shard, part) => {
                        outstanding.set(false);
                        apply(shard, &part)
                    }
                    Submitted::Spawned(handle) => handle.join().expect("shard apply panicked"),
                },
            )
        })?;
        let mut report = BatchReport::default();
        for (_, t) in &tickets {
            let r = t.report();
            report.applied += r.applied;
            report.inserted += r.inserted;
            report.updated += r.updated;
            report.deleted += r.deleted;
            report.missing_deletes += r.missing_deletes;
        }
        // A split update ran as delete + insert; report it as the
        // single logical update the caller submitted.
        report.applied -= split_updates;
        report.inserted -= split_updates.min(report.inserted);
        report.deleted -= split_updates.min(report.deleted);
        report.updated += split_updates;
        Ok(AggregateTicket {
            parts: tickets,
            report,
        })
    }

    /// Single-op convenience: insert a point object.
    pub fn insert(&self, oid: ObjectId, position: Point) -> ShardResult<AggregateTicket> {
        let mut b = Batch::new();
        b.insert(oid, position);
        self.apply(&b)
    }

    /// Single-op convenience: insert an object with a rect extent.
    pub fn insert_rect(&self, oid: ObjectId, rect: Rect) -> ShardResult<AggregateTicket> {
        let mut b = Batch::new();
        b.insert_rect(oid, rect);
        self.apply(&b)
    }

    /// Single-op convenience: move an object.
    pub fn update(&self, oid: ObjectId, old: Point, new: Point) -> ShardResult<AggregateTicket> {
        let mut b = Batch::new();
        b.update(oid, old, new);
        self.apply(&b)
    }

    /// Single-op convenience: delete an object.
    pub fn delete(&self, oid: ObjectId, position: Point) -> ShardResult<AggregateTicket> {
        let mut b = Batch::new();
        b.delete(oid, position);
        self.apply(&b)
    }

    /// Track the largest half-extent ever inserted so window queries
    /// know how far to expand before decomposition. Grows rarely (point
    /// workloads never grow it); persisted *before* the batch applies
    /// so a crash cannot leave an under-estimating manifest.
    fn grow_slack_for(&self, ops: &[Op]) -> ShardResult<()> {
        let mut need = (0.0f32, 0.0f32);
        for op in ops {
            if let Op::Insert { rect, .. } = op {
                need.0 = need.0.max(rect.width() / 2.0);
                need.1 = need.1.max(rect.height() / 2.0);
            }
        }
        if need == (0.0, 0.0) {
            return Ok(());
        }
        let state = self.inner.state.read();
        if state.slack.0 >= need.0 && state.slack.1 >= need.1 {
            return Ok(());
        }
        drop(state);
        let mut state = self.inner.state.write();
        state.slack.0 = state.slack.0.max(need.0);
        state.slack.1 = state.slack.1.max(need.1);
        self.persist_state(&state)
    }

    // ---- reads -----------------------------------------------------------

    /// Window query: decompose the window into Hilbert ranges, scatter
    /// to the shards owning an overlapping range, gather through their
    /// cursors. The per-shard buffers are recycled exactly as on an
    /// unsharded [`Bur::query`].
    pub fn query(&self, window: &Rect) -> ShardResult<ScatterQuery> {
        let state = self.inner.state.read();
        let guard = self.register_reader(&state);
        let expanded = expand_window(window, state.slack);
        let ranges = hilbert_ranges(&expanded, self.inner.order, self.inner.budget);
        let shards = state.map.shards_overlapping(&ranges);
        let dedup = state.map.pending_overlaps(&ranges);
        drop(state);
        let mut cursors = Vec::with_capacity(shards.len());
        for s in shards {
            let cursor = self.inner.shards[s as usize]
                .query(window)
                .map_err(|source| ShardError::Shard { shard: s, source })?;
            cursors.push(cursor);
        }
        // The cursors materialized their results above; the reader
        // guard has done its job (no delete phase ran mid-scatter).
        drop(guard);
        Ok(ScatterQuery {
            cursors,
            current: 0,
            dedup: dedup.then(HashSet::new),
        })
    }

    /// k-nearest-neighbor query merged across shards, closest first.
    /// Shards whose root MBR cannot beat the current k-th candidate are
    /// never read (distance-pruned admission).
    pub fn nearest(&self, query: Point, k: usize) -> ShardResult<MergedNeighbors> {
        let state = self.inner.state.read();
        let guard = self.register_reader(&state);
        let dedup = state.map.pending().is_some();
        drop(state);
        let mut pending = Vec::with_capacity(self.inner.shards.len());
        for (i, shard) in self.inner.shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let bounds = shard.bounds().map_err(|source| ShardError::Shard {
                shard: i as u32,
                source,
            })?;
            pending.push((bounds.distance_to_point(&query), i as u32));
        }
        // Sorted descending so the nearest shard pops off the end first.
        pending.sort_by(|a, b| b.0.total_cmp(&a.0));
        Ok(MergedNeighbors {
            inner: Arc::clone(&self.inner),
            query,
            k,
            emitted: 0,
            pending,
            cursors: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            dedup: dedup.then(HashSet::new),
            error: None,
            _guard: guard,
        })
    }

    fn register_reader(&self, state: &MapState) -> ReaderGuard {
        let slot = (state.epoch & 1) as usize;
        self.inner.readers[slot].fetch_add(1, Ordering::AcqRel);
        ReaderGuard {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    // ---- migration -------------------------------------------------------

    /// Move every object whose routing key falls in `[lo, hi)` from its
    /// current owner to shard `to`, then re-point the routing map.
    ///
    /// The range must currently be owned entirely by one shard. Writes
    /// into the range wait until the move completes; reads stay live
    /// throughout (overlapping reads scatter to both sides and dedup).
    /// With a manifest attached the move is all-or-nothing across
    /// crashes: an interrupted copy rolls back on reopen, an
    /// interrupted cleanup rolls forward, and in neither case is an
    /// acked write lost. Only objects move: no per-client write state
    /// lives in a shard, so there is nothing else to hand over.
    pub fn migrate_range(&self, lo: u64, hi: u64, to: u32) -> ShardResult<MigrationReport> {
        let shard_count = self.inner.shards.len() as u32;
        if to >= shard_count {
            return Err(ShardError::Config(format!(
                "target shard {to} out of range (have {shard_count})"
            )));
        }
        // Phase A — declare intent under the write lock: freeze writes
        // into the range, bump the migration epoch, persist the intent.
        let (from, epoch, old_parity) = {
            let mut state = self.inner.state.write();
            if state.map.pending().is_some() {
                return Err(ShardError::Config("a migration is already running".into()));
            }
            if lo >= hi || hi > state.map.key_space() {
                return Err(ShardError::Config(format!(
                    "key range [{lo}, {hi}) invalid for this curve"
                )));
            }
            let from = state.map.owner(lo);
            if !state.map.owned_entirely_by(lo, hi, from) {
                return Err(ShardError::Config(format!(
                    "key range [{lo}, {hi}) spans more than one shard"
                )));
            }
            if from == to {
                return Ok(MigrationReport {
                    moved: 0,
                    from,
                    to,
                    epoch: state.epoch,
                });
            }
            let old_parity = (state.epoch & 1) as usize;
            state.epoch += 1;
            state.map.set_pending(Some(Migration {
                lo,
                hi,
                from,
                to,
                flipped: false,
            }));
            self.persist_state(&state)?;
            (from, state.epoch, old_parity)
        };

        // Drain routed-but-unapplied writes planned under the old
        // parity: their splits predate the freeze, so the copy scan must
        // wait until they have reached their shards.
        while self.inner.writers[old_parity].load(Ordering::Acquire) > 0 {
            std::thread::sleep(FREEZE_BACKOFF);
        }

        // Phase B — copy. The range is write-frozen, so one scan sees
        // every object; inserts ride ordinary group-commit batches on
        // the target and are acked durable before the flip.
        let run = || -> ShardResult<u64> {
            let entries = self.collect_range_entries(from, lo, hi)?;
            let moved = entries.len() as u64;
            self.apply_chunked(to, &entries, true)?;

            // Phase C — flip ownership; persisting the commit record is
            // THE commit point of the whole migration.
            {
                let mut state = self.inner.state.write();
                state.map.assign(lo, hi, to);
                state.map.set_pending(Some(Migration {
                    lo,
                    hi,
                    from,
                    to,
                    flipped: true,
                }));
                self.persist_state(&state)?;
            }

            // Drain readers that planned their scatter before the
            // migration began: they may be reading the source without
            // dedup protection, so the delete must wait them out.
            while self.inner.readers[old_parity].load(Ordering::Acquire) > 0 {
                std::thread::sleep(FREEZE_BACKOFF);
            }

            // Phase D — delete the moved objects from the donor, then
            // clear the migration record.
            self.apply_chunked(from, &entries, false)?;
            {
                let mut state = self.inner.state.write();
                state.map.set_pending(None);
                self.persist_state(&state)?;
            }
            Ok(moved)
        };
        match run() {
            Ok(moved) => Ok(MigrationReport {
                moved,
                from,
                to,
                epoch,
            }),
            Err(e) => {
                // A mid-flight failure (not a crash) leaves the pending
                // record set and writes frozen; surface the error — the
                // manifest recovery path on reopen makes it whole.
                Err(e)
            }
        }
    }

    /// Finish (or undo) a migration the manifest says was interrupted.
    fn recover_migration(&self, m: Migration) -> ShardResult<()> {
        if m.flipped {
            // Committed: the map already names the new owner. Re-run
            // the idempotent delete-from-source.
            let entries = self.collect_range_entries(m.from, m.lo, m.hi)?;
            self.apply_chunked(m.from, &entries, false)?;
        } else {
            // Intent only: ownership never flipped. Remove whatever was
            // copied to the target; the source still has everything.
            let entries = self.collect_range_entries(m.to, m.lo, m.hi)?;
            self.apply_chunked(m.to, &entries, false)?;
        }
        let mut state = self.inner.state.write();
        state.map.set_pending(None);
        self.persist_state(&state)
    }

    /// Every leaf entry on `shard` whose routing key is in `[lo, hi)`.
    fn collect_range_entries(
        &self,
        shard: u32,
        lo: u64,
        hi: u64,
    ) -> ShardResult<Vec<(ObjectId, Rect)>> {
        let order = self.inner.order;
        let everything = Rect::new(
            -f32::MAX / 2.0,
            -f32::MAX / 2.0,
            f32::MAX / 2.0,
            f32::MAX / 2.0,
        );
        let entries = self.inner.shards[shard as usize]
            .with_index(|ix| ix.query_entries(&everything))
            .map_err(|source| ShardError::Shard { shard, source })?;
        Ok(entries
            .into_iter()
            .filter(|e| {
                let key = hilbert_key(e.rect.center(), order);
                lo <= key && key < hi
            })
            .map(|e| (e.oid, e.rect))
            .collect())
    }

    /// Bulk-apply `entries` to `shard` in group-commit chunks: inserts
    /// when `insert` is true, deletes otherwise. Deletes that find
    /// nothing are fine (recovery replays are idempotent). A shard's
    /// `apply` returns once its chunk is durable.
    fn apply_chunked(
        &self,
        shard: u32,
        entries: &[(ObjectId, Rect)],
        insert: bool,
    ) -> ShardResult<()> {
        let bur = &self.inner.shards[shard as usize];
        for chunk in entries.chunks(MIGRATE_CHUNK) {
            let mut batch = Batch::with_capacity(chunk.len());
            for (oid, rect) in chunk {
                if insert {
                    batch.insert_rect(*oid, *rect);
                } else {
                    batch.delete(*oid, rect.center());
                }
            }
            bur.apply(&batch)
                .map_err(|source| ShardError::Shard { shard, source })?;
        }
        Ok(())
    }

    /// One rebalance step: if the most loaded shard holds ≥ 20% more
    /// than the mean, carve roughly half its surplus (as a contiguous
    /// key range) off to the least loaded shard. Returns `None` when
    /// the index is already balanced. Call in a loop to converge.
    pub fn rebalance_step(&self) -> ShardResult<Option<MigrationReport>> {
        let lens: Vec<u64> = self.inner.shards.iter().map(Bur::len).collect();
        let total: u64 = lens.iter().sum();
        if total == 0 {
            return Ok(None);
        }
        let mean = total as f64 / lens.len() as f64;
        let (donor, &donor_len) = lens
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .expect("non-empty");
        let (recipient, &recipient_len) = lens
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .expect("non-empty");
        if donor == recipient || (donor_len as f64) <= mean * 1.2 {
            return Ok(None);
        }
        let donor = donor as u32;
        // Pick the donor's busiest segment and move its low half.
        let (seg_lo, seg_hi) = {
            let state = self.inner.state.read();
            if state.map.pending().is_some() {
                return Err(ShardError::Config("a migration is already running".into()));
            }
            let segments = state.map.segments().to_vec();
            let key_space = state.map.key_space();
            let mut best: Option<(u64, u64)> = None;
            let mut best_count = 0u64;
            for (i, seg) in segments.iter().enumerate() {
                if seg.shard != donor {
                    continue;
                }
                let end = segments.get(i + 1).map_or(key_space, |n| n.start);
                let count = self.collect_range_entries(donor, seg.start, end)?.len() as u64;
                if count > best_count {
                    best_count = count;
                    best = Some((seg.start, end));
                }
            }
            match best {
                Some(range) if best_count > 1 => range,
                _ => return Ok(None),
            }
        };
        let mut keys: Vec<u64> = self
            .collect_range_entries(donor, seg_lo, seg_hi)?
            .iter()
            .map(|(_, rect)| hilbert_key(rect.center(), self.inner.order))
            .collect();
        keys.sort_unstable();
        let surplus = ((donor_len - recipient_len) / 2).max(1) as usize;
        let take = surplus.min(keys.len().saturating_sub(1)).max(1);
        let split = keys[take - 1] + 1;
        if split >= seg_hi {
            return Ok(None);
        }
        self.migrate_range(seg_lo, split, recipient as u32)
            .map(Some)
    }

    // ---- maintenance / introspection -------------------------------------

    /// Objects across all shards.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.inner.shards.iter().map(Bur::len).sum()
    }

    /// `true` when no shard holds anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(Bur::is_empty)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Direct handle to shard `i` (diagnostics, serving integration).
    #[must_use]
    pub fn shard(&self, i: usize) -> &Bur {
        &self.inner.shards[i]
    }

    /// Hilbert curve order used for routing.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.inner.order
    }

    /// Window-decomposition budget used for scatter planning.
    #[must_use]
    pub fn scatter_budget(&self) -> usize {
        self.inner.budget
    }

    /// Migration generation counter.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.state.read().epoch
    }

    /// Snapshot of the routing segments (sorted by key).
    #[must_use]
    pub fn segments(&self) -> Vec<Segment> {
        self.inner.state.read().map.segments().to_vec()
    }

    /// Whether every shard write-ahead-logs its updates.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.inner.shards.iter().all(Bur::is_durable)
    }

    /// Checkpoint every shard: each is flushed to its file and can be
    /// reopened from it.
    pub fn checkpoint(&self) -> ShardResult<()> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.checkpoint().map_err(|source| ShardError::Shard {
                shard: i as u32,
                source,
            })?;
        }
        Ok(())
    }

    /// Load/shape snapshot across shards.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        let shards: Vec<ShardLoad> = self
            .inner
            .shards
            .iter()
            .map(|b| ShardLoad {
                len: b.len(),
                height: b.height(),
            })
            .collect();
        let total: u64 = shards.iter().map(|s| s.len).sum();
        let max = shards.iter().map(|s| s.len).max().unwrap_or(0);
        let imbalance = if total == 0 {
            1.0
        } else {
            max as f64 / (total as f64 / shards.len() as f64)
        };
        let state = self.inner.state.read();
        ShardStats {
            shards,
            imbalance,
            epoch: state.epoch,
            segments: state.map.segments().len(),
            migrating: state.map.pending().is_some(),
        }
    }
}

/// Shard `shard`'s file of the sharded index `name` in `dir`.
fn shard_file(dir: &Path, name: &str, shard: u32) -> PathBuf {
    dir.join(format!("{name}.s{shard}.bur"))
}

/// The routing manifest of the sharded index `name` in `dir`.
fn manifest_file(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.shardmap"))
}

/// Expand a query window by the index's extent slack so rect objects
/// whose center lies outside the window still land in the scatter set.
fn expand_window(window: &Rect, slack: (f32, f32)) -> Rect {
    if slack == (0.0, 0.0) {
        *window
    } else {
        Rect::new(
            window.min_x - slack.0,
            window.min_y - slack.1,
            window.max_x + slack.0,
            window.max_y + slack.1,
        )
    }
}

/// Whether any op in `ops` routes a key into `[lo, hi)`.
fn ops_touch_range(ops: &[Op], order: u32, lo: u64, hi: u64) -> bool {
    let in_range = |p: Point| {
        let k = hilbert_key(p, order);
        lo <= k && k < hi
    };
    ops.iter().any(|op| match op {
        Op::Insert { rect, .. } => in_range(rect.center()),
        Op::Update { old, new, .. } => in_range(*old) || in_range(*new),
        Op::Delete { position, .. } => in_range(*position),
    })
}

/// The routing split (see [`ShardedBur::split_ops`]).
fn split_ops_with(map: &RangeMap, order: u32, ops: &[Op]) -> (Vec<(u32, Batch)>, u64) {
    let mut parts: Vec<(u32, Batch)> = Vec::new();
    let mut split_updates = 0u64;
    let push = |parts: &mut Vec<(u32, Batch)>, shard: u32, op: Op| match parts
        .iter_mut()
        .find(|(s, _)| *s == shard)
    {
        Some((_, batch)) => {
            batch.push(op);
        }
        None => {
            let mut batch = Batch::new();
            batch.push(op);
            parts.push((shard, batch));
        }
    };
    for op in ops {
        match *op {
            Op::Insert { rect, .. } => {
                let shard = map.owner(hilbert_key(rect.center(), order));
                push(&mut parts, shard, *op);
            }
            Op::Delete { position, .. } => {
                let shard = map.owner(hilbert_key(position, order));
                push(&mut parts, shard, *op);
            }
            Op::Update { oid, old, new } => {
                let s_old = map.owner(hilbert_key(old, order));
                let s_new = map.owner(hilbert_key(new, order));
                if s_old == s_new {
                    push(&mut parts, s_old, *op);
                } else {
                    split_updates += 1;
                    push(&mut parts, s_old, Op::Delete { oid, position: old });
                    push(
                        &mut parts,
                        s_new,
                        Op::Insert {
                            oid,
                            rect: Rect::from_point(new),
                        },
                    );
                }
            }
        }
    }
    (parts, split_updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Two volatile shards; a point near (0, 0) routes to shard 0, one
    /// near (1, 0) to shard 1.
    fn two_shards() -> ShardedBur {
        let shards = (0..2)
            .map(|_| IndexBuilder::generalized().build().expect("shard"))
            .collect();
        let sharded = ShardedBur::from_shards(shards).expect("sharded");
        assert_eq!(sharded.route_point(NEAR), 0);
        assert_eq!(sharded.route_point(FAR), 1);
        sharded
    }

    const NEAR: Point = Point::new(0.001, 0.002);
    const FAR: Point = Point::new(0.999, 0.002);

    /// Run `write` while a thread of its own holds shard 0's structure
    /// lock, calling `while_held` before the hold is released. The hold
    /// ends when its sender drops, so a failing `while_held` releases it
    /// too and the scope can join the writer.
    fn with_shard_0_held(
        sharded: &ShardedBur,
        write: impl FnOnce() -> ShardResult<AggregateTicket> + Send,
        while_held: impl FnOnce(),
    ) {
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let release = release_tx;
            let shard_0 = sharded.shard(0);
            let holder = scope.spawn(move || {
                shard_0.with_index_mut(|_| {
                    held_tx.send(()).expect("held");
                    let _ = release_rx.recv();
                });
            });
            held_rx.recv().expect("the hold begins");
            let writer = scope.spawn(write);
            while_held();
            drop(release);
            holder.join().expect("holder");
            let ticket = writer.join().expect("writer").expect("applied");
            ticket.wait().expect("durable");
        });
    }

    #[test]
    fn a_split_update_leaves_its_second_shard_untouched_while_its_first_is_held() {
        let sharded = two_shards();
        sharded.insert(7, NEAR).expect("seed");
        // Object 7 moves from shard 0 to shard 1: a delete there first,
        // then an insert here.
        with_shard_0_held(
            &sharded,
            || sharded.update(7, NEAR, FAR),
            || {
                // The insert may apply only once the held delete has;
                // the pause gives a write that applies it early the
                // time to show.
                std::thread::sleep(Duration::from_millis(100));
                assert_eq!(sharded.shard(1).len(), 0, "shard 1 untouched");
            },
        );
        assert_eq!(sharded.shard(0).len(), 0);
        assert_eq!(sharded.shard(1).len(), 1);
    }

    #[test]
    fn independent_parts_apply_while_another_shard_is_held() {
        let sharded = two_shards();
        let mut batch = Batch::new();
        batch.insert(1, NEAR).insert(2, FAR);
        with_shard_0_held(
            &sharded,
            || sharded.apply(&batch),
            || {
                let give_up = Instant::now() + Duration::from_secs(10);
                while sharded.shard(1).is_empty() {
                    assert!(Instant::now() < give_up, "shard 1's part never landed");
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        );
        assert_eq!(sharded.len(), 2);
    }

    #[test]
    fn a_failed_wait_still_waits_for_every_submitted_part() {
        let sharded = two_shards();
        let routed = sharded
            .route_for_write(&[
                Op::Insert {
                    oid: 1,
                    rect: Rect::from_point(NEAR),
                },
                Op::Insert {
                    oid: 2,
                    rect: Rect::from_point(FAR),
                },
            ])
            .expect("routed");
        assert_eq!(routed.parts().len(), 2, "independent parts on two shards");
        let parity = (sharded.epoch() & 1) as usize;
        let registered = || sharded.inner.writers[parity].load(Ordering::Acquire);
        let submitted = Cell::new(0);
        let mut waited = Vec::new();
        let result = routed.fan_out(
            |shard, _| {
                submitted.set(submitted.get() + 1);
                Ok::<_, String>(shard)
            },
            |shard| {
                assert_eq!(submitted.get(), 2, "every part submitted before any wait");
                assert!(
                    registered() > 0,
                    "registration held while part {shard} is waited for"
                );
                waited.push(shard);
                if shard == 0 {
                    Err(format!("part {shard} failed"))
                } else {
                    Ok(shard)
                }
            },
        );
        assert_eq!(result, Err("part 0 failed".to_string()));
        assert_eq!(
            waited,
            [0, 1],
            "the second part waited for past the failure"
        );
        assert_eq!(registered(), 0, "registration dropped once fan_out returns");
    }
}
