//! The disk-resident R-tree engine.
//!
//! This module implements Guttman's R-tree (insert with ChooseLeaf /
//! AdjustTree and quadratic split, delete with FindLeaf / CondenseTree and
//! forced reinsertion of orphaned entries, window queries) on top of the
//! buffer pool, together with the maintenance hooks the bottom-up
//! strategies rely on:
//!
//! * the **summary structure** is refreshed on every internal-node write
//!   and every leaf write (fullness bit),
//! * the **object-id hash index** is kept pointing at the current leaf of
//!   every object whenever entries move between leaves,
//! * **leaf parent pointers** (LBU mode) are rewritten when leaves are
//!   re-homed by splits or reinsertion — the maintenance cost the paper
//!   attributes to LBU.
//!
//! One representation decision matters for the bottom-up algorithms: a
//! leaf's *official* MBR is the rectangle stored in its parent's entry.
//! The leaf page itself only stores object rectangles, so the official
//! MBR may be larger than their tight union after an ε-extension. All
//! structural invariants therefore require *containment* (parent entry
//! rect ⊇ child content), not equality; deletes re-tighten rectangles as
//! they adjust the path.

use crate::claims::LeafClaims;
use crate::config::{IndexOptions, TreeVariant, WalOptions};
use crate::error::{CoreError, CoreResult};
use crate::meta::{self, MetaSnapshot};
use crate::node::{
    internal_capacity, leaf_capacity, InternalEntry, LeafEntry, Node, NodeEntries, ObjectId,
};
use crate::pins::{PinSet, PinnedNode};
use crate::split;
use crate::stats::OpStats;
use crate::summary::SummaryStructure;
use bur_geom::{Point, Rect};
use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_storage::{BufferPool, Lsn, PageId, PageRef, INVALID_PAGE};
use bur_wal::Wal;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimum node fill as a fraction of capacity (Guttman's `m`): a
/// delete below it triggers CondenseTree, and a split leaves at least
/// this much in each half.
const MIN_FILL: f32 = 0.4;

/// A live write-ahead log attached to the tree ([`crate::Durability::Wal`]).
pub(crate) struct WalHandle {
    /// The log itself.
    pub(crate) wal: Wal,
    /// Checkpoint interval.
    pub(crate) opts: WalOptions,
    /// Committed operations since the last checkpoint (drives the
    /// cadence). Atomic because concurrent leaf-local batches bump it
    /// through a shared reference ([`RTree::wal_commit_pages`]).
    pub(crate) commits_since_checkpoint: AtomicU64,
    /// Serializes concurrent group commits: a batch's page images and
    /// its commit record must land contiguously in the log, so another
    /// batch's record cannot slip between a page image and the record
    /// that covers it (see [`RTree::wal_commit_pages`]).
    pub(crate) commit_lock: Mutex<()>,
}

impl WalHandle {
    /// Wrap a log with fresh bookkeeping (cadence at 0).
    pub(crate) fn new(wal: Wal, opts: WalOptions) -> Self {
        Self {
            wal,
            opts,
            commits_since_checkpoint: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
        }
    }
}

/// An entry being inserted: either an object (into a leaf) or a whole
/// subtree (an internal entry re-inserted by CondenseTree or carried by a
/// GBU ascent insert).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyEntry {
    /// Object entry; target node level 0.
    Leaf(LeafEntry),
    /// Subtree entry whose child node sits at `child_level`; target node
    /// level `child_level + 1`.
    Node(InternalEntry, u16),
}

impl AnyEntry {
    fn rect(&self) -> Rect {
        match self {
            AnyEntry::Leaf(e) => e.rect,
            AnyEntry::Node(e, _) => e.rect,
        }
    }

    fn target_level(&self) -> u16 {
        match self {
            AnyEntry::Leaf(_) => 0,
            AnyEntry::Node(_, child_level) => child_level + 1,
        }
    }
}

/// The R-tree plus its auxiliary structures.
pub(crate) struct RTree {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) opts: IndexOptions,
    pub(crate) root: PageId,
    /// Number of levels (1 = the root is a leaf).
    pub(crate) height: u16,
    /// Number of indexed objects.
    pub(crate) len: u64,
    /// Pages freed by CondenseTree, reused before fresh allocation.
    pub(crate) free_pages: Vec<PageId>,
    /// GBU's main-memory summary structure.
    pub(crate) summary: Option<SummaryStructure>,
    /// Secondary object-id index (LBU + GBU). Shared so an operation's
    /// hash probe can outlive a `&mut self` borrow (see [`PinSet`]).
    pub(crate) hash: Option<Arc<LinearHashIndex>>,
    /// Operation counters.
    pub(crate) stats: OpStats,
    /// Entries evicted by R* forced reinsertion, re-inserted from the
    /// root when the outermost insert finishes. Closest-to-center entries
    /// sit at the top of the stack ("close reinsert").
    pub(crate) pending_reinserts: Vec<AnyEntry>,
    /// Bitmask of levels already treated by forced reinsertion during the
    /// current outermost insert (R* OverflowTreatment fires once per
    /// level per insertion; later overflows at that level split).
    pub(crate) reinsert_armed: u32,
    /// Reentrancy guard: `true` while an insert operation is running, so
    /// nested inserts (reinsert drains) do not reset the armed mask.
    pub(crate) insert_active: bool,
    /// Write-ahead log, when the index is durable.
    pub(crate) wal: Option<WalHandle>,
    /// Pages owned by the on-disk metadata continuation chain (plus
    /// spares); recycled by every persist/checkpoint instead of leaking.
    pub(crate) meta_chain_pages: Vec<PageId>,
    /// One claim bit per page for the shared write path, covering every
    /// page the tree can name: sized wherever a tree comes to exist and
    /// grown by [`RTree::alloc_page`].
    pub(crate) claims: LeafClaims,
}

impl RTree {
    /// Create an empty tree (root = empty leaf) over `pool`.
    pub(crate) fn create(pool: Arc<BufferPool>, opts: IndexOptions) -> CoreResult<Self> {
        opts.validate()?;
        let hash = if opts.strategy.needs_hash_index() {
            Some(Arc::new(LinearHashIndex::create(
                pool.clone(),
                HashIndexConfig::default(),
            )?))
        } else {
            None
        };
        let summary = opts.strategy.needs_summary().then(SummaryStructure::new);
        let (root, guard) = pool.new_page()?;
        Node::new_leaf().encode(&mut guard.write());
        drop(guard);
        let mut tree = Self {
            pool,
            opts,
            root,
            height: 1,
            len: 0,
            free_pages: Vec::new(),
            summary,
            hash,
            stats: OpStats::default(),
            pending_reinserts: Vec::new(),
            reinsert_armed: 0,
            insert_active: false,
            wal: None,
            meta_chain_pages: Vec::new(),
            claims: LeafClaims::covering(root as usize + 1),
        };
        if let Some(s) = &mut tree.summary {
            s.set_leaf(root, false);
            s.set_root_mbr(Rect::EMPTY);
        }
        Ok(tree)
    }

    // ---- capacities -------------------------------------------------------

    pub(crate) fn leaf_cap(&self) -> usize {
        leaf_capacity(self.opts.page_size)
    }

    pub(crate) fn internal_cap(&self) -> usize {
        internal_capacity(self.opts.page_size)
    }

    pub(crate) fn min_fill_leaf(&self) -> usize {
        ((self.leaf_cap() as f32 * MIN_FILL) as usize).max(1)
    }

    pub(crate) fn min_fill_internal(&self) -> usize {
        ((self.internal_cap() as f32 * MIN_FILL) as usize).max(1)
    }

    fn parent_pointers(&self) -> bool {
        self.opts.strategy.needs_parent_pointers()
    }

    /// Root node level.
    pub(crate) fn root_level(&self) -> u16 {
        self.height - 1
    }

    // ---- node I/O ----------------------------------------------------------

    /// Read and decode the node on `pid`.
    pub(crate) fn read_node(&self, pid: PageId) -> CoreResult<Node> {
        let guard = self.pool.fetch(pid)?;
        let data = guard.read();
        Node::decode(pid, &data)
    }

    /// Re-encode a pinned node through its own pin, mark it written for
    /// the commit and refresh the summary hooks: the write half of a
    /// pinned read-modify-write (no pool fetch).
    pub(crate) fn write_pinned(&mut self, pinned: &mut PinnedNode<'_>) {
        pinned.node.encode(&mut pinned.page.write());
        pinned.written = true;
        self.note_written(pinned.pid(), &pinned.node);
    }

    /// [`RTree::write_pinned`], then check the node back into the
    /// batch's pin set.
    fn write_back<'p>(&mut self, ops: &mut PinSet<'p>, mut node: PinnedNode<'p>) {
        self.write_pinned(&mut node);
        ops.put(node);
    }

    /// Write `node` to the freshly allocated page `pid` — blind, the page
    /// was never read — and leave it checked in: the rest of the batch
    /// (say, the next orphan re-inserted into a split's new half) finds
    /// it there.
    fn write_new(&mut self, ops: &mut PinSet<'_>, pid: PageId, node: Node) -> CoreResult<()> {
        let node = ops.put_new(pid, node)?;
        self.note_written(pid, node);
        Ok(())
    }

    /// Encode and write `node` to `pid`, refreshing the summary hooks. A
    /// blind full-page write outside any operation's pin set: the bulk
    /// loader's nodes.
    pub(crate) fn write_node(&mut self, pid: PageId, node: &Node) -> CoreResult<()> {
        let guard = self.pool.fetch_for_overwrite(pid)?;
        node.encode(&mut guard.write());
        drop(guard);
        self.note_written(pid, node);
        Ok(())
    }

    /// Summary maintenance after `node` was written to `pid`.
    fn note_written(&mut self, pid: PageId, node: &Node) {
        if let Some(s) = &mut self.summary {
            match &node.entries {
                NodeEntries::Leaf(v) => {
                    s.set_leaf(pid, v.len() >= leaf_capacity(self.opts.page_size));
                }
                NodeEntries::Internal(v) => {
                    s.upsert_internal(pid, node.level, node.mbr(), v.iter().map(|e| e.child));
                }
            }
            if pid == self.root {
                s.set_root_mbr(node.mbr());
            }
        }
    }

    pub(crate) fn alloc_page(&mut self) -> CoreResult<PageId> {
        if let Some(pid) = self.free_pages.pop() {
            return Ok(pid);
        }
        let (pid, guard) = self.pool.new_page()?;
        drop(guard);
        self.claims.cover(pid as usize + 1);
        Ok(pid)
    }

    /// Free the page of `node`, which leaves the batch's pin set with it:
    /// a later [`RTree::alloc_page`] of the same id finds no copy there.
    fn free_page<'p>(&mut self, ops: &mut PinSet<'p>, node: PinnedNode<'p>) {
        let pid = node.pid();
        self.free_pages.push(pid);
        if let Some(s) = &mut self.summary {
            if node.is_leaf() {
                s.remove_leaf(pid);
            } else {
                s.remove_internal(pid);
            }
        }
        ops.let_go(node);
    }

    /// Rewrite only the parent pointer of a node (LBU maintenance; one
    /// read + one write per re-homed child, through one pin).
    pub(crate) fn set_parent_pointer(
        &mut self,
        ops: &mut PinSet<'_>,
        pid: PageId,
        parent: PageId,
    ) -> CoreResult<()> {
        let mut node = ops.take(pid)?;
        if node.parent != parent {
            node.parent = parent;
            self.write_pinned(&mut node);
        }
        ops.put(node);
        Ok(())
    }

    /// Point the leaves listed in `children` at `parent`, outside any
    /// batch (bulk loads, rebuilding LBU's pointers after a reopen).
    pub(crate) fn adopt_leaves(
        &self,
        children: &[InternalEntry],
        parent: PageId,
    ) -> CoreResult<()> {
        for e in children {
            let page = self.pool.fetch(e.child)?;
            let mut node = Node::decode(e.child, &page.read())?;
            if node.parent != parent {
                node.parent = parent;
                node.encode(&mut page.write());
            }
        }
        Ok(())
    }

    /// Update the hash index after `oid` moved to `leaf`, outside any
    /// operation (the bulk loader).
    pub(crate) fn hash_place(&mut self, oid: ObjectId, leaf: PageId) -> CoreResult<()> {
        if let Some(h) = &self.hash {
            h.insert(oid, leaf)?;
        }
        Ok(())
    }

    // ---- write-ahead logging -------------------------------------------------

    /// Current metadata snapshot; `hash_head` is [`INVALID_PAGE`] unless
    /// the hash directory was just persisted.
    pub(crate) fn meta_snapshot(&self, hash_head: PageId) -> MetaSnapshot {
        MetaSnapshot {
            page_size: self.opts.page_size,
            root: self.root,
            height: self.height,
            len: self.len,
            hash_head,
            free_pages: self.free_pages.clone(),
            wal_anchor: self.wal.as_ref().map_or(INVALID_PAGE, |h| h.wal.anchor()),
        }
    }

    /// Group-commit `ops` applied operations under one record: an image
    /// or delta of every page in `pages` (read through its pin — no copy),
    /// then a commit record carrying the metadata snapshot, and a log
    /// sync. Returns the LSN covering the ops: the record's, the log's
    /// last when `ops` is 0 (nothing changed, nothing is logged), 0
    /// without a WAL. Never checkpoints — callers check
    /// [`RTree::checkpoint_due`].
    ///
    /// The one commit function of both write paths, and both feed it the
    /// pins their batch holds: the exclusive engine every page the pool
    /// saw touched since the last commit, in ascending order, each
    /// through the pin its batch kept (fetched only when it was left
    /// touched by an earlier commit that failed); the shared path its
    /// batch's own pinned pages. It takes `&self`, so batches on
    /// disjoint leaves commit while others are still applying, and
    /// `commit_lock` keeps each batch's pages and record contiguous. A
    /// shared batch's page set is complete because, while any such batch
    /// is in flight:
    ///
    /// * no operation changes `root`, `height`, the free list or the
    ///   object count (a shared batch only moves objects within their
    ///   leaves); and
    /// * every exclusive write has committed before it released the
    ///   structure lock's write side, so a touched page outside `pages`
    ///   belongs to another in-flight batch and its own record (the
    ///   no-steal gate keeps it off the disk until then). Only a failed
    ///   exclusive commit or first op leaves pages touched, gated, for
    ///   the next exclusive commit or checkpoint.
    ///
    /// A shared parent page may carry another in-flight batch's official
    /// -rect enlargement when it is imaged here. That is benign slack:
    /// enlargements are monotone and bounded by the parent node MBR, and
    /// the other batch's leaf write (the actual object move) is gated
    /// until its own commit record lands ("grow before move").
    pub(crate) fn wal_commit_pages<'p, P: Borrow<PageRef<'p>>>(
        &self,
        ops: u64,
        pages: impl IntoIterator<Item = CoreResult<P>>,
    ) -> CoreResult<Lsn> {
        let Some(handle) = self.wal.as_ref() else {
            return Ok(0);
        };
        if ops == 0 {
            return Ok(handle.wal.last_lsn());
        }
        let _serial = handle.commit_lock.lock();
        for page in pages {
            let page = page?;
            let pid = page.borrow().pid();
            let lsn = handle.wal.append_page(pid, &page.borrow().read())?;
            drop(page);
            self.pool.note_page_logged(pid, lsn);
        }
        let meta = self.meta_snapshot(INVALID_PAGE).encode();
        let lsn = handle.wal.commit(meta)?;
        self.pool.set_durable_lsn(lsn);
        handle
            .commits_since_checkpoint
            .fetch_add(ops, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Current object count.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the checkpoint cadence has been reached. Readable
    /// without exclusivity; callers on the shared path re-check under an
    /// exclusive lock before actually checkpointing.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.wal.as_ref().is_some_and(|h| {
            h.commits_since_checkpoint.load(Ordering::Relaxed) >= h.opts.checkpoint_every
        })
    }

    /// Fuzzy checkpoint: make the log durable, persist the hash
    /// directory and metadata chain (recycling the superseded chains'
    /// pages), flush every frame and sync the data disk (it becomes a
    /// complete base image), then rewind the log onto its own pages.
    /// That order is the whole two-file argument: the old generation
    /// stays replayable until the base image that supersedes it is on
    /// the platter, and this is the only place the data disk is synced —
    /// a commit syncs the log's disk and nothing else. No-op without a
    /// WAL.
    pub(crate) fn wal_checkpoint(&mut self) -> CoreResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let started = std::time::Instant::now();
        let writes_before = self.pool.stats().snapshot().writes;
        {
            let handle = self.wal.as_ref().expect("checked above");
            handle.wal.sync()?;
            self.pool.set_durable_lsn(handle.wal.durable_lsn());
        }
        let hash_head = match &self.hash {
            Some(h) => h.persist()?,
            None => INVALID_PAGE,
        };
        let payload = self.meta_snapshot(hash_head).encode();
        meta::write_meta_chain(&self.pool, &payload, &mut self.meta_chain_pages)?;
        // The metadata/hash-directory writes above are part of the new
        // base image, not of any commit: drop their gate state and flush.
        self.pool.wal_checkpoint_reset();
        self.pool.flush_all()?;
        let handle = self.wal.as_mut().expect("checked above");
        handle.wal.checkpoint_rewind(payload)?;
        handle.commits_since_checkpoint.store(0, Ordering::Relaxed);
        self.pool.set_durable_lsn(handle.wal.durable_lsn());
        handle.wal.note_checkpoint(
            started.elapsed(),
            self.pool.stats().snapshot().writes - writes_before,
        );
        Ok(())
    }

    // ---- insertion ----------------------------------------------------------

    /// Insert a new object from the root (Guttman Insert), as an operation
    /// of its own in the batch of `ops`.
    pub(crate) fn insert_object(
        &mut self,
        ops: &mut PinSet<'_>,
        entry: LeafEntry,
    ) -> CoreResult<()> {
        ops.track_own(entry.oid, None);
        self.insert_at_root(ops, entry)?;
        ops.settle()
    }

    /// Insert an object from the root within the operation `ops`.
    pub(crate) fn insert_at_root(
        &mut self,
        ops: &mut PinSet<'_>,
        entry: LeafEntry,
    ) -> CoreResult<()> {
        self.insert_from(ops, self.root, &[], AnyEntry::Leaf(entry))
    }

    /// Insert `entry` into the subtree rooted at `start`.
    ///
    /// `chain_above` lists `start`'s ancestors bottom-up (immediate parent
    /// first, root last); it is empty when `start` is the root. The chain
    /// is only touched when a split or an MBR change must propagate above
    /// `start` — the case GBU's ascent avoids by picking an ancestor that
    /// already contains the new location.
    ///
    /// In the R* variant, an overflow on the way down may queue
    /// evicted entries instead of splitting (forced reinsertion); the
    /// outermost call drains that queue by re-inserting from the root.
    pub(crate) fn insert_from(
        &mut self,
        ops: &mut PinSet<'_>,
        start: PageId,
        chain_above: &[PageId],
        entry: AnyEntry,
    ) -> CoreResult<()> {
        let outermost = !self.insert_active;
        if outermost {
            self.insert_active = true;
            self.reinsert_armed = 0;
        }
        let mut result = self.insert_from_inner(ops, start, chain_above, entry);
        if outermost {
            // Close reinsert: the queue is stacked closest-to-center on
            // top. Entries queued while draining are drained too; the
            // per-level armed mask bounds the recursion (later overflows
            // at a treated level split instead of re-queueing).
            while result.is_ok() {
                let Some(e) = self.pending_reinserts.pop() else {
                    break;
                };
                result = self.insert_from_inner(ops, self.root, &[], e);
            }
            if result.is_err() {
                self.pending_reinserts.clear();
            }
            self.insert_active = false;
        }
        result
    }

    fn insert_from_inner(
        &mut self,
        ops: &mut PinSet<'_>,
        start: PageId,
        chain_above: &[PageId],
        entry: AnyEntry,
    ) -> CoreResult<()> {
        let mut child_pid = start;
        let start = ops.take(start)?;
        let (old_mbr, new_mbr, split) = self.insert_rec(ops, start, entry)?;
        let mut child_mbr = new_mbr;
        let mut pending = split;
        let mut changed = old_mbr != new_mbr;
        for &anc in chain_above {
            if pending.is_none() && !changed {
                return Ok(());
            }
            let mut node = ops.take(anc)?;
            let idx = node.child_index(child_pid).ok_or(CoreError::CorruptNode {
                pid: anc,
                reason: "ancestor chain does not link to child",
            })?;
            let old_anc_mbr = node.mbr();
            // AdjustTree sets the entry to the child's exact MBR. This may
            // *shrink* a previously ε-extended official rect — deliberate:
            // the tight MBR covers every entry by construction, and
            // re-tightening on arrival is what keeps overlap from
            // ratcheting outward over millions of bottom-up updates.
            node.internal_entries_mut()[idx].rect = child_mbr;
            if let Some(e) = pending.take() {
                if self.parent_pointers() && node.level == 1 {
                    self.set_parent_pointer(ops, e.child, anc)?;
                }
                node.internal_entries_mut().push(e);
                if node.count() > self.internal_cap() {
                    let (mbr_a, sp) = self.handle_overflow(ops, node)?;
                    child_pid = anc;
                    child_mbr = mbr_a;
                    pending = sp;
                    changed = true;
                    continue;
                }
            }
            let new_anc_mbr = node.mbr();
            self.write_back(ops, node);
            child_pid = anc;
            child_mbr = new_anc_mbr;
            changed = old_anc_mbr != new_anc_mbr;
        }
        if let Some(e) = pending {
            self.grow_root(ops, child_pid, child_mbr, e)?;
        }
        Ok(())
    }

    /// Recursive descent: returns `(old mbr, new mbr, split entry)` of
    /// `node`. Every frame checks its node back into the pin set once it
    /// has rewritten it (or found nothing to rewrite).
    fn insert_rec<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        mut node: PinnedNode<'p>,
        entry: AnyEntry,
    ) -> CoreResult<(Rect, Rect, Option<InternalEntry>)> {
        let pid = node.pid();
        let old_mbr = node.mbr();
        let target = entry.target_level();
        debug_assert!(
            node.level >= target,
            "insert target level {target} above node level {}",
            node.level
        );
        if node.level == target {
            match entry {
                AnyEntry::Leaf(e) => {
                    node.leaf_entries_mut().push(e);
                    ops.place(e.oid, pid)?;
                }
                AnyEntry::Node(e, child_level) => {
                    if self.parent_pointers() && child_level == 0 {
                        self.set_parent_pointer(ops, e.child, pid)?;
                    }
                    node.internal_entries_mut().push(e);
                }
            }
            if node.count() <= node.capacity(self.opts.page_size) {
                let new_mbr = node.mbr();
                self.write_back(ops, node);
                Ok((old_mbr, new_mbr, None))
            } else {
                let (mbr_a, sp) = self.handle_overflow(ops, node)?;
                Ok((old_mbr, mbr_a, sp))
            }
        } else {
            let idx = self.choose_subtree(&node, &entry.rect());
            let child = ops.take(node.internal_entries()[idx].child)?;
            let (child_old, child_new, sp) = self.insert_rec(ops, child, entry)?;
            let rect_changed = child_old != child_new;
            if sp.is_none() && !rect_changed {
                // Nothing to adjust: the child absorbed the entry without
                // growing — the TD best case of a single write at the leaf.
                ops.put(node);
                return Ok((old_mbr, old_mbr, None));
            }
            // Exact child MBR (see the ancestor-chain comment above).
            node.internal_entries_mut()[idx].rect = child_new;
            if let Some(e) = sp {
                if self.parent_pointers() && node.level == 1 {
                    self.set_parent_pointer(ops, e.child, pid)?;
                }
                node.internal_entries_mut().push(e);
                if node.count() > self.internal_cap() {
                    let (mbr_a, sp2) = self.handle_overflow(ops, node)?;
                    return Ok((old_mbr, mbr_a, sp2));
                }
            }
            let new_mbr = node.mbr();
            self.write_back(ops, node);
            Ok((old_mbr, new_mbr, None))
        }
    }

    /// Pick the child subtree for an insertion. Guttman's R-tree uses the
    /// least-enlargement criterion everywhere; the R* variant switches to
    /// minimum *overlap* enlargement when choosing among the parents of
    /// leaves (Beckmann's ChooseSubtree).
    fn choose_subtree(&self, node: &Node, rect: &Rect) -> usize {
        match self.opts.variant {
            TreeVariant::RStar if node.level == 1 => Self::choose_subtree_min_overlap(node, rect),
            _ => Self::choose_subtree_guttman(node, rect),
        }
    }

    /// Guttman ChooseLeaf criterion: least enlargement, ties by smaller
    /// area.
    fn choose_subtree_guttman(node: &Node, rect: &Rect) -> usize {
        let entries = node.internal_entries();
        debug_assert!(!entries.is_empty());
        let mut best = 0;
        let mut best_enlarge = f32::INFINITY;
        let mut best_area = f32::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let enlarge = e.rect.enlargement(rect);
            let area = e.rect.area();
            if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                best = i;
                best_enlarge = enlarge;
                best_area = area;
            }
        }
        best
    }

    /// R* ChooseSubtree at the level above the leaves: the entry whose
    /// absorption of `rect` increases the summed overlap with its sibling
    /// entries the least; ties by area enlargement, then by area. O(n²)
    /// in the fanout — acceptable at our fanout of ~50, and only paid on
    /// one node per insertion.
    fn choose_subtree_min_overlap(node: &Node, rect: &Rect) -> usize {
        let entries = node.internal_entries();
        debug_assert!(!entries.is_empty());
        let mut best = 0;
        let mut best_key = (f32::INFINITY, f32::INFINITY, f32::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let expanded = e.rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, s) in entries.iter().enumerate() {
                if i != j {
                    overlap_delta +=
                        expanded.intersection_area(&s.rect) - e.rect.intersection_area(&s.rect);
                }
            }
            let key = (overlap_delta, e.rect.enlargement(rect), e.rect.area());
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// Fraction of an overflowing node's entries evicted by R* forced
    /// reinsertion (Beckmann's recommended p = 30 %).
    const RSTAR_REINSERT_FRACTION: f32 = 0.3;

    /// Resolve an overflow: R* forced reinsertion when eligible (non-root,
    /// first overflow at this level in the current insertion), a node
    /// split otherwise. Same return shape as [`RTree::split_node`]; the
    /// reinsertion arm reports no new sibling.
    fn handle_overflow<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        mut node: PinnedNode<'p>,
    ) -> CoreResult<(Rect, Option<InternalEntry>)> {
        let eligible = self.opts.variant == TreeVariant::RStar
            && node.pid() != self.root
            && node.level < 32
            && self.reinsert_armed & (1 << node.level) == 0;
        if !eligible {
            return self.split_node(ops, node);
        }
        self.reinsert_armed |= 1 << node.level;
        self.stats.forced_reinserts.fetch_add(1, Ordering::Relaxed);
        let center = node.mbr().center();
        let p = ((node.count() as f32) * Self::RSTAR_REINSERT_FRACTION).ceil() as usize;
        let p = p.clamp(1, node.count() - 1);
        // Sort by center distance ascending, evict the farthest p, and
        // stack them farthest-first so the drain pops closest-first
        // (Beckmann's "close reinsert").
        match &mut node.entries {
            NodeEntries::Leaf(v) => {
                v.sort_by(|a, b| {
                    a.rect
                        .center()
                        .distance_sq(&center)
                        .total_cmp(&b.rect.center().distance_sq(&center))
                });
                let evicted = v.split_off(v.len() - p);
                self.stats
                    .forced_reinserted_entries
                    .fetch_add(evicted.len() as u64, Ordering::Relaxed);
                self.pending_reinserts
                    .extend(evicted.into_iter().rev().map(AnyEntry::Leaf));
            }
            NodeEntries::Internal(v) => {
                v.sort_by(|a, b| {
                    a.rect
                        .center()
                        .distance_sq(&center)
                        .total_cmp(&b.rect.center().distance_sq(&center))
                });
                let evicted = v.split_off(v.len() - p);
                self.stats
                    .forced_reinserted_entries
                    .fetch_add(evicted.len() as u64, Ordering::Relaxed);
                let child_level = node.level - 1;
                self.pending_reinserts.extend(
                    evicted
                        .into_iter()
                        .rev()
                        .map(|e| AnyEntry::Node(e, child_level)),
                );
            }
        }
        let new_mbr = node.mbr();
        self.write_back(ops, node);
        Ok((new_mbr, None))
    }

    /// Split the overflowing `node` (already holding capacity + 1
    /// entries). Writes both halves — the surviving one through the pin
    /// it was read with, the new one blind — checks both in, and returns
    /// `(mbr of the surviving half, entry for the new half)`.
    fn split_node<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        node: PinnedNode<'p>,
    ) -> CoreResult<(Rect, Option<InternalEntry>)> {
        let PinnedNode {
            page,
            node,
            written,
        } = node;
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        let min_fill = if node.is_leaf() {
            self.min_fill_leaf()
        } else {
            self.min_fill_internal()
        };
        let new_pid = self.alloc_page()?;
        let (node_a, node_b) = match node.entries {
            NodeEntries::Leaf(entries) => {
                let rects: Vec<Rect> = entries.iter().map(|e| e.rect).collect();
                let (ga, gb) = split::split(&rects, min_fill, self.opts.variant);
                let a: Vec<LeafEntry> = ga.iter().map(|&i| entries[i]).collect();
                let b: Vec<LeafEntry> = gb.iter().map(|&i| entries[i]).collect();
                // Re-homed objects: point the hash index at the new leaf.
                for e in &b {
                    ops.place(e.oid, new_pid)?;
                }
                (
                    Node {
                        level: 0,
                        parent: node.parent,
                        entries: NodeEntries::Leaf(a),
                    },
                    Node {
                        level: 0,
                        parent: node.parent,
                        entries: NodeEntries::Leaf(b),
                    },
                )
            }
            NodeEntries::Internal(entries) => {
                let rects: Vec<Rect> = entries.iter().map(|e| e.rect).collect();
                let (ga, gb) = split::split(&rects, min_fill, self.opts.variant);
                let a: Vec<InternalEntry> = ga.iter().map(|&i| entries[i]).collect();
                let b: Vec<InternalEntry> = gb.iter().map(|&i| entries[i]).collect();
                // Children moved under the new node: rewrite their parent
                // pointers when the strategy maintains them (LBU, and only
                // for leaves — the only pointers LBU uses).
                if self.parent_pointers() && node.level == 1 {
                    for e in &b {
                        self.set_parent_pointer(ops, e.child, new_pid)?;
                    }
                }
                (
                    Node {
                        level: node.level,
                        parent: node.parent,
                        entries: NodeEntries::Internal(a),
                    },
                    Node {
                        level: node.level,
                        parent: node.parent,
                        entries: NodeEntries::Internal(b),
                    },
                )
            }
        };
        let mbr_a = node_a.mbr();
        let mbr_b = node_b.mbr();
        self.write_back(
            ops,
            PinnedNode {
                page,
                node: node_a,
                written,
            },
        );
        self.write_new(ops, new_pid, node_b)?;
        Ok((
            mbr_a,
            Some(InternalEntry {
                child: new_pid,
                rect: mbr_b,
            }),
        ))
    }

    /// Install a new root above the current one after a root split.
    fn grow_root(
        &mut self,
        ops: &mut PinSet<'_>,
        old_root: PageId,
        old_root_mbr: Rect,
        new_entry: InternalEntry,
    ) -> CoreResult<()> {
        let new_root_pid = self.alloc_page()?;
        let level = self.height; // old root level + 1
        let mut root_node = Node::new_internal(level);
        root_node.internal_entries_mut().push(InternalEntry {
            child: old_root,
            rect: old_root_mbr,
        });
        root_node.internal_entries_mut().push(new_entry);
        self.root = new_root_pid;
        self.height += 1;
        if self.parent_pointers() && level == 1 {
            self.set_parent_pointer(ops, old_root, new_root_pid)?;
            self.set_parent_pointer(ops, new_entry.child, new_root_pid)?;
        }
        self.write_new(ops, new_root_pid, root_node)
    }

    // ---- deletion -----------------------------------------------------------

    /// Delete the entry of `oid` at `pos` within the batch of `ops` (a
    /// top-down update pairs this with a re-insert). Returns `false` when
    /// no such entry exists. The hash entry of the operation's own object
    /// is left for [`PinSet::settle`]. Does not touch [`RTree::len`] —
    /// the public index layer owns the object count.
    pub(crate) fn delete_object(
        &mut self,
        ops: &mut PinSet<'_>,
        oid: ObjectId,
        pos: Point,
    ) -> CoreResult<bool> {
        let mut path = Vec::new();
        let root = ops.take(self.root)?;
        let Some(mut leaf) = Self::find_leaf(ops, root, oid, pos, &mut path)? else {
            return Ok(false);
        };
        let idx = leaf.oid_index(oid).expect("find_leaf returned this leaf");
        leaf.leaf_entries_mut().swap_remove(idx);
        if !ops.is_own(oid) {
            ops.hash_remove(oid)?;
        }
        self.condense_up(ops, leaf, path)?;
        Ok(true)
    }

    /// Locate the leaf containing `oid` at `pos`, descending every subtree
    /// whose rect contains the position (R-trees may need several partial
    /// paths). Returns the leaf checked out of the pin set and appends the
    /// successful path's `(ancestor, child index)` pairs root-first, so
    /// CondenseTree rewrites each of them through the pin the search read
    /// it with; dead-end branches are checked back in as the search backs
    /// out.
    fn find_leaf<'p>(
        ops: &mut PinSet<'p>,
        node: PinnedNode<'p>,
        oid: ObjectId,
        pos: Point,
        path: &mut Vec<(PinnedNode<'p>, usize)>,
    ) -> CoreResult<Option<PinnedNode<'p>>> {
        if node.is_leaf() {
            if node.oid_index(oid).is_some() {
                return Ok(Some(node));
            }
            ops.put(node);
            return Ok(None);
        }
        let depth = path.len();
        path.push((node, 0));
        for i in 0..path[depth].0.count() {
            let e = path[depth].0.internal_entries()[i];
            if e.rect.contains_point(&pos) {
                path[depth].1 = i;
                let child = ops.take(e.child)?;
                if let Some(found) = Self::find_leaf(ops, child, oid, pos, path)? {
                    return Ok(Some(found));
                }
            }
        }
        let (node, _) = path.pop().expect("pushed above");
        ops.put(node);
        Ok(None)
    }

    /// CondenseTree: walk the recorded path upward, dissolving underfull
    /// nodes and re-inserting their entries, then shrink the root.
    fn condense_up<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        leaf: PinnedNode<'p>,
        mut path: Vec<(PinnedNode<'p>, usize)>,
    ) -> CoreResult<()> {
        let mut orphan_objects: Vec<LeafEntry> = Vec::new();
        let mut orphan_subtrees: Vec<(InternalEntry, u16)> = Vec::new();
        let mut cur = leaf;
        loop {
            let Some((mut parent, idx)) = path.pop() else {
                // cur is the root.
                self.write_back(ops, cur);
                break;
            };
            let min = if cur.is_leaf() {
                self.min_fill_leaf()
            } else {
                self.min_fill_internal()
            };
            if cur.count() < min {
                // Dissolve: orphan the entries, drop the node (and its
                // pin: the page is free), remove its entry from the
                // parent and keep condensing upward.
                self.stats.condenses.fetch_add(1, Ordering::Relaxed);
                match &cur.entries {
                    NodeEntries::Leaf(v) => orphan_objects.extend(v.iter().copied()),
                    NodeEntries::Internal(v) => {
                        let child_level = cur.level - 1;
                        orphan_subtrees.extend(v.iter().map(|e| (*e, child_level)));
                    }
                }
                debug_assert_eq!(parent.internal_entries()[idx].child, cur.pid());
                parent.internal_entries_mut().swap_remove(idx);
                let freed = std::mem::replace(&mut cur, parent);
                self.free_page(ops, freed);
            } else {
                // Keep: write it back and tighten rectangles up the path.
                let mut child_mbr = cur.mbr();
                let mut child_pid = cur.pid();
                self.write_back(ops, cur);
                let mut parent_link = Some((parent, idx));
                while let Some((mut parent, p_idx)) = parent_link {
                    debug_assert_eq!(parent.internal_entries()[p_idx].child, child_pid);
                    if parent.internal_entries()[p_idx].rect == child_mbr {
                        ops.put(parent);
                        break; // no change propagates further
                    }
                    parent.internal_entries_mut()[p_idx].rect = child_mbr;
                    child_mbr = parent.mbr();
                    child_pid = parent.pid();
                    self.write_back(ops, parent);
                    parent_link = path.pop();
                }
                break;
            }
        }
        // The rest of the path is unchanged; the reinserts below walk it
        // again through the set.
        for (node, _) in path {
            ops.put(node);
        }
        // Re-insert orphans before shrinking the root so target levels
        // still exist. Subtrees first (deepest levels first), then
        // objects.
        orphan_subtrees.sort_by_key(|&(_, level)| std::cmp::Reverse(level));
        let reinserted = orphan_objects.len() + orphan_subtrees.len();
        if reinserted > 0 {
            self.stats
                .reinserted_entries
                .fetch_add(reinserted as u64, Ordering::Relaxed);
        }
        for (e, child_level) in orphan_subtrees {
            self.insert_from(ops, self.root, &[], AnyEntry::Node(e, child_level))?;
        }
        for e in orphan_objects {
            self.insert_at_root(ops, e)?;
        }
        self.shrink_root(ops)
    }

    /// While the root is internal with a single child, make that child the
    /// root.
    fn shrink_root(&mut self, ops: &mut PinSet<'_>) -> CoreResult<()> {
        loop {
            let root = ops.take(self.root)?;
            if root.is_leaf() || root.count() != 1 {
                // Refresh the cached root MBR (it may have been tightened).
                if let Some(s) = &mut self.summary {
                    s.set_root_mbr(root.mbr());
                }
                ops.put(root);
                return Ok(());
            }
            // The next turn of the loop reads the new root and registers
            // its MBR. The old root's page is free: it leaves the set.
            let child = root.internal_entries()[0].child;
            self.root = child;
            self.height -= 1;
            if self.parent_pointers() && self.height == 1 {
                self.set_parent_pointer(ops, child, INVALID_PAGE)?;
            }
            self.free_page(ops, root);
        }
    }

    // ---- queries ---------------------------------------------------------------

    /// Plain top-down window query; appends matching object ids.
    pub(crate) fn query_into(&self, window: &Rect, out: &mut Vec<ObjectId>) -> CoreResult<()> {
        self.query_node(self.root, window, out)
    }

    fn query_node(&self, pid: PageId, window: &Rect, out: &mut Vec<ObjectId>) -> CoreResult<()> {
        let node = self.read_node(pid)?;
        match &node.entries {
            NodeEntries::Leaf(v) => {
                for e in v {
                    if e.rect.intersects(window) {
                        out.push(e.oid);
                    }
                }
            }
            NodeEntries::Internal(v) => {
                for e in v {
                    if e.rect.intersects(window) {
                        self.query_node(e.child, window, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Summary-assisted window query (Section 3.2): internal levels are
    /// pruned in memory; only overlapping level-1 nodes and their
    /// overlapping leaves are read. Falls back to the plain descent when
    /// the summary holds no internal levels.
    pub(crate) fn query_with_summary(
        &self,
        window: &Rect,
        out: &mut Vec<ObjectId>,
    ) -> CoreResult<()> {
        let Some(s) = &self.summary else {
            return self.query_into(window, out);
        };
        let Some(level1) = s.query_level1_candidates(self.root, window) else {
            return self.query_into(window, out);
        };
        for pid in level1 {
            let node = self.read_node(pid)?;
            for e in node.internal_entries() {
                if e.rect.intersects(window) {
                    let leaf = self.read_node(e.child)?;
                    for le in leaf.leaf_entries() {
                        if le.rect.intersects(window) {
                            out.push(le.oid);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Window query that collects full leaf entries (id + rect). Same
    /// traversal as [`RTree::query_into`]; used by distance queries and
    /// tooling that needs object extents, not just ids.
    pub(crate) fn query_entries_into(
        &self,
        window: &Rect,
        out: &mut Vec<LeafEntry>,
    ) -> CoreResult<()> {
        self.query_entries_node(self.root, window, out)
    }

    fn query_entries_node(
        &self,
        pid: PageId,
        window: &Rect,
        out: &mut Vec<LeafEntry>,
    ) -> CoreResult<()> {
        let node = self.read_node(pid)?;
        match &node.entries {
            NodeEntries::Leaf(v) => {
                for e in v {
                    if e.rect.intersects(window) {
                        out.push(*e);
                    }
                }
            }
            NodeEntries::Internal(v) => {
                for e in v {
                    if e.rect.intersects(window) {
                        self.query_entries_node(e.child, window, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ---- validation ----------------------------------------------------------

    /// Deep invariant check. Verifies structural soundness, containment,
    /// fill factors, hash-index agreement and summary agreement. Used
    /// pervasively by tests; costs a full tree scan.
    pub(crate) fn validate(&self) -> CoreResult<()> {
        let mut object_count = 0u64;
        let mut node_count = 0u64;
        self.validate_node(
            self.root,
            self.root_level(),
            None,
            &mut object_count,
            &mut node_count,
        )?;
        if object_count != self.len() {
            return Err(CoreError::InvariantViolation(format!(
                "len says {} objects, tree holds {object_count}",
                self.len()
            )));
        }
        if let Some(h) = &self.hash {
            if h.len() as u64 != self.len() {
                return Err(CoreError::InvariantViolation(format!(
                    "hash index has {} entries, tree holds {}",
                    h.len(),
                    self.len()
                )));
            }
        }
        if let Some(s) = &self.summary {
            let root = self.read_node(self.root)?;
            if s.root_mbr() != root.mbr() {
                return Err(CoreError::InvariantViolation(
                    "summary root MBR differs from root node MBR".into(),
                ));
            }
            // Every node but the root has exactly one parent link; more
            // means a freed page left its link behind.
            if s.parent_links() as u64 != node_count - 1 {
                return Err(CoreError::InvariantViolation(format!(
                    "summary parent table holds {} links for {} non-root nodes",
                    s.parent_links(),
                    node_count - 1
                )));
            }
        }
        Ok(())
    }

    fn validate_node(
        &self,
        pid: PageId,
        expected_level: u16,
        bound: Option<Rect>,
        object_count: &mut u64,
        node_count: &mut u64,
    ) -> CoreResult<()> {
        let node = self.read_node(pid)?;
        *node_count += 1;
        let fail = |msg: String| Err(CoreError::InvariantViolation(format!("page {pid}: {msg}")));
        if node.level != expected_level {
            return fail(format!(
                "level {} where {expected_level} expected",
                node.level
            ));
        }
        if node.count() > node.capacity(self.opts.page_size) {
            return fail(format!("overfull node ({} entries)", node.count()));
        }
        let is_root = pid == self.root;
        let min = if node.is_leaf() {
            self.min_fill_leaf()
        } else {
            self.min_fill_internal()
        };
        if !is_root && node.count() < min {
            return fail(format!("underfull node ({} < {min})", node.count()));
        }
        if is_root && !node.is_leaf() && node.count() < 2 {
            return fail("internal root with fewer than 2 children".into());
        }
        if let Some(b) = bound {
            if !b.contains_rect(&node.mbr()) {
                return fail(format!(
                    "content {} escapes parent entry rect {b}",
                    node.mbr()
                ));
            }
        }
        match &node.entries {
            NodeEntries::Leaf(v) => {
                *object_count += v.len() as u64;
                if let Some(h) = &self.hash {
                    for e in v {
                        if h.get(e.oid)? != Some(pid) {
                            return fail(format!("hash index does not map {} here", e.oid));
                        }
                    }
                }
                if let Some(s) = &self.summary {
                    if !s.has_leaf(pid) {
                        return fail("leaf missing from summary bit vector".into());
                    }
                    let full = v.len() >= self.leaf_cap();
                    if s.is_leaf_full(pid) != full {
                        return fail("summary fullness bit is stale".into());
                    }
                }
            }
            NodeEntries::Internal(v) => {
                if let Some(s) = &self.summary {
                    let Some(entry) = s.entry(pid) else {
                        return fail("internal node missing from summary table".into());
                    };
                    if entry.mbr != node.mbr() {
                        return fail("summary MBR is stale".into());
                    }
                    if !entry.children.iter().eq(v.iter().map(|e| &e.child)) {
                        return fail("summary child list is stale".into());
                    }
                    for e in v {
                        if s.find_parent_at(e.child, node.level) != Some(pid) {
                            return fail(format!(
                                "summary parent table does not map child {} here",
                                e.child
                            ));
                        }
                    }
                }
                for e in v {
                    if self.parent_pointers() && node.level == 1 {
                        let child = self.read_node(e.child)?;
                        if child.parent != pid {
                            return fail(format!(
                                "leaf {} has parent pointer {} instead of {pid}",
                                e.child, child.parent
                            ));
                        }
                    }
                    self.validate_node(
                        e.child,
                        expected_level - 1,
                        Some(e.rect),
                        object_count,
                        node_count,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Count pages owned by the tree proper (excludes hash pages): number
    /// of nodes currently reachable. Used by experiments to size buffers.
    pub(crate) fn node_count(&self) -> CoreResult<u64> {
        fn walk(tree: &RTree, pid: PageId, acc: &mut u64) -> CoreResult<()> {
            *acc += 1;
            let node = tree.read_node(pid)?;
            if let NodeEntries::Internal(v) = &node.entries {
                for e in v {
                    walk(tree, e.child, acc)?;
                }
            }
            Ok(())
        }
        let mut acc = 0;
        walk(self, self.root, &mut acc)?;
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use crate::concurrent::Planned;
    use crate::node::{LeafEntry, Node};
    use crate::IndexBuilder;
    use bur_geom::Point;

    /// A page freed and reallocated inside one batch comes back as the
    /// node written to it, never as a copy the batch's set held before.
    #[test]
    fn a_freed_page_never_comes_back_stale() {
        let mut index = IndexBuilder::generalized().build_index().unwrap();
        index.insert(1, Point::new(0.5, 0.5)).unwrap();
        index
            .exclusive(
                Planned::default(),
                |index, ops| {
                    let tree = &mut index.tree;
                    let fetches = |tree: &super::RTree| tree.pool.stats().snapshot().fetches;
                    let pid = tree.root;
                    let node = ops.take(pid)?;
                    ops.put(node);
                    let node = ops.take(pid)?;
                    tree.free_page(ops, node);
                    assert_eq!(tree.alloc_page()?, pid, "the freed page is reused first");
                    let mut fresh = Node::new_leaf();
                    fresh
                        .leaf_entries_mut()
                        .push(LeafEntry::point(2, Point::new(0.1, 0.1)));
                    let before = fetches(tree);
                    ops.put_new(pid, fresh.clone())?;
                    assert_eq!(fetches(tree) - before, 1, "put_new pins the page once");
                    let back = ops.take(pid)?;
                    assert_eq!(fetches(tree) - before, 1, "the new node is checked in");
                    assert_eq!(back.node, fresh);
                    // No other copy is left: taking the page again reads it.
                    let again = ops.take(pid)?;
                    assert_eq!(fetches(tree) - before, 2);
                    assert_eq!(again.node, fresh);
                    Ok(())
                },
                |()| 0,
            )
            .unwrap();
    }
}
