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
    internal_capacity, leaf_capacity, InternalEntry, InternalMut, InternalView, LeafEntry, LeafMut,
    LeafView, Node, NodeEntries, NodeView, ObjectId,
};
use crate::pins::{NodePin, PinSet};
use crate::split;
use crate::stats::OpStats;
use crate::summary::SummaryStructure;
use bur_geom::{Point, Rect};
use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_storage::{BufferPool, Lsn, PageId, PageRef, PageWriteLatch, INVALID_PAGE};
use bur_wal::Wal;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::ops::Deref;
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
    /// Build the tree `snap` describes over `pool`, with the memory state
    /// `opts`' strategy needs: the one way a tree comes to exist. Without
    /// a snapshot the tree is new and empty, its root leaf allocated
    /// after the hash's first buckets. `meta_chain_pages` are the pages
    /// of the metadata chain the next checkpoint may recycle; `kept` are
    /// pages besides the tree's that must survive (an old log that an
    /// interrupted upgrade reads again).
    ///
    /// The hash index is loaded when the snapshot names one. Otherwise,
    /// when the strategy needs one, it is created over the pages nothing
    /// owns ([`unowned_pages`]) and filled from a tree scan, which also
    /// rebuilds GBU's summary structure and LBU's parent pointers.
    pub(crate) fn from_snapshot(
        pool: Arc<BufferPool>,
        opts: IndexOptions,
        snap: Option<&MetaSnapshot>,
        meta_chain_pages: Vec<PageId>,
        kept: &[PageId],
    ) -> CoreResult<Self> {
        opts.validate()?;
        let stored_hash = snap.filter(|s| s.stored_hash());
        let build_hash = stored_hash.is_none() && opts.strategy.needs_hash_index();
        let hash = if let Some(s) = stored_hash {
            Some(LinearHashIndex::load(
                pool.clone(),
                HashIndexConfig::default(),
                s.hash_head,
            )?)
        } else if build_hash {
            let reuse = match snap {
                Some(s) => unowned_pages(&pool, s, &meta_chain_pages, kept)?,
                None => Vec::new(),
            };
            Some(LinearHashIndex::create_reusing(
                pool.clone(),
                HashIndexConfig::default(),
                reuse,
            )?)
        } else {
            None
        };
        let (root, height, len, free_pages) = match snap {
            Some(s) => (s.root, s.height, s.len, s.free_pages.clone()),
            None => {
                let (root, page) = pool.new_page()?;
                Node::new_leaf().encode(&mut page.write());
                (root, 1, 0, Vec::new())
            }
        };
        let claims = LeafClaims::covering(pool.disk().num_pages() as usize);
        let mut tree = Self {
            pool,
            opts,
            root,
            height,
            len,
            free_pages,
            summary: opts.strategy.needs_summary().then(SummaryStructure::new),
            hash: hash.map(Arc::new),
            stats: OpStats::default(),
            pending_reinserts: Vec::new(),
            reinsert_armed: 0,
            insert_active: false,
            wal: None,
            meta_chain_pages,
            claims,
        };
        if snap.is_some() {
            tree.rebuild_memory_state(build_hash)?;
        } else if let Some(s) = &mut tree.summary {
            s.set_leaf(root, false);
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

    /// Fetch `pid` and hand `read` its bytes under the page's shared
    /// latch; the page is unpinned as soon as `read` returns.
    pub(crate) fn with_page<T>(
        &self,
        pid: PageId,
        read: impl FnOnce(&[u8]) -> CoreResult<T>,
    ) -> CoreResult<T> {
        let page = self.pool.fetch(pid)?;
        let data = page.read();
        read(&data)
    }

    /// Edit the leaf on `pin` in place under its exclusive latch, then
    /// refresh the summary hooks: the write half of a pinned
    /// read-modify-write (no pool fetch).
    pub(crate) fn edit_leaf<T>(
        &mut self,
        pin: &mut NodePin<'_>,
        edit: impl FnOnce(&mut LeafMut<PageWriteLatch<'_>>) -> T,
    ) -> CoreResult<T> {
        let pid = pin.pid();
        let mut leaf = pin.leaf_mut()?;
        let out = edit(&mut leaf);
        self.note_leaf(pid, &leaf.view());
        Ok(out)
    }

    /// [`RTree::edit_leaf`] for an internal node; returns the node's MBR
    /// after the edit (the summary hooks need it anyway).
    pub(crate) fn edit_internal(
        &mut self,
        pin: &mut NodePin<'_>,
        edit: impl FnOnce(&mut InternalMut<PageWriteLatch<'_>>),
    ) -> CoreResult<Rect> {
        let pid = pin.pid();
        let mut node = pin.internal_mut()?;
        edit(&mut node);
        let node = node.view();
        let mbr = node.mbr();
        self.note_internal(pid, &node, mbr);
        Ok(mbr)
    }

    /// Remove entry `idx` of the node on `pin` in place; returns the
    /// node's new MBR.
    fn remove_entry(&mut self, pin: &mut NodePin<'_>, idx: usize) -> CoreResult<Rect> {
        if pin.view()?.level() == 0 {
            self.edit_leaf(pin, |leaf| {
                leaf.swap_remove(idx);
                leaf.view().mbr()
            })
        } else {
            self.edit_internal(pin, |node| {
                node.swap_remove(idx);
            })
        }
    }

    /// The node on `pin` copied out, for an overflow to rebuild from
    /// nothing: the caller appends the entry the page has no room for.
    fn overflowing(pin: &NodePin<'_>) -> CoreResult<Node> {
        Ok(pin.view()?.to_node())
    }

    /// Overwrite `pin`'s page with `node` and check the pin back into
    /// the batch's pin set: the surviving half of a split, a node that
    /// shed its forced reinsertions.
    fn write_back<'p>(&mut self, ops: &mut PinSet<'p>, mut pin: NodePin<'p>, node: &Node) {
        let pid = pin.pid();
        pin.overwrite(node, |view| self.note_written(pid, view));
        ops.put(pin);
    }

    /// Write `node` to the freshly allocated page `pid` — blind, the page
    /// was never read — and leave it checked in: the rest of the batch
    /// (say, the next orphan re-inserted into a split's new half) finds
    /// it there.
    fn write_new(&mut self, ops: &mut PinSet<'_>, pid: PageId, node: &Node) -> CoreResult<()> {
        let pin = ops.pin_new(pid)?;
        self.write_back(ops, pin, node);
        Ok(())
    }

    /// Encode and write `node` to `pid`, refreshing the summary hooks. A
    /// blind full-page write outside any operation's pin set: the bulk
    /// loader's nodes.
    pub(crate) fn write_node(&mut self, pid: PageId, node: &Node) -> CoreResult<()> {
        let pool = Arc::clone(&self.pool);
        let mut pin = NodePin {
            page: pool.fetch_for_overwrite(pid)?,
            written: false,
        };
        pin.overwrite(node, |view| self.note_written(pid, view));
        Ok(())
    }

    /// Summary maintenance after the node on `pid` was written.
    fn note_written<B: Deref<Target = [u8]>>(&mut self, pid: PageId, node: &NodeView<B>) {
        match node {
            NodeView::Leaf(leaf) => self.note_leaf(pid, leaf),
            NodeView::Internal(node) => self.note_internal(pid, node, node.mbr()),
        }
    }

    /// Summary maintenance after the leaf on `pid` was written: its
    /// fullness bit.
    fn note_leaf<B: Deref<Target = [u8]>>(&mut self, pid: PageId, leaf: &LeafView<B>) {
        if let Some(s) = &mut self.summary {
            s.set_leaf(pid, leaf.len() >= leaf_capacity(self.opts.page_size));
        }
    }

    /// Summary maintenance after the internal node on `pid`, whose MBR
    /// is `mbr`, was written: its MBR and child list.
    fn note_internal<B: Deref<Target = [u8]>>(
        &mut self,
        pid: PageId,
        node: &InternalView<B>,
        mbr: Rect,
    ) {
        if let Some(s) = &mut self.summary {
            s.upsert_internal(pid, node.level(), mbr, node.children());
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

    /// Free the page of `pin` (a `leaf` or an internal node), which
    /// leaves the batch's pin set with it: a later
    /// [`RTree::alloc_page`] of the same id finds nothing there.
    fn free_page<'p>(&mut self, ops: &mut PinSet<'p>, pin: NodePin<'p>, leaf: bool) {
        let pid = pin.pid();
        self.free_pages.push(pid);
        if let Some(s) = &mut self.summary {
            if leaf {
                s.remove_leaf(pid);
            } else {
                s.remove_internal(pid);
            }
        }
        ops.let_go(pin);
    }

    /// Rewrite only the parent pointer of a leaf (LBU maintenance; one
    /// read + one write per re-homed leaf, through one pin).
    pub(crate) fn set_parent_pointer(
        &mut self,
        ops: &mut PinSet<'_>,
        pid: PageId,
        parent: PageId,
    ) -> CoreResult<()> {
        let mut pin = ops.take(pid)?;
        if pin.leaf()?.parent() != parent {
            self.edit_leaf(&mut pin, |leaf| leaf.set_parent(parent))?;
        }
        ops.put(pin);
        Ok(())
    }

    /// Point the leaves `children` at `parent`, outside any batch (bulk
    /// loads, rebuilding LBU's pointers after a reopen).
    pub(crate) fn adopt_leaves(
        &self,
        children: impl IntoIterator<Item = PageId>,
        parent: PageId,
    ) -> CoreResult<()> {
        for child in children {
            let page = self.pool.fetch(child)?;
            if LeafView::new(child, page.read())?.parent() != parent {
                LeafMut::new(child, page.write())?.set_parent(parent);
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
    /// or delta of every page in `pages` (read through its pin, diffed
    /// against the pool's pre-image of it — no copy), then a commit
    /// record carrying the metadata snapshot, and a log sync. Returns
    /// the LSN covering the ops: the record's, the log's last when `ops`
    /// is 0 (nothing changed, nothing is logged), 0 without a WAL. Never
    /// checkpoints — callers check [`RTree::checkpoint_due`].
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
            let base = self.pool.take_pre_image(pid);
            // Noted under the latch the record is read through, so no
            // write lands between the two.
            let data = page.borrow().read();
            let lsn = handle.wal.append_page(pid, base.as_ref(), &data)?;
            self.pool.note_page_logged(&data, lsn);
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

    /// Write the hash directory and the metadata chain (recycling the
    /// superseded chains' pages) and flush every page: the image an open
    /// starts from. On a durable tree this is a fuzzy checkpoint, and the
    /// log steps wrap that body: the log is made durable first, and
    /// rewound onto its own pages once the data disk is synced. That
    /// order is the whole two-file argument: the old generation stays
    /// replayable until the base image that supersedes it is on the
    /// platter, and this is the only place the data disk is synced — a
    /// commit syncs the log's disk and nothing else.
    pub(crate) fn checkpoint(&mut self) -> CoreResult<()> {
        let started = std::time::Instant::now();
        let writes_before = self.pool.stats().snapshot().writes;
        if let Some(handle) = &self.wal {
            handle.wal.sync()?;
            self.pool.set_durable_lsn(handle.wal.durable_lsn());
        }
        let hash_head = match &self.hash {
            Some(h) => h.persist()?,
            None => INVALID_PAGE,
        };
        let payload = self.meta_snapshot(hash_head).encode();
        meta::write_meta_chain(&self.pool, &payload, &mut self.meta_chain_pages)?;
        if self.wal.is_some() {
            // The writes above are part of the new base image, not of
            // any commit: drop their gate state before the flush.
            self.pool.wal_checkpoint_reset();
        }
        self.pool.flush_all()?;
        let Some(handle) = self.wal.as_mut() else {
            return Ok(());
        };
        handle.wal.checkpoint_rewind(payload)?;
        handle.commits_since_checkpoint.store(0, Ordering::Relaxed);
        self.pool.set_durable_lsn(handle.wal.durable_lsn());
        handle.wal.note_checkpoint(
            started.elapsed(),
            self.pool.stats().snapshot().writes - writes_before,
        );
        Ok(())
    }

    /// Attach `wal`, gate the pool's writes on it and checkpoint: the
    /// pages as they stand become the log's base image. The one way a
    /// tree gets its log — created, recovered, upgraded, promoted or
    /// bulk loaded.
    pub(crate) fn attach_log(&mut self, wal: WalHandle) -> CoreResult<()> {
        self.wal = Some(wal);
        self.pool.set_wal_mode(true);
        self.checkpoint()
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
            let mut pin = ops.take(anc)?;
            let (idx, old_anc_mbr, level, full) = {
                let node = pin.internal()?;
                let idx = node.find_child(child_pid).ok_or(CoreError::CorruptNode {
                    pid: anc,
                    reason: "ancestor chain does not link to child",
                })?;
                (
                    idx,
                    node.mbr(),
                    node.level(),
                    node.len() >= self.internal_cap(),
                )
            };
            // AdjustTree sets the entry to the child's exact MBR. This may
            // *shrink* a previously ε-extended official rect — deliberate:
            // the tight MBR covers every entry by construction, and
            // re-tightening on arrival is what keeps overlap from
            // ratcheting outward over millions of bottom-up updates.
            let rect = child_mbr;
            let new_anc_mbr = match pending.take() {
                Some(e) => {
                    if self.parent_pointers() && level == 1 {
                        self.set_parent_pointer(ops, e.child, anc)?;
                    }
                    if full {
                        let mut node = Self::overflowing(&pin)?;
                        node.internal_entries_mut()[idx].rect = rect;
                        node.internal_entries_mut().push(e);
                        let (mbr_a, sp) = self.handle_overflow(ops, pin, node)?;
                        child_pid = anc;
                        child_mbr = mbr_a;
                        pending = sp;
                        changed = true;
                        continue;
                    }
                    self.edit_internal(&mut pin, |node| {
                        node.set_rect(idx, rect);
                        node.push(e);
                    })?
                }
                None => self.edit_internal(&mut pin, |node| node.set_rect(idx, rect))?,
            };
            ops.put(pin);
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
    /// the node on `pin`. Every frame checks its pin back into the set
    /// once it has written the node (or found nothing to write).
    fn insert_rec<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        mut pin: NodePin<'p>,
        entry: AnyEntry,
    ) -> CoreResult<(Rect, Rect, Option<InternalEntry>)> {
        let pid = pin.pid();
        let target = entry.target_level();
        let (level, old_mbr, full, child) = {
            let node = pin.view()?;
            let level = node.level();
            debug_assert!(
                level >= target,
                "insert target level {target} above node level {level}"
            );
            let (cap, child) = match &node {
                NodeView::Leaf(_) => (self.leaf_cap(), None),
                NodeView::Internal(node) if level > target => {
                    let idx = self.choose_subtree(node, &entry.rect());
                    (self.internal_cap(), Some((idx, node.entry(idx).child)))
                }
                NodeView::Internal(_) => (self.internal_cap(), None),
            };
            (level, node.mbr(), node.len() >= cap, child)
        };
        let Some((idx, child_pid)) = child else {
            match entry {
                AnyEntry::Leaf(e) => ops.place(e.oid, pid)?,
                AnyEntry::Node(e, child_level) => {
                    if self.parent_pointers() && child_level == 0 {
                        self.set_parent_pointer(ops, e.child, pid)?;
                    }
                }
            }
            if full {
                let mut node = Self::overflowing(&pin)?;
                match entry {
                    AnyEntry::Leaf(e) => node.leaf_entries_mut().push(e),
                    AnyEntry::Node(e, _) => node.internal_entries_mut().push(e),
                }
                let (mbr_a, sp) = self.handle_overflow(ops, pin, node)?;
                return Ok((old_mbr, mbr_a, sp));
            }
            // An append grows the MBR by the new entry's rect alone.
            match entry {
                AnyEntry::Leaf(e) => self.edit_leaf(&mut pin, |leaf| leaf.push(e))?,
                AnyEntry::Node(e, _) => {
                    self.edit_internal(&mut pin, |node| node.push(e))?;
                }
            }
            let new_mbr = old_mbr.union(&entry.rect());
            ops.put(pin);
            return Ok((old_mbr, new_mbr, None));
        };
        let child = ops.take(child_pid)?;
        let (child_old, child_new, sp) = self.insert_rec(ops, child, entry)?;
        if sp.is_none() && child_old == child_new {
            // Nothing to adjust: the child absorbed the entry without
            // growing — the TD best case of a single write at the leaf.
            ops.put(pin);
            return Ok((old_mbr, old_mbr, None));
        }
        // Exact child MBR (see the ancestor-chain comment above).
        let new_mbr = match sp {
            Some(e) => {
                if self.parent_pointers() && level == 1 {
                    self.set_parent_pointer(ops, e.child, pid)?;
                }
                if full {
                    let mut node = Self::overflowing(&pin)?;
                    node.internal_entries_mut()[idx].rect = child_new;
                    node.internal_entries_mut().push(e);
                    let (mbr_a, sp2) = self.handle_overflow(ops, pin, node)?;
                    return Ok((old_mbr, mbr_a, sp2));
                }
                self.edit_internal(&mut pin, |node| {
                    node.set_rect(idx, child_new);
                    node.push(e);
                })?
            }
            None => self.edit_internal(&mut pin, |node| node.set_rect(idx, child_new))?,
        };
        ops.put(pin);
        Ok((old_mbr, new_mbr, None))
    }

    /// Pick the child subtree for an insertion. Guttman's R-tree uses the
    /// least-enlargement criterion everywhere; the R* variant switches to
    /// minimum *overlap* enlargement when choosing among the parents of
    /// leaves (Beckmann's ChooseSubtree).
    fn choose_subtree<B: Deref<Target = [u8]>>(
        &self,
        node: &InternalView<B>,
        rect: &Rect,
    ) -> usize {
        match self.opts.variant {
            TreeVariant::RStar if node.level() == 1 => Self::choose_subtree_min_overlap(node, rect),
            _ => Self::choose_subtree_guttman(node, rect),
        }
    }

    /// Guttman ChooseLeaf criterion: least enlargement, ties by smaller
    /// area.
    fn choose_subtree_guttman<B: Deref<Target = [u8]>>(
        node: &InternalView<B>,
        rect: &Rect,
    ) -> usize {
        debug_assert!(node.len() > 0);
        let mut best = 0;
        let mut best_enlarge = f32::INFINITY;
        let mut best_area = f32::INFINITY;
        for (i, e) in node.iter().enumerate() {
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
    fn choose_subtree_min_overlap<B: Deref<Target = [u8]>>(
        node: &InternalView<B>,
        rect: &Rect,
    ) -> usize {
        debug_assert!(node.len() > 0);
        let mut best = 0;
        let mut best_key = (f32::INFINITY, f32::INFINITY, f32::INFINITY);
        for (i, e) in node.iter().enumerate() {
            let expanded = e.rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, s) in node.iter().enumerate() {
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

    /// Resolve the overflow of `node`, the page on `pin` plus the entry
    /// it has no room for: R* forced reinsertion when eligible (non-root,
    /// first overflow at this level in the current insertion), a node
    /// split otherwise. Same return shape as [`RTree::split_node`]; the
    /// reinsertion arm reports no new sibling.
    fn handle_overflow<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        pin: NodePin<'p>,
        mut node: Node,
    ) -> CoreResult<(Rect, Option<InternalEntry>)> {
        let eligible = self.opts.variant == TreeVariant::RStar
            && pin.pid() != self.root
            && node.level < 32
            && self.reinsert_armed & (1 << node.level) == 0;
        if !eligible {
            return self.split_node(ops, pin, node);
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
        self.write_back(ops, pin, &node);
        Ok((new_mbr, None))
    }

    /// Split the overflowing `node` (holding capacity + 1 entries) of the
    /// page on `pin`. Writes both halves — the surviving one through
    /// `pin`, the new one blind — checks both in, and returns `(mbr of
    /// the surviving half, entry for the new half)`.
    fn split_node<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        pin: NodePin<'p>,
        node: Node,
    ) -> CoreResult<(Rect, Option<InternalEntry>)> {
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
        self.write_back(ops, pin, &node_a);
        self.write_new(ops, new_pid, &node_b)?;
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
        self.write_new(ops, new_root_pid, &root_node)
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
        let Some((leaf, idx)) = Self::find_leaf(ops, root, oid, pos, &mut path)? else {
            return Ok(false);
        };
        if !ops.is_own(oid) {
            ops.hash_remove(oid)?;
        }
        self.condense_up(ops, leaf, idx, path)?;
        Ok(true)
    }

    /// Locate the leaf containing `oid` at `pos`, descending every subtree
    /// whose rect contains the position (R-trees may need several partial
    /// paths). Returns the leaf's pin, checked out of the set, with the
    /// object's slot, and appends the successful path's `(ancestor, child
    /// index)` pairs root-first, so CondenseTree rewrites each of them
    /// through the pin the search read it with; dead-end branches are
    /// checked back in as the search backs out.
    fn find_leaf<'p>(
        ops: &mut PinSet<'p>,
        pin: NodePin<'p>,
        oid: ObjectId,
        pos: Point,
        path: &mut Vec<(NodePin<'p>, usize)>,
    ) -> CoreResult<Option<(NodePin<'p>, usize)>> {
        let (found, count) = match pin.view()? {
            NodeView::Leaf(leaf) => (leaf.find_oid(oid), None),
            NodeView::Internal(node) => (None, Some(node.len())),
        };
        let Some(count) = count else {
            return Ok(match found {
                Some(idx) => Some((pin, idx)),
                None => {
                    ops.put(pin);
                    None
                }
            });
        };
        let depth = path.len();
        path.push((pin, 0));
        for i in 0..count {
            let e = path[depth].0.internal()?.entry(i);
            if e.rect.contains_point(&pos) {
                path[depth].1 = i;
                let child = ops.take(e.child)?;
                if let Some(found) = Self::find_leaf(ops, child, oid, pos, path)? {
                    return Ok(Some(found));
                }
            }
        }
        let (pin, _) = path.pop().expect("pushed above");
        ops.put(pin);
        Ok(None)
    }

    /// CondenseTree: remove entry `removed` of `leaf`, then walk the
    /// recorded path upward, dissolving underfull nodes and re-inserting
    /// their entries, then shrink the root. A node is edited only once it
    /// is known to stay: a dissolved one is freed unwritten.
    fn condense_up<'p>(
        &mut self,
        ops: &mut PinSet<'p>,
        leaf: NodePin<'p>,
        removed: usize,
        mut path: Vec<(NodePin<'p>, usize)>,
    ) -> CoreResult<()> {
        let mut orphan_objects: Vec<LeafEntry> = Vec::new();
        let mut orphan_subtrees: Vec<(InternalEntry, u16)> = Vec::new();
        // The node being condensed and the slot it loses.
        let (mut cur, mut removed) = (leaf, removed);
        loop {
            let Some((parent, idx)) = path.pop() else {
                // cur is the root.
                self.remove_entry(&mut cur, removed)?;
                ops.put(cur);
                break;
            };
            let (is_leaf, remaining) = {
                let node = cur.view()?;
                (node.level() == 0, node.len() - 1)
            };
            let min = if is_leaf {
                self.min_fill_leaf()
            } else {
                self.min_fill_internal()
            };
            if remaining < min {
                // Dissolve: orphan the entries, drop the node (and its
                // pin: the page is free), and keep condensing upward with
                // the parent losing the node's entry.
                self.stats.condenses.fetch_add(1, Ordering::Relaxed);
                match cur.view()? {
                    NodeView::Leaf(node) => {
                        let from = orphan_objects.len();
                        orphan_objects.extend(node.iter());
                        orphan_objects.swap_remove(from + removed);
                    }
                    NodeView::Internal(node) => {
                        let child_level = node.level() - 1;
                        let from = orphan_subtrees.len();
                        orphan_subtrees.extend(node.iter().map(|e| (e, child_level)));
                        orphan_subtrees.swap_remove(from + removed);
                    }
                }
                debug_assert_eq!(parent.internal()?.entry(idx).child, cur.pid());
                let freed = std::mem::replace(&mut cur, parent);
                self.free_page(ops, freed, is_leaf);
                removed = idx;
            } else {
                // Keep: write it and tighten rectangles up the path.
                let mut child_mbr = self.remove_entry(&mut cur, removed)?;
                let mut child_pid = cur.pid();
                ops.put(cur);
                let mut parent_link = Some((parent, idx));
                while let Some((mut parent, p_idx)) = parent_link {
                    let stored = parent.internal()?.entry(p_idx);
                    debug_assert_eq!(stored.child, child_pid);
                    if stored.rect == child_mbr {
                        ops.put(parent);
                        break; // no change propagates further
                    }
                    let rect = child_mbr;
                    child_mbr =
                        self.edit_internal(&mut parent, |node| node.set_rect(p_idx, rect))?;
                    child_pid = parent.pid();
                    ops.put(parent);
                    parent_link = path.pop();
                }
                break;
            }
        }
        // The rest of the path is unchanged; the reinserts below walk it
        // again through the set.
        for (pin, _) in path {
            ops.put(pin);
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
            let only_child = match root.view()? {
                NodeView::Internal(node) if node.len() == 1 => Some(node.entry(0).child),
                _ => None,
            };
            let Some(child) = only_child else {
                ops.put(root);
                return Ok(());
            };
            // The next turn of the loop reads the new root. The old
            // root's page is free: it leaves the set.
            self.root = child;
            self.height -= 1;
            if self.parent_pointers() && self.height == 1 {
                self.set_parent_pointer(ops, child, INVALID_PAGE)?;
            }
            self.free_page(ops, root, false);
        }
    }

    // ---- queries ---------------------------------------------------------------

    /// Plain top-down window query; appends matching object ids.
    pub(crate) fn query_into(&self, window: &Rect, out: &mut Vec<ObjectId>) -> CoreResult<()> {
        self.search(window, |e| out.push(e.oid))
    }

    /// Window search from the root, handing every matching leaf entry
    /// to `hit`.
    fn search(&self, window: &Rect, mut hit: impl FnMut(LeafEntry)) -> CoreResult<()> {
        self.walk(
            |_, node| {
                if let NodeView::Leaf(leaf) = node {
                    leaf.iter()
                        .filter(|e| e.rect.intersects(window))
                        .for_each(&mut hit);
                }
                Ok(())
            },
            |_, e| e.rect.intersects(window),
        )
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
        let mut leaves = Vec::new();
        for pid in level1 {
            leaves.clear();
            self.with_page(pid, |data| {
                let node = InternalView::new(pid, data)?;
                leaves.extend(
                    node.iter()
                        .filter(|e| e.rect.intersects(window))
                        .map(|e| e.child),
                );
                Ok(())
            })?;
            for &leaf in &leaves {
                self.with_page(leaf, |data| {
                    let leaf = LeafView::new(leaf, data)?;
                    out.extend(
                        leaf.iter()
                            .filter(|e| e.rect.intersects(window))
                            .map(|e| e.oid),
                    );
                    Ok(())
                })?;
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
        self.search(window, |e| out.push(e))
    }

    /// The MBR of the root node.
    pub(crate) fn root_mbr(&self) -> CoreResult<Rect> {
        self.with_page(self.root, |data| Ok(NodeView::new(self.root, data)?.mbr()))
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
        *node_count += 1;
        let fail = |msg: String| Err(CoreError::InvariantViolation(format!("page {pid}: {msg}")));
        // What the checks below need once the page is unpinned: the
        // leaf's objects (the hash index reads pages of its own) or the
        // node's children.
        let mut objects: Vec<ObjectId> = Vec::new();
        let mut children: Vec<InternalEntry> = Vec::new();
        let (level, count, mbr) = self.with_page(pid, |data| {
            let node = NodeView::new(pid, data)?;
            match &node {
                NodeView::Leaf(leaf) => objects.extend(leaf.iter().map(|e| e.oid)),
                NodeView::Internal(node) => children.extend(node.iter()),
            }
            Ok((node.level(), node.len(), node.mbr()))
        })?;
        let is_leaf = level == 0;
        if level != expected_level {
            return fail(format!("level {level} where {expected_level} expected"));
        }
        let is_root = pid == self.root;
        let min = if is_leaf {
            self.min_fill_leaf()
        } else {
            self.min_fill_internal()
        };
        if !is_root && count < min {
            return fail(format!("underfull node ({count} < {min})"));
        }
        if is_root && !is_leaf && count < 2 {
            return fail("internal root with fewer than 2 children".into());
        }
        if let Some(b) = bound {
            if !b.contains_rect(&mbr) {
                return fail(format!("content {mbr} escapes parent entry rect {b}"));
            }
        }
        if is_leaf {
            *object_count += count as u64;
            if let Some(h) = &self.hash {
                for &oid in &objects {
                    if h.get(oid)? != Some(pid) {
                        return fail(format!("hash index does not map {oid} here"));
                    }
                }
            }
            if let Some(s) = &self.summary {
                if !s.has_leaf(pid) {
                    return fail("leaf missing from summary bit vector".into());
                }
                let full = count >= self.leaf_cap();
                if s.is_leaf_full(pid) != full {
                    return fail("summary fullness bit is stale".into());
                }
            }
            return Ok(());
        }
        if let Some(s) = &self.summary {
            let Some(entry) = s.entry(pid) else {
                return fail("internal node missing from summary table".into());
            };
            if entry.mbr != mbr {
                return fail("summary MBR is stale".into());
            }
            if !entry.children.iter().eq(children.iter().map(|e| &e.child)) {
                return fail("summary child list is stale".into());
            }
            for e in &children {
                if s.find_parent_at(e.child, level) != Some(pid) {
                    return fail(format!(
                        "summary parent table does not map child {} here",
                        e.child
                    ));
                }
            }
        }
        for e in children {
            if self.parent_pointers() && level == 1 {
                let parent =
                    self.with_page(e.child, |data| Ok(LeafView::new(e.child, data)?.parent()))?;
                if parent != pid {
                    return fail(format!(
                        "leaf {} has parent pointer {parent} instead of {pid}",
                        e.child
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
        Ok(())
    }

    /// Visit nodes depth-first from the root, children in entry order,
    /// each through its view, descending into the children whose entry
    /// `descend` accepts; one page is pinned at a time.
    pub(crate) fn walk(
        &self,
        mut visit: impl FnMut(PageId, &NodeView<&[u8]>) -> CoreResult<()>,
        descend: impl Fn(&InternalView<&[u8]>, &InternalEntry) -> bool,
    ) -> CoreResult<()> {
        let mut stack = Vec::with_capacity(32);
        stack.push(self.root);
        while let Some(pid) = stack.pop() {
            self.with_page(pid, |data| {
                let node = NodeView::new(pid, data)?;
                visit(pid, &node)?;
                if let NodeView::Internal(node) = &node {
                    let from = stack.len();
                    stack.extend(node.iter().filter(|e| descend(node, e)).map(|e| e.child));
                    stack[from..].reverse();
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Count pages owned by the tree proper (excludes hash pages): number
    /// of nodes currently reachable. Used by experiments to size buffers.
    pub(crate) fn node_count(&self) -> CoreResult<u64> {
        let mut count = 0;
        self.walk(
            |_, _| {
                count += 1;
                Ok(())
            },
            |_, _| true,
        )?;
        Ok(count)
    }

    /// Scan the tree to rebuild the main-memory summary structure and
    /// (with `build_hash`) fill the hash index, which is new and empty.
    /// Each leaf's objects go into the hash index as the walk meets the
    /// leaf, so the rebuild holds no list of every object.
    fn rebuild_memory_state(&mut self, build_hash: bool) -> CoreResult<()> {
        // The walk only matters when there is memory state to rebuild; a
        // bare TD tree (a replica view, say) skips it.
        if self.summary.is_some() || build_hash {
            let mut summary = self.summary.take();
            let hash = build_hash.then(|| self.hash.clone().expect("the hash was created"));
            let leaf_cap = self.leaf_cap();
            // Depth-first, children in entry order. A leaf's objects are
            // copied out and indexed once its page is unpinned: the hash
            // index reads pages of its own.
            let mut stack = vec![self.root];
            let mut objects: Vec<ObjectId> = Vec::new();
            while let Some(pid) = stack.pop() {
                self.with_page(pid, |data| {
                    match NodeView::new(pid, data)? {
                        NodeView::Leaf(leaf) => {
                            if let Some(s) = &mut summary {
                                s.set_leaf(pid, leaf.len() >= leaf_cap);
                            }
                            if hash.is_some() {
                                objects.extend(leaf.iter().map(|e| e.oid));
                            }
                        }
                        NodeView::Internal(node) => {
                            if let Some(s) = &mut summary {
                                let children = node.children();
                                s.upsert_internal(pid, node.level(), node.mbr(), children);
                            }
                            let from = stack.len();
                            stack.extend(node.children());
                            stack[from..].reverse();
                        }
                    }
                    Ok(())
                })?;
                if let Some(hash) = &hash {
                    for oid in objects.drain(..) {
                        hash.insert(oid, pid)?;
                    }
                }
            }
            self.summary = summary;
        }
        // LBU needs leaf parent pointers; repair any that are missing or
        // stale (e.g. the stored image was built by a TD index).
        if self.parent_pointers() && self.height >= 2 {
            let mut level1 = Vec::new();
            self.walk(
                |pid, node| {
                    if node.level() == 1 {
                        level1.push(pid);
                    }
                    Ok(())
                },
                |node, _| node.level() > 1,
            )?;
            for parent_pid in level1 {
                let children = self.with_page(parent_pid, |data| {
                    Ok(InternalView::new(parent_pid, data)?
                        .children()
                        .collect::<Vec<_>>())
                })?;
                self.adopt_leaves(children, parent_pid)?;
            }
        }
        Ok(())
    }
}

/// The pages below the end of `pool`'s disk that nothing `snap`
/// describes owns, ascending. Owned are page 0, the metadata chain's
/// `meta_chain`, every tree node (named by the internal nodes, so no
/// leaf is read), the tree's free list and `kept`. Among the rest are
/// the pages of a hash index the snapshot does not name and those an
/// unacknowledged batch allocated before a crash.
///
/// Handing them to a new hash is safe across a crash in the middle:
/// the log that is redone again never depends on a page it does not
/// image, because a page's first record in a generation is a full one.
fn unowned_pages(
    pool: &BufferPool,
    snap: &MetaSnapshot,
    meta_chain: &[PageId],
    kept: &[PageId],
) -> CoreResult<Vec<PageId>> {
    let mut owned = vec![false; pool.disk().num_pages() as usize];
    // Marks `pid` owned; `true` the first time. A page past the end
    // (a corrupt entry) is left for the scan that reads it to refuse.
    let mut own = |pid: PageId| {
        owned
            .get_mut(pid as usize)
            .is_some_and(|o| !std::mem::replace(o, true))
    };
    let mut internal = Vec::new();
    if own(snap.root) && snap.height > 1 {
        internal.push(snap.root);
    }
    while let Some(pid) = internal.pop() {
        let page = pool.fetch(pid)?;
        let node = InternalView::new(pid, page.read())?;
        for child in node.children() {
            if own(child) && node.level() > 1 {
                internal.push(child);
            }
        }
    }
    own(meta::META_PAGE);
    for &pid in meta_chain.iter().chain(&snap.free_pages).chain(kept) {
        own(pid);
    }
    Ok((0..owned.len())
        .filter(|&pid| !owned[pid])
        .map(|pid| pid as PageId)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::{unowned_pages, RTree};
    use crate::concurrent::Planned;
    use crate::files::stored_snapshot;
    use crate::node::{LeafEntry, Node};
    use crate::IndexBuilder;
    use bur_geom::Point;
    use bur_storage::INVALID_PAGE;
    use std::sync::Arc;

    /// A hash rebuild draws its pages from the ones nobody owns, less
    /// the `kept` ones: handed every unowned page as kept, it takes none
    /// of them and grows the file instead.
    #[test]
    fn a_hash_rebuild_takes_no_kept_page() {
        let mut index = IndexBuilder::generalized()
            .page_size(1024)
            .build_index()
            .unwrap();
        for oid in 0..2_000u64 {
            let x = (oid % 50) as f32 / 50.0;
            let y = (oid / 50) as f32 / 40.0;
            index.insert(oid, Point::new(x, y)).unwrap();
        }
        index.persist().unwrap();
        let opts = *index.options();
        let pool = Arc::clone(&index.tree.pool);
        drop(index);
        let ((mut snap, _), meta_chain) = stored_snapshot(&pool).unwrap();
        // Without its hash the snapshot leaves the old buckets unowned.
        snap.hash_head = INVALID_PAGE;
        let kept = unowned_pages(&pool, &snap, &meta_chain, &[]).unwrap();
        assert!(kept.len() > 10, "{} unowned pages", kept.len());
        let bytes = |pid| pool.fetch(pid).unwrap().read().to_vec();
        let before: Vec<Vec<u8>> = kept.iter().map(|&pid| bytes(pid)).collect();
        let pages = pool.disk().num_pages();
        let tree =
            RTree::from_snapshot(Arc::clone(&pool), opts, Some(&snap), meta_chain, &kept).unwrap();
        tree.validate().unwrap();
        for (&pid, old) in kept.iter().zip(&before) {
            assert!(bytes(pid) == *old, "the rebuilt hash wrote kept page {pid}");
        }
        let hash = tree.hash.as_ref().expect("GBU keeps a hash");
        let grown = (pool.disk().num_pages() - pages) as usize;
        assert!(
            grown >= hash.page_count(),
            "the hash holds {} pages, only {grown} of them new",
            hash.page_count()
        );
    }

    /// A page freed and reallocated inside one batch comes back as the
    /// node written to it, through the pin the write checked in.
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
                    let pin = ops.take(pid)?;
                    ops.put(pin);
                    let pin = ops.take(pid)?;
                    tree.free_page(ops, pin, true);
                    assert_eq!(tree.alloc_page()?, pid, "the freed page is reused first");
                    let mut fresh = Node::new_leaf();
                    fresh
                        .leaf_entries_mut()
                        .push(LeafEntry::point(2, Point::new(0.1, 0.1)));
                    let before = fetches(tree);
                    tree.write_new(ops, pid, &fresh)?;
                    assert_eq!(fetches(tree) - before, 1, "write_new pins the page once");
                    let back = ops.take(pid)?;
                    assert_eq!(fetches(tree) - before, 1, "the new node is checked in");
                    assert!(back.written);
                    assert_eq!(Node::decode(pid, &back.page.read())?, fresh);
                    // The set gave its pin away: taking the page again
                    // fetches it.
                    let again = ops.take(pid)?;
                    assert_eq!(fetches(tree) - before, 2);
                    assert_eq!(Node::decode(pid, &again.page.read())?, fresh);
                    Ok(())
                },
                |()| 0,
            )
            .unwrap();
    }
}
