//! Bulk loading by STR (Sort-Tile-Recursive) packing.
//!
//! *An extension beyond the paper* used by the experiment harness to build
//! the initial million-object trees quickly. STR tiles the space into
//! √n × √n slices at every level. Nodes are packed to 66 % utilization —
//! the figure the paper quotes for its R-trees — so a bulk-loaded tree is
//! statistically equivalent to an incrementally built one for the update
//! experiments (the equivalence is checked in the integration tests).

use crate::config::{Durability, IndexOptions};
use crate::error::CoreResult;
use crate::index::RTreeIndex;
use crate::node::{InternalEntry, LeafEntry, Node, NodeView, ObjectId};
use crate::tree::RTree;
use bur_geom::Point;
use bur_storage::{DiskBackend, MemDisk, PageId};
use std::sync::Arc;

/// Node utilization targeted by the packer (the paper: "66 % node
/// utilization").
pub const BULK_FILL: f64 = 0.66;

/// Partition `len` items into contiguous chunks of roughly `target` size
/// such that every chunk holds at least `min` and at most `cap` items
/// (possible whenever `min <= cap / 2`, which the index config enforces).
/// The trailing chunk is rebalanced rather than left underfull.
fn balanced_chunks(
    len: usize,
    target: usize,
    min: usize,
    cap: usize,
) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let mut r = len.div_ceil(target).max(1);
    while r > 1 && len / r < min {
        r -= 1;
    }
    let base = len / r;
    let extra = len % r;
    debug_assert!(
        base + usize::from(extra > 0) <= cap || r == 1,
        "chunk exceeds capacity"
    );
    let mut out = Vec::with_capacity(r);
    let mut start = 0;
    for i in 0..r {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

impl RTreeIndex {
    /// Bulk load `items` into a fresh in-memory index (its log, when
    /// durable, on a second in-memory disk).
    pub fn bulk_load_in_memory(
        opts: IndexOptions,
        items: &[(ObjectId, Point)],
    ) -> CoreResult<Self> {
        let disk = || -> Arc<dyn DiskBackend> { Arc::new(MemDisk::new(opts.page_size)) };
        let log = matches!(opts.durability, Durability::Wal(_)).then(disk);
        Self::bulk_load_on(disk(), log, opts, items)
    }

    /// Bulk load `items` into a fresh index on `disk` using STR packing.
    /// A durable index keeps its log on the (empty) `log_disk`; a
    /// volatile one takes none.
    pub fn bulk_load_on(
        disk: Arc<dyn DiskBackend>,
        log_disk: Option<Arc<dyn DiskBackend>>,
        opts: IndexOptions,
        items: &[(ObjectId, Point)],
    ) -> CoreResult<Self> {
        // A durable build logs nothing page-by-page: the log is attached
        // once the tree is built, and its first checkpoint flushes the
        // finished tree as the base image. Gating every bulk write would
        // pin the whole index in memory.
        let (mut index, wal) = Self::create_unlogged(disk, log_disk, opts)?;
        if !items.is_empty() {
            index.tree.bulk_build(items)?;
        }
        if let Some(wal) = wal {
            index.tree.attach_log(wal)?;
        }
        Ok(index)
    }
}

// Helpers on RTree used only by the bulk loader. Its pages come from
// `RTree::alloc_page`: the free list is empty until `bulk_set_root`.
impl RTree {
    /// Pack `items` into the empty tree.
    fn bulk_build(&mut self, items: &[(ObjectId, Point)]) -> CoreResult<()> {
        // ---- leaf level: sort by x, tile into vertical slices, sort each
        // slice by y, pack runs of `leaf_fill` objects per leaf ----
        let leaf_cap = self.leaf_cap();
        let leaf_min = self.min_fill_leaf();
        let leaf_fill = ((leaf_cap as f64 * BULK_FILL) as usize).max(1);
        let mut sorted: Vec<(ObjectId, Point)> = items.to_vec();
        sorted.sort_by(|a, b| a.1.x.total_cmp(&b.1.x));
        let n = sorted.len();
        let leaf_count = n.div_ceil(leaf_fill);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(slice_count).max(1);

        let mut level_entries: Vec<InternalEntry> = Vec::with_capacity(leaf_count);
        for slice_range in balanced_chunks(n, slice_size, leaf_min.min(n), usize::MAX) {
            let slice = &mut sorted[slice_range];
            slice.sort_by(|a, b| a.1.y.total_cmp(&b.1.y));
            for run_range in balanced_chunks(slice.len(), leaf_fill, leaf_min, leaf_cap) {
                let run = &slice[run_range];
                let pid = self.alloc_page()?;
                let mut node = Node::new_leaf();
                for &(oid, p) in run {
                    node.leaf_entries_mut().push(LeafEntry::point(oid, p));
                    self.hash_place(oid, pid)?;
                }
                let mbr = node.mbr();
                self.write_node(pid, &node)?;
                level_entries.push(InternalEntry {
                    child: pid,
                    rect: mbr,
                });
            }
        }

        // ---- internal levels: tile the child entries the same way ----
        let internal_cap = self.internal_cap();
        let internal_min = self.min_fill_internal();
        let internal_fill = ((internal_cap as f64 * BULK_FILL) as usize).max(2);
        let mut level: u16 = 1;
        while level_entries.len() > 1 {
            let count = level_entries.len();
            let mut next: Vec<InternalEntry> = Vec::new();
            level_entries.sort_by(|a, b| a.rect.center().x.total_cmp(&b.rect.center().x));
            let node_count = count.div_ceil(internal_fill);
            let slices = (node_count as f64).sqrt().ceil() as usize;
            let per_slice = count.div_ceil(slices).max(1);
            // The top levels may hold fewer entries than the minimum fill;
            // the (future) root is allowed to be underfull.
            let min_here = internal_min.min(count);
            for slice_range in balanced_chunks(count, per_slice, min_here, usize::MAX) {
                let slice = &mut level_entries[slice_range];
                slice.sort_by(|a, b| a.rect.center().y.total_cmp(&b.rect.center().y));
                for run_range in balanced_chunks(slice.len(), internal_fill, min_here, internal_cap)
                {
                    let run = slice[run_range].to_vec();
                    let pid = self.alloc_page()?;
                    let mut node = Node::new_internal(level);
                    node.internal_entries_mut().extend(run.iter().copied());
                    if self.opts.strategy.needs_parent_pointers() && level == 1 {
                        self.adopt_leaves(run.iter().map(|e| e.child), pid)?;
                    }
                    let mbr = node.mbr();
                    self.write_node(pid, &node)?;
                    next.push(InternalEntry {
                        child: pid,
                        rect: mbr,
                    });
                }
            }
            level_entries = next;
            level += 1;
        }

        // ---- install the built root ----
        let root_entry = level_entries[0];
        self.bulk_set_root(root_entry.child)?;
        self.len = items.len() as u64;
        Ok(())
    }

    /// Replace the placeholder root created by index creation with the
    /// bulk-built tree, recycling the placeholder page.
    fn bulk_set_root(&mut self, new_root: PageId) -> CoreResult<()> {
        let old_root = self.root;
        self.free_pages.push(old_root);
        if let Some(s) = &mut self.summary {
            s.remove_leaf(old_root);
        }
        self.root = new_root;
        let level = self.with_page(new_root, |data| Ok(NodeView::new(new_root, data)?.level()))?;
        self.height = level + 1;
        Ok(())
    }
}
