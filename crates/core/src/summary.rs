//! The paper's main-memory summary structure (Section 3.2).
//!
//! Two components:
//!
//! 1. a **direct access table** over the *internal* nodes — per entry the
//!    node's MBR, its level and its child page ids, organized by level
//!    ("All the entries are contiguous, and are organized according to the
//!    levels of the internal nodes they correspond to"), and
//! 2. a **bit vector** over the leaves marking which are full, so the
//!    sibling-shift step of GBU never reads a sibling just to discover it
//!    has no room.
//!
//! The table is maintained on every internal-node write (MBR change or
//! split) and costs no disk I/O to consult. It serves three purposes in
//! GBU: the O(1) root-MBR check, `FindParent` (Algorithm 3) without parent
//! pointers, and in-memory pruning of internal levels during window
//! queries.

use bur_geom::{Point, Rect};
use bur_storage::{PageId, INVALID_PAGE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seqlock over the cached root MBR: the one summary datum the
/// concurrent write path reads on *every* plan (Algorithm 2's O(1)
/// root-MBR check) and the admission gate for shared-path inserts.
///
/// The four `f32` coordinates pack into two `u64` payload words guarded
/// by a sequence counter (odd while a writer is mid-publish). Readers
/// retry until they observe an even, unchanged sequence — so reads are
/// wait-free for readers in practice and never block on (or are blocked
/// by) a writer. Writers must be externally serialized: every
/// `store` happens either under the structure lock's write side or
/// under the root leaf's claim, which never coexist.
#[derive(Debug)]
pub struct RootMbrCell {
    seq: AtomicU64,
    lo: AtomicU64,
    hi: AtomicU64,
}

fn pack(a: f32, b: f32) -> u64 {
    (u64::from(a.to_bits()) << 32) | u64::from(b.to_bits())
}

fn unpack(w: u64) -> (f32, f32) {
    (f32::from_bits((w >> 32) as u32), f32::from_bits(w as u32))
}

impl Default for RootMbrCell {
    fn default() -> Self {
        Self::new(Rect::EMPTY)
    }
}

impl RootMbrCell {
    /// A cell initialized to `mbr`.
    #[must_use]
    pub fn new(mbr: Rect) -> Self {
        let cell = RootMbrCell {
            seq: AtomicU64::new(0),
            lo: AtomicU64::new(0),
            hi: AtomicU64::new(0),
        };
        cell.store(mbr);
        cell
    }

    /// Publish a new root MBR. Callers must hold either the structure
    /// lock's write side or the root leaf's claim (single
    /// writer); the seqlock only protects readers from torn reads.
    pub fn store(&self, mbr: Rect) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        self.lo.store(pack(mbr.min_x, mbr.min_y), Ordering::Release);
        self.hi.store(pack(mbr.max_x, mbr.max_y), Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Lock-free snapshot of the root MBR.
    #[must_use]
    pub fn load(&self) -> Rect {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let lo = self.lo.load(Ordering::Acquire);
            let hi = self.hi.load(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == s1 {
                let (min_x, min_y) = unpack(lo);
                let (max_x, max_y) = unpack(hi);
                return Rect {
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                };
            }
        }
    }
}

/// One direct-access-table entry: a summary of one internal node.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryEntry {
    /// Page id of the internal node.
    pub pid: PageId,
    /// MBR bounding all entries of the node ("The single MBR captured in
    /// an entry ... bounds all MBRs stored in the entries of the
    /// corresponding R-tree index node").
    pub mbr: Rect,
    /// Page ids of the node's children.
    pub children: Vec<PageId>,
}

/// Growable bit vector keyed by page id. The words are atomic so the
/// concurrent write path can flip an *existing* bit through `&self`
/// ([`BitVec::set_shared`]); growth still requires `&mut self` and so
/// stays on the exclusive path, where every leaf page is first
/// registered.
#[derive(Debug, Default)]
struct BitVec {
    words: Vec<AtomicU64>,
}

impl BitVec {
    fn set(&mut self, i: u32, v: bool) {
        let (w, b) = ((i / 64) as usize, i % 64);
        if w >= self.words.len() {
            self.words.resize_with(w + 1, AtomicU64::default);
        }
        let word = self.words[w].get_mut();
        if v {
            *word |= 1 << b;
        } else {
            *word &= !(1 << b);
        }
    }

    /// Flip an already-allocated bit without `&mut`. Returns `false`
    /// (no-op) when the bit's word was never allocated — the caller must
    /// escalate rather than lose the update.
    fn set_shared(&self, i: u32, v: bool) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        let Some(word) = self.words.get(w) else {
            return false;
        };
        if v {
            word.fetch_or(1 << b, Ordering::Release);
        } else {
            word.fetch_and(!(1 << b), Ordering::Release);
        }
        true
    }

    fn get(&self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.words
            .get(w)
            .is_some_and(|word| word.load(Ordering::Acquire) & (1 << b) != 0)
    }

    fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// The main-memory summary structure.
#[derive(Debug, Default)]
pub struct SummaryStructure {
    /// `levels[l - 1]` holds the entries of internal nodes at level `l`.
    levels: Vec<Vec<SummaryEntry>>,
    /// Direct access, indexed by page id like `parent_of` (page ids are
    /// dense): (level, index within the level's vec); level 0 = the page
    /// is not an internal node on record.
    pos: Vec<(u16, u32)>,
    /// Number of entries in the table (slots of `pos` with a level).
    internal: usize,
    /// Child → parent table, indexed by the child's page id (4 B per
    /// page; [`INVALID_PAGE`] = no parent on record). It is the inverse
    /// of the entries' child lists, kept in step by
    /// [`SummaryStructure::upsert_internal`] /
    /// [`SummaryStructure::remove_internal`], so `FindParent` is a table
    /// lookup instead of a scan over a level's child lists.
    parent_of: Vec<PageId>,
    /// Bit vector: leaf is full.
    leaf_full: BitVec,
    /// Bit vector: page id is a live leaf (for maintenance checks).
    leaf_present: BitVec,
    /// Cached MBR of the root node, behind a seqlock so it can be read
    /// without any lock and republished through `&self` under the root
    /// leaf's claim. The paper's table covers internal nodes
    /// only; caching the root MBR additionally makes the O(1) root check
    /// of Algorithm 2 work even while the tree is a single leaf. The
    /// `Arc` lets `Bur` hand out the cell for lock-free snapshots that
    /// outlive the structure lock.
    root_mbr: Arc<RootMbrCell>,
}

impl SummaryStructure {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all state (used when rebuilding from a tree scan). The root
    /// MBR cell is reset in place, not replaced, so lock-free snapshots
    /// handed out earlier keep observing the live value.
    pub fn clear(&mut self) {
        self.levels.clear();
        self.pos.clear();
        self.internal = 0;
        self.parent_of.clear();
        self.leaf_full = BitVec::default();
        self.leaf_present = BitVec::default();
        self.root_mbr.store(Rect::EMPTY);
    }

    // ---- direct access table maintenance --------------------------------

    /// Install or refresh the entry of internal node `pid`. Called by the
    /// tree whenever it writes an internal node, which covers both cases
    /// the paper names: "The MBR of an entry ... is updated when we
    /// propagate an MBR enlargement" and "When an internal node is split,
    /// a new entry will be inserted". A rewrite that kept the node's
    /// child list — an MBR enlargement or tightening, the common case —
    /// only sets the MBR. Otherwise `children` is copied into the entry's
    /// own buffer (no allocation once the entry exists) and the child →
    /// parent table follows it.
    pub fn upsert_internal<I>(&mut self, pid: PageId, level: u16, mbr: Rect, children: I)
    where
        I: IntoIterator<Item = PageId>,
        I::IntoIter: Clone,
    {
        debug_assert!(level >= 1);
        let children = children.into_iter();
        let mut at = self.lookup(pid);
        if at.is_some_and(|(l, _)| l != level) {
            // Level changed (root promotion patterns); reinstall.
            self.remove_internal(pid);
            at = None;
        }
        let idx = match at {
            Some((_, idx)) => {
                let entry = &mut self.levels[level as usize - 1][idx];
                if entry.children.iter().copied().eq(children.clone()) {
                    // The links were written with the list and only a
                    // rewrite of this entry with another list drops them.
                    debug_assert!(
                        entry
                            .children
                            .iter()
                            .all(|&c| self.parent_of[c as usize] == pid),
                        "node {pid} kept its child list but lost a child link"
                    );
                    entry.mbr = mbr;
                    return;
                }
                idx
            }
            None => {
                while self.levels.len() < level as usize {
                    self.levels.push(Vec::new());
                }
                let vec = &mut self.levels[level as usize - 1];
                vec.push(SummaryEntry {
                    pid,
                    mbr,
                    children: Vec::new(),
                });
                if pid as usize >= self.pos.len() {
                    self.pos.resize(pid as usize + 1, (0, 0));
                }
                self.pos[pid as usize] = (level, (vec.len() - 1) as u32);
                self.internal += 1;
                vec.len() - 1
            }
        };
        let entry = &mut self.levels[level as usize - 1][idx];
        entry.mbr = mbr;
        unlink_children(&mut self.parent_of, pid, &entry.children);
        entry.children.clear();
        entry.children.extend(children);
        for &child in &entry.children {
            let slot = child as usize;
            if slot >= self.parent_of.len() {
                self.parent_of.resize(slot + 1, INVALID_PAGE);
            }
            self.parent_of[slot] = pid;
        }
    }

    /// Remove the entry of a deleted internal node.
    pub fn remove_internal(&mut self, pid: PageId) {
        if let Some((level, idx)) = self.lookup(pid) {
            self.pos[pid as usize] = (0, 0);
            self.internal -= 1;
            let vec = &mut self.levels[level as usize - 1];
            let removed = vec.swap_remove(idx);
            unlink_children(&mut self.parent_of, pid, &removed.children);
            if let Some(moved) = vec.get(idx) {
                self.pos[moved.pid as usize] = (level, idx as u32);
            }
            while self.levels.last().is_some_and(Vec::is_empty) {
                self.levels.pop();
            }
        }
    }

    /// Level of internal node `pid` and its index within that level.
    fn lookup(&self, pid: PageId) -> Option<(u16, usize)> {
        let &(level, idx) = self.pos.get(pid as usize)?;
        (level != 0).then_some((level, idx as usize))
    }

    /// Look up the entry of an internal node.
    #[must_use]
    pub fn entry(&self, pid: PageId) -> Option<&SummaryEntry> {
        let (level, idx) = self.lookup(pid)?;
        Some(&self.levels[level as usize - 1][idx])
    }

    /// Entries of one internal level (1 = parents of leaves).
    #[must_use]
    pub fn level_entries(&self, level: u16) -> &[SummaryEntry] {
        self.levels
            .get(level as usize - 1)
            .map_or(&[], Vec::as_slice)
    }

    /// Number of internal-node entries in the table.
    #[must_use]
    pub fn internal_count(&self) -> usize {
        self.internal
    }

    /// Highest internal level present (0 when the tree is a single leaf).
    #[must_use]
    pub fn top_level(&self) -> u16 {
        self.levels.len() as u16
    }

    // ---- root MBR --------------------------------------------------------

    /// Record the root MBR (tree calls this when the root node changes).
    pub fn set_root_mbr(&mut self, mbr: Rect) {
        self.root_mbr.store(mbr);
    }

    /// Republish the root MBR through `&self` — the concurrent path's
    /// variant of [`SummaryStructure::set_root_mbr`], legal only under
    /// the root leaf's claim (which serializes writers).
    pub fn publish_root_mbr(&self, mbr: Rect) {
        self.root_mbr.store(mbr);
    }

    /// O(1) root-MBR check used by Algorithm 2's first step.
    #[must_use]
    pub fn root_mbr(&self) -> Rect {
        self.root_mbr.load()
    }

    /// Shared handle on the root-MBR seqlock, for snapshots that must
    /// not take the structure lock (single-op admission, metrics).
    #[must_use]
    pub fn root_mbr_cell(&self) -> Arc<RootMbrCell> {
        Arc::clone(&self.root_mbr)
    }

    // ---- leaf bit vector ---------------------------------------------------

    /// Register a leaf and its fullness bit.
    pub fn set_leaf(&mut self, pid: PageId, full: bool) {
        self.leaf_present.set(pid, true);
        self.leaf_full.set(pid, full);
    }

    /// Unregister a deleted leaf.
    pub fn remove_leaf(&mut self, pid: PageId) {
        self.leaf_present.set(pid, false);
        self.leaf_full.set(pid, false);
    }

    /// Flip the fullness bit of an *already registered* leaf through
    /// `&self` — the concurrent path's variant of
    /// [`SummaryStructure::set_leaf`], legal only under that leaf's
    /// claim. Returns `false` (and changes nothing) when the
    /// leaf was never registered; the caller must escalate.
    pub fn set_leaf_full_shared(&self, pid: PageId, full: bool) -> bool {
        if !self.leaf_present.get(pid) {
            return false;
        }
        self.leaf_full.set_shared(pid, full)
    }

    /// `true` when the leaf is known and marked full — consulted before a
    /// sibling shift "eliminating the need for additional disk accesses
    /// to find a suitable sibling".
    #[must_use]
    pub fn is_leaf_full(&self, pid: PageId) -> bool {
        self.leaf_full.get(pid)
    }

    /// `true` when `pid` is registered as a live leaf.
    #[must_use]
    pub fn has_leaf(&self, pid: PageId) -> bool {
        self.leaf_present.get(pid)
    }

    // ---- FindParent (Algorithm 3) ----------------------------------------

    /// Find the page id of the node's immediate parent at `level` (the
    /// node's level + 1). Algorithm 3 matches "some child offset" of the
    /// level's entries against the node offset; the child → parent table
    /// gives the same answer in O(1).
    #[must_use]
    pub fn find_parent_at(&self, node: PageId, level: u16) -> Option<PageId> {
        let parent = *self.parent_of.get(node as usize)?;
        let (l, _) = self.lookup(parent)?;
        (l == level).then_some(parent)
    }

    /// Number of child → parent links on record. In a consistent summary
    /// this is the number of non-root nodes of the tree; validation
    /// compares the two to catch links left behind by freed pages.
    #[must_use]
    pub fn parent_links(&self) -> usize {
        self.parent_of
            .iter()
            .filter(|&&p| p != INVALID_PAGE)
            .count()
    }

    /// Algorithm 3, FindParent: walk the ancestor chain of `leaf` upward
    /// and return the first ancestor whose MBR contains `new_location`,
    /// looking at most `max_ascent` levels above the leaf. When no
    /// ancestor within range contains the location, the highest ancestor
    /// inspected (the root when unrestricted) is returned — Algorithm 3's
    /// "return(root offset)" fallback.
    ///
    /// Returns `(page id, level, contained)`.
    #[must_use]
    pub fn find_parent(
        &self,
        leaf: PageId,
        new_location: Point,
        max_ascent: u16,
    ) -> Option<(PageId, u16, bool)> {
        let mut node = leaf;
        let mut best: Option<(PageId, u16, bool)> = None;
        let top = self.top_level();
        for level in 1..=top.min(max_ascent) {
            let parent = self.find_parent_at(node, level)?;
            let entry = self.entry(parent)?;
            best = Some((parent, level, entry.mbr.contains_point(&new_location)));
            if entry.mbr.contains_point(&new_location) {
                return best;
            }
            node = parent;
        }
        best
    }

    // ---- summary-assisted queries ------------------------------------------

    /// In-memory pruning for window queries: starting from the root entry
    /// and walking the table level by level ("looking for overlaps until
    /// the level above the leaf is reached"), return the page ids of the
    /// level-1 internal nodes whose MBR overlaps `window`. Only those —
    /// and then their overlapping leaves — need disk reads.
    ///
    /// Returns `None` when the table has no internal levels (single-leaf
    /// tree) so the caller can fall back to a plain descent.
    #[must_use]
    pub fn query_level1_candidates(&self, root: PageId, window: &Rect) -> Option<Vec<PageId>> {
        let top = self.top_level();
        if top == 0 {
            return None;
        }
        let root_entry = self.entry(root)?;
        if !root_entry.mbr.intersects(window) {
            return Some(Vec::new());
        }
        let mut frontier = vec![root];
        let (mut level, _) = self.lookup(root)?;
        while level > 1 {
            let mut next = Vec::new();
            for pid in &frontier {
                let entry = self.entry(*pid)?;
                for child in &entry.children {
                    if let Some(ce) = self.entry(*child) {
                        if ce.mbr.intersects(window) {
                            next.push(*child);
                        }
                    }
                }
            }
            frontier = next;
            level -= 1;
        }
        Some(frontier)
    }

    // ---- space accounting (Section 3.2 size claims) --------------------------

    /// Approximate resident bytes of the direct access table.
    #[must_use]
    pub fn table_size_bytes(&self) -> usize {
        let mut bytes = 0;
        for level in &self.levels {
            for e in level {
                // pid + mbr + child vector payload.
                bytes += 4 + 16 + 4 * e.children.len();
            }
        }
        bytes
    }

    /// Resident bytes of the child → parent table (4 B per page id up
    /// to the highest child on record).
    #[must_use]
    pub fn parent_table_size_bytes(&self) -> usize {
        self.parent_of.len() * 4
    }

    /// Approximate resident bytes of the leaf bit vectors.
    #[must_use]
    pub fn bitvec_size_bytes(&self) -> usize {
        self.leaf_full.size_bytes() + self.leaf_present.size_bytes()
    }
}

/// Drop the links of `children` that still point at `parent` — a child
/// another node has claimed since (a split re-homes children before or
/// after the old parent is rewritten) keeps its newer link.
fn unlink_children(parent_of: &mut [PageId], parent: PageId, children: &[PageId]) {
    for &child in children {
        if let Some(slot) = parent_of.get_mut(child as usize) {
            if *slot == parent {
                *slot = INVALID_PAGE;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect {
        Rect::new(a, b, c, d)
    }

    /// Build the summary of a small 3-level tree:
    /// root (pid 100, level 2) -> {10, 11} (level 1) -> leaves {1,2} and {3,4}.
    fn sample() -> SummaryStructure {
        let mut s = SummaryStructure::new();
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.5, 1.0), vec![1, 2]);
        s.upsert_internal(11, 1, r(0.5, 0.0, 1.0, 1.0), vec![3, 4]);
        s.upsert_internal(100, 2, r(0.0, 0.0, 1.0, 1.0), vec![10, 11]);
        s.set_root_mbr(r(0.0, 0.0, 1.0, 1.0));
        for leaf in [1, 2, 3, 4] {
            s.set_leaf(leaf, false);
        }
        s.set_leaf(2, true);
        s
    }

    #[test]
    fn table_maintenance() {
        let mut s = sample();
        assert_eq!(s.internal_count(), 3);
        assert_eq!(s.top_level(), 2);
        assert_eq!(s.entry(10).unwrap().children, vec![1, 2]);
        assert_eq!(s.level_entries(1).len(), 2);
        assert_eq!(s.level_entries(2).len(), 1);
        // MBR refresh.
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.6, 1.0), vec![1, 2, 5]);
        assert_eq!(s.entry(10).unwrap().mbr, r(0.0, 0.0, 0.6, 1.0));
        assert_eq!(s.entry(10).unwrap().children.len(), 3);
        // Removal with swap fixup.
        s.remove_internal(10);
        assert!(s.entry(10).is_none());
        assert_eq!(s.entry(11).unwrap().pid, 11);
        assert_eq!(s.internal_count(), 2);
    }

    #[test]
    fn leaf_bits() {
        let mut s = sample();
        assert!(s.is_leaf_full(2));
        assert!(!s.is_leaf_full(1));
        assert!(s.has_leaf(3));
        s.set_leaf(1, true);
        assert!(s.is_leaf_full(1));
        s.remove_leaf(2);
        assert!(!s.has_leaf(2));
        assert!(!s.is_leaf_full(2));
        // Bit vector grows on demand.
        s.set_leaf(10_000, true);
        assert!(s.is_leaf_full(10_000));
        assert!(!s.is_leaf_full(9_999));
    }

    #[test]
    fn find_parent_chain() {
        let s = sample();
        assert_eq!(s.find_parent_at(1, 1), Some(10));
        assert_eq!(s.find_parent_at(3, 1), Some(11));
        assert_eq!(s.find_parent_at(10, 2), Some(100));
        assert_eq!(s.find_parent_at(99, 1), None);
        // Point in parent 10's MBR: found at one level of ascent.
        let got = s.find_parent(1, Point::new(0.4, 0.5), 3);
        assert_eq!(got, Some((10, 1, true)));
        // Point only in the root's MBR: two levels.
        let got = s.find_parent(1, Point::new(0.9, 0.5), 3);
        assert_eq!(got, Some((100, 2, true)));
        // Restricted ascent: stops at level 1, not contained.
        let got = s.find_parent(1, Point::new(0.9, 0.5), 1);
        assert_eq!(got, Some((10, 1, false)));
        // Point outside everything: root returned, contained = false.
        let got = s.find_parent(1, Point::new(5.0, 5.0), 3);
        assert_eq!(got, Some((100, 2, false)));
    }

    #[test]
    fn parent_table_follows_child_lists() {
        let mut s = sample();
        assert_eq!(s.parent_links(), 6);
        // A split of node 10 re-homes leaf 2 under new node 12. The two
        // halves may be written in either order.
        s.upsert_internal(12, 1, r(0.0, 0.5, 0.5, 1.0), [2]);
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.5, 0.5), [1]);
        assert_eq!(s.find_parent_at(2, 1), Some(12));
        assert_eq!(s.find_parent_at(1, 1), Some(10));
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.5, 1.0), [1, 2]);
        s.upsert_internal(12, 1, r(0.0, 0.5, 0.5, 1.0), []);
        assert_eq!(s.find_parent_at(2, 1), Some(10));
        // The level is part of the question.
        assert_eq!(s.find_parent_at(2, 2), None);
        // Removing a node forgets its children's links, and only those.
        s.remove_internal(12);
        s.remove_internal(11);
        assert_eq!(s.find_parent_at(3, 1), None);
        assert_eq!(s.find_parent_at(2, 1), Some(10));
        assert_eq!(s.parent_links(), 4, "1, 2 under 10; 10 and 11 under 100");
        assert!(s.parent_table_size_bytes() >= 4 * 12);
        s.clear();
        assert_eq!(s.parent_links(), 0);
        assert_eq!(s.find_parent_at(1, 1), None);
    }

    #[test]
    fn mbr_only_upsert_keeps_links_and_changed_list_relinks() {
        let mut s = sample();
        let links = s.parent_links();
        let buffer = s.entry(10).unwrap().children.as_ptr();
        // Same child list, new MBR: only the MBR moves.
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.7, 1.0), [1, 2]);
        let e = s.entry(10).unwrap();
        assert_eq!(e.mbr, r(0.0, 0.0, 0.7, 1.0));
        assert_eq!(e.children, vec![1, 2]);
        assert_eq!(e.children.as_ptr(), buffer, "child list not rebuilt");
        assert_eq!(s.find_parent_at(1, 1), Some(10));
        assert_eq!(s.find_parent_at(2, 1), Some(10));
        assert_eq!(s.parent_links(), links);
        assert_eq!(s.internal_count(), 3);
        // Same length, one child swapped: the links follow the new list.
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.7, 1.0), [1, 5]);
        assert_eq!(s.entry(10).unwrap().children, vec![1, 5]);
        assert_eq!(s.find_parent_at(2, 1), None);
        assert_eq!(s.find_parent_at(5, 1), Some(10));
        // A prefix of the old list is a changed list too.
        s.upsert_internal(10, 1, r(0.0, 0.0, 0.7, 1.0), [1]);
        assert_eq!(s.find_parent_at(5, 1), None);
        assert_eq!(s.parent_links(), links - 1);
        // The same list at another level reinstalls the entry.
        s.upsert_internal(10, 3, r(0.0, 0.0, 0.7, 1.0), [1]);
        assert_eq!(s.find_parent_at(1, 1), None);
        assert_eq!(s.find_parent_at(1, 3), Some(10));
        assert_eq!(s.internal_count(), 3);
        assert_eq!(s.top_level(), 3);
    }

    #[test]
    fn query_candidates() {
        let s = sample();
        // Window overlapping only the left half.
        let got = s
            .query_level1_candidates(100, &r(0.1, 0.1, 0.3, 0.3))
            .unwrap();
        assert_eq!(got, vec![10]);
        // Window overlapping both halves.
        let got = s
            .query_level1_candidates(100, &r(0.4, 0.4, 0.6, 0.6))
            .unwrap();
        assert_eq!(got, vec![10, 11]);
        // Window outside the root.
        let got = s
            .query_level1_candidates(100, &r(2.0, 2.0, 3.0, 3.0))
            .unwrap();
        assert!(got.is_empty());
        // Empty summary: no pruning possible.
        let empty = SummaryStructure::new();
        assert!(empty.query_level1_candidates(0, &Rect::UNIT).is_none());
    }

    #[test]
    fn size_accounting() {
        let s = sample();
        // 3 entries: 2 with 2 children each and 1 with 2 children.
        assert_eq!(s.table_size_bytes(), 3 * 20 + 6 * 4);
        assert!(s.bitvec_size_bytes() >= 16);
    }

    #[test]
    fn root_mbr_cache() {
        let mut s = SummaryStructure::new();
        assert!(s.root_mbr().is_empty());
        s.set_root_mbr(r(0.0, 0.0, 0.5, 0.5));
        assert_eq!(s.root_mbr(), r(0.0, 0.0, 0.5, 0.5));
    }

    #[test]
    fn shared_leaf_bit_flips() {
        let mut s = sample();
        assert!(s.set_leaf_full_shared(1, true));
        assert!(s.is_leaf_full(1));
        assert!(s.set_leaf_full_shared(2, false));
        assert!(!s.is_leaf_full(2));
        // Unregistered leaves refuse the shared flip.
        assert!(!s.set_leaf_full_shared(77, true));
        assert!(!s.is_leaf_full(77));
        // Clearing keeps refusing gracefully.
        s.clear();
        assert!(!s.set_leaf_full_shared(1, true));
    }

    #[test]
    fn root_mbr_seqlock_outlives_clear() {
        let mut s = SummaryStructure::new();
        let cell = s.root_mbr_cell();
        s.publish_root_mbr(r(0.1, 0.2, 0.3, 0.4));
        assert_eq!(cell.load(), r(0.1, 0.2, 0.3, 0.4));
        s.set_root_mbr(r(0.0, 0.0, 1.0, 1.0));
        assert_eq!(cell.load(), r(0.0, 0.0, 1.0, 1.0));
        // The cell is reset in place, not replaced, on rebuilds.
        s.clear();
        assert!(cell.load().is_empty());
    }

    #[test]
    fn root_mbr_seqlock_concurrent_readers() {
        let s = std::sync::Arc::new(SummaryStructure::new());
        s.publish_root_mbr(r(0.0, 0.0, 1.0, 1.0));
        let writer = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 1..2_000u32 {
                    let v = i as f32;
                    s.publish_root_mbr(r(v, v, v + 1.0, v + 1.0));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let got = s.root_mbr();
                        // Never a torn mix of two publishes: width and
                        // height are exactly 1 for every published rect.
                        assert_eq!(got.max_x - got.min_x, 1.0);
                        assert_eq!(got.max_y - got.min_y, 1.0);
                        assert_eq!(got.min_x, got.min_y);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for rd in readers {
            rd.join().unwrap();
        }
    }
}
