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
//! GBU: the O(1) root-MBR check (a lookup of the root's own entry; a
//! root leaf has none, and the check skips it), `FindParent`
//! (Algorithm 3) without parent pointers, and in-memory pruning of
//! internal levels during window queries. The table is the only copy of
//! the root MBR the summary keeps.

use bur_geom::{Point, Rect};
use bur_storage::{PageId, INVALID_PAGE};

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

/// Growable bit vector keyed by page id.
#[derive(Debug, Default)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    fn set(&mut self, i: u32, v: bool) {
        let (w, b) = ((i / 64) as usize, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    fn get(&self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
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
}

impl SummaryStructure {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
}
