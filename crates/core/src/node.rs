//! Node pages: typed views over a page's bytes, and the decoded [`Node`]
//! for nodes built from nothing.
//!
//! The engine reads and edits a node where it lies. [`LeafView`] and
//! [`InternalView`] read a latched page; [`LeafMut`] and [`InternalMut`]
//! change it under the exclusive latch, slot by slot, with `Vec`'s
//! `push`/`swap_remove` semantics. Each checks the header (magic, level,
//! count within the page's capacity) once, at construction, so every
//! accessor after it stays inside the page. [`Node`] and its codec remain
//! for the nodes that do not exist yet as a page: split halves, an
//! overflowing node's entries, the bulk loader's runs.
//!
//! Page layout (little-endian):
//!
//! ```text
//! byte 0       magic: 0xD1 leaf, 0xD2 internal
//! byte 1       level (0 = leaf)
//! byte 2..4    entry count (u16)
//! byte 4..8    parent page id (u32; INVALID_PAGE unless the strategy
//!              maintains parent pointers — LBU does, TD/GBU do not)
//! byte 8..16   reserved
//! byte 16..    entries
//! ```
//!
//! A leaf entry is 24 bytes (`oid u64` + 4×`f32` MBR); an internal entry
//! is 20 bytes (`child u32` + 4×`f32` MBR). With the paper's 1024-byte
//! pages this gives a leaf fanout of 42 and an internal fanout of 50, so
//! a 1 M-object tree has 5 levels — the height the paper reports.

use crate::error::{CoreError, CoreResult};
use bur_geom::{Point, Rect};
use bur_storage::{PageId, INVALID_PAGE};
use std::ops::{Deref, DerefMut};

/// Object identifier stored in leaf entries ("a pointer to the object in
/// the database" in Guttman's formulation).
pub type ObjectId = u64;

const MAGIC_LEAF: u8 = 0xD1;
const MAGIC_INTERNAL: u8 = 0xD2;
const HEADER_SIZE: usize = 16;
/// Bytes per leaf entry.
pub const LEAF_ENTRY_SIZE: usize = 24;
/// Bytes per internal entry.
pub const INTERNAL_ENTRY_SIZE: usize = 20;

/// Maximum leaf entries for a page size.
#[inline]
#[must_use]
pub fn leaf_capacity(page_size: usize) -> usize {
    (page_size - HEADER_SIZE) / LEAF_ENTRY_SIZE
}

/// Maximum internal entries for a page size.
#[inline]
#[must_use]
pub fn internal_capacity(page_size: usize) -> usize {
    (page_size - HEADER_SIZE) / INTERNAL_ENTRY_SIZE
}

/// A leaf entry: one indexed object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// The object's identifier.
    pub oid: ObjectId,
    /// The object's MBR (a degenerate rectangle for points).
    pub rect: Rect,
}

impl LeafEntry {
    /// Entry for a point object.
    #[must_use]
    pub fn point(oid: ObjectId, p: Point) -> Self {
        Self {
            oid,
            rect: Rect::from_point(p),
        }
    }
}

/// An internal entry: one child subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternalEntry {
    /// Page id of the child node.
    pub child: PageId,
    /// MBR bounding everything in the child subtree.
    pub rect: Rect,
}

/// Entry storage of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEntries {
    /// Leaf node: object entries.
    Leaf(Vec<LeafEntry>),
    /// Internal node: child entries.
    Internal(Vec<InternalEntry>),
}

/// A decoded R-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Level in the tree: 0 for leaves, `height − 1` for the root.
    pub level: u16,
    /// Parent page id; [`INVALID_PAGE`] when parent pointers are not
    /// maintained (TD and GBU modes).
    pub parent: PageId,
    /// The node's entries.
    pub entries: NodeEntries,
}

impl Node {
    /// Fresh empty leaf.
    #[must_use]
    pub fn new_leaf() -> Self {
        Self {
            level: 0,
            parent: INVALID_PAGE,
            entries: NodeEntries::Leaf(Vec::new()),
        }
    }

    /// Fresh empty internal node at `level >= 1`.
    #[must_use]
    pub fn new_internal(level: u16) -> Self {
        debug_assert!(level >= 1);
        Self {
            level,
            parent: INVALID_PAGE,
            entries: NodeEntries::Internal(Vec::new()),
        }
    }

    /// `true` for leaves.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.entries, NodeEntries::Leaf(_))
    }

    /// Number of entries.
    #[must_use]
    pub fn count(&self) -> usize {
        match &self.entries {
            NodeEntries::Leaf(v) => v.len(),
            NodeEntries::Internal(v) => v.len(),
        }
    }

    /// Tight MBR over all entries ([`Rect::EMPTY`] when empty).
    #[must_use]
    pub fn mbr(&self) -> Rect {
        match &self.entries {
            NodeEntries::Leaf(v) => v.iter().fold(Rect::EMPTY, |acc, e| acc.union(&e.rect)),
            NodeEntries::Internal(v) => v.iter().fold(Rect::EMPTY, |acc, e| acc.union(&e.rect)),
        }
    }

    /// Leaf entries (panics on internal nodes — a logic error upstream).
    #[must_use]
    pub fn leaf_entries(&self) -> &Vec<LeafEntry> {
        match &self.entries {
            NodeEntries::Leaf(v) => v,
            NodeEntries::Internal(_) => panic!("leaf_entries() on internal node"),
        }
    }

    /// Mutable leaf entries.
    pub fn leaf_entries_mut(&mut self) -> &mut Vec<LeafEntry> {
        match &mut self.entries {
            NodeEntries::Leaf(v) => v,
            NodeEntries::Internal(_) => panic!("leaf_entries_mut() on internal node"),
        }
    }

    /// Internal entries (panics on leaves).
    #[must_use]
    pub fn internal_entries(&self) -> &Vec<InternalEntry> {
        match &self.entries {
            NodeEntries::Internal(v) => v,
            NodeEntries::Leaf(_) => panic!("internal_entries() on leaf node"),
        }
    }

    /// Mutable internal entries.
    pub fn internal_entries_mut(&mut self) -> &mut Vec<InternalEntry> {
        match &mut self.entries {
            NodeEntries::Internal(v) => v,
            NodeEntries::Leaf(_) => panic!("internal_entries_mut() on leaf node"),
        }
    }

    /// Index of the entry pointing at `child`, if present.
    #[must_use]
    pub fn child_index(&self, child: PageId) -> Option<usize> {
        self.internal_entries()
            .iter()
            .position(|e| e.child == child)
    }

    /// Index of the leaf entry for `oid`, if present.
    #[must_use]
    pub fn oid_index(&self, oid: ObjectId) -> Option<usize> {
        self.leaf_entries().iter().position(|e| e.oid == oid)
    }

    /// Capacity of this node kind under `page_size`.
    #[must_use]
    pub fn capacity(&self, page_size: usize) -> usize {
        if self.is_leaf() {
            leaf_capacity(page_size)
        } else {
            internal_capacity(page_size)
        }
    }

    // ---- codec ----------------------------------------------------------

    /// Serialize into a page buffer (`buf.len()` = page size). Panics if
    /// the node exceeds the page capacity — the tree must split first.
    pub fn encode(&self, buf: &mut [u8]) {
        let count = self.count();
        debug_assert!(
            count <= self.capacity(buf.len()),
            "node with {count} entries exceeds page capacity"
        );
        buf[0] = if self.is_leaf() {
            MAGIC_LEAF
        } else {
            MAGIC_INTERNAL
        };
        buf[1] = self.level as u8;
        buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
        buf[4..8].copy_from_slice(&self.parent.to_le_bytes());
        buf[8..16].fill(0);
        let mut off = HEADER_SIZE;
        match &self.entries {
            NodeEntries::Leaf(v) => {
                for e in v {
                    buf[off..off + 8].copy_from_slice(&e.oid.to_le_bytes());
                    encode_rect(&e.rect, &mut buf[off + 8..off + 24]);
                    off += LEAF_ENTRY_SIZE;
                }
            }
            NodeEntries::Internal(v) => {
                for e in v {
                    buf[off..off + 4].copy_from_slice(&e.child.to_le_bytes());
                    encode_rect(&e.rect, &mut buf[off + 4..off + 20]);
                    off += INTERNAL_ENTRY_SIZE;
                }
            }
        }
    }

    /// Deserialize from a page buffer.
    pub fn decode(pid: PageId, buf: &[u8]) -> CoreResult<Node> {
        if buf.len() < HEADER_SIZE {
            return Err(CoreError::CorruptNode {
                pid,
                reason: "page shorter than a node header",
            });
        }
        let magic = buf[0];
        let level = buf[1] as u16;
        let count = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        let parent = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let mut off = HEADER_SIZE;
        match magic {
            MAGIC_LEAF => {
                if level != 0 {
                    return Err(CoreError::CorruptNode {
                        pid,
                        reason: "leaf magic with non-zero level",
                    });
                }
                if count > leaf_capacity(buf.len()) {
                    return Err(CoreError::CorruptNode {
                        pid,
                        reason: "leaf count exceeds capacity",
                    });
                }
                let mut v = Vec::with_capacity(count);
                for _ in 0..count {
                    let oid = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    let rect = decode_rect(&buf[off + 8..off + 24]);
                    v.push(LeafEntry { oid, rect });
                    off += LEAF_ENTRY_SIZE;
                }
                Ok(Node {
                    level,
                    parent,
                    entries: NodeEntries::Leaf(v),
                })
            }
            MAGIC_INTERNAL => {
                if level == 0 {
                    return Err(CoreError::CorruptNode {
                        pid,
                        reason: "internal magic with level 0",
                    });
                }
                if count > internal_capacity(buf.len()) {
                    return Err(CoreError::CorruptNode {
                        pid,
                        reason: "internal count exceeds capacity",
                    });
                }
                let mut v = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
                    let rect = decode_rect(&buf[off + 4..off + 20]);
                    v.push(InternalEntry { child, rect });
                    off += INTERNAL_ENTRY_SIZE;
                }
                Ok(Node {
                    level,
                    parent,
                    entries: NodeEntries::Internal(v),
                })
            }
            _ => Err(CoreError::CorruptNode {
                pid,
                reason: "bad magic byte",
            }),
        }
    }
}

// ---- views --------------------------------------------------------------

/// Check a node page's header as a `leaf` (or internal) node: magic,
/// level and entry count within the page's capacity. Returns the level
/// and the count.
fn check_header(pid: PageId, buf: &[u8], leaf: bool) -> CoreResult<(u16, usize)> {
    let corrupt = |reason| Err(CoreError::CorruptNode { pid, reason });
    if buf.len() < HEADER_SIZE {
        return corrupt("page shorter than a node header");
    }
    let level = u16::from(buf[1]);
    let count = usize::from(u16::from_le_bytes([buf[2], buf[3]]));
    match (buf[0], leaf) {
        (MAGIC_LEAF, true) if level != 0 => corrupt("leaf magic with non-zero level"),
        (MAGIC_LEAF, true) if count > leaf_capacity(buf.len()) => {
            corrupt("leaf count exceeds capacity")
        }
        (MAGIC_INTERNAL, false) if level == 0 => corrupt("internal magic with level 0"),
        (MAGIC_INTERNAL, false) if count > internal_capacity(buf.len()) => {
            corrupt("internal count exceeds capacity")
        }
        (MAGIC_LEAF, true) | (MAGIC_INTERNAL, false) => Ok((level, count)),
        (MAGIC_LEAF, false) => corrupt("leaf where an internal node was expected"),
        (MAGIC_INTERNAL, true) => corrupt("internal node where a leaf was expected"),
        _ => corrupt("bad magic byte"),
    }
}

fn parent_of_page(buf: &[u8]) -> PageId {
    u32::from_le_bytes(buf[4..8].try_into().unwrap())
}

fn set_count(buf: &mut [u8], count: usize) {
    buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
}

fn leaf_slot(i: usize) -> usize {
    HEADER_SIZE + i * LEAF_ENTRY_SIZE
}

fn internal_slot(i: usize) -> usize {
    HEADER_SIZE + i * INTERNAL_ENTRY_SIZE
}

fn read_leaf_entry(buf: &[u8], i: usize) -> LeafEntry {
    leaf_entry(&buf[leaf_slot(i)..leaf_slot(i + 1)])
}

/// The entry in one leaf slot's bytes.
fn leaf_entry(slot: &[u8]) -> LeafEntry {
    LeafEntry {
        oid: u64::from_le_bytes(slot[..8].try_into().unwrap()),
        rect: decode_rect(&slot[8..LEAF_ENTRY_SIZE]),
    }
}

/// The first `len` leaf slots of a page.
fn leaf_slots(buf: &[u8], len: usize) -> std::slice::ChunksExact<'_, u8> {
    buf[HEADER_SIZE..leaf_slot(len)].chunks_exact(LEAF_ENTRY_SIZE)
}

fn write_leaf_entry(buf: &mut [u8], i: usize, e: &LeafEntry) {
    let off = leaf_slot(i);
    buf[off..off + 8].copy_from_slice(&e.oid.to_le_bytes());
    encode_rect(&e.rect, &mut buf[off + 8..off + 24]);
}

fn read_internal_entry(buf: &[u8], i: usize) -> InternalEntry {
    internal_entry(&buf[internal_slot(i)..internal_slot(i + 1)])
}

/// The entry in one internal slot's bytes.
fn internal_entry(slot: &[u8]) -> InternalEntry {
    InternalEntry {
        child: u32::from_le_bytes(slot[..4].try_into().unwrap()),
        rect: decode_rect(&slot[4..INTERNAL_ENTRY_SIZE]),
    }
}

/// The first `len` internal slots of a page.
fn internal_slots(buf: &[u8], len: usize) -> std::slice::ChunksExact<'_, u8> {
    buf[HEADER_SIZE..internal_slot(len)].chunks_exact(INTERNAL_ENTRY_SIZE)
}

fn write_internal_entry(buf: &mut [u8], i: usize, e: &InternalEntry) {
    let off = internal_slot(i);
    buf[off..off + 4].copy_from_slice(&e.child.to_le_bytes());
    encode_rect(&e.rect, &mut buf[off + 4..off + 20]);
}

/// A leaf page read where it lies: over a page latch (`B` is a latch
/// guard) or any byte slice.
pub(crate) struct LeafView<B> {
    buf: B,
    len: usize,
}

impl<B: Deref<Target = [u8]>> LeafView<B> {
    /// Check `buf`'s header as a leaf of page `pid`.
    pub(crate) fn new(pid: PageId, buf: B) -> CoreResult<Self> {
        let (_, len) = check_header(pid, &buf, true)?;
        Ok(Self { buf, len })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The parent pointer ([`INVALID_PAGE`] unless LBU keeps it).
    pub(crate) fn parent(&self) -> PageId {
        parent_of_page(&self.buf)
    }

    /// Entry `i` (panics when `i >= len`, as a slice would).
    pub(crate) fn entry(&self, i: usize) -> LeafEntry {
        assert!(i < self.len, "leaf entry {i} of {}", self.len);
        read_leaf_entry(&self.buf, i)
    }

    /// Index of the entry for `oid`, if present.
    pub(crate) fn find_oid(&self, oid: ObjectId) -> Option<usize> {
        leaf_slots(&self.buf, self.len)
            .position(|slot| u64::from_le_bytes(slot[..8].try_into().unwrap()) == oid)
    }

    /// Tight MBR over all entries ([`Rect::EMPTY`] when empty).
    pub(crate) fn mbr(&self) -> Rect {
        leaf_slots(&self.buf, self.len).fold(Rect::EMPTY, |acc, slot| {
            acc.union(&decode_rect(&slot[8..LEAF_ENTRY_SIZE]))
        })
    }

    /// The entries in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = LeafEntry> + Clone + '_ {
        leaf_slots(&self.buf, self.len).map(leaf_entry)
    }
}

/// An internal page read where it lies; see [`LeafView`].
pub(crate) struct InternalView<B> {
    buf: B,
    len: usize,
    level: u16,
}

impl<B: Deref<Target = [u8]>> InternalView<B> {
    /// Check `buf`'s header as an internal node of page `pid`.
    pub(crate) fn new(pid: PageId, buf: B) -> CoreResult<Self> {
        let (level, len) = check_header(pid, &buf, false)?;
        Ok(Self { buf, len, level })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Level in the tree (at least 1).
    pub(crate) fn level(&self) -> u16 {
        self.level
    }

    /// Entry `i` (panics when `i >= len`, as a slice would).
    pub(crate) fn entry(&self, i: usize) -> InternalEntry {
        assert!(i < self.len, "internal entry {i} of {}", self.len);
        read_internal_entry(&self.buf, i)
    }

    /// Index of the entry pointing at `child`, if present.
    pub(crate) fn find_child(&self, child: PageId) -> Option<usize> {
        self.children().position(|c| c == child)
    }

    /// Tight MBR over all entries ([`Rect::EMPTY`] when empty).
    pub(crate) fn mbr(&self) -> Rect {
        internal_slots(&self.buf, self.len).fold(Rect::EMPTY, |acc, slot| {
            acc.union(&decode_rect(&slot[4..INTERNAL_ENTRY_SIZE]))
        })
    }

    /// The entries in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = InternalEntry> + Clone + '_ {
        internal_slots(&self.buf, self.len).map(internal_entry)
    }

    /// The child page ids in slot order.
    pub(crate) fn children(&self) -> impl Iterator<Item = PageId> + Clone + '_ {
        internal_slots(&self.buf, self.len)
            .map(|slot| u32::from_le_bytes(slot[..4].try_into().unwrap()))
    }
}

/// A node page of either kind, for the code that walks both.
pub(crate) enum NodeView<B> {
    /// A leaf page.
    Leaf(LeafView<B>),
    /// An internal page.
    Internal(InternalView<B>),
}

impl<B: Deref<Target = [u8]>> NodeView<B> {
    /// Check `buf`'s header as a node of page `pid`, of the kind its
    /// magic byte names.
    pub(crate) fn new(pid: PageId, buf: B) -> CoreResult<Self> {
        if buf.first() == Some(&MAGIC_INTERNAL) {
            InternalView::new(pid, buf).map(NodeView::Internal)
        } else {
            LeafView::new(pid, buf).map(NodeView::Leaf)
        }
    }

    /// Level in the tree: 0 for leaves.
    pub(crate) fn level(&self) -> u16 {
        match self {
            NodeView::Leaf(_) => 0,
            NodeView::Internal(v) => v.level(),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            NodeView::Leaf(v) => v.len(),
            NodeView::Internal(v) => v.len(),
        }
    }

    /// Tight MBR over all entries.
    pub(crate) fn mbr(&self) -> Rect {
        match self {
            NodeView::Leaf(v) => v.mbr(),
            NodeView::Internal(v) => v.mbr(),
        }
    }

    /// Copy the node out of the page: for a node about to be rebuilt
    /// from nothing (an overflow's split or forced reinsertion).
    pub(crate) fn to_node(&self) -> Node {
        match self {
            NodeView::Leaf(v) => Node {
                level: 0,
                parent: v.parent(),
                entries: NodeEntries::Leaf(v.iter().collect()),
            },
            NodeView::Internal(v) => Node {
                level: v.level(),
                parent: parent_of_page(&v.buf),
                entries: NodeEntries::Internal(v.iter().collect()),
            },
        }
    }
}

/// A leaf page edited where it lies, under the exclusive latch (`B` is
/// the latch guard): `push` and `swap_remove` act as they do on a `Vec`
/// of the entries, and the count in the header follows.
pub(crate) struct LeafMut<B> {
    buf: B,
    len: usize,
}

impl<B: DerefMut<Target = [u8]>> LeafMut<B> {
    /// Check `buf`'s header as a leaf of page `pid`.
    pub(crate) fn new(pid: PageId, buf: B) -> CoreResult<Self> {
        let (_, len) = check_header(pid, &buf, true)?;
        Ok(Self { buf, len })
    }

    /// The page as it stands.
    pub(crate) fn view(&self) -> LeafView<&[u8]> {
        LeafView {
            buf: &self.buf,
            len: self.len,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Rewrite entry `i`'s rectangle.
    pub(crate) fn set_rect(&mut self, i: usize, rect: Rect) {
        assert!(i < self.len, "leaf entry {i} of {}", self.len);
        let off = leaf_slot(i) + 8;
        encode_rect(&rect, &mut self.buf[off..off + 16]);
    }

    /// Append `entry` (panics on a full page: the caller splits first).
    pub(crate) fn push(&mut self, entry: LeafEntry) {
        assert!(
            self.len < leaf_capacity(self.buf.len()),
            "push onto a full leaf page"
        );
        write_leaf_entry(&mut self.buf, self.len, &entry);
        self.len += 1;
        set_count(&mut self.buf, self.len);
    }

    /// Remove entry `i`, moving the last entry into its slot.
    pub(crate) fn swap_remove(&mut self, i: usize) -> LeafEntry {
        assert!(i < self.len, "leaf entry {i} of {}", self.len);
        let removed = read_leaf_entry(&self.buf, i);
        let last = self.len - 1;
        if i != last {
            self.buf
                .copy_within(leaf_slot(last)..leaf_slot(last + 1), leaf_slot(i));
        }
        self.len = last;
        set_count(&mut self.buf, last);
        removed
    }

    /// Point the leaf at `parent` (LBU's parent pointer).
    pub(crate) fn set_parent(&mut self, parent: PageId) {
        self.buf[4..8].copy_from_slice(&parent.to_le_bytes());
    }
}

/// A run of `swap_remove`s on a leaf, settled at once with the footprint
/// a re-encode of the shrunk leaf leaves: the slots that end up holding an
/// entry are written, and the slots past the new end keep the bytes they
/// had. The GBU sibling shift takes the mover and its piggybacked entries
/// out of the source leaf this way, so the page, and the log delta of it,
/// come out byte for byte as one write of the decoded node would leave
/// them.
pub(crate) struct LeafRemovals<'l, B> {
    leaf: &'l mut LeafMut<B>,
    len: usize,
    /// `(slot, source)`: `slot` now holds the entry the page has at
    /// `source`. Every source lies past the new end, every slot before it.
    moved: Vec<(usize, usize)>,
}

impl<'l, B: DerefMut<Target = [u8]>> LeafRemovals<'l, B> {
    /// Start a run on `leaf`.
    pub(crate) fn new(leaf: &'l mut LeafMut<B>) -> Self {
        let len = leaf.len();
        Self {
            leaf,
            len,
            moved: Vec::new(),
        }
    }

    /// Number of entries left.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn source(&self, i: usize) -> usize {
        self.moved.iter().find(|m| m.0 == i).map_or(i, |m| m.1)
    }

    /// Entry `i` as the run stands.
    pub(crate) fn entry(&self, i: usize) -> LeafEntry {
        assert!(i < self.len, "leaf entry {i} of {}", self.len);
        self.leaf.view().entry(self.source(i))
    }

    /// Remove entry `i`, moving the last entry into its slot.
    pub(crate) fn swap_remove(&mut self, i: usize) -> LeafEntry {
        let removed = self.entry(i);
        let last = self.len - 1;
        let source = self.source(last);
        self.moved.retain(|m| m.0 != i && m.0 != last);
        if i != last {
            self.moved.push((i, source));
        }
        self.len = last;
        removed
    }

    /// Write the run to the page.
    pub(crate) fn finish(self) {
        let buf = &mut *self.leaf.buf;
        for &(slot, source) in &self.moved {
            buf.copy_within(leaf_slot(source)..leaf_slot(source + 1), leaf_slot(slot));
        }
        set_count(buf, self.len);
        self.leaf.len = self.len;
    }
}

/// An internal page edited where it lies; see [`LeafMut`].
pub(crate) struct InternalMut<B> {
    buf: B,
    len: usize,
    level: u16,
}

impl<B: DerefMut<Target = [u8]>> InternalMut<B> {
    /// Check `buf`'s header as an internal node of page `pid`.
    pub(crate) fn new(pid: PageId, buf: B) -> CoreResult<Self> {
        let (level, len) = check_header(pid, &buf, false)?;
        Ok(Self { buf, len, level })
    }

    /// The page as it stands.
    pub(crate) fn view(&self) -> InternalView<&[u8]> {
        InternalView {
            buf: &self.buf,
            len: self.len,
            level: self.level,
        }
    }

    /// Rewrite entry `i`'s rectangle.
    pub(crate) fn set_rect(&mut self, i: usize, rect: Rect) {
        assert!(i < self.len, "internal entry {i} of {}", self.len);
        let off = internal_slot(i) + 4;
        encode_rect(&rect, &mut self.buf[off..off + 16]);
    }

    /// Append `entry` (panics on a full page: the caller splits first).
    pub(crate) fn push(&mut self, entry: InternalEntry) {
        assert!(
            self.len < internal_capacity(self.buf.len()),
            "push onto a full internal page"
        );
        write_internal_entry(&mut self.buf, self.len, &entry);
        self.len += 1;
        set_count(&mut self.buf, self.len);
    }

    /// Remove entry `i`, moving the last entry into its slot.
    pub(crate) fn swap_remove(&mut self, i: usize) -> InternalEntry {
        assert!(i < self.len, "internal entry {i} of {}", self.len);
        let removed = read_internal_entry(&self.buf, i);
        let last = self.len - 1;
        if i != last {
            self.buf.copy_within(
                internal_slot(last)..internal_slot(last + 1),
                internal_slot(i),
            );
        }
        self.len = last;
        set_count(&mut self.buf, last);
        removed
    }
}

fn encode_rect(r: &Rect, buf: &mut [u8]) {
    buf[0..4].copy_from_slice(&r.min_x.to_le_bytes());
    buf[4..8].copy_from_slice(&r.min_y.to_le_bytes());
    buf[8..12].copy_from_slice(&r.max_x.to_le_bytes());
    buf[12..16].copy_from_slice(&r.max_y.to_le_bytes());
}

#[inline]
fn decode_rect(buf: &[u8]) -> Rect {
    Rect::new(
        f32::from_le_bytes(buf[0..4].try_into().unwrap()),
        f32::from_le_bytes(buf[4..8].try_into().unwrap()),
        f32::from_le_bytes(buf[8..12].try_into().unwrap()),
        f32::from_le_bytes(buf[12..16].try_into().unwrap()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fanouts() {
        // 1024-byte pages: leaf fanout 42, internal fanout 50 (paper
        // geometry: 5 levels at 1M objects).
        assert_eq!(leaf_capacity(1024), 42);
        assert_eq!(internal_capacity(1024), 50);
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::new_leaf();
        n.parent = 77;
        for i in 0..10u64 {
            n.leaf_entries_mut().push(LeafEntry::point(
                i,
                Point::new(i as f32 * 0.1, 1.0 - i as f32 * 0.05),
            ));
        }
        let mut buf = vec![0u8; 1024];
        n.encode(&mut buf);
        let back = Node::decode(0, &buf).unwrap();
        assert_eq!(back, n);
        assert_eq!(back.count(), 10);
        assert!(back.is_leaf());
        assert_eq!(back.parent, 77);
        assert_eq!(back.oid_index(7), Some(7));
        assert_eq!(back.oid_index(99), None);
    }

    #[test]
    fn internal_roundtrip() {
        let mut n = Node::new_internal(3);
        for i in 0..20u32 {
            n.internal_entries_mut().push(InternalEntry {
                child: i * 2,
                rect: Rect::new(0.0, 0.0, i as f32, 1.0),
            });
        }
        let mut buf = vec![0u8; 1024];
        n.encode(&mut buf);
        let back = Node::decode(0, &buf).unwrap();
        assert_eq!(back, n);
        assert!(!back.is_leaf());
        assert_eq!(back.level, 3);
        assert_eq!(back.child_index(10), Some(5));
        assert_eq!(back.child_index(11), None);
    }

    #[test]
    fn mbr_is_union() {
        let mut n = Node::new_leaf();
        assert!(n.mbr().is_empty());
        n.leaf_entries_mut()
            .push(LeafEntry::point(1, Point::new(0.2, 0.3)));
        n.leaf_entries_mut()
            .push(LeafEntry::point(2, Point::new(0.8, 0.1)));
        assert_eq!(n.mbr(), Rect::new(0.2, 0.1, 0.8, 0.3));
    }

    #[test]
    fn decode_rejects_garbage() {
        let buf = vec![0u8; 1024];
        assert!(matches!(
            Node::decode(5, &buf),
            Err(CoreError::CorruptNode { pid: 5, .. })
        ));
        let mut buf = vec![0u8; 1024];
        buf[0] = 0xD1;
        buf[1] = 3; // leaf magic with level 3
        assert!(Node::decode(0, &buf).is_err());
        let mut buf = vec![0u8; 1024];
        buf[0] = 0xD2; // internal with level 0
        assert!(Node::decode(0, &buf).is_err());
        let mut buf = vec![0u8; 1024];
        buf[0] = 0xD1;
        buf[2..4].copy_from_slice(&999u16.to_le_bytes()); // count too large
        assert!(Node::decode(0, &buf).is_err());
    }

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rect(rng: &mut StdRng) -> Rect {
        let (x, y): (f32, f32) = (rng.random(), rng.random());
        Rect::new(
            x,
            y,
            x + rng.random::<f32>() * 0.1,
            y + rng.random::<f32>() * 0.1,
        )
    }

    fn random_leaf_entry(rng: &mut StdRng) -> LeafEntry {
        LeafEntry {
            oid: rng.random(),
            rect: random_rect(rng),
        }
    }

    fn random_internal_entry(rng: &mut StdRng) -> InternalEntry {
        InternalEntry {
            child: rng.random(),
            rect: random_rect(rng),
        }
    }

    /// A node page as the engine writes them: `node` encoded over bytes
    /// that are random past its entries.
    fn page_of(rng: &mut StdRng, node: &Node, page_size: usize) -> Vec<u8> {
        let mut page: Vec<u8> = (0..page_size).map(|_| rng.random()).collect();
        node.encode(&mut page);
        page
    }

    fn random_node(rng: &mut StdRng, leaf: bool, page_size: usize) -> Node {
        let parent = rng.random();
        if leaf {
            let n = rng.random_range(0..=leaf_capacity(page_size));
            Node {
                level: 0,
                parent,
                entries: NodeEntries::Leaf((0..n).map(|_| random_leaf_entry(rng)).collect()),
            }
        } else {
            let n = rng.random_range(0..=internal_capacity(page_size));
            Node {
                level: rng.random_range(1..=5),
                parent,
                entries: NodeEntries::Internal(
                    (0..n).map(|_| random_internal_entry(rng)).collect(),
                ),
            }
        }
    }

    /// The `*Mut` views leave exactly the bytes the codec's
    /// decode → `Vec` op → encode leaves, op after op, stale slots past
    /// the count included.
    #[test]
    fn mut_views_match_the_codec_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for round in 0..400 {
            let page_size = if round % 2 == 0 { 1024 } else { 256 };
            let leaf = round % 4 < 2;
            let node = random_node(&mut rng, leaf, page_size);
            let mut view_page = page_of(&mut rng, &node, page_size);
            let mut codec_page = view_page.clone();
            for _ in 0..60 {
                let mut reference = Node::decode(1, &codec_page).unwrap();
                let len = reference.count();
                let cap = reference.capacity(page_size);
                let op = rng.random_range(0..3u8);
                match (&mut reference.entries, op) {
                    (NodeEntries::Leaf(v), 0) if len > 0 => {
                        let (i, r) = (rng.random_range(0..len), random_rect(&mut rng));
                        v[i].rect = r;
                        LeafMut::new(1, &mut view_page[..]).unwrap().set_rect(i, r);
                    }
                    (NodeEntries::Leaf(v), 1) if len < cap => {
                        let e = random_leaf_entry(&mut rng);
                        v.push(e);
                        LeafMut::new(1, &mut view_page[..]).unwrap().push(e);
                    }
                    (NodeEntries::Leaf(v), _) if len > 0 => {
                        let i = rng.random_range(0..len);
                        let removed = v.swap_remove(i);
                        let mut view = LeafMut::new(1, &mut view_page[..]).unwrap();
                        assert_eq!(view.swap_remove(i), removed);
                    }
                    (NodeEntries::Internal(v), 0) if len > 0 => {
                        let (i, r) = (rng.random_range(0..len), random_rect(&mut rng));
                        v[i].rect = r;
                        InternalMut::new(1, &mut view_page[..])
                            .unwrap()
                            .set_rect(i, r);
                    }
                    (NodeEntries::Internal(v), 1) if len < cap => {
                        let e = random_internal_entry(&mut rng);
                        v.push(e);
                        InternalMut::new(1, &mut view_page[..]).unwrap().push(e);
                    }
                    (NodeEntries::Internal(v), _) if len > 0 => {
                        let i = rng.random_range(0..len);
                        let removed = v.swap_remove(i);
                        let mut view = InternalMut::new(1, &mut view_page[..]).unwrap();
                        assert_eq!(view.swap_remove(i), removed);
                    }
                    _ => continue,
                }
                reference.encode(&mut codec_page);
                assert_eq!(view_page, codec_page, "round {round}");
                // The read side agrees with the codec too.
                let back = Node::decode(1, &view_page).unwrap();
                let view = NodeView::new(1, &view_page[..]).unwrap();
                assert_eq!(view.to_node(), back);
                assert_eq!(view.len(), back.count());
                assert_eq!(view.level(), back.level);
                assert_eq!(view.mbr(), back.mbr());
            }
        }
    }

    /// A run of removals settles with the footprint of one re-encode:
    /// the bytes the codec leaves when it writes the node once, after the
    /// same `swap_remove`s on the decoded entries.
    #[test]
    fn a_removal_run_matches_one_reencode() {
        let mut rng = StdRng::seed_from_u64(0xD1);
        for round in 0..400 {
            let page_size = if round % 2 == 0 { 1024 } else { 256 };
            let mut node = random_node(&mut rng, true, page_size);
            let mut page = page_of(&mut rng, &node, page_size);
            let mut reference = page.clone();
            let removals = rng.random_range(0..=node.count().min(5));
            let mut leaf = LeafMut::new(1, &mut page[..]).unwrap();
            let mut run = LeafRemovals::new(&mut leaf);
            for _ in 0..removals {
                let v = node.leaf_entries_mut();
                let i = rng.random_range(0..v.len());
                assert_eq!(run.swap_remove(i), v.swap_remove(i));
                assert_eq!(run.len(), v.len());
                for (j, e) in v.iter().enumerate() {
                    assert_eq!(run.entry(j), *e);
                }
            }
            run.finish();
            assert_eq!(leaf.len(), node.count());
            node.encode(&mut reference);
            assert_eq!(page, reference, "round {round}");
        }
    }

    /// Bit patterns of a rect, so NaNs from hostile bytes compare.
    fn bits(r: &Rect) -> [u32; 4] {
        [r.min_x, r.min_y, r.max_x, r.max_y].map(f32::to_bits)
    }

    /// Mutated valid pages through every view constructor and accessor:
    /// each gives `CorruptNode` or the value the codec decodes, and none
    /// panics or slices out of the page.
    #[test]
    fn hostile_pages_give_corrupt_node_or_the_codecs_value() {
        let mut rng = StdRng::seed_from_u64(0xBAD);
        for round in 0..3_000 {
            let page_size = if round % 2 == 0 { 1024 } else { 256 };
            let node = random_node(&mut rng, round % 3 != 0, page_size);
            let mut page = page_of(&mut rng, &node, page_size);
            for _ in 0..rng.random_range(1..=4) {
                // Mostly the header, where the checks are.
                let at = if rng.random_bool(0.7) {
                    rng.random_range(0..HEADER_SIZE)
                } else {
                    rng.random_range(0..page_size)
                };
                page[at] = rng.random();
            }
            // Sometimes a short buffer: no page is, but neither a view
            // nor the codec may read past what it is given.
            let short = rng.random_bool(0.1);
            let buf = if short {
                &page[..rng.random_range(0..page_size)]
            } else {
                &page[..]
            };
            let decoded = Node::decode(9, buf);
            assert_eq!(
                NodeView::new(9, buf).is_ok(),
                decoded.is_ok(),
                "round {round}"
            );
            let check = |r: CoreResult<()>| match r {
                Err(CoreError::CorruptNode { pid: 9, .. }) | Ok(()) => {}
                Err(e) => panic!("round {round}: {e}"),
            };
            check(NodeView::new(9, buf).map(|view| {
                let node = view.to_node();
                if let Ok(decoded) = &decoded {
                    assert_eq!(node.level, decoded.level);
                    assert_eq!(node.parent, decoded.parent);
                    assert_eq!(node.count(), decoded.count());
                }
                assert_eq!(view.len(), node.count());
                assert_eq!(view.level(), node.level);
                assert_eq!(bits(&view.mbr()), bits(&node.mbr()));
            }));
            check(LeafView::new(9, buf).map(|leaf| {
                let entries: Vec<_> = leaf.iter().collect();
                assert_eq!(entries.len(), leaf.len());
                for (i, e) in entries.iter().enumerate() {
                    assert_eq!(leaf.entry(i).oid, e.oid);
                    assert_eq!(bits(&leaf.entry(i).rect), bits(&e.rect));
                    assert!(leaf.find_oid(e.oid).is_some_and(|j| j <= i));
                }
                let _ = (leaf.parent(), leaf.mbr(), leaf.find_oid(u64::MAX));
            }));
            check(InternalView::new(9, buf).map(|node| {
                let entries: Vec<_> = node.iter().collect();
                assert_eq!(entries.len(), node.len());
                for (i, e) in entries.iter().enumerate() {
                    assert_eq!(node.entry(i).child, e.child);
                    assert!(node.find_child(e.child).is_some_and(|j| j <= i));
                }
                let _ = (node.level(), node.mbr(), node.find_child(u32::MAX));
            }));
            // The mutable views check the same header and stay inside the
            // page through every edit.
            let mut copy = buf.to_vec();
            check(LeafMut::new(9, &mut copy[..]).map(|mut leaf| {
                if leaf.len() > 0 {
                    leaf.set_rect(0, Rect::EMPTY);
                    leaf.swap_remove(leaf.len() - 1);
                }
                if leaf.len() < leaf_capacity(leaf.buf.len()) {
                    leaf.push(LeafEntry::point(1, Point::new(0.5, 0.5)));
                }
                leaf.set_parent(3);
            }));
            let mut copy = buf.to_vec();
            check(InternalMut::new(9, &mut copy[..]).map(|mut node| {
                let len = node.view().len();
                if len > 0 {
                    node.set_rect(0, Rect::EMPTY);
                    node.swap_remove(0);
                }
                if node.view().len() < internal_capacity(node.buf.len()) {
                    node.push(InternalEntry {
                        child: 1,
                        rect: Rect::EMPTY,
                    });
                }
            }));
        }
    }

    #[test]
    #[should_panic(expected = "leaf_entries")]
    fn wrong_kind_access_panics() {
        let n = Node::new_internal(1);
        let _ = n.leaf_entries();
    }
}
