//! The pin set: every page one exclusive-engine operation asks the pool
//! for, held until the operation ends.
//!
//! The paper prices an update in page accesses, and an operation that
//! reads a page and later rewrites it — or comes back to it while
//! re-inserting the orphans of a dissolved leaf — has accessed it once.
//! A [`PinSet`] makes the engine count the same way. Code that needs a
//! node checks it out with [`PinSet::take`] (a pool fetch only when the
//! operation does not hold the page yet), works on the decoded copy, and
//! checks it back in with [`PinSet::put`] after
//! [`RTree::write_pinned`](crate::tree::RTree::write_pinned) has
//! re-encoded it through the same pin. While a node is checked out nobody
//! else can obtain it, so there is exactly **one decoded copy per page per
//! operation** and it cannot go stale.
//!
//! The set also carries the operation's *own object*: the hash probe that
//! located it (bucket page pinned, slot remembered) and the leaf it ends
//! up on. The object may be placed more than once on its way — appended
//! to a leaf, then moved by that leaf's split — so placements are only
//! noted here, and [`RTree::settle`](crate::tree::RTree::settle) re-points
//! the hash entry once, through the probe's pin, when the operation is
//! done.

use crate::error::CoreResult;
use crate::node::{Node, ObjectId};
use bur_hashindex::Probe;
use bur_storage::{BufferPool, PageId, PageRef};

/// A node decoded from a page that stays pinned; rewritten through the
/// same pin by [`RTree::write_pinned`](crate::tree::RTree::write_pinned).
pub(crate) struct PinnedNode<'p> {
    pub(crate) page: PageRef<'p>,
    pub(crate) node: Node,
}

impl PinnedNode<'_> {
    /// Id of the pinned page.
    pub(crate) fn pid(&self) -> PageId {
        self.page.pid()
    }
}

impl std::ops::Deref for PinnedNode<'_> {
    type Target = Node;

    fn deref(&self) -> &Node {
        &self.node
    }
}

impl std::ops::DerefMut for PinnedNode<'_> {
    fn deref_mut(&mut self) -> &mut Node {
        &mut self.node
    }
}

/// The object an operation moves or inserts.
struct OwnObject<'p> {
    oid: ObjectId,
    /// Where the hash index had it when the operation began (`None` for
    /// an insert: the key is new).
    probe: Option<Probe<'p>>,
    /// The leaf it was last placed on, if the operation moved it.
    leaf: Option<PageId>,
}

/// See the module docs. Borrows the pool (and the probe the hash index),
/// not the tree, so `&mut RTree` stays free for the write hooks: callers
/// clone the two `Arc`s once per operation.
pub(crate) struct PinSet<'p> {
    pool: &'p BufferPool,
    /// Nodes checked in. An operation holds a handful of pages (a
    /// condensing fallback a few dozen), so a scan beats a map.
    held: Vec<PinnedNode<'p>>,
    own: Option<OwnObject<'p>>,
}

impl<'p> PinSet<'p> {
    /// An empty set over `pool`.
    pub(crate) fn new(pool: &'p BufferPool) -> Self {
        Self {
            pool,
            held: Vec::new(),
            own: None,
        }
    }

    /// Check the node on `pid` out of the set, fetching and decoding the
    /// page only when the operation does not hold it yet.
    pub(crate) fn take(&mut self, pid: PageId) -> CoreResult<PinnedNode<'p>> {
        if let Some(i) = self.held.iter().position(|n| n.pid() == pid) {
            return Ok(self.held.swap_remove(i));
        }
        let page = self.pool.fetch(pid)?;
        let node = Node::decode(pid, &page.read())?;
        Ok(PinnedNode { page, node })
    }

    /// Check a node back in. Its decoded copy must equal the page: put it
    /// unchanged, or after `write_pinned`. A node whose page was freed is
    /// dropped instead.
    pub(crate) fn put(&mut self, node: PinnedNode<'p>) {
        debug_assert!(
            self.held.iter().all(|n| n.pid() != node.pid()),
            "page {} decoded twice in one operation",
            node.pid()
        );
        self.held.push(node);
    }

    /// Pin a page that was never read (a split's new half, a fresh
    /// root), overwrite it blind with `node` and check the node in.
    pub(crate) fn put_new(&mut self, pid: PageId, node: Node) -> CoreResult<&Node> {
        let page = self.pool.fetch_for_overwrite(pid)?;
        node.encode(&mut page.write());
        self.put(PinnedNode { page, node });
        Ok(&self.held.last().expect("just pushed").node)
    }

    /// Name the operation's own object, with the probe that found it.
    pub(crate) fn track_own(&mut self, oid: ObjectId, probe: Option<Probe<'p>>) {
        self.own = Some(OwnObject {
            oid,
            probe,
            leaf: None,
        });
    }

    /// `true` when `oid` is the operation's own object.
    pub(crate) fn is_own(&self, oid: ObjectId) -> bool {
        self.own.as_ref().is_some_and(|o| o.oid == oid)
    }

    /// Note that the own object now sits on `leaf`.
    pub(crate) fn place_own(&mut self, leaf: PageId) {
        if let Some(own) = &mut self.own {
            own.leaf = Some(leaf);
        }
    }

    /// Hand over the own object's pending hash placement, if it moved:
    /// `(oid, probe, final leaf)`.
    pub(crate) fn take_placement(&mut self) -> Option<(ObjectId, Option<Probe<'p>>, PageId)> {
        let own = self.own.take()?;
        let leaf = own.leaf?;
        Some((own.oid, own.probe, leaf))
    }
}
