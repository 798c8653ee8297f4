//! The pin set: every page one exclusive-engine operation asks the pool
//! for, held until the operation ends — and, on a durable index, every
//! page a batch of operations wrote, held until its commit.
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
//! noted here, and [`PinSet::settle`] re-points
//! the hash entry once, through the probe's pin, when the operation is
//! done.
//!
//! A commit logs the bytes of every page the batch wrote. The operation
//! that wrote a page held it pinned a moment earlier, so on a durable
//! index the set keeps the pin of every node it writes and of every hash
//! bucket the hash index hands back, and passes them to the batch's
//! [`CommitSet`] when the operation ends; the commit logs each page
//! through that pin and unpins it. Durability then costs no fetch. A
//! volatile index keeps nothing: each pin drops where the operation lets
//! go of it.

use crate::error::CoreResult;
use crate::node::{Node, ObjectId};
use bur_hashindex::{LinearHashIndex, Probe, Written};
use bur_storage::{BufferPool, PageId, PageRef};
use std::rc::Rc;

/// A node decoded from a page that stays pinned; rewritten through the
/// same pin by [`RTree::write_pinned`](crate::tree::RTree::write_pinned).
/// Once the node is written on a durable index its operation shares the
/// pin, and the page stays pinned until the commit whatever becomes of
/// the decoded copy.
pub(crate) struct PinnedNode<'p> {
    pub(crate) page: Rc<PageRef<'p>>,
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

/// The pins of the pages written on a durable index, kept for the
/// commit: tree nodes and hash buckets.
#[derive(Default)]
struct Kept<'p> {
    nodes: Vec<Rc<PageRef<'p>>>,
    buckets: Vec<PageRef<'p>>,
}

/// See the module docs. Borrows the pool and the hash index, not the
/// tree, so `&mut RTree` stays free for the write hooks: a batch clones
/// the two `Arc`s once and opens every operation's set from its
/// [`CommitSet`].
pub(crate) struct PinSet<'p> {
    pool: &'p BufferPool,
    hash: Option<&'p LinearHashIndex>,
    /// Nodes checked in. An operation holds a handful of pages (a
    /// condensing fallback a few dozen), so a scan beats a map.
    held: Vec<PinnedNode<'p>>,
    own: Option<OwnObject<'p>>,
    /// What the operation wrote, on a durable index; `None` keeps
    /// nothing.
    kept: Option<Kept<'p>>,
}

impl<'p> PinSet<'p> {
    /// The hash index the operation keeps pointing at its objects.
    pub(crate) fn hash(&self) -> Option<&'p LinearHashIndex> {
        self.hash
    }

    /// Check the node on `pid` out of the set, fetching and decoding the
    /// page only when the operation does not hold it yet.
    pub(crate) fn take(&mut self, pid: PageId) -> CoreResult<PinnedNode<'p>> {
        if let Some(i) = self.held.iter().position(|n| n.pid() == pid) {
            return Ok(self.held.swap_remove(i));
        }
        let page = self.pool.fetch(pid)?;
        let node = Node::decode(pid, &page.read())?;
        Ok(PinnedNode {
            page: Rc::new(page),
            node,
        })
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
        let page = Rc::new(self.pool.fetch_for_overwrite(pid)?);
        node.encode(&mut page.write());
        let node = PinnedNode { page, node };
        self.wrote(&node);
        self.put(node);
        Ok(&self.held.last().expect("just pushed").node)
    }

    /// `node` was just re-encoded through its pin: on a durable index,
    /// keep the pin for the commit.
    pub(crate) fn wrote(&mut self, node: &PinnedNode<'p>) {
        if let Some(kept) = &mut self.kept {
            if !kept.nodes.iter().any(|p| Rc::ptr_eq(p, &node.page)) {
                kept.nodes.push(Rc::clone(&node.page));
            }
        }
    }

    /// Name the operation's own object, with the probe that found it.
    pub(crate) fn track_own(&mut self, oid: ObjectId, probe: Option<Probe<'p>>) {
        self.own = Some(OwnObject {
            oid,
            probe,
            leaf: None,
        });
    }

    /// `oid` now sits on `leaf`: re-point its hash entry — unless it is
    /// the operation's own object, which may move again before the
    /// operation ends and is re-pointed once by [`PinSet::settle`].
    pub(crate) fn place(&mut self, oid: ObjectId, leaf: PageId) -> CoreResult<()> {
        match &mut self.own {
            Some(own) if own.oid == oid => {
                own.leaf = Some(leaf);
                Ok(())
            }
            _ => self.hash_insert(oid, leaf),
        }
    }

    /// `true` when `oid` is the operation's own object.
    pub(crate) fn is_own(&self, oid: ObjectId) -> bool {
        self.own.as_ref().is_some_and(|o| o.oid == oid)
    }

    /// End of an operation: point the hash entry of its own object at the
    /// leaf it ended on — through the probe's pin when it has one (no
    /// fetch), as a new key otherwise. Nothing to do when it never left
    /// its leaf.
    pub(crate) fn settle(&mut self) -> CoreResult<()> {
        let Some(OwnObject {
            oid,
            probe,
            leaf: Some(leaf),
        }) = self.own.take()
        else {
            return Ok(());
        };
        match probe {
            Some(probe) if probe.value() == leaf => Ok(()),
            Some(probe) => Ok(probe.set_keeping(leaf, self.buckets())?),
            None => self.hash_insert(oid, leaf),
        }
    }

    /// Point `oid`'s hash entry at `leaf`.
    fn hash_insert(&mut self, oid: ObjectId, leaf: PageId) -> CoreResult<()> {
        if let Some(hash) = self.hash {
            hash.insert_keeping(oid, leaf, self.buckets())?;
        }
        Ok(())
    }

    /// Drop `oid`'s hash entry.
    pub(crate) fn hash_remove(&mut self, oid: ObjectId) -> CoreResult<()> {
        if let Some(hash) = self.hash {
            hash.remove_keeping(oid, self.buckets())?;
        }
        Ok(())
    }

    /// Where the hash index hands the buckets it writes: kept on a
    /// durable index, unpinned on the spot otherwise.
    fn buckets(&mut self) -> Written<'_, 'p> {
        self.kept.as_mut().map(|kept| &mut kept.buckets)
    }
}

/// The batch-level half of the pin set: the pins of every page a batch
/// on the exclusive engine wrote, kept for its commit on a durable index
/// (see the module docs). Each operation opens its [`PinSet`] here and
/// hands it back when it ends; the ops an escalated batch planned on the
/// shared path hand theirs over through [`CommitSet::adopt`].
pub(crate) struct CommitSet<'p> {
    pool: &'p BufferPool,
    hash: Option<&'p LinearHashIndex>,
    /// `None` on a volatile index: there is no commit to keep pins for.
    kept: Option<Kept<'p>>,
}

impl<'p> CommitSet<'p> {
    /// An empty set for a batch over `pool` and `hash`; it keeps pins only
    /// when the index is `durable`.
    pub(crate) fn new(
        pool: &'p BufferPool,
        hash: Option<&'p LinearHashIndex>,
        durable: bool,
    ) -> Self {
        Self {
            pool,
            hash,
            kept: durable.then(Kept::default),
        }
    }

    /// The pin set of the batch's next operation.
    pub(crate) fn begin(&self) -> PinSet<'p> {
        PinSet {
            pool: self.pool,
            hash: self.hash,
            held: Vec::new(),
            own: None,
            kept: self.kept.as_ref().map(|_| Kept::default()),
        }
    }

    /// The operation `ops` ended: keep the pins of what it wrote. Its
    /// other pins drop here, in the order it held them.
    pub(crate) fn end(&mut self, mut ops: PinSet<'p>) {
        if let (Some(batch), Some(op)) = (&mut self.kept, ops.kept.take()) {
            batch.nodes.extend(op.nodes);
            batch.buckets.extend(op.buckets);
        }
    }

    /// Keep pins taken outside any operation of the set: those of a
    /// shared pass's planned prefix, written on the exclusive path. The
    /// commit logs the pages written through them and drops the rest.
    /// A volatile set drops them all here.
    pub(crate) fn adopt(&mut self, pins: impl IntoIterator<Item = PageRef<'p>>) {
        if let Some(kept) = &mut self.kept {
            kept.nodes.extend(pins.into_iter().map(Rc::new));
        }
    }

    /// Every kept pin, one per page, in ascending page order.
    pub(crate) fn into_pins(self) -> Vec<Rc<PageRef<'p>>> {
        let Some(Kept { mut nodes, buckets }) = self.kept else {
            return Vec::new();
        };
        nodes.extend(buckets.into_iter().map(Rc::new));
        nodes.sort_by_key(|p| p.pid());
        nodes.dedup_by_key(|p| p.pid());
        nodes
    }
}
