//! The pin set: every node page a batch on the exclusive engine asks the
//! pool for, held until the batch commits.
//!
//! The paper prices an update in page accesses, and an operation that
//! reads a page and later rewrites it — or comes back to it while
//! re-inserting the orphans of a dissolved leaf — has accessed it once.
//! A [`PinSet`] makes the engine count the same way, and a batch with it:
//! the set lives for the whole batch, so a page one operation checked in
//! costs the batch's later operations no second fetch. Code that needs a
//! node checks its pin out with [`PinSet::take`] (a pool fetch only when
//! the batch does not hold the page yet), reads it through a view under
//! the page's shared latch and edits it in place under the exclusive
//! latch ([`NodePin`]), and checks the pin back in with [`PinSet::put`].
//! The page bytes are the only copy of the node, so nothing can go stale:
//! every engine write lands on the page itself. A freed page leaves the
//! set when it is freed ([`PinSet::let_go`]), so a page the batch
//! reallocates comes back only as the node written over it through
//! [`PinSet::pin_new`].
//!
//! The set also carries the running operation's *own object*: the hash
//! probe that located it (bucket page pinned, slot remembered) and the
//! leaf it ends up on. The object may be placed more than once on its
//! way — appended to a leaf, then moved by that leaf's split — so
//! placements are only noted here, and [`PinSet::settle`] re-points the
//! hash entry once, through the probe's pin, when the operation is done.
//! Only this state is per operation.
//!
//! An operation lets go of a page it is done with through
//! [`PinSet::release`]: the set keeps it for the batch's later
//! operations, and the batch's last operation — which has none —
//! unpins it on the spot. A batch of one therefore pins and unpins
//! exactly as a lone operation always has, which is why the
//! per-outcome fetch table (`tests/fetch_budget.rs`, measured on batches
//! of one) and the single-update figures do not move.
//!
//! A commit logs the bytes of every page the batch wrote, so each pin
//! carries a *written* mark, and on a durable index the set keeps the pin
//! of every written page it lets go of and of every hash bucket the hash
//! index hands back; [`PinSet::into_pins`] gives the commit all of them,
//! and it logs each page through its pin. Durability then costs no fetch.
//! A volatile index keeps nothing for a commit.

use crate::error::CoreResult;
use crate::node::{InternalMut, InternalView, LeafMut, LeafView, Node, NodeView, ObjectId};
use bur_hashindex::{LinearHashIndex, Probe, Written};
use bur_storage::{BufferPool, PageId, PageReadLatch, PageRef, PageWriteLatch};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A node page the batch holds pinned. It is read through a view under
/// the page's shared latch and edited in place under the exclusive one;
/// take one latch at a time (an S latch held into an X latch on the same
/// frame deadlocks).
pub(crate) struct NodePin<'p> {
    pub(crate) page: PageRef<'p>,
    /// Written through during this batch: its commit logs it.
    pub(crate) written: bool,
}

impl NodePin<'_> {
    /// Id of the pinned page.
    pub(crate) fn pid(&self) -> PageId {
        self.page.pid()
    }

    /// The node, of either kind, under the shared latch.
    pub(crate) fn view(&self) -> CoreResult<NodeView<PageReadLatch<'_>>> {
        NodeView::new(self.pid(), self.page.read())
    }

    /// The leaf under the shared latch.
    pub(crate) fn leaf(&self) -> CoreResult<LeafView<PageReadLatch<'_>>> {
        LeafView::new(self.pid(), self.page.read())
    }

    /// The internal node under the shared latch.
    pub(crate) fn internal(&self) -> CoreResult<InternalView<PageReadLatch<'_>>> {
        InternalView::new(self.pid(), self.page.read())
    }

    /// The leaf under the exclusive latch; marks the page written.
    pub(crate) fn leaf_mut(&mut self) -> CoreResult<LeafMut<PageWriteLatch<'_>>> {
        self.written = true;
        LeafMut::new(self.page.pid(), self.page.write())
    }

    /// The internal node under the exclusive latch; marks the page
    /// written.
    pub(crate) fn internal_mut(&mut self) -> CoreResult<InternalMut<PageWriteLatch<'_>>> {
        self.written = true;
        InternalMut::new(self.page.pid(), self.page.write())
    }

    /// Overwrite the whole page with `node` under the exclusive latch and
    /// hand the result to `note`; marks the page written.
    pub(crate) fn overwrite(&mut self, node: &Node, note: impl FnOnce(&NodeView<&[u8]>)) {
        self.written = true;
        let mut data = self.page.write();
        node.encode(&mut data);
        note(&NodeView::new(self.page.pid(), &*data).expect("an encoded node checks"));
    }
}

/// Page ids are dense `u32`s, so one multiply spreads them over the
/// table: the set looks one up on every check-out and check-in, where
/// SipHash would cost more than the fetches the set saves.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only page ids are hashed")
    }

    fn write_u32(&mut self, pid: u32) {
        self.0 = u64::from(pid).wrapping_mul(0x9E37_79B9_7F4A_7C15);
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

/// See the module docs. Borrows the pool and the hash index, not the
/// tree, so `&mut RTree` stays free for the write hooks.
pub(crate) struct PinSet<'p> {
    pool: &'p BufferPool,
    hash: Option<&'p LinearHashIndex>,
    /// Checked-in pins, in the order the batch unpins them.
    held: Vec<NodePin<'p>>,
    /// Where each checked-in page sits in `held`: an escalated
    /// 1 024-insert batch holds about a thousand nodes.
    at: HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>,
    /// The running operation's own object.
    own: Option<OwnObject<'p>>,
    /// The running operation is the batch's last.
    last: bool,
    /// Pins a durable commit logs through that no checked-in node holds:
    /// written pages let go of, and hash buckets. `None` keeps nothing.
    kept: Option<Vec<PageRef<'p>>>,
}

impl<'p> PinSet<'p> {
    /// An empty set for a batch over `pool` and `hash`; it keeps pins
    /// for a commit only when the index is `durable`. Until
    /// [`PinSet::begin_op`] says otherwise, every operation is the last.
    pub(crate) fn new(
        pool: &'p BufferPool,
        hash: Option<&'p LinearHashIndex>,
        durable: bool,
    ) -> Self {
        Self {
            pool,
            hash,
            held: Vec::new(),
            at: HashMap::default(),
            own: None,
            last: true,
            kept: durable.then(Vec::new),
        }
    }

    /// The hash index the batch keeps pointing at its objects.
    pub(crate) fn hash(&self) -> Option<&'p LinearHashIndex> {
        self.hash
    }

    /// The batch's next operation starts; `last` when no other follows.
    pub(crate) fn begin_op(&mut self, last: bool) {
        self.last = last;
    }

    /// Check the pin of `pid` out of the set, fetching the page only
    /// when the batch does not hold it yet.
    pub(crate) fn take(&mut self, pid: PageId) -> CoreResult<NodePin<'p>> {
        if let Some(i) = self.at.remove(&pid) {
            let pin = self.held.swap_remove(i);
            if let Some(moved) = self.held.get(i) {
                self.at.insert(moved.pid(), i);
            }
            return Ok(pin);
        }
        Ok(NodePin {
            page: self.pool.fetch(pid)?,
            written: false,
        })
    }

    /// Check a pin back in.
    pub(crate) fn put(&mut self, pin: NodePin<'p>) {
        let twice = self.at.insert(pin.pid(), self.held.len());
        debug_assert!(twice.is_none(), "page {} checked in twice", pin.pid());
        self.held.push(pin);
    }

    /// Pin a page that was never read (a split's new half, a fresh
    /// root), for the caller to overwrite blind and check in.
    pub(crate) fn pin_new(&mut self, pid: PageId) -> CoreResult<NodePin<'p>> {
        Ok(NodePin {
            page: self.pool.fetch_for_overwrite(pid)?,
            written: false,
        })
    }

    /// The operation is done with `pin`: check it in for the batch's
    /// later operations, or — in its last — let go of it now.
    pub(crate) fn release(&mut self, pin: NodePin<'p>) {
        if self.last {
            self.let_go(pin);
        } else {
            self.put(pin);
        }
    }

    /// Let go of `pin` for the rest of the batch — released by its last
    /// operation, or its page freed: a later `take` fetches the page
    /// again. A written page keeps its pin for a durable commit.
    pub(crate) fn let_go(&mut self, pin: NodePin<'p>) {
        if let (true, Some(kept)) = (pin.written, &mut self.kept) {
            kept.push(pin.page);
        }
    }

    /// Let go of every checked-in pin, in the order they were held: the
    /// top-down baseline's separate insert search starts from nothing.
    pub(crate) fn flush(&mut self) {
        self.at.clear();
        for pin in std::mem::take(&mut self.held) {
            self.let_go(pin);
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
        self.kept.as_mut()
    }

    /// The batch is over: every pin a durable commit logs through, one
    /// per page, in ascending page order. The other pins drop here, the
    /// checked-in ones in the order they were held.
    pub(crate) fn into_pins(self) -> Vec<PageRef<'p>> {
        let Some(mut pins) = self.kept else {
            return Vec::new();
        };
        pins.extend(
            self.held
                .into_iter()
                .filter(|pin| pin.written)
                .map(|pin| pin.page),
        );
        pins.sort_by_key(PageRef::pid);
        pins.dedup_by_key(|pin| pin.pid());
        pins
    }
}
