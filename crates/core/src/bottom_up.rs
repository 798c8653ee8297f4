//! The bottom-up ladder: the leaf-local rungs of Algorithms 1 and 2,
//! written once for both write paths. A move climbs until a rung
//! settles it:
//!
//! 1. GBU, leaf not the root: a target outside the root's MBR, as the
//!    root's entry in the summary table holds it, is a top-down update.
//!    No page is read.
//! 2. The leaf is the root, or its tight MBR covers the target: in
//!    place. The parent is not read.
//! 3. The official rect (the leaf's entry in its parent) covers it: in
//!    place.
//! 4. The ε-enlargement of the official rect (`UpdateStrategy::enlarge`)
//!    covers it: extend; otherwise repair. A GBU fast mover (moved > τ)
//!    is repaired either way, carrying the extension to try after a
//!    failed sibling shift.
//!
//! The shared pass (`concurrent.rs`) plans in place and extend and
//! escalates the rest; [`update`] writes them and hands a repair to
//! `gbu::repair` or `lbu::repair`.

use crate::config::UpdateStrategy;
use crate::error::{CoreError, CoreResult};
use crate::node::ObjectId;
use crate::pins::{NodePin, PinSet};
use crate::stats::UpdateOutcome;
use crate::tree::RTree;
use crate::{gbu, lbu, topdown};
use bur_geom::{Point, Rect};
use bur_storage::{PageId, INVALID_PAGE};

/// The rung that settled a move.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rung {
    /// Rung 1: leave the bottom-up path for a top-down update.
    TopDown,
    /// Rungs 2 and 3: rewrite the entry where it is.
    InPlace,
    /// Rung 4: grow the official rect to this, then rewrite the entry.
    Extend(Rect),
    /// Not leaf-local: remove the entry and run the strategy's repair.
    /// Under GBU, a fast mover's extension to try after a failed shift.
    Repair(Option<Rect>),
}

/// The pages the ladder reads, asked for in rung order, so a move a
/// lower rung settles reads nothing further. Each write path answers
/// from its own pins.
pub(crate) trait Reads {
    /// Why a page could not be read.
    type Error;
    /// The leaf's tight MBR (the leaf page).
    fn tight_mbr(&mut self) -> Result<Rect, Self::Error>;
    /// The leaf's official rect and the bound on its enlargement (the
    /// parent page).
    fn official(&mut self) -> Result<(Rect, Rect), Self::Error>;
}

/// Climb the ladder for a move of one object from `old` to `new` on a
/// leaf of `tree` (`is_root` when the leaf is the root). Writes nothing.
pub(crate) fn step<R: Reads>(
    tree: &RTree,
    is_root: bool,
    old: Point,
    new: Point,
    reads: &mut R,
) -> Result<Rung, R::Error> {
    let strategy = tree.opts.strategy;
    if let (UpdateStrategy::Generalized(_), false) = (strategy, is_root) {
        let summary = tree.summary.as_ref().expect("GBU requires the summary");
        let root = summary.entry(tree.root);
        if !root.is_some_and(|e| e.mbr.contains_point(&new)) {
            return Ok(Rung::TopDown);
        }
    }
    // The root leaf has no parent entry to extend: its MBR follows its
    // content.
    if reads.tight_mbr()?.contains_point(&new) || is_root {
        return Ok(Rung::InPlace);
    }
    let (official, bound) = reads.official()?;
    if official.contains_point(&new) {
        // A previous extension already covers the target.
        return Ok(Rung::InPlace);
    }
    let enlarged = strategy.enlarge(official, bound, new);
    Ok(match strategy {
        // The distance threshold τ (Section 3.2.1 item 2): fast movers
        // try the sibling shift before the extension.
        UpdateStrategy::Generalized(p) if old.distance(&new) > p.distance_threshold => {
            Rung::Repair(enlarged)
        }
        _ => enlarged.map_or(Rung::Repair(None), Rung::Extend),
    })
}

/// Where a leaf's official rect lives: the parent page and, under GBU,
/// the bound on its enlargement. LBU follows the leaf's parent pointer
/// (`leaf_parent`, as the leaf page stores it) and is bounded by the
/// parent node's MBR, known once the page is read (`None`); GBU asks the
/// summary for both and reads nothing.
pub(crate) fn parent_of(
    tree: &RTree,
    leaf_pid: PageId,
    leaf_parent: PageId,
) -> CoreResult<(PageId, Option<Rect>)> {
    match tree.opts.strategy {
        UpdateStrategy::Localized(_) if leaf_parent != INVALID_PAGE => Ok((leaf_parent, None)),
        UpdateStrategy::Localized(_) => Err(CoreError::CorruptNode {
            pid: leaf_pid,
            reason: "LBU leaf without parent pointer",
        }),
        UpdateStrategy::Generalized(_) => {
            let summary = tree.summary.as_ref().expect("GBU requires the summary");
            let parent = summary.find_parent_at(leaf_pid, 1).ok_or_else(|| {
                CoreError::InvariantViolation(format!("summary has no parent for leaf {leaf_pid}"))
            })?;
            let mbr = summary.entry(parent).map(|e| e.mbr).ok_or_else(|| {
                CoreError::InvariantViolation(format!("no summary entry for {parent}"))
            })?;
            Ok((parent, Some(mbr)))
        }
        UpdateStrategy::TopDown => Err(CoreError::InvariantViolation(
            "a top-down index keeps no parent link".into(),
        )),
    }
}

/// Run one bottom-up update (LBU or GBU) on the exclusive engine as one
/// operation of the batch of `ops`: the hash bucket, the leaf, its
/// parent, a shift's sibling and whatever an ascent or a fallback goes on
/// to touch are each asked of the pool once — and not at all when an
/// earlier operation of the batch checked the node in. Alone, an update
/// costs hash probe + leaf = 2 fetches in place, + parent = 3 extended,
/// and with a sibling 4 shifted (the object's hash entry is re-pointed
/// through the probe's pin) — the paper's own accounting with "R/W" as
/// one access.
pub(crate) fn update(
    tree: &mut RTree,
    ops: &mut PinSet<'_>,
    oid: ObjectId,
    old: Point,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    let hash = ops.hash().expect("bottom-up needs the hash index");
    let Some(probe) = hash.probe(oid)? else {
        return Err(CoreError::ObjectNotFound(oid));
    };
    let leaf_pid = probe.value();
    ops.track_own(oid, Some(probe));
    let mut reads = PinnedReads {
        tree,
        ops,
        leaf_pid,
        oid,
        leaf_parent: INVALID_PAGE,
        leaf: None,
        parent: None,
    };
    let rung = step(tree, leaf_pid == tree.root, old, new, &mut reads)?;
    let PinnedReads {
        mut leaf,
        mut parent,
        ops,
        ..
    } = reads;
    let taken = "the ladder read the page";
    let outcome = match rung {
        Rung::TopDown => topdown::run(tree, ops, oid, old, new)?,
        Rung::InPlace => {
            let (leaf, idx) = leaf.as_mut().expect(taken);
            tree.edit_leaf(leaf, |leaf| leaf.set_rect(*idx, Rect::from_point(new)))?;
            UpdateOutcome::InPlace
        }
        Rung::Extend(rect) => {
            let ((leaf, idx), (parent, pidx)) =
                (leaf.as_mut().expect(taken), parent.as_mut().expect(taken));
            // Grow before move: the parent entry lands first.
            tree.edit_internal(parent, |parent| parent.set_rect(*pidx, rect))?;
            tree.edit_leaf(leaf, |leaf| leaf.set_rect(*idx, Rect::from_point(new)))?;
            UpdateOutcome::Extended
        }
        Rung::Repair(extend) => {
            let ((leaf, idx), (parent, pidx)) =
                (leaf.take().expect(taken), parent.take().expect(taken));
            if leaf.leaf()?.len() <= tree.min_fill_leaf() {
                // Removing the entry would underflow the leaf. Nothing
                // was modified: the top-down search finds both pages in
                // the set.
                ops.put(leaf);
                ops.put(parent);
                topdown::run(tree, ops, oid, old, new)?
            } else {
                // The entry leaves the leaf with the repair's own write
                // of it.
                match tree.opts.strategy {
                    UpdateStrategy::Generalized(p) => {
                        gbu::repair(tree, ops, p, (leaf, idx), parent, pidx, oid, new, extend)?
                    }
                    _ => lbu::repair(tree, ops, (leaf, idx), parent, pidx, oid, new)?,
                }
            }
        }
    };
    // Release what the rung left checked out before the hash entry is
    // re-pointed, parent first: the order the pool's LRU list sees.
    for (pin, _) in [parent, leaf].into_iter().flatten() {
        ops.release(pin);
    }
    ops.settle()?;
    Ok(outcome)
}

/// Take the object's entry (slot `idx`) out of the leaf a repair moves
/// it from, check the leaf back into `ops`, and tighten its official
/// rect in `parent` to its content: a stale rect left behind on every
/// departure would ratchet overlap outward with update volume (the
/// paper's Figure 6(f)).
pub(crate) fn release_source<'p>(
    tree: &mut RTree,
    ops: &mut PinSet<'p>,
    (mut leaf, idx): (NodePin<'p>, usize),
    parent: &mut NodePin<'p>,
    pidx: usize,
) -> CoreResult<()> {
    let tight = tree.edit_leaf(&mut leaf, |leaf| {
        leaf.swap_remove(idx);
        leaf.view().mbr()
    })?;
    ops.put(leaf);
    if parent.internal()?.entry(pidx).rect != tight {
        tree.edit_internal(parent, |parent| parent.set_rect(pidx, tight))?;
    }
    Ok(())
}

/// The ladder's reads on the exclusive engine: each page is checked out
/// of the batch's pin set and kept for the writes its rung calls for.
struct PinnedReads<'t, 'o, 'p> {
    tree: &'t RTree,
    ops: &'o mut PinSet<'p>,
    leaf_pid: PageId,
    oid: ObjectId,
    /// The leaf's parent pointer, read with its tight MBR.
    leaf_parent: PageId,
    /// The leaf and the object's entry in it.
    leaf: Option<(NodePin<'p>, usize)>,
    /// The parent and the leaf's entry in it.
    parent: Option<(NodePin<'p>, usize)>,
}

impl Reads for PinnedReads<'_, '_, '_> {
    type Error = CoreError;

    fn tight_mbr(&mut self) -> CoreResult<Rect> {
        let pin = self.ops.take(self.leaf_pid)?;
        let (idx, mbr, parent) = {
            let leaf = pin.leaf()?;
            let idx = leaf.find_oid(self.oid).ok_or(CoreError::CorruptNode {
                pid: self.leaf_pid,
                reason: "hash index points at a leaf without the object",
            })?;
            (idx, leaf.mbr(), leaf.parent())
        };
        self.leaf_parent = parent;
        self.leaf = Some((pin, idx));
        Ok(mbr)
    }

    fn official(&mut self) -> CoreResult<(Rect, Rect)> {
        let (parent_pid, bound) = parent_of(self.tree, self.leaf_pid, self.leaf_parent)?;
        let pin = self.ops.take(parent_pid)?;
        let (pidx, official, bound) = {
            let parent = pin.internal()?;
            let pidx = parent
                .find_child(self.leaf_pid)
                .ok_or(CoreError::CorruptNode {
                    pid: parent_pid,
                    reason: "parent does not list the leaf",
                })?;
            let bound = bound.unwrap_or_else(|| parent.mbr());
            (pidx, parent.entry(pidx).rect, bound)
        };
        self.parent = Some((pin, pidx));
        Ok((official, bound))
    }
}
