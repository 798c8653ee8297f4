//! The traditional top-down update (the paper's TD baseline).
//!
//! "A traditional R-tree update first carries out a top-down search for
//! the leaf node with the index entry of the object, deletes the entry,
//! and then executes another and separate top-down search for the optimal
//! location in which to insert the entry for the new object." Deletion may
//! trigger CondenseTree reinsertion; insertion may trigger node splits —
//! both are what make TD deteriorate under fast movement (Figure 5(g)).

use crate::error::{CoreError, CoreResult};
use crate::node::{LeafEntry, ObjectId};
use crate::pins::PinSet;
use crate::stats::UpdateOutcome;
use crate::tree::{AnyEntry, RTree};
use bur_geom::Point;

/// The TD strategy's update: delete `oid` at `old`, then insert it at
/// `new` — with the batch's pin set emptied in between, because the
/// paper's baseline pays for "another and separate top-down search";
/// sharing the delete's pins with the insert would price the baseline
/// below the algorithm it stands for.
pub(crate) fn update(
    tree: &mut RTree,
    ops: &mut PinSet<'_>,
    oid: ObjectId,
    old: Point,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    if !tree.delete_object(ops, oid, old)? {
        return Err(CoreError::ObjectNotFound(oid));
    }
    ops.flush();
    tree.insert_object(ops, LeafEntry::point(oid, new))?;
    Ok(UpdateOutcome::TopDown)
}

/// The top-down update within the running operation of `ops` — the
/// bottom-up strategies' fallback. The search, CondenseTree's
/// reinsertions and the final insert walk largely the same few pages,
/// and the set hands each of them out without asking the pool again;
/// the object's hash entry (its probe rides in `ops`) is re-pointed once
/// when the operation settles, never removed.
pub(crate) fn run(
    tree: &mut RTree,
    ops: &mut PinSet<'_>,
    oid: ObjectId,
    old: Point,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    if !tree.delete_object(ops, oid, old)? {
        return Err(CoreError::ObjectNotFound(oid));
    }
    tree.insert(ops, tree.root, AnyEntry::Leaf(LeafEntry::point(oid, new)))?;
    Ok(UpdateOutcome::TopDown)
}
