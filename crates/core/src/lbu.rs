//! Localized Bottom-Up update — Algorithm 1 of the paper.
//!
//! The sequence, kept deliberately faithful:
//!
//! 1. locate the leaf through the object-id hash index;
//! 2. if the new location lies within the leaf MBR → update in place;
//! 3. retrieve the **parent through the leaf's parent pointer**, enlarge
//!    the leaf MBR by ε *equally in all directions* (Kwon-style), bounded
//!    by the parent MBR; if the new location now fits → enlarge + update;
//! 4. if deleting the entry would underflow the leaf → full top-down
//!    update;
//! 5. delete the entry; if a non-full sibling's MBR contains the new
//!    location → insert there;
//! 6. otherwise issue a standard R-tree insert from the root.
//!
//! LBU's structural costs — the parent pointers rewritten on every
//! level-1 split and the sibling pages read just to check fullness — are
//! incurred for real by this implementation; they are the reason the
//! paper finds LBU can lose to TD once a buffer is present (Figure 6(g)).

use crate::error::{CoreError, CoreResult};
use crate::node::{LeafEntry, ObjectId};
use crate::pins::PinSet;
use crate::stats::UpdateOutcome;
use crate::topdown;
use crate::tree::RTree;
use bur_geom::{Point, Rect};
use bur_storage::{PageId, INVALID_PAGE};

/// Run one localized bottom-up update as one operation over one pin set
/// (see [`crate::gbu::update`]).
pub(crate) fn update(
    tree: &mut RTree,
    oid: ObjectId,
    old: Point,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    // Step 1: hash probe for direct leaf access.
    tree.bottom_up_update(oid, |tree, ops, leaf_pid| {
        run(tree, ops, leaf_pid, oid, old, new)
    })
}

fn run(
    tree: &mut RTree,
    ops: &mut PinSet<'_>,
    leaf_pid: PageId,
    oid: ObjectId,
    old: Point,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    let mut leaf = ops.take(leaf_pid)?;
    let Some(idx) = leaf.oid_index(oid) else {
        return Err(CoreError::CorruptNode {
            pid: leaf_pid,
            reason: "hash index points at a leaf without the object",
        });
    };
    let new_rect = Rect::from_point(new);

    // Step 2: in place when the tight leaf MBR already covers the target.
    if leaf.mbr().contains_point(&new) || leaf_pid == tree.root {
        leaf.leaf_entries_mut()[idx].rect = new_rect;
        tree.write_pinned(&leaf);
        return Ok(UpdateOutcome::InPlace);
    }

    // Step 3: read the parent through the leaf's parent pointer.
    let parent_pid = leaf.parent;
    if parent_pid == INVALID_PAGE {
        return Err(CoreError::CorruptNode {
            pid: leaf_pid,
            reason: "LBU leaf without parent pointer",
        });
    }
    let mut parent = ops.take(parent_pid)?;
    let pidx = parent.child_index(leaf_pid).ok_or(CoreError::CorruptNode {
        pid: parent_pid,
        reason: "parent pointer target does not list the leaf",
    })?;
    let official = parent.internal_entries()[pidx].rect;
    if official.contains_point(&new) {
        // A previous enlargement already covers the target: pure in-place.
        leaf.leaf_entries_mut()[idx].rect = new_rect;
        tree.write_pinned(&leaf);
        return Ok(UpdateOutcome::InPlace);
    }
    // Uniform ε-enlargement, clipped to the parent MBR ("In order to
    // preserve the R-tree structure, the expansion of a leaf MBR is
    // bounded by its parent MBR").
    if let Some(enlarged) = tree.opts.strategy.enlarge(official, parent.mbr(), new) {
        parent.internal_entries_mut()[pidx].rect = enlarged;
        tree.write_pinned(&parent);
        leaf.leaf_entries_mut()[idx].rect = new_rect;
        tree.write_pinned(&leaf);
        return Ok(UpdateOutcome::Extended);
    }

    // Step 4: a bottom-up delete must not underflow the leaf.
    if leaf.count() <= tree.min_fill_leaf() {
        // Nothing was modified: the top-down search finds both nodes in
        // the set.
        ops.put(leaf);
        ops.put(parent);
        return topdown::run(tree, ops, oid, old, new);
    }

    // Step 5: delete from the leaf, then look for a sibling whose MBR
    // contains the new location and that is not full. LBU has no bit
    // vector, so each candidate sibling is *read* to check fullness —
    // the extra disk accesses the paper attributes to this strategy.
    leaf.leaf_entries_mut().swap_remove(idx);
    // Tighten the leaf's official MBR in the parent (in memory already);
    // leaving the stale rectangle behind on every departure would make
    // overlap ratchet outward with update volume.
    let tight = leaf.mbr();
    // The leaf is done; a root insert below may pick it again.
    tree.write_pinned(&leaf);
    ops.put(leaf);
    if parent.internal_entries()[pidx].rect != tight {
        parent.internal_entries_mut()[pidx].rect = tight;
        tree.write_pinned(&parent);
    }
    let leaf_cap = tree.leaf_cap();
    for (i, e) in parent.internal_entries().iter().enumerate() {
        if i == pidx || !e.rect.contains_point(&new) {
            continue;
        }
        let mut sib = ops.take(e.child)?;
        if sib.count() < leaf_cap {
            sib.leaf_entries_mut().push(LeafEntry::point(oid, new));
            tree.write_pinned(&sib);
            tree.place(ops, oid, e.child)?;
            return Ok(UpdateOutcome::Shifted);
        }
        // Full: stays in the set, the root insert below may split it.
        ops.put(sib);
    }

    // Step 6: standard insert from the root (the hash entry is refreshed
    // when the operation settles).
    ops.put(parent);
    tree.insert_at_root(ops, LeafEntry::point(oid, new))?;
    Ok(UpdateOutcome::Ascended {
        levels: tree.height - 1,
    })
}
