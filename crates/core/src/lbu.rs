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
//! Steps 1–4 are the ladder LBU shares with GBU and with the shared write
//! path ([`crate::bottom_up`]: step 2 is rung 2, step 3 rungs 3 and 4
//! with `UpdateStrategy::enlarge`'s uniform ε, step 4 its driver's
//! underflow check). Steps 5 and 6 are [`repair`].
//!
//! LBU's structural costs — the parent pointers rewritten on every
//! level-1 split and the sibling pages read just to check fullness — are
//! incurred for real by this implementation; they are the reason the
//! paper finds LBU can lose to TD once a buffer is present (Figure 6(g)).

use crate::bottom_up;
use crate::error::CoreResult;
use crate::node::{LeafEntry, ObjectId};
use crate::pins::{PinSet, PinnedNode};
use crate::stats::UpdateOutcome;
use crate::tree::RTree;
use bur_geom::Point;

/// Steps 5 and 6: `leaf` has already had the object's entry removed,
/// `parent` lists it at `pidx`.
pub(crate) fn repair<'p>(
    tree: &mut RTree,
    ops: &mut PinSet<'p>,
    leaf: PinnedNode<'p>,
    mut parent: PinnedNode<'p>,
    pidx: usize,
    oid: ObjectId,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    // The leaf is done; a root insert below may pick it again.
    bottom_up::release_source(tree, ops, leaf, &mut parent, pidx);
    // Step 5: look for a sibling whose MBR contains the new location and
    // that is not full. LBU has no bit vector, so each candidate sibling
    // is *read* to check fullness — the extra disk accesses the paper
    // attributes to this strategy.
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
