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
use crate::pins::{NodePin, PinSet};
use crate::stats::UpdateOutcome;
use crate::tree::{AnyEntry, RTree};
use bur_geom::Point;

/// Steps 5 and 6: the object's entry is slot `idx` of `leaf`, which
/// `parent` lists at `pidx`.
pub(crate) fn repair<'p>(
    tree: &mut RTree,
    ops: &mut PinSet<'p>,
    leaf: (NodePin<'p>, usize),
    mut parent: NodePin<'p>,
    pidx: usize,
    oid: ObjectId,
    new: Point,
) -> CoreResult<UpdateOutcome> {
    // The leaf is done; a root insert below may pick it again.
    bottom_up::release_source(tree, ops, leaf, &mut parent, pidx)?;
    // Step 5: look for a sibling whose MBR contains the new location and
    // that is not full. LBU has no bit vector, so each candidate sibling
    // is *read* to check fullness — the extra disk accesses the paper
    // attributes to this strategy.
    let leaf_cap = tree.leaf_cap();
    let siblings = parent.internal()?.len();
    for i in 0..siblings {
        let e = parent.internal()?.entry(i);
        if i == pidx || !e.rect.contains_point(&new) {
            continue;
        }
        let mut sib = ops.take(e.child)?;
        if sib.leaf()?.len() < leaf_cap {
            tree.edit_leaf(&mut sib, |sib| sib.push(LeafEntry::point(oid, new)))?;
            ops.place(oid, e.child)?;
            ops.release(sib);
            ops.release(parent);
            return Ok(UpdateOutcome::Shifted);
        }
        // Full: stays in the set, the root insert below may split it.
        ops.put(sib);
    }

    // Step 6: standard insert from the root (the hash entry is refreshed
    // when the operation settles).
    ops.put(parent);
    tree.insert(ops, tree.root, AnyEntry::Leaf(LeafEntry::point(oid, new)))?;
    Ok(UpdateOutcome::Ascended {
        levels: tree.height - 1,
    })
}
