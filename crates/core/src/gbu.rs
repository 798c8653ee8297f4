//! Generalized Bottom-Up update — Algorithms 2, 3 and 4 of the paper.
//!
//! GBU removes LBU's parent pointers and instead drives everything off
//! the main-memory summary structure:
//!
//! * the O(1) **root-MBR check** rejects far jumps straight to a top-down
//!   update — rung 1 of the ladder in [`crate::bottom_up`];
//! * `iExtendMBR` (Algorithm 4, [`iextend_mbr`] here) enlarges the leaf
//!   MBR *only in the directions the object moved* and by at most ε,
//!   bounded by the parent MBR taken from the summary — rung 4, through
//!   `UpdateStrategy::enlarge`;
//! * the **distance threshold τ** orders the two local repairs: slow
//!   objects try the extension first (rung 4), fast objects try the
//!   sibling shift first and the extension only after it fails
//!   ([`repair`]);
//! * sibling shifts consult the **leaf bit vector** (no disk reads just to
//!   discover a sibling is full) and **piggyback** other entries that fit
//!   the sibling, tightening the source leaf ([`repair`]);
//! * when the leaf level cannot absorb the move, `FindParent`
//!   (Algorithm 3) walks the summary's ancestor chain — at most *L*
//!   levels — and the object is re-inserted from the lowest ancestor
//!   whose MBR contains the new location ([`repair`]).
//!
//! The in-place rungs and the parent lookup are shared with LBU and with
//! the shared write path; this module keeps only what is GBU's own.

use crate::bottom_up;
use crate::config::GbuParams;
use crate::error::CoreResult;
use crate::node::{LeafEntry, LeafRemovals, ObjectId};
use crate::pins::{NodePin, PinSet};
use crate::stats::UpdateOutcome;
use crate::tree::{AnyEntry, RTree};
use bur_geom::{Point, Rect};
use bur_storage::PageId;
use std::sync::atomic::Ordering;

/// Algorithm 4, `iExtendMBR`: enlarge `leaf` towards `new_loc` only, by
/// at most `eps` per extended side, never beyond `parent`. The result
/// contains `new_loc` only when the extension sufficed; the caller
/// decides what to do otherwise.
///
/// ```
/// use bur_core::iextend_mbr;
/// use bur_geom::{Point, Rect};
///
/// let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
/// // Moving northeast: only the max sides may grow.
/// let r = iextend_mbr(leaf, Point::new(0.62, 0.61), 0.05, Rect::UNIT);
/// assert!(r.contains_point(&Point::new(0.62, 0.61)));
/// assert_eq!((r.min_x, r.min_y), (0.4, 0.4));
/// ```
#[must_use]
pub fn iextend_mbr(leaf: Rect, new_loc: Point, eps: f32, parent: Rect) -> Rect {
    let mut r = leaf;
    if new_loc.x > r.max_x {
        r.max_x = new_loc.x.min(r.max_x + eps).min(parent.max_x).max(r.max_x);
    } else if new_loc.x < r.min_x {
        r.min_x = new_loc.x.max(r.min_x - eps).max(parent.min_x).min(r.min_x);
    }
    if new_loc.y > r.max_y {
        r.max_y = new_loc.y.min(r.max_y + eps).min(parent.max_y).max(r.max_y);
    } else if new_loc.y < r.min_y {
        r.min_y = new_loc.y.max(r.min_y - eps).max(parent.min_y).min(r.min_y);
    }
    r
}

/// GBU's repair of a move the ladder could not settle leaf-locally
/// ([`crate::bottom_up`]): the object's entry is slot `idx` of `leaf`,
/// which `parent` lists at `pidx`. Try the sibling shift; a fast
/// mover whose shift failed then takes the `extend`ed official rect the
/// ladder computed; otherwise ascend to the lowest ancestor within L
/// levels whose MBR contains `new`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repair<'p>(
    tree: &mut RTree,
    ops: &mut PinSet<'p>,
    params: GbuParams,
    (mut leaf, idx): (NodePin<'p>, usize),
    mut parent: NodePin<'p>,
    pidx: usize,
    oid: ObjectId,
    new: Point,
    extend: Option<Rect>,
) -> CoreResult<UpdateOutcome> {
    if try_shift(
        tree,
        ops,
        params,
        (&mut leaf, idx),
        &mut parent,
        pidx,
        oid,
        new,
    )? {
        ops.release(parent);
        ops.release(leaf);
        return Ok(UpdateOutcome::Shifted);
    }

    if let Some(rect) = extend {
        // Fast mover whose shift failed: re-add the entry and extend
        // after all, parent first.
        tree.edit_internal(&mut parent, |parent| parent.set_rect(pidx, rect))?;
        tree.edit_leaf(&mut leaf, |leaf| {
            leaf.swap_remove(idx);
            leaf.push(LeafEntry::point(oid, new));
        })?;
        ops.release(parent);
        ops.release(leaf);
        return Ok(UpdateOutcome::Extended);
    }

    // Ascend. Both pages go back into the set: the re-insert below starts
    // at the parent or above it and may pick this very leaf again.
    let leaf_pid = leaf.pid();
    bottom_up::release_source(tree, ops, (leaf, idx), &mut parent, pidx)?;
    ops.put(parent);
    let max_ascent = params
        .level_threshold
        .unwrap_or(tree.height.saturating_sub(1))
        .min(tree.height.saturating_sub(1));
    let summary = tree.summary.as_ref().expect("GBU requires the summary");
    // The lowest ancestor within L levels that contains the new location;
    // without one (or with L = 0), a standard insert from the root, as
    // Algorithm 3's fallback prescribes.
    let (start, levels) = match summary.find_parent(leaf_pid, new, max_ascent) {
        Some((anc, levels, true)) => (anc, Some(levels)),
        _ => (tree.root, None),
    };
    tree.insert(ops, start, AnyEntry::Leaf(LeafEntry::point(oid, new)))?;
    Ok(UpdateOutcome::Ascended {
        levels: levels.unwrap_or(tree.height - 1),
    })
}

/// Try the sibling shift of the object's entry, slot `idx` of `leaf`. On
/// success writes sibling + leaf + parent (tightened) and returns `true`;
/// on failure leaves all pages untouched.
#[allow(clippy::too_many_arguments)]
fn try_shift<'p>(
    tree: &mut RTree,
    ops: &mut PinSet<'p>,
    params: GbuParams,
    (leaf, idx): (&mut NodePin<'p>, usize),
    parent: &mut NodePin<'p>,
    pidx: usize,
    oid: ObjectId,
    new: Point,
) -> CoreResult<bool> {
    // Candidate siblings: MBR contains the target and the bit vector says
    // they are not full — zero additional disk accesses to select one.
    let leaf_cap = tree.leaf_cap();
    let summary = tree.summary.as_ref().expect("GBU requires the summary");
    let mut best: Option<(PageId, Rect)> = None;
    for (i, e) in parent.internal()?.iter().enumerate() {
        if i == pidx || !e.rect.contains_point(&new) || summary.is_leaf_full(e.child) {
            continue;
        }
        // Prefer the smallest (most specific) containing sibling.
        if best.is_none_or(|(_, r)| e.rect.area() < r.area()) {
            best = Some((e.child, e.rect));
        }
    }
    let Some((sib_pid, sib_rect)) = best else {
        return Ok(false);
    };
    let mut sib = ops.take(sib_pid)?;
    let sib_len = sib.leaf()?.len();
    if sib_len >= leaf_cap {
        // The bit vector is maintained synchronously so this should not
        // happen; stay safe regardless.
        ops.put(sib);
        return Ok(false);
    }
    ops.place(oid, sib_pid)?;

    // Piggybacking (Section 3.2.1 item 4): carry over a few other
    // entries of the source leaf that the sibling MBR already covers,
    // reducing overlap between the two leaves. The transfer is bounded:
    // each moved entry costs a hash-index upsert, so moving everything
    // that fits would trade update I/O for query I/O well past the
    // break-even the paper reports. Never drain the source near its
    // minimum fill (that would set up condense/reinsert storms), never
    // overfill the sibling.
    const MAX_PIGGYBACK: usize = 3;
    let mut carried = [None; MAX_PIGGYBACK];
    let mut moved = 0;
    let min_keep = tree.min_fill_leaf() + 2;
    let tight = tree.edit_leaf(leaf, |leaf| {
        let mut from = LeafRemovals::new(leaf);
        from.swap_remove(idx);
        let mut i = 0;
        while params.piggyback && i < from.len() {
            // The sibling holds its own entries, the mover and the
            // entries carried so far.
            if moved >= MAX_PIGGYBACK || sib_len + 1 + moved >= leaf_cap || from.len() <= min_keep {
                break;
            }
            let e = from.entry(i);
            if sib_rect.contains_rect(&e.rect) {
                from.swap_remove(i);
                carried[moved] = Some(e);
                moved += 1;
            } else {
                i += 1;
            }
        }
        from.finish();
        leaf.view().mbr()
    })?;
    let carried = carried.into_iter().flatten();
    tree.edit_leaf(&mut sib, |to| {
        to.push(LeafEntry::point(oid, new));
        carried.clone().for_each(|e| to.push(e));
    })?;
    for e in carried {
        ops.place(e.oid, sib_pid)?;
    }
    if moved > 0 {
        tree.stats
            .piggybacked
            .fetch_add(moved as u64, Ordering::Relaxed);
    }
    // Tighten the source leaf's official MBR ("After a shift, the leaf's
    // MBR is tightened to reduce overlap"). The sibling's rect already
    // contains everything that moved, so the parent's own MBR can only
    // shrink — no upward propagation is required for correctness, and the
    // summary entry is refreshed by the write hook.
    tree.edit_internal(parent, |parent| parent.set_rect(pidx, tight))?;
    ops.release(sib);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: Rect = Rect::new(0.0, 0.0, 1.0, 1.0);

    #[test]
    fn extends_only_in_movement_direction() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        // Moving northeast: only max_x / max_y may grow.
        let r = iextend_mbr(leaf, Point::new(0.65, 0.62), 0.1, PARENT);
        assert_eq!(r.min_x, 0.4);
        assert_eq!(r.min_y, 0.4);
        assert!((r.max_x - 0.65).abs() < 1e-6);
        assert!((r.max_y - 0.62).abs() < 1e-6);
        assert!(r.contains_point(&Point::new(0.65, 0.62)));
    }

    #[test]
    fn extension_capped_by_epsilon() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        let r = iextend_mbr(leaf, Point::new(0.9, 0.5), 0.1, PARENT);
        // Wanted 0.9 but ε = 0.1 caps the side at 0.7.
        assert!((r.max_x - 0.7).abs() < 1e-6);
        assert!(!r.contains_point(&Point::new(0.9, 0.5)));
    }

    #[test]
    fn extension_capped_by_parent() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        let parent = Rect::new(0.0, 0.0, 0.62, 1.0);
        let r = iextend_mbr(leaf, Point::new(0.65, 0.5), 0.2, parent);
        assert!((r.max_x - 0.62).abs() < 1e-6, "parent bound wins: {r}");
        assert!(!r.contains_point(&Point::new(0.65, 0.5)));
    }

    #[test]
    fn extension_westward_and_south() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        let r = iextend_mbr(leaf, Point::new(0.35, 0.33), 0.1, PARENT);
        assert!((r.min_x - 0.35).abs() < 1e-6);
        assert!((r.min_y - 0.33).abs() < 1e-6);
        assert_eq!(r.max_x, 0.6);
        assert_eq!(r.max_y, 0.6);
    }

    #[test]
    fn point_inside_is_noop() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        let r = iextend_mbr(leaf, Point::new(0.5, 0.5), 0.1, PARENT);
        assert_eq!(r, leaf);
    }

    #[test]
    fn zero_epsilon_never_extends() {
        let leaf = Rect::new(0.4, 0.4, 0.6, 0.6);
        let r = iextend_mbr(leaf, Point::new(0.7, 0.7), 0.0, PARENT);
        assert_eq!(r, leaf);
    }
}
