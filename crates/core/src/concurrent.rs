//! The leaf-local concurrent write path: one in-order pass that plans a
//! batch of updates against pinned leaf shadows, then writes through the
//! same pins.
//!
//! [`crate::Bur::apply`] runs this module **under the read side of the
//! structure lock** — several batches on disjoint leaves run at the same
//! time. The path plans bottom-up *updates* only: a move that stays
//! inside its leaf needs that leaf and nothing above it. The path is
//! two-phase:
//!
//! 1. **Plan** ([`SharedPass::plan`], one pass over the ops in batch
//!    order): probe the hash for the object's leaf, get-or-open that
//!    leaf's *shadow* — try to claim the leaf, pin the page, check its
//!    header — and plan the update on the shadow: the entry's new rect,
//!    kept beside the page, which the ladder reads as the page with the
//!    planned rects in place. Pages are read, nothing is written. An update climbs the same ladder as the exclusive engine
//!    ([`bottom_up::step`]): its in-place rungs (2 and 3) and its extend
//!    rung (4) plan here, its top-down rung (1) and every repair
//!    escalate. The parent page is pinned only when an update actually
//!    leaves the leaf's tight MBR (the *official* MBR, the rect stored in
//!    the parent entry, then decides), and it is found the way the
//!    exclusive engine finds it ([`bottom_up::parent_of`]). The pass
//!    **stops at the first op that does not plan** — an insert or a
//!    delete, a leaf another batch has claimed, a sibling shift, an
//!    ascent, a GBU fast mover whose τ policy prefers the shift — and
//!    reports [`Step::Escalate`] at that op: the **whole batch** goes
//!    to the exclusive path with zero pages written, and never retries
//!    the shared path. Every op before it is a planned update, and the
//!    pass keeps those plans ([`SharedPass::into_planned`]): the exclusive
//!    section writes them through the pins the pass took and resumes at
//!    the op that escalated, so each op is paid for once — unless a
//!    write landed after the pass began, and then the section replays
//!    the batch from op 0.
//! 2. **Execute** ([`SharedPass::execute`]): write the planned rects
//!    through the pins the plan took — parent entry first, then the
//!    leaf's entries ("grow before move"), each under its page write
//!    latch. Pins are held from plan to commit; latches never are. The
//!    execute writes pages only: it changes no internal node's MBR (an
//!    extension stays inside its parent's MBR), and the summary keeps no
//!    copy of a leaf's MBR, a root leaf's included, so no main-memory
//!    state of the tree needs refreshing.
//!
//! Because nothing is written until every op has a feasible plan, the
//! one-group-commit-record-per-batch contract survives escalation
//! trivially. An update keeps its object in its leaf, so the hash index,
//! the object count and the summary's fullness bits never change here,
//! and the tree a concurrently applied batch leaves is the one
//! sequential application would, node by node. Containment (parent
//! entry rect ⊇ leaf content) and the stability of every parent *node*
//! MBR hold throughout, which is what keeps the GBU summary exact. The
//! full argument lives in `docs/ARCHITECTURE.md` ("Latching protocol").

use crate::batch::{BatchReport, Op};
use crate::bottom_up::{self, Reads, Rung};
use crate::claims::LeafClaim;
use crate::error::{CoreError, CoreResult};
use crate::index::RTreeIndex;
use crate::node::{InternalMut, InternalView, LeafMut, LeafView, ObjectId};
use crate::pins::{NodePin, PinSet};
use crate::stats::{OpStats, UpdateOutcome};
use bur_geom::{Point, Rect};
use bur_storage::{BufferPool, PageId, PageRef};

/// Verdict of planning a batch; nothing has been written at that point.
pub(crate) enum Step {
    /// Every op planned onto its leaf shadow.
    Applied,
    /// Not leaf-local, or its leaf claimed by another batch: the batch
    /// goes to the exclusive path. The pass stopped at op `k` with every
    /// op before it a planned update, so the exclusive path may keep
    /// those plans ([`SharedPass::into_planned`]) and resume at `k`.
    Escalate(usize),
}

/// The parent side of a leaf shadow, opened only when an update leaves
/// the leaf's tight MBR.
struct ParentShadow {
    /// Index of the pinned parent page in [`SharedPass::parents`].
    page: usize,
    /// Index of the leaf's entry in the parent node.
    pidx: usize,
    /// The parent *node* MBR: the bound on any extension. Stable for the
    /// whole shared phase — concurrent batches only enlarge sibling
    /// entries within it, so the union of the entry rects cannot change.
    bound: Rect,
    /// The official rect as stored when the parent was read.
    stored: Rect,
    /// The official rect after the ops planned so far.
    official: Rect,
}

/// One leaf the pass touches: its pin and the rects the ops planned so
/// far give its entries (its claim is held beside it, in
/// [`SharedPass::claims`]).
struct LeafShadow<'p> {
    page: PageRef<'p>,
    /// The newest of the leaf's planned moves, in the pass's `moves`.
    last_move: Option<usize>,
    /// `None` while every update stayed inside the tight leaf MBR (and
    /// for the root leaf, which has no parent).
    parent: Option<ParentShadow>,
    /// The root leaf of a height-1 tree: no parent entry, no official
    /// rect, and no root-MBR check — every update plans in place and
    /// the leaf's MBR follows its content.
    is_root: bool,
    /// Ops planned onto this leaf, and the batch position of the first.
    ops: u64,
    first_pos: usize,
}

/// A planned entry rect: slot `idx` of a shadow's leaf becomes `rect`.
/// A shadow's moves chain newest first through `prev`, one per slot: a
/// slot planned twice keeps its last rect.
struct Move {
    idx: usize,
    rect: Rect,
    prev: Option<usize>,
}

/// The moves of the shadow whose newest is `last`, newest first.
fn chain(moves: &[Move], last: Option<usize>) -> impl Iterator<Item = &Move> {
    std::iter::successors(last.map(|i| &moves[i]), |m| m.prev.map(|i| &moves[i]))
}

/// What [`SharedPass::execute`] wrote before it finished or failed.
pub(crate) struct Executed {
    /// Ops of those shadows.
    pub(crate) ops: u64,
    /// On a storage failure: the batch position to blame and the error.
    pub(crate) failed: Option<(usize, CoreError)>,
}

/// One batch's trip down the shared write path. Dropping it releases
/// every claim and pin it took, so each early exit backs out in full.
///
/// Two lifetimes: the claims borrow the index (`'i`, the read guard's),
/// the pins borrow the pool (`'p`, a clone of the index's pool `Arc`
/// the caller holds). So the pins — and the plans
/// [`SharedPass::into_planned`] keeps — can outlive the read guard,
/// while the claims cannot.
pub(crate) struct SharedPass<'i, 'p> {
    index: &'i RTreeIndex,
    pool: &'p BufferPool,
    /// Every leaf the pass opened; a batch has no more than it has ops.
    shadows: Vec<LeafShadow<'p>>,
    /// Every shadow's planned moves.
    moves: Vec<Move>,
    /// Distinct parent pages pinned so far; shadows under one parent
    /// share its pin.
    parents: Vec<PageRef<'p>>,
    /// Outcomes of the planned updates, in batch order.
    effects: Vec<UpdateOutcome>,
    /// The claim of every shadow's leaf.
    claims: Vec<LeafClaim<'i>>,
}

impl<'i, 'p> SharedPass<'i, 'p> {
    /// Start a pass over `index` (held under the structure lock's read
    /// side by the caller), pinning pages of `pool`, which must be the
    /// index's own.
    pub(crate) fn new(index: &'i RTreeIndex, pool: &'p BufferPool) -> Self {
        debug_assert!(std::ptr::eq(pool, &*index.tree.pool));
        Self {
            index,
            pool,
            shadows: Vec::new(),
            moves: Vec::new(),
            parents: Vec::new(),
            effects: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Plan `ops` in batch order, up to the first op that does not plan.
    /// `Applied` means every op has a feasible leaf-local plan and
    /// [`SharedPass::execute`] may run; any other verdict means nothing
    /// was (or will be) written. Only a failed hash probe is an error; a
    /// failed node read escalates (it surfaces identically on the
    /// exclusive replay).
    pub(crate) fn plan(&mut self, ops: &[Op]) -> CoreResult<Step> {
        for (pos, op) in ops.iter().enumerate() {
            let (oid, old, new) = match *op {
                Op::Update { oid, old, new } => (oid, old, new),
                Op::Insert { .. } | Op::Delete { .. } => return Ok(Step::Escalate(pos)),
            };
            // An unknown object: the strategy turns it into an error on
            // the exclusive path.
            let Some(pid) = self.index.locate_leaf(oid)? else {
                return Ok(Step::Escalate(pos));
            };
            let Some(slot) = self.open(pid, pos) else {
                return Ok(Step::Escalate(pos));
            };
            if !self.plan_update(slot, oid, old, new) {
                return Ok(Step::Escalate(pos));
            }
            self.shadows[slot].ops += 1;
        }
        Ok(Step::Applied)
    }

    /// Get the shadow of leaf `pid`, opening it on first use: claim the
    /// leaf, pin the page, check it is a leaf. `None` escalates: the
    /// claim is held by another batch or past the table's end, or the
    /// page does not read as a leaf.
    fn open(&mut self, pid: PageId, pos: usize) -> Option<usize> {
        if let Some(slot) = self.shadows.iter().position(|s| s.page.pid() == pid) {
            return Some(slot);
        }
        let tree = &self.index.tree;
        let claim = tree.claims.try_claim(pid)?;
        let page = self.pool.fetch(pid).ok()?;
        // A stale hash entry or a corrupt page; the classic path
        // surfaces the real error.
        LeafView::new(pid, page.read()).ok()?;
        let slot = self.shadows.len();
        self.shadows.push(LeafShadow {
            page,
            last_move: None,
            parent: None,
            is_root: pid == tree.root,
            ops: 0,
            first_pos: pos,
        });
        self.claims.push(claim);
        Some(slot)
    }

    /// Open the parent side of shadow `slot`: locate the parent exactly
    /// as the exclusive engine does ([`bottom_up::parent_of`] — GBU's
    /// summary supplies the bounding parent MBR without blocking on any
    /// writer), pin it (or share the pin another shadow took) and read
    /// the leaf's official rect. `None` means escalate.
    fn open_parent(&mut self, slot: usize) -> Option<&mut ParentShadow> {
        let tree = &self.index.tree;
        let shadow = &mut self.shadows[slot];
        if shadow.parent.is_none() {
            let leaf_pid = shadow.page.pid();
            let leaf_parent = LeafView::new(leaf_pid, shadow.page.read()).ok()?.parent();
            let (ppid, bound) = bottom_up::parent_of(tree, leaf_pid, leaf_parent).ok()?;
            let page = match self.parents.iter().position(|p| p.pid() == ppid) {
                Some(i) => i,
                None => {
                    self.parents.push(self.pool.fetch(ppid).ok()?);
                    self.parents.len() - 1
                }
            };
            let parent = InternalView::new(ppid, self.parents[page].read()).ok()?;
            let pidx = parent.find_child(leaf_pid)?;
            let stored = parent.entry(pidx).rect;
            shadow.parent = Some(ParentShadow {
                page,
                pidx,
                bound: bound.unwrap_or_else(|| parent.mbr()),
                stored,
                official: stored,
            });
        }
        shadow.parent.as_mut()
    }

    /// Climb the ladder ([`bottom_up::step`]) against the shadow: the
    /// in-place and extend rungs plan here (`true`), anything else
    /// escalates.
    fn plan_update(&mut self, slot: usize, oid: ObjectId, old: Point, new: Point) -> bool {
        let page = &self.shadows[slot].page;
        let Some(idx) = LeafView::new(page.pid(), page.read())
            .ok()
            .and_then(|leaf| leaf.find_oid(oid))
        else {
            // Not in the claimed leaf: a stale hash entry; the classic
            // path surfaces the real error.
            return false;
        };
        let index = self.index;
        let is_root = self.shadows[slot].is_root;
        let rung = bottom_up::step(
            &index.tree,
            is_root,
            old,
            new,
            &mut ShadowReads { pass: self, slot },
        );
        let outcome = match rung {
            Ok(Rung::InPlace) => UpdateOutcome::InPlace,
            Ok(Rung::Extend(rect)) => {
                let parent = self.shadows[slot].parent.as_mut();
                parent.expect("rung 4 read the parent").official = rect;
                UpdateOutcome::Extended
            }
            // A top-down update, a repair, or a parent the pass cannot
            // open.
            Ok(Rung::TopDown | Rung::Repair(_)) | Err(()) => return false,
        };
        self.plan_move(slot, idx, Rect::from_point(new));
        self.effects.push(outcome);
        true
    }

    /// Plan slot `idx` of shadow `slot`'s leaf to become `rect`.
    fn plan_move(&mut self, slot: usize, idx: usize, rect: Rect) {
        let last = self.shadows[slot].last_move;
        let mut at = last;
        while let Some(i) = at {
            if self.moves[i].idx == idx {
                self.moves[i].rect = rect;
                return;
            }
            at = self.moves[i].prev;
        }
        self.moves.push(Move {
            idx,
            rect,
            prev: last,
        });
        self.shadows[slot].last_move = Some(self.moves.len() - 1);
    }

    /// The tight MBR of shadow `slot`'s leaf with its planned rects in
    /// place; `None` when the page does not read as a leaf.
    fn tight_mbr(&self, slot: usize) -> Option<Rect> {
        let shadow = &self.shadows[slot];
        let leaf = LeafView::new(shadow.page.pid(), shadow.page.read()).ok()?;
        let planned = |i| chain(&self.moves, shadow.last_move).find(|m| m.idx == i);
        Some(leaf.iter().enumerate().fold(Rect::EMPTY, |acc, (i, e)| {
            acc.union(&planned(i).map_or(e.rect, |m| m.rect))
        }))
    }

    /// Outcomes of the planned updates, in batch order.
    pub(crate) fn effects(&self) -> &[UpdateOutcome] {
        &self.effects
    }

    /// Give up the claims and keep the plans of the ops before `resume`,
    /// the op an escalation stopped at (`Step::Escalate(resume)`):
    /// the shadows they changed — and the one the escalating op only
    /// opened — with the pins of those leaves and their parents, and
    /// their effects.
    pub(crate) fn into_planned(self, resume: usize) -> Planned<'p> {
        debug_assert_eq!(
            self.effects.len(),
            resume,
            "a kept plan is a prefix of updates"
        );
        Planned {
            shadows: self.shadows,
            moves: self.moves,
            parents: self.parents,
            effects: self.effects,
        }
    }

    /// Write the planned shadows through their pins and append every
    /// written page to `written`, the pages the batch's commit logs.
    /// Stops at the first storage failure (a page whose header no longer
    /// checks; unreachable on a healthy pool), reporting what landed
    /// before it.
    ///
    /// # Latch invariants
    ///
    /// The pass holds each leaf's claim and the caller the
    /// structure lock's read side, so the leaf page and the parent's entry *for
    /// this leaf* are owned by this batch. Sibling entries of the same
    /// parent page may be patched by other batches at the same time,
    /// which is why the parent is read-modify-written under one
    /// continuous page write latch. The parent lands first ("grow before
    /// move"): a crash or a concurrent query between the two writes
    /// observes only benign slack — a parent entry rect covering
    /// strictly more than the leaf content — never an object outside its
    /// official MBR.
    pub(crate) fn execute<'s>(&'s self, written: &mut Vec<&'s PageRef<'p>>) -> Executed {
        write_shadows(&self.parents, &self.shadows, &self.moves, written)
    }
}

/// [`SharedPass::execute`] over `shadows`, whose parent pins are
/// `parents` and whose planned rects are `moves`.
fn write_shadows<'s, 'p>(
    parents: &'s [PageRef<'p>],
    shadows: &'s [LeafShadow<'p>],
    moves: &[Move],
    written: &mut Vec<&'s PageRef<'p>>,
) -> Executed {
    let mut done = Executed {
        ops: 0,
        failed: None,
    };
    for shadow in shadows {
        if let Err(e) = write_shadow(parents, shadow, moves, written) {
            done.failed = Some((shadow.first_pos, e));
            break;
        }
        done.ops += shadow.ops;
    }
    done
}

/// Parent entry first, then the leaf's planned entries, each through its
/// pin.
fn write_shadow<'s, 'p>(
    parents: &'s [PageRef<'p>],
    shadow: &'s LeafShadow<'p>,
    moves: &[Move],
    written: &mut Vec<&'s PageRef<'p>>,
) -> CoreResult<()> {
    if let Some(parent) = shadow.parent.as_ref().filter(|p| p.official != p.stored) {
        let page = &parents[parent.page];
        let mut node = InternalMut::new(page.pid(), page.write())?;
        debug_assert_eq!(node.view().entry(parent.pidx).child, shadow.page.pid());
        node.set_rect(parent.pidx, parent.official);
        drop(node);
        written.push(page);
    }
    let mut leaf = LeafMut::new(shadow.page.pid(), shadow.page.write())?;
    for m in chain(moves, shadow.last_move) {
        leaf.set_rect(m.idx, m.rect);
    }
    drop(leaf);
    written.push(&shadow.page);
    Ok(())
}

/// Count planned update outcomes in `report` and in the op stats.
pub(crate) fn tally(effects: &[UpdateOutcome], stats: &OpStats, report: &mut BatchReport) {
    for &outcome in effects {
        report.updated += 1;
        stats.record_update(outcome);
    }
}

/// The updates an escalated batch planned before the op that stopped its
/// pass ([`SharedPass::into_planned`]): their shadows with the pins of
/// the leaves and parents, and their effects. It holds no claim, so it
/// outlives the read guard; the exclusive path writes it only when
/// nothing was written since its pass began, and otherwise drops it
/// unwritten and replays the batch from op 0.
#[derive(Default)]
pub(crate) struct Planned<'p> {
    shadows: Vec<LeafShadow<'p>>,
    moves: Vec<Move>,
    parents: Vec<PageRef<'p>>,
    effects: Vec<UpdateOutcome>,
}

impl<'p> Planned<'p> {
    /// The outcomes of the planned updates, in batch order, for the
    /// exclusive engine to count once the plans are written; it resumes
    /// at the op after the last of them, the one that escalated.
    pub(crate) fn take_effects(&mut self) -> Vec<UpdateOutcome> {
        std::mem::take(&mut self.effects)
    }

    /// Write the shadows the planned ops changed through their pins,
    /// parent before leaf, as the shared execute does, and check every
    /// pin the pass holds into the batch's set `ops` — the written
    /// leaves, the leaf the escalating op only opened, and the parents —
    /// so no op of the batch fetches them again and its commit logs the
    /// written pages through those pins.
    ///
    /// Runs under the structure lock's write side with nothing written
    /// since the pass read the pages, so each shadow is still the page's
    /// state plus the planned ops, and the parent entries it patches are
    /// the ones it read. On an error (a page whose header no longer
    /// checks) the shadows written so far stay touched for the next
    /// commit.
    pub(crate) fn write(self, ops: &mut PinSet<'p>) -> CoreResult<()> {
        let (shadows, opened): (Vec<_>, Vec<_>) = self.shadows.into_iter().partition(|s| s.ops > 0);
        let done = write_shadows(&self.parents, &shadows, &self.moves, &mut Vec::new());
        if let Some((op_index, source)) = done.failed {
            return Err(CoreError::Batch {
                op_index,
                source: Box::new(source),
            });
        }
        let mut patched = vec![false; self.parents.len()];
        for parent in shadows.iter().filter_map(|s| s.parent.as_ref()) {
            patched[parent.page] |= parent.official != parent.stored;
        }
        for (shadows, written) in [(shadows, true), (opened, false)] {
            for shadow in shadows {
                ops.put(NodePin {
                    page: shadow.page,
                    written,
                });
            }
        }
        for (page, written) in self.parents.into_iter().zip(patched) {
            ops.put(NodePin { page, written });
        }
        Ok(())
    }
}

/// The ladder's reads against one shadow: the leaf is open already, the
/// parent opens on first ask. `Err` escalates.
struct ShadowReads<'s, 'i, 'p> {
    pass: &'s mut SharedPass<'i, 'p>,
    slot: usize,
}

impl Reads for ShadowReads<'_, '_, '_> {
    type Error = ();

    fn tight_mbr(&mut self) -> Result<Rect, ()> {
        self.pass.tight_mbr(self.slot).ok_or(())
    }

    fn official(&mut self) -> Result<(Rect, Rect), ()> {
        let parent = self.pass.open_parent(self.slot).ok_or(())?;
        Ok((parent.official, parent.bound))
    }
}
