//! The leaf-local concurrent write path: one in-order pass that plans a
//! batch against pinned leaf shadows, then writes through the same pins.
//!
//! [`crate::Bur::apply`] runs this module **under the read side of the
//! structure lock** — several batches on disjoint leaves run
//! at the same time. A batch may mix bottom-up updates, inserts whose
//! target leaf is chosen by a read-only containment-constrained descent,
//! and deletes located through the object-id hash. The path is two-phase:
//!
//! 1. **Plan** ([`SharedPass::plan`], one pass over the ops in batch
//!    order): probe the hash for the op's leaf, get-or-open that leaf's
//!    *shadow* — try to claim the leaf, pin the page, decode it — and
//!    apply the op to the shadow. Pages are read, nothing is written.
//!    Every op must resolve leaf-locally — updates to `InPlace` or
//!    `Extended`, inserts to an append whose official-rect growth stays
//!    inside the parent node MBR, deletes to a removal that keeps the
//!    leaf at or above min-fill. An update climbs the same ladder as the
//!    exclusive engine ([`bottom_up::step`]): its in-place rungs (2 and
//!    3) and its extend rung (4) plan here, its top-down rung (1) and
//!    every repair escalate. The parent page is pinned only when an op
//!    actually leaves the leaf's tight MBR (the *official* MBR, the
//!    rect stored in the parent entry, then decides), and it is found
//!    the way the exclusive engine finds it ([`bottom_up::parent_of`]).
//!    The pass **stops at the first op that cannot stay leaf-local**: an
//!    insert into a leaf that was full when the pass opened it reports
//!    [`Step::MakeRoom`] (the caller splits that one leaf under a short
//!    exclusive section, its own commit, and retries), a refused claim
//!    reports [`Step::Refused`], and anything else (sibling shift,
//!    ascent, a GBU fast mover whose τ policy prefers the shift, a leaf
//!    the batch's own inserts filled) reports [`Step::Escalate`] — the
//!    **whole batch** goes to the exclusive path with zero pages
//!    written. When every op before the one that stopped it is a planned
//!    update, the pass keeps those plans ([`SharedPass::into_planned`]):
//!    the exclusive section writes them through the pins the pass took
//!    and resumes at the op that escalated, so each op is paid for once —
//!    unless a write landed after the pass began, and then the section
//!    replays the batch from op 0.
//! 2. **Execute** ([`SharedPass::execute`]): write the final shadow
//!    states through the pins the plan took — parent entry first, then
//!    the leaf ("grow before move"), each under its page write latch —
//!    then refresh the leaf's hash entries, the summary fullness bit
//!    and, for a root-leaf shadow, the seqlock root MBR. Pins are held
//!    from plan to commit; latches never are.
//!
//! Because nothing is written until every op has a feasible plan, the
//! one-group-commit-record-per-batch contract survives escalation
//! trivially. A concurrently applied batch produces the *logical* state
//! sequential application would — the same object set, each object at
//! the position its own op sequence dictates. The physical arrangement
//! may differ in benign slack only: a delete does not re-tighten the
//! parent entry rect the way CondenseTree would, and an insert lands in
//! the leaf the pre-batch tree suggested. Containment (parent entry rect
//! ⊇ leaf content) and the stability of every parent *node* MBR hold
//! throughout, which is what keeps the GBU summary exact. The full
//! argument lives in `docs/ARCHITECTURE.md` ("Latching protocol").

use crate::batch::{BatchReport, Op};
use crate::bottom_up::{self, Reads, Rung};
use crate::claims::{LeafClaim, Unclaimable};
use crate::error::{CoreError, CoreResult};
use crate::index::RTreeIndex;
use crate::node::{LeafEntry, Node, ObjectId};
use crate::pins::{PinSet, PinnedNode};
use crate::stats::{OpStats, UpdateOutcome};
use crate::tree::RTree;
use bur_geom::{Point, Rect};
use bur_storage::{BufferPool, PageId, PageRef};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// What one planned op will do (stats + report accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpEffect {
    /// An update, with the outcome class it resolved to.
    Update(UpdateOutcome),
    /// An insert.
    Insert,
    /// A delete.
    Delete,
}

/// Verdict of planning one op. Every verdict but `Applied` ends the
/// pass; nothing has been written at that point.
pub(crate) enum Step {
    /// Planned onto its leaf shadow.
    Applied,
    /// An insert found this leaf full when the pass opened it: split it
    /// under a short exclusive section (a content-neutral preparatory
    /// split) and retry.
    MakeRoom(PageId),
    /// Not leaf-local: the batch goes to the exclusive path. `Some(k)`
    /// when the pass stopped at op `k` with every op before it a planned
    /// update: the exclusive path may keep those plans
    /// ([`SharedPass::into_planned`]) and resume at `k`. `None` replays
    /// from op 0.
    Escalate(Option<usize>),
    /// The leaf is claimed by another batch: back out and retry.
    Refused,
}

/// Where an op lands, before any leaf is opened.
enum Located {
    /// On this leaf.
    Leaf(PageId),
    /// Nowhere: a delete of an unknown object — counted and skipped,
    /// exactly as sequential application counts it in `missing_deletes`
    /// and writes nothing.
    Nowhere,
    /// The shared path cannot place it faithfully, and the batch
    /// escalates: an update of an unknown object (the strategy turns it
    /// into an error on the exclusive path); an insert of an existing
    /// object or with an invalid rect (sequential `insert_rect` rejects
    /// both); an insert no leaf can take without enlarging an internal
    /// entry; an op on an object inserted earlier in this same batch
    /// (the pre-batch hash cannot place it).
    Unplaceable,
}

/// The parent side of a leaf shadow, opened only when an op leaves the
/// leaf's tight MBR.
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

/// One leaf the pass touches: its pin and the node state after the ops
/// planned so far (its claim is held beside it, in
/// [`SharedPass::claims`]).
struct LeafShadow<'p> {
    page: PageRef<'p>,
    leaf: Node,
    /// `None` while every op stayed inside the tight leaf MBR (and for
    /// the root leaf, which has no parent).
    parent: Option<ParentShadow>,
    /// The root leaf of a height-1 tree: no parent entry, no min-fill
    /// floor, no official rect — the root MBR simply follows the content
    /// and is published at execute time through the summary seqlock
    /// (the leaf's claim makes it the single writer the seqlock needs).
    is_root: bool,
    /// Ops planned onto this leaf, and the batch position of the first.
    ops: u64,
    first_pos: usize,
    /// Objects to point at this leaf in the hash index (inserts) and to
    /// drop from it (deletes).
    hash_add: Vec<ObjectId>,
    hash_del: Vec<ObjectId>,
    /// Net object-count change (inserts − deletes), applied at commit.
    len_delta: i64,
}

/// What [`SharedPass::execute`] wrote before it finished or failed.
pub(crate) struct Executed {
    /// Ops of those shadows.
    pub(crate) ops: u64,
    /// Net object-count change of those shadows.
    pub(crate) len_delta: i64,
    /// On a storage failure: the batch position to blame and the error.
    pub(crate) failed: Option<(usize, crate::error::CoreError)>,
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
    shadows: Vec<LeafShadow<'p>>,
    shadow_of: HashMap<PageId, usize>,
    /// Distinct parent pages pinned so far; shadows under one parent
    /// share its pin.
    parents: Vec<PageRef<'p>>,
    /// Effects of the planned ops, in batch order.
    effects: Vec<OpEffect>,
    /// Objects inserted earlier in this batch: the pre-batch hash cannot
    /// place them, so a later op on one escalates.
    inserted_here: HashSet<ObjectId>,
    /// Deletes of unknown objects (counted, never escalated: sequential
    /// application counts them too and writes nothing).
    pub(crate) missing_deletes: u64,
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
            shadow_of: HashMap::new(),
            parents: Vec::new(),
            effects: Vec::new(),
            inserted_here: HashSet::new(),
            missing_deletes: 0,
            claims: Vec::new(),
        }
    }

    /// Plan `ops` in batch order. `Applied` means every op has a feasible
    /// leaf-local plan and [`SharedPass::execute`] may run; any other
    /// verdict means nothing was (or will be) written. Only a failed hash
    /// probe or insert descent is an error; a failed node read escalates
    /// (it surfaces identically on the exclusive replay).
    ///
    /// The pass ends at the first op that escalates — unless an insert
    /// is still to come. An insert can turn the batch's verdict into
    /// make-room, and make-room has a fixed rank: below an op that cannot
    /// be placed at all ([`Located::Unplaceable`]), above an
    /// escalation on a leaf first touched later. So from the first
    /// failure on a leaf the pass only *scans*: it keeps locating the
    /// remaining ops, and keeps planning those on leaves first touched
    /// before the failed one, so the verdict is the one the leaves would
    /// give planned one by one in first-touch order. A batch of updates
    /// (the paper's traffic) never scans.
    ///
    /// An escalation that ends the pass at op `k` with every op before it
    /// a planned update carries `k` (see [`Step::Escalate`]).
    pub(crate) fn plan(&mut self, ops: &[Op]) -> CoreResult<Step> {
        let last_insert = ops.iter().rposition(|op| matches!(op, Op::Insert { .. }));
        // The lowest failed shadow and its verdict.
        let mut failed: Option<(usize, Step)> = None;
        let mut updates_only = true;
        for (pos, op) in ops.iter().enumerate() {
            // What an escalation at this op keeps.
            let keep = (updates_only && failed.is_none()).then_some(pos);
            updates_only &= matches!(op, Op::Update { .. });
            let pid = match self.locate(op)? {
                Located::Leaf(pid) => pid,
                Located::Nowhere => continue,
                Located::Unplaceable => return Ok(Step::Escalate(keep)),
            };
            let slot = match failed {
                None => match self.open(pid, pos) {
                    Ok(slot) => slot,
                    Err(Step::Escalate(_)) => return Ok(Step::Escalate(keep)),
                    Err(verdict) => return Ok(verdict),
                },
                Some((limit, _)) => match self.shadow_of.get(&pid) {
                    Some(&slot) if slot < limit => slot,
                    _ => continue,
                },
            };
            let verdict = match *op {
                Op::Update { oid, old, new } => self.plan_update(slot, oid, old, new),
                Op::Insert { oid, rect } => self.plan_insert(slot, oid, rect),
                Op::Delete { oid, position } => self.plan_delete(slot, oid, position),
            };
            match verdict {
                Step::Applied => self.shadows[slot].ops += 1,
                Step::Escalate(_) if last_insert.is_none_or(|at| at <= pos) => {
                    return Ok(Step::Escalate(keep));
                }
                verdict => failed = Some((slot, verdict)),
            }
        }
        // A leaf below min-fill needs CondenseTree (non-leaf-local).
        // Checked once its ops are all planned, so a delete and a later
        // insert on one leaf cancel out.
        let min_fill = self.index.tree.min_fill_leaf();
        let planned = failed
            .as_ref()
            .map_or(self.shadows.len(), |&(slot, _)| slot);
        if self.shadows[..planned]
            .iter()
            .any(|s| !s.is_root && s.leaf.count() < min_fill)
        {
            return Ok(Step::Escalate(None));
        }
        Ok(failed.map_or(Step::Applied, |(_, verdict)| verdict))
    }

    /// Find the leaf `op` lands on: updates and deletes through the hash
    /// index, inserts through a read-only containment-constrained descent
    /// (`locate_insert_leaf`).
    fn locate(&mut self, op: &Op) -> CoreResult<Located> {
        let (Op::Update { oid, .. } | Op::Insert { oid, .. } | Op::Delete { oid, .. }) = *op;
        if self.inserted_here.contains(&oid) {
            return Ok(Located::Unplaceable);
        }
        let held = self.index.locate_leaf(oid)?;
        Ok(match (*op, held) {
            (Op::Update { .. } | Op::Delete { .. }, Some(pid)) => Located::Leaf(pid),
            (Op::Update { .. }, None) => Located::Unplaceable,
            (Op::Delete { .. }, None) => {
                self.missing_deletes += 1;
                Located::Nowhere
            }
            (Op::Insert { rect, .. }, None) if rect.is_valid() => {
                match self.index.locate_insert_leaf(&rect)? {
                    Some(pid) => {
                        self.inserted_here.insert(oid);
                        Located::Leaf(pid)
                    }
                    None => Located::Unplaceable,
                }
            }
            (Op::Insert { .. }, _) => Located::Unplaceable,
        })
    }

    /// Get the shadow of leaf `pid`, opening it on first use: claim the
    /// leaf, pin the page, decode the node. A leaf the claim table does
    /// not cover escalates.
    fn open(&mut self, pid: PageId, pos: usize) -> Result<usize, Step> {
        if let Some(&slot) = self.shadow_of.get(&pid) {
            return Ok(slot);
        }
        let tree = &self.index.tree;
        let claim = tree.claims.try_claim(pid).map_err(|e| match e {
            Unclaimable::Held => Step::Refused,
            Unclaimable::Untracked => Step::Escalate(None),
        })?;
        let page = self.pool.fetch(pid).map_err(|_| Step::Escalate(None))?;
        let leaf = Node::decode(pid, &page.read()).map_err(|_| Step::Escalate(None))?;
        if !leaf.is_leaf() {
            // Stale hash entry; the classic path surfaces the real error.
            return Err(Step::Escalate(None));
        }
        let slot = self.shadows.len();
        self.shadows.push(LeafShadow {
            page,
            leaf,
            parent: None,
            is_root: pid == tree.root,
            ops: 0,
            first_pos: pos,
            hash_add: Vec::new(),
            hash_del: Vec::new(),
            len_delta: 0,
        });
        self.claims.push(claim);
        self.shadow_of.insert(pid, slot);
        Ok(slot)
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
            let (ppid, bound) = bottom_up::parent_of(tree, leaf_pid, &shadow.leaf).ok()?;
            let page = match self.parents.iter().position(|p| p.pid() == ppid) {
                Some(i) => i,
                None => {
                    self.parents.push(self.pool.fetch(ppid).ok()?);
                    self.parents.len() - 1
                }
            };
            let parent = Node::decode(ppid, &self.parents[page].read()).ok()?;
            if parent.is_leaf() {
                return None;
            }
            let pidx = parent.child_index(leaf_pid)?;
            let stored = parent.internal_entries()[pidx].rect;
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
    /// in-place and extend rungs plan here, anything else escalates.
    fn plan_update(&mut self, slot: usize, oid: ObjectId, old: Point, new: Point) -> Step {
        let Some(idx) = self.shadows[slot].leaf.oid_index(oid) else {
            // Not in the claimed leaf (duplicate-update races cannot
            // happen under the claim, so this is an earlier same-batch
            // delete or corruption); the classic path resolves it.
            return Step::Escalate(None);
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
            Ok(Rung::TopDown | Rung::Repair(_)) | Err(()) => return Step::Escalate(None),
        };
        self.shadows[slot].leaf.leaf_entries_mut()[idx].rect = Rect::from_point(new);
        self.effects.push(OpEffect::Update(outcome));
        Step::Applied
    }

    fn plan_insert(&mut self, slot: usize, oid: ObjectId, rect: Rect) -> Step {
        let shadow = &mut self.shadows[slot];
        let cap = self.index.tree.leaf_cap();
        if shadow.leaf.count() >= cap {
            // Only a leaf that was full on its page can be split for room;
            // one this batch's own inserts filled is not full there, and
            // a make-room section would find nothing to split.
            let full_on_page = shadow.leaf.count() as i64 - shadow.len_delta >= cap as i64;
            return if full_on_page {
                Step::MakeRoom(shadow.page.pid())
            } else {
                Step::Escalate(None)
            };
        }
        // The tight MBR lies inside the official rect, so a rect it
        // covers cannot grow the parent entry.
        if !shadow.is_root && !shadow.leaf.mbr().contains_rect(&rect) {
            let Some(parent) = self.open_parent(slot) else {
                return Step::Escalate(None);
            };
            if !parent.official.contains_rect(&rect) {
                let grown = parent.official.union(&rect);
                if !parent.bound.contains_rect(&grown) {
                    // Would grow an ancestor MBR: off the shared path.
                    return Step::Escalate(None);
                }
                parent.official = grown;
            }
        }
        let shadow = &mut self.shadows[slot];
        shadow.leaf.leaf_entries_mut().push(LeafEntry { oid, rect });
        shadow.hash_add.push(oid);
        shadow.len_delta += 1;
        self.effects.push(OpEffect::Insert);
        Step::Applied
    }

    fn plan_delete(&mut self, slot: usize, oid: ObjectId, position: Point) -> Step {
        let shadow = &mut self.shadows[slot];
        let Some(idx) = shadow.leaf.oid_index(oid) else {
            return Step::Escalate(None);
        };
        if !shadow.leaf.leaf_entries()[idx]
            .rect
            .contains_point(&position)
        {
            // The sequential FindLeaf descent might miss this entry
            // (stated position outside its rect): escalate so the result
            // stays exactly sequential.
            return Step::Escalate(None);
        }
        shadow.leaf.leaf_entries_mut().swap_remove(idx);
        shadow.hash_del.push(oid);
        shadow.len_delta -= 1;
        self.effects.push(OpEffect::Delete);
        Step::Applied
    }

    /// Effects of the planned ops, in batch order.
    pub(crate) fn effects(&self) -> &[OpEffect] {
        &self.effects
    }

    /// Give up the claims and keep the plans of the ops before `resume`,
    /// the op an escalation stopped at (`Step::Escalate(Some(resume))`):
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
            parents: self.parents,
            effects: self.effects,
        }
    }

    /// Write the planned shadows through their pins and append every
    /// written page to `written`, the pages the batch's commit logs.
    /// Stops at the first storage failure (a hash-index write;
    /// unreachable on a healthy pool), reporting what landed before it.
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
    /// official MBR. The hash entries, summary fullness bit and (root
    /// leaf) seqlock root MBR are refreshed after the leaf write: they
    /// are main-memory state rebuilt on recovery, so crash ordering does
    /// not apply, and the leaf claim serializes them per leaf.
    pub(crate) fn execute<'s>(&'s self, written: &mut Vec<&'s PageRef<'p>>) -> Executed {
        write_shadows(&self.index.tree, &self.parents, &self.shadows, written)
    }
}

/// [`SharedPass::execute`] over `shadows`, whose parent pins are
/// `parents`.
fn write_shadows<'s, 'p>(
    tree: &RTree,
    parents: &'s [PageRef<'p>],
    shadows: &'s [LeafShadow<'p>],
    written: &mut Vec<&'s PageRef<'p>>,
) -> Executed {
    let mut done = Executed {
        ops: 0,
        len_delta: 0,
        failed: None,
    };
    for shadow in shadows {
        // Once the leaf is written its ops count as applied, even if
        // refreshing the memory state then fails.
        let wrote = write_shadow(parents, shadow, written);
        if wrote.is_ok() {
            done.ops += shadow.ops;
            done.len_delta += shadow.len_delta;
        }
        if let Err(e) = wrote.and_then(|()| refresh_memory_state(tree, shadow)) {
            done.failed = Some((shadow.first_pos, e));
            break;
        }
    }
    done
}

/// Parent entry first, then the leaf, each through its pin.
fn write_shadow<'s, 'p>(
    parents: &'s [PageRef<'p>],
    shadow: &'s LeafShadow<'p>,
    written: &mut Vec<&'s PageRef<'p>>,
) -> CoreResult<()> {
    if let Some(parent) = shadow.parent.as_ref().filter(|p| p.official != p.stored) {
        let page = &parents[parent.page];
        {
            let mut data = page.write();
            let mut node = Node::decode(page.pid(), &data)?;
            debug_assert_eq!(
                node.internal_entries()[parent.pidx].child,
                shadow.page.pid()
            );
            node.internal_entries_mut()[parent.pidx].rect = parent.official;
            node.encode(&mut data);
        }
        written.push(page);
    }
    // The shadow is the complete new leaf state.
    shadow.leaf.encode(&mut shadow.page.write());
    written.push(&shadow.page);
    Ok(())
}

/// Hash entries, fullness bit and root MBR of a written shadow.
fn refresh_memory_state(tree: &RTree, shadow: &LeafShadow<'_>) -> CoreResult<()> {
    let leaf_pid = shadow.page.pid();
    if let Some(h) = &tree.hash {
        for &oid in &shadow.hash_add {
            h.insert(oid, leaf_pid)?;
        }
        for &oid in &shadow.hash_del {
            h.remove(oid)?;
        }
    }
    if let Some(s) = &tree.summary {
        if shadow.len_delta != 0 {
            let full = shadow.leaf.count() >= tree.leaf_cap();
            let registered = s.set_leaf_full_shared(leaf_pid, full);
            debug_assert!(registered, "concurrent leaf vanished from the summary");
        }
        if shadow.is_root {
            s.publish_root_mbr(shadow.leaf.mbr());
        }
    }
    Ok(())
}

/// Count planned effects in `report` and in the op stats.
pub(crate) fn tally(effects: &[OpEffect], stats: &OpStats, report: &mut BatchReport) {
    for effect in effects {
        match effect {
            OpEffect::Update(outcome) => {
                report.updated += 1;
                stats.record_update(*outcome);
            }
            OpEffect::Insert => {
                report.inserted += 1;
                stats.inserts.fetch_add(1, Ordering::Relaxed);
            }
            OpEffect::Delete => {
                report.deleted += 1;
                stats.deletes.fetch_add(1, Ordering::Relaxed);
            }
        }
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
    parents: Vec<PageRef<'p>>,
    effects: Vec<OpEffect>,
}

impl<'p> Planned<'p> {
    /// The effects of the planned ops, in batch order, for the exclusive
    /// engine to count once the plans are written; it resumes at the op
    /// after the last of them, the one that escalated.
    pub(crate) fn take_effects(&mut self) -> Vec<OpEffect> {
        std::mem::take(&mut self.effects)
    }

    /// Write the shadows the planned ops changed through their pins,
    /// parent before leaf, as the shared execute does, and check every
    /// node the pass holds into the batch's set `ops` — the written
    /// leaves, the leaf the escalating op only opened, and the parents,
    /// decoded from their pins — so no op of the batch fetches them
    /// again and its commit logs the written pages through those pins.
    ///
    /// Runs under the structure lock's write side with nothing written
    /// since the pass read the pages, so each shadow is still the page's
    /// state plus the planned ops, and the parent entries it patches are
    /// the ones it read. On an error (a parent page that no longer
    /// decodes) the shadows written so far stay touched for the next
    /// commit.
    pub(crate) fn write(self, tree: &RTree, ops: &mut PinSet<'p>) -> CoreResult<()> {
        let (shadows, opened): (Vec<_>, Vec<_>) = self.shadows.into_iter().partition(|s| s.ops > 0);
        let done = write_shadows(tree, &self.parents, &shadows, &mut Vec::new());
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
                ops.put(PinnedNode {
                    page: shadow.page,
                    node: shadow.leaf,
                    written,
                });
            }
        }
        for (page, written) in self.parents.into_iter().zip(patched) {
            let node = Node::decode(page.pid(), &page.read())?;
            ops.put(PinnedNode {
                page,
                node,
                written,
            });
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
        Ok(self.pass.shadows[self.slot].leaf.mbr())
    }

    fn official(&mut self) -> Result<(Rect, Rect), ()> {
        let parent = self.pass.open_parent(self.slot).ok_or(())?;
        Ok((parent.official, parent.bound))
    }
}
