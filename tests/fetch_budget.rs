//! Page-fetch budgets, as the paper states them.
//!
//! The paper counts an update in page accesses: hash probe 1, read/write
//! leaf 2 — so 3 for an in-place move, more for a sibling shift. A
//! buffer-pool *fetch* is this codebase's unit for "the update touched a
//! page", and an operation asks the pool for a page once however often it
//! comes back to it: every page it reads, rewrites or re-reads — tree
//! nodes and the object's hash bucket alike — is checked out of the
//! operation's one pin set. So the budgets here are the paper's numbers
//! with "R/W" collapsed to one fetch:
//!
//! | outcome                | fetches                                   |
//! |------------------------|-------------------------------------------|
//! | in place               | probe + leaf = 2 (3 when only the parent's rect for the leaf, left wider by an earlier extension or departure, covers the target: the parent holds that rect) |
//! | extended               | + parent = 3                              |
//! | shifted                | + sibling = 4 (the hash entry is re-pointed through the probe's pin), +1 hash upsert per piggybacked entry |
//! | ascended, no split     | probe, leaf, parent, new leaf = 4, + 2 per further level ascended (the ancestor, and one more node on the way back down), + 1 per ancestor above that whose rect is adjusted: ≤ 6 for one level in a tree of height ≤ 4 |
//! | ascended, splitting    | + the new half, + 1 hash upsert per object the split re-homes (half a leaf): a mean bound |
//! | top-down fallback      | 1 hash upsert per orphan CondenseTree re-inserts (irreducible: each orphan's bucket is its own) + the pages of the search, the re-insertion paths and the final insert, each once: ≤ orphans + 4·height + 1 when nothing splits, and a mean bound overall |
//!
//! Everything runs on a `MemDisk` with the tree resident; counts come
//! from `Bur::io_snapshot` and repeat exactly.
//!
//! The second half checks that **no pin outlives `apply`**, whichever
//! way the call leaves the shared write path.

use bur::prelude::*;
use bur::storage::{FaultKind, FaultyDisk};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Object counts for which every object-id hash probe is exactly one
/// fetch (no key sits in an overflow page), so a budget can be stated
/// per operation: 8 200 objects make a three-level tree, 1 050 a
/// two-level one. Updates never add or remove keys, so the property
/// holds for a whole update stream; `assert_single_fetch_probes`
/// re-checks it should the hash function or its load factor change.
const THREE_LEVELS: u64 = 8_200;
const TWO_LEVELS: u64 = 1_050;

/// The paper's default movement bound.
const MAX_DISTANCE: f32 = 0.06;

fn start_position(oid: u64) -> Point {
    Point::new(
        (oid.wrapping_mul(2_654_435_761) % 10_007) as f32 / 10_007.0,
        (oid.wrapping_mul(40_503) % 10_009) as f32 / 10_009.0,
    )
}

/// A volatile in-memory index of `n` scattered objects, tree resident.
fn build(opts: IndexOptions, n: u64) -> (Bur, Vec<Point>) {
    let bur = IndexBuilder::with_options(opts)
        .buffer_frames(16_384)
        .build()
        .unwrap();
    let positions: Vec<Point> = (0..n).map(start_position).collect();
    let mut batch = Batch::new();
    for (oid, &p) in positions.iter().enumerate() {
        batch.insert(oid as u64, p);
    }
    bur.apply(&batch).unwrap();
    (bur, positions)
}

fn fetches(bur: &Bur) -> u64 {
    bur.io_snapshot().fetches
}

fn pinned(bur: &Bur) -> usize {
    bur.with_index(|index| index.pool().pinned_frames())
}

/// Tight MBR of the leaf currently holding `oid`, read off its page.
fn leaf_mbr(bur: &Bur, oid: u64) -> Rect {
    bur.with_index(|index| {
        let pid = index.locate_leaf(oid).unwrap().expect("indexed");
        let page = index.pool().fetch(pid).unwrap();
        let node = bur::core::Node::decode(pid, &page.read()).unwrap();
        node.mbr()
    })
}

fn assert_single_fetch_probes(bur: &Bur, n: u64) {
    bur.with_index(|index| {
        for oid in 0..n {
            let before = index.io_stats().snapshot().fetches;
            index.locate_leaf(oid).unwrap().expect("indexed");
            let cost = index.io_stats().snapshot().fetches - before;
            assert_eq!(
                cost, 1,
                "object {oid}'s hash probe walks an overflow chain: pick another object count"
            );
        }
    });
}

fn random_move(rng: &mut StdRng, from: Point, max: f32) -> Point {
    Point::new(
        (from.x + rng.random_range(-max..max)).clamp(0.0, 1.0),
        (from.y + rng.random_range(-max..max)).clamp(0.0, 1.0),
    )
}

/// Mean fetches a restructuring outcome may cost: a split re-homes half
/// a 42-entry leaf and a condensed leaf orphans up to 16 objects, one
/// hash upsert each, so these are held as means, not per operation.
const ASCENDED_SPLITTING_MEAN: f64 = 30.0;
const FALLBACK_MEAN: f64 = 45.0;

/// Per-class tally; `over_budget` is the worst excess over a
/// per-operation budget (`u64::MAX` = the class is held by its mean).
#[derive(Default, Clone, Copy)]
struct Class {
    count: u64,
    total: u64,
    worst: u64,
    over_budget: u64,
    /// Orphans re-inserted (fallbacks): one hash upsert each.
    orphans: u64,
}

impl Class {
    fn record(&mut self, cost: u64, budget: u64, orphans: u64) {
        self.count += 1;
        self.total += cost;
        self.worst = self.worst.max(cost);
        self.over_budget = self.over_budget.max(cost.saturating_sub(budget));
        self.orphans += orphans;
    }

    fn mean(&self) -> f64 {
        self.total as f64 / self.count.max(1) as f64
    }
}

/// Run `updates` single updates on the exclusive engine and hold every
/// one to its outcome's budget (module docs). Also checks that the
/// stream exercised the pin set's hard cases — a fallback that condensed
/// a leaf, and one whose re-insertions or final insert split a node —
/// and that no page stayed pinned after any update.
fn single_update_budgets(opts: IndexOptions, n: u64, updates: usize, seed: u64) {
    let (bur, mut positions) = build(opts, n);
    assert_single_fetch_probes(&bur, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut classes: HashMap<&'static str, Class> = HashMap::new();
    let (mut condensing_fallbacks, mut splitting_fallbacks) = (0, 0);
    for _ in 0..updates {
        let oid = rng.random_range(0..n);
        let old = positions[oid as usize];
        let new = random_move(&mut rng, old, MAX_DISTANCE);
        let leaf_covers = leaf_mbr(&bur, oid).contains_point(&new);
        let height = u64::from(bur.height());
        let ops_before = bur.with_op_stats(|s| s.snapshot());
        let before = fetches(&bur);
        let outcome = bur
            .with_index_mut(|index| index.update(oid, old, new))
            .unwrap();
        let cost = fetches(&bur) - before;
        let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
        positions[oid as usize] = new;
        assert_eq!(pinned(&bur), 0, "{outcome:?} left a page pinned");
        let restructured = ops.splits + ops.condenses + ops.forced_reinserts > 0;
        let (label, budget) = match outcome {
            UpdateOutcome::InPlace if leaf_covers => ("in place", 2),
            UpdateOutcome::InPlace => ("in place, parent's rect", 3),
            UpdateOutcome::Extended => ("extended", 3),
            UpdateOutcome::Shifted => ("shifted", 4 + ops.piggybacked),
            UpdateOutcome::Ascended { levels } if !restructured => {
                let levels = u64::from(levels);
                let budget = 4 + 2 * (levels - 1) + (height - 1 - levels);
                match levels {
                    1 => ("ascended one level", budget),
                    _ => ("ascended further", budget),
                }
            }
            UpdateOutcome::Ascended { .. } => ("ascended, splitting", u64::MAX),
            UpdateOutcome::TopDown => {
                condensing_fallbacks += u64::from(ops.condenses > 0);
                splitting_fallbacks += u64::from(ops.condenses > 0 && ops.splits > 0);
                let budget = match ops.splits {
                    0 => ops.reinserted_entries + 4 * height + 1,
                    _ => u64::MAX,
                };
                ("top-down fallback", budget)
            }
        };
        classes
            .entry(label)
            .or_default()
            .record(cost, budget, ops.reinserted_entries);
    }
    bur.validate().unwrap();

    println!("{} — fetches per single update:", opts.strategy.name());
    for label in [
        "in place",
        "in place, parent's rect",
        "extended",
        "shifted",
        "ascended one level",
        "ascended further",
        "ascended, splitting",
        "top-down fallback",
    ] {
        let c = classes.get(label).copied().unwrap_or_default();
        if c.count == 0 {
            continue;
        }
        print!(
            "  {label:<24} n={:<6} mean {:>6.2}  worst {}",
            c.count,
            c.mean(),
            c.worst
        );
        if label == "top-down fallback" {
            let orphans = c.orphans as f64 / c.count as f64;
            print!(
                "  = {orphans:.1} orphans' hash upserts + {:.1} other",
                c.mean() - orphans
            );
        }
        println!();
        assert_eq!(c.over_budget, 0, "{label}: an update went over its budget");
    }
    for label in [
        "in place",
        "in place, parent's rect",
        "extended",
        "shifted",
        "ascended one level",
        "ascended, splitting",
        "top-down fallback",
    ] {
        assert!(
            classes.contains_key(label),
            "the stream never produced a {label} update"
        );
    }
    for (label, bound) in [
        ("ascended, splitting", ASCENDED_SPLITTING_MEAN),
        ("top-down fallback", FALLBACK_MEAN),
    ] {
        let mean = classes[label].mean();
        assert!(mean <= bound, "{label}: mean {mean:.2} fetches > {bound}");
    }
    assert!(
        condensing_fallbacks > 0,
        "no fallback condensed a leaf: its pins went untested"
    );
    assert!(
        splitting_fallbacks > 0,
        "no fallback split a node while re-inserting: its pins went untested"
    );
}

#[test]
fn gbu_single_updates_stay_within_the_papers_budgets() {
    single_update_budgets(IndexOptions::generalized(), THREE_LEVELS, 20_000, 7);
}

#[test]
fn lbu_single_updates_stay_within_the_papers_budgets() {
    // Two levels: LBU ascends by re-inserting from the root, so "one
    // level" means the root is the parent.
    single_update_budgets(IndexOptions::localized(), TWO_LEVELS, 20_000, 11);
}

/// The objects of `n` grouped by the leaf holding them.
fn by_leaf(bur: &Bur, n: u64) -> Vec<Vec<u64>> {
    let mut leaves: HashMap<u32, Vec<u64>> = HashMap::new();
    bur.with_index(|index| {
        for oid in 0..n {
            let pid = index.locate_leaf(oid).unwrap().expect("indexed");
            leaves.entry(pid).or_default().push(oid);
        }
    });
    let mut leaves: Vec<Vec<u64>> = leaves.into_values().collect();
    leaves.sort();
    leaves
}

/// 32 updates that each move an object to the midpoint between itself
/// and a neighbour in its own leaf — inside the leaf's tight MBR by
/// convexity, so every one stays in place.
fn in_place_batch(bur: &Bur, positions: &mut [Point], n: u64) -> Batch {
    let mut batch = Batch::new();
    for leaf in by_leaf(bur, n).iter().filter(|l| l.len() >= 2).take(32) {
        let (a, b) = (leaf[0] as usize, leaf[1] as usize);
        let mid = Point::new(
            (positions[a].x + positions[b].x) / 2.0,
            (positions[a].y + positions[b].y) / 2.0,
        );
        batch.update(a as u64, positions[a], mid);
        positions[a] = mid;
    }
    assert_eq!(batch.len(), 32);
    batch
}

#[test]
fn an_in_place_batch_costs_two_fetches_per_op_on_the_shared_path() {
    let (bur, mut positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    assert_single_fetch_probes(&bur, THREE_LEVELS);
    let batch = in_place_batch(&bur, &mut positions, THREE_LEVELS);
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    let before = fetches(&bur);
    let ticket = bur.apply(&batch).unwrap();
    let cost = fetches(&bur) - before;
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert_eq!(ticket.report().updated, 32);
    assert_eq!(ops.upd_in_place, 32);
    assert_eq!(ops.escalations, 0, "the batch left the shared path");
    assert!(cost <= 2 * 32, "{cost} fetches for 32 in-place updates");
    assert_eq!(pinned(&bur), 0);
    bur.validate().unwrap();
}

/// A 32-op batch whose first op jumps a third of the world (a fast
/// mover out of its leaf: the shared path must give up on it) followed
/// by 31 ordinary moves.
fn doomed_batch(positions: &[Point], seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Batch::new();
    let jump = Point::new((positions[0].x + 0.33) % 1.0, (positions[0].y + 0.33) % 1.0);
    batch.update(0, positions[0], jump);
    for oid in 1..32u64 {
        let old = positions[oid as usize];
        batch.update(oid, old, random_move(&mut rng, old, MAX_DISTANCE));
    }
    batch
}

#[test]
fn a_doomed_batch_pays_for_its_first_op_not_for_all_32() {
    // Twin indexes, built identically: one takes the batch through
    // `Bur::apply` (shared attempt, then the exclusive replay), the other
    // straight through the exclusive engine.
    let (bur, positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    let (twin, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let batch = doomed_batch(&positions, 3);

    let before = fetches(&twin);
    twin.with_index_mut(|index| index.apply_batch(&batch))
        .unwrap();
    let exclusive = fetches(&twin) - before;

    let ops_before = bur.with_op_stats(|s| s.snapshot());
    let before = fetches(&bur);
    bur.apply(&batch).unwrap();
    let through_apply = fetches(&bur) - before;
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);

    println!(
        "doomed 32-op batch: {exclusive} fetches on the exclusive engine, \
         {through_apply} through Bur::apply"
    );
    assert_eq!(ops.escalations, 1);
    // The discarded attempt: probe + leaf + parent of the first op.
    assert!(
        through_apply <= exclusive + 3,
        "the discarded shared attempt cost {} fetches",
        through_apply - exclusive
    );
    assert_eq!(pinned(&bur), 0);
    bur.validate().unwrap();
    // Same decisions either way.
    assert_eq!(
        bur.with_op_stats(|s| s.snapshot())
            .since(&ops_before)
            .updates,
        twin.with_op_stats(|s| s.snapshot()).updates
    );
}

// The whole-tree lock is the structure `RwLock` (there is no tree
// granule); the test keeps the name the suite knows it by.
#[test]
fn an_escalated_batch_waits_for_the_tree_granule_without_replanning() {
    let (bur, positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    let (twin, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let batch = doomed_batch(&positions, 5);

    let before = fetches(&twin);
    twin.with_index_mut(|index| index.apply_batch(&batch))
        .unwrap();
    let exclusive = fetches(&twin) - before;

    // The fetch counter, read off the pool: while the writer queues for
    // the structure lock, a `Bur` accessor would queue behind it.
    let pool = bur.with_index(|index| index.pool().clone());
    let fetches = || pool.stats().snapshot().fetches;
    let before = fetches();
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        // Hold the structure lock's read side: the shared attempt gets in
        // beside us (and escalates), the exclusive replay must wait.
        let bur = &bur;
        let reader = s.spawn(move || {
            bur.with_index(|_| {
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        parked_rx.recv().unwrap();
        let writer = s.spawn(|| bur.apply(&batch).unwrap());
        // The first fetch is the shared attempt's; it ends in an
        // escalation, so from then on the writer is waiting for the
        // write side. Give it time to do that the wrong way.
        while fetches() == before {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !writer.is_finished(),
            "the batch ignored the structure lock"
        );
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        writer.join().unwrap();
    });
    let cost = fetches() - before;
    assert!(
        cost <= exclusive + 3,
        "{cost} fetches: the batch re-planned while it waited ({exclusive} on the exclusive engine)"
    );
    assert_eq!(pinned(&bur), 0);
    assert_eq!(bur.claimed_leaves(), 0);
    bur.validate().unwrap();
}

#[test]
fn no_pin_outlives_apply_when_a_granule_is_refused() {
    let (bur, mut positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    let batch = in_place_batch(&bur, &mut positions, THREE_LEVELS);
    // Hold the claim on the *last* leaf the batch touches, so the pass
    // has opened 31 shadows when it is refused.
    let Some(Op::Update { oid, .. }) = batch.ops().last() else {
        unreachable!()
    };
    let leaf = bur
        .with_index(|index| index.locate_leaf(*oid))
        .unwrap()
        .unwrap();
    let held = bur.hold_leaf_claim(leaf).unwrap();
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    // Bounded retries, then the exclusive path (which needs no leaf
    // claim): the call returns although the claim is never released.
    let ticket = bur.apply(&batch).unwrap();
    assert_eq!(ticket.report().updated, 32);
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert_eq!(
        ops.escalations, 1,
        "refusals must end on the exclusive path"
    );
    assert_eq!(pinned(&bur), 0);
    drop(held);
    assert_eq!(bur.claimed_leaves(), 0);
    bur.validate().unwrap();
}

#[test]
fn no_pin_outlives_apply_through_make_room() {
    let (bur, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    // Crowd one spot until its leaf fills and the shared path has to
    // split it ahead of itself.
    let mut oid = 1_000_000u64;
    let mut worst = 0;
    for _ in 0..12 {
        let mut batch = Batch::new();
        for _ in 0..8 {
            let i = oid - 1_000_000;
            batch.insert(
                oid,
                Point::new(0.4 + (i % 8) as f32 * 1e-4, 0.6 + (i / 8) as f32 * 1e-4),
            );
            oid += 1;
        }
        let made_room = bur.with_op_stats(|s| s.snapshot()).make_room_splits;
        let before = fetches(&bur);
        bur.apply(&batch).unwrap();
        if bur.with_op_stats(|s| s.snapshot()).make_room_splits > made_room {
            worst = worst.max(fetches(&bur) - before);
        }
        assert_eq!(pinned(&bur), 0);
    }
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert!(ops.make_room_splits > 0, "never made room: {ops}");
    println!("8-insert batch with a make-room split: at most {worst} fetches");
    // Two plans of eight inserts, the split (leaf, new half, parent) and
    // one hash upsert per object it re-homes. The full leaf's ancestors
    // come from the summary's child → parent table: a search from the
    // root would read half this tree's ≈ 300 nodes on top.
    assert!(worst <= 100, "a make-room batch cost {worst} fetches");

    // A single insert is a batch of one: into a full leaf it makes room
    // as well, and stays on the shared path.
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    loop {
        let i = oid - 1_000_000;
        let p = Point::new(0.4 + (i % 8) as f32 * 1e-4, 0.6 + (i / 8) as f32 * 1e-4);
        bur.insert(oid, p).unwrap();
        oid += 1;
        assert_eq!(pinned(&bur), 0);
        let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
        assert_eq!(ops.escalations, 0, "a single insert escalated: {ops}");
        if ops.make_room_splits > 0 {
            assert_eq!(ops.make_room_splits, 1);
            break;
        }
        assert!(ops.inserts < 200, "single inserts never made room: {ops}");
    }
    bur.validate().unwrap();
}

#[test]
fn no_pin_outlives_apply_when_the_commit_fails() {
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }));
    let disk = Arc::new(FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size))));
    let bur = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .buffer_frames(16_384)
        .build()
        .unwrap();
    let mut positions: Vec<Point> = (0..TWO_LEVELS).map(start_position).collect();
    let mut batch = Batch::new();
    for (oid, &p) in positions.iter().enumerate() {
        batch.insert(oid as u64, p);
    }
    bur.apply(&batch).unwrap();

    // The batch plans and writes its pinned pages, then the log append
    // hits a dead disk.
    let batch = in_place_batch(&bur, &mut positions, TWO_LEVELS);
    disk.fail_always(FaultKind::Write);
    let err = bur.apply(&batch).unwrap_err();
    assert!(
        matches!(err, CoreError::Storage(_)),
        "expected the storage error, got {err}"
    );
    assert!(disk.injected_faults() > 0);
    assert_eq!(pinned(&bur), 0, "the failed commit left pages pinned");
    assert_eq!(bur.claimed_leaves(), 0);
}
