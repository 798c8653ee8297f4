//! Page-fetch budgets, as the paper states them.
//!
//! The paper counts an update in page accesses: hash probe 1, read/write
//! leaf 2 — so 3 for an in-place move, more for a sibling shift. A
//! buffer-pool *fetch* is this codebase's unit for "the update touched a
//! page", and an operation asks the pool for a page once however often it
//! comes back to it: every page it reads, rewrites or re-reads — tree
//! nodes and the object's hash bucket alike — is checked out of the
//! batch's one pin set. So the budgets here, measured on single updates
//! (batches of one), are the paper's numbers with "R/W" collapsed to one
//! fetch:
//!
//! | outcome                | fetches                                   |
//! |------------------------|-------------------------------------------|
//! | in place               | probe + leaf = 2 (3 when only the parent's rect for the leaf, left wider by an earlier extension or departure, covers the target: the parent holds that rect) |
//! | extended               | + parent = 3                              |
//! | shifted                | + sibling = 4 (the hash entry is re-pointed through the probe's pin), +1 hash upsert per piggybacked entry |
//! | ascended, no split     | probe, leaf, parent, new leaf = 4, + 2 per further level ascended (the ancestor, and one more node on the way back down), + 1 per ancestor above that whose rect is adjusted: ≤ 6 for one level in a tree of height ≤ 4 |
//! | ascended, splitting    | + the new half, + 1 hash upsert per object the split re-homes (half a leaf): a mean bound |
//! | top-down fallback      | 1 hash upsert per orphan CondenseTree re-inserts (irreducible: each orphan's bucket is its own) + the pages of the search, the re-insertion paths and the final insert, each once: ≤ orphans + 4·height + 1 when nothing splits, and a mean bound overall |
//! | durable commit         | 0: the batch keeps the pin of every page it writes, and the commit logs each page through it |
//! | escalated batch        | each op once: the updates planned before the escalating op are written from their plans, and their nodes and the escalating op's leaf and parent join the batch's pin set, + the probe of that op |
//! | batch                  | no more than its ops one by one: a node an earlier op of the batch checked in costs a later op no fetch |
//!
//! Everything runs on a `MemDisk` with the tree resident; counts come
//! from `Bur::io_snapshot` and repeat exactly.
//!
//! The second half checks that **no pin outlives `apply`**, whichever
//! way the call leaves the shared write path, that a kept plan writes
//! the same bytes as a replay, and that durability adds no fetch to a
//! batch the exclusive engine replays, while a page an earlier failed
//! commit left touched is still logged.

use bur::core::OpSnapshot;
use bur::prelude::*;
use bur::storage::{BufferPool, DiskBackend, FaultKind, FaultyDisk};
use bur::wal::WalRecord;
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

/// Pre-images `pool` holds for pages that are not touched. A commit
/// takes the pre-image of every page it logs, so none may outlive it; a
/// page a failed commit left touched keeps its own for the next commit.
fn stray_pre_images_in(pool: &BufferPool) -> usize {
    (0..pool.disk().num_pages())
        .filter(|&pid| !pool.is_touched(pid) && pool.take_pre_image(pid).is_some())
        .count()
}

fn stray_pre_images(bur: &Bur) -> usize {
    bur.with_index(|index| stray_pre_images_in(index.pool()))
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
    // The shared attempt's share of the first op: its probe. Its leaf
    // and parent join the exclusive section's pin set.
    assert!(
        through_apply <= exclusive + 1,
        "the shared attempt cost {} fetches more than the exclusive engine",
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

/// [`build`], on a write-ahead log over two `MemDisk`s when `durable`.
fn build_twin(durable: bool, n: u64) -> (Bur, Vec<Point>) {
    if !durable {
        return build(IndexOptions::generalized(), n);
    }
    let opts = durable_gbu();
    let bur = IndexBuilder::with_options(opts)
        .disk(Arc::new(MemDisk::new(opts.page_size)))
        .log_disk(Arc::new(MemDisk::new(opts.page_size)))
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

#[test]
fn a_batch_doomed_at_its_last_op_pays_for_each_op_once() {
    for durable in [false, true] {
        // Twins again: `Bur::apply` plans 31 in-place moves on the shared
        // path before the jump escalates; the exclusive engine writes
        // those plans and runs only the jump.
        let (bur, mut positions) = build_twin(durable, THREE_LEVELS);
        let (twin, _) = build_twin(durable, THREE_LEVELS);
        let mut batch = Batch::new();
        let moves = in_place_batch(&bur, &mut positions, THREE_LEVELS);
        for op in &moves.ops()[..31] {
            batch.push(*op);
        }
        let Some(&Op::Update { oid, old, .. }) = moves.ops().last() else {
            unreachable!()
        };
        let jump = Point::new((old.x + 0.33) % 1.0, (old.y + 0.33) % 1.0);
        batch.update(oid, old, jump);
        positions[oid as usize] = jump;

        let ops_before = twin.with_op_stats(|s| s.snapshot());
        let before = fetches(&twin);
        twin.with_index_mut(|index| index.apply_batch(&batch))
            .unwrap();
        let exclusive = fetches(&twin) - before;
        let twin_ops = twin.with_op_stats(|s| s.snapshot()).since(&ops_before);

        let ops_before = bur.with_op_stats(|s| s.snapshot());
        let before = fetches(&bur);
        bur.apply(&batch).unwrap();
        let through_apply = fetches(&bur) - before;
        let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);

        println!(
            "32-op batch doomed at its last op (durable: {durable}): {exclusive} fetches on \
             the exclusive engine, {through_apply} through Bur::apply"
        );
        assert_eq!(ops.escalations, 1);
        assert!(ops.upd_in_place >= 31, "{ops}");
        // The shared pass's share of the jump: its probe. Its leaf and
        // parent enter the exclusive section's pin set with the plans.
        assert!(
            through_apply <= exclusive + 1,
            "the shared attempt cost {} fetches more than the exclusive engine",
            through_apply - exclusive
        );
        assert_eq!(pinned(&bur), 0);
        assert_eq!(stray_pre_images(&bur), 0);
        assert_eq!(bur.claimed_leaves(), 0);
        bur.validate().unwrap();
        // Same decisions and the same positions either way.
        assert_eq!(
            OpSnapshot {
                escalations: 0,
                ..ops
            },
            twin_ops
        );
        for op in batch.ops() {
            let Op::Update { oid, .. } = *op else {
                unreachable!()
            };
            let at = Rect::from_point(positions[oid as usize]);
            for index in [&bur, &twin] {
                let here: Vec<u64> = index.query(&at).unwrap().collect();
                assert!(here.contains(&oid), "object {oid} is not at {at}");
            }
        }
    }
}

#[test]
fn a_batch_costs_no_more_than_its_ops_one_by_one() {
    // Twins on the exclusive engine: one applies each batch whole, the
    // other applies its ops as single updates. The batch's ops share one
    // pin set, so a node an earlier op checked in costs a later op no
    // fetch; the decisions must not change.
    let (batched, mut positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    let (singles, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let mut rng = StdRng::seed_from_u64(34);
    let (mut cost_batched, mut cost_singles, mut condensed_and_split) = (0, 0, 0);
    for round in 0..150 {
        let mut batch = Batch::new();
        for _ in 0..32 {
            let oid = rng.random_range(0..THREE_LEVELS);
            let old = positions[oid as usize];
            let new = random_move(&mut rng, old, MAX_DISTANCE);
            batch.update(oid, old, new);
            positions[oid as usize] = new;
        }

        let ops_before = batched.with_op_stats(|s| s.snapshot());
        let before = fetches(&batched);
        batched
            .with_index_mut(|index| index.apply_batch(&batch))
            .unwrap();
        let cost = fetches(&batched) - before;
        let ops = batched.with_op_stats(|s| s.snapshot()).since(&ops_before);

        let ops_before = singles.with_op_stats(|s| s.snapshot());
        let before = fetches(&singles);
        singles.with_index_mut(|index| {
            for op in batch.ops() {
                let Op::Update { oid, old, new } = *op else {
                    unreachable!()
                };
                index.update(oid, old, new).unwrap();
            }
        });
        let one_by_one = fetches(&singles) - before;
        let single_ops = singles.with_op_stats(|s| s.snapshot()).since(&ops_before);

        assert_eq!(ops, single_ops, "batch {round} took other decisions");
        assert!(
            cost <= one_by_one,
            "batch {round}: {cost} fetches whole, {one_by_one} one by one"
        );
        assert_eq!(pinned(&batched), 0, "batch {round} left a page pinned");
        assert_eq!(pinned(&singles), 0);
        cost_batched += cost;
        cost_singles += one_by_one;
        condensed_and_split += u64::from(ops.condenses > 0 && ops.splits > 0);
    }
    let ratio = cost_batched as f64 / cost_singles as f64;
    println!(
        "150 batches of 32 moves: {cost_batched} fetches whole, {cost_singles} one by one \
         ({ratio:.3}); {condensed_and_split} batches both condensed and split"
    );
    // A page a batch frees and then reallocates must come back as the
    // node written to it (the set's debug assertions check that case).
    assert!(
        condensed_and_split > 0,
        "no batch both condensed and split a node"
    );
    assert!(
        ratio <= 0.92,
        "a batch saves {:.1} % of the fetches",
        100.0 * (1.0 - ratio)
    );
    for (oid, &p) in positions.iter().enumerate() {
        for index in [&batched, &singles] {
            let here: Vec<u64> = index.query(&Rect::from_point(p)).unwrap().collect();
            assert!(here.contains(&(oid as u64)), "object {oid} is not at {p}");
        }
    }
    batched.validate().unwrap();
    singles.validate().unwrap();
}

/// Every byte of `disk`, page by page.
fn disk_bytes(disk: &MemDisk) -> Vec<u8> {
    let mut bytes = vec![0; disk.num_pages() as usize * disk.page_size()];
    for (pid, page) in bytes.chunks_mut(disk.page_size()).enumerate() {
        disk.read(pid as u32, page).unwrap();
    }
    bytes
}

#[test]
fn a_kept_prefix_writes_exactly_what_the_replay_writes() {
    // Durable twins, the whole tree resident: one takes each batch
    // through `Bur::apply`, which keeps the moves planned before the
    // jump, the other through the exclusive engine alone. Both files and
    // both logs must come out the same, byte for byte.
    let opts = durable_gbu();
    let disks: Vec<_> = (0..4)
        .map(|_| Arc::new(MemDisk::new(opts.page_size)))
        .collect();
    let twins: Vec<Bur> = disks
        .chunks(2)
        .map(|pair| {
            IndexBuilder::with_options(opts)
                .disk(pair[0].clone())
                .log_disk(pair[1].clone())
                .buffer_frames(16_384)
                .build()
                .unwrap()
        })
        .collect();
    let mut positions: Vec<Point> = (0..THREE_LEVELS).map(start_position).collect();
    let mut batch = Batch::new();
    for (oid, &p) in positions.iter().enumerate() {
        batch.insert(oid as u64, p);
    }
    for bur in &twins {
        bur.apply(&batch).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(50);
    let ops_before = twins[0].with_op_stats(|s| s.snapshot());
    for round in 0..50 {
        let mut batch = Batch::new();
        for i in 0..=round % 32 {
            let oid = rng.random_range(0..THREE_LEVELS);
            let old = positions[oid as usize];
            let new = match i == round % 32 {
                true => Point::new((old.x + 0.33) % 1.0, (old.y + 0.33) % 1.0),
                false => random_move(&mut rng, old, 0.002),
            };
            batch.update(oid, old, new);
            positions[oid as usize] = new;
        }
        twins[0].apply(&batch).unwrap();
        twins[1]
            .with_index_mut(|index| index.apply_batch(&batch))
            .unwrap();
    }
    let ops = twins[0].with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert_eq!(ops.escalations, 50, "{ops}");
    assert!(ops.upd_in_place > 0 && ops.upd_extended > 0, "{ops}");
    for bur in &twins {
        bur.checkpoint().unwrap();
        bur.validate().unwrap();
    }
    for (which, pair) in ["data", "log"].into_iter().zip([[0, 2], [1, 3]]) {
        assert!(
            disk_bytes(&disks[pair[0]]) == disk_bytes(&disks[pair[1]]),
            "the {which} disks differ"
        );
    }
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
    let (twin, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let batch = in_place_batch(&bur, &mut positions, THREE_LEVELS);
    let before = fetches(&twin);
    twin.apply(&batch).unwrap();
    let unrefused = fetches(&twin) - before;
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
    let before = fetches(&bur);
    // The held claim escalates the batch at its last op, and the
    // exclusive path (which needs no leaf claim) writes the 31 kept
    // plans and resumes there: the call returns although the claim is
    // never released, and pays for each op once.
    let ticket = bur.apply(&batch).unwrap();
    let refused = fetches(&bur) - before;
    println!("32-update batch: {unrefused} fetches unrefused, {refused} refused at its last leaf");
    assert!(
        refused <= unrefused + 2,
        "{refused} fetches refused, {unrefused} unrefused"
    );
    assert_eq!(ticket.report().updated, 32);
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert_eq!(
        ops.escalations, 1,
        "refusals must end on the exclusive path"
    );
    assert_eq!(pinned(&bur), 0);
    assert_eq!(bur.claimed_leaves(), 1, "the batch dropped the held claim");
    drop(held);
    assert_eq!(bur.claimed_leaves(), 0);
    bur.validate().unwrap();
}

#[test]
fn no_pin_outlives_apply_through_a_full_leaf() {
    let (bur, _) = build(IndexOptions::generalized(), THREE_LEVELS);
    let spot = |oid: u64| {
        let i = oid - 1_000_000;
        Point::new(0.4 + (i % 8) as f32 * 1e-4, 0.6 + (i / 8) as f32 * 1e-4)
    };
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    // Crowd one spot until its leaf fills and splits. An insert
    // escalates, so every batch takes the exclusive path.
    let mut oid = 1_000_000u64;
    for _ in 0..12 {
        let mut batch = Batch::new();
        for _ in 0..8 {
            batch.insert(oid, spot(oid));
            oid += 1;
        }
        bur.apply(&batch).unwrap();
        assert_eq!(pinned(&bur), 0);
    }
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
    assert_eq!(ops.escalations, 12, "{ops}");
    assert!(ops.splits > 0, "the crowded leaf never split: {ops}");

    // A single insert is a batch of one: each escalates once, the one
    // into a full leaf too.
    let ops_before = bur.with_op_stats(|s| s.snapshot());
    loop {
        bur.insert(oid, spot(oid)).unwrap();
        oid += 1;
        assert_eq!(pinned(&bur), 0);
        let ops = bur.with_op_stats(|s| s.snapshot()).since(&ops_before);
        assert_eq!(ops.escalations, ops.inserts, "{ops}");
        if ops.splits > 0 {
            break;
        }
        assert!(
            ops.inserts < 200,
            "single inserts never filled a leaf: {ops}"
        );
    }
    bur.validate().unwrap();
}

#[test]
fn no_pin_outlives_apply_when_the_commit_fails() {
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }));
    let (disk, log) = FaultyDisk::pair(
        Arc::new(MemDisk::new(opts.page_size)),
        Arc::new(MemDisk::new(opts.page_size)),
    );
    let bur = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .log_disk(log)
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
    assert_eq!(stray_pre_images(&bur), 0);
    assert_eq!(bur.claimed_leaves(), 0);
}

/// GBU on a write-ahead log that never checkpoints: a checkpoint's
/// fetches are the log's own business.
fn durable_gbu() -> IndexOptions {
    IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }))
}

/// 32 moves whose first is a far jump, so `Bur::apply` gives the batch
/// up on the shared path and replays it on the exclusive engine.
fn escalating_batch(rng: &mut StdRng, positions: &mut [Point]) -> Batch {
    let mut batch = Batch::new();
    for i in 0..32 {
        let oid = rng.random_range(0..positions.len() as u64);
        let old = positions[oid as usize];
        let new = match i {
            0 => Point::new((old.x + 0.33) % 1.0, (old.y + 0.33) % 1.0),
            _ => random_move(rng, old, MAX_DISTANCE),
        };
        batch.update(oid, old, new);
        positions[oid as usize] = new;
    }
    batch
}

#[test]
fn durability_costs_no_fetch_on_the_exclusive_engine() {
    // Twins, built alike but for the log: every escalating batch must
    // cost the durable one exactly what it costs the volatile one.
    let opts = durable_gbu();
    let durable = IndexBuilder::with_options(opts)
        .disk(Arc::new(MemDisk::new(opts.page_size)))
        .log_disk(Arc::new(MemDisk::new(opts.page_size)))
        .buffer_frames(16_384)
        .build()
        .unwrap();
    let (volatile, mut positions) = build(IndexOptions::generalized(), THREE_LEVELS);
    let mut batch = Batch::new();
    for (oid, &p) in positions.iter().enumerate() {
        batch.insert(oid as u64, p);
    }
    durable.apply(&batch).unwrap();

    let mut rng = StdRng::seed_from_u64(32);
    let (mut splitting, mut condensing) = (0, 0);
    for round in 0..150 {
        let batch = escalating_batch(&mut rng, &mut positions);
        let mut cost = [0; 2];
        let mut ops = Vec::new();
        for (i, bur) in [&volatile, &durable].into_iter().enumerate() {
            let ops_before = bur.with_op_stats(|s| s.snapshot());
            let before = fetches(bur);
            bur.apply(&batch).unwrap();
            cost[i] = fetches(bur) - before;
            ops.push(bur.with_op_stats(|s| s.snapshot()).since(&ops_before));
            assert_eq!(pinned(bur), 0, "batch {round} left a page pinned");
            assert_eq!(stray_pre_images(bur), 0);
        }
        assert_eq!(ops[0].escalations, 1, "batch {round} stayed shared");
        assert_eq!(ops[0], ops[1], "batch {round} took other decisions");
        assert_eq!(
            cost[1], cost[0],
            "batch {round}: {} fetches durable, {} volatile",
            cost[1], cost[0]
        );
        splitting += u64::from(ops[0].upd_ascended > 0 && ops[0].splits > 0);
        condensing += u64::from(ops[0].upd_top_down > 0 && ops[0].condenses > 0);
    }
    let ops = volatile.with_op_stats(|s| s.snapshot());
    println!(
        "150 escalating batches, same fetches durable and volatile: {} shifted, {} ascended, \
         {splitting} batches with a split beside an ascent, {condensing} with a condensing fallback",
        ops.upd_shifted, ops.upd_ascended
    );
    assert!(ops.upd_shifted > 0 && ops.upd_ascended > 0, "{ops}");
    assert!(splitting > 0, "no batch split a node while ascending");
    assert!(condensing > 0, "no batch condensed a leaf in a fallback");
    durable.validate().unwrap();
}

#[test]
fn pages_a_failed_commit_left_touched_are_logged_by_the_next() {
    // Data and log share one fault schedule; the platters under them are
    // what a crash leaves for recovery.
    let opts = durable_gbu();
    let (data_platter, log_platter) = (
        Arc::new(MemDisk::new(opts.page_size)),
        Arc::new(MemDisk::new(opts.page_size)),
    );
    let (disk, log) = FaultyDisk::pair(data_platter.clone(), log_platter.clone());
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .log_disk(log)
        .buffer_frames(16_384)
        .build_index()
        .unwrap();
    let mut positions: Vec<Point> = (0..TWO_LEVELS).map(start_position).collect();
    let mut batch = Batch::new();
    for (oid, &p) in positions.iter().enumerate() {
        batch.insert(oid as u64, p);
    }
    index.apply_batch(&batch).unwrap();
    let mut rng = StdRng::seed_from_u64(9);

    // The commit's first log-page write fails: the records before it
    // stay in the log's buffer, the pages from the refused one on stay
    // touched.
    let batch = escalating_batch(&mut rng, &mut positions);
    disk.fail_next(FaultKind::Write, 1);
    let err = index.apply_batch(&batch).unwrap_err();
    assert!(matches!(err, CoreError::Storage(_)), "{err}");
    assert!(disk.injected_faults() > 0);
    assert_eq!(index.pool().pinned_frames(), 0);
    assert_eq!(stray_pre_images_in(index.pool()), 0);
    let left = index.pool().touched_pages();
    assert!(!left.is_empty(), "the failed commit left nothing touched");

    // The next batch holds none of those pages' pins; its commit fetches
    // and logs each of them.
    let lsn_before = index.last_lsn().unwrap();
    let batch = escalating_batch(&mut rng, &mut positions);
    index.apply_batch(&batch).unwrap();
    assert!(index.pool().touched_pages().is_empty());
    assert_eq!(index.pool().pinned_frames(), 0);
    assert_eq!(stray_pre_images_in(index.pool()), 0);
    let scanned = bur::wal::scan(log_platter.as_ref(), bur::core::LOG_DISK_ANCHOR)
        .unwrap()
        .expect("the index keeps a log");
    let logged: Vec<u32> = scanned
        .records
        .iter()
        .filter(|&&(lsn, _)| lsn > lsn_before)
        .filter_map(|(_, rec)| match rec {
            WalRecord::PageImage { pid, .. } | WalRecord::PageDelta { pid, .. } => Some(*pid),
            _ => None,
        })
        .collect();
    for pid in &left {
        assert!(logged.contains(pid), "page {pid} was left out of the log");
    }

    // A crash now recovers both batches.
    drop(index);
    let recovered = IndexBuilder::with_options(opts)
        .disk(data_platter)
        .log_disk(log_platter)
        .recover()
        .build_index()
        .unwrap();
    recovered.validate().unwrap();
    assert_eq!(recovered.len(), TWO_LEVELS);
    for (oid, &p) in positions.iter().enumerate() {
        let here = recovered.point_query(p).unwrap();
        assert!(here.contains(&(oid as u64)), "object {oid} is not at {p}");
    }
}
