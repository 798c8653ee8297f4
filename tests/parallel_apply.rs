//! The concurrent `Bur::apply` write path under real parallelism.
//!
//! Six contracts from the latch-per-page rework and the in-order
//! planning pass:
//!
//! 0. with one writer, batching changes nothing an op decides: the same
//!    stream through `Bur::apply` in 32-op batches and op by op through
//!    `RTreeIndex` yields equal outcome counts, equal contents, an
//!    equally expensive tree to query and the same nodes;
//! 1. batches of updates on disjoint leaves physically overlap (the
//!    handle's in-flight high watermark proves two batches were inside
//!    the write path at the same moment), and *structural* batches of
//!    inserts and deletes from many writers escalate and stay exact;
//! 2. overlapping batches — several threads hammering objects
//!    interleaved on the same leaves, with mixed inserts, deletes and
//!    updates — still produce exactly the state a per-object sequential
//!    oracle predicts, whether a batch ran concurrently or escalated;
//! 3. a crash leaves every concurrent batch all-or-nothing: one group
//!    commit record per batch, so recovery lands each writer's object
//!    set on a single batch boundary;
//! 4. a power cut anywhere in a stream of insert batches that split
//!    leaves recovers to a valid tree with every acknowledged insert
//!    present;
//! 5. batches committing side by side keep each one's page records and
//!    commit record contiguous in the log.

mod common;

use bur::prelude::*;
use bur::storage::{FaultKind, FaultyDisk, MemDisk};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic home position for an object: a jittered grid point.
fn home(oid: u64) -> Point {
    Point::new(
        (oid % 64) as f32 / 64.0 + 0.001,
        (oid / 64) as f32 / 64.0 + 0.001,
    )
}

/// A durable GBU handle over `n` grid objects (one batch populate).
fn durable_grid(n: u64) -> Bur {
    let wopts = WalOptions {
        checkpoint_every: 1_000_000,
    };
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(wopts));
    let bur = IndexBuilder::with_options(opts).build().unwrap();
    let mut batch = Batch::new();
    for oid in 0..n {
        batch.insert(oid, home(oid));
    }
    bur.apply(&batch).unwrap();
    bur
}

#[test]
fn disjoint_granule_batches_overlap_physically() {
    const N: u64 = 4_000;
    const THREADS: usize = 8;
    const ROUNDS: usize = 60;
    let bur = durable_grid(N);

    // Partition the objects by the leaf that holds them, then deal the
    // leaves round-robin to the writers: every thread's batches stay on
    // leaves no other thread touches, so nothing ever escalates or
    // conflicts and the batches are free to overlap.
    let mut by_leaf: HashMap<u32, Vec<u64>> = HashMap::new();
    bur.with_index(|index| {
        for oid in 0..N {
            let pid = index.locate_leaf(oid).unwrap().expect("indexed");
            by_leaf.entry(pid).or_default().push(oid);
        }
    });
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); THREADS];
    for (i, leaf) in by_leaf.into_values().enumerate() {
        owned[i % THREADS].extend(leaf);
    }

    let mut expected: Vec<(u64, Point)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = owned
            .iter()
            .map(|oids| {
                let bur = &bur;
                let oids = &oids[..oids.len().min(128)];
                s.spawn(move || {
                    let mut pos: Vec<Point> = oids.iter().map(|&o| home(o)).collect();
                    for round in 0..ROUNDS {
                        // A tiny zigzag: stays inside (or a hair outside)
                        // the home leaf's MBR, so the plans are leaf-local.
                        let dx = if round % 2 == 0 { 0.0015 } else { -0.0015 };
                        let mut batch = Batch::new();
                        for (i, &oid) in oids.iter().enumerate() {
                            let new = Point::new(pos[i].x + dx, pos[i].y);
                            batch.update(oid, pos[i], new);
                            pos[i] = new;
                        }
                        bur.apply(&batch).unwrap().wait().unwrap();
                    }
                    oids.iter().copied().zip(pos).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            expected.extend(h.join().unwrap());
        }
    });

    assert!(
        bur.peak_concurrent_batches() >= 2,
        "disjoint batches never overlapped (peak {})",
        bur.peak_concurrent_batches()
    );
    assert_eq!(bur.len(), N);
    bur.validate().unwrap();
    assert_eq!(bur.claimed_leaves(), 0);
    let total: u64 = expected.len() as u64 * ROUNDS as u64;
    assert_eq!(bur.with_op_stats(|s| s.snapshot()).updates, total);
    bur.with_index(|index| {
        for &(oid, p) in &expected {
            assert!(
                index.point_query(p).unwrap().contains(&oid),
                "object {oid} not at its final position"
            );
        }
    });
}

#[test]
fn structural_batches_from_many_writers_stay_exact() {
    const N: u64 = 4_000;
    const THREADS: u64 = 8;
    const ROUNDS: usize = 40;
    const PER_BATCH: u64 = 16;
    let bur = durable_grid(N);
    let base_escalations = bur.with_op_stats(|s| s.snapshot()).escalations;

    // Each thread owns a horizontal strip of the unit square and churns
    // fresh objects inside it: a batch of inserts, then a batch deleting
    // the same objects. An insert or a delete escalates, so every batch
    // takes the exclusive path.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let bur = &bur;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let mut ins = Batch::new();
                    let mut del = Batch::new();
                    for i in 0..PER_BATCH {
                        let oid = 1_000_000 + t * 1_000_000 + round as u64 * PER_BATCH + i;
                        let p = Point::new(
                            (i as f32 + 0.37) / PER_BATCH as f32,
                            (t as f32 + (round % 7) as f32 / 8.0 + 0.05) / THREADS as f32,
                        );
                        ins.insert(oid, p);
                        del.delete(oid, p);
                    }
                    bur.apply(&ins).unwrap();
                    bur.apply(&del).unwrap();
                }
            });
        }
    });

    let stats = bur.with_op_stats(|s| s.snapshot());
    let total_batches = THREADS * ROUNDS as u64 * 2;
    assert_eq!(stats.escalations - base_escalations, total_batches);
    assert_eq!(bur.len(), N, "churned objects must all be gone");
    assert_eq!(stats.inserts, N + THREADS * ROUNDS as u64 * PER_BATCH);
    assert_eq!(stats.deletes, THREADS * ROUNDS as u64 * PER_BATCH);
    bur.validate().unwrap();
    assert_eq!(bur.claimed_leaves(), 0);
}

#[test]
fn peak_concurrent_batches_resets_between_runs() {
    let bur = durable_grid(200);
    let mut batch = Batch::new();
    for oid in 0..50u64 {
        batch.update(oid, home(oid), Point::new(home(oid).x + 0.001, home(oid).y));
    }
    bur.apply(&batch).unwrap();
    assert!(
        bur.peak_concurrent_batches() >= 1,
        "a shared-path batch must register in the watermark"
    );
    bur.reset_peak_concurrent_batches();
    assert_eq!(
        bur.peak_concurrent_batches(),
        0,
        "reset with no batch in flight must zero the watermark"
    );
    let mut batch = Batch::new();
    for oid in 0..50u64 {
        batch.update(oid, Point::new(home(oid).x + 0.001, home(oid).y), home(oid));
    }
    bur.apply(&batch).unwrap();
    assert!(
        bur.peak_concurrent_batches() >= 1,
        "the watermark must accumulate again after a reset"
    );
}

/// Apply one batch of 32 in-place moves, one of them on the
/// highest-numbered leaf of `bur` (whose objects `0..n` sit at
/// `home(oid)`), and check it rode the shared path: no escalation, and
/// no claim or pin left behind. Each object moves to the midpoint
/// between itself and a leaf-mate, inside the leaf's tight MBR by
/// convexity, so only a leaf the claim table does not cover escalates.
fn assert_last_leaf_is_claimable(bur: &Bur, n: u64, how: &str) {
    let mut by_leaf: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    bur.with_index(|index| {
        for oid in 0..n {
            let pid = index.locate_leaf(oid).unwrap().expect("indexed");
            by_leaf.entry(pid).or_default().push(oid);
        }
    });
    let mut batch = Batch::new();
    for leaf in by_leaf.values().rev().filter(|l| l.len() >= 2).take(32) {
        let (a, b) = (home(leaf[0]), home(leaf[1]));
        let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
        batch.update(leaf[0], a, mid);
    }
    assert_eq!(batch.len(), 32, "{how}: too few leaves");
    let before = bur.with_op_stats(|s| s.snapshot());
    bur.apply(&batch).unwrap();
    let ops = bur.with_op_stats(|s| s.snapshot()).since(&before);
    assert_eq!(ops.upd_in_place, 32, "{how}");
    assert_eq!(ops.escalations, 0, "{how}: the last leaf is not claimable");
    assert_eq!(bur.claimed_leaves(), 0, "{how}");
    assert_eq!(bur.with_index(|i| i.pool().pinned_frames()), 0, "{how}");
    bur.validate().unwrap();
}

/// Every way a tree comes to exist sizes the claim table to cover every
/// leaf it can name: a missed sizing site would escalate the batches
/// that touch the newest leaves, which only a changed escalation rate
/// would otherwise show.
#[test]
fn claim_table_covers_the_last_leaf_however_the_tree_came_to_exist() {
    const N: u64 = 4_000;
    let mut batch = Batch::new();
    for oid in 0..N {
        batch.insert(oid, home(oid));
    }

    // Created empty, grown by inserts that split.
    for opts in [IndexOptions::generalized(), IndexOptions::localized()] {
        let bur = IndexBuilder::with_options(opts).build().unwrap();
        bur.apply(&batch).unwrap();
        assert_last_leaf_is_claimable(&bur, N, opts.strategy.name());
    }

    // Bulk loaded.
    let items: Vec<(u64, Point)> = (0..N).map(|oid| (oid, home(oid))).collect();
    let index = RTreeIndex::bulk_load_in_memory(IndexOptions::generalized(), &items).unwrap();
    assert_last_leaf_is_claimable(&Bur::from_index(index), N, "bulk load");

    // Recovered from a durable file after a crash.
    let dir = common::TempDir::new("claims");
    let path = dir.file("t.bur");
    let bur = IndexBuilder::generalized()
        .durable()
        .file(&path)
        .build()
        .unwrap();
    bur.apply(&batch).unwrap();
    drop(bur);
    let bur = IndexBuilder::generalized()
        .file(&path)
        .recover()
        .build()
        .unwrap();
    assert_last_leaf_is_claimable(&bur, N, "recover");

    // A promoted replica whose newest leaves arrived by redo after it
    // attached.
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }));
    let (data, log) = (
        Arc::new(MemDisk::new(opts.page_size)),
        Arc::new(MemDisk::new(opts.page_size)),
    );
    let primary = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build()
        .unwrap();
    let mut shipper = LogShipper::new(data, log);
    let mut follower = Follower::attach_in_memory(&mut shipper, opts).unwrap();
    primary.apply(&batch).unwrap();
    follower.catch_up(&mut shipper).unwrap();
    assert_last_leaf_is_claimable(&follower.promote().unwrap(), N, "promote");
}

/// Every page of `bur`'s disk that decodes as a node, by page id: the
/// tree reachable from the root and the freed pages the free list keeps.
fn decoded_nodes(bur: &Bur) -> Vec<(u32, bur::core::Node)> {
    bur.with_index(|index| {
        let pool = index.pool();
        (0..pool.disk().num_pages())
            .filter_map(|pid| {
                let node = pool.with_page_read(pid, |b| bur::core::Node::decode(pid, b));
                Some((pid, node.unwrap().ok()?))
            })
            .collect()
    })
}

/// One writer, no concurrency: the same seeded stream applied through
/// `Bur::apply` in 32-op batches and, on an identically built twin, op
/// by op through `RTreeIndex::{update, delete, insert}`. Batching may
/// change how often the pool is asked for a page — never what an op
/// decides: the outcome counts, the stored entries, the cost of
/// querying the result and every node, page by page, must all be
/// equal. The stream reaches every rung of the bottom-up ladder and
/// every repair on both paths, and some batches delete objects and
/// re-insert ones an earlier batch deleted.
fn run_sequential_twin_case(opts: IndexOptions) {
    const N: u64 = 4_000;
    const BATCHES: usize = 120;
    let build = || {
        let bur = IndexBuilder::with_options(opts).build().unwrap();
        let mut batch = Batch::new();
        for oid in 0..N {
            batch.insert(oid, home(oid));
        }
        bur.apply(&batch).unwrap();
        bur
    };
    let (batched, twin) = (build(), build());
    let base = batched.with_op_stats(|s| s.snapshot());
    assert_eq!(base, twin.with_op_stats(|s| s.snapshot()));

    let mut rng = StdRng::seed_from_u64(0xD0_5A3E);
    let mut pos: Vec<Point> = (0..N).map(home).collect();
    // Objects deleted by an earlier batch and not yet re-inserted.
    let mut deleted: Vec<u64> = Vec::new();
    for round in 0..BATCHES {
        // Short moves mostly stay leaf-local (the batch runs shared);
        // the paper's 0.06 sends every batch to the exclusive path. One
        // in two short batches carries one 0.06 mover, so the shared
        // pass meets a fast mover too, and one in two long batches may
        // leave the unit square, so objects on the hull leave the root
        // MBR. The other short batches delete an object at op 8 and
        // re-insert an earlier batch's deleted object near where it was
        // at op 24.
        let reach = if round % 2 == 0 { 0.003 } else { 0.06f32 };
        let clamp = |v: f32| if round % 4 == 1 { v } else { v.clamp(0.0, 1.0) };
        let mut batch = Batch::new();
        for i in 0..32 {
            let reach = if round % 4 == 0 && i == 16 {
                0.06
            } else {
                reach
            };
            let oid = loop {
                let oid = rng.random_range(0..N);
                if !deleted.contains(&oid) {
                    break oid;
                }
            };
            let old = pos[oid as usize];
            let new = Point::new(
                clamp(old.x + rng.random_range(-reach..reach)),
                clamp(old.y + rng.random_range(-reach..reach)),
            );
            match (round % 4, i) {
                (2, 8) => {
                    batch.delete(oid, old);
                    assert!(twin.with_index_mut(|index| index.delete(oid, old)).unwrap());
                    deleted.push(oid);
                    continue;
                }
                (2, 24) if deleted.len() > 1 => {
                    let back = deleted.remove(0);
                    let at = pos[back as usize];
                    let at = Point::new(clamp(at.x + new.x - old.x), clamp(at.y + new.y - old.y));
                    batch.insert(back, at);
                    twin.with_index_mut(|index| index.insert(back, at)).unwrap();
                    pos[back as usize] = at;
                    continue;
                }
                _ => {}
            }
            batch.update(oid, old, new);
            twin.with_index_mut(|index| index.update(oid, old, new))
                .unwrap();
            pos[oid as usize] = new;
        }
        batched.apply(&batch).unwrap();
    }

    let a = batched.with_op_stats(|s| s.snapshot()).since(&base);
    let b = twin.with_op_stats(|s| s.snapshot()).since(&base);
    assert!(
        a.escalations > 0 && a.escalations < BATCHES as u64,
        "the stream must exercise both write paths ({} of {BATCHES} escalated)",
        a.escalations
    );
    let decisions = |s: &bur::core::OpSnapshot| {
        [
            s.updates,
            s.upd_in_place,
            s.upd_extended,
            s.upd_shifted,
            s.upd_ascended,
            s.upd_top_down,
            s.inserts,
            s.deletes,
            s.splits,
            s.condenses,
            s.piggybacked,
            s.reinserted_entries,
        ]
    };
    assert_eq!(decisions(&a), decisions(&b), "batched {a}\nsequential {b}");
    assert!(
        a.inserts > 0 && a.deletes > 0,
        "no delete or re-insert: {a}"
    );
    let reached = [
        a.upd_in_place,
        a.upd_extended,
        a.upd_shifted,
        a.upd_ascended,
    ];
    assert!(reached.iter().all(|&n| n > 0), "a class never reached: {a}");
    if let UpdateStrategy::Generalized(_) = opts.strategy {
        assert!(a.upd_top_down > 0, "no move left the root MBR: {a}");
    }

    batched.validate().unwrap();
    twin.validate().unwrap();
    let world = Rect::new(-1.0, -1.0, 2.0, 2.0);
    let entries = |bur: &Bur| {
        let mut v = bur.with_index(|index| index.query_entries(&world)).unwrap();
        v.sort_by_key(|e| e.oid);
        v
    };
    assert_eq!(entries(&batched), entries(&twin));

    // The same tree costs the same to query.
    let window_fetches = |bur: &Bur| {
        let mut rng = StdRng::seed_from_u64(99);
        let before = bur.io_snapshot().fetches;
        for _ in 0..200 {
            let (x, y) = (rng.random_range(0.0..0.9f32), rng.random_range(0.0..0.9f32));
            bur.count_in(&Rect::new(x, y, x + 0.1, y + 0.1)).unwrap();
        }
        bur.io_snapshot().fetches - before
    };
    assert_eq!(window_fetches(&batched), window_fetches(&twin));

    // The same tree, node by node: every official rect and entry order
    // (a delete re-tightens its parent entry on both paths).
    let geometry = |bur: &Bur| {
        let (leaves, area, margin, objects, internal) =
            bur.with_index(|index| index.leaf_geometry()).unwrap();
        (leaves, area.to_bits(), margin.to_bits(), objects, internal)
    };
    assert_eq!(geometry(&batched), geometry(&twin));
    assert_eq!(batched.height(), twin.height());
    let (nodes, twin_nodes) = (decoded_nodes(&batched), decoded_nodes(&twin));
    assert_eq!(nodes.len(), twin_nodes.len(), "node page counts differ");
    for ((pid, node), (twin_pid, twin_node)) in nodes.iter().zip(&twin_nodes) {
        assert_eq!(pid, twin_pid, "node pages differ");
        assert_eq!(
            node, twin_node,
            "page {pid} differs from the sequential twin"
        );
    }
}

#[test]
fn single_writer_batches_decide_like_sequential_updates_gbu() {
    run_sequential_twin_case(IndexOptions::generalized());
}

#[test]
fn single_writer_batches_decide_like_sequential_updates_lbu() {
    run_sequential_twin_case(IndexOptions::localized());
}

/// Fewer objects than one leaf holds, so the root is a leaf: a move out
/// of its MBR — or anywhere else — is an in-place update on both write
/// paths under both bottom-up strategies. The shared path of `Bur::apply`
/// and `RTreeIndex::update` on a twin count the same outcome classes and
/// store the same entries.
#[test]
fn root_leaf_moves_decide_alike_on_both_paths() {
    const N: u64 = 16;
    for opts in [IndexOptions::generalized(), IndexOptions::localized()] {
        // Start in the middle of the space, so moves leave the root MBR.
        let mut pos: Vec<Point> = (0..N)
            .map(|oid| Point::new(0.4 + home(oid).x * 0.2, 0.4 + home(oid).y * 0.2))
            .collect();
        let build = || {
            let bur = IndexBuilder::with_options(opts).build().unwrap();
            let mut batch = Batch::new();
            for (oid, &p) in pos.iter().enumerate() {
                batch.insert(oid as u64, p);
            }
            bur.apply(&batch).unwrap();
            bur
        };
        let (batched, twin) = (build(), build());
        let base = batched.with_op_stats(|s| s.snapshot());
        let mut rng = StdRng::seed_from_u64(0x200F);
        let mut left_root_mbr = 0;
        for _ in 0..24 {
            let mut batch = Batch::new();
            for oid in rng.random_range(0..4)..N {
                let old = pos[oid as usize];
                let new = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                if !batched.bounds().unwrap().contains_point(&new) {
                    left_root_mbr += 1;
                }
                batch.update(oid, old, new);
                twin.with_index_mut(|index| index.update(oid, old, new))
                    .unwrap();
                pos[oid as usize] = new;
            }
            batched.apply(&batch).unwrap();
        }
        assert!(left_root_mbr > 0, "no move left the root leaf's MBR");
        assert_eq!((batched.height(), twin.height()), (1, 1));

        let a = batched.with_op_stats(|s| s.snapshot()).since(&base);
        let b = twin.with_op_stats(|s| s.snapshot()).since(&base);
        assert_eq!(a.escalations, 0, "a root-leaf batch stays shared: {a}");
        let decisions = |s: &bur::core::OpSnapshot| {
            [
                s.updates,
                s.upd_in_place,
                s.upd_extended,
                s.upd_shifted,
                s.upd_ascended,
                s.upd_top_down,
            ]
        };
        assert_eq!(decisions(&a), decisions(&b), "batched {a}\nsequential {b}");
        assert_eq!(a.upd_in_place, a.updates);
        let entries = |bur: &Bur| {
            let mut v = bur
                .with_index(|index| index.query_entries(&Rect::UNIT))
                .unwrap();
            v.sort_by_key(|e| e.oid);
            v
        };
        assert_eq!(entries(&batched), entries(&twin));
        batched.validate().unwrap();
        twin.validate().unwrap();
    }
}

/// Number of writer threads in the oracle proptest; object `oid` is
/// owned by thread `oid % WRITERS`, so ownership is disjoint while the
/// *leaves* are shared by every thread.
const WRITERS: u64 = 3;
const ORACLE_OBJECTS: u64 = 60 * WRITERS;

fn run_oracle_case(opts: IndexOptions, moves: &[(u8, (f32, f32))]) -> Result<(), TestCaseError> {
    let bur = IndexBuilder::with_options(opts).build().unwrap();
    let mut batch = Batch::new();
    for oid in 0..ORACLE_OBJECTS {
        batch.insert(oid, home(oid));
    }
    bur.apply(&batch).unwrap();

    // Deal each generated move to its owner thread. A move may target
    // any owned object, repeat objects within one batch, or land far
    // away (forcing the batch to escalate) — the adversarial mix.
    let mut per_thread: Vec<Vec<(u64, Point)>> = vec![Vec::new(); WRITERS as usize];
    for &(k, (x, y)) in moves {
        let t = u64::from(k) % WRITERS;
        let oid = (u64::from(k) % 60) * WRITERS + t;
        per_thread[t as usize].push((oid, Point::new(x, y)));
    }

    std::thread::scope(|s| {
        for (t, moves) in per_thread.iter().enumerate() {
            let bur = &bur;
            s.spawn(move || {
                let mut pos: HashMap<u64, Point> = HashMap::new();
                for chunk in moves.chunks(8) {
                    let mut batch = Batch::new();
                    for &(oid, new) in chunk {
                        let old = pos.get(&oid).copied().unwrap_or_else(|| home(oid));
                        batch.update(oid, old, new);
                        pos.insert(oid, new);
                    }
                    let report = bur.apply(&batch).unwrap();
                    assert_eq!(report.report().applied as usize, chunk.len(), "thread {t}");
                }
            });
        }
    });

    // The oracle: each object sits exactly at its owner's last move.
    let mut expect: Vec<Point> = (0..ORACLE_OBJECTS).map(home).collect();
    for moves in &per_thread {
        for &(oid, p) in moves {
            expect[oid as usize] = p;
        }
    }
    bur.validate()
        .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
    prop_assert_eq!(bur.len(), ORACLE_OBJECTS);
    let world = Rect::new(-1.0, -1.0, 2.0, 2.0);
    let mut ids: Vec<u64> = bur.query(&world).unwrap().collect();
    ids.sort_unstable();
    ids.dedup();
    prop_assert_eq!(
        ids.len() as u64,
        ORACLE_OBJECTS,
        "object lost or duplicated"
    );
    bur.with_index(|index| {
        for (oid, p) in expect.iter().enumerate() {
            prop_assert!(
                index.point_query(*p).unwrap().contains(&(oid as u64)),
                "object {} not at the oracle position {:?}",
                oid,
                p
            );
        }
        Ok(())
    })?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn overlapping_concurrent_applies_match_oracle_lbu(
        moves in proptest::collection::vec(
            (any::<u8>(), (0.0f32..1.0, 0.0f32..1.0)), 1..150),
    ) {
        run_oracle_case(IndexOptions::localized(), &moves)?;
    }

    #[test]
    fn overlapping_concurrent_applies_match_oracle_gbu(
        moves in proptest::collection::vec(
            (any::<u8>(), (0.0f32..1.0, 0.0f32..1.0)), 1..150),
    ) {
        run_oracle_case(IndexOptions::generalized(), &moves)?;
    }
}

/// Writer threads in the mixed structural oracle proptest.
const MIXED_WRITERS: u64 = 8;
/// Objects per thread in the mixed proptest.
const MIXED_PER_THREAD: u64 = 24;

/// Replay a generated stream of mixed operations — updates, deletes and
/// (re-)inserts — through 8 concurrent writers, then compare against a
/// sequential per-object oracle. Thread `t` owns the objects with
/// `oid % MIXED_WRITERS == t`, so the final state of each object is
/// determined by its owner's stream alone, while the *leaves* (and the
/// escalation machinery) are shared by everybody.
fn run_mixed_oracle_case(
    opts: IndexOptions,
    ops: &[(u8, u8, (f32, f32))],
) -> Result<(), TestCaseError> {
    let n = MIXED_WRITERS * MIXED_PER_THREAD;
    let bur = IndexBuilder::with_options(opts).build().unwrap();
    let mut batch = Batch::new();
    for oid in 0..n {
        batch.insert(oid, home(oid));
    }
    bur.apply(&batch).unwrap();

    // Deal each generated op to its owner thread, resolving it against
    // the object's tracked state so every batch is well-formed (updates
    // of absent objects become inserts, inserts of present objects
    // become updates; deletes of absent objects stay in — they exercise
    // the missing-delete path).
    #[derive(Clone, Copy)]
    enum MixedOp {
        Update(u64, Point, Point),
        Insert(u64, Point),
        Delete(u64, Point),
        MissingDelete(u64),
    }
    let mut per_thread: Vec<Vec<MixedOp>> = vec![Vec::new(); MIXED_WRITERS as usize];
    let mut present: Vec<Option<Point>> = (0..n).map(|oid| Some(home(oid))).collect();
    for &(k, kind, (x, y)) in ops {
        let t = u64::from(k) % MIXED_WRITERS;
        let oid = (u64::from(k) % MIXED_PER_THREAD) * MIXED_WRITERS + t;
        let new = Point::new(x, y);
        let op = match (kind % 3, present[oid as usize]) {
            (0, Some(cur)) | (2, Some(cur)) => {
                present[oid as usize] = Some(new);
                MixedOp::Update(oid, cur, new)
            }
            (0, None) | (2, None) => {
                present[oid as usize] = Some(new);
                MixedOp::Insert(oid, new)
            }
            (1, Some(cur)) => {
                present[oid as usize] = None;
                MixedOp::Delete(oid, cur)
            }
            (1, None) => MixedOp::MissingDelete(oid),
            _ => unreachable!(),
        };
        per_thread[t as usize].push(op);
    }

    std::thread::scope(|s| {
        for (t, thread_ops) in per_thread.iter().enumerate() {
            let bur = &bur;
            s.spawn(move || {
                for chunk in thread_ops.chunks(6) {
                    let mut batch = Batch::new();
                    for op in chunk {
                        match *op {
                            MixedOp::Update(oid, old, new) => batch.update(oid, old, new),
                            MixedOp::Insert(oid, p) => batch.insert(oid, p),
                            MixedOp::Delete(oid, p) => batch.delete(oid, p),
                            MixedOp::MissingDelete(oid) => batch.delete(oid, Point::new(7.0, 7.0)),
                        };
                    }
                    let ticket = bur.apply(&batch).unwrap();
                    assert_eq!(ticket.report().applied as usize, chunk.len(), "thread {t}");
                }
            });
        }
    });

    bur.validate()
        .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
    let alive = present.iter().flatten().count() as u64;
    prop_assert_eq!(bur.len(), alive, "object count diverged from the oracle");
    let world = Rect::new(-1.0, -1.0, 8.0, 8.0);
    let mut ids: Vec<u64> = bur.query(&world).unwrap().collect();
    ids.sort_unstable();
    ids.dedup();
    prop_assert_eq!(ids.len() as u64, alive, "object lost or duplicated");
    bur.with_index(|index| {
        for (oid, state) in present.iter().enumerate() {
            let oid = oid as u64;
            match state {
                Some(p) => prop_assert!(
                    index.point_query(*p).unwrap().contains(&oid),
                    "object {} not at the oracle position {:?}",
                    oid,
                    p
                ),
                None => prop_assert!(!ids.contains(&oid), "deleted object {} still indexed", oid),
            }
        }
        Ok(())
    })?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn mixed_structural_applies_match_oracle_gbu(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), (0.0f32..1.0, 0.0f32..1.0)), 1..200),
    ) {
        run_mixed_oracle_case(IndexOptions::generalized(), &ops)?;
    }

    #[test]
    fn mixed_structural_applies_match_oracle_lbu(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), (0.0f32..1.0, 0.0f32..1.0)), 1..200),
    ) {
        run_mixed_oracle_case(IndexOptions::localized(), &ops)?;
    }
}

/// Power-cut sweep through insert batches that split leaves: clustered
/// inserts drive leaves to capacity, and the cut lands at every stage of
/// the batches' commits. Recovery must always produce a valid tree
/// containing every acknowledged insert.
#[test]
fn structural_batches_survive_power_cuts() {
    const BATCHES: u64 = 40;
    const PER_BATCH: u64 = 8;
    let wopts = WalOptions {
        checkpoint_every: 1_000_000,
    };
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(wopts));

    // Clustered positions: consecutive oids crowd a few tight spots, so
    // leaves fill and split repeatedly.
    let spot = |oid: u64| {
        let cluster = (oid / 64) % 4;
        Point::new(
            0.2 + cluster as f32 * 0.2 + (oid % 8) as f32 * 1e-4,
            0.5 + ((oid / 8) % 8) as f32 * 1e-4,
        )
    };

    // Control run (no faults): this workload must actually split leaves,
    // otherwise the sweep proves nothing.
    {
        let bur = IndexBuilder::with_options(opts).build().unwrap();
        let mut oid = 0u64;
        for _ in 0..BATCHES {
            let mut batch = Batch::new();
            for _ in 0..PER_BATCH {
                batch.insert(oid, spot(oid));
                oid += 1;
            }
            bur.apply(&batch).unwrap();
        }
        let stats = bur.with_op_stats(|s| s.snapshot());
        assert!(stats.splits > 0, "workload never split a leaf: {stats}");
        bur.validate().unwrap();
    }

    for cut in [8u64, 21, 55, 89, 144, 233, 377] {
        let (inner, inner_log) = (Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024)));
        let (faulty, faulty_log) = FaultyDisk::pair(inner.clone(), inner_log.clone());
        let bur = IndexBuilder::with_options(opts)
            .disk(faulty.clone())
            .log_disk(faulty_log)
            .build()
            .unwrap();
        faulty.inject(FaultKind::TornWrite { after_writes: cut });
        let mut acked = 0u64;
        let mut oid = 0u64;
        for _ in 0..BATCHES {
            let mut batch = Batch::new();
            for _ in 0..PER_BATCH {
                batch.insert(oid, spot(oid));
                oid += 1;
            }
            // EveryCommit: an Ok apply is a synced group commit record.
            match bur.apply(&batch) {
                Ok(_) => acked = oid,
                Err(_) => break,
            }
        }
        drop(bur); // crash

        let recovered = IndexBuilder::with_options(opts)
            .disk(inner)
            .log_disk(inner_log)
            .recover()
            .build_index()
            .unwrap();
        recovered.validate().unwrap();
        assert!(
            recovered.len() >= acked,
            "cut {cut}: acknowledged inserts lost ({} < {acked})",
            recovered.len()
        );
        assert_eq!(
            recovered.len() % PER_BATCH,
            0,
            "cut {cut}: recovery landed inside a batch"
        );
        for o in 0..acked {
            assert!(
                recovered.point_query(spot(o)).unwrap().contains(&o),
                "cut {cut}: acknowledged object {o} missing after recovery"
            );
        }
    }
}

#[test]
fn concurrent_batches_recover_all_or_nothing() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    const BATCHES: usize = 30;
    let n = THREADS * PER_THREAD;
    let wopts = WalOptions {
        checkpoint_every: 1_000_000,
    };
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(wopts));

    for cut in [60u64, 200, 500] {
        let (inner, inner_log) = (Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024)));
        let (faulty, faulty_log) = FaultyDisk::pair(inner.clone(), inner_log.clone());
        let bur = IndexBuilder::with_options(opts)
            .disk(faulty.clone())
            .log_disk(faulty_log)
            .build()
            .unwrap();
        // Per-object position history: history[oid][b] is where batch b
        // of the owner thread put it (b = 0 is the insert).
        let mut history: Vec<Vec<Point>> = (0..n).map(|oid| vec![home(oid)]).collect();
        let mut rng = StdRng::seed_from_u64(0xA110 + cut);
        for h in history.iter_mut() {
            for _ in 0..BATCHES {
                let last = *h.last().unwrap();
                h.push(Point::new(
                    (last.x + rng.random_range(-0.03..0.03f32)).clamp(0.0, 1.0),
                    (last.y + rng.random_range(-0.03..0.03f32)).clamp(0.0, 1.0),
                ));
            }
        }
        let mut batch = Batch::new();
        for oid in 0..n {
            batch.insert(oid, home(oid));
        }
        bur.apply(&batch).unwrap();
        bur.checkpoint().unwrap(); // the inserts are a durable floor

        // Power cut after `cut` more disk writes; each thread applies
        // whole-ownership batches until it observes the cut. Every Ok
        // under EveryCommit is a durable, synced group commit record.
        faulty.inject(FaultKind::TornWrite { after_writes: cut });
        let mut acked: Vec<usize> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let bur = &bur;
                    let history = &history;
                    s.spawn(move || {
                        let oids: Vec<u64> = (t * PER_THREAD..(t + 1) * PER_THREAD).collect();
                        let mut ok = 0usize;
                        for b in 1..=BATCHES {
                            let mut batch = Batch::new();
                            for &oid in &oids {
                                batch.update(
                                    oid,
                                    history[oid as usize][b - 1],
                                    history[oid as usize][b],
                                );
                            }
                            match bur.apply(&batch) {
                                Ok(_) => ok = b,
                                Err(_) => break,
                            }
                        }
                        ok
                    })
                })
                .collect();
            for h in handles {
                acked.push(h.join().unwrap());
            }
        });
        drop(bur); // crash

        let recovered = IndexBuilder::with_options(opts)
            .disk(inner)
            .log_disk(inner_log)
            .recover()
            .build_index()
            .unwrap();
        recovered.validate().unwrap();
        assert_eq!(recovered.len(), n, "cut {cut}");
        for (t, &acked_t) in acked.iter().enumerate() {
            // All-or-nothing per batch: every object of the thread must
            // sit on the same batch boundary — no torn batches — and the
            // boundary may not be older than the last acknowledged batch.
            let oids: Vec<u64> = (t as u64 * PER_THREAD..(t as u64 + 1) * PER_THREAD).collect();
            let landed = (0..=BATCHES).rev().find(|&b| {
                oids.iter().all(|&oid| {
                    recovered
                        .point_query(history[oid as usize][b])
                        .unwrap()
                        .contains(&oid)
                })
            });
            let Some(landed) = landed else {
                panic!("cut {cut}: thread {t} recovered to a torn batch");
            };
            assert!(
                landed >= acked_t,
                "cut {cut}: thread {t} lost acknowledged batches \
                 (landed {landed} < acked {acked_t})"
            );
        }
    }
}

/// The commit lock keeps a batch's page records and its commit record
/// contiguous in the log while other batches commit beside it. Each
/// thread moves one object of a leaf of its own in place, so each batch
/// logs exactly one page: after the checkpoint that opens the
/// generation, the log reads page, commit, page, commit, ... and two
/// pages in a row mean two batches' records interleaved.
#[test]
fn concurrent_commits_land_contiguously_in_the_log() {
    const THREADS: usize = 4;
    const BATCHES: usize = 500;
    let log = Arc::new(MemDisk::new(1024));
    let bur = IndexBuilder::generalized()
        .durable()
        .disk(Arc::new(MemDisk::new(1024)))
        .log_disk(log.clone())
        .build()
        .unwrap();
    let mut batch = Batch::new();
    for oid in 0..2_000 {
        batch.insert(oid, home(oid));
    }
    bur.apply(&batch).unwrap();
    bur.checkpoint().unwrap();
    // The first object of each of `THREADS` leaves.
    let mut movers: HashMap<u64, u64> = HashMap::new();
    for oid in 0..2_000 {
        let leaf = bur.with_index(|i| i.locate_leaf(oid)).unwrap().unwrap();
        movers.entry(leaf.into()).or_insert(oid);
    }
    let mut movers: Vec<u64> = movers.into_values().collect();
    movers.sort_unstable();
    movers.truncate(THREADS);
    assert_eq!(movers.len(), THREADS);
    std::thread::scope(|s| {
        for &oid in &movers {
            let bur = &bur;
            s.spawn(move || {
                for _ in 0..BATCHES {
                    bur.update(oid, home(oid), home(oid)).unwrap();
                }
            });
        }
    });
    let mut reader = bur::wal::LogReader::open(log.as_ref(), bur::core::LOG_DISK_ANCHOR)
        .unwrap()
        .unwrap();
    let mut kinds = String::new();
    while let Some((_, rec)) = reader.next_record().unwrap() {
        kinds.push(match rec {
            bur::wal::WalRecord::Checkpoint { .. } => 'k',
            bur::wal::WalRecord::Commit { .. } => 'c',
            _ => 'p',
        });
    }
    let want = format!("k{}", "pc".repeat(THREADS * BATCHES));
    let first_bad = kinds.bytes().zip(want.bytes()).position(|(a, b)| a != b);
    assert_eq!(
        (first_bad, kinds.len()),
        (None, want.len()),
        "log records out of batch order"
    );
}
