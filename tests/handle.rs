//! The redesigned public surface: `IndexBuilder` + the clonable `Bur`
//! handle, mixed-op `Batch` writes, `CommitTicket` durability acks and
//! streaming `QueryCursor` results.
//!
//! The load-bearing contracts under test:
//!
//! * a durable mixed batch of N operations emits exactly **one** WAL
//!   group commit record, and by the time `apply` hands out the
//!   `CommitTicket` the durable LSN covers the batch;
//! * `Batch::apply` is observation-equivalent to the same operations
//!   applied sequentially — length, query results and hash-index
//!   agreement (`validate`) — for every chunking of the stream;
//! * a power cut mid-batch recovers **all or nothing** per group
//!   commit record;
//! * a handle cloned across 8 threads keeps every invariant.

mod common;

use bur::prelude::*;
use bur::storage::{FaultyDisk, MemDisk};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const PAGE: usize = 1024;

/// Durable options that never checkpoint mid-test (so commit-record
/// counting is exact) unless a cadence is given.
fn durable_opts(checkpoint_every: u64) -> IndexOptions {
    IndexOptions::generalized().with_durability(Durability::Wal(WalOptions { checkpoint_every }))
}

// ---- acceptance: one commit record per batch + ticketed hard ack ---------

#[test]
fn durable_mixed_batch_emits_exactly_one_commit_record() {
    let bur = IndexBuilder::with_options(durable_opts(u64::MAX))
        .build()
        .unwrap();
    // Seed objects through one batch.
    let mut seed = Batch::new();
    for oid in 0..64u64 {
        seed.insert(
            oid,
            Point::new((oid % 8) as f32 / 8.0, (oid / 8) as f32 / 8.0),
        );
    }
    bur.apply(&seed).unwrap().wait().unwrap();

    let before = bur.wal_stats().unwrap().commits;
    // A mixed batch: updates, an insert, a delete, a missed delete.
    let mut batch = Batch::new();
    for oid in 0..24u64 {
        let old = Point::new((oid % 8) as f32 / 8.0, (oid / 8) as f32 / 8.0);
        batch.update(oid, old, Point::new(old.x + 0.01, old.y + 0.01));
    }
    batch.insert(900, Point::new(0.95, 0.95));
    batch.delete(63, Point::new(7.0 / 8.0, 7.0 / 8.0));
    batch.delete(901, Point::new(0.5, 0.5)); // not indexed: counted, not an error
    let ticket = bur.apply(&batch).unwrap();

    let after = bur.wal_stats().unwrap().commits;
    assert_eq!(
        after - before,
        1,
        "a mixed batch of {} ops must emit exactly one commit record",
        batch.len()
    );
    let report = ticket.report();
    assert_eq!(report.applied, 27);
    assert_eq!(report.updated, 24);
    assert_eq!(report.inserted, 1);
    assert_eq!(report.deleted, 1);
    assert_eq!(report.missing_deletes, 1);

    // The ticket is the ack: the durable LSN already covers the batch's
    // commit record.
    assert_eq!(ticket.wait().unwrap(), ticket.lsn());
    assert!(bur.wal_stats().unwrap().durable_lsn >= ticket.lsn());

    // A single op is a batch of one: an update writes one record whether
    // it stays shared or escalates, and a delete that finds nothing
    // escalates, as every delete does, and writes none.
    let counts = |bur: &Bur| {
        let escalations = bur.with_op_stats(|s| s.snapshot().escalations);
        (bur.wal_stats().unwrap().commits, escalations)
    };
    let leaf = |oid: u64| bur.with_index(|i| i.locate_leaf(oid).unwrap());
    let at = |oid: u64| Point::new((oid % 8) as f32 / 8.0, (oid / 8) as f32 / 8.0);
    let mate = (31..63)
        .find(|&m| leaf(m) == leaf(30))
        .expect("a leaf mate");
    let (old, towards) = (at(30), at(mate));
    let inside = Point::new((old.x + towards.x) / 2.0, (old.y + towards.y) / 2.0);
    for (new, escalates) in [(inside, 0), (Point::new(1.2, 1.2), 1)] {
        let before = counts(&bur);
        let ticket = bur.update(30, at(30), new).unwrap();
        assert_eq!(ticket.report().updated, 1);
        assert_eq!(counts(&bur), (before.0 + 1, before.1 + escalates));
        bur.update(30, new, at(30)).unwrap();
    }
    let before = counts(&bur);
    let ticket = bur.delete(901, Point::new(0.5, 0.5)).unwrap();
    assert_eq!(ticket.report().missing_deletes, 1);
    assert_eq!(
        counts(&bur),
        (before.0, before.1 + 1),
        "a missed delete escalates and writes no record"
    );
    bur.validate().unwrap();
}

#[test]
fn batch_error_reports_position_and_keeps_prefix() {
    let bur = IndexBuilder::with_options(durable_opts(u64::MAX))
        .build()
        .unwrap();
    bur.insert(7, Point::new(0.5, 0.5)).unwrap();
    let before = bur.wal_stats().unwrap().commits;

    let mut batch = Batch::new();
    batch
        .insert(1, Point::new(0.1, 0.1))
        .insert(2, Point::new(0.2, 0.2))
        .insert(7, Point::new(0.7, 0.7)) // duplicate: fails here
        .insert(3, Point::new(0.3, 0.3)); // never applied
    let err = bur.apply(&batch).unwrap_err();
    let CoreError::Batch { op_index, source } = err else {
        panic!("expected CoreError::Batch, got {err}");
    };
    assert_eq!(op_index, 2);
    assert!(matches!(*source, CoreError::DuplicateObject(7)));

    // The prefix stays applied and is covered by one commit record.
    assert_eq!(bur.len(), 3, "ops before the failure stay applied");
    assert_eq!(bur.count_in(&Rect::new(0.0, 0.0, 0.25, 0.25)).unwrap(), 2);
    assert_eq!(bur.wal_stats().unwrap().commits - before, 1);

    // A single op fails with its own error, not `CoreError::Batch`, and
    // writes no record.
    let err = bur.insert(7, Point::new(0.7, 0.7)).unwrap_err();
    assert!(matches!(err, CoreError::DuplicateObject(7)), "got {err}");
    let err = bur
        .update(4242, Point::new(0.4, 0.4), Point::new(0.5, 0.5))
        .unwrap_err();
    assert!(matches!(err, CoreError::ObjectNotFound(4242)), "got {err}");
    assert_eq!(bur.wal_stats().unwrap().commits - before, 1);
    bur.validate().unwrap();
}

#[test]
fn failed_batch_drains_commit_hooks_for_its_flushed_prefix() {
    // Single ops commit a record each; the applied prefix of a failing
    // batch is covered by exactly one more, written on the error path,
    // and a later ticket's record covers only its own batch.
    let bur = IndexBuilder::with_options(durable_opts(u64::MAX))
        .build()
        .unwrap();
    bur.insert(7, Point::new(0.5, 0.5)).unwrap();
    let before = bur.wal_stats().unwrap().commits;
    bur.insert(8, Point::new(0.55, 0.5)).unwrap();
    bur.insert(9, Point::new(0.6, 0.5)).unwrap();
    assert_eq!(bur.wal_stats().unwrap().commits - before, 2);

    let mut batch = Batch::new();
    batch
        .insert(1, Point::new(0.1, 0.1))
        .insert(2, Point::new(0.2, 0.2))
        .insert(7, Point::new(0.7, 0.7)); // duplicate: fails, prefix flushed
    assert!(matches!(
        bur.apply(&batch).unwrap_err(),
        CoreError::Batch { op_index: 2, .. }
    ));
    assert_eq!(bur.wal_stats().unwrap().commits - before, 3);
    assert_eq!(bur.len(), 5);

    let mut batch = Batch::new();
    batch.insert(3, Point::new(0.3, 0.3));
    let ticket = bur.apply(&batch).unwrap();
    assert_eq!(ticket.report().applied, 1);
    assert_eq!(bur.wal_stats().unwrap().commits - before, 4);
    bur.validate().unwrap();
}

// ---- equivalence: batched == sequential ----------------------------------

#[derive(Debug, Clone, Copy)]
enum GenOp {
    Insert,
    Update,
    Delete,
}

/// Drive a seeded op stream twice — chunked into `Batch`es of the given
/// sizes on a `Bur` handle, and one `RTreeIndex` call at a time — and
/// compare every observation.
fn batched_equals_sequential(seed: u64, chunk_sizes: &[usize]) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Build the op stream against a model so every op is well-formed.
    let mut live: Vec<(u64, Point)> = Vec::new();
    let mut next_oid = 0u64;
    let total: usize = chunk_sizes.iter().sum();
    let mut ops = Vec::with_capacity(total);
    for _ in 0..total {
        let kind = match rng.random_range(0u32..10) {
            0..=4 => GenOp::Insert,
            5..=8 if !live.is_empty() => GenOp::Update,
            _ if !live.is_empty() => GenOp::Delete,
            _ => GenOp::Insert,
        };
        match kind {
            GenOp::Insert => {
                let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                ops.push(Op::Insert {
                    oid: next_oid,
                    rect: Rect::from_point(p),
                });
                live.push((next_oid, p));
                next_oid += 1;
            }
            GenOp::Update => {
                let i = rng.random_range(0..live.len());
                let (oid, old) = live[i];
                let new = Point::new(
                    (old.x + rng.random_range(-0.1..0.1f32)).clamp(0.0, 1.0),
                    (old.y + rng.random_range(-0.1..0.1f32)).clamp(0.0, 1.0),
                );
                ops.push(Op::Update { oid, old, new });
                live[i].1 = new;
            }
            GenOp::Delete => {
                let i = rng.random_range(0..live.len());
                let (oid, position) = live.swap_remove(i);
                ops.push(Op::Delete { oid, position });
            }
        }
    }

    let batched = IndexBuilder::generalized().build().unwrap();
    let mut sequential = IndexBuilder::generalized().build_index().unwrap();

    let mut cursor = 0;
    for &size in chunk_sizes {
        let batch: Batch = ops[cursor..cursor + size].iter().copied().collect();
        batched.apply(&batch).unwrap();
        for op in &ops[cursor..cursor + size] {
            match *op {
                Op::Insert { oid, rect } => sequential.insert_rect(oid, rect).unwrap(),
                Op::Update { oid, old, new } => {
                    sequential.update(oid, old, new).unwrap();
                }
                Op::Delete { oid, position } => {
                    prop_assert!(sequential.delete(oid, position).unwrap());
                }
            }
        }
        // Observation equivalence at every batch boundary.
        prop_assert_eq!(batched.len(), sequential.len());
        cursor += size;
    }

    // Full and partial window agreement.
    for window in [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.0, 0.0, 0.5, 0.5),
        Rect::new(0.25, 0.25, 0.75, 0.75),
        Rect::new(0.6, 0.1, 0.9, 0.4),
    ] {
        let mut a: Vec<u64> = batched.query(&window).unwrap().collect();
        let mut b = sequential.query(&window).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "window {} disagrees", window);
    }
    // Hash-index agreement and every structural invariant, both sides.
    batched
        .validate()
        .map_err(|e| TestCaseError::fail(format!("batched: {e}")))?;
    sequential
        .validate()
        .map_err(|e| TestCaseError::fail(format!("sequential: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_apply_is_observation_equivalent_to_sequential(
        seed in any::<u64>(),
        chunk_sizes in proptest::collection::vec(1usize..40, 1..12),
    ) {
        batched_equals_sequential(seed, &chunk_sizes)?;
    }
}

// ---- crash drill: all-or-nothing per group commit record -----------------

/// Each batch inserts `K` objects with contiguous ids. After a power cut
/// mid-stream (arbitrary write boundary, torn write included), recovery
/// must land on a whole number of batches — never a partial one.
#[test]
fn mid_batch_power_cut_recovers_all_or_nothing() {
    const K: usize = 8;
    for cut_after in [3u64, 17, 41, 67, 103, 151, 211, 293, 380, 477] {
        let opts = durable_opts(u64::MAX);
        let (inner, inner_log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
        let (faulty, faulty_log) = FaultyDisk::pair(inner.clone(), inner_log.clone());
        let bur = IndexBuilder::with_options(opts)
            .disk(faulty.clone())
            .log_disk(faulty_log.clone())
            .build()
            .unwrap();
        faulty.power().cut_after(cut_after);

        let mut acked_batches = 0u64;
        'stream: for b in 0..200u64 {
            let mut batch = Batch::new();
            for i in 0..K as u64 {
                let oid = b * K as u64 + i;
                batch.insert(
                    oid,
                    Point::new(
                        ((oid * 37) % 101) as f32 / 101.0,
                        ((oid * 61) % 103) as f32 / 103.0,
                    ),
                );
            }
            match bur.apply(&batch) {
                Ok(_) => acked_batches += 1,
                Err(_) => break 'stream, // the cut fired
            }
        }
        assert!(
            acked_batches < 200,
            "cut at {cut_after} never fired; raise the batch count"
        );
        drop(bur); // crash — only the platters survive
        faulty.crash(|| true).unwrap();
        faulty_log.crash(|| true).unwrap();

        let recovered = IndexBuilder::generalized()
            .disk(inner)
            .log_disk(inner_log)
            .recover()
            .build()
            .unwrap();
        let len = recovered.len();
        assert_eq!(
            len % K as u64,
            0,
            "cut at {cut_after}: recovered {len} objects — a partial batch \
             survived (group commit records must be all-or-nothing)"
        );
        // Every acknowledged batch except possibly the cut one is exact;
        // the batch that observed the cut has unknown outcome, everything
        // acknowledged before it must be present.
        assert!(
            len / K as u64 >= acked_batches,
            "cut at {cut_after}: {acked_batches} batches were acknowledged but only \
             {} recovered",
            len / K as u64
        );
        recovered.validate().unwrap();
    }
}

// ---- shared-handle concurrency -------------------------------------------

#[test]
fn handle_cloned_across_8_threads_passes_validate() {
    let n = 2_000u64;
    let bur = IndexBuilder::generalized().build().unwrap();
    let mut seed = Batch::with_capacity(n as usize);
    for oid in 0..n {
        seed.insert(
            oid,
            Point::new(
                ((oid * 37) % 101) as f32 / 101.0,
                ((oid * 61) % 103) as f32 / 103.0,
            ),
        );
    }
    bur.apply(&seed).unwrap();

    std::thread::scope(|s| {
        for t in 0..8u64 {
            // Clones — not references — cross the thread boundary.
            let bur = bur.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC10E + t);
                let slice = n / 8;
                let mut positions: Vec<(u64, Point)> = (t * slice..(t + 1) * slice)
                    .map(|oid| {
                        (
                            oid,
                            Point::new(
                                ((oid * 37) % 101) as f32 / 101.0,
                                ((oid * 61) % 103) as f32 / 103.0,
                            ),
                        )
                    })
                    .collect();
                for round in 0..30 {
                    if round % 3 == 0 {
                        // A batch of bottom-up updates over this slice.
                        let mut batch = Batch::new();
                        for (oid, old) in positions.iter_mut() {
                            let new = Point::new(
                                (old.x + rng.random_range(-0.01..0.01f32)).clamp(0.0, 1.0),
                                (old.y + rng.random_range(-0.01..0.01f32)).clamp(0.0, 1.0),
                            );
                            batch.update(*oid, *old, new);
                            *old = new;
                        }
                        bur.apply(&batch).unwrap();
                    } else {
                        // Single-op updates and streaming queries.
                        let (oid, old) = positions[rng.random_range(0..positions.len())];
                        let new = Point::new(
                            (old.x + 0.005).clamp(0.0, 1.0),
                            (old.y - 0.005).clamp(0.0, 1.0),
                        );
                        bur.update(oid, old, new).unwrap();
                        let i = positions.iter().position(|&(o, _)| o == oid).unwrap();
                        positions[i].1 = new;
                        let hits = bur
                            .query(&Rect::new(0.25, 0.25, 0.75, 0.75))
                            .unwrap()
                            .count();
                        assert!(hits <= n as usize);
                    }
                }
            });
        }
    });
    assert_eq!(bur.len(), n, "no objects may be lost");
    bur.validate().unwrap();
    assert_eq!(bur.claimed_leaves(), 0);
}

// ---- cursors -------------------------------------------------------------

#[test]
fn query_cursor_streams_and_recycles() {
    let bur = IndexBuilder::generalized().build().unwrap();
    let mut batch = Batch::new();
    for oid in 0..100u64 {
        batch.insert(oid, Point::new(oid as f32 / 100.0, 0.5));
    }
    bur.apply(&batch).unwrap();

    let window = Rect::new(0.0, 0.0, 0.495, 1.0);
    let cursor = bur.query(&window).unwrap();
    assert_eq!(cursor.len(), 50);
    let mut ids: Vec<u64> = cursor.collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..50).collect::<Vec<u64>>());

    // remaining()/collect_into on a half-consumed cursor.
    let mut cursor = bur.query(&window).unwrap();
    let first = cursor.next().unwrap();
    assert_eq!(cursor.len(), 49);
    assert!(!cursor.remaining().contains(&first));
    let mut rest = Vec::new();
    cursor.collect_into(&mut rest);
    assert_eq!(rest.len(), 49);

    // Heavy reuse keeps answers exact (buffers recycle under the hood).
    for i in 0..200usize {
        let w = Rect::new(0.0, 0.0, (i % 100) as f32 / 100.0, 1.0);
        let expected = (0..100u64)
            .filter(|&oid| w.contains_point(&Point::new(oid as f32 / 100.0, 0.5)))
            .count();
        assert_eq!(bur.count_in(&w).unwrap(), expected);
    }

    // kNN streams too, closest first.
    let nn: Vec<_> = bur.nearest(Point::new(0.31, 0.5), 3).unwrap().collect();
    assert_eq!(nn.len(), 3);
    assert_eq!(nn[0].oid, 31);
    assert!(nn[0].distance <= nn[1].distance && nn[1].distance <= nn[2].distance);
}

// ---- builder/open interop with files -------------------------------------

#[test]
fn builder_file_roundtrip_through_bur() {
    let dir = common::TempDir::new("handle");
    let path = dir.file("bur.idx");
    {
        let bur = IndexBuilder::generalized().file(&path).build().unwrap();
        let mut batch = Batch::new();
        for oid in 0..50u64 {
            batch.insert(oid, Point::new(oid as f32 / 50.0, 0.5));
        }
        bur.apply(&batch).unwrap();
        bur.checkpoint().unwrap();
    }
    let bur = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build()
        .unwrap();
    assert_eq!(bur.len(), 50);
    assert!(bur.recovery_report().is_none(), "clean non-durable open");
    bur.validate().unwrap();
}

/// Opening a durable file redoes its log, and the handle reports what
/// the redo did, as a recover-mode build does.
#[test]
fn open_of_a_crashed_durable_file_reports_its_replay() {
    let dir = common::TempDir::new("handle");
    let path = dir.file("bur.idx");
    {
        let bur = IndexBuilder::generalized()
            .durable()
            .file(&path)
            .build()
            .unwrap();
        for oid in 0..5u64 {
            bur.insert(oid, Point::new(oid as f32 / 5.0, 0.5)).unwrap();
        }
        // Crash: the handle goes without a checkpoint.
    }
    let bur = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build()
        .unwrap();
    assert_eq!(bur.len(), 5);
    let report = bur.recovery_report().expect("the open redid the log");
    assert_eq!(report.commits, 5, "{report:?}");
    bur.validate().unwrap();
}
