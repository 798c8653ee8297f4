//! Warm-standby replication drills: WAL shipping, follower replay, and
//! failover.
//!
//! The contracts under test (the acceptance criteria of the `bur-repl`
//! work):
//!
//! * **divergence-freedom** — for arbitrary mixed op/batch streams on
//!   the primary, a ship-and-apply follower equals the primary (object
//!   count, window answers, `validate()`) at every durable watermark;
//! * **failover** — cutting the shipped stream at *every record
//!   boundary* and promoting the follower loses no acknowledged update
//!   and never half-applies an unacknowledged batch (batches are
//!   all-or-nothing at the replica exactly as they are under crash
//!   recovery);
//! * **checkpoint rewinds** — when the primary checkpoints mid-shipment
//!   the follower detects the generation change, resynchronizes its
//!   base image, and never replays stale records (its watermark is
//!   strictly monotonic).
//!
//! Everything runs on `MemDisk`s — a data and a log disk per primary,
//! wrapped in a `FaultyDisk` pair for the power-cut drill — so every run
//! is reproducible.

mod common;

use bur::prelude::*;
use bur::storage::{DiskBackend, FaultKind, FaultyDisk, MemDisk};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const PAGE: usize = 1024;

fn durable(base: IndexOptions, checkpoint_every: u64) -> IndexOptions {
    base.with_durability(Durability::Wal(WalOptions { checkpoint_every }))
}

/// Copy every page of `src` onto a fresh in-memory disk — a frozen
/// platter snapshot for deterministic replay.
fn clone_disk(src: &dyn DiskBackend) -> Arc<MemDisk> {
    let dst = Arc::new(MemDisk::new(src.page_size()));
    let mut buf = vec![0u8; src.page_size()];
    for pid in 0..src.num_pages() {
        src.read(pid, &mut buf).unwrap();
        dst.allocate().unwrap();
        dst.write(pid, &buf).unwrap();
    }
    dst
}

/// A durable primary on a data and a log disk, and the two disks.
fn primary_on_memory(opts: IndexOptions) -> (Bur, Arc<MemDisk>, Arc<MemDisk>) {
    let (data, log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let primary = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build()
        .unwrap();
    (primary, data, log)
}

/// Sorted ids the index reports inside `w`.
fn ids_in(bur: &Bur, w: &Rect) -> Vec<u64> {
    let mut ids: Vec<u64> = bur.query(w).unwrap().collect();
    ids.sort_unstable();
    ids
}

/// Assert the replica is observation-equivalent to the primary.
fn assert_equivalent(primary: &Bur, replica: &Bur, ctx: &str) {
    assert_eq!(primary.len(), replica.len(), "{ctx}: len");
    for w in [
        Rect::new(-1.0, -1.0, 2.0, 2.0),
        Rect::new(0.0, 0.0, 0.5, 0.5),
        Rect::new(0.25, 0.4, 0.8, 0.9),
    ] {
        assert_eq!(
            ids_in(primary, &w),
            ids_in(replica, &w),
            "{ctx}: window {w}"
        );
    }
    replica
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: replica invalid: {e}"));
}

// ---- satellite 1: divergence proptest ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary mixed op/batch streams on the primary; ship-and-apply
    /// on the follower; equivalence at every durable watermark.
    #[test]
    fn follower_never_diverges_from_primary(
        seed in any::<u64>(),
        steps in proptest::collection::vec(0u8..8, 6..24),
    ) {
        let opts = durable(IndexOptions::generalized(), 1_000_000);
        let (primary, data, log) = primary_on_memory(opts);
        let mut shipper = LogShipper::new(data, log);
        let mut follower = Follower::attach_in_memory(&mut shipper, opts).unwrap();
        let replica = follower.handle();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut alive: Vec<(u64, Point)> = Vec::new();
        let mut next_oid = 0u64;
        let mut last_watermark = follower.applied_lsn();
        for (i, step) in steps.iter().enumerate() {
            match step {
                // Mixed batch: a handful of inserts, updates, deletes
                // under ONE group commit record.
                0 | 1 => {
                    let mut batch = Batch::new();
                    for _ in 0..rng.random_range(1..6u32) {
                        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                        batch.insert(next_oid, p);
                        alive.push((next_oid, p));
                        next_oid += 1;
                    }
                    for _ in 0..rng.random_range(0..4u32) {
                        if alive.is_empty() { break; }
                        let k = rng.random_range(0..alive.len() as u64) as usize;
                        let (oid, old) = alive[k];
                        let new = Point::new(
                            (old.x + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                            (old.y + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                        );
                        batch.update(oid, old, new);
                        alive[k].1 = new;
                    }
                    primary.apply(&batch).unwrap().wait().unwrap();
                }
                // Single insert.
                2 | 3 => {
                    let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                    primary.insert(next_oid, p).unwrap();
                    alive.push((next_oid, p));
                    next_oid += 1;
                }
                // Single update.
                4 | 5 => {
                    if alive.is_empty() { continue; }
                    let k = rng.random_range(0..alive.len() as u64) as usize;
                    let (oid, old) = alive[k];
                    let new = Point::new(
                        (old.x + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                        (old.y + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                    );
                    primary.update(oid, old, new).unwrap();
                    alive[k].1 = new;
                }
                // Single delete.
                6 => {
                    if alive.is_empty() { continue; }
                    let k = rng.random_range(0..alive.len() as u64) as usize;
                    let (oid, p) = alive.swap_remove(k);
                    let ticket = primary.delete(oid, p).unwrap();
                    prop_assert_eq!(ticket.report().deleted, 1);
                }
                // Checkpoint: rewinds the log mid-shipment.
                _ => primary.checkpoint().unwrap(),
            }
            // Durable watermark: everything above is synced;
            // ship and compare.
            follower.catch_up(&mut shipper).unwrap();
            prop_assert!(
                follower.applied_lsn() >= last_watermark,
                "watermark went backwards at step {i}"
            );
            last_watermark = follower.applied_lsn();
            assert_equivalent(&primary, &replica, &format!("seed {seed} step {i}"));
        }
        // End-to-end: positions agree object by object.
        for (oid, p) in &alive {
            let hits: Vec<u64> = replica.query(&Rect::from_point(*p)).unwrap().collect();
            prop_assert!(hits.contains(oid), "object {oid} missing at its position");
        }
        primary.validate().unwrap();
    }
}

// ---- satellite 2a: cut the shipped stream at every record boundary -------

/// Deterministic failover sweep: a batched workload is shipped as one
/// record stream; for every prefix length the stream is cut there, the
/// follower promoted, and the result must equal the primary's state at
/// the last commit inside the prefix — acknowledged batches whole,
/// unacknowledged batches absent entirely.
#[test]
fn failover_at_every_record_boundary_is_all_or_nothing() {
    let opts = durable(IndexOptions::generalized(), 1_000_000);
    let (primary, data, log) = primary_on_memory(opts);

    // Seed + quiesce, then freeze the base image every follower attaches
    // from: both disks at one instant.
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let mut positions: HashMap<u64, Point> = HashMap::new();
    let mut seed_batch = Batch::new();
    for oid in 0..40u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        seed_batch.insert(oid, p);
        positions.insert(oid, p);
    }
    primary.apply(&seed_batch).unwrap().wait().unwrap();
    let seed_positions = positions.clone();
    let (base, base_log) = (clone_disk(data.as_ref()), clone_disk(log.as_ref()));

    // Batched workload; oracle state per commit LSN.
    let mut oracle: HashMap<u64, HashMap<u64, Point>> = HashMap::new();
    for _ in 0..10 {
        let mut batch = Batch::new();
        for _ in 0..6 {
            let oid = rng.random_range(0..40);
            let old = positions[&oid];
            let new = Point::new(
                (old.x + rng.random_range(-0.06..0.06f32)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.06..0.06f32)).clamp(0.0, 1.0),
            );
            batch.update(oid, old, new);
            positions.insert(oid, new);
        }
        let ticket = primary.apply(&batch).unwrap();
        ticket.wait().unwrap();
        oracle.insert(ticket.lsn(), positions.clone());
    }

    // The full stream, as any follower would receive it.
    let mut probe = LogShipper::new(data, log);
    let stream = probe.poll().unwrap();
    assert!(!stream.torn_tail);
    let records = stream.records;
    assert!(records.len() > 20, "stream too short: {}", records.len());

    for cut in 0..=records.len() {
        let mut shipper = LogShipper::new(base.clone(), base_log.clone());
        let mut follower = Follower::attach_in_memory(&mut shipper, opts)
            .unwrap_or_else(|e| panic!("cut {cut}: attach: {e}"));
        let attach_lsn = follower.applied_lsn();
        // Ship only the records the cut lets through (past what attach
        // already consumed from the frozen base).
        let shipped: Vec<_> = records[..cut]
            .iter()
            .filter(|(lsn, _)| *lsn > attach_lsn)
            .cloned()
            .collect();
        let batch = bur::repl::ShipBatch {
            generation: stream.generation,
            rewound: false,
            records: shipped,
            torn_tail: cut < records.len(),
        };
        follower.apply(&batch).unwrap();
        let watermark = follower.applied_lsn();
        let promoted = follower.promote().unwrap();
        promoted
            .validate()
            .unwrap_or_else(|e| panic!("cut {cut}: promoted invalid: {e}"));
        assert_eq!(promoted.len(), 40, "cut {cut}");

        // The promoted state must be the oracle at the watermark: every
        // commit at or below it applied whole, everything after absent.
        // A watermark below the first workload commit means the cut fell
        // inside the first batch — the seed state survives untouched.
        let expect = oracle.get(&watermark).unwrap_or(&seed_positions).clone();
        for (oid, p) in &expect {
            let hits: Vec<u64> = promoted.query(&Rect::from_point(*p)).unwrap().collect();
            assert!(
                hits.contains(oid),
                "cut {cut}: object {oid} not at the batch-atomic position (watermark {watermark})"
            );
        }
        // Write through the promoted primary: it is live.
        promoted.insert(900, Point::new(0.99, 0.01)).unwrap();
        promoted.validate().unwrap();
    }
}

// ---- satellite 2b: power-cut failover drill (FaultyDisk) ------------------

/// The primary dies mid-write (torn page, nothing after persists); the
/// warm standby ships the surviving clean prefix and promotes. Every
/// acknowledged update must be present; the op interrupted by the cut
/// lands atomically on exactly one side.
#[test]
fn promoted_follower_loses_no_acked_update_across_cut_sweep() {
    for cut in [7u64, 19, 33, 52, 74, 96, 121, 150] {
        let opts = durable(IndexOptions::generalized(), 1_000_000);
        // Data and log share one power supply: one cut stops both.
        let (data, log) =
            FaultyDisk::pair(Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
        let primary = IndexBuilder::with_options(opts)
            .disk(data.clone())
            .log_disk(log.clone())
            .build()
            .unwrap();
        let mut shipper = LogShipper::new(data.clone(), log);
        let mut follower = Follower::attach_in_memory(&mut shipper, opts)
            .unwrap_or_else(|e| panic!("cut {cut}: attach: {e}"));

        let n = 60u64;
        let mut rng = StdRng::seed_from_u64(7100 + cut);
        let mut positions: Vec<Point> = Vec::new();
        for oid in 0..n {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            primary.insert(oid, p).unwrap();
            positions.push(p);
        }
        follower.catch_up(&mut shipper).unwrap();

        data.inject(FaultKind::TornWrite { after_writes: cut });
        let mut pending: Option<(u64, Point, Point)> = None;
        for step in 0..100_000u64 {
            let oid = rng.random_range(0..n);
            let old = positions[oid as usize];
            let new = Point::new(
                (old.x + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
            );
            match primary.update(oid, old, new) {
                Ok(_) => positions[oid as usize] = new,
                Err(_) => {
                    pending = Some((oid, old, new));
                    break;
                }
            }
            // Ship while the primary is alive, like a real standby pump.
            if step % 16 == 0 {
                follower.sync_once(&mut shipper).unwrap();
            }
        }
        let (poid, pold, pnew) =
            pending.unwrap_or_else(|| panic!("cut {cut}: the power cut never fired"));
        drop(primary); // the primary is gone; only the platter remains

        // Final catch-up over the torn log, then fail over.
        follower.catch_up(&mut shipper).unwrap();
        let promoted = follower.promote().unwrap();
        promoted
            .validate()
            .unwrap_or_else(|e| panic!("cut {cut}: promoted invalid: {e}"));
        assert_eq!(promoted.len(), n, "cut {cut}");

        // The interrupted op has an unknown outcome: exactly one side.
        let at = |p: Point| -> bool {
            promoted
                .query(&Rect::from_point(p))
                .unwrap()
                .any(|oid| oid == poid)
        };
        let (at_new, at_old) = (at(pnew), at(pold));
        assert!(
            at_new || at_old,
            "cut {cut}: interrupted op on {poid} vanished"
        );
        if at_new {
            positions[poid as usize] = pnew;
        }
        // Zero acknowledged updates lost.
        for (oid, p) in positions.iter().enumerate() {
            let hits: Vec<u64> = promoted.query(&Rect::from_point(*p)).unwrap().collect();
            assert!(
                hits.contains(&(oid as u64)),
                "cut {cut}: acknowledged position of {oid} lost"
            );
        }
        // The new primary takes durable writes on its own log.
        promoted
            .update(0, positions[0], Point::new(0.5, 0.5))
            .unwrap();
        promoted.validate().unwrap();
    }
}

// ---- satellite 3: checkpoint-rewind drill ---------------------------------

/// The primary checkpoints mid-shipment (frequent cadence): the follower
/// must detect every generation change, resync its base image, and keep
/// a strictly monotonic watermark — stale records are never replayed.
#[test]
fn checkpoint_rewind_mid_shipment_resyncs_cleanly() {
    let opts = durable(IndexOptions::generalized(), 24); // rewind every 24 ops
    let (primary, data, log) = primary_on_memory(opts);
    let mut shipper = LogShipper::new(data, log);
    let mut follower = Follower::attach_in_memory(&mut shipper, opts).unwrap();
    let replica = follower.handle();

    let n = 50u64;
    let mut rng = StdRng::seed_from_u64(0xC4C4);
    let mut positions: Vec<Point> = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        primary.insert(oid, p).unwrap();
        positions.push(p);
    }
    let mut watermarks = vec![follower.applied_lsn()];
    for round in 0..12u64 {
        for _ in 0..10 {
            let oid = rng.random_range(0..n);
            let old = positions[oid as usize];
            let new = Point::new(
                (old.x + rng.random_range(-0.04..0.04f32)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.04..0.04f32)).clamp(0.0, 1.0),
            );
            primary.update(oid, old, new).unwrap();
            positions[oid as usize] = new;
        }
        follower.catch_up(&mut shipper).unwrap();
        watermarks.push(follower.applied_lsn());
        assert_equivalent(&primary, &replica, &format!("round {round}"));
    }
    // Rewinds actually happened and were survived by resyncs.
    let stats = follower.stats();
    assert!(
        stats.resyncs >= 3,
        "checkpoint cadence must have rewound the log several times: {stats:?}"
    );
    // No stale replay: the watermark is strictly monotonic.
    for pair in watermarks.windows(2) {
        assert!(
            pair[0] < pair[1],
            "watermark stalled or reversed: {watermarks:?}"
        );
    }
    // And the standby still promotes.
    let promoted = follower.promote().unwrap();
    promoted.validate().unwrap();
    assert_eq!(promoted.len(), n);
}

// ---- concurrency: live pump beside writers and readers --------------------

/// A short soak: two writer threads on the primary, a pump thread
/// shipping to the follower, and a reader thread querying the replica —
/// then a final catch-up, equivalence check and promote.
#[test]
fn follower_soaks_under_concurrent_writers_and_readers() {
    let opts = durable(IndexOptions::generalized(), 512);
    let (primary, data, log) = primary_on_memory(opts);
    let n = 256u64;
    let mut seed_batch = Batch::new();
    for oid in 0..n {
        seed_batch.insert(
            oid,
            Point::new((oid % 16) as f32 / 16.0, ((oid / 16) % 16) as f32 / 16.0),
        );
    }
    primary.apply(&seed_batch).unwrap().wait().unwrap();

    let mut shipper = LogShipper::new(data, log);
    let mut follower = Follower::attach_in_memory(&mut shipper, opts).unwrap();
    let replica = follower.handle();

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let writer = primary.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + t);
                // Each thread owns a disjoint id range: updates race only
                // in the tree, never on the same object.
                let lo = t * (n / 2);
                let hi = lo + n / 2;
                for _ in 0..400 {
                    let oid = rng.random_range(lo..hi);
                    let old = Point::new((oid % 16) as f32 / 16.0, ((oid / 16) % 16) as f32 / 16.0);
                    // Move out and back so the final state is known.
                    let out = Point::new(
                        (old.x + 0.011).clamp(0.0, 1.0),
                        (old.y + 0.013).clamp(0.0, 1.0),
                    );
                    writer.update(oid, old, out).unwrap();
                    writer.update(oid, out, old).unwrap();
                }
            });
        }
        let reader = replica.clone();
        s.spawn(move || {
            for _ in 0..200 {
                // The watermark snapshot always reports the full live
                // set; window answers stream without errors even while
                // the pump resyncs underneath.
                assert_eq!(reader.len(), n);
                let _ = reader.count_in(&Rect::new(-1.0, -1.0, 2.0, 2.0)).unwrap();
            }
        });
        // The pump runs in this thread.
        for _ in 0..300 {
            follower.sync_once(&mut shipper).unwrap();
        }
    });

    let log = primary.wal_stats().unwrap();
    assert_eq!(log.durable_lsn, log.last_lsn, "every acked op is durable");
    follower.catch_up(&mut shipper).unwrap();
    assert_equivalent(&primary, &replica, "post-soak");
    let promoted = follower.promote().unwrap();
    promoted.validate().unwrap();
    assert_eq!(promoted.len(), n);
}

// ---- misc: file-backed replication round trip -----------------------------

/// Replication works file-to-file: a durable primary file ships into a
/// replica file; the promoted replica reopens from disk as a durable
/// index equal to the primary.
#[test]
fn file_to_file_replication_round_trip() {
    let dir = common::TempDir::new("repl");
    let primary_path = dir.file("primary.bur");
    let replica_path = dir.file("replica.bur");
    let opts = durable(IndexOptions::generalized(), 1_000_000);

    let pair = |path: &std::path::Path| {
        let data = Arc::new(FileDisk::create(path, PAGE).unwrap());
        let log = Arc::new(FileDisk::create(bur::core::log_path(path), PAGE).unwrap());
        (data, log)
    };
    let (primary_disk, primary_log) = pair(&primary_path);
    let primary = IndexBuilder::with_options(opts)
        .disk(primary_disk.clone())
        .log_disk(primary_log.clone())
        .build()
        .unwrap();
    let mut batch = Batch::new();
    for oid in 0..300u64 {
        batch.insert(
            oid,
            Point::new((oid % 20) as f32 / 20.0, ((oid / 20) % 15) as f32 / 15.0),
        );
    }
    primary.apply(&batch).unwrap().wait().unwrap();

    let mut shipper = LogShipper::new(primary_disk, primary_log);
    let (replica_disk, replica_log) = pair(&replica_path);
    let mut follower =
        Follower::attach(&mut shipper, replica_disk, Some(replica_log), opts).unwrap();
    follower.catch_up(&mut shipper).unwrap();
    let promoted = follower.promote().unwrap();
    assert_eq!(promoted.len(), 300);
    promoted.checkpoint().unwrap();
    drop(promoted);

    // The replica file now opens on its own as a durable index.
    let reopened = IndexBuilder::with_options(opts)
        .file(&replica_path)
        .open()
        .build()
        .unwrap();
    assert_eq!(reopened.len(), 300);
    assert!(reopened.is_durable());
    reopened.validate().unwrap();
    assert_eq!(
        ids_in(&primary, &Rect::new(0.0, 0.0, 0.6, 0.6)),
        ids_in(&reopened, &Rect::new(0.0, 0.0, 0.6, 0.6)),
    );
}

/// A promote whose snapshot came from a commit record names no hash
/// directory, so the promoted index rebuilds its hash. It builds it in
/// the pages no one owns — among them the primary's hash, copied with
/// the base image — and the follower's file grows by a page or two of
/// chains at most, not by a whole hash.
#[test]
fn a_promote_rebuilds_the_hash_in_pages_nobody_owns() {
    let opts = durable(IndexOptions::generalized(), 1_000_000);
    let (primary, data, log) = primary_on_memory(opts);
    let mut rng = StdRng::seed_from_u64(0x19);
    let mut batch = Batch::new();
    let mut positions = Vec::new();
    for oid in 0..3_000u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        batch.insert(oid, p);
        positions.push(p);
    }
    primary.apply(&batch).unwrap().wait().unwrap();
    primary.checkpoint().unwrap();
    // Updates after the checkpoint: the follower's snapshot comes from
    // their commit record.
    for oid in 0..20u64 {
        let old = positions[oid as usize];
        let new = Point::new((old.x + 0.01).min(1.0), old.y);
        primary.update(oid, old, new).unwrap();
        positions[oid as usize] = new;
    }
    let mut shipper = LogShipper::new(data, log);
    let (replica, replica_log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let mut follower =
        Follower::attach(&mut shipper, replica.clone(), Some(replica_log), opts).unwrap();
    follower.catch_up(&mut shipper).unwrap();
    let before = replica.num_pages();
    let promoted = follower.promote().unwrap();
    let grown = replica.num_pages() - before;
    assert!(
        grown <= 2,
        "the promote grew the file {grown} pages ({before} -> {}), hash: {} pages",
        replica.num_pages(),
        promoted.with_index(RTreeIndex::hash_pages)
    );
    promoted.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        let hits: Vec<u64> = promoted.query(&Rect::from_point(*p)).unwrap().collect();
        assert!(hits.contains(&(oid as u64)), "object {oid} lost");
    }
}
