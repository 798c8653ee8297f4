//! Failure-injection drills: disk faults must surface as clean
//! `CoreError::Storage` values — never panics — and transient faults must
//! not poison the index. Uses the deterministic [`FaultyDisk`] wrapper.
//!
//! The durability contract under test: an `apply` that returns `Ok` is
//! durable, and an `apply` whose log sync failed returns `Err` and
//! acknowledges nothing.

mod common;

use bur::core::{
    Batch, Bur, CoreError, CoreResult, Durability, IndexBuilder, IndexOptions, Op, RTreeIndex,
    WalOptions,
};
use bur::geom::{Point, Rect};
use bur::storage::{DiskBackend, FaultKind, FaultyDisk, FileDisk, MemDisk, StorageError};
use common::TempDir;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// An index of `n` uniform points on a fault-injectable disk.
fn build(opts: IndexOptions, n: usize, seed: u64) -> (RTreeIndex, Arc<FaultyDisk>, Vec<Point>) {
    let disk = FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n);
    for oid in 0..n as u64 {
        let p = Point::new(rng.random::<f32>(), rng.random::<f32>());
        index.insert(oid, p).unwrap();
        pts.push(p);
    }
    (index, disk, pts)
}

#[test]
fn read_fault_surfaces_as_storage_error() {
    let (index, disk, _) = build(IndexOptions::generalized(), 2000, 3);
    // Force queries to touch the disk.
    index.pool().evict_all().unwrap();
    disk.fail_always(FaultKind::Read);
    let err = index.query(&Rect::new(0.1, 0.1, 0.4, 0.4)).unwrap_err();
    assert!(
        matches!(err, CoreError::Storage(_)),
        "expected a storage error, got {err}"
    );
    assert!(disk.injected_faults() > 0);
}

#[test]
fn transient_read_fault_recovers() {
    let (index, disk, _) = build(IndexOptions::generalized(), 2000, 5);
    index.pool().evict_all().unwrap();
    let window = Rect::new(0.2, 0.2, 0.5, 0.5);
    disk.fail_next(FaultKind::Read, 1);
    let _ = index.query(&window); // may fail, must not panic
    disk.clear_faults();
    // The failed read must not have been cached as valid data.
    let hits = index.query(&window).unwrap();
    assert!(!hits.is_empty());
    index.validate().unwrap();
}

#[test]
fn query_failure_does_not_corrupt_index() {
    let (index, disk, pts) = build(IndexOptions::top_down(), 3000, 7);
    index.pool().evict_all().unwrap();
    disk.fail_next(FaultKind::Read, 3);
    for _ in 0..5 {
        let _ = index.query(&Rect::new(0.0, 0.0, 1.0, 1.0));
    }
    disk.clear_faults();
    index.validate().unwrap();
    // Every object is still present.
    let all = index.query(&Rect::new(-10.0, -10.0, 10.0, 10.0)).unwrap();
    assert_eq!(all.len(), pts.len());
}

#[test]
fn insert_failure_reports_error_not_panic() {
    let opts = IndexOptions::generalized();
    let disk = FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .build_index()
        .unwrap();
    // Tiny pool so inserts must do physical I/O; then kill the disk.
    index.set_buffer_capacity(2).unwrap();
    let mut failures = 0;
    let mut rng = StdRng::seed_from_u64(11);
    for oid in 0..5000u64 {
        if oid == 2000 {
            disk.fail_always(FaultKind::Write);
            disk.fail_always(FaultKind::Read);
        }
        if oid == 2600 {
            disk.clear_faults();
        }
        let p = Point::new(rng.random::<f32>(), rng.random::<f32>());
        match index.insert(oid, p) {
            Ok(()) => {}
            Err(CoreError::Storage(_)) => failures += 1,
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(failures > 0, "the dead-disk window must fail some inserts");
    assert!(!index.is_empty());
}

#[test]
fn sync_failure_surfaces_through_persist() {
    let opts = IndexOptions::generalized();
    let disk = FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.5, 0.5)).unwrap();
    disk.fail_always(FaultKind::Sync);
    // MemDisk syncs are no-ops, but persist must still propagate the
    // injected failure from flush_all's sync.
    let err = index.checkpoint().unwrap_err();
    assert!(matches!(err, CoreError::Storage(_)), "got {err}");
    disk.clear_faults();
    index.checkpoint().unwrap();
}

#[test]
fn power_cut_on_file_disk_surfaces_cleanly_and_platter_survives() {
    // A power cut against a *real file pair*, the index file and its log
    // sidecar on one supply: the process sees clean errors (never
    // panics), the crash keeps a seeded subset of what was not synced,
    // and the files recover every acknowledged insert.
    let dir = TempDir::new("faults");
    let path = dir.file("powercut.bur");
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 64,
    }));
    let file = |path: &std::path::Path| Arc::new(FileDisk::create(path, opts.page_size).unwrap());
    let (disk, log) = FaultyDisk::pair(file(&path), file(&bur::core::log_path(&path)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .log_disk(log.clone())
        .build_index()
        .unwrap();
    index.set_buffer_capacity(4).unwrap(); // force steady write-back traffic
    let mut rng = StdRng::seed_from_u64(99);
    let mut acked = Vec::new();
    disk.power().cut_after(120);
    let mut failures = 0;
    let mut pending = None;
    for oid in 0..20_000u64 {
        let p = Point::new(rng.random::<f32>(), rng.random::<f32>());
        match index.insert(oid, p) {
            Ok(()) => acked.push(p),
            Err(CoreError::Storage(_)) => {
                pending.get_or_insert(p);
                failures += 1;
                if failures > 3 {
                    break;
                }
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(disk.power().is_cut(), "the cut must have fired");
    assert!(!acked.is_empty() && failures > 0);
    drop(index);
    for disk in [&disk, &log] {
        disk.crash(|| rng.random_range(0..2) == 0).unwrap();
    }
    // The surviving file still opens page-wise (reads are unaffected).
    let reopened = FileDisk::open(&path, opts.page_size).unwrap();
    assert!(reopened.num_pages() > 0);
    let mut buf = vec![0u8; opts.page_size];
    reopened.read(0, &mut buf).unwrap();
    // And the pair recovers: every acknowledged insert, the interrupted
    // one or not.
    let recovered = IndexBuilder::with_options(opts)
        .file(&path)
        .recover()
        .build_index()
        .unwrap();
    recovered.validate().unwrap();
    let interrupted = pending.expect("an insert observed the cut");
    let landed = recovered.len() - acked.len() as u64;
    assert!(landed <= 1, "{landed} inserts past the acknowledged ones");
    assert_eq!(
        landed == 1,
        recovered
            .point_query(interrupted)
            .unwrap()
            .contains(&(acked.len() as u64))
    );
    for (oid, p) in acked.iter().enumerate() {
        assert!(
            recovered.point_query(*p).unwrap().contains(&(oid as u64)),
            "acknowledged insert {oid} lost"
        );
    }
}

#[test]
fn updates_survive_fault_windows() {
    let (mut index, disk, mut pts) = build(IndexOptions::generalized(), 2000, 13);
    index.set_buffer_capacity(8).unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let mut errors = 0;
    let mut applied = 0;
    for step in 0..4000 {
        // A fault window of 50 operations every 1000 steps.
        if step % 1000 == 600 {
            disk.fail_next(FaultKind::Read, 25);
            disk.fail_next(FaultKind::Write, 25);
        }
        let oid = rng.random_range(0..pts.len() as u64);
        let old = pts[oid as usize];
        let new = Point::new(
            old.x + rng.random_range(-0.01..0.01f32),
            old.y + rng.random_range(-0.01..0.01f32),
        );
        match index.update(oid, old, new) {
            Ok(_) => {
                pts[oid as usize] = new;
                applied += 1;
            }
            Err(CoreError::Storage(_)) => {
                errors += 1;
                // The update may have half-applied (deleted but not
                // re-inserted). Resynchronize our shadow copy with the
                // index: whichever of old/new is present wins; a lost
                // object is re-inserted — exactly what a monitoring
                // application's retry would do.
                disk.clear_faults();
                if index.point_query(new).unwrap().contains(&oid) {
                    pts[oid as usize] = new;
                } else if !index.point_query(old).unwrap().contains(&oid) {
                    index.insert(oid, old).unwrap_or_else(|e| {
                        panic!("re-insert of {oid} failed: {e}");
                    });
                }
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    assert!(errors > 0, "fault windows must trip some updates");
    assert!(applied > 3000, "most updates must succeed");
    index.validate().unwrap();
    assert_eq!(index.len(), pts.len() as u64);
}

/// Where a batch's updates send their objects.
#[derive(Clone, Copy)]
enum Moves {
    /// A quarter of the way towards a leaf-mate: inside the leaf's MBR by
    /// convexity, so every update is in place and the batch stays on the
    /// shared path.
    WithinLeaf,
    /// Up to this far along each axis — at 0.06, the paper's fast
    /// movers, some update of every batch shifts or ascends and the
    /// batch escalates to the exclusive path.
    Within(f32),
}

/// 32 updates of distinct objects (two ops on one object would escalate
/// by themselves), recorded in `now`.
fn update_batch(bur: &Bur, now: &mut [Point], rng: &mut StdRng, moves: Moves) -> Batch {
    let n = now.len() as u64;
    let leaf_of: Vec<u32> = match moves {
        Moves::WithinLeaf => bur.with_index(|index| {
            (0..n)
                .map(|oid| index.locate_leaf(oid).unwrap().expect("indexed"))
                .collect()
        }),
        Moves::Within(_) => Vec::new(),
    };
    let mut batch = Batch::with_capacity(32);
    let first = rng.random_range(0..n);
    for i in 0..32 {
        let oid = (first + i * 61) % n;
        let old = now[oid as usize];
        let new = match moves {
            Moves::WithinLeaf => {
                let mate = (0..n)
                    .find(|&m| m != oid && leaf_of[m as usize] == leaf_of[oid as usize])
                    .expect("min fill keeps two objects in a leaf");
                let mate = now[mate as usize];
                Point::new(
                    old.x + (mate.x - old.x) / 4.0,
                    old.y + (mate.y - old.y) / 4.0,
                )
            }
            Moves::Within(d) => Point::new(
                (old.x + rng.random_range(-d..d)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-d..d)).clamp(0.0, 1.0),
            ),
        };
        batch.update(oid, old, new);
        now[oid as usize] = new;
    }
    batch
}

/// Whether `err` is the refusal of a log that a failed sync closed.
fn log_failed(err: &CoreError) -> bool {
    matches!(err, CoreError::Storage(StorageError::LogFailed))
}

/// One more batch on an index whose log a failed sync closed: refused
/// with the typed error, nothing pinned or claimed. `now` keeps its
/// moves, as the handle's reads do until a reopen; no oracle of what
/// survives a crash takes them.
fn refused_after_the_failed_sync(bur: &Bur, now: &mut [Point], rng: &mut StdRng, moves: Moves) {
    let batch = update_batch(bur, now, rng, moves);
    let err = bur.apply(&batch).expect_err("a failed log takes no batch");
    assert!(log_failed(&err), "got {err}");
    assert!(err.to_string().contains("reopen"), "{err}");
    assert_eq!(bur.with_index(|i| i.pool().pinned_frames()), 0);
    assert_eq!(bur.claimed_leaves(), 0);
}

/// Reopen the index whose data and log disks are `data` and `log` after
/// a crash that keeps every write sent, and check it holds, per object,
/// one of the positions `legal` allows. It then acks again.
fn reopen_after_the_failed_sync(
    opts: IndexOptions,
    data: Arc<dyn bur::storage::DiskBackend>,
    log: Arc<dyn bur::storage::DiskBackend>,
    legal: &[Vec<Point>],
    moves: Moves,
    seed: u64,
) {
    let recovered = IndexBuilder::with_options(opts)
        .disk(data)
        .log_disk(log)
        .recover()
        .build()
        .unwrap();
    recovered.validate().unwrap();
    assert_eq!(recovered.len(), legal.len() as u64);
    let mut now = Vec::with_capacity(legal.len());
    for (oid, legal) in legal.iter().enumerate() {
        let at = legal.iter().find(|&&p| {
            recovered.with_index(|i| i.point_query(p).unwrap().contains(&(oid as u64)))
        });
        let at = at.unwrap_or_else(|| {
            panic!("object {oid} recovered to a position older than its last ack")
        });
        now.push(*at);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let batch = update_batch(&recovered, &mut now, &mut rng, moves);
    recovered.apply(&batch).unwrap().wait().unwrap();
    recovered.validate().unwrap();
}

/// The fourth commit sync of a run of 32-op batches fails, with the log
/// on a [`FaultyDisk`] of its own. The batch is not acked, and the log is
/// closed: later batches are refused with the typed error until a
/// reopen, which finds every acked batch and the refused one whole or
/// not at all.
fn failed_sync_never_acks(moves: Moves, seed: u64) {
    const OBJECTS: u64 = 2000;
    const FAIL_AT: usize = 3;
    let escalates = matches!(moves, Moves::Within(_));
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000, // one log sync per batch, exactly
    }));
    let data = Arc::new(MemDisk::new(opts.page_size));
    let log = FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size)));
    let bur = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now: Vec<Point> = (0..OBJECTS)
        .map(|_| Point::new(rng.random::<f32>(), rng.random::<f32>()))
        .collect();
    let mut load = Batch::new();
    for (oid, &p) in now.iter().enumerate() {
        load.insert(oid as u64, p);
    }
    bur.apply(&load).unwrap().wait().unwrap();
    // Per object: its position at the last acked batch, then the one the
    // refused batch gave it. Recovery may land on either of these (the
    // refused batch whole or not at all) and on nothing older.
    let mut since_ack: Vec<Vec<Point>> = now.iter().map(|&p| vec![p]).collect();

    let durable_lsn = |bur: &Bur| bur.wal_stats().unwrap().durable_lsn;
    let escalations = |bur: &Bur| bur.with_op_stats(|s| s.snapshot().escalations);
    let moved = |batch: &Batch| -> Vec<u64> {
        batch
            .ops()
            .iter()
            .filter_map(|op| match *op {
                Op::Update { oid, .. } => Some(oid),
                _ => None,
            })
            .collect()
    };

    log.fail_nth(FaultKind::Sync, FAIL_AT as u64);
    // Every ack's LSN must exceed this: the last acked record.
    let mut lsn_floor = durable_lsn(&bur);
    let mut refused = Vec::new();
    for round in 0..=FAIL_AT {
        let batch = update_batch(&bur, &mut now, &mut rng, moves);
        let before = (durable_lsn(&bur), escalations(&bur));
        let outcome = bur.apply(&batch);
        if round == FAIL_AT {
            let err = outcome.expect_err("the sync failed: the batch must not be acked");
            assert!(matches!(err, CoreError::Storage(_)), "got {err}");
            assert_eq!(log.injected_faults(), 1);
            assert_eq!(escalations(&bur) - before.1, u64::from(escalates));
            let stats = bur.wal_stats().unwrap();
            assert_eq!(
                stats.durable_lsn, before.0,
                "a failed sync moved the watermark"
            );
            assert!(
                stats.last_lsn > stats.durable_lsn,
                "the record was appended"
            );
            assert_eq!(bur.with_index(|i| i.pool().pinned_frames()), 0);
            assert_eq!(bur.claimed_leaves(), 0);
            refused = moved(&batch);
            break;
        }
        let lsn = outcome.unwrap().wait().unwrap();
        assert!(lsn > lsn_floor, "round {round}: {lsn} <= {lsn_floor}");
        assert!(durable_lsn(&bur) >= lsn);
        lsn_floor = lsn;
        for oid in moved(&batch) {
            since_ack[oid as usize] = vec![now[oid as usize]];
        }
    }
    log.clear_faults();
    // Outcome unknown to the client: both positions stay legal.
    for &oid in &refused {
        since_ack[oid as usize].push(now[oid as usize]);
    }
    // The disk works again, the log does not: a retried sync would
    // persist the tail page alone.
    for _ in 0..3 {
        refused_after_the_failed_sync(&bur, &mut now, &mut rng, moves);
    }
    assert_eq!(bur.checkpoint().map_err(|e| log_failed(&e)), Err(true));
    assert_eq!(durable_lsn(&bur), lsn_floor);
    drop(bur); // crash: no checkpoint, no persist

    log.crash(|| true).unwrap();
    reopen_after_the_failed_sync(opts, data, log, &since_ack, moves, seed + 1);
}

#[test]
fn failed_commit_sync_never_acks_on_the_shared_path() {
    failed_sync_never_acks(Moves::WithinLeaf, 41);
}

#[test]
fn failed_commit_sync_never_acks_on_the_escalated_path() {
    failed_sync_never_acks(Moves::Within(0.06), 43);
}

/// The checkpoint that follows a commit fails on the data disk's sync,
/// with the log on a disk of its own. The batch is durable already, so
/// the `Err` is an "unknown" outcome whose batch survives. The sync may
/// have lost pages the pool now counts clean, so the log is closed
/// rather than rewound by a retried checkpoint: later batches are
/// refused with the typed error, and a reopen finds every batch up to
/// the failed checkpoint's.
fn failed_checkpoint_leaves_the_batch_durable(moves: Moves, seed: u64) {
    const OBJECTS: u64 = 2000;
    const ROUNDS: usize = 6;
    let escalates = matches!(moves, Moves::Within(_));
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 4 * 32, // every fourth 32-op batch
    }));
    let data = FaultyDisk::new(Arc::new(MemDisk::new(opts.page_size)));
    let log = Arc::new(MemDisk::new(opts.page_size));
    let bur = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now: Vec<Point> = (0..OBJECTS)
        .map(|_| Point::new(rng.random::<f32>(), rng.random::<f32>()))
        .collect();
    let mut load = Batch::new();
    for (oid, &p) in now.iter().enumerate() {
        load.insert(oid as u64, p);
    }
    bur.apply(&load).unwrap(); // checkpoints: the cadence restarts at 0

    let stats = |bur: &Bur| bur.wal_stats().unwrap();
    let escalations = |bur: &Bur| bur.with_op_stats(|s| s.snapshot()).escalations;
    // Only a checkpoint syncs the data disk: the fourth batch's fails.
    data.fail_nth(FaultKind::Sync, 0);
    let mut failed = false;
    let mut checkpoints = 0;
    let mut legal = Vec::new();
    for round in 0..ROUNDS {
        if failed {
            refused_after_the_failed_sync(&bur, &mut now, &mut rng, moves);
            continue;
        }
        let batch = update_batch(&bur, &mut now, &mut rng, moves);
        let before = (stats(&bur), escalations(&bur));
        let outcome = bur.apply(&batch);
        if round != 3 {
            outcome.unwrap();
            continue;
        }
        let err = outcome.expect_err("the checkpoint's data sync failed");
        assert!(matches!(err, CoreError::Storage(_)), "got {err}");
        assert_eq!(data.injected_faults(), 1);
        assert_eq!(escalations(&bur) - before.1, u64::from(escalates));
        let after = stats(&bur);
        assert_eq!(after.commits, before.0.commits + 1, "the batch committed");
        assert_eq!(
            after.checkpoints, before.0.checkpoints,
            "no checkpoint landed"
        );
        assert_eq!(after.durable_lsn, after.last_lsn, "the record is durable");
        assert!(after.last_lsn > before.0.last_lsn);
        assert_eq!(bur.with_index(|i| i.pool().pinned_frames()), 0);
        assert_eq!(bur.claimed_leaves(), 0);
        data.clear_faults();
        failed = true;
        checkpoints = after.checkpoints;
        // Up to here every batch is durable: the oracle.
        legal = now.iter().map(|&p| vec![p]).collect();
    }
    assert!(failed);
    assert_eq!(
        stats(&bur).checkpoints,
        checkpoints,
        "no checkpoint retried"
    );
    bur.validate().unwrap();
    drop(bur); // crash: no checkpoint, no persist

    data.crash(|| true).unwrap();
    reopen_after_the_failed_sync(opts, data, log, &legal, moves, seed + 1);
}

#[test]
fn failed_checkpoint_leaves_the_batch_durable_on_the_shared_path() {
    failed_checkpoint_leaves_the_batch_durable(Moves::WithinLeaf, 47);
}

#[test]
fn failed_checkpoint_leaves_the_batch_durable_on_the_escalated_path() {
    failed_checkpoint_leaves_the_batch_durable(Moves::Within(0.06), 53);
}

// ---- a refused sync, then a crash ------------------------------------------

/// Where a drill's index lives: two `MemDisk`s, or an index file and its
/// log sidecar in a temporary directory. Either way the injector wraps
/// them, and recovery reads what they hold after the crash.
enum Platters {
    Mem(Arc<MemDisk>, Arc<MemDisk>),
    File(TempDir),
}

impl Platters {
    const FILE: &'static str = "drill.bur";

    fn file() -> Self {
        Platters::File(TempDir::new("refused-sync"))
    }

    fn mem() -> Self {
        Platters::Mem(Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024)))
    }

    /// A durable GBU index on the injector over the platters.
    fn build(&self, opts: IndexOptions) -> (Bur, Arc<FaultyDisk>, Arc<FaultyDisk>) {
        let (data, log): (Arc<dyn DiskBackend>, Arc<dyn DiskBackend>) = match self {
            Platters::Mem(data, log) => (data.clone(), log.clone()),
            Platters::File(dir) => {
                let path = dir.file(Self::FILE);
                let create = |p: &std::path::Path| Arc::new(FileDisk::create(p, 1024).unwrap());
                (create(&path), create(&bur::core::log_path(&path)))
            }
        };
        let (data, log) = FaultyDisk::pair(data, log);
        let bur = IndexBuilder::with_options(opts)
            .disk(data.clone())
            .log_disk(log.clone())
            .build()
            .unwrap();
        (bur, data, log)
    }

    /// Recover from what the platters hold (a file through
    /// `IndexBuilder::file`).
    fn recover(&self, opts: IndexOptions) -> CoreResult<Bur> {
        let builder = IndexBuilder::with_options(opts);
        let builder = match self {
            Platters::Mem(data, log) => builder.disk(data.clone()).log_disk(log.clone()),
            Platters::File(dir) => builder.file(dir.file(Self::FILE)),
        };
        builder.recover().build()
    }
}

/// A drill's run: 2 000 objects, then 32-update batches at max distance
/// 0.06 until one is refused, then `after` more. Per object, the
/// positions recovery may land on: its last acked one, and the first
/// refused batch's when that batch moved it.
struct Refusal {
    legal: Vec<Vec<Point>>,
    /// Every error after the first refusal.
    later: Vec<CoreError>,
}

fn run_to_a_refusal(bur: &Bur, seed: u64, after: usize, arm: impl FnOnce()) -> Refusal {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now: Vec<Point> = (0..2_000)
        .map(|_| Point::new(rng.random::<f32>(), rng.random::<f32>()))
        .collect();
    let mut load = Batch::new();
    for (oid, &p) in now.iter().enumerate() {
        load.insert(oid as u64, p);
    }
    bur.apply(&load).unwrap().wait().unwrap();
    let mut run = Refusal {
        legal: now.iter().map(|&p| vec![p]).collect(),
        later: Vec::new(),
    };
    arm();
    let (mut refused, mut tried_after) = (false, 0);
    while tried_after < after {
        let was_refused = refused;
        let batch = update_batch(bur, &mut now, &mut rng, Moves::Within(0.06));
        let moved = batch.ops().iter().filter_map(|op| match *op {
            Op::Update { oid, new, .. } => Some((oid as usize, new)),
            _ => None,
        });
        match bur.apply(&batch).and_then(|ticket| ticket.wait()) {
            Ok(_) => moved.for_each(|(oid, new)| run.legal[oid] = vec![new]),
            Err(_) if !refused => {
                moved.for_each(|(oid, new)| run.legal[oid].push(new));
                refused = true;
            }
            Err(e) => run.later.push(e),
        }
        tried_after += usize::from(was_refused);
    }
    // Reads keep working on the closed log.
    bur.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    run
}

/// Crash with every write sent kept, recover from the platters, and
/// check the run's oracle: every acked position, the refused batch whole
/// or not at all.
fn crash_and_recover(
    platters: &Platters,
    opts: IndexOptions,
    run: &Refusal,
    disks: [&FaultyDisk; 2],
    ctx: &str,
) {
    for disk in disks {
        disk.crash(|| true).unwrap();
    }
    let recovered = platters
        .recover(opts)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    recovered
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: invalid after recovery: {e}"));
    assert_eq!(recovered.len(), run.legal.len() as u64, "{ctx}");
    let at = |oid: usize, p: Point| {
        recovered.with_index(|i| i.point_query(p).unwrap().contains(&(oid as u64)))
    };
    let mut refused = [0, 0];
    for (oid, legal) in run.legal.iter().enumerate() {
        match legal[..] {
            [acked] => assert!(at(oid, acked), "{ctx}: acked position of {oid} lost"),
            [acked, new] => {
                let landed = at(oid, new);
                assert!(
                    landed || at(oid, acked),
                    "{ctx}: acked position of {oid} lost"
                );
                refused[usize::from(landed)] += 1;
            }
            _ => unreachable!(),
        }
    }
    assert!(
        refused[0] == 0 || refused[1] == 0,
        "{ctx}: the refused batch recovered {} of {} moves",
        refused[1],
        refused[0] + refused[1]
    );
}

/// The commit sync of batch `k` is refused on a log that never
/// checkpoints; six more batches are tried, the handle is dropped
/// without a flush, and the index is recovered from the platters.
/// Retrying the sync would persist the log's tail page alone, not the
/// pages the refused commit spilled onto, so the batches after it would
/// be acked and lost.
fn refused_log_sync(platters: Platters, k: u64, seed: u64) {
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }));
    let (bur, data, log) = platters.build(opts);
    let run = run_to_a_refusal(&bur, seed, 6, || log.fail_nth(FaultKind::Sync, k));
    drop(bur);
    crash_and_recover(
        &platters,
        opts,
        &run,
        [&data, &log],
        &format!("k {k} seed {seed}"),
    );
    assert_eq!(run.later.len(), 6);
    assert!(run.later.iter().all(log_failed), "{:?}", run.later);
}

/// The data-disk sync of the first periodic checkpoint (the fourth
/// batch) is refused; the next batch would retry the checkpoint, and a
/// crash follows it. A retried checkpoint syncs the data disk without
/// the pages the refused sync lost, then rewinds the log over the only
/// copy of them.
fn refused_checkpoint_sync(platters: Platters, seed: u64) {
    let opts = IndexOptions {
        buffer_frames: 64,
        ..IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
            checkpoint_every: 128,
        }))
    };
    let (bur, data, log) = platters.build(opts);
    let run = run_to_a_refusal(&bur, seed, 1, || data.fail_nth(FaultKind::Sync, 0));
    drop(bur);
    crash_and_recover(
        &platters,
        opts,
        &run,
        [&data, &log],
        &format!("seed {seed}"),
    );
    assert!(run.later.iter().all(log_failed), "{:?}", run.later);
}

#[test]
fn a_refused_log_sync_closes_the_log_until_a_reopen() {
    for k in [0, 1, 3, 5] {
        for seed in [7, 8] {
            refused_log_sync(Platters::mem(), k, seed);
        }
    }
}

#[test]
fn a_refused_log_sync_closes_the_log_until_a_reopen_on_files() {
    for k in [0, 1, 3, 5] {
        for seed in [7, 8] {
            refused_log_sync(Platters::file(), k, seed);
        }
    }
}

#[test]
fn a_refused_checkpoint_sync_is_never_retried() {
    for seed in [7, 8, 9] {
        refused_checkpoint_sync(Platters::mem(), seed);
    }
}

#[test]
fn a_refused_checkpoint_sync_is_never_retried_on_files() {
    for seed in [7, 8, 9] {
        refused_checkpoint_sync(Platters::file(), seed);
    }
}
