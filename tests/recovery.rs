//! Deterministic crash-point drills for the `bur-wal` durability layer.
//!
//! The contract under test (the acceptance criteria of the WAL work):
//! a seeded workload interrupted by a power cut at an *arbitrary write
//! boundary* — the cut write itself torn in half — recovers with
//!
//! * **zero lost acknowledged updates**: every operation that returned
//!   `Ok` before the cut is present in the recovered index,
//! * **nothing invented**: the failed operation and anything after it is
//!   absent,
//! * an intact GBU summary structure and hash index (`validate()` checks
//!   both against the tree),
//! * window and kNN answers equal to a sequential oracle.
//!
//! The drill runs for all three update strategies and a spread of cut
//! points, entirely on a `FaultyDisk` pair — a data and a log `MemDisk`
//! that share one power supply — so every run is reproducible. A crash
//! keeps every write sent before the cut unless a drill says otherwise.
//! Cut points count mutating calls (writes, allocations and syncs).

mod common;

use bur::core::LOG_DISK_ANCHOR;
use bur::prelude::*;
use bur::storage::{DiskBackend, FaultKind, FaultyDisk, MemDisk, PowerSupply};
use bur::wal::WalRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const PAGE: usize = 1024;

/// Recover from a data and a log disk through the builder (the drills'
/// shorthand; the report is always present in recover mode).
fn recover_on<D: DiskBackend + 'static, L: DiskBackend + 'static>(
    disk: Arc<D>,
    log: Arc<L>,
    opts: IndexOptions,
) -> CoreResult<(RTreeIndex, RecoveryReport)> {
    let index = IndexBuilder::with_options(opts)
        .disk(disk)
        .log_disk(log)
        .recover()
        .build_index()?;
    let report = index.recovery_report();
    Ok((index, report.expect("recover mode yields a report")))
}

/// A data platter and a log platter that share one power supply: the
/// index writes through the `FaultyDisk` pair over them, and recovery
/// reads what the platters hold after the crash.
struct Rig {
    data: Arc<FaultyDisk>,
    log: Arc<FaultyDisk>,
    data_platter: Arc<MemDisk>,
    log_platter: Arc<MemDisk>,
}

impl Rig {
    fn new() -> Self {
        let (data_platter, log_platter) =
            (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
        let (data, log) = FaultyDisk::pair(data_platter.clone(), log_platter.clone());
        Self {
            data,
            log,
            data_platter,
            log_platter,
        }
    }

    /// A builder over the pair.
    fn builder(&self, opts: IndexOptions) -> IndexBuilder {
        IndexBuilder::with_options(opts)
            .disk(self.data.clone())
            .log_disk(self.log.clone())
    }

    /// Power cut across both disks: `calls` more mutating calls land, the
    /// next is torn if it is a write, everything after is void.
    fn cut_after(&self, calls: u64) {
        self.data.power().cut_after(calls);
    }

    /// The crash: every write sent before the cut reaches the platters.
    fn crash(&self) {
        self.data.crash(|| true).unwrap();
        self.log.crash(|| true).unwrap();
    }

    /// Crash, then recover from the platters.
    fn recover(&self, opts: IndexOptions) -> CoreResult<(RTreeIndex, RecoveryReport)> {
        self.crash();
        recover_on(self.data_platter.clone(), self.log_platter.clone(), opts)
    }
}

/// Recover from a file through the builder.
fn recover_file(
    path: &std::path::Path,
    opts: IndexOptions,
) -> CoreResult<(RTreeIndex, RecoveryReport)> {
    let index = IndexBuilder::with_options(opts)
        .file(path)
        .recover()
        .build_index()?;
    let report = index.recovery_report();
    Ok((index, report.expect("recover mode yields a report")))
}

fn durable(base: IndexOptions, checkpoint_every: u64) -> IndexOptions {
    base.with_durability(Durability::Wal(WalOptions { checkpoint_every }))
}

/// Brute-force oracle answers over the acknowledged positions.
struct Oracle {
    positions: Vec<Point>,
}

impl Oracle {
    fn window(&self, w: &Rect) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .positions
            .iter()
            .enumerate()
            .filter(|&(_, p)| w.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn knn(&self, q: Point, k: usize) -> Vec<(u64, f32)> {
        let mut d: Vec<(u64, f32)> = self
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p.distance_sq(&q).sqrt()))
            .collect();
        d.sort_by(|a, b| a.1.total_cmp(&b.1));
        d.truncate(k);
        d
    }
}

/// Run one seeded drill: populate, arm the power cut, churn until the
/// cut fires, "crash", recover from what the platter holds, and compare
/// against the oracle of acknowledged updates.
fn crash_drill(name: &str, base: IndexOptions, cut_after: u64, seed: u64) {
    let n: u64 = 500;
    let opts = durable(base, 64);
    let rig = Rig::new();
    let mut index = rig.builder(opts).build_index().unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n as usize);
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        index.insert(oid, p).unwrap();
        positions.push(p);
    }

    // Power cut: `cut_after` more disk writes land, the next is torn,
    // everything after is void.
    rig.cut_after(cut_after);
    // The op that observes the cut returns Err, but its outcome is
    // genuinely unknown (standard commit-ack semantics): the cut may
    // have landed after its commit record was durably synced — e.g.
    // inside the piggybacked checkpoint — or before. Recovery must land
    // it on exactly one of old/new; every *acknowledged* op is exact.
    let mut pending: Option<(u64, Point, Point)> = None;
    for _step in 0..100_000 {
        let oid = rng.random_range(0..n);
        let old = positions[oid as usize];
        let new = Point::new(
            (old.x + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
            (old.y + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
        );
        match index.update(oid, old, new) {
            Ok(_) => positions[oid as usize] = new, // acknowledged
            Err(_) => {
                pending = Some((oid, old, new));
                break;
            }
        }
    }
    let pending = pending
        .unwrap_or_else(|| panic!("{name}: the power cut never fired (cut_after {cut_after})"));
    drop(index); // crash — only the platters survive

    let (recovered, report) = rig
        .recover(opts)
        .unwrap_or_else(|e| panic!("{name}: recovery failed after cut at {cut_after}: {e}"));
    // Resolve the unknown-outcome op: it must be atomically at old or at
    // new, never both, never elsewhere.
    {
        let (oid, old, new) = pending;
        let at_new = recovered.point_query(new).unwrap().contains(&oid);
        let at_old = recovered.point_query(old).unwrap().contains(&oid);
        assert!(
            at_new || at_old,
            "{name}: interrupted op on {oid} vanished (cut {cut_after})"
        );
        assert!(
            !(at_new && at_old) || old == new,
            "{name}: interrupted op on {oid} applied twice (cut {cut_after})"
        );
        if at_new {
            positions[oid as usize] = new;
        }
    }
    let oracle = Oracle { positions };

    // Structural invariants: tree, hash index, GBU summary, LBU parent
    // pointers are all cross-checked by validate().
    recovered
        .validate()
        .unwrap_or_else(|e| panic!("{name}: recovered index invalid: {e}"));
    assert_eq!(recovered.len(), n, "{name}: object count");
    if matches!(base.strategy, UpdateStrategy::Generalized(_)) {
        assert!(recovered.summary().is_some(), "{name}: summary rebuilt");
    }
    assert_eq!(report.recovered_len, n);
    assert!(report.recovered_lsn > 0);

    // Zero lost acknowledged updates & nothing invented: the full id/
    // position set matches the oracle exactly.
    let everything = Rect::new(-1.0, -1.0, 2.0, 2.0);
    let mut all = recovered.query(&everything).unwrap();
    all.sort_unstable();
    let expect: Vec<u64> = (0..n).collect();
    assert_eq!(all, expect, "{name}: recovered id set");
    for (oid, p) in oracle.positions.iter().enumerate() {
        let at = recovered.point_query(*p).unwrap();
        assert!(
            at.contains(&(oid as u64)),
            "{name}: acknowledged position of object {oid} lost (cut {cut_after})"
        );
    }

    // Query answers equal the sequential oracle.
    let mut qrng = StdRng::seed_from_u64(seed ^ 0xDEAD);
    for _ in 0..15 {
        let x = qrng.random_range(0.0..0.8);
        let y = qrng.random_range(0.0..0.8);
        let w = Rect::new(x, y, x + qrng.random_range(0.05..0.3f32), y + 0.2);
        let mut got = recovered.query(&w).unwrap();
        got.sort_unstable();
        assert_eq!(got, oracle.window(&w), "{name}: window {w}");
    }
    for _ in 0..10 {
        let q = Point::new(qrng.random_range(0.0..1.0), qrng.random_range(0.0..1.0));
        let got = recovered.nearest_neighbors(q, 5).unwrap();
        let want = oracle.knn(q, 5);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            // Compare by distance (ties may order differently).
            assert!(
                (g.distance - w.1).abs() <= 1e-6,
                "{name}: kNN of {q}: got {} at {}, oracle {} at {}",
                g.oid,
                g.distance,
                w.0,
                w.1
            );
        }
    }

    // The recovered index is live: it keeps absorbing durable updates.
    let mut recovered = recovered;
    recovered
        .update(0, oracle.positions[0], Point::new(0.5, 0.5))
        .unwrap();
    recovered.validate().unwrap();
}

#[test]
fn crash_recovery_drill_td() {
    for (i, cut) in [5u64, 37, 111, 260].into_iter().enumerate() {
        crash_drill("TD", IndexOptions::top_down(), cut, 900 + i as u64);
    }
}

#[test]
fn crash_recovery_drill_lbu() {
    for (i, cut) in [3u64, 29, 97, 301].into_iter().enumerate() {
        crash_drill("LBU", IndexOptions::localized(), cut, 1700 + i as u64);
    }
}

#[test]
fn crash_recovery_drill_gbu() {
    for (i, cut) in [7u64, 43, 150, 333].into_iter().enumerate() {
        crash_drill("GBU", IndexOptions::generalized(), cut, 2600 + i as u64);
    }
}

/// Dense sweep: arm the cut before the first operation and walk it
/// across every mutating call in a band (its first 120-odd writes), so
/// tears land in initial checkpoints, log appends, data flushes and
/// rewinds alike, and refusals on every sync and allocation between
/// them. Smaller workload than the main drills, but every boundary in
/// the band is hit.
#[test]
fn crash_recovery_survives_every_write_boundary_in_band() {
    for cut in 0..230u64 {
        let opts = durable(IndexOptions::generalized(), 16);
        let rig = Rig::new();
        rig.cut_after(cut);
        let mut rng = StdRng::seed_from_u64(7000 + cut);
        let mut acked: Vec<(u64, Point)> = Vec::new();
        let mut pending: Option<(u64, Option<Point>, Point)> = None; // (oid, old, new)
        let run = (|| -> Result<(), ()> {
            let mut index = rig.builder(opts).build_index().map_err(|_| ())?;
            for oid in 0..80u64 {
                let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                if index.insert(oid, p).is_err() {
                    pending = Some((oid, None, p));
                    return Err(());
                }
                acked.push((oid, p));
            }
            for _ in 0..400 {
                let i = rng.random_range(0..acked.len() as u64) as usize;
                let (oid, old) = acked[i];
                let new = Point::new(
                    (old.x + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                    (old.y + rng.random_range(-0.05..0.05f32)).clamp(0.0, 1.0),
                );
                if index.update(oid, old, new).is_err() {
                    pending = Some((oid, Some(old), new));
                    return Err(());
                }
                acked[i].1 = new;
            }
            Ok(())
        })();
        assert!(run.is_err(), "cut {cut}: the power cut never fired");
        if acked.is_empty() && pending.is_none() {
            continue; // create_on itself was cut: nothing was ever acknowledged
        }

        match rig.recover(opts) {
            Ok((recovered, _report)) => {
                recovered
                    .validate()
                    .unwrap_or_else(|e| panic!("cut {cut}: invalid after recovery: {e}"));
                let mut expect: Vec<(u64, Point)> = acked.clone();
                if let Some((oid, old, new)) = pending {
                    let at_new = recovered.point_query(new).unwrap().contains(&oid);
                    match old {
                        Some(old) => {
                            let at_old = recovered.point_query(old).unwrap().contains(&oid);
                            assert!(at_new || at_old, "cut {cut}: op on {oid} vanished");
                            let i = expect.iter().position(|&(o, _)| o == oid).unwrap();
                            expect[i].1 = if at_new { new } else { old };
                        }
                        None => {
                            if at_new {
                                expect.push((oid, new));
                            }
                        }
                    }
                }
                assert_eq!(recovered.len(), expect.len() as u64, "cut {cut}");
                for (oid, p) in expect {
                    assert!(
                        recovered.point_query(p).unwrap().contains(&oid),
                        "cut {cut}: acknowledged op on {oid} lost"
                    );
                }
            }
            Err(e) => {
                // Recovery may only fail when *nothing* was ever
                // acknowledged (the cut landed inside create_on's very
                // first checkpoint).
                assert!(
                    acked.is_empty(),
                    "cut {cut}: recovery refused with {} acked ops: {e}",
                    acked.len()
                );
            }
        }
    }
}

#[test]
fn crash_during_population_loses_no_acknowledged_insert() {
    let opts = durable(IndexOptions::generalized(), 32);
    let rig = Rig::new();
    let mut index = rig.builder(opts).build_index().unwrap();
    rig.cut_after(180);
    let mut rng = StdRng::seed_from_u64(5150);
    let mut acked: Vec<(u64, Point)> = Vec::new();
    let mut pending: Option<(u64, Point)> = None;
    for oid in 0..10_000u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        match index.insert(oid, p) {
            Ok(()) => acked.push((oid, p)),
            Err(_) => {
                pending = Some((oid, p)); // unknown outcome (see drill)
                break;
            }
        }
    }
    assert!(!acked.is_empty(), "some inserts must land before the cut");
    assert!(pending.is_some(), "the cut must fire");
    drop(index);

    let (recovered, _report) = rig.recover(opts).unwrap();
    recovered.validate().unwrap();
    let (pid, pp) = pending.unwrap();
    let pending_survived = recovered.point_query(pp).unwrap().contains(&pid);
    assert_eq!(
        recovered.len(),
        acked.len() as u64 + u64::from(pending_survived)
    );
    for (oid, p) in acked {
        assert!(
            recovered.point_query(p).unwrap().contains(&oid),
            "acknowledged insert {oid} lost"
        );
    }
}

#[test]
fn clean_shutdown_recovery_is_a_noop_and_open_routes_through_it() {
    let dir = common::TempDir::new("recovery");
    let path = dir.file("clean.bur");
    let opts = durable(IndexOptions::generalized(), 64);
    let mut rng = StdRng::seed_from_u64(4242);
    let mut positions = Vec::new();
    {
        let mut index = IndexBuilder::with_options(opts)
            .file(&path)
            .build_index()
            .unwrap();
        for oid in 0..800u64 {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            index.insert(oid, p).unwrap();
            positions.push(p);
        }
        index.checkpoint().unwrap(); // checkpoint + clean shutdown
    }
    // open_on with durable options routes through recovery.
    let index = IndexBuilder::with_options(opts)
        .file(&path)
        .open()
        .build_index()
        .unwrap();
    assert_eq!(index.len(), 800);
    index.validate().unwrap();
    assert!(index.is_durable());
    assert!(index.wal_stats().is_some());

    // Durability is a property of the file: opening with *non-durable*
    // options still reattaches the WAL (otherwise unlogged page writes
    // would race the stale log generation on a later recover).
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .file(&path)
        .open()
        .build_index()
        .unwrap();
    assert!(
        index.is_durable(),
        "durable file must reattach its log on open"
    );
    let p0 = positions[0];
    index.update(0, p0, Point::new(0.99, 0.99)).unwrap();
    drop(index); // crash without persist: the update must still survive
    let (index, _) = recover_file(&path, opts).unwrap();
    assert!(index
        .point_query(Point::new(0.99, 0.99))
        .unwrap()
        .contains(&0));
    drop(index);

    // recover() twice in a row: idempotent.
    let (index, r1) = recover_file(&path, opts).unwrap();
    assert_eq!(r1.recovered_len, 800);
    drop(index);
    let (index, r2) = recover_file(&path, opts).unwrap();
    assert_eq!(r2.recovered_len, 800);
    index.validate().unwrap();
}

#[test]
fn recover_rejects_non_durable_disks_and_options() {
    let opts = IndexOptions::generalized();
    let disk = Arc::new(MemDisk::new(PAGE));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.1, 0.1)).unwrap();
    index.checkpoint().unwrap();
    drop(index);
    let log = Arc::new(MemDisk::new(PAGE));
    // Non-durable options are rejected outright.
    let err = recover_on(disk.clone(), log.clone(), opts).unwrap_err();
    assert!(err.to_string().contains("Durability::Wal"), "got: {err}");
    // Durable options with a log disk that never held a log are rejected
    // too, and so are durable options without a log disk.
    let err = recover_on(disk.clone(), log, IndexOptions::durable()).unwrap_err();
    assert!(err.to_string().contains("write-ahead log"), "got: {err}");
    let err = IndexBuilder::with_options(IndexOptions::durable())
        .disk(disk)
        .recover()
        .build_index()
        .unwrap_err();
    assert!(matches!(err, CoreError::LogMissing(_)), "got: {err}");
}

/// Dense sweep over *delta-heavy* generations: a checkpoint interval
/// longer than the sweep's ≈ 170 updates, so cut points land inside
/// delta chains of every length. Every acknowledged update must survive,
/// and mixed full/delta replay must reproduce the oracle. On a pool that
/// holds every page, a page logs one full image per generation, at its
/// first touch, and deltas after it.
#[test]
fn crash_recovery_survives_cuts_inside_delta_chains() {
    let sweep = DeltaSweep {
        checkpoint_every: 1_000,
        frames: 256,
        objects: 60,
    };
    let (mut deltas, mut anchors) = (0, 0);
    for cut in (3..=330u64).step_by(3) {
        let run = sweep.cut_at(0, cut, 9300 + cut);
        deltas += run.deltas;
        anchors += run.anchors;
    }
    assert!(deltas > 0, "the sweep must replay deltas ({deltas})");
    assert_eq!(
        anchors, 0,
        "a resident page logs one full image per generation ({deltas} deltas)"
    );
}

/// The same sweep over generations longer than 1 024 operations on a
/// pool of four frames: a page is evicted and read back between its
/// records, so the base of its next delta is the content read back from
/// the data disk, and a blind overwrite of an evicted page logs another
/// full image. Then generations longer than 8 192 operations, each cut
/// in its last quarter: recovery streams the log, so their length costs
/// replay time, not memory. Each run arms its cut only once 1 024 (or
/// 9 216) updates have committed, so the window follows the log's
/// volume instead of a write count calibrated to it.
#[test]
fn crash_recovery_survives_cuts_in_long_generations_on_a_small_pool() {
    let sweep = DeltaSweep {
        checkpoint_every: 4_096,
        frames: 4,
        objects: 600,
    };
    let long = DeltaSweep {
        checkpoint_every: 12_288,
        ..sweep
    };
    let cuts = (20..=440)
        .step_by(20)
        .map(|cut| (&sweep, cut, 1_024))
        .chain(
            (1_000..=6_000)
                .step_by(1_250)
                .map(|cut| (&long, cut, 9_216)),
        );
    let (mut deltas, mut anchors) = (0, 0);
    for (sweep, cut, past) in cuts {
        let run = sweep.cut_at(past, cut, 9700 + past + cut);
        assert!(
            run.replayed_ops > past && run.replayed_ops <= sweep.checkpoint_every,
            "cut {cut} past op {past}: the generation held {} operations",
            run.replayed_ops
        );
        assert!(
            run.reread,
            "cut {cut} past op {past}: no page was read back"
        );
        deltas += run.deltas;
        anchors += run.anchors;
    }
    assert!(
        deltas > 0 && anchors > 0,
        "the sweep must replay deltas ({deltas}) and anchors ({anchors})"
    );
}

/// One shape of the delta-chain cut sweep.
#[derive(Clone, Copy)]
struct DeltaSweep {
    checkpoint_every: u64,
    frames: usize,
    objects: u64,
}

/// What one cut of a [`DeltaSweep`] replayed.
struct DeltaCut {
    deltas: u64,
    anchors: u64,
    replayed_ops: u64,
    /// The pool read a page back from the data disk after the checkpoint.
    reread: bool,
}

impl DeltaSweep {
    /// Populate, checkpoint, then move the objects in place one update at
    /// a time, revisiting their pages, until a power cut `cut` writes
    /// after the `past`-th update committed; recover and check every
    /// acknowledged update survived and the interrupted one landed on
    /// exactly one side.
    fn cut_at(&self, past: u64, cut: u64, seed: u64) -> DeltaCut {
        let opts = durable(IndexOptions::generalized(), self.checkpoint_every);
        let rig = Rig::new();
        let mut index = rig
            .builder(opts)
            .buffer_frames(self.frames)
            .build_index()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.objects;
        let mut positions = Vec::with_capacity(n as usize);
        for oid in 0..n {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            index.insert(oid, p).unwrap();
            positions.push(p);
        }
        // Take a checkpoint so the measured window is pure update traffic:
        // repeated in-place moves of the same objects, i.e. delta chains.
        index.checkpoint().unwrap();
        let reads_before = index.pool().stats().snapshot().reads;
        let mut pending: Option<(u64, Point, Point)> = None;
        for step in 0..100_000u64 {
            if step == past {
                rig.cut_after(cut);
            }
            let oid = (step * 7) % n; // revisit pages: chains grow long
            let old = positions[oid as usize];
            let new = Point::new(
                (old.x + rng.random_range(-0.03..0.03f32)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.03..0.03f32)).clamp(0.0, 1.0),
            );
            match index.update(oid, old, new) {
                Ok(_) => positions[oid as usize] = new,
                Err(_) => {
                    pending = Some((oid, old, new));
                    break;
                }
            }
        }
        let (poid, pold, pnew) = pending.expect("the power cut must fire");
        let reread = index.pool().stats().snapshot().reads > reads_before;
        drop(index);

        rig.crash();
        let anchors = replayed_anchors(&rig.log_platter);
        let (recovered, report) = rig
            .recover(opts)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        recovered.validate().unwrap();
        // The interrupted op lands atomically on exactly one side.
        let at_new = recovered.point_query(pnew).unwrap().contains(&poid);
        let at_old = recovered.point_query(pold).unwrap().contains(&poid);
        assert!(at_new || at_old, "cut {cut}: op on {poid} vanished");
        if at_new {
            positions[poid as usize] = pnew;
        }
        for (oid, p) in positions.iter().enumerate() {
            assert!(
                recovered.point_query(*p).unwrap().contains(&(oid as u64)),
                "cut {cut}: acknowledged position of {oid} lost \
                 (report: {report:?})"
            );
        }
        DeltaCut {
            deltas: report.replayed_deltas,
            anchors,
            // Every update of the sweep commits alone.
            replayed_ops: report.commits,
            reread,
        }
    }
}

/// Full images of a page already logged in the same generation — a
/// blind overwrite of a page not in the pool, or a delta that would not
/// be smaller — among the records a recovery from the log disk `log`
/// replays (those up to the last commit or checkpoint).
fn replayed_anchors(log: &MemDisk) -> u64 {
    let scan = bur::wal::scan(log, LOG_DISK_ANCHOR)
        .unwrap()
        .expect("a log");
    let end = scan
        .records
        .iter()
        .rposition(|(_, rec)| {
            matches!(rec, WalRecord::Commit { .. } | WalRecord::Checkpoint { .. })
        })
        .map_or(0, |i| i + 1);
    // A page's first record in a generation is always a full image.
    let mut logged = std::collections::HashSet::new();
    let anchors = scan.records[..end]
        .iter()
        .filter(|(_, rec)| matches!(rec, WalRecord::PageImage { pid, .. } if !logged.insert(*pid)));
    anchors.count() as u64
}

/// A `Batch` is the one way to put several operations under one commit
/// record: at every cut point of a dense sweep (a batch is about two
/// log writes and a sync, so the sweep lands before, inside and after
/// its record)
/// every committed batch is a durable floor, the batch the
/// cut lands in recovers all or nothing, and recovery is consistent.
#[test]
fn crash_mid_commit_batch_preserves_every_flushed_batch() {
    const BATCH: usize = 5;
    let wopts = WalOptions {
        checkpoint_every: 1_000_000,
    };
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(wopts));
    for cut in 1..=100u64 {
        let rig = Rig::new();
        let mut index = rig.builder(opts).build_index().unwrap();
        let mut rng = StdRng::seed_from_u64(4400 + cut);
        let n = 80u64;
        // Positions as of the last committed batch: the durable floor.
        let mut positions = Vec::with_capacity(n as usize);
        for oid in 0..n {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            index.insert(oid, p).unwrap();
            positions.push(p);
        }
        index.checkpoint().unwrap(); // all inserts are a durable floor
        rig.cut_after(cut);
        let mut committed = 0u64;
        // The moves of the batch that observed the cut: `(oid, old, new)`.
        let cut_batch: Vec<(u64, Point, Point)> = loop {
            let mut moves: Vec<(u64, Point, Point)> = Vec::with_capacity(BATCH);
            while moves.len() < BATCH {
                let oid = rng.random_range(0..n);
                if moves.iter().any(|m| m.0 == oid) {
                    continue;
                }
                let old = positions[oid as usize];
                let new = Point::new(
                    (old.x + rng.random_range(-0.04..0.04f32)).clamp(0.0, 1.0),
                    (old.y + rng.random_range(-0.04..0.04f32)).clamp(0.0, 1.0),
                );
                moves.push((oid, old, new));
            }
            let mut batch = Batch::new();
            for &(oid, old, new) in &moves {
                batch.update(oid, old, new);
            }
            match index.apply_batch(&batch) {
                Ok(report) => {
                    assert_eq!(report.updated, BATCH as u64);
                    for &(oid, _, new) in &moves {
                        positions[oid as usize] = new;
                    }
                    committed += 1;
                }
                Err(_) => break moves,
            }
        };
        drop(index);

        let (recovered, report) = rig.recover(opts).unwrap();
        recovered.validate().unwrap();
        assert_eq!(recovered.len(), n, "cut {cut}");
        let holds = |oid: u64, p: Point| recovered.point_query(p).unwrap().contains(&oid);
        // The cut batch's record either survived the torn tail or did
        // not: all five moves, or none.
        let landed = cut_batch.iter().filter(|m| holds(m.0, m.2)).count();
        assert!(
            landed == 0 || landed == BATCH,
            "cut {cut}: the cut batch recovered {landed} of {BATCH} moves (report: {report:?})"
        );
        if landed == BATCH {
            for &(oid, _, new) in &cut_batch {
                positions[oid as usize] = new;
            }
        }
        for (oid, p) in positions.iter().enumerate() {
            assert!(
                holds(oid as u64, *p),
                "cut {cut}: object {oid} rolled back past its last committed batch \
                 ({committed} committed before the cut)"
            );
        }
    }
}

/// Chain recycling: repeated checkpoints must not grow the disk — the
/// superseded metadata continuation chain and hash-directory chain are
/// reused instead of leaking a fresh run of pages per checkpoint (the
/// known page leak noted in the ROADMAP).
#[test]
fn checkpoints_recycle_chain_pages_instead_of_leaking() {
    let wopts = WalOptions {
        checkpoint_every: 1_000_000, // checkpoints issued explicitly below
    };
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(wopts));
    let disk = Arc::new(MemDisk::new(PAGE));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk.clone())
        .log_disk(Arc::new(MemDisk::new(PAGE)))
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(515);
    let n = 2_000u64;
    let mut positions = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        index.insert(oid, p).unwrap();
        positions.push(p);
    }
    // Warm up: a couple of checkpoints allocate the steady-state chains.
    index.checkpoint().unwrap();
    index.checkpoint().unwrap();
    let baseline = disk.num_pages();
    // In-place churn with a checkpoint per round: page count must stay
    // flat (updates don't grow the tree and the chains recycle).
    for round in 0..20u64 {
        for k in 0..40u64 {
            let oid = (round * 40 + k) % n;
            let old = positions[oid as usize];
            let new = Point::new(
                (old.x + 0.001).clamp(0.0, 1.0),
                (old.y - 0.001).clamp(0.0, 1.0),
            );
            index.update(oid, old, new).unwrap();
            positions[oid as usize] = new;
        }
        index.checkpoint().unwrap();
    }
    let grown = disk.num_pages() - baseline;
    assert!(
        grown <= 2,
        "22 checkpoints leaked {grown} pages ({} -> {})",
        baseline,
        disk.num_pages()
    );
    index.validate().unwrap();
}

#[test]
fn durable_index_survives_strategy_switch_on_recovery() {
    // Build durable GBU, crash, recover as durable LBU: the log replay
    // plus the rebuild installs the hash index and parent pointers LBU
    // needs.
    let gbu = durable(IndexOptions::generalized(), 64);
    let rig = Rig::new();
    let mut index = rig.builder(gbu).build_index().unwrap();
    let mut rng = StdRng::seed_from_u64(31337);
    let mut positions = Vec::new();
    for oid in 0..600u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        index.insert(oid, p).unwrap();
        positions.push(p);
    }
    rig.cut_after(50);
    let mut pending: Option<(u64, Point, Point)> = None;
    for _ in 0..100_000 {
        let oid = rng.random_range(0..600);
        let old = positions[oid as usize];
        let new = Point::new(
            (old.x + 0.01).clamp(0.0, 1.0),
            (old.y - 0.01).clamp(0.0, 1.0),
        );
        match index.update(oid, old, new) {
            Ok(_) => positions[oid as usize] = new,
            Err(_) => {
                pending = Some((oid, old, new));
                break;
            }
        }
    }
    drop(index);

    let lbu = durable(IndexOptions::localized(), 64);
    let (mut recovered, _) = rig.recover(lbu).unwrap();
    recovered.validate().unwrap(); // checks LBU parent pointers
    if let Some((oid, _old, new)) = pending {
        if recovered.point_query(new).unwrap().contains(&oid) {
            positions[oid as usize] = new; // unknown outcome resolved
        }
    }
    for (oid, p) in positions.iter().enumerate() {
        assert!(recovered.point_query(*p).unwrap().contains(&(oid as u64)));
    }
    // LBU updates work on the recovered state.
    let old = positions[7];
    recovered
        .update(7, old, Point::new(old.x, (old.y + 0.002).clamp(0.0, 1.0)))
        .unwrap();
    recovered.validate().unwrap();
}

// ---- lost unsynced writes: two files can contradict each other --------------

/// What one run of the lost-writes workload left behind.
struct LossyRun {
    data: Arc<FaultyDisk>,
    /// The log's own disk.
    log: Arc<FaultyDisk>,
    /// Object positions after every acknowledged batch.
    acked: HashMap<u64, Point>,
    /// The same after the batch the cut interrupted — outcome unknown.
    maybe: Option<HashMap<u64, Point>>,
    /// Batches acknowledged before the cut.
    acked_batches: usize,
    /// Per acknowledged batch: `(power.spent() after it, checkpoints so far)`.
    marks: Vec<(u64, u64)>,
    /// `power.spent()` once the empty index existed.
    created_at: u64,
}

const LOSSY_BATCHES: usize = 260;
const LOSSY_OBJECTS: u64 = 800;

/// Build a durable GBU index on two [`FaultyDisk`]s on `power`, data and
/// log, then apply `LOSSY_BATCHES` 8-op batches —
/// inserts first, then moves mixed with delete + re-insert pairs — until
/// `power` fails. A 24-frame pool keeps evicting committed pages into the
/// data disk's cache between commits, and `checkpoint_every = 40` takes a
/// checkpoint every fifth batch. The op stream depends only on `seed`, so
/// a dry run's marks place the cuts of the runs that follow.
fn lossy_run(seed: u64, power: &Arc<PowerSupply>) -> LossyRun {
    let opts = durable(IndexOptions::generalized(), 40);
    let data = FaultyDisk::on(Arc::new(MemDisk::new(PAGE)), power);
    let log = FaultyDisk::on(Arc::new(MemDisk::new(PAGE)), power);
    let builder = IndexBuilder::with_options(opts)
        .buffer_frames(24)
        .disk(data.clone())
        .log_disk(log.clone());
    let mut run = LossyRun {
        data,
        log,
        acked: HashMap::new(),
        maybe: None,
        acked_batches: 0,
        marks: Vec::new(),
        created_at: 0,
    };
    let Ok(bur) = builder.build() else {
        return run; // cut inside create: nothing was ever acknowledged
    };
    run.created_at = power.spent();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_oid = 0u64;
    for _ in 0..LOSSY_BATCHES {
        let mut after = run.acked.clone();
        let mut batch = Batch::new();
        while batch.len() < 8 {
            if next_oid < LOSSY_OBJECTS {
                let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                batch.insert(next_oid, p);
                after.insert(next_oid, p);
                next_oid += 1;
                continue;
            }
            let oid = rng.random_range(0..LOSSY_OBJECTS);
            let old = after[&oid];
            let new = Point::new(
                (old.x + rng.random_range(-0.06..0.06f32)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.06..0.06f32)).clamp(0.0, 1.0),
            );
            if batch.len() <= 6 && rng.random_range(0..10) == 0 {
                batch.delete(oid, old);
                batch.insert(oid, new);
            } else {
                batch.update(oid, old, new);
            }
            after.insert(oid, new);
        }
        match bur.apply(&batch).and_then(|ticket| ticket.wait()) {
            Ok(_) => {
                run.acked = after;
                run.acked_batches += 1;
                let checkpoints = bur.wal_stats().expect("durable").checkpoints;
                run.marks.push((power.spent(), checkpoints));
            }
            Err(_) => {
                run.maybe = Some(after);
                break;
            }
        }
    }
    assert_eq!(
        bur.with_index(|index| index.pool().pinned_frames()),
        0,
        "a pin outlived apply"
    );
    run
}

/// `true` when `index` holds exactly `want`.
fn holds_exactly(index: &RTreeIndex, want: &HashMap<u64, Point>) -> bool {
    index.len() == want.len() as u64
        && want
            .iter()
            .all(|(oid, p)| index.point_query(*p).unwrap().contains(oid))
}

/// Crash the workload at ≥ 60 seeded points — spread over the run, plus
/// the last mutating calls of several checkpoints (pool flush, data sync,
/// log rewind, log sync) and the commit sync of several batches — losing all or a seeded subset of the unsynced
/// writes of each disk, recover, and demand the oracle of acknowledged
/// batches: zero acked loss, the interrupted batch all or nothing,
/// `validate()` clean, no pin left behind.
#[test]
fn lost_unsynced_writes_sweep_log_on_its_own_disk() {
    let seed: u64 = std::env::var("LOST_WRITES_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_031);
    let ctx = |cut: u64| format!("LOST_WRITES_SEED={seed} cut {cut}");

    let always_on = PowerSupply::new();
    let dry = lossy_run(seed, &always_on);
    assert_eq!(dry.acked_batches, LOSSY_BATCHES);
    let total = dry.marks.last().unwrap().0;
    // Batches whose mark shows one more checkpoint than the batch before:
    // the checkpoint is the tail of that batch's mutating calls.
    let checkpoint_batches: Vec<usize> = (1..dry.marks.len())
        .filter(|&b| dry.marks[b].1 > dry.marks[b - 1].1)
        .collect();
    assert!(checkpoint_batches.len() >= 8, "{}", ctx(0));
    // `(cut, the batch it must interrupt)`; the random ones land anywhere.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10_57);
    let mut cuts: Vec<(u64, Option<usize>)> = (0..48)
        .map(|_| (rng.random_range(dry.created_at..total), None))
        .collect();
    // The last sync inside batch `b`'s calls. (What follows it in the
    // batch are evictions the advancing durable LSN released; their
    // failures are not the batch's.)
    let syncs = always_on.sync_calls();
    let last_sync_of = |b: usize| {
        let calls = dry.marks[b - 1].0..dry.marks[b].0;
        *syncs
            .iter()
            .rfind(|s| calls.contains(s))
            .expect("a commit syncs")
    };
    // A checkpoint ends: ... pool flush writes, data sync, log anchor
    // rewrite, log sync. Refuse each of the last five in turn.
    let step = checkpoint_batches.len() / 4;
    for &b in checkpoint_batches.iter().step_by(step).take(4) {
        cuts.extend((0..5).map(|back| (last_sync_of(b) - back, Some(b))));
    }
    // A batch that takes no checkpoint syncs once, for its commit: refuse
    // exactly that, so all of the batch's log pages are unsynced while
    // whatever the pool evicted meanwhile may survive the crash.
    let plain_batches: Vec<usize> = (1..dry.marks.len())
        .filter(|b| !checkpoint_batches.contains(b))
        .collect();
    for &b in plain_batches
        .iter()
        .step_by(plain_batches.len() / 12)
        .take(12)
    {
        cuts.push((last_sync_of(b), Some(b)));
    }
    assert!(cuts.len() >= 60);

    for (cut, targets_batch) in cuts {
        let power = PowerSupply::new();
        power.cut_after(cut);
        let run = lossy_run(seed, &power);
        assert!(power.is_cut(), "{}: the cut never fired", ctx(cut));
        if let Some(batch) = targets_batch {
            assert_eq!(run.acked_batches, batch, "{}: off its target", ctx(cut));
        }
        // One crash in three loses the whole cache, the rest a coin-flip
        // subset, each disk on its own.
        let lose_all = rng.random_range(0..3) == 0;
        let mut lose = |disk: &FaultyDisk| {
            disk.crash(|| !lose_all && rng.random_range(0..2) == 0)
                .unwrap();
        };
        lose(&run.data);
        lose(&run.log);
        power.restore();

        let opts = durable(IndexOptions::generalized(), 40);
        let recovered = IndexBuilder::with_options(opts)
            .disk(run.data.clone())
            .log_disk(run.log.clone())
            .recover()
            .build_index()
            .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", ctx(cut)));
        recovered
            .validate()
            .unwrap_or_else(|e| panic!("{}: invalid after recovery: {e}", ctx(cut)));
        assert_eq!(recovered.pool().pinned_frames(), 0, "{}", ctx(cut));
        let all = holds_exactly(&recovered, &run.acked);
        let with_interrupted = run
            .maybe
            .as_ref()
            .is_some_and(|maybe| holds_exactly(&recovered, maybe));
        assert!(
            all || with_interrupted,
            "{}: after {} acked batches the recovered index ({} objects) is neither the \
             acknowledged state ({} objects) nor that plus the whole interrupted batch",
            ctx(cut),
            run.acked_batches,
            recovered.len(),
            run.acked.len(),
        );
    }
}

/// The exact bytes the log disk holds after a fixed durable op sequence
/// on the exclusive engine — batched inserts, updates and deletes,
/// single-op writers and two checkpoints — reduced to a CRC. Any change
/// to which pages a commit logs, in which order, or to how a record is
/// framed moves it.
#[test]
fn log_bytes_after_a_fixed_sequence_are_pinned() {
    let opts = durable(IndexOptions::generalized(), 300);
    let (disk, log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk)
        .log_disk(log.clone())
        .buffer_frames(64)
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(32);
    let mut positions: Vec<Point> = (0..1_500)
        .map(|_| Point::new(rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0)))
        .collect();
    for chunk in (0..positions.len()).collect::<Vec<_>>().chunks(100) {
        let mut batch = Batch::new();
        for &oid in chunk {
            batch.insert(oid as u64, positions[oid]);
        }
        index.apply_batch(&batch).unwrap();
    }
    for round in 0..40 {
        let mut batch = Batch::new();
        for _ in 0..32 {
            let oid = rng.random_range(0..positions.len());
            let old = positions[oid];
            let new = Point::new(
                (old.x + rng.random_range(-0.06f32..0.06)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.06f32..0.06)).clamp(0.0, 1.0),
            );
            batch.update(oid as u64, old, new);
            positions[oid] = new;
        }
        if round % 10 == 9 {
            let oid = positions.len() - 1;
            batch.delete(oid as u64, positions[oid]);
            positions.pop();
        }
        index.apply_batch(&batch).unwrap();
        let oid = rng.random_range(0..positions.len());
        let new = Point::new(rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0));
        index.update(oid as u64, positions[oid], new).unwrap();
        positions[oid] = new;
    }
    index.insert(1_000_000, Point::new(0.5, 0.5)).unwrap();
    index.delete(0, positions[0]).unwrap();
    index.validate().unwrap();

    let mut crc = Vec::new();
    let mut page = vec![0u8; PAGE];
    for pid in 0..log.num_pages() {
        log.read(pid, &mut page).unwrap();
        crc.extend_from_slice(&bur::wal::crc32(&page).to_le_bytes());
    }
    let stats = index.wal_stats().unwrap();
    println!(
        "log: {} pages, crc {:#010x}, {} records, {} B appended",
        log.num_pages(),
        bur::wal::crc32(&crc),
        stats.records,
        stats.bytes_appended
    );
    assert_eq!(
        (
            log.num_pages(),
            bur::wal::crc32(&crc),
            stats.records,
            stats.bytes_appended
        ),
        (127, 0xceb2_5de5, 2801, 824_072)
    );
}

/// Every page of `src` on a fresh in-memory disk.
fn copy_disk(src: &MemDisk) -> Arc<MemDisk> {
    let dst = Arc::new(MemDisk::new(src.page_size()));
    let mut buf = vec![0u8; src.page_size()];
    for pid in 0..src.num_pages() {
        src.read(pid, &mut buf).unwrap();
        dst.allocate().unwrap();
        dst.write(pid, &buf).unwrap();
    }
    dst
}

/// `batches` batches of ten fresh inserts on a durable index with the
/// default options, then a crash with the handle alive: the data and log
/// platters as the crash left them, and every acknowledged position.
fn crashed_after_batches(batches: u64, seed: u64) -> (Arc<MemDisk>, Arc<MemDisk>, Vec<Point>) {
    let (data, log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let mut index = IndexBuilder::with_options(IndexOptions::durable())
        .disk(data.clone())
        .log_disk(log.clone())
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::new();
    for b in 0..batches {
        let mut batch = Batch::new();
        for oid in b * 10..b * 10 + 10 {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            batch.insert(oid, p);
            positions.push(p);
        }
        index.apply_batch(&batch).unwrap();
    }
    // Crash with the handle alive: only what the platters hold survives.
    let (data, log) = (copy_disk(&data), copy_disk(&log));
    std::mem::forget(index);
    (data, log, positions)
}

/// Every acknowledged position is where `index` finds its object.
fn assert_holds(index: &RTreeIndex, positions: &[Point]) {
    index.validate().unwrap();
    assert_eq!(index.len(), positions.len() as u64);
    for (oid, p) in positions.iter().enumerate() {
        assert!(
            index.point_query(*p).unwrap().contains(&(oid as u64)),
            "acknowledged position of {oid} lost"
        );
    }
}

/// A log page that cannot be read fails recovery before it writes
/// anything. Redoing the readable prefix would drop every commit behind
/// the page, and the recovery's checkpoint would rewind the log over
/// them; instead, once the page reads again, recovery finds every acked
/// insert.
#[test]
fn an_unreadable_log_page_fails_recovery_and_loses_nothing() {
    let opts = IndexOptions::durable();
    let (data, log, _) = crashed_after_batches(30, 37);

    let pages = bur::wal::scan(log.as_ref(), LOG_DISK_ANCHOR)
        .unwrap()
        .expect("a log")
        .pages;
    assert!(pages.len() > 2, "chain: {pages:?}");
    let log = FaultyDisk::new(log);
    log.fail_page(FaultKind::Read, pages[pages.len() / 2]);
    let err = recover_on(data.clone(), log.clone(), opts).map(|(index, _)| index.len());
    assert!(matches!(err, Err(CoreError::Storage(_))), "{err:?}");

    log.clear_faults();
    let (index, _) = recover_on(data, log, opts).unwrap();
    assert_eq!(index.len(), 300, "every acked insert is recovered");
    index.validate().unwrap();
}

/// A batch is one commit record however many operations it holds, and
/// the recovery report counts records.
#[test]
fn recovery_counts_commit_records_not_operations() {
    let (data, log, positions) = crashed_after_batches(3, 53);
    let (index, report) = recover_on(data, log, IndexOptions::durable()).unwrap();
    assert_eq!(report.commits, 3, "{report:?}");
    assert_holds(&index, &positions);
}

/// Recovery checks every record it will redo before it writes a page: a
/// CRC-clean delta that does not chain, followed by a commit, fails it as
/// a corrupt log with the data disk exactly as the crash left it.
#[test]
fn a_delta_that_does_not_chain_fails_recovery_before_any_write() {
    // A pool small enough that a page redone would reach the disk.
    let opts = IndexOptions {
        buffer_frames: 4,
        ..IndexOptions::durable()
    };
    let (data, log, positions) = crashed_after_batches(30, 59);
    // The crashed log, appended again record by record to a log of its
    // own; a fresh log numbers them from 1 just as the index's did.
    let scanned = bur::wal::scan(log.as_ref(), LOG_DISK_ANCHOR)
        .unwrap()
        .expect("a log");
    let relog = Arc::new(MemDisk::new(PAGE));
    let wal = bur::wal::Wal::create(relog.clone()).unwrap();
    let (mut meta, mut pid) = (Vec::new(), None);
    for (lsn, rec) in scanned.records {
        let appended = match rec {
            WalRecord::Commit { meta: m } => {
                meta.clone_from(&m);
                wal.commit(m)
            }
            WalRecord::PageImage { pid: p, .. } | WalRecord::PageDelta { pid: p, .. } => {
                pid = Some(p);
                wal.append(&rec)
            }
            WalRecord::Checkpoint { .. } => wal.append(&rec),
        };
        assert_eq!(appended.unwrap(), lsn);
    }
    let good = copy_disk(&relog);
    assert_holds(
        &recover_on(copy_disk(&data), good, opts).unwrap().0,
        &positions,
    );

    // A delta whose base is the opening checkpoint, not a page record,
    // then a commit that would make recovery redo it.
    wal.append(&WalRecord::PageDelta {
        pid: pid.expect("the batches logged pages"),
        base_lsn: 1,
        ranges: vec![bur::wal::DeltaRange {
            offset: 16,
            bytes: vec![0xEE; 8],
        }],
    })
    .unwrap();
    wal.commit(meta).unwrap();
    let before = copy_disk(&data);
    let err = recover_on(data.clone(), relog, opts).map(|(index, _)| index.len());
    assert!(
        matches!(&err, Err(CoreError::BadConfig(msg)) if msg.contains("corrupt log")),
        "{err:?}"
    );
    assert_eq!(data.num_pages(), before.num_pages());
    let (mut now, mut then) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for page in 0..data.num_pages() {
        data.read(page, &mut now).unwrap();
        before.read(page, &mut then).unwrap();
        assert!(now == then, "page {page} was written");
    }
}

/// A log read that fails in recovery's second pass fails recovery with
/// the storage error, after the pass redid some pages onto the data
/// disk; recovering again, the fault gone, loses no acknowledged write.
#[test]
fn a_log_read_that_fails_in_the_second_pass_loses_nothing() {
    // A pool small enough that the second pass's writes reach the disk.
    let opts = IndexOptions {
        buffer_frames: 4,
        ..IndexOptions::durable()
    };
    let (data, log, positions) = crashed_after_batches(30, 61);
    let pages = bur::wal::scan(log.as_ref(), LOG_DISK_ANCHOR)
        .unwrap()
        .expect("a log")
        .pages
        .len() as u64;
    assert!(pages > 4, "{pages} log pages");
    let before = copy_disk(&data);
    let log = FaultyDisk::new(log);
    // The first pass reads each page of the chain once; the read after
    // those belongs to the second.
    log.fail_nth(FaultKind::Read, pages + pages / 2);
    let err = recover_on(data.clone(), log.clone(), opts).map(|(index, _)| index.len());
    assert!(matches!(err, Err(CoreError::Storage(_))), "{err:?}");
    assert_eq!(log.injected_faults(), 1);
    let mut written = false;
    let (mut now, mut then) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    for page in 0..before.num_pages() {
        data.read(page, &mut now).unwrap();
        before.read(page, &mut then).unwrap();
        written |= now != then;
    }
    assert!(
        written || data.num_pages() > before.num_pages(),
        "the second pass wrote pages before the fault"
    );

    log.clear_faults();
    let (index, _) = recover_on(data, log, opts).unwrap();
    assert_holds(&index, &positions);
}

/// A recovery that rebuilds the hash index builds it in the pages no one
/// owns: the hash it replaces, and pages a crashed batch allocated. Ten
/// cycles of recovery, one batch and a crash leave the file the size the
/// first cycle left it, within what one cycle allocates; rebuilding into
/// fresh pages instead grew it by a whole hash (369 pages here) a cycle.
#[test]
fn crash_cycles_rebuild_the_hash_in_pages_nobody_owns() {
    let opts = IndexOptions::durable();
    let (data, log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let mut rng = StdRng::seed_from_u64(19);
    let mut positions: Vec<Point> = (0..20_000)
        .map(|_| Point::new(rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0)))
        .collect();
    let items: Vec<(u64, Point)> = (0..).zip(positions.iter().copied()).collect();
    // The bulk load ends with a checkpoint.
    drop(RTreeIndex::bulk_load_on(data.clone(), Some(log.clone()), opts, &items).unwrap());

    let (mut pages, mut allocated) = (Vec::new(), 0);
    for cycle in 0..10 {
        let (mut index, _) = recover_on(data.clone(), log.clone(), opts).unwrap();
        let mut batch = Batch::new();
        for _ in 0..10 {
            let oid = rng.random_range(0..positions.len());
            let old = positions[oid];
            let new = Point::new(
                (old.x + rng.random_range(-0.01f32..0.01)).clamp(0.0, 1.0),
                (old.y + rng.random_range(-0.01f32..0.01)).clamp(0.0, 1.0),
            );
            batch.update(oid as u64, old, new);
            positions[oid] = new;
        }
        index.apply_batch(&batch).unwrap();
        allocated = allocated.max(index.io_stats().snapshot().allocations);
        // Crash: nothing is flushed after the commit's log sync.
        drop(index);
        pages.push(u64::from(data.num_pages()));
        println!("cycle {cycle}: {} pages", data.num_pages());
    }
    assert!(
        pages[9] - pages[0] <= allocated,
        "the file grew {} pages over nine cycles, one allocates at most {allocated}: {pages:?}",
        pages[9] - pages[0]
    );
    let (index, _) = recover_on(data, log, opts).unwrap();
    assert_holds(&index, &positions);
}

/// The pages on the tree's free list are the tree's: a recovery that
/// rebuilds the hash index leaves them out of it, and the inserts after
/// the recovery take them back for tree nodes without clobbering a hash
/// bucket.
#[test]
fn a_rebuilt_hash_leaves_the_tree_its_free_pages() {
    let opts = IndexOptions::durable();
    let (data, log) = (Arc::new(MemDisk::new(PAGE)), Arc::new(MemDisk::new(PAGE)));
    let mut index = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    let mut live: HashMap<u64, Point> = HashMap::new();
    let mut batch = Batch::new();
    for oid in 0..3_000u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        batch.insert(oid, p);
        live.insert(oid, p);
    }
    index.apply_batch(&batch).unwrap();
    // Deleting two objects in three dissolves leaves onto the free list.
    let mut batch = Batch::new();
    for oid in (0..3_000u64).filter(|oid| oid % 3 != 0) {
        batch.delete(oid, live.remove(&oid).unwrap());
    }
    index.apply_batch(&batch).unwrap();
    assert!(
        index.op_stats().snapshot().condenses > 0,
        "no node was freed"
    );
    drop(index); // crash after the commits: recovery rebuilds the hash

    let (mut index, _) = recover_on(data, log, opts).unwrap();
    let mut batch = Batch::new();
    for oid in 3_000..6_000u64 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        batch.insert(oid, p);
        live.insert(oid, p);
    }
    index.apply_batch(&batch).unwrap();
    assert!(holds_exactly(&index, &live));
    index.validate().unwrap();
}

/// LBU's memory state comes from one walk of the tree: the walk checks
/// each leaf's parent pointer and sets a stale one through the pin the
/// leaf was read with. The platters come from a GBU index, whose leaves
/// point nowhere, so a durable LBU recovery repairs every pointer, and
/// it still fetches exactly what a GBU recovery of the same platters
/// does: one walk that refills the hash index. A clean LBU open then
/// fetches every tree page once more than a TD open of the same image,
/// which walks nothing.
#[test]
fn an_lbu_open_or_recovery_fetches_every_tree_page_once() {
    let (data, log, positions) = crashed_after_batches(150, 17);
    let fetches = |index: &RTreeIndex| index.io_stats().snapshot().fetches;
    let lbu = durable(IndexOptions::localized(), 64);
    let (gbu_recovered, _) = recover_on(
        copy_disk(&data),
        copy_disk(&log),
        durable(IndexOptions::generalized(), 64),
    )
    .unwrap();
    let (data, log) = (copy_disk(&data), copy_disk(&log));
    let (recovered, _) = recover_on(data.clone(), log.clone(), lbu).unwrap();
    assert_eq!(fetches(&recovered), fetches(&gbu_recovered));
    assert_holds(&recovered, &positions);
    drop(recovered); // the recovery's checkpoint left a clean image

    let open = |opts: IndexOptions| {
        IndexBuilder::with_options(opts)
            .disk(copy_disk(&data))
            .log_disk(copy_disk(&log))
            .open()
            .build_index()
            .unwrap()
    };
    let top_down = open(durable(IndexOptions::top_down(), 64));
    let opened = open(lbu);
    assert_eq!(
        fetches(&opened) - fetches(&top_down),
        opened.tree_pages().unwrap()
    );
    opened.validate().unwrap();
}
