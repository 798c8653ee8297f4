//! Concurrency tests: the clonable [`Bur`] handle under mixed
//! multi-threaded workloads must neither corrupt the tree nor lose
//! objects, and its locking discipline (structure lock, leaf claims,
//! page latches) must actually serialize conflicting leaf access.

use bur::prelude::*;
use bur::workload::Workload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn build(opts: IndexOptions, n: usize) -> (Bur, Workload) {
    let workload = Workload::generate(WorkloadConfig {
        num_objects: n,
        max_distance: 0.02,
        query_max_side: 0.05,
        seed: 0xC0C0,
        ..WorkloadConfig::default()
    });
    let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
    for (oid, p) in workload.items() {
        index.insert(oid, p).unwrap();
    }
    (Bur::from_index(index), workload)
}

#[test]
fn mixed_workload_stays_consistent() {
    for opts in [
        IndexOptions::top_down(),
        IndexOptions::localized(),
        IndexOptions::generalized(),
    ] {
        let n = 4_000;
        let (index, workload) = build(opts, n);
        let threads = 8;
        let parts = workload.split(threads);
        let queries_run = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for mut part in parts {
                let index = &index;
                let queries_run = &queries_run;
                s.spawn(move || {
                    for i in 0..400 {
                        if i % 4 == 0 {
                            let q = part.next_query();
                            let _ = index.query(&q.window).unwrap().count();
                            queries_run.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let op = part.next_update();
                            index.update(op.oid, op.old, op.new).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(index.len(), n as u64, "no objects may be lost");
        assert!(queries_run.load(Ordering::Relaxed) > 0);
        index.validate().unwrap();
        // Every leaf claim must have been released.
        assert_eq!(index.claimed_leaves(), 0);
    }
}

#[test]
fn concurrent_inserts_and_deletes() {
    let (index, _wl) = build(IndexOptions::generalized(), 1_000);
    std::thread::scope(|s| {
        // Two inserter threads with disjoint id ranges.
        for t in 0..2u64 {
            let index = &index;
            s.spawn(move || {
                for i in 0..300u64 {
                    let oid = 10_000 + t * 1_000 + i;
                    let p = Point::new((oid % 97) as f32 / 97.0, (oid % 89) as f32 / 89.0);
                    index.insert(oid, p).unwrap();
                }
            });
        }
        // One deleter removing original objects.
        let index_ref = &index;
        let wl = Workload::generate(WorkloadConfig {
            num_objects: 1_000,
            seed: 0xC0C0,
            ..WorkloadConfig::default()
        });
        s.spawn(move || {
            for (oid, p) in wl.items().into_iter().take(200) {
                assert_eq!(index_ref.delete(oid, p).unwrap().report().deleted, 1);
            }
        });
    });
    assert_eq!(index.len(), 1_000 + 600 - 200);
    index.validate().unwrap();
}

#[test]
fn queries_see_every_object_exactly_once() {
    // Under concurrent updates, a full-space query must still return
    // each object exactly once (updates move objects around, but never
    // duplicate or drop them).
    let (index, workload) = build(IndexOptions::generalized(), 2_000);
    let parts = workload.split(4);
    std::thread::scope(|s| {
        for mut part in parts {
            let index = &index;
            s.spawn(move || {
                for _ in 0..500 {
                    let op = part.next_update();
                    index.update(op.oid, op.old, op.new).unwrap();
                }
            });
        }
        let index = &index;
        s.spawn(move || {
            // Whole-space scans while updates run. Objects may drift out
            // of the unit square (the workload does not clamp), so scan
            // a generous window.
            let world = Rect::new(-10.0, -10.0, 11.0, 11.0);
            for _ in 0..20 {
                let mut ids: Vec<u64> = index.query(&world).unwrap().collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), 2_000, "object lost or duplicated mid-scan");
            }
        });
    });
    index.validate().unwrap();
}

#[test]
fn io_and_op_snapshots_accessible_concurrently() {
    let (index, workload) = build(IndexOptions::generalized(), 1_000);
    let parts = workload.split(2);
    std::thread::scope(|s| {
        for mut part in parts {
            let index = &index;
            s.spawn(move || {
                for _ in 0..200 {
                    let op = part.next_update();
                    index.update(op.oid, op.old, op.new).unwrap();
                }
            });
        }
        let index = &index;
        s.spawn(move || {
            for _ in 0..50 {
                let io = index.io_snapshot();
                let ops = index.with_op_stats(|s| s.snapshot());
                // Monotone counters, no panics.
                assert!(io.fetches >= io.reads);
                assert!(ops.updates <= 400);
            }
        });
    });
    let ops = index.with_op_stats(|s| s.snapshot());
    assert_eq!(ops.updates, 400);
}

#[test]
fn escalating_writer_makes_progress_beside_tight_query_loops() {
    // The paper's traffic (`max_distance` 0.06) escalates every batch to
    // the structure lock's write side while four readers re-take the
    // read side back to back. Nothing but that lock's writer queue gets
    // the writer in, so it alone bounds how long 200 batches take.
    let n = 4_000;
    let mut workload = Workload::generate(WorkloadConfig {
        num_objects: n,
        max_distance: 0.06,
        clamp: true,
        seed: 0x11FE,
        ..WorkloadConfig::default()
    });
    let mut inner = IndexBuilder::generalized().build_index().unwrap();
    for (oid, p) in workload.items() {
        inner.insert(oid, p).unwrap();
    }
    let index = Bur::from_index(inner);

    /// Stops the readers even when the writer unwinds.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    let unit_square = Rect::new(0.0, 0.0, 1.0, 1.0);
    let stop = AtomicBool::new(false);
    let scans = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    assert_eq!(
                        index.count_in(&unit_square).unwrap(),
                        n,
                        "object lost or duplicated mid-scan"
                    );
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        let mut batch = Batch::new();
        for _ in 0..200 {
            batch.clear();
            for _ in 0..32 {
                let op = workload.next_update();
                batch.update(op.oid, op.old, op.new);
            }
            index.apply(&batch).unwrap();
        }
    });
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(120),
        "200 batches took {took:?} beside four query loops"
    );
    let ops = index.with_op_stats(|s| s.snapshot());
    assert_eq!(ops.updates, 200 * 32);
    assert!(ops.escalations >= 100, "the traffic stayed shared: {ops}");
    assert!(scans.load(Ordering::Relaxed) > 0);
    assert_eq!(index.claimed_leaves(), 0);
    assert_eq!(index.len(), n as u64);
    index.validate().unwrap();
}
