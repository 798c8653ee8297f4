//! The "downstream user" walk: every public API a typical adopter of the
//! library touches, exercised the way the README and examples present it.
//! These are breadth tests — each one covers a workflow, not a corner.

mod common;

use bur::prelude::*;
use common::TempDir;
use std::sync::Arc;

#[test]
fn readme_quickstart_workflow() {
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.2, 0.2)).unwrap();
    index.insert(2, Point::new(0.8, 0.8)).unwrap();
    let outcome = index
        .update(1, Point::new(0.2, 0.2), Point::new(0.21, 0.2))
        .unwrap();
    assert_eq!(outcome, UpdateOutcome::InPlace);
    let hits = index.query(&Rect::new(0.0, 0.0, 0.5, 0.5)).unwrap();
    assert_eq!(hits, vec![1]);
    assert_eq!(index.len(), 2);
    assert!(!index.is_empty());
    assert_eq!(index.height(), 1);
}

#[test]
fn spatial_query_toolkit() {
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    for i in 0..100u64 {
        let x = (i % 10) as f32 / 10.0 + 0.05;
        let y = (i / 10) as f32 / 10.0 + 0.05;
        index.insert(i, Point::new(x, y)).unwrap();
    }

    // Window query and its buffer-reusing variant.
    let w = Rect::new(0.0, 0.0, 0.31, 0.31);
    let mut buf = Vec::new();
    index.query_into(&w, &mut buf).unwrap();
    assert_eq!(buf.len(), index.query(&w).unwrap().len());
    assert_eq!(buf.len(), 9); // 3×3 grid corner

    // Entries carry the stored rects.
    let entries = index.query_entries(&w).unwrap();
    assert_eq!(entries.len(), 9);
    assert!(entries.iter().all(|e| w.intersects(&e.rect)));

    // Point and count queries.
    assert_eq!(index.point_query(Point::new(0.05, 0.05)).unwrap(), vec![0]);
    assert_eq!(index.count_in(&w).unwrap(), 9);

    // Nearest neighbors: the grid point itself, then its 4-neighborhood.
    let nn = index
        .nearest_neighbor(Point::new(0.05, 0.05))
        .unwrap()
        .unwrap();
    assert_eq!(nn.oid, 0);
    assert!(nn.distance < 1e-6);
    let n5 = index.nearest_neighbors(Point::new(0.05, 0.05), 5).unwrap();
    assert_eq!(n5.len(), 5);
    let ids: Vec<u64> = n5.iter().map(|n| n.oid).collect();
    assert!(ids.contains(&1) && ids.contains(&10));

    // Distance range query: center plus the 4-neighborhood at 0.1.
    let near = index.within_distance(Point::new(0.55, 0.55), 0.11).unwrap();
    assert_eq!(near.len(), 5);
    assert_eq!(near[0].distance, 0.0);
}

#[test]
fn durable_index_lifecycle() {
    let dir = TempDir::new("adopt");
    let path = dir.file("lifecycle.bur");
    let opts = IndexOptions::generalized();
    {
        let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
        let mut index = IndexBuilder::with_options(opts)
            .disk(disk)
            .build_index()
            .unwrap();
        for i in 0..500u64 {
            index
                .insert(
                    i,
                    Point::new((i % 25) as f32 / 25.0, (i / 25) as f32 / 25.0),
                )
                .unwrap();
        }
        index.checkpoint().unwrap();
    }
    {
        let disk = Arc::new(FileDisk::open(&path, opts.page_size).unwrap());
        let index = IndexBuilder::with_options(opts)
            .disk(disk)
            .open()
            .build_index()
            .unwrap();
        assert_eq!(index.len(), 500);
        index.validate().unwrap();
        assert_eq!(
            index.count_in(&Rect::new(-1.0, -1.0, 2.0, 2.0)).unwrap(),
            500
        );
        // The kNN extension works on a reopened index (summary rebuilt).
        let nn = index.nearest_neighbors(Point::new(0.5, 0.5), 3).unwrap();
        assert_eq!(nn.len(), 3);
    }
}

#[test]
fn rstar_variant_is_a_drop_in() {
    // Switching to the R* variant is one builder call; everything else —
    // updates, queries, kNN, validation — is unchanged.
    let mut index = IndexBuilder::with_options(IndexOptions::generalized().rstar())
        .build_index()
        .unwrap();
    assert_eq!(index.options().variant, TreeVariant::RStar);
    let mut workload = Workload::generate(WorkloadConfig {
        num_objects: 3000,
        seed: 99,
        max_distance: 0.02,
        ..WorkloadConfig::default()
    });
    for (oid, p) in workload.items() {
        index.insert(oid, p).unwrap();
    }
    for _ in 0..3000 {
        let op = workload.next_update();
        index.update(op.oid, op.old, op.new).unwrap();
    }
    index.validate().unwrap();
    let q = workload.next_query();
    let hits = index.query(&q.window).unwrap();
    let expect = workload
        .positions()
        .iter()
        .filter(|p| q.window.contains_point(p))
        .count();
    assert_eq!(hits.len(), expect);
}

#[test]
fn trending_fleet_prefers_bottom_up_paths() {
    // Vehicles drifting along persistent headings: GBU keeps absorbing
    // the updates bottom-up (extension / shift / ascent) instead of
    // falling back to top-down, as long as they stay in the root MBR.
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    let mut workload = Workload::generate(WorkloadConfig {
        num_objects: 5000,
        max_distance: 0.004,
        movement: MovementModel::Trend { jitter: 0.3 },
        seed: 1234,
        ..WorkloadConfig::default()
    });
    for (oid, p) in workload.items() {
        index.insert(oid, p).unwrap();
    }
    index.op_stats().reset();
    for _ in 0..20_000 {
        let op = workload.next_update();
        index.update(op.oid, op.old, op.new).unwrap();
    }
    index.validate().unwrap();
    let snap = index.op_stats().snapshot();
    let bottom_up = snap.upd_in_place + snap.upd_extended + snap.upd_shifted + snap.upd_ascended;
    assert!(
        bottom_up as f64 / snap.updates as f64 > 0.9,
        "trend workload should stay >90% bottom-up: {snap}"
    );
    // Trend movement keeps crossing leaf boundaries, so some updates must
    // have used the non-trivial repairs (not everything in place).
    assert!(
        snap.upd_extended + snap.upd_shifted + snap.upd_ascended > 0,
        "drift must trigger structural repairs: {snap}"
    );
}

#[test]
fn shared_handle_round_trip() {
    let index = IndexBuilder::generalized().build().unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            // Clones share the same index.
            let index = index.clone();
            s.spawn(move || {
                for i in 0..500u64 {
                    let oid = t * 500 + i;
                    let p = Point::new((oid % 50) as f32 / 50.0, (oid / 50 % 50) as f32 / 50.0);
                    index.insert(oid, p).unwrap();
                }
            });
        }
    });
    assert_eq!(index.len(), 2000);
    let hits = index.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
    assert_eq!(hits.len(), 2000);
}

#[test]
fn error_paths_are_informative() {
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    index.insert(7, Point::new(0.5, 0.5)).unwrap();

    // Duplicate insert (detectable through the hash index).
    let err = index.insert(7, Point::new(0.1, 0.1)).unwrap_err();
    assert!(err.to_string().contains('7'), "got: {err}");

    // Updating an unknown object.
    let err = index
        .update(99, Point::new(0.5, 0.5), Point::new(0.6, 0.6))
        .unwrap_err();
    assert!(err.to_string().contains("99"), "got: {err}");

    // Deleting a missing object reports false, not an error.
    assert!(!index.delete(42, Point::new(0.5, 0.5)).unwrap());

    // Invalid geometry is rejected up front.
    assert!(index.insert_rect(8, Rect::new(0.5, 0.5, 0.4, 0.6)).is_err());
    assert!(index
        .nearest_neighbors(Point::new(f32::NAN, 0.0), 1)
        .is_err());
    assert!(index.within_distance(Point::new(0.5, 0.5), -1.0).is_err());

    // Bad configuration fails at construction.
    let bad = IndexOptions {
        page_size: 64,
        ..IndexOptions::default()
    };
    assert!(IndexBuilder::with_options(bad).build_index().is_err());
}
