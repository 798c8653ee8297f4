//! End-to-end correctness: every update strategy must produce exactly the
//! same query answers as a brute-force baseline, across random workloads
//! heavy enough to force splits, condenses, extensions, shifts and
//! ascents. The deep invariant checker runs between phases.

use bur_core::{GbuParams, IndexBuilder, IndexOptions, LbuParams, RTreeIndex, UpdateStrategy};
use bur_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Brute-force reference index.
#[derive(Default)]
struct Baseline {
    objects: HashMap<u64, Point>,
}

impl Baseline {
    fn insert(&mut self, oid: u64, p: Point) {
        assert!(self.objects.insert(oid, p).is_none());
    }
    fn update(&mut self, oid: u64, p: Point) {
        *self.objects.get_mut(&oid).unwrap() = p;
    }
    fn delete(&mut self, oid: u64) {
        self.objects.remove(&oid).unwrap();
    }
    fn query(&self, w: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .objects
            .iter()
            .filter(|(_, p)| w.contains_point(p))
            .map(|(&oid, _)| oid)
            .collect();
        v.sort_unstable();
        v
    }
}

fn strategies() -> Vec<(&'static str, IndexOptions)> {
    let small_buffer = 64;
    let mut td = IndexOptions::top_down();
    td.buffer_frames = small_buffer;
    let mut lbu = IndexOptions::localized();
    lbu.buffer_frames = small_buffer;
    let mut gbu = IndexOptions::generalized();
    gbu.buffer_frames = small_buffer;
    // A GBU variant stressing every knob differently, on the R*-tree.
    let gbu2 = IndexOptions {
        strategy: UpdateStrategy::Generalized(GbuParams {
            epsilon: 0.02,
            distance_threshold: 0.0, // always shift-first
            level_threshold: Some(1),
            piggyback: false,
        }),
        buffer_frames: small_buffer,
        ..IndexOptions::default()
    }
    .rstar();
    // An LBU variant with zero epsilon (sibling shifts only).
    let lbu0 = IndexOptions {
        strategy: UpdateStrategy::Localized(LbuParams { epsilon: 0.0 }),
        buffer_frames: small_buffer,
        ..IndexOptions::default()
    };
    vec![
        ("TD", td),
        ("LBU", lbu),
        ("GBU", gbu),
        ("GBU-variant", gbu2),
        ("LBU-eps0", lbu0),
    ]
}

fn rand_point(rng: &mut StdRng) -> Point {
    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
}

fn rand_window(rng: &mut StdRng, max_side: f32) -> Rect {
    let w = rng.random_range(0.0..max_side);
    let h = rng.random_range(0.0..max_side);
    let x = rng.random_range(0.0..(1.0 - w));
    let y = rng.random_range(0.0..(1.0 - h));
    Rect::new(x, y, x + w, y + h)
}

fn compare(name: &str, index: &RTreeIndex, base: &Baseline, rng: &mut StdRng, queries: usize) {
    for q in 0..queries {
        let w = rand_window(rng, 0.3);
        let mut got = index.query(&w).unwrap();
        got.sort_unstable();
        let expect = base.query(&w);
        assert_eq!(got, expect, "{name}: query {q} mismatch on window {w}");
    }
}

#[test]
fn random_workload_matches_baseline() {
    for (name, opts) in strategies() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
        let mut base = Baseline::default();

        // Phase 1: inserts.
        for oid in 0..2_000u64 {
            let p = rand_point(&mut rng);
            index.insert(oid, p).unwrap();
            base.insert(oid, p);
        }
        index
            .validate()
            .unwrap_or_else(|e| panic!("{name}: after inserts: {e}"));
        assert_eq!(index.len(), 2_000);
        compare(name, &index, &base, &mut rng, 20);

        // Phase 2: updates with a mix of small and large moves.
        for i in 0..6_000u64 {
            let oid = rng.random_range(0..2_000u64);
            let old = base.objects[&oid];
            let dist = if i % 5 == 0 { 0.3 } else { 0.02 };
            let new = old
                .translated(rng.random_range(-dist..dist), rng.random_range(-dist..dist))
                .clamped(0.0, 1.0);
            index.update(oid, old, new).unwrap();
            base.update(oid, new);
        }
        index
            .validate()
            .unwrap_or_else(|e| panic!("{name}: after updates: {e}"));
        compare(name, &index, &base, &mut rng, 20);

        // Phase 3: deletes (every third object) interleaved with updates.
        for oid in (0..2_000u64).step_by(3) {
            let p = base.objects[&oid];
            assert!(index.delete(oid, p).unwrap(), "{name}: delete {oid}");
            base.delete(oid);
        }
        index
            .validate()
            .unwrap_or_else(|e| panic!("{name}: after deletes: {e}"));
        assert_eq!(index.len() as usize, base.objects.len());
        compare(name, &index, &base, &mut rng, 20);

        // Phase 4: reinsert fresh ids.
        for oid in 10_000..10_500u64 {
            let p = rand_point(&mut rng);
            index.insert(oid, p).unwrap();
            base.insert(oid, p);
        }
        index
            .validate()
            .unwrap_or_else(|e| panic!("{name}: after reinserts: {e}"));
        compare(name, &index, &base, &mut rng, 20);
    }
}

#[test]
fn update_outcomes_cover_all_paths() {
    // With locality-heavy movement, GBU must actually exercise the
    // bottom-up machinery, not just fall through to top-down.
    let mut rng = StdRng::seed_from_u64(7);
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    let mut positions = HashMap::new();
    for oid in 0..3_000u64 {
        let p = rand_point(&mut rng);
        index.insert(oid, p).unwrap();
        positions.insert(oid, p);
    }
    for _ in 0..20_000u64 {
        let oid = rng.random_range(0..3_000u64);
        let old = positions[&oid];
        let new = old
            .translated(rng.random_range(-0.05..0.05), rng.random_range(-0.05..0.05))
            .clamped(0.0, 1.0);
        index.update(oid, old, new).unwrap();
        positions.insert(oid, new);
    }
    let snap = index.op_stats().snapshot();
    assert_eq!(snap.updates, 20_000);
    assert!(snap.upd_in_place > 0, "no in-place updates: {snap}");
    assert!(snap.upd_extended > 0, "no extensions: {snap}");
    assert!(snap.upd_shifted > 0, "no sibling shifts: {snap}");
    assert!(snap.upd_ascended > 0, "no ascents: {snap}");
    // The whole point of GBU: the vast majority of updates avoid TD.
    assert!(
        snap.upd_top_down < snap.updates / 4,
        "too many top-down fallbacks: {snap}"
    );
    index.validate().unwrap();
}

#[test]
fn gbu_zero_epsilon_never_extends() {
    let mut rng = StdRng::seed_from_u64(21);
    let opts = IndexOptions {
        strategy: UpdateStrategy::Generalized(GbuParams {
            epsilon: 0.0,
            ..GbuParams::default()
        }),
        ..IndexOptions::default()
    };
    let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
    let mut positions = HashMap::new();
    for oid in 0..1_000u64 {
        let p = rand_point(&mut rng);
        index.insert(oid, p).unwrap();
        positions.insert(oid, p);
    }
    for _ in 0..5_000u64 {
        let oid = rng.random_range(0..1_000u64);
        let old = positions[&oid];
        let new = old
            .translated(rng.random_range(-0.03..0.03), rng.random_range(-0.03..0.03))
            .clamped(0.0, 1.0);
        index.update(oid, old, new).unwrap();
        positions.insert(oid, new);
    }
    let snap = index.op_stats().snapshot();
    assert_eq!(snap.upd_extended, 0, "ε = 0 must never extend: {snap}");
    index.validate().unwrap();
}

#[test]
fn summary_and_plain_queries_agree() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    let mut positions = HashMap::new();
    for oid in 0..4_000u64 {
        let p = rand_point(&mut rng);
        index.insert(oid, p).unwrap();
        positions.insert(oid, p);
    }
    for _ in 0..8_000u64 {
        let oid = rng.random_range(0..4_000u64);
        let old = positions[&oid];
        let new = old
            .translated(rng.random_range(-0.1..0.1), rng.random_range(-0.1..0.1))
            .clamped(0.0, 1.0);
        index.update(oid, old, new).unwrap();
        positions.insert(oid, new);
    }
    for _ in 0..50 {
        let w = rand_window(&mut rng, 0.2);
        let mut with_summary = Vec::new();
        index.query_into(&w, &mut with_summary).unwrap();
        let mut plain = Vec::new();
        index.query_top_down(&w, &mut plain).unwrap();
        with_summary.sort_unstable();
        plain.sort_unstable();
        assert_eq!(with_summary, plain, "summary query diverges on {w}");
    }
}

#[test]
fn duplicate_and_missing_objects() {
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.5, 0.5)).unwrap();
    let err = index.insert(1, Point::new(0.6, 0.6)).unwrap_err();
    assert!(err.to_string().contains("already indexed"));
    let err = index
        .update(42, Point::new(0.1, 0.1), Point::new(0.2, 0.2))
        .unwrap_err();
    assert!(err.to_string().contains("not found"));
    assert!(!index.delete(42, Point::new(0.1, 0.1)).unwrap());
    assert_eq!(index.len(), 1);
}

#[test]
fn empty_and_tiny_trees() {
    for (name, opts) in strategies() {
        let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
        assert!(index.is_empty(), "{name}");
        assert_eq!(index.height(), 1);
        assert!(index.query(&Rect::UNIT).unwrap().is_empty());
        index.validate().unwrap();
        // Single object: update it around (root-leaf special cases).
        index.insert(5, Point::new(0.2, 0.2)).unwrap();
        index
            .update(5, Point::new(0.2, 0.2), Point::new(0.9, 0.9))
            .unwrap();
        assert_eq!(index.query(&Rect::UNIT).unwrap(), vec![5]);
        assert!(index
            .query(&Rect::new(0.0, 0.0, 0.5, 0.5))
            .unwrap()
            .is_empty());
        index.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(index.delete(5, Point::new(0.9, 0.9)).unwrap());
        assert!(index.is_empty());
        index.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn shrinks_back_after_mass_delete() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut index = IndexBuilder::with_options(IndexOptions::top_down())
        .build_index()
        .unwrap();
    let mut pts = Vec::new();
    for oid in 0..3_000u64 {
        let p = rand_point(&mut rng);
        index.insert(oid, p).unwrap();
        pts.push(p);
    }
    assert!(index.height() >= 3);
    for oid in 0..2_990u64 {
        assert!(index.delete(oid, pts[oid as usize]).unwrap());
    }
    index.validate().unwrap();
    assert_eq!(index.len(), 10);
    assert!(
        index.height() <= 2,
        "tree must shrink, is {}",
        index.height()
    );
    let mut all = index.query(&Rect::UNIT).unwrap();
    all.sort_unstable();
    assert_eq!(all, (2_990..3_000).collect::<Vec<_>>());
}

#[test]
fn bulk_load_agrees_with_incremental() {
    let mut rng = StdRng::seed_from_u64(11);
    let items: Vec<(u64, Point)> = (0..5_000u64)
        .map(|oid| (oid, rand_point(&mut rng)))
        .collect();
    for (name, opts) in strategies() {
        let bulk = RTreeIndex::bulk_load_in_memory(opts, &items).unwrap();
        bulk.validate()
            .unwrap_or_else(|e| panic!("{name} bulk: {e}"));
        assert_eq!(bulk.len(), 5_000);
        let mut incr = IndexBuilder::with_options(opts).build_index().unwrap();
        for &(oid, p) in &items {
            incr.insert(oid, p).unwrap();
        }
        for _ in 0..25 {
            let w = rand_window(&mut rng, 0.25);
            let mut a = bulk.query(&w).unwrap();
            let mut b = incr.query(&w).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{name}: bulk vs incremental mismatch");
        }
    }
}

#[test]
fn bulk_load_utilization_near_66_percent() {
    let mut rng = StdRng::seed_from_u64(13);
    let items: Vec<(u64, Point)> = (0..20_000u64)
        .map(|oid| (oid, rand_point(&mut rng)))
        .collect();
    let index = RTreeIndex::bulk_load_in_memory(IndexOptions::top_down(), &items).unwrap();
    // Leaf fanout 42 at 66 % fill → ~27 entries/leaf → ~740 leaves; the
    // whole tree should be within a whisker of n / (42*0.66) + internals.
    let pages = index.tree_pages().unwrap();
    let expect_leaves = (20_000f64 / (42.0 * 0.66)).ceil();
    assert!(
        (pages as f64) < expect_leaves * 1.15,
        "too many pages: {pages} vs ~{expect_leaves} leaves"
    );
    assert!(index.height() >= 3);
}

#[test]
fn point_query_and_count() {
    let mut index = IndexBuilder::with_options(IndexOptions::generalized())
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.25, 0.25)).unwrap();
    index.insert(2, Point::new(0.25, 0.25)).unwrap(); // co-located
    index.insert(3, Point::new(0.75, 0.75)).unwrap();
    let mut at = index.point_query(Point::new(0.25, 0.25)).unwrap();
    at.sort_unstable();
    assert_eq!(at, vec![1, 2]);
    assert!(index.point_query(Point::new(0.5, 0.5)).unwrap().is_empty());
    assert_eq!(index.count_in(&Rect::UNIT).unwrap(), 3);
    assert_eq!(index.count_in(&Rect::new(0.5, 0.5, 1.0, 1.0)).unwrap(), 1);
}
