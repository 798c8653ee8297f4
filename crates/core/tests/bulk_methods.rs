//! The STR bulk loader against the incremental build: identical query
//! answers, no worse tree quality, correct auxiliary-structure
//! maintenance.

use bur_core::{IndexBuilder, IndexOptions, RTreeIndex};
use bur_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn uniform_items(n: usize, seed: u64) -> Vec<(u64, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|oid| (oid, Point::new(rng.random::<f32>(), rng.random::<f32>())))
        .collect()
}

fn query_fetches(index: &RTreeIndex, windows: &[Rect]) -> u64 {
    let before = index.pool().stats().snapshot();
    for w in windows {
        index.query(w).unwrap();
    }
    index.pool().stats().snapshot().since(&before).fetches
}

#[test]
fn str_load_agrees_with_incremental_build() {
    let items = uniform_items(4000, 71);
    let opts = IndexOptions::generalized();
    let str_tree = RTreeIndex::bulk_load_in_memory(opts, &items).unwrap();
    let mut incr = IndexBuilder::with_options(opts).build_index().unwrap();
    for &(oid, p) in &items {
        incr.insert(oid, p).unwrap();
    }
    str_tree.validate().unwrap();

    let mut rng = StdRng::seed_from_u64(72);
    for _ in 0..100 {
        let x = rng.random::<f32>() * 0.85;
        let y = rng.random::<f32>() * 0.85;
        let w = Rect::new(x, y, x + 0.15, y + 0.15);
        let norm = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        let want = norm(incr.query(&w).unwrap());
        assert_eq!(norm(str_tree.query(&w).unwrap()), want);
    }
}

#[test]
fn packed_tree_queries_no_worse_than_incremental_build() {
    // STR targets 66 % fill with low overlap; its logical query cost
    // should be no worse than the insertion-built tree's.
    let items = uniform_items(8000, 73);
    let opts = IndexOptions::top_down();
    let str_tree = RTreeIndex::bulk_load_in_memory(opts, &items).unwrap();
    let mut incr = IndexBuilder::with_options(opts).build_index().unwrap();
    for &(oid, p) in &items {
        incr.insert(oid, p).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(74);
    let windows: Vec<Rect> = (0..200)
        .map(|_| {
            let x = rng.random::<f32>() * 0.9;
            let y = rng.random::<f32>() * 0.9;
            Rect::new(x, y, x + 0.1, y + 0.1)
        })
        .collect();
    let io_str = query_fetches(&str_tree, &windows);
    let io_incr = query_fetches(&incr, &windows);
    assert!(
        io_str <= io_incr,
        "the packed tree must not query worse than the insertion-built one \
         (STR {io_str}, incremental {io_incr})"
    );
}

#[test]
fn str_load_supports_bottom_up_updates() {
    // An STR-packed GBU index must carry hash + summary state ready for
    // bottom-up updates.
    let items = uniform_items(3000, 75);
    let mut index = RTreeIndex::bulk_load_in_memory(IndexOptions::generalized(), &items).unwrap();
    let mut rng = StdRng::seed_from_u64(76);
    let mut pts: Vec<Point> = items.iter().map(|&(_, p)| p).collect();
    for _ in 0..6000 {
        let oid = rng.random_range(0..pts.len() as u64);
        let old = pts[oid as usize];
        let new = Point::new(
            old.x + rng.random_range(-0.01..0.01f32),
            old.y + rng.random_range(-0.01..0.01f32),
        );
        index.update(oid, old, new).unwrap();
        pts[oid as usize] = new;
    }
    index.validate().unwrap();
    let snap = index.op_stats().snapshot();
    assert!(
        snap.upd_top_down * 10 < snap.updates,
        "bottom-up paths must dominate: {snap}"
    );
}

#[test]
fn empty_and_tiny_loads() {
    let load = RTreeIndex::bulk_load_in_memory;
    let empty = load(IndexOptions::generalized(), &[]).unwrap();
    assert!(empty.is_empty());
    empty.validate().unwrap();

    let one = load(IndexOptions::generalized(), &[(7, Point::new(0.5, 0.5))]).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one.point_query(Point::new(0.5, 0.5)).unwrap(), vec![7]);
    one.validate().unwrap();

    let three: Vec<(u64, Point)> = (0..3)
        .map(|i| (i, Point::new(i as f32 * 0.3 + 0.1, 0.5)))
        .collect();
    let small = load(IndexOptions::localized(), &three).unwrap();
    assert_eq!(small.len(), 3);
    small.validate().unwrap();
}
