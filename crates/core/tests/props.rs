//! Property-based tests on the index: arbitrary operation sequences must
//! (a) keep every structural invariant, and (b) agree with a naive model
//! — for every update strategy, for both R-tree variants, and for the
//! kNN / distance-query extensions.

use bur_core::{
    internal_capacity, leaf_capacity, GbuParams, IndexBuilder, IndexOptions, InternalEntry,
    LbuParams, LeafEntry, Node, RTreeIndex, UpdateStrategy,
};
use bur_geom::{Point, Rect};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, (f32, f32)),
    Update(u8, (f32, f32)),
    Delete(u8),
    Query((f32, f32), (f32, f32)),
}

fn arb_coord() -> impl Strategy<Value = (f32, f32)> {
    (0.0f32..1.0, 0.0f32..1.0)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), arb_coord()).prop_map(|(k, p)| Op::Insert(k, p)),
        4 => (any::<u8>(), arb_coord()).prop_map(|(k, p)| Op::Update(k, p)),
        1 => any::<u8>().prop_map(Op::Delete),
        2 => (arb_coord(), (0.0f32..0.5, 0.0f32..0.5)).prop_map(|(o, s)| Op::Query(o, s)),
    ]
}

fn strategies() -> Vec<IndexOptions> {
    vec![
        IndexOptions::top_down(),
        IndexOptions {
            strategy: UpdateStrategy::Localized(LbuParams { epsilon: 0.01 }),
            ..IndexOptions::default()
        },
        IndexOptions {
            strategy: UpdateStrategy::Generalized(GbuParams {
                epsilon: 0.01,
                distance_threshold: 0.05,
                level_threshold: Some(2),
                piggyback: true,
            }),
            ..IndexOptions::default()
        },
    ]
}

fn apply_ops(opts: IndexOptions, ops: &[Op]) -> Result<(), TestCaseError> {
    // Tiny pages so a few hundred ops build real multi-level trees.
    let opts = IndexOptions {
        page_size: 256,
        buffer_frames: 16,
        ..opts
    };
    let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
    let mut model: HashMap<u8, Point> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert(k, (x, y)) => {
                let p = Point::new(*x, *y);
                if model.contains_key(k) {
                    // Duplicate inserts must be rejected when detectable.
                    if opts.strategy.needs_hash_index() {
                        prop_assert!(index.insert(u64::from(*k), p).is_err());
                    }
                } else {
                    index.insert(u64::from(*k), p).unwrap();
                    model.insert(*k, p);
                }
            }
            Op::Update(k, (x, y)) => {
                if let Some(old) = model.get(k).copied() {
                    let new = Point::new(*x, *y);
                    index.update(u64::from(*k), old, new).unwrap();
                    model.insert(*k, new);
                }
            }
            Op::Delete(k) => {
                if let Some(old) = model.remove(k) {
                    prop_assert!(index.delete(u64::from(*k), old).unwrap());
                } else {
                    prop_assert!(!index.delete(u64::from(*k), Point::new(0.5, 0.5)).unwrap());
                }
            }
            Op::Query((x, y), (w, h)) => {
                let window = Rect::new(*x, *y, x + w, y + h);
                let mut got = index.query(&window).unwrap();
                got.sort_unstable();
                let mut expect: Vec<u64> = model
                    .iter()
                    .filter(|(_, p)| window.contains_point(p))
                    .map(|(&k, _)| u64::from(k))
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(got, expect, "query mismatch on {}", window);
            }
        }
        prop_assert_eq!(index.len() as usize, model.len());
    }
    index
        .validate()
        .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn td_matches_model(ops in proptest::collection::vec(arb_op(), 1..250)) {
        apply_ops(strategies()[0], &ops)?;
    }

    #[test]
    fn lbu_matches_model(ops in proptest::collection::vec(arb_op(), 1..250)) {
        apply_ops(strategies()[1], &ops)?;
    }

    #[test]
    fn gbu_matches_model(ops in proptest::collection::vec(arb_op(), 1..250)) {
        apply_ops(strategies()[2], &ops)?;
    }

    #[test]
    fn bulk_load_equivalent_to_inserts(
        points in proptest::collection::vec(arb_coord(), 1..400),
        windows in proptest::collection::vec((arb_coord(), (0.0f32..0.4, 0.0f32..0.4)), 1..10),
    ) {
        let opts = IndexOptions {
            page_size: 256,
            ..IndexOptions::generalized()
        };
        let items: Vec<(u64, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (i as u64, Point::new(x, y)))
            .collect();
        let bulk = RTreeIndex::bulk_load_in_memory(opts, &items).unwrap();
        bulk.validate().map_err(|e| TestCaseError::fail(format!("bulk: {e}")))?;
        let mut incr = IndexBuilder::with_options(opts).build_index().unwrap();
        for &(oid, p) in &items {
            incr.insert(oid, p).unwrap();
        }
        for ((x, y), (w, h)) in windows {
            let window = Rect::new(x, y, x + w, y + h);
            let mut a = bulk.query(&window).unwrap();
            let mut b = incr.query(&window).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn rstar_matches_model(ops in proptest::collection::vec(arb_op(), 1..250)) {
        // The R*-variant under the GBU strategy must satisfy the same
        // model equivalence as the Guttman build.
        apply_ops(strategies()[2].rstar(), &ops)?;
    }

    #[test]
    fn knn_matches_brute_force(
        points in proptest::collection::vec(arb_coord(), 1..300),
        query in arb_coord(),
        k in 1usize..40,
    ) {
        let opts = IndexOptions {
            page_size: 256,
            ..IndexOptions::generalized()
        };
        let mut index = IndexBuilder::with_options(opts).build_index().unwrap();
        for (i, &(x, y)) in points.iter().enumerate() {
            index.insert(i as u64, Point::new(x, y)).unwrap();
        }
        let q = Point::new(query.0, query.1);
        let got = index.nearest_neighbors(q, k).unwrap();
        prop_assert_eq!(got.len(), k.min(points.len()));
        let mut brute: Vec<f32> = points
            .iter()
            .map(|&(x, y)| Point::new(x, y).distance(&q))
            .collect();
        brute.sort_by(f32::total_cmp);
        for (n, want) in got.iter().zip(&brute) {
            prop_assert!((n.distance - want).abs() < 1e-5,
                "got {} want {want}", n.distance);
        }
        // Non-decreasing and internally consistent: the reported distance
        // matches the object's true distance.
        for w in got.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        for n in &got {
            let (x, y) = points[n.oid as usize];
            prop_assert!((Point::new(x, y).distance(&q) - n.distance).abs() < 1e-5);
        }
    }

    #[test]
    fn within_distance_matches_brute_force(
        points in proptest::collection::vec(arb_coord(), 1..300),
        center in arb_coord(),
        radius in 0.0f32..0.7,
    ) {
        let mut index = IndexBuilder::with_options(IndexOptions {
            page_size: 256,
            ..IndexOptions::top_down()
        })
        .build_index()
        .unwrap();
        for (i, &(x, y)) in points.iter().enumerate() {
            index.insert(i as u64, Point::new(x, y)).unwrap();
        }
        let c = Point::new(center.0, center.1);
        let got = index.within_distance(c, radius).unwrap();
        let expect: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|&(_, &(x, y))| Point::new(x, y).distance(&c) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        let mut got_ids: Vec<u64> = got.iter().map(|n| n.oid).collect();
        got_ids.sort_unstable();
        let mut expect = expect;
        expect.sort_unstable();
        // f32 boundary cases: allow the sets to differ only on objects
        // sitting within one ulp of the radius.
        for id in got_ids.iter().filter(|i| !expect.contains(i)) {
            let (x, y) = points[*id as usize];
            prop_assert!((Point::new(x, y).distance(&c) - radius).abs() < 1e-5);
        }
        for id in expect.iter().filter(|i| !got_ids.contains(i)) {
            let (x, y) = points[*id as usize];
            prop_assert!((Point::new(x, y).distance(&c) - radius).abs() < 1e-5);
        }
        // Sorted by distance.
        for w in got.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn leaf_node_codec_roundtrip(
        entries in proptest::collection::vec((any::<u64>(), arb_coord()), 0..42),
        parent in any::<u32>(),
    ) {
        let mut node = Node::new_leaf();
        node.parent = parent;
        for &(oid, (x, y)) in &entries {
            node.leaf_entries_mut().push(LeafEntry::point(oid, Point::new(x, y)));
        }
        prop_assume!(node.count() <= leaf_capacity(1024));
        let mut page = vec![0u8; 1024];
        node.encode(&mut page);
        let decoded = Node::decode(7, &page).unwrap();
        prop_assert_eq!(&decoded, &node);
    }

    #[test]
    fn internal_node_codec_roundtrip(
        entries in proptest::collection::vec((any::<u32>(), arb_coord(), arb_coord()), 0..50),
        level in 1u16..8,
    ) {
        let mut node = Node::new_internal(level);
        for &(child, (ax, ay), (bx, by)) in &entries {
            node.internal_entries_mut().push(InternalEntry {
                child,
                rect: Rect::from_corners(Point::new(ax, ay), Point::new(bx, by)),
            });
        }
        prop_assume!(node.count() <= internal_capacity(1024));
        let mut page = vec![0u8; 1024];
        node.encode(&mut page);
        let decoded = Node::decode(3, &page).unwrap();
        prop_assert_eq!(&decoded, &node);
    }

    #[test]
    fn decode_rejects_corrupted_pages(
        entries in proptest::collection::vec((any::<u64>(), arb_coord()), 1..20),
        flip_byte in 0usize..2,
    ) {
        // Corrupting the magic or the count beyond capacity must yield a
        // clean error, never a panic or a silently wrong node.
        let mut node = Node::new_leaf();
        for &(oid, (x, y)) in &entries {
            node.leaf_entries_mut().push(LeafEntry::point(oid, Point::new(x, y)));
        }
        let mut page = vec![0u8; 1024];
        node.encode(&mut page);
        match flip_byte {
            0 => page[0] = 0x77,             // bad magic
            _ => page[2..4].copy_from_slice(&u16::MAX.to_le_bytes()), // absurd count
        }
        prop_assert!(Node::decode(1, &page).is_err());
    }

    #[test]
    fn iextend_always_sound(
        leaf in (arb_coord(), arb_coord()),
        p in arb_coord(),
        eps in 0.0f32..0.5,
    ) {
        let (a, b) = leaf;
        let leaf = Rect::from_corners(Point::new(a.0, a.1), Point::new(b.0, b.1));
        let parent = leaf.expanded_uniform(0.25);
        let point = Point::new(p.0, p.1);
        let ext = bur_core::iextend_mbr(leaf, point, eps, parent);
        // Never shrinks, never escapes the parent, never grows a side by
        // more than eps.
        prop_assert!(ext.contains_rect(&leaf));
        prop_assert!(parent.contains_rect(&ext));
        prop_assert!(ext.min_x >= leaf.min_x - eps - 1e-6);
        prop_assert!(ext.max_x <= leaf.max_x + eps + 1e-6);
        prop_assert!(ext.min_y >= leaf.min_y - eps - 1e-6);
        prop_assert!(ext.max_y <= leaf.max_y + eps + 1e-6);
        // And if the point was reachable within eps (and the parent), it
        // is now contained.
        let reachable = leaf.expanded_uniform(eps).clipped_to(&parent);
        if reachable.contains_point(&point) {
            prop_assert!(ext.contains_point(&point), "reachable point missed: {point}");
        }
    }
}
