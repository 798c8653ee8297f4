//! Nearest-neighbor queries over the R-tree (library extension).
//!
//! The paper evaluates window queries only; k-nearest-neighbor search is
//! provided because a spatial index without it is rarely adoptable, and
//! because it exercises the same node layout and buffer-pool accounting
//! as the paper's experiments. The algorithm is the classic **best-first
//! search** (Hjaltason & Samet): a priority queue ordered by `MINDIST`
//! (squared distance from the query point to a bounding rectangle)
//! interleaves index nodes and data entries, so nodes are expanded in
//! non-decreasing distance order and search stops as soon as the k-th
//! result is closer than every unexpanded subtree.
//!
//! Two traversal variants mirror the window-query pair:
//!
//! * a plain descent starting from the root page, and
//! * a **summary-assisted** variant that seeds the queue with the level-1
//!   entries of GBU's in-memory direct access table, skipping disk reads
//!   of all internal nodes above level 1 — the same pruning Section 3.2
//!   applies to window queries.

use crate::error::CoreResult;
use crate::node::{NodeView, ObjectId};
use crate::tree::RTree;
use bur_geom::Point;
use bur_storage::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One result of a nearest-neighbor query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Object id of the neighbor.
    pub oid: ObjectId,
    /// Euclidean distance from the query point to the object's rect
    /// (0 when the query point lies inside the rect).
    pub distance: f32,
}

/// Queue element: either an unexpanded subtree or a data entry, keyed by
/// its `MINDIST` (squared) so the two sort together.
#[derive(Debug)]
enum Item {
    Node(PageId),
    Object(ObjectId),
}

/// Min-heap adapter: `BinaryHeap` is a max-heap, so order is reversed;
/// `total_cmp` gives the total order `f32` itself lacks (distances are
/// never NaN — inputs are validated — but the invariant lives here).
struct Candidate {
    dist_sq: f32,
    item: Item,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq.total_cmp(&other.dist_sq) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist_sq.total_cmp(&self.dist_sq) // reversed: min-heap
    }
}

/// Best-first k-nearest-neighbor search from the root.
pub(crate) fn nearest(tree: &RTree, query: Point, k: usize) -> CoreResult<Vec<Neighbor>> {
    let mut heap = BinaryHeap::new();
    heap.push(Candidate {
        dist_sq: 0.0,
        item: Item::Node(tree.root),
    });
    drain(tree, query, k, heap)
}

/// Best-first search seeded from the summary structure's level-1 entries,
/// pruning all internal levels above 1 in memory. Falls back to the plain
/// descent when the summary holds no internal levels (single-leaf tree).
pub(crate) fn nearest_with_summary(
    tree: &RTree,
    query: Point,
    k: usize,
) -> CoreResult<Vec<Neighbor>> {
    let Some(s) = &tree.summary else {
        return nearest(tree, query, k);
    };
    if s.top_level() == 0 {
        return nearest(tree, query, k);
    }
    let mut heap = BinaryHeap::new();
    for e in s.level_entries(1) {
        heap.push(Candidate {
            dist_sq: e.mbr.distance_sq_to_point(&query),
            item: Item::Node(e.pid),
        });
    }
    drain(tree, query, k, heap)
}

/// Pop candidates in MINDIST order until `k` objects have surfaced.
fn drain(
    tree: &RTree,
    query: Point,
    k: usize,
    mut heap: BinaryHeap<Candidate>,
) -> CoreResult<Vec<Neighbor>> {
    let mut out = Vec::with_capacity(k.min(64));
    if k == 0 {
        return Ok(out);
    }
    while let Some(c) = heap.pop() {
        match c.item {
            Item::Object(oid) => {
                // An object at the top of the heap is closer than every
                // unexpanded subtree: it is the next nearest neighbor.
                out.push(Neighbor {
                    oid,
                    distance: c.dist_sq.sqrt(),
                });
                if out.len() == k {
                    break;
                }
            }
            Item::Node(pid) => tree.with_page(pid, |data| {
                match NodeView::new(pid, data)? {
                    NodeView::Leaf(leaf) => heap.extend(leaf.iter().map(|e| Candidate {
                        dist_sq: e.rect.distance_sq_to_point(&query),
                        item: Item::Object(e.oid),
                    })),
                    NodeView::Internal(node) => heap.extend(node.iter().map(|e| Candidate {
                        dist_sq: e.rect.distance_sq_to_point(&query),
                        item: Item::Node(e.child),
                    })),
                }
                Ok(())
            })?,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexOptions;
    use crate::index::RTreeIndex;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn brute_force(objects: &[(ObjectId, Point)], query: Point, k: usize) -> Vec<f32> {
        let mut d: Vec<f32> = objects.iter().map(|(_, p)| p.distance(&query)).collect();
        d.sort_by(f32::total_cmp);
        d.truncate(k);
        d
    }

    fn populated(opts: IndexOptions, n: usize, seed: u64) -> (RTreeIndex, Vec<(ObjectId, Point)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut index = crate::IndexBuilder::with_options(opts)
            .build_index()
            .unwrap();
        let mut objects = Vec::with_capacity(n);
        for oid in 0..n as u64 {
            let p = Point::new(rng.random::<f32>(), rng.random::<f32>());
            index.insert(oid, p).unwrap();
            objects.push((oid, p));
        }
        (index, objects)
    }

    #[test]
    fn matches_brute_force_on_all_strategies() {
        for opts in [
            IndexOptions::top_down(),
            IndexOptions::localized(),
            IndexOptions::generalized(),
        ] {
            let (index, objects) = populated(opts, 500, 7);
            let query = Point::new(0.31, 0.64);
            for k in [1, 5, 17, 100] {
                let got = index.nearest_neighbors(query, k).unwrap();
                assert_eq!(got.len(), k.min(objects.len()));
                let want = brute_force(&objects, query, k);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.distance - w).abs() < 1e-5,
                        "strategy {}: got {} want {w}",
                        index.options().strategy.name(),
                        g.distance
                    );
                }
                // Distances are non-decreasing.
                for pair in got.windows(2) {
                    assert!(pair[0].distance <= pair[1].distance);
                }
            }
        }
    }

    #[test]
    fn summary_and_plain_agree() {
        let (index, _) = populated(IndexOptions::generalized(), 800, 11);
        let query = Point::new(0.9, 0.1);
        let plain = nearest(&index.tree, query, 25).unwrap();
        let assisted = nearest_with_summary(&index.tree, query, 25).unwrap();
        assert_eq!(plain.len(), assisted.len());
        for (a, b) in plain.iter().zip(&assisted) {
            assert!((a.distance - b.distance).abs() < 1e-6);
        }
    }

    #[test]
    fn summary_assisted_reads_fewer_pages() {
        // A tree tall enough to have internal levels above 1.
        let (index, _) = populated(IndexOptions::generalized(), 4000, 13);
        assert!(index.height() >= 3, "height {}", index.height());
        let query = Point::new(0.5, 0.5);
        let before = index.pool().stats().snapshot();
        nearest(&index.tree, query, 1).unwrap();
        let plain_reads = index.pool().stats().snapshot().since(&before).fetches;
        let before = index.pool().stats().snapshot();
        nearest_with_summary(&index.tree, query, 1).unwrap();
        let assisted_reads = index.pool().stats().snapshot().since(&before).fetches;
        assert!(
            assisted_reads < plain_reads,
            "assisted {assisted_reads} !< plain {plain_reads}"
        );
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let index = crate::IndexBuilder::generalized().build_index().unwrap();
        assert!(index
            .nearest_neighbors(Point::new(0.5, 0.5), 5)
            .unwrap()
            .is_empty());
        let (index, _) = populated(IndexOptions::generalized(), 10, 3);
        assert!(index
            .nearest_neighbors(Point::new(0.5, 0.5), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn k_larger_than_population_returns_everything() {
        let (index, objects) = populated(IndexOptions::top_down(), 37, 5);
        let got = index.nearest_neighbors(Point::new(0.2, 0.2), 1000).unwrap();
        assert_eq!(got.len(), objects.len());
        let mut oids: Vec<ObjectId> = got.iter().map(|n| n.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        assert_eq!(oids.len(), objects.len(), "every object exactly once");
    }

    #[test]
    fn query_point_far_outside_data_space() {
        let (index, objects) = populated(IndexOptions::generalized(), 200, 17);
        let query = Point::new(25.0, -40.0);
        let got = index.nearest_neighbors(query, 3).unwrap();
        let want = brute_force(&objects, query, 3);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.distance - w).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_non_finite_query() {
        let (index, _) = populated(IndexOptions::generalized(), 10, 19);
        assert!(index
            .nearest_neighbors(Point::new(f32::NAN, 0.5), 1)
            .is_err());
        assert!(index
            .nearest_neighbors(Point::new(0.5, f32::INFINITY), 1)
            .is_err());
    }

    #[test]
    fn nearest_one_is_the_closest_point() {
        let mut rng = StdRng::seed_from_u64(23);
        let (index, objects) = populated(IndexOptions::generalized(), 300, 23);
        for _ in 0..20 {
            let query = Point::new(rng.random::<f32>(), rng.random::<f32>());
            let got = index.nearest_neighbor(query).unwrap().unwrap();
            let want = objects
                .iter()
                .map(|(oid, p)| (*oid, p.distance(&query)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert!((got.distance - want.1).abs() < 1e-6);
        }
    }

    #[test]
    fn knn_correct_after_updates() {
        let mut rng = StdRng::seed_from_u64(29);
        let (mut index, mut objects) = populated(IndexOptions::generalized(), 400, 29);
        // Move everything a few times through the GBU update path.
        for _ in 0..3 {
            for (oid, p) in &mut objects {
                let np = Point::new(
                    p.x + rng.random_range(-0.02..0.02f32),
                    p.y + rng.random_range(-0.02..0.02f32),
                );
                index.update(*oid, *p, np).unwrap();
                *p = np;
            }
        }
        let query = Point::new(0.42, 0.58);
        let got = index.nearest_neighbors(query, 10).unwrap();
        let want = brute_force(&objects, query, 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.distance - w).abs() < 1e-5);
        }
    }
}
