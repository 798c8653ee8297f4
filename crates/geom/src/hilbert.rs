//! Hilbert space-filling curve.
//!
//! Maps 2-D cells onto a 1-D index such that consecutive indices are
//! always adjacent cells — the locality property behind Hilbert-packed
//! R-trees (Kamel & Faloutsos), one of the R-tree variants the paper's
//! related work surveys. Used by the key router in `bur-shard`.

use crate::{Point, Rect};

/// Cells per axis for a curve of the given order (`2^order`).
#[inline]
#[must_use]
pub fn hilbert_side(order: u32) -> u64 {
    1u64 << order
}

/// Hilbert index of the integer cell `(x, y)` on a curve of the given
/// order. `x` and `y` must be below [`hilbert_side`]`(order)`; the index
/// ranges over `0 .. 4^order`.
#[must_use]
pub fn hilbert_index(mut x: u64, mut y: u64, order: u32) -> u64 {
    let side = hilbert_side(order);
    debug_assert!(
        x < side && y < side,
        "cell ({x}, {y}) outside order-{order} grid"
    );
    let mut d: u64 = 0;
    let mut s = side / 2;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate/flip the quadrant so the sub-curve is oriented
        // canonically (the classic xy2d rotation).
        if ry == 0 {
            if rx == 1 {
                x = side - 1 - x;
                y = side - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Hilbert key of a point in (roughly) the unit square: coordinates are
/// clamped to `[0, 1]` and quantized onto a `2^order × 2^order` grid.
/// Sorting points by this key places spatial neighbors near each other
/// in the sort order.
#[must_use]
pub fn hilbert_key(p: Point, order: u32) -> u64 {
    let side = hilbert_side(order);
    let quantize = |v: f32| -> u64 {
        let clamped = v.clamp(0.0, 1.0) as f64;
        ((clamped * side as f64) as u64).min(side - 1)
    };
    hilbert_index(quantize(p.x), quantize(p.y), order)
}

/// A half-open range `[start, end)` of Hilbert indices on some curve.
///
/// Produced by [`hilbert_ranges`]; consumed by the shard router to decide
/// which key ranges (and therefore which shards) a window query can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HilbertRange {
    /// First index covered by the range.
    pub start: u64,
    /// One past the last index covered by the range.
    pub end: u64,
}

impl HilbertRange {
    /// Whether `key` falls inside the range.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.start <= key && key < self.end
    }

    /// Whether this range and the half-open key range `[lo, hi)` overlap.
    #[inline]
    #[must_use]
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.start < hi && lo < self.end
    }
}

/// Refinement floor for [`hilbert_ranges`]: the decomposition never
/// descends more than this many levels below the root square, so the
/// number of ranges produced before budget-merging stays bounded
/// (`O(2^depth)` boundary squares) even on high-order curves. Coarser
/// squares only ever *add* covered indices, so the superset guarantee
/// holds regardless.
const DECOMP_MAX_DEPTH: u32 = 10;

/// Decompose a query rectangle into a small set of disjoint, sorted
/// Hilbert-index ranges that together cover **every** grid cell the
/// rectangle touches on the order-`order` curve.
///
/// Guarantees:
///
/// * **Superset coverage.** For any point `p` with `rect.contains_point(&p)`,
///   [`hilbert_key`]`(p, order)` lies inside one of the returned ranges.
///   The converse need not hold: budget-merging and the refinement floor
///   can pull in extra indices, which is fine for routing (shards filter
///   by running the real window query against their trees).
/// * **Exactness on small grids.** With an unlimited budget and
///   `order <= 10`, the result is the *minimal* set of maximal runs of
///   curve indices whose cells intersect the rectangle.
/// * **Budget.** At most `max(budget, 1)` ranges are returned; excess
///   ranges are merged pairwise across the smallest index gaps first,
///   trading precision (false-positive indices) for fan-out.
///
/// An invalid or empty-by-inversion rectangle yields no ranges.
#[must_use]
pub fn hilbert_ranges(rect: &Rect, order: u32, budget: usize) -> Vec<HilbertRange> {
    if !rect.is_valid() {
        return Vec::new();
    }
    let side = hilbert_side(order);
    let quantize = |v: f32| -> u64 {
        let clamped = v.clamp(0.0, 1.0) as f64;
        ((clamped * side as f64) as u64).min(side - 1)
    };
    // Cell interval touched by the rect, inclusive on both ends, using the
    // same quantization as `hilbert_key` so point keys land inside it.
    let (x0, x1) = (quantize(rect.min_x), quantize(rect.max_x));
    let (y0, y1) = (quantize(rect.min_y), quantize(rect.max_y));
    let min_size = side >> DECOMP_MAX_DEPTH.min(order);

    let mut ranges = Vec::new();
    descend(0, 0, side, (x0, x1, y0, y1), order, min_size, &mut ranges);
    ranges.sort_unstable_by_key(|r| r.start);

    // Coalesce ranges that abut on the curve into maximal runs.
    let mut merged: Vec<HilbertRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match merged.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => merged.push(r),
        }
    }

    // Enforce the budget by repeatedly bridging the smallest gap between
    // adjacent runs. Each bridge admits `gap` false-positive indices, so
    // taking the smallest gaps first minimizes the slop introduced.
    let budget = budget.max(1);
    while merged.len() > budget {
        let mut best = 1;
        let mut best_gap = u64::MAX;
        for i in 1..merged.len() {
            let gap = merged[i].start - merged[i - 1].end;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        merged[best - 1].end = merged[best].end;
        merged.remove(best);
    }
    merged
}

/// Recursive quadrant descent for [`hilbert_ranges`]. Every axis-aligned
/// `size × size` square at offsets that are multiples of `size` occupies
/// one contiguous run of `size²` curve indices; the run's base is the
/// Hilbert index of any of its cells rounded down to a multiple of
/// `size²`. Emit that run when the square is fully covered (or when the
/// refinement floor is hit), otherwise split into four sub-squares.
fn descend(
    sq_x: u64,
    sq_y: u64,
    size: u64,
    cells: (u64, u64, u64, u64),
    order: u32,
    min_size: u64,
    out: &mut Vec<HilbertRange>,
) {
    let (x0, x1, y0, y1) = cells;
    // Disjoint from the query's cell interval?
    if sq_x > x1 || sq_x + size - 1 < x0 || sq_y > y1 || sq_y + size - 1 < y0 {
        return;
    }
    let covered = x0 <= sq_x && sq_x + size - 1 <= x1 && y0 <= sq_y && sq_y + size - 1 <= y1;
    if covered || size <= min_size.max(1) {
        let span = size * size;
        let base = hilbert_index(sq_x, sq_y, order) / span * span;
        out.push(HilbertRange {
            start: base,
            end: base + span,
        });
        return;
    }
    let half = size / 2;
    descend(sq_x, sq_y, half, cells, order, min_size, out);
    descend(sq_x + half, sq_y, half, cells, order, min_size, out);
    descend(sq_x, sq_y + half, half, cells, order, min_size, out);
    descend(sq_x + half, sq_y + half, half, cells, order, min_size, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn order_one_square() {
        // The order-1 curve visits the four cells in a ⊐ shape:
        // (0,0) → (0,1) → (1,1) → (1,0).
        assert_eq!(hilbert_index(0, 0, 1), 0);
        assert_eq!(hilbert_index(0, 1, 1), 1);
        assert_eq!(hilbert_index(1, 1, 1), 2);
        assert_eq!(hilbert_index(1, 0, 1), 3);
    }

    #[test]
    fn bijective_on_small_grids() {
        for order in 1..=5 {
            let side = hilbert_side(order);
            let mut seen = HashSet::new();
            for x in 0..side {
                for y in 0..side {
                    let d = hilbert_index(x, y, order);
                    assert!(d < side * side, "index {d} out of range");
                    assert!(seen.insert(d), "duplicate index {d} at ({x}, {y})");
                }
            }
            assert_eq!(seen.len() as u64, side * side);
        }
    }

    #[test]
    fn consecutive_indices_are_adjacent_cells() {
        // The defining locality property: walking the curve moves one
        // cell at a time (Manhattan distance 1).
        let order = 4;
        let side = hilbert_side(order);
        let mut by_index = vec![(0u64, 0u64); (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                by_index[hilbert_index(x, y, order) as usize] = (x, y);
            }
        }
        for w in by_index.windows(2) {
            let (ax, ay) = w[0];
            let (bx, by) = w[1];
            let dist = ax.abs_diff(bx) + ay.abs_diff(by);
            assert_eq!(dist, 1, "curve jumped from {:?} to {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn keys_cluster_neighbors() {
        // Two nearby points get closer keys than two far-apart points,
        // on average; spot-check an unambiguous case.
        let a = hilbert_key(Point::new(0.10, 0.10), 16);
        let b = hilbert_key(Point::new(0.10, 0.11), 16);
        let c = hilbert_key(Point::new(0.90, 0.90), 16);
        assert!(a.abs_diff(b) < a.abs_diff(c));
    }

    /// Brute-force reference: the sorted maximal runs of curve indices
    /// whose cells fall inside the rect's quantized cell interval.
    fn brute_force_runs(rect: &Rect, order: u32) -> Vec<HilbertRange> {
        let side = hilbert_side(order);
        let quantize = |v: f32| -> u64 {
            let clamped = v.clamp(0.0, 1.0) as f64;
            ((clamped * side as f64) as u64).min(side - 1)
        };
        let (x0, x1) = (quantize(rect.min_x), quantize(rect.max_x));
        let (y0, y1) = (quantize(rect.min_y), quantize(rect.max_y));
        let mut indices: Vec<u64> = (x0..=x1)
            .flat_map(|x| (y0..=y1).map(move |y| (x, y)))
            .map(|(x, y)| hilbert_index(x, y, order))
            .collect();
        indices.sort_unstable();
        let mut runs: Vec<HilbertRange> = Vec::new();
        for d in indices {
            match runs.last_mut() {
                Some(last) if last.end == d => last.end = d + 1,
                _ => runs.push(HilbertRange {
                    start: d,
                    end: d + 1,
                }),
            }
        }
        runs
    }

    #[test]
    fn decomposition_matches_brute_force_on_small_grids() {
        // Unlimited budget on a small grid must reproduce the *minimal*
        // run set exactly — same runs, same count, nothing merged over.
        let rects = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.1, 0.2, 0.6, 0.9),
            Rect::new(0.45, 0.45, 0.55, 0.55),
            Rect::new(0.0, 0.7, 0.2, 0.75),
            Rect::new(0.8, 0.0, 1.0, 0.3),
            Rect::from_point(Point::new(0.33, 0.77)),
        ];
        for order in 1..=5 {
            for rect in &rects {
                let got = hilbert_ranges(rect, order, usize::MAX);
                let want = brute_force_runs(rect, order);
                assert_eq!(got, want, "order {order}, rect {rect:?}");
            }
        }
    }

    #[test]
    fn decomposition_is_sorted_and_disjoint() {
        let rect = Rect::new(0.12, 0.34, 0.81, 0.66);
        for order in 1..=8 {
            for budget in [1usize, 2, 4, 16, usize::MAX] {
                let ranges = hilbert_ranges(&rect, order, budget);
                assert!(ranges.len() <= budget.max(1));
                for w in ranges.windows(2) {
                    assert!(
                        w[0].end < w[1].start,
                        "ranges not disjoint/maximal at order {order}: {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_merging_keeps_superset_coverage() {
        // Capping the budget may admit false positives but must never
        // drop a cell the rect touches.
        let rect = Rect::new(0.05, 0.1, 0.9, 0.4);
        for order in 2..=6 {
            let exact = brute_force_runs(&rect, order);
            for budget in [1usize, 2, 3, 8] {
                let capped = hilbert_ranges(&rect, order, budget);
                assert!(capped.len() <= budget);
                for run in &exact {
                    for d in run.start..run.end {
                        assert!(
                            capped.iter().any(|r| r.contains(d)),
                            "budget {budget} dropped index {d} at order {order}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn point_keys_land_inside_decomposed_ranges() {
        // The routing contract: any point inside the rect hashes to a key
        // covered by the decomposition, including on high-order curves
        // where the refinement floor kicks in.
        let rect = Rect::new(0.21, 0.43, 0.65, 0.87);
        let mut x = 0.22f32;
        let mut y = 0.44f32;
        for order in [4u32, 10, 16] {
            let ranges = hilbert_ranges(&rect, order, 12);
            for _ in 0..200 {
                // Cheap deterministic walk that stays inside the rect.
                x = rect.min_x + (x * 7.31 + y * 3.7).fract() * (rect.max_x - rect.min_x);
                y = rect.min_y + (y * 5.17 + x * 2.9).fract() * (rect.max_y - rect.min_y);
                let key = hilbert_key(Point::new(x, y), order);
                assert!(
                    ranges.iter().any(|r| r.contains(key)),
                    "key {key} escaped decomposition at order {order}"
                );
            }
        }
    }

    #[test]
    fn invalid_rect_decomposes_to_nothing() {
        assert!(hilbert_ranges(&Rect::EMPTY, 4, 8).is_empty());
        assert!(hilbert_ranges(&Rect::new(0.5, 0.5, 0.1, 0.9), 4, 8).is_empty());
    }

    #[test]
    fn out_of_square_points_clamp() {
        let lo = hilbert_key(Point::new(-5.0, -5.0), 8);
        let hi = hilbert_key(Point::new(5.0, 5.0), 8);
        let side = hilbert_side(8);
        assert!(lo < side * side);
        assert!(hi < side * side);
        assert_eq!(lo, hilbert_key(Point::new(0.0, 0.0), 8));
        assert_eq!(hi, hilbert_key(Point::new(1.0, 1.0), 8));
    }
}
