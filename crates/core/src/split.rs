//! Node splits: Guttman's quadratic split (the paper's R-tree) and the
//! R*-tree topological split (the R*-variant extension).
//!
//! Splits operate on the entry MBRs only and return a partition of entry
//! *indices*, so one implementation serves leaf and internal nodes alike.

use crate::config::TreeVariant;
use bur_geom::Rect;

/// Partition `rects` into two groups, each with at least `min_fill`
/// members, the way `variant` splits a node. Returns the index sets of the
/// two groups.
#[must_use]
pub fn split(rects: &[Rect], min_fill: usize, variant: TreeVariant) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(rects.len() >= 2, "cannot split fewer than two entries");
    debug_assert!(
        2 * min_fill <= rects.len(),
        "min_fill {} too large for {} entries",
        min_fill,
        rects.len()
    );
    match variant {
        TreeVariant::Guttman => {
            let (seed_a, seed_b) = pick_seeds_quadratic(rects);
            distribute(rects, min_fill, seed_a, seed_b)
        }
        TreeVariant::RStar => split_rstar(rects, min_fill),
    }
}

/// R*-tree split (Beckmann et al., Section 4.2): choose the split *axis*
/// whose candidate distributions have the smallest margin sum, then the
/// *distribution* along that axis with the least overlap between the two
/// groups (ties by smaller total area).
///
/// A "distribution" takes the entries sorted along one axis (by lower or
/// by upper bound) and puts the first `min_fill + k` into group A for
/// `k = 0 .. n − 2·min_fill`.
fn split_rstar(rects: &[Rect], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    let min_fill = min_fill.max(1);

    // Four sort orders: (axis, by lower / by upper bound).
    let keys: [fn(&Rect) -> f32; 4] = [|r| r.min_x, |r| r.max_x, |r| r.min_y, |r| r.max_y];

    // Per axis: margin sum over all distributions of both its sorts.
    let mut axis_margin = [0.0f64; 2];
    let mut sorted: Vec<Vec<usize>> = Vec::with_capacity(4);
    for (s, key) in keys.iter().enumerate() {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| key(&rects[a]).total_cmp(&key(&rects[b])));
        for k in 0..=(n - 2 * min_fill) {
            let at = min_fill + k;
            let (ca, cb) = covers(rects, &order, at);
            axis_margin[s / 2] += f64::from(ca.margin()) + f64::from(cb.margin());
        }
        sorted.push(order);
    }
    let axis = usize::from(axis_margin[1] < axis_margin[0]); // 0 = x, 1 = y

    // Along the chosen axis: pick the distribution (over both sorts) with
    // minimum overlap, ties by minimum combined area.
    let mut best: Option<(f32, f32, &[usize], usize)> = None;
    for order in &sorted[axis * 2..axis * 2 + 2] {
        for k in 0..=(n - 2 * min_fill) {
            let at = min_fill + k;
            let (ca, cb) = covers(rects, order, at);
            let overlap = ca.intersection_area(&cb);
            let area = ca.area() + cb.area();
            let better = match best {
                None => true,
                Some((bo, ba, _, _)) => overlap < bo || (overlap == bo && area < ba),
            };
            if better {
                best = Some((overlap, area, order, at));
            }
        }
    }
    let (_, _, order, at) = best.expect("at least one distribution exists");
    (order[..at].to_vec(), order[at..].to_vec())
}

/// Bounding rectangles of `order[..at]` and `order[at..]`.
fn covers(rects: &[Rect], order: &[usize], at: usize) -> (Rect, Rect) {
    let mut ca = Rect::EMPTY;
    for &i in &order[..at] {
        ca = ca.union(&rects[i]);
    }
    let mut cb = Rect::EMPTY;
    for &i in &order[at..] {
        cb = cb.union(&rects[i]);
    }
    (ca, cb)
}

/// Guttman PickSeeds: the pair wasting the most area if grouped together.
fn pick_seeds_quadratic(rects: &[Rect]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_waste = f32::NEG_INFINITY;
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > best_waste {
                best_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Guttman's quadratic distribution of the remaining entries to the two
/// seeded groups.
fn distribute(
    rects: &[Rect],
    min_fill: usize,
    seed_a: usize,
    seed_b: usize,
) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut cover_a = rects[seed_a];
    let mut cover_b = rects[seed_b];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

    while !remaining.is_empty() {
        // Min-fill forcing: if one group needs every remaining entry to
        // reach min_fill, give it all of them.
        if group_a.len() + remaining.len() == min_fill {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min_fill {
            group_b.append(&mut remaining);
            break;
        }
        // PickNext: the entry with the strongest preference for one group.
        let mut pick_pos = 0;
        let mut best_pref = f32::NEG_INFINITY;
        for (pos, &i) in remaining.iter().enumerate() {
            let d_a = cover_a.enlargement(&rects[i]);
            let d_b = cover_b.enlargement(&rects[i]);
            let pref = (d_a - d_b).abs();
            if pref > best_pref {
                best_pref = pref;
                pick_pos = pos;
            }
        }
        let i = remaining.swap_remove(pick_pos);
        // Assign to the group needing less enlargement; break ties by
        // smaller area, then fewer entries (Guttman's tie chain).
        let d_a = cover_a.enlargement(&rects[i]);
        let d_b = cover_b.enlargement(&rects[i]);
        let to_a = match d_a.partial_cmp(&d_b).expect("finite enlargements") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match cover_a.area().partial_cmp(&cover_b.area()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            group_a.push(i);
            cover_a = cover_a.union(&rects[i]);
        } else {
            group_b.push(i);
            cover_b = cover_b.union(&rects[i]);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects_cluster() -> Vec<Rect> {
        // Two obvious clusters around (0.1,0.1) and (0.9,0.9).
        let mut v = Vec::new();
        for i in 0..5 {
            let d = i as f32 * 0.01;
            v.push(Rect::new(0.1 + d, 0.1, 0.12 + d, 0.12));
            v.push(Rect::new(0.9 - d, 0.9, 0.92 - d, 0.92));
        }
        v
    }

    fn check_partition(rects: &[Rect], min_fill: usize, variant: TreeVariant) {
        let (a, b) = split(rects, min_fill, variant);
        assert!(a.len() >= min_fill, "{variant:?}: group A below min fill");
        assert!(b.len() >= min_fill, "{variant:?}: group B below min fill");
        assert_eq!(a.len() + b.len(), rects.len());
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..rects.len()).collect();
        assert_eq!(
            all, expect,
            "{variant:?}: partition must cover all exactly once"
        );
    }

    #[test]
    fn quadratic_separates_clusters() {
        let rects = rects_cluster();
        let (a, b) = split(&rects, 2, TreeVariant::Guttman);
        check_partition(&rects, 2, TreeVariant::Guttman);
        // Even indices are cluster 1, odd are cluster 2; the split must
        // not mix them.
        let a_even = a.iter().filter(|&&i| i % 2 == 0).count();
        assert!(
            a_even == 0 || a_even == a.len(),
            "quadratic split mixed the clusters: {a:?} / {b:?}"
        );
    }

    const ALL_VARIANTS: [TreeVariant; 2] = [TreeVariant::Guttman, TreeVariant::RStar];

    #[test]
    fn min_fill_forcing() {
        // One far-away outlier: without forcing, the outlier group would
        // end up with a single entry even at min_fill 3.
        let mut rects = vec![Rect::new(100.0, 100.0, 101.0, 101.0)];
        for i in 0..7 {
            let d = i as f32 * 0.01;
            rects.push(Rect::new(d, d, d + 0.01, d + 0.01));
        }
        for variant in ALL_VARIANTS {
            check_partition(&rects, 3, variant);
        }
    }

    #[test]
    fn identical_rects_still_split() {
        let rects = vec![Rect::new(0.5, 0.5, 0.6, 0.6); 8];
        for variant in ALL_VARIANTS {
            check_partition(&rects, 3, variant);
        }
    }

    #[test]
    fn two_entries() {
        let rects = vec![Rect::new(0.0, 0.0, 0.1, 0.1), Rect::new(0.9, 0.9, 1.0, 1.0)];
        for variant in ALL_VARIANTS {
            let (a, b) = split(&rects, 1, variant);
            assert_eq!(a.len(), 1);
            assert_eq!(b.len(), 1);
        }
    }

    #[test]
    fn degenerate_points() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| Rect::from_point(bur_geom::Point::new(i as f32 * 0.1, 0.5)))
            .collect();
        for variant in ALL_VARIANTS {
            check_partition(&rects, 4, variant);
        }
    }

    #[test]
    fn rstar_separates_clusters() {
        let rects = rects_cluster();
        check_partition(&rects, 2, TreeVariant::RStar);
        let (a, b) = split(&rects, 2, TreeVariant::RStar);
        let a_even = a.iter().filter(|&&i| i % 2 == 0).count();
        assert!(
            a_even == 0 || a_even == a.len(),
            "R* split mixed the clusters: {a:?} / {b:?}"
        );
        let cover = |g: &[usize]| g.iter().fold(Rect::EMPTY, |acc, &i| acc.union(&rects[i]));
        assert_eq!(cover(&a).intersection_area(&cover(&b)), 0.0);
    }

    #[test]
    fn rstar_prefers_disjoint_distribution() {
        // A column of stacked rectangles: splitting along y gives zero
        // overlap, splitting along x cannot.
        let rects: Vec<Rect> = (0..8)
            .map(|i| {
                let y = i as f32 * 0.1;
                Rect::new(0.0, y, 1.0, y + 0.05)
            })
            .collect();
        let (a, b) = split(&rects, 2, TreeVariant::RStar);
        let cover = |g: &[usize]| g.iter().fold(Rect::EMPTY, |acc, &i| acc.union(&rects[i]));
        assert_eq!(
            cover(&a).intersection_area(&cover(&b)),
            0.0,
            "stacked rows must split with zero overlap: {a:?} / {b:?}"
        );
    }

    #[test]
    fn rstar_groups_are_axis_contiguous() {
        // The chosen distribution is a prefix/suffix of a sorted order, so
        // groups never interleave along the split axis.
        let rects: Vec<Rect> = (0..9)
            .map(|i| {
                let x = (i * 37 % 9) as f32 * 0.1; // scrambled input order
                Rect::new(x, 0.0, x + 0.05, 1.0)
            })
            .collect();
        let (a, b) = split(&rects, 3, TreeVariant::RStar);
        let max_a = a
            .iter()
            .map(|&i| rects[i].min_x)
            .fold(f32::NEG_INFINITY, f32::max);
        let min_b = b
            .iter()
            .map(|&i| rects[i].min_x)
            .fold(f32::INFINITY, f32::min);
        let max_b = b
            .iter()
            .map(|&i| rects[i].min_x)
            .fold(f32::NEG_INFINITY, f32::max);
        let min_a = a
            .iter()
            .map(|&i| rects[i].min_x)
            .fold(f32::INFINITY, f32::min);
        assert!(
            max_a <= min_b || max_b <= min_a,
            "groups interleave: {a:?} / {b:?}"
        );
    }
}
