//! The brute-force reference the benchmark checks the system against:
//! window and k-nearest-neighbour answers computed straight from the
//! positions the generator knows every object to be at.

use bur_geom::{Point, Rect};

/// Ids of every object inside `window`, ascending (object id = index).
pub fn window_ids(positions: &[Point], window: &Rect) -> Vec<u64> {
    positions
        .iter()
        .enumerate()
        .filter(|(_, p)| window.contains_point(p))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Does the system's window answer (any order) equal the oracle's?
pub fn window_matches(positions: &[Point], window: &Rect, got: &mut [u64]) -> bool {
    got.sort_unstable();
    got == window_ids(positions, window).as_slice()
}

/// Distances of the `k` objects nearest to `query`, ascending.
pub fn knn_distances(positions: &[Point], query: Point, k: usize) -> Vec<f32> {
    let mut d: Vec<f32> = positions.iter().map(|p| p.distance(&query)).collect();
    let k = k.min(d.len());
    if k > 0 && k < d.len() {
        d.select_nth_unstable_by(k - 1, f32::total_cmp);
    }
    d.truncate(k);
    d.sort_by(f32::total_cmp);
    d
}

/// A kNN answer is right when every neighbour really is at the distance
/// it reports, and the reported distances are the `k` smallest there are
/// (ids may differ among equidistant objects, so ids are not compared).
pub fn knn_matches(positions: &[Point], query: Point, k: usize, got: &[(u64, f32)]) -> bool {
    const TOLERANCE: f32 = 1e-5;
    let expected = knn_distances(positions, query, k);
    got.len() == expected.len()
        && got.iter().zip(&expected).all(|(&(oid, dist), &want)| {
            positions.get(oid as usize).is_some_and(|p| {
                (p.distance(&query) - dist).abs() <= TOLERANCE && (dist - want).abs() <= TOLERANCE
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Point> {
        (0..100)
            .map(|i| Point::new((i % 10) as f32 / 10.0, (i / 10) as f32 / 10.0))
            .collect()
    }

    #[test]
    fn window_oracle_includes_the_boundary_and_ignores_order() {
        let positions = grid();
        let window = Rect::new(0.0, 0.0, 0.1, 0.1);
        assert_eq!(window_ids(&positions, &window), vec![0, 1, 10, 11]);
        assert!(window_matches(&positions, &window, &mut [11, 0, 10, 1]));
        assert!(!window_matches(&positions, &window, &mut [0, 1, 10]));
        assert!(!window_matches(&positions, &window, &mut [0, 1, 10, 12]));
    }

    #[test]
    fn knn_oracle_accepts_ties_and_rejects_wrong_answers() {
        let positions = grid();
        let q = Point::new(0.0, 0.0);
        assert_eq!(knn_distances(&positions, q, 3), vec![0.0, 0.1, 0.1]);
        // Objects 1 and 10 are equidistant: either order is right.
        assert!(knn_matches(
            &positions,
            q,
            3,
            &[(0, 0.0), (10, 0.1), (1, 0.1)]
        ));
        // A farther object in place of a nearer one is wrong ...
        assert!(!knn_matches(
            &positions,
            q,
            3,
            &[(0, 0.0), (1, 0.1), (2, 0.2)]
        ));
        // ... and so are a misreported distance and a short answer.
        assert!(!knn_matches(
            &positions,
            q,
            3,
            &[(0, 0.0), (1, 0.1), (11, 0.1)]
        ));
        assert!(!knn_matches(&positions, q, 3, &[(0, 0.0), (1, 0.1)]));
        assert!(knn_matches(&positions[..2], q, 5, &[(0, 0.0), (1, 0.1)]));
    }
}
