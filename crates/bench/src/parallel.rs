//! Shared harness for the `parallel-writers` criterion group: `N`
//! writer threads, each owning a private spatial strip of the unit
//! square, pushing update batches through one clonable [`Bur`] handle.
//! Because every thread's objects live on leaves no other thread
//! touches, the batches claim disjoint leaves and ride the
//! handle's concurrent (shared-phase) write path end to end.

use bur_core::{Batch, Bur, IndexOptions, RTreeIndex};
use bur_geom::Point;

/// One writer's private object set and its zigzag phase. Batches move
/// every owned object by a tiny alternating x-offset, so each update is
/// leaf-local (almost always in place) and the object returns to its
/// home position every second batch.
pub struct Lane {
    oids: Vec<u64>,
    home: Vec<Point>,
    dx: f32,
    round: usize,
}

impl Lane {
    /// The next whole-lane update batch (one op per owned object).
    pub fn next_batch(&mut self) -> Batch {
        let (from, to) = if self.round % 2 == 0 {
            (0.0, self.dx)
        } else {
            (self.dx, 0.0)
        };
        self.round += 1;
        let mut batch = Batch::new();
        for (&oid, &p) in self.oids.iter().zip(&self.home) {
            batch.update(oid, Point::new(p.x + from, p.y), Point::new(p.x + to, p.y));
        }
        batch
    }
}

/// Build an index whose objects are dealt into `threads` disjoint
/// spatial strips of `per_thread` objects each, plus one [`Lane`] per
/// strip. Strategy and durability come from `opts`; the disk is the
/// builder's in-memory default.
pub fn build_strips(opts: IndexOptions, threads: usize, per_thread: usize) -> (Bur, Vec<Lane>) {
    let width = 1.0 / threads as f32;
    let cols = 64usize;
    let rows = per_thread.div_ceil(cols);
    let mut items: Vec<(u64, Point)> = Vec::with_capacity(threads * per_thread);
    let mut lanes: Vec<Lane> = Vec::with_capacity(threads);
    for t in 0..threads {
        let x0 = t as f32 * width;
        let mut oids = Vec::with_capacity(per_thread);
        let mut home = Vec::with_capacity(per_thread);
        for i in 0..per_thread {
            let oid = (t * per_thread + i) as u64;
            let p = Point::new(
                x0 + width * (0.05 + 0.88 * (i % cols) as f32 / cols as f32),
                0.02 + 0.96 * (i / cols) as f32 / rows as f32,
            );
            oids.push(oid);
            home.push(p);
            items.push((oid, p));
        }
        lanes.push(Lane {
            oids,
            home,
            // A hair of a leaf MBR: the move stays in place.
            dx: width * 0.002,
            round: 0,
        });
    }
    let index = RTreeIndex::bulk_load_in_memory(opts, &items).expect("bulk load");
    (Bur::from_index(index), lanes)
}

/// Drive every lane for `batches` whole-lane batches on its own thread
/// and return the elapsed wall-clock seconds.
pub fn run_lanes(bur: &Bur, lanes: &mut [Lane], batches: usize) -> f64 {
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for lane in lanes.iter_mut() {
            s.spawn(move || {
                for _ in 0..batches {
                    bur.apply(&lane.next_batch()).expect("apply");
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}
