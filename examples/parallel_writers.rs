//! Parallel writers: N cloned `Bur` handles pushing update batches on
//! disjoint spatial regions at the same time.
//!
//! ```sh
//! cargo run --release --example parallel_writers
//! ```
//!
//! Since the latch-per-page rework, a batch of pure bottom-up updates
//! runs under the *shared* side of the handle's reader-writer lock: the
//! leaf claims (one atomic bit per touched leaf, taken under the shared
//! tree lock) carve up what each batch may write, and per-page latches
//! serialize the physical page accesses. Batches on disjoint leaves therefore
//! overlap physically — this example proves it with the handle's
//! in-flight high watermark, then shows the aggregate throughput.
//! The full protocol is documented in `docs/ARCHITECTURE.md`
//! ("Latching protocol").

use bur::prelude::*;
use std::time::Instant;

const WRITERS: usize = 4;
const PER_WRITER: u64 = 1_000;
const ROUNDS: usize = 50;

/// Home position of an object: writer `t` owns a vertical strip of the
/// unit square, so each writer's objects live on their own leaves.
fn home(oid: u64) -> Point {
    let t = oid / PER_WRITER;
    let i = oid % PER_WRITER;
    let width = 1.0 / WRITERS as f32;
    Point::new(
        t as f32 * width + width * (0.05 + 0.9 * (i % 50) as f32 / 50.0),
        0.02 + 0.96 * (i / 50) as f32 / (PER_WRITER / 50) as f32,
    )
}

fn main() -> CoreResult<()> {
    let bur = IndexBuilder::generalized().build()?;

    let mut load = Batch::with_capacity((WRITERS as u64 * PER_WRITER) as usize);
    for oid in 0..WRITERS as u64 * PER_WRITER {
        load.insert(oid, home(oid));
    }
    bur.apply(&load)?;
    println!(
        "indexed {} objects in {} disjoint strips (tree height {})",
        bur.len(),
        WRITERS,
        bur.height()
    );

    // Each writer thread gets its own clone of the handle and zigzags
    // its strip's objects with whole-strip batches. The moves are tiny,
    // so every op is leaf-local and the batches ride the concurrent
    // write path side by side.
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..WRITERS as u64 {
            let bur = bur.clone();
            s.spawn(move || {
                let oids: Vec<u64> = (t * PER_WRITER..(t + 1) * PER_WRITER).collect();
                for round in 0..ROUNDS {
                    let dx = 0.0004;
                    let (from, to) = if round % 2 == 0 { (0.0, dx) } else { (dx, 0.0) };
                    let mut batch = Batch::with_capacity(oids.len());
                    for &oid in &oids {
                        let p = home(oid);
                        batch.update(oid, Point::new(p.x + from, p.y), Point::new(p.x + to, p.y));
                    }
                    bur.apply(&batch).expect("apply");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();

    let total = WRITERS as u64 * PER_WRITER * ROUNDS as u64;
    println!(
        "{WRITERS} writers applied {total} updates in {:.3} s ({:.0} updates/s aggregate)",
        secs,
        total as f64 / secs
    );
    println!(
        "peak batches in flight at once: {} {}",
        bur.peak_concurrent_batches(),
        if bur.peak_concurrent_batches() >= 2 {
            "(writes physically overlapped)"
        } else {
            "(no overlap observed on this machine)"
        }
    );

    bur.validate()?;
    println!("deep validate: ok ({} objects intact)", bur.len());
    Ok(())
}
