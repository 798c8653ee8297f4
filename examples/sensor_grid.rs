//! Sensor grid monitoring: frequent in-place-ish updates, concurrent
//! readers, durable storage.
//!
//! A grid of environmental sensors streams state samples whose 2-D
//! "position" is a pair of measured variables (say temperature ×
//! humidity, normalized). Values drift slowly — the locality-preserving
//! update pattern the paper targets. The index lives on a *file-backed*
//! disk, is shared by writer and reader threads through one cloned `Bur`
//! handle (writers claim the leaves they touch, readers take only page
//! latches), and is persisted and reopened at the end.
//!
//! ```sh
//! cargo run --release --example sensor_grid
//! ```

use bur::prelude::*;
use std::sync::Arc;

const SENSORS: u64 = 5_000;
const ROUNDS: usize = 10;

fn main() -> CoreResult<()> {
    let dir = std::env::temp_dir().join(format!("bur-sensor-grid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(bur::storage::StorageError::Io)?;
    let path = dir.join("sensors.bur");

    let opts = IndexOptions::generalized();

    // ---- create a durable index ----
    let disk = Arc::new(FileDisk::create(&path, opts.page_size)?);
    let mut index = IndexBuilder::with_options(opts).disk(disk).build_index()?;
    for oid in 0..SENSORS {
        // Initial readings spread over the state space.
        let x = ((oid * 7919) % 1000) as f32 / 1000.0;
        let y = ((oid * 104729) % 1000) as f32 / 1000.0;
        index.insert(oid, Point::new(x, y))?;
    }
    println!(
        "created {} sensors on {} (height {})",
        index.len(),
        path.display(),
        index.height()
    );

    // ---- concurrent monitoring: writers stream samples, readers scan ----
    let shared = Bur::from_index(index);
    let mut positions: Vec<Point> = (0..SENSORS)
        .map(|oid| {
            let x = ((oid * 7919) % 1000) as f32 / 1000.0;
            let y = ((oid * 104729) % 1000) as f32 / 1000.0;
            Point::new(x, y)
        })
        .collect();

    for round in 0..ROUNDS {
        std::thread::scope(|s| {
            // A reader thread scans "alert regions" while updates stream.
            let shared_ref = &shared;
            s.spawn(move || {
                let mut alerts = 0usize;
                for i in 0..20 {
                    let lo = (i as f32) / 20.0;
                    let window = Rect::new(lo, 0.9, lo + 0.05, 1.0);
                    alerts += shared_ref.query(&window).unwrap().count();
                }
                alerts
            });
            // The writer applies one drift step per sensor.
            let positions = &mut positions;
            s.spawn(move || {
                for oid in 0..SENSORS {
                    let old = positions[oid as usize];
                    let drift = ((oid + round as u64) % 17) as f32 / 17.0 - 0.5;
                    let new = Point::new(
                        (old.x + drift * 0.004).clamp(0.0, 1.0),
                        (old.y + 0.002).clamp(0.0, 1.0),
                    );
                    shared_ref.update(oid, old, new).unwrap();
                    positions[oid as usize] = new;
                }
            });
        });
    }
    let outcome_summary = shared.with_op_stats(|s| s.snapshot());
    println!("after {ROUNDS} rounds: {outcome_summary}");
    shared.validate()?;

    // ---- persist and reopen ----
    let mut index = shared
        .try_into_index()
        .expect("all clones are gone after the rounds");
    index.checkpoint()?;
    let io = index.io_stats().snapshot();
    println!(
        "persisted ({} physical reads, {} writes so far)",
        io.reads, io.writes
    );
    drop(index);

    let disk = Arc::new(FileDisk::open(&path, opts.page_size)?);
    let reopened = IndexBuilder::with_options(opts)
        .disk(disk)
        .open()
        .build_index()?;
    println!(
        "reopened: {} sensors, height {} — summary rebuilt with {} internal entries",
        reopened.len(),
        reopened.height(),
        reopened.summary().map_or(0, |s| s.internal_count())
    );
    reopened.validate()?;
    println!("validate(): ok");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
