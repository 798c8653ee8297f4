//! Warm-standby replication: ship the write-ahead log to a follower,
//! serve reads from the replica, then fail over.
//!
//! A durable primary absorbs update batches while a follower tails its
//! log from another thread, redoing each shipped batch onto its own
//! disk. Read traffic (window + kNN) runs against the replica's
//! read-only handle at the apply watermark — the HTAP offload pattern —
//! and when the primary "dies", the follower promotes in place and
//! keeps taking writes.
//!
//! ```text
//! cargo run --release --example replication
//! ```

use bur::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    const OBJECTS: u64 = 5_000;
    const ROUNDS: usize = 40;

    // A durable GBU primary on two shared in-memory disks: data and log.
    let (data, log) = (Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024)));
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 5_000,
    }));
    let primary = IndexBuilder::with_options(opts)
        .disk(data.clone())
        .log_disk(log.clone())
        .build()
        .expect("build primary");

    let mut seed = Batch::new();
    for oid in 0..OBJECTS {
        seed.insert(
            oid,
            Point::new((oid % 100) as f32 / 100.0, ((oid / 100) % 50) as f32 / 50.0),
        );
    }
    primary
        .apply(&seed)
        .expect("seed")
        .wait()
        .expect("seed ack");
    println!("primary: {} objects, durable log attached", primary.len());

    // Attach a warm standby and pump it from a background thread.
    let mut shipper = LogShipper::new(data, log);
    let mut follower = Follower::attach_in_memory(&mut shipper, opts).expect("attach follower");
    let replica = follower.handle();
    println!(
        "follower attached: {} pages copied, watermark lsn {}",
        follower.stats().pages_copied,
        follower.applied_lsn()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let pump_stop = stop.clone();
    let pump = std::thread::spawn(move || {
        let mut max_lag = 0u64;
        while !pump_stop.load(Ordering::Relaxed) {
            let report = follower.sync_once(&mut shipper).expect("pump");
            max_lag = max_lag.max(report.pending);
            std::thread::yield_now();
        }
        follower.catch_up(&mut shipper).expect("final catch-up");
        (follower, shipper, max_lag)
    });

    // Update traffic on the primary; analytical reads on the replica.
    let mut moved = 0u64;
    for round in 0..ROUNDS {
        let mut batch = Batch::new();
        for k in 0..64u64 {
            let oid = (round as u64 * 64 + k) % OBJECTS;
            let old = Point::new((oid % 100) as f32 / 100.0, ((oid / 100) % 50) as f32 / 50.0);
            let dx = 0.002 * ((round % 5) as f32 - 2.0);
            batch.update(oid, old, Point::new((old.x + dx).clamp(0.0, 1.0), old.y));
            // Move it back so every round starts from the same layout.
            batch.update(oid, Point::new((old.x + dx).clamp(0.0, 1.0), old.y), old);
            moved += 1;
        }
        primary
            .apply(&batch)
            .expect("update batch")
            .wait()
            .expect("ack");
        // Replica reads run concurrently with shipping.
        let hot = replica
            .count_in(&Rect::new(0.2, 0.2, 0.8, 0.8))
            .expect("replica window");
        if round % 10 == 0 {
            println!(
                "round {round:>2}: replica sees {} objects, {hot} in the hot window",
                replica.len()
            );
        }
    }
    println!("primary applied {moved} updates across {ROUNDS} batches");

    // "Kill" the primary and fail over.
    let primary_stats = primary.wal_stats().expect("primary is durable");
    drop(primary);
    stop.store(true, Ordering::Relaxed);
    let (follower, _shipper, max_lag) = pump.join().expect("pump thread");
    let stats = follower.stats();
    println!(
        "shipped {} records ({} commits, {} images, {} deltas, {} resyncs); \
         max in-flight lag {} records",
        stats.records_shipped,
        stats.commits_applied,
        stats.images_applied,
        stats.deltas_applied,
        stats.resyncs,
        max_lag
    );
    assert!(replica.is_read_only());

    let new_primary = follower.promote().expect("promote");
    assert!(!new_primary.is_read_only());
    new_primary.validate().expect("promoted index valid");
    assert_eq!(new_primary.len(), OBJECTS);
    println!(
        "promoted: follower is now the primary at lsn watermark ≥ {} (old primary logged {} records)",
        new_primary.wal_stats().map_or(0, |s| s.last_lsn),
        primary_stats.records
    );

    // The new primary serves writes durably.
    let mut post = Batch::new();
    post.insert(OBJECTS + 1, Point::new(0.5, 0.5));
    new_primary
        .apply(&post)
        .expect("write after failover")
        .wait()
        .expect("failover write ack");
    println!(
        "new primary took a durable write: {} objects — failover complete",
        new_primary.len()
    );
}
