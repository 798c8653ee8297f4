//! Batch-first durable updates: a `Batch` is the one way to put several
//! operations under one commit record — and so under one log sync.
//!
//! Every commit syncs the log before `apply` (or `update`) returns, so
//! what a durable update costs is mostly how many of them share a
//! commit. This example drives the same update stream twice against
//! the same durable index configuration — `UPDATES` single `update`
//! calls versus `UPDATES / 32` `Batch`es — and prints what `wal_stats()`
//! saw: commit records, syncs and wall time per update, with identical
//! query results either way.
//!
//! ```sh
//! cargo run --release --example batch_updates
//! ```

use bur::prelude::*;
use std::time::{Duration, Instant};

const OBJECTS: usize = 10_000;
const UPDATES: usize = 20_000;
const BATCH: usize = 32;

fn workload() -> Workload {
    Workload::generate(WorkloadConfig {
        num_objects: OBJECTS,
        max_distance: 0.004, // short moves: the bottom-up sweet spot
        seed: 42,
        ..WorkloadConfig::default()
    })
}

/// What one run of the stream did to the log.
struct Run {
    bur: Bur,
    elapsed: Duration,
    commits: u64,
    syncs: u64,
}

/// Load the objects, then drive `UPDATES` updates with `per_commit` of
/// them under each commit record (1 = plain `update` calls).
fn run(per_commit: usize) -> CoreResult<Run> {
    let bur = IndexBuilder::generalized()
        .durability(Durability::Wal(WalOptions {
            checkpoint_every: 1 << 20, // keep the log visible: no mid-run rewind
            ..WalOptions::default()
        }))
        .build()?;
    let mut wl = workload();
    let mut load = Batch::with_capacity(OBJECTS);
    for (oid, pos) in wl.items() {
        load.insert(oid, pos);
    }
    bur.apply(&load)?.wait()?;

    let before = bur.wal_stats().expect("durable");
    let started = Instant::now();
    let mut batch = Batch::with_capacity(per_commit);
    for i in 0..UPDATES {
        let op = wl.next_update();
        if per_commit == 1 {
            bur.update(op.oid, op.old, op.new)?;
            continue;
        }
        batch.update(op.oid, op.old, op.new);
        if batch.len() == per_commit || i + 1 == UPDATES {
            // One lock acquisition, ONE commit record and one sync for
            // the whole batch; `Ok` means it is durable.
            bur.apply(&batch)?.wait()?;
            batch.clear();
        }
    }
    let elapsed = started.elapsed();
    let after = bur.wal_stats().expect("durable");
    assert_eq!(
        after.durable_lsn, after.last_lsn,
        "nothing acked is unsynced"
    );
    Ok(Run {
        bur,
        elapsed,
        commits: after.commits - before.commits,
        syncs: after.syncs - before.syncs,
    })
}

fn main() -> CoreResult<()> {
    let single = run(1)?;
    let batched = run(BATCH)?;
    for (label, r) in [("op", &single), ("batch", &batched)] {
        println!(
            "one commit per {label:<5}: {:>8.1} ns/update, {} commit records, {} syncs",
            r.elapsed.as_nanos() as f64 / UPDATES as f64,
            r.commits,
            r.syncs,
        );
    }
    println!(
        "batches of {BATCH} cut commit records and syncs {}x and wall time {:.2}x",
        single.commits / batched.commits.max(1),
        single.elapsed.as_secs_f64() / batched.elapsed.as_secs_f64(),
    );

    // Both streams end at the same answers.
    let window = Rect::new(0.4, 0.4, 0.6, 0.6);
    let mut a: Vec<u64> = single.bur.query(&window)?.collect();
    let mut b: Vec<u64> = batched.bur.query(&window)?.collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "batched and per-op streams must agree");
    println!(
        "query agreement in {window}: {} objects either way",
        a.len()
    );

    single.bur.validate()?;
    batched.bur.validate()?;
    println!("validate(): ok for both handles");
    Ok(())
}
