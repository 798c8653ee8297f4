//! Multi-client throughput: the paper's Figure 8 scenario in miniature.
//!
//! A pool of client threads drives a mixed stream of position updates and
//! window queries against one shared `Bur` handle: updates claim the
//! leaves they touch and take page latches, queries take page latches
//! only (no query granules). Run for both the top-down baseline and the
//! generalized bottom-up strategy to see the throughput crossover the
//! paper reports: TD wins at 100 % queries, GBU wins as the update share
//! grows.
//!
//! ```sh
//! cargo run --release --example throughput_demo
//! ```

use bur::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const OBJECTS: usize = 20_000;
const THREADS: usize = 8;
const RUN_FOR: Duration = Duration::from_millis(1500);

fn run_mix(opts: IndexOptions, update_pct: u32) -> CoreResult<f64> {
    let workload = Workload::generate(WorkloadConfig {
        num_objects: OBJECTS,
        max_distance: 0.01,
        query_max_side: 0.01, // the paper's throughput study uses small windows
        seed: 0xF168,
        ..WorkloadConfig::default()
    });

    let mut index = IndexBuilder::with_options(opts).build_index()?;
    for (oid, pos) in workload.items() {
        index.insert(oid, pos)?;
    }
    let index = Bur::from_index(index);
    let completed = AtomicU64::new(0);

    // Each thread owns a disjoint slice of the fleet, so no two threads
    // ever disagree about an object's previous position.
    let parts = workload.split(THREADS);
    std::thread::scope(|s| {
        for mut part in parts {
            let index = &index;
            let completed = &completed;
            s.spawn(move || {
                let deadline = Instant::now() + RUN_FOR;
                let mut coin = 0u32;
                while Instant::now() < deadline {
                    coin = coin.wrapping_add(37) % 100;
                    if coin < update_pct {
                        let op = part.next_update();
                        index.update(op.oid, op.old, op.new).unwrap();
                    } else {
                        let q = part.next_query();
                        index.query(&q.window).unwrap().count();
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    index.validate()?;
    Ok(completed.load(Ordering::Relaxed) as f64 / RUN_FOR.as_secs_f64())
}

fn main() -> CoreResult<()> {
    println!(
        "{OBJECTS} objects, {THREADS} client threads, {}s per cell\n",
        RUN_FOR.as_secs_f64()
    );
    println!(
        "{:>10} {:>14} {:>14}",
        "% updates", "TD (ops/s)", "GBU (ops/s)"
    );
    for update_pct in [0, 25, 50, 75, 100] {
        let td = run_mix(IndexOptions::top_down(), update_pct)?;
        let gbu = run_mix(IndexOptions::generalized(), update_pct)?;
        println!("{update_pct:>10} {td:>14.0} {gbu:>14.0}");
    }
    println!(
        "\nExpected shape (paper Fig. 8): TD falls as updates dominate;\n\
         GBU rises — its optimizations make updates cheaper than queries."
    );
    Ok(())
}
