//! Figure 8: throughput of TD / LBU / GBU with 50 client threads and a
//! varying update/query mix.
//!
//! The paper: "We employ the Dynamic Granular Locking in R-trees and run
//! the experiments with 50 threads, varying the percentage of updates
//! versus queries. We use window queries within the range of [0, 0.01]
//! with updates." Execution here serializes on the simulated disk (one
//! page transfer at a time — the 2003 testbed's single spindle), so
//! throughput is governed by per-operation cost exactly as in the paper.
//! What the paper's DGL provides is, here, the `Bur` handle's leaf claims
//! (one bit per leaf an update touches) and page latches; queries take
//! page latches only, with no query granules. The table title keeps the
//! paper's "DGL" label.

use crate::report::{fnum, Table};
use crate::scale::Scale;
use bur_core::{Bur, GbuParams, IndexOptions, LbuParams, RTreeIndex, UpdateStrategy};
use bur_workload::{Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One throughput cell: ops/second at `update_pct` % updates.
pub fn measure_tps(opts: IndexOptions, scale: Scale, update_pct: u32, duration: Duration) -> f64 {
    let wl_cfg = WorkloadConfig {
        num_objects: scale.objects(),
        query_max_side: 0.01, // the paper's throughput queries
        max_distance: scale.max_distance(),
        ..WorkloadConfig::default()
    };
    let workload = Workload::generate(wl_cfg);
    let items = workload.items();
    let index = RTreeIndex::bulk_load_in_memory(opts, &items).expect("bulk load");
    let data_pages = index.data_pages().expect("pages");
    index
        .set_buffer_capacity((data_pages as f64 * 0.01).round() as usize)
        .expect("buffer");
    index.pool().evict_all().expect("cold start");
    let index = Bur::from_index(index);

    let threads = scale.threads();
    let parts = workload.split(threads);
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for (t, mut part) in parts.into_iter().enumerate() {
            let index = &index;
            let stop = &stop;
            let ops = &ops;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xF168 + t as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if rng.random_range(0u32..100) < update_pct {
                        let op = part.next_update();
                        index.update(op.oid, op.old, op.new).expect("update");
                    } else {
                        let q = part.next_query();
                        // Consume the streaming cursor (recycles its
                        // buffer on drop).
                        index.query(&q.window).expect("query").count();
                    }
                    local += 1;
                }
                ops.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed().as_secs_f64();
    ops.load(Ordering::Relaxed) as f64 / elapsed
}

/// Figure 8 sweep: update share ∈ {0, 25, 50, 75, 100} %.
pub fn fig8(scale: Scale) -> Vec<Table> {
    let mixes = [0u32, 25, 50, 75, 100];
    let duration = Duration::from_millis(scale.throughput_millis());
    let strategies: Vec<(&str, IndexOptions)> = vec![
        ("TD", IndexOptions::top_down()),
        (
            "LBU",
            IndexOptions {
                strategy: UpdateStrategy::Localized(LbuParams { epsilon: 0.003 }),
                ..IndexOptions::default()
            },
        ),
        (
            "GBU",
            IndexOptions {
                strategy: UpdateStrategy::Generalized(GbuParams::default()),
                ..IndexOptions::default()
            },
        ),
    ];
    let mut t = Table::new(
        format!(
            "Figure 8: throughput (ops/s) for varying update/query mix — {} threads, DGL",
            scale.threads()
        ),
        &["pct_updates", "TD", "LBU", "GBU"],
    );
    for &mix in &mixes {
        eprintln!("fig8: {mix}% updates");
        let mut row = vec![mix.to_string()];
        for (name, opts) in &strategies {
            let tps = measure_tps(*opts, scale, mix, duration);
            eprintln!("  [{name}] {tps:.0} ops/s");
            row.push(fnum(tps));
        }
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_smoke() {
        let tps = measure_tps(
            IndexOptions::generalized(),
            Scale::Smoke,
            50,
            Duration::from_millis(100),
        );
        assert!(tps > 0.0, "no operations completed");
    }
}
