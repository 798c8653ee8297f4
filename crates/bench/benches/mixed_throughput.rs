//! Criterion micro-benchmark: mixed update/query operation batches under
//! the shared `Bur` handle (leaf claims and page latches for updates,
//! page latches only for queries) — the wall-clock companion to
//! Figure 8 — plus the `parallel-writers` group: the same handle driven
//! by 1/2/4/8 writer threads on disjoint leaf strips, exercising the
//! concurrent (shared-phase) `Bur::apply` path end to end.

use bur_bench::parallel::{build_strips, run_lanes};
use bur_core::{Bur, IndexOptions, RTreeIndex};
use bur_workload::{Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mixed(c: &mut Criterion) {
    let n = 10_000;
    let mut group = c.benchmark_group("mixed-50-50");
    group.sample_size(15);
    for (name, opts) in [
        ("TD", IndexOptions::top_down()),
        ("GBU", IndexOptions::generalized()),
    ] {
        let wl = Workload::generate(WorkloadConfig {
            num_objects: n,
            query_max_side: 0.01,
            ..WorkloadConfig::default()
        });
        let index = RTreeIndex::bulk_load_in_memory(opts, &wl.items()).unwrap();
        let index = Bur::from_index(index);
        let mut parts = wl.split(1);
        let part = &mut parts[0];
        group.bench_function(name, |b| {
            b.iter(|| {
                // One update + one query per iteration (a 50/50 mix).
                let op = part.next_update();
                index.update(op.oid, op.old, op.new).unwrap();
                let q = part.next_query();
                black_box(index.query(&q.window).unwrap().count());
            });
        });
    }
    group.finish();
}

fn bench_parallel_writers(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel-writers");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let (bur, mut lanes) = build_strips(IndexOptions::generalized(), threads, 256);
        run_lanes(&bur, &mut lanes, 2); // warm the pool and the planner
        group.bench_function(format!("writers/{threads}"), |b| {
            b.iter(|| {
                // One whole-lane batch per writer thread per iteration.
                black_box(run_lanes(&bur, &mut lanes, 1));
            });
        });
        bur.validate().unwrap();
    }
    group.finish();
}

criterion_group!(benches, bench_mixed, bench_parallel_writers);
criterion_main!(benches);
