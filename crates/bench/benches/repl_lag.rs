//! Criterion micro-benchmark: what replication costs, and where the lag
//! lives.
//!
//! Three measurements over the same seeded durable GBU workload on an
//! in-memory disk:
//!
//! * `primary-only` — the durable update baseline (no follower at all);
//! * `ship+apply` — one primary update followed by one follower pump
//!   (`sync_once`): the full ship-decode-redo-install round trip that a
//!   tightly-coupled standby pays per update;
//! * `poll-empty` — an idle pump against a caught-up log: the floor a
//!   standby pays per poll when nothing new landed.

use bur_core::{Durability, IndexOptions, WalOptions};
use bur_repl::{Follower, LogShipper};
use bur_storage::MemDisk;
use bur_workload::{Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn durable_opts() -> IndexOptions {
    IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1 << 20, // isolate shipping from rewind resyncs
    }))
}

fn bench_repl_lag(c: &mut Criterion) {
    let n = 10_000;
    let mut group = c.benchmark_group("repl_lag");
    group.sample_size(20);

    // Baseline: durable updates with nobody shipping.
    {
        let opts = durable_opts();
        let wl = Workload::generate(WorkloadConfig {
            num_objects: n,
            max_distance: 0.004,
            ..WorkloadConfig::default()
        });
        let mut index = bur_core::RTreeIndex::bulk_load_in_memory(opts, &wl.items()).unwrap();
        let mut wl = wl;
        group.bench_function("primary-only", |b| {
            b.iter(|| {
                let op = wl.next_update();
                black_box(index.update(op.oid, op.old, op.new).unwrap());
            });
        });
    }

    // Ship+apply: every update is pumped to the follower immediately.
    {
        let opts = durable_opts();
        let (disk, log) = (
            Arc::new(MemDisk::new(opts.page_size)),
            Arc::new(MemDisk::new(opts.page_size)),
        );
        let wl = Workload::generate(WorkloadConfig {
            num_objects: n,
            max_distance: 0.004,
            ..WorkloadConfig::default()
        });
        let index =
            bur_core::RTreeIndex::bulk_load_on(disk.clone(), Some(log.clone()), opts, &wl.items())
                .unwrap();
        let primary = bur_core::Bur::from_index(index);
        let mut wl = wl;
        let mut shipper = LogShipper::new(disk, log);
        let mut follower = Follower::attach_in_memory(&mut shipper, opts).unwrap();
        group.bench_function("ship+apply", |b| {
            b.iter(|| {
                let op = wl.next_update();
                primary.update(op.oid, op.old, op.new).unwrap();
                black_box(follower.sync_once(&mut shipper).unwrap());
            });
        });
        println!("  [ship+apply] follower stats: {:?}", follower.stats());

        // Idle pump against the caught-up log.
        follower.catch_up(&mut shipper).unwrap();
        group.bench_function("poll-empty", |b| {
            b.iter(|| black_box(follower.sync_once(&mut shipper).unwrap()));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_repl_lag);
criterion_main!(benches);
