//! Criterion micro-benchmark: what durability costs per update.
//!
//! Five configurations over the same seeded GBU workload:
//!
//! * `off` — the paper's setup, no write-ahead log (baseline);
//! * `wal-full` — every update logged as full 1 KiB page images (the
//!   pre-delta protocol), group-committed, no checkpoints in the
//!   measured window;
//! * `wal` — delta logging (byte-range diffs with full-image anchors),
//!   group-committed, no checkpoints;
//! * `wal+ckpt` — delta logging plus an aggressive checkpoint cadence,
//!   so the measured window pays for pool flushes and log rewinds too;
//! * `wal+async+batch` — the full durable fast path: delta logging,
//!   asynchronous group commit (background sync thread) and one commit
//!   record per 8-op [`Batch`]. One iteration of this row is a whole
//!   batch: divide its time by 8 to compare with the per-update rows.
//!
//! All configurations run on an in-memory disk: the numbers isolate the
//! CPU and page-copy overhead of the logging protocol itself, not
//! `fsync` latency (which `SyncPolicy` amortizes in real deployments;
//! `perfbench`'s `core_slow_durable` workload pays a real one).

use bur_core::{Batch, DeltaPolicy, Durability, IndexOptions, RTreeIndex, WalOptions};
use bur_storage::SyncPolicy;
use bur_workload::{Workload, WorkloadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn build(opts: IndexOptions, n: usize) -> (RTreeIndex, Workload) {
    let wl = Workload::generate(WorkloadConfig {
        num_objects: n,
        ..WorkloadConfig::default()
    });
    let index = RTreeIndex::bulk_load_in_memory(opts, &wl.items()).unwrap();
    (index, wl)
}

fn bench_wal_overhead(c: &mut Criterion) {
    let n = 20_000;
    let mut group = c.benchmark_group("wal_overhead");
    group.sample_size(20);
    // (row, updates per iteration — 1 is a plain `update` —, durability)
    for (name, batch_len, durability) in [
        ("off", 1, Durability::None),
        (
            "wal-full",
            1,
            Durability::Wal(WalOptions {
                sync: SyncPolicy::GroupCommit(64),
                checkpoint_every: u64::MAX,
                delta: DeltaPolicy::full_images(),
                ..WalOptions::default()
            }),
        ),
        (
            "wal",
            1,
            Durability::Wal(WalOptions {
                sync: SyncPolicy::GroupCommit(64),
                checkpoint_every: u64::MAX,
                ..WalOptions::default()
            }),
        ),
        (
            "wal+ckpt",
            1,
            Durability::Wal(WalOptions {
                sync: SyncPolicy::GroupCommit(64),
                checkpoint_every: 512,
                ..WalOptions::default()
            }),
        ),
        (
            "wal+async+batch",
            8,
            Durability::Wal(WalOptions {
                sync: SyncPolicy::Async,
                checkpoint_every: 512,
                ..WalOptions::default()
            }),
        ),
    ] {
        let opts = IndexOptions::generalized().with_durability(durability);
        let (mut index, mut wl) = build(opts, n);
        if batch_len > 1 {
            let mut batch = Batch::with_capacity(batch_len);
            group.bench_function(name, |b| {
                b.iter(|| {
                    batch.clear();
                    for _ in 0..batch_len {
                        let op = wl.next_update();
                        batch.update(op.oid, op.old, op.new);
                    }
                    black_box(index.apply_batch(&batch).unwrap());
                });
            });
        } else {
            group.bench_function(name, |b| {
                b.iter(|| {
                    let op = wl.next_update();
                    black_box(index.update(op.oid, op.old, op.new).unwrap());
                });
            });
        }
        if let Some(stats) = index.wal_stats() {
            println!("  [{name}] {stats}");
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wal_overhead);
criterion_main!(benches);
