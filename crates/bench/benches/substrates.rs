//! Criterion micro-benchmarks of the substrates: geometry kernels, the
//! buffer pool, the linear-hash index and the node codec. These guard
//! against substrate regressions that would distort the figure-level
//! measurements.

use bur_core::{leaf_capacity, LeafEntry, Node};
use bur_geom::{Point, Rect};
use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_storage::{BufferPool, MemDisk, PoolConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_geom(c: &mut Criterion) {
    let a = Rect::new(0.1, 0.1, 0.4, 0.5);
    let b = Rect::new(0.3, 0.2, 0.9, 0.8);
    let p = Point::new(0.35, 0.45);
    let mut group = c.benchmark_group("geom");
    group.bench_function("union", |bch| bch.iter(|| black_box(a.union(&b))));
    group.bench_function("intersects", |bch| bch.iter(|| black_box(a.intersects(&b))));
    group.bench_function("enlargement", |bch| {
        bch.iter(|| black_box(a.enlargement(&b)))
    });
    group.bench_function("contains_point", |bch| {
        bch.iter(|| black_box(a.contains_point(&p)))
    });
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let pool = BufferPool::new(Arc::new(MemDisk::new(1024)), PoolConfig { capacity: 64 });
    let mut pids = Vec::new();
    for _ in 0..256 {
        let (pid, g) = pool.new_page().unwrap();
        drop(g);
        pids.push(pid);
    }
    let mut group = c.benchmark_group("buffer-pool");
    let mut i = 0usize;
    group.bench_function("fetch-hit", |b| {
        b.iter(|| {
            // Cycle inside the cached set.
            let pid = pids[i % 32];
            i += 1;
            black_box(pool.fetch(pid).unwrap().pid());
        })
    });
    let mut j = 0usize;
    group.bench_function("fetch-miss-evict", |b| {
        b.iter(|| {
            // Cycle over 4x the capacity: mostly misses + evictions.
            let pid = pids[j % 256];
            j += 37;
            black_box(pool.fetch(pid).unwrap().pid());
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let pool = Arc::new(BufferPool::new(
        Arc::new(MemDisk::new(1024)),
        PoolConfig { capacity: 512 },
    ));
    let idx = LinearHashIndex::create(pool, HashIndexConfig::default()).unwrap();
    for k in 0..50_000u64 {
        idx.insert(k, k as u32).unwrap();
    }
    let mut group = c.benchmark_group("hash-index");
    let mut k = 0u64;
    group.bench_function("probe", |b| {
        b.iter(|| {
            k = (k * 2862933555777941757 + 3037000493) % 50_000;
            black_box(idx.get(k).unwrap());
        })
    });
    group.bench_function("upsert", |b| {
        b.iter(|| {
            k = (k * 2862933555777941757 + 3037000493) % 50_000;
            black_box(idx.insert(k, (k % 97) as u32).unwrap());
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut node = Node::new_leaf();
    for i in 0..leaf_capacity(1024) as u64 {
        node.leaf_entries_mut()
            .push(LeafEntry::point(i, Point::new(i as f32 * 0.01, 0.5)));
    }
    let mut buf = vec![0u8; 1024];
    let mut group = c.benchmark_group("node-codec");
    group.bench_function("encode-full-leaf", |b| {
        b.iter(|| {
            node.encode(&mut buf);
            black_box(&buf);
        })
    });
    node.encode(&mut buf);
    group.bench_function("decode-full-leaf", |b| {
        b.iter(|| black_box(Node::decode(0, &buf).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_geom, bench_pool, bench_hash, bench_codec);
criterion_main!(benches);
