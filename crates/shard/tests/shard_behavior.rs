//! Behavior tests for `ShardedBur`: routing, cross-shard batches,
//! scatter queries, merged kNN, migration and manifest recovery.

use bur_core::{Batch, Bur, IndexBuilder};
use bur_geom::{Point, Rect};
use bur_shard::ShardedBur;
use std::path::PathBuf;

fn mem_shards(n: usize) -> Vec<Bur> {
    (0..n)
        .map(|_| IndexBuilder::generalized().build().unwrap())
        .collect()
}

fn sharded(n: usize) -> ShardedBur {
    ShardedBur::from_shards(mem_shards(n)).unwrap()
}

/// Deterministic point in the unit square for object `i`.
fn pos(i: u64) -> Point {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let x = ((h >> 16) & 0xffff) as f32 / 65536.0;
    let y = ((h >> 40) & 0xffff) as f32 / 65536.0;
    Point::new(x, y)
}

#[test]
fn batch_spreads_over_shards_and_len_sums() {
    let s = sharded(4);
    let mut batch = Batch::new();
    for i in 0..500 {
        batch.insert(i, pos(i));
    }
    let ticket = s.apply(&batch).unwrap();
    assert_eq!(ticket.report().inserted, 500);
    assert!(ticket.shards_touched() >= 2, "hash positions hit one shard");
    assert_eq!(s.len(), 500);
    let loads = s.stats();
    assert_eq!(loads.shards.iter().map(|l| l.len).sum::<u64>(), 500);
}

#[test]
fn window_queries_match_per_shard_truth_and_prune_scatter() {
    let s = sharded(8);
    let mut batch = Batch::new();
    for i in 0..2000 {
        batch.insert(i, pos(i));
    }
    s.apply(&batch).unwrap();
    // A small corner window should scatter to a strict subset of shards.
    let window = Rect::new(0.0, 0.0, 0.12, 0.12);
    let q = s.query(&window).unwrap();
    assert!(q.shards_touched() < 8, "corner window scattered everywhere");
    let mut got: Vec<u64> = q.collect();
    got.sort_unstable();
    let mut want: Vec<u64> = (0..2000)
        .filter(|&i| window.contains_point(&pos(i)))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn cross_shard_update_moves_the_object() {
    let s = sharded(4);
    s.insert(1, Point::new(0.01, 0.01)).unwrap();
    // Move clear across the square — almost surely another shard.
    let from = s.route_point(Point::new(0.01, 0.01));
    let to = s.route_point(Point::new(0.99, 0.99));
    let ticket = s
        .update(1, Point::new(0.01, 0.01), Point::new(0.99, 0.99))
        .unwrap();
    assert_eq!(ticket.report().updated, 1);
    assert_eq!(ticket.report().applied, 1);
    assert_eq!(s.len(), 1);
    let found: Vec<u64> = s.query(&Rect::new(0.98, 0.98, 1.0, 1.0)).unwrap().collect();
    assert_eq!(found, vec![1]);
    let gone: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 0.05, 0.05)).unwrap().collect();
    assert!(gone.is_empty());
    if from != to {
        assert_eq!(ticket.shards_touched(), 2);
    }
}

#[test]
fn knn_merge_is_globally_ordered() {
    let s = sharded(4);
    let mut batch = Batch::new();
    for i in 0..800 {
        batch.insert(i, pos(i));
    }
    s.apply(&batch).unwrap();
    let q = Point::new(0.4, 0.6);
    let got: Vec<_> = s.nearest(q, 25).unwrap().collect();
    assert_eq!(got.len(), 25);
    for w in got.windows(2) {
        assert!(w[0].distance <= w[1].distance, "merge emitted out of order");
    }
    // Against brute force.
    let mut truth: Vec<(f32, u64)> = (0..800).map(|i| (pos(i).distance(&q), i)).collect();
    truth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (n, (d, oid)) in got.iter().zip(truth.iter()) {
        assert_eq!(n.oid, *oid);
        assert!((n.distance - d).abs() < 1e-6);
    }
}

#[test]
fn migration_preserves_contents_and_rebalances_ownership() {
    let s = sharded(2);
    let mut batch = Batch::new();
    for i in 0..600 {
        batch.insert(i, pos(i));
    }
    s.apply(&batch).unwrap();
    let before_len = s.len();
    let epoch0 = s.epoch();
    // Move the first quarter of the key space from shard 0 to shard 1.
    let quarter = bur_shard::key_space_for(s.order()) / 4;
    let report = s.migrate_range(0, quarter, 1).unwrap();
    assert!(report.moved > 0, "nothing lived in the first quarter");
    assert_eq!(report.from, 0);
    assert_eq!(report.to, 1);
    assert_eq!(s.epoch(), epoch0 + 1);
    assert_eq!(s.len(), before_len);
    // Every object is still found exactly once.
    let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
    got.sort_unstable();
    assert_eq!(got, (0..600).collect::<Vec<_>>());
    // Routing now sends the migrated keys to shard 1.
    assert!(s
        .segments()
        .first()
        .is_some_and(|seg| seg.shard == 1 && seg.start == 0));
    // Writes into the migrated range land on the new owner.
    let probe = (0..600u64)
        .map(pos)
        .find(|p| s.key_of(*p) < quarter)
        .expect("some point routes low");
    assert_eq!(s.route_point(probe), 1);
}

#[test]
fn migrate_range_rejects_bad_requests() {
    let s = sharded(2);
    let space = bur_shard::key_space_for(s.order());
    assert!(s.migrate_range(0, space / 4, 7).is_err(), "no such shard");
    assert!(s.migrate_range(10, 10, 1).is_err(), "empty range");
    // Spans both shards' ranges.
    assert!(s.migrate_range(0, space, 1).is_err());
    // Self-migration is a no-op, not an error.
    let r = s.migrate_range(0, space / 4, 0).unwrap();
    assert_eq!(r.moved, 0);
}

#[test]
fn rebalance_step_converges_on_a_hotspot() {
    let s = sharded(4);
    // Hotspot: everything in one tiny corner — all on one shard.
    let mut batch = Batch::new();
    for i in 0..400u64 {
        let x = 0.01 + (i as f32 % 20.0) / 2500.0;
        let y = 0.01 + (i as f32 / 20.0).floor() / 2500.0;
        batch.insert(i, Point::new(x, y));
    }
    s.apply(&batch).unwrap();
    let before = s.stats().imbalance;
    assert!(before > 2.0, "hotspot not skewed? imbalance {before}");
    let mut steps = 0;
    while s.rebalance_step().unwrap().is_some() {
        steps += 1;
        assert!(steps <= 16, "rebalance failed to converge");
    }
    let after = s.stats().imbalance;
    assert!(after < before, "imbalance {before} -> {after}");
    assert_eq!(s.len(), 400);
    let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
    got.sort_unstable();
    assert_eq!(got, (0..400).collect::<Vec<_>>());
}

#[test]
fn rect_objects_survive_scatter_via_extent_slack() {
    let s = sharded(4);
    // A wide rect whose center is far from the query window.
    s.insert_rect(7, Rect::new(0.1, 0.48, 0.9, 0.52)).unwrap();
    let window = Rect::new(0.85, 0.45, 0.95, 0.55); // touches the rect's edge
    let got: Vec<u64> = s.query(&window).unwrap().collect();
    assert_eq!(got, vec![7], "slack expansion missed the wide rect");
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "bur-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_shards(dir: &TempDir, n: usize) -> Vec<Bur> {
    (0..n)
        .map(|i| {
            let path = dir.file(&format!("shard{i}.bur"));
            let builder = IndexBuilder::generalized().durable().file(&path);
            let builder = if path.exists() {
                builder.open()
            } else {
                builder.create()
            };
            builder.build().unwrap()
        })
        .collect()
}

#[test]
fn manifest_persists_routing_across_reopen() {
    let dir = TempDir::new("manifest-reopen");
    let manifest = dir.file("idx.shardmap");
    {
        let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest.clone()).unwrap();
        let mut batch = Batch::new();
        for i in 0..300 {
            batch.insert(i, pos(i));
        }
        s.apply(&batch).unwrap().wait().unwrap();
        let quarter = bur_shard::key_space_for(s.order()) / 4;
        s.migrate_range(0, quarter, 1).unwrap();
        s.checkpoint().unwrap();
    }
    // Reopen: the migrated map must come back from the manifest.
    let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest).unwrap();
    assert_eq!(s.len(), 300);
    assert!(s
        .segments()
        .first()
        .is_some_and(|seg| seg.shard == 1 && seg.start == 0));
    let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
    got.sort_unstable();
    assert_eq!(got, (0..300).collect::<Vec<_>>());
}

#[test]
fn interrupted_migration_rolls_back_on_reopen() {
    let dir = TempDir::new("mig-rollback");
    let manifest = dir.file("idx.shardmap");
    let quarter;
    {
        let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest.clone()).unwrap();
        let mut batch = Batch::new();
        for i in 0..300 {
            batch.insert(i, pos(i));
        }
        s.apply(&batch).unwrap().wait().unwrap();
        quarter = bur_shard::key_space_for(s.order()) / 4;

        // Simulate a crash mid-copy: copy part of the range to the
        // target by hand and leave an `intent` manifest behind.
        let mut m = bur_shard::load_manifest(&manifest).unwrap();
        m.migration = Some(bur_shard::Migration {
            lo: 0,
            hi: quarter,
            from: 0,
            to: 1,
            flipped: false,
        });
        bur_shard::store_manifest(&manifest, &m).unwrap();
        let mut copied = Batch::new();
        for i in 0..300u64 {
            let p = pos(i);
            if s.key_of(p) < quarter / 2 && s.route_point(p) == 0 {
                copied.insert(i, p);
            }
        }
        assert!(!copied.is_empty(), "nothing to copy — test vacuous");
        s.shard(1).apply(&copied).unwrap().wait().unwrap();
        s.checkpoint().unwrap();
    }
    // Reopen: intent without commit rolls back — the partial copies
    // vanish, the map still names shard 0, nothing is lost.
    let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest.clone()).unwrap();
    assert!(bur_shard::load_manifest(&manifest)
        .unwrap()
        .migration
        .is_none());
    assert_eq!(s.len(), 300);
    let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
    got.sort_unstable();
    assert_eq!(got, (0..300).collect::<Vec<_>>());
    assert!(s.segments().first().is_some_and(|seg| seg.shard == 0));
}

#[test]
fn committed_migration_rolls_forward_on_reopen() {
    let dir = TempDir::new("mig-forward");
    let manifest = dir.file("idx.shardmap");
    let quarter;
    {
        let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest.clone()).unwrap();
        let mut batch = Batch::new();
        for i in 0..300 {
            batch.insert(i, pos(i));
        }
        s.apply(&batch).unwrap().wait().unwrap();
        quarter = bur_shard::key_space_for(s.order()) / 4;

        // Simulate a crash after the flip: the full range was copied
        // and the commit manifest written, but the source cleanup never
        // ran.
        let mut copied = Batch::new();
        for i in 0..300u64 {
            let p = pos(i);
            if s.key_of(p) < quarter && s.route_point(p) == 0 {
                copied.insert(i, p);
            }
        }
        assert!(!copied.is_empty(), "nothing to copy — test vacuous");
        s.shard(1).apply(&copied).unwrap().wait().unwrap();
        let mut m = bur_shard::load_manifest(&manifest).unwrap();
        m.migration = Some(bur_shard::Migration {
            lo: 0,
            hi: quarter,
            from: 0,
            to: 1,
            flipped: true,
        });
        // The commit record carries the flipped map.
        let mut map = s.segments().to_vec();
        map.retain(|seg| seg.start != 0);
        map.insert(0, bur_shard::Segment { start: 0, shard: 1 });
        if map.get(1).is_none_or(|seg| seg.start > quarter) {
            map.insert(
                1,
                bur_shard::Segment {
                    start: quarter,
                    shard: 0,
                },
            );
        }
        m.segments = map;
        bur_shard::store_manifest(&manifest, &m).unwrap();
        s.checkpoint().unwrap();
    }
    // Reopen: commit present rolls forward — source copies deleted,
    // the new map stands, every object found exactly once.
    let s = ShardedBur::with_manifest(durable_shards(&dir, 2), manifest.clone()).unwrap();
    assert!(bur_shard::load_manifest(&manifest)
        .unwrap()
        .migration
        .is_none());
    assert_eq!(s.len(), 300);
    let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
    got.sort_unstable();
    assert_eq!(got, (0..300).collect::<Vec<_>>());
    assert!(s.segments().first().is_some_and(|seg| seg.shard == 1));
}
