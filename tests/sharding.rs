//! End-to-end sharding tests: the `ShardedBur` facade against an
//! unsharded `Bur` oracle, and `burd --shards N` over the wire.
//!
//! The load-bearing contracts under test:
//!
//! * a randomized mixed stream of single ops, batches, window queries
//!   and kNN searches — with key-range migrations and rebalance steps
//!   interleaved — observes exactly what one unsharded index would
//!   observe (routing is an implementation detail, never a semantic);
//! * a power cut in the middle of a range migration is all-or-nothing:
//!   after reopen the routing map names exactly one owner per key,
//!   every acked object is found exactly once, and no intent/commit
//!   record is left behind;
//! * `kill -9` of a `burd --shards 4` process loses no acked write —
//!   the durable ack promise holds per shard and in aggregate;
//! * the sharded index kind round-trips over the wire: explicit
//!   `create_sharded_index`, scatter-gather queries, merged kNN and
//!   per-shard observability gauges.

mod common;

use bur::client::BurClient;
use bur::core::{Batch, Bur, IndexBuilder};
use bur::geom::{Point, Rect};
use bur::serve::{start, ServerConfig};
use bur::shard::{self, ShardedBur};
use bur::storage::{FaultyDisk, MemDisk, PowerSupply};
use common::TempDir;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Deterministic point in the unit square for object `i`.
fn pos(i: u64) -> Point {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let x = ((h >> 16) & 0xffff) as f32 / 65536.0;
    let y = ((h >> 40) & 0xffff) as f32 / 65536.0;
    Point::new(x, y)
}

fn sharded(n: usize) -> ShardedBur {
    let shards = (0..n)
        .map(|_| IndexBuilder::generalized().build().unwrap())
        .collect();
    ShardedBur::from_shards(shards).unwrap()
}

fn rand_point(rng: &mut StdRng) -> Point {
    Point::new(rng.random::<f32>(), rng.random::<f32>())
}

/// Compare a window query on the sharded index against the oracle.
fn assert_window_matches(s: &ShardedBur, oracle: &Bur, window: &Rect) {
    let mut got: Vec<u64> = s.query(window).unwrap().collect();
    got.sort_unstable();
    let mut want: Vec<u64> = oracle.query(window).unwrap().collect();
    want.sort_unstable();
    assert_eq!(got, want, "window {window} diverged from the oracle");
}

/// Compare merged kNN against the oracle by distance profile (position
/// collisions make exact oid order tie-dependent).
fn assert_knn_matches(s: &ShardedBur, oracle: &Bur, q: Point, k: usize) {
    let got: Vec<_> = s.nearest(q, k).unwrap().try_collect().unwrap();
    let want: Vec<_> = oracle.nearest(q, k).unwrap().collect();
    assert_eq!(got.len(), want.len(), "kNN cardinality diverged at {q}");
    for (g, w) in got.iter().zip(&want) {
        assert!(
            (g.distance - w.distance).abs() < 1e-6,
            "kNN distance profile diverged at {q}: {} vs {}",
            g.distance,
            w.distance
        );
    }
    for pair in got.windows(2) {
        assert!(
            pair[0].distance <= pair[1].distance,
            "merged kNN emitted out of order"
        );
    }
}

/// Split a randomly chosen routing segment in half and migrate the low
/// half to the next shard (round-robin). Exercises `migrate_range`
/// with arbitrary (but always single-owner) ranges.
fn scripted_migration(s: &ShardedBur, rng: &mut StdRng) {
    let segs = s.segments();
    let space = shard::key_space_for(s.order());
    let i = rng.random_range(0..segs.len());
    let start = segs[i].start;
    let end = segs.get(i + 1).map_or(space, |next| next.start);
    if end - start < 2 {
        return;
    }
    let mid = start + (end - start) / 2;
    let to = (segs[i].shard + 1) % s.shard_count() as u32;
    s.migrate_range(start, mid, to).unwrap();
}

/// One randomized mixed step stream against the oracle.
fn mixed_stream_matches_oracle(seed: u64, shards: usize, steps: usize) {
    let s = sharded(shards);
    let oracle = IndexBuilder::generalized().build().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    // The model: every live object and its current position. Inserts
    // always use fresh oids so a batch can never fail mid-way.
    let mut live: Vec<(u64, Point)> = Vec::new();
    let mut next_oid = 0u64;

    for _ in 0..steps {
        match rng.random_range(0u32..10) {
            // Mixed batch: inserts, updates and deletes in one atomic
            // application on both sides.
            0..=4 => {
                let mut batch = Batch::new();
                for _ in 0..rng.random_range(1usize..30) {
                    let roll = rng.random_range(0u32..10);
                    if roll < 6 || live.is_empty() {
                        let p = rand_point(&mut rng);
                        batch.insert(next_oid, p);
                        live.push((next_oid, p));
                        next_oid += 1;
                    } else if roll < 8 {
                        let i = rng.random_range(0..live.len());
                        let new = rand_point(&mut rng);
                        let (oid, old) = live[i];
                        batch.update(oid, old, new);
                        live[i].1 = new;
                    } else {
                        let i = rng.random_range(0..live.len());
                        let (oid, p) = live.swap_remove(i);
                        batch.delete(oid, p);
                    }
                }
                let got = s.apply(&batch).unwrap();
                let want = oracle.apply(&batch).unwrap();
                assert_eq!(got.report().applied, want.report().applied);
            }
            // Single point ops (the non-batch surface).
            5 => {
                let p = rand_point(&mut rng);
                s.insert(next_oid, p).unwrap();
                oracle.insert(next_oid, p).unwrap();
                live.push((next_oid, p));
                next_oid += 1;
            }
            // Window query.
            6..=7 => {
                let a = rand_point(&mut rng);
                let w = rng.random_range(0.01f32..0.5);
                let h = rng.random_range(0.01f32..0.5);
                assert_window_matches(
                    &s,
                    &oracle,
                    &Rect::new(a.x, a.y, (a.x + w).min(1.0), (a.y + h).min(1.0)),
                );
            }
            // kNN.
            8 => {
                let q = rand_point(&mut rng);
                let k = rng.random_range(1usize..20);
                assert_knn_matches(&s, &oracle, q, k);
            }
            // Routing churn: a scripted migration or a rebalance step.
            // Neither may be observable through the query surface.
            _ => {
                if rng.random_bool(0.5) {
                    scripted_migration(&s, &mut rng);
                } else {
                    s.rebalance_step().unwrap();
                }
            }
        }
    }

    // Final equivalence: cardinality, the full window, and fresh kNN.
    assert_eq!(s.len(), oracle.len());
    assert_window_matches(&s, &oracle, &Rect::new(0.0, 0.0, 1.0, 1.0));
    assert_knn_matches(&s, &oracle, Point::new(0.5, 0.5), 15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_streams_match_unsharded_oracle(
        seed in any::<u64>(),
        shards in 2usize..6,
        steps in 30usize..80,
    ) {
        mixed_stream_matches_oracle(seed, shards, steps);
    }
}

#[test]
fn scripted_migrations_interleave_with_writes_and_queries() {
    let s = sharded(4);
    let oracle = IndexBuilder::generalized().build().unwrap();
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for wave in 0..12u64 {
        let mut batch = Batch::new();
        for i in 0..100 {
            batch.insert(wave * 100 + i, pos(wave * 100 + i));
        }
        s.apply(&batch).unwrap();
        oracle.apply(&batch).unwrap();
        // Churn the routing map between every write wave.
        scripted_migration(&s, &mut rng);
        if wave % 3 == 0 {
            s.rebalance_step().unwrap();
        }
        assert_window_matches(&s, &oracle, &Rect::new(0.2, 0.2, 0.8, 0.8));
    }
    assert_eq!(s.len(), 1200);
    assert_window_matches(&s, &oracle, &Rect::new(0.0, 0.0, 1.0, 1.0));
    assert_knn_matches(&s, &oracle, Point::new(0.3, 0.7), 25);
    // The map fragmented but still covers the space with one owner per
    // key — stats stay coherent.
    let stats = s.stats();
    assert_eq!(stats.shards.iter().map(|l| l.len).sum::<u64>(), 1200);
    assert!(stats.segments >= 4);
    assert!(!stats.migrating);
}

#[test]
fn mid_migration_power_cut_loses_no_acked_writes() {
    const N: u64 = 400;
    let mut fired = 0u32;
    for cut_after in [2u64, 9, 33, 70] {
        let dir = TempDir::new("shard-cut");
        let manifest = dir.file("idx.shardmap");
        // Two durable shards, each on a data and a log platter behind a
        // fault injector, all four on one power supply: one machine. The
        // manifest lives on the real filesystem.
        let platters: Vec<[Arc<MemDisk>; 2]> = (0..2)
            .map(|_| [Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024))])
            .collect();
        let power = PowerSupply::new();
        let faulty: Vec<(Arc<FaultyDisk>, Arc<FaultyDisk>)> = platters
            .iter()
            .map(|[data, log]| {
                let on = |disk: &Arc<MemDisk>| FaultyDisk::on(disk.clone(), &power);
                (on(data), on(log))
            })
            .collect();
        {
            let burs: Vec<Bur> = faulty
                .iter()
                .map(|(data, log)| {
                    IndexBuilder::generalized()
                        .durable()
                        .disk(data.clone())
                        .log_disk(log.clone())
                        .build()
                        .unwrap()
                })
                .collect();
            let s = ShardedBur::with_manifest(burs, manifest.clone()).unwrap();
            let mut batch = Batch::new();
            for i in 0..N {
                batch.insert(i, pos(i));
            }
            s.apply(&batch).unwrap().wait().unwrap();

            // Cut the power some way into the migration, then crash
            // (drop): only platters + manifest live on.
            let quarter = shard::key_space_for(s.order()) / 4;
            power.cut_after(cut_after);
            if s.migrate_range(0, quarter, 1).is_err() {
                fired += 1;
            }
        }
        // Each disk persists a seeded subset of its unsynced writes.
        let mut rng = StdRng::seed_from_u64(0x5A4D + cut_after);
        for (data, log) in &faulty {
            for disk in [data, log] {
                disk.crash(|| rng.random_range(0..2) == 0).unwrap();
            }
        }
        // Reopen from the platters: WAL recovery per shard, then the
        // manifest rolls the interrupted migration back (intent) or
        // forward (commit). Either way: all-or-nothing, zero loss.
        let burs: Vec<Bur> = platters
            .iter()
            .map(|[data, log]| {
                IndexBuilder::generalized()
                    .disk(data.clone())
                    .log_disk(log.clone())
                    .recover()
                    .build()
                    .unwrap()
            })
            .collect();
        let s = ShardedBur::with_manifest(burs, manifest.clone()).unwrap();
        assert!(
            shard::load_manifest(&manifest).unwrap().migration.is_none(),
            "cut at {cut_after}: reopen left a migration record behind"
        );
        assert_eq!(s.len(), N, "cut at {cut_after}: acked writes lost");
        let mut got: Vec<u64> = s.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..N).collect::<Vec<_>>(),
            "cut at {cut_after}: duplicate or missing objects after recovery"
        );
    }
    assert!(
        fired > 0,
        "no cut ever fired mid-migration; test is vacuous"
    );
}

/// Spawn the real `burd` binary on an OS-assigned port with extra
/// flags and parse the bound address off its stdout.
fn spawn_burd(data_dir: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_burd"))
        .arg(data_dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("burd spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("burd announces its address");
    let addr = line
        .trim()
        .strip_prefix("burd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr)
}

fn insert_batch(range: std::ops::Range<u64>) -> Batch {
    let mut batch = Batch::new();
    for oid in range {
        batch.insert(oid, pos(oid));
    }
    batch
}

#[test]
fn sharded_burd_kill9_loses_no_acked_writes() {
    const BATCHES: u64 = 12;
    const PER_BATCH: u64 = 25;

    let dir = TempDir::new("shard-kill");
    let data = dir.file("data");
    // `--shards 4`: every `create` builds a 4-way sharded index.
    let (mut child, addr) = spawn_burd(&data, &["--shards", "4"]);
    let config = bur::client::ClientConfig {
        retry: bur::client::RetryPolicy::none(),
        ..Default::default()
    };
    let mut c = BurClient::connect_with(&addr, &config).expect("connect");
    c.create_index("fleet", "gbu", true).expect("create");
    assert!(
        data.join("fleet.shardmap").exists(),
        "--shards 4 did not produce a sharded index"
    );
    for k in 0..4 {
        assert!(data.join(format!("fleet.s{k}.bur")).exists());
    }
    let mut acked = 0u64;
    for b in 0..BATCHES {
        let base = b * PER_BATCH;
        let ack = c
            .apply("fleet", &insert_batch(base..base + PER_BATCH))
            .expect("apply");
        assert!(ack.lsn > 0, "durable sharded acks carry an LSN");
        acked += ack.applied;
    }
    let stats = c.stats("fleet").expect("stats");
    assert!(stats.contains("bur_shards{index=\"fleet\"} 4"), "{stats}");

    // SIGKILL: no drain, no flush, no checkpoint. Every acked write
    // must survive — per shard and in aggregate.
    child.kill().expect("kill");
    child.wait().expect("reap");

    // Restart WITHOUT the flag: the `.shardmap` manifest alone must
    // bring the index back sharded.
    let (mut child, addr) = spawn_burd(&data, &[]);
    let mut c = BurClient::connect(&addr).expect("reconnect");
    assert_eq!(
        c.len("fleet").expect("reopen recovers all shards"),
        acked,
        "acked writes lost across kill -9 + restart"
    );
    let all: Vec<u64> = c
        .query("fleet", &Rect::new(0.0, 0.0, 1.0, 1.0))
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert_eq!(all.len() as u64, acked);
    for oid in 0..acked {
        assert!(all.contains(&oid), "acked oid {oid} missing after restart");
    }
    c.shutdown_server().expect("graceful stop");
    child.wait().expect("burd exits");
}

#[test]
fn sharded_lifecycle_over_the_wire() {
    let dir = TempDir::new("shard-wire");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let mut c = BurClient::connect(handle.addr()).expect("client connects");

    c.create_sharded_index("grid", "gbu", false, 4)
        .expect("create sharded");
    assert!(
        c.create_sharded_index("grid", "gbu", false, 4).is_err(),
        "duplicate create must fail"
    );
    assert!(
        c.create_index("grid", "gbu", false).is_err(),
        "plain create over a sharded name must fail"
    );
    assert_eq!(
        c.list_indexes().expect("list"),
        vec![("grid".to_string(), true)],
        "a sharded index lists once under its logical name"
    );

    let oracle = IndexBuilder::generalized().build().expect("oracle");
    for b in 0..8u64 {
        let batch = insert_batch(b * 250..(b + 1) * 250);
        let ack = c.apply("grid", &batch).expect("apply");
        assert_eq!(ack.applied, 250);
        oracle.apply(&batch).expect("oracle apply");
    }
    assert_eq!(c.len("grid").expect("len"), oracle.len());

    for window in [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.1, 0.2, 0.4, 0.9),
        Rect::new(0.85, 0.85, 0.95, 0.95),
    ] {
        let mut remote: Vec<u64> = c
            .query("grid", &window)
            .expect("query")
            .collect::<Result<_, _>>()
            .expect("stream");
        let mut local: Vec<u64> = oracle.query(&window).expect("oracle query").collect();
        remote.sort_unstable();
        local.sort_unstable();
        assert_eq!(remote, local, "window {window} diverged from oracle");
    }
    let remote_nn = c
        .nearest("grid", Point::new(0.5, 0.5), 10)
        .expect("knn")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream");
    let local_nn: Vec<_> = oracle
        .nearest(Point::new(0.5, 0.5), 10)
        .expect("oracle knn")
        .collect();
    assert_eq!(remote_nn.len(), local_nn.len());
    for (r, l) in remote_nn.iter().zip(&local_nn) {
        assert!((r.distance - l.distance).abs() < 1e-6);
    }

    // Observability: logical + per-shard gauges.
    let stats = c.stats("grid").expect("stats");
    assert!(stats.contains("bur_shards{index=\"grid\"} 4"), "{stats}");
    assert!(
        stats.contains("bur_shard_objects{index=\"grid\",shard=\"0\"}"),
        "{stats}"
    );
    let metrics = c.metrics().expect("metrics");
    assert!(
        metrics.contains("bur_shard_imbalance_milli{index=\"grid\"}"),
        "{metrics}"
    );

    // Close + reopen on demand: the kind is auto-detected from disk.
    c.close_index("grid").expect("close");
    assert_eq!(c.len("grid").expect("reopen on read"), oracle.len());
    handle.shutdown();
}
