//! The data disk's pages and the engine's counters after one fixed
//! sequence, for every update strategy on both R-tree variants, and for
//! a durable GBU index, whose pool writes back under the log's gate.
//!
//! The sequence grows a tree past three levels, moves objects at the
//! paper's slow and fast bounds and then deletes a strip of them, so it
//! runs every insertion the engine has: LBU's parent pointers, the
//! top-down update, GBU's ascent with its ancestors above the start
//! node, R* forced reinsertion and CondenseTree's orphans. The pool is
//! small, so evictions make the pool's reads and writes depend on the
//! order pins are checked in as well as on what is written. A change
//! to the engine that claims to keep its behaviour must leave every
//! number here as it is.

use bur::prelude::*;
use bur::storage::{DiskBackend, MemDisk};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const PAGE: usize = 256;

/// A move of `p` by at most `d` on each axis, clamped to the unit square.
fn moved(rng: &mut StdRng, p: Point, d: f32) -> Point {
    Point::new(
        (p.x + rng.random_range(-d..d)).clamp(0.0, 1.0),
        (p.y + rng.random_range(-d..d)).clamp(0.0, 1.0),
    )
}

/// `rounds` batches of 32 updates of distinct live objects, each moved
/// by at most `d`.
fn updates(bur: &Bur, rng: &mut StdRng, pos: &mut [Option<Point>], rounds: usize, d: f32) {
    let live: Vec<usize> = (0..pos.len()).filter(|&oid| pos[oid].is_some()).collect();
    for _ in 0..rounds {
        let start = rng.random_range(0..live.len());
        let mut batch = Batch::new();
        for k in 0..32 {
            let oid = live[(start + k * 41) % live.len()];
            let old = pos[oid].unwrap();
            let new = moved(rng, old, d);
            batch.update(oid as u64, old, new);
            pos[oid] = Some(new);
        }
        bur.apply(&batch).unwrap();
    }
}

/// Run the sequence; returns a CRC over every data-disk page after a
/// checkpoint, the pool's fetches, reads and writes over the sequence,
/// and the operation counters. A durable index logs to a fresh disk of
/// its own, and its page CRCs carry the LSNs of the logged pages.
fn run(opts: IndexOptions) -> (u32, [u64; 3], String) {
    let disk = Arc::new(MemDisk::new(PAGE));
    let mut builder = IndexBuilder::with_options(opts)
        .page_size(PAGE)
        .disk(disk.clone())
        .buffer_frames(48);
    if matches!(opts.durability, Durability::Wal(_)) {
        builder = builder.log_disk(Arc::new(MemDisk::new(PAGE)));
    }
    let bur = builder.build().unwrap();
    let mut rng = StdRng::seed_from_u64(49);
    let mut pos: Vec<Option<Point>> = Vec::new();
    while pos.len() < 1_200 {
        let mut batch = Batch::new();
        for _ in 0..32 {
            let p = Point::new(rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0));
            batch.insert(pos.len() as u64, p);
            pos.push(Some(p));
        }
        bur.apply(&batch).unwrap();
    }
    assert!(bur.height() >= 3, "height {}", bur.height());
    updates(&bur, &mut rng, &mut pos, 30, 0.003);
    updates(&bur, &mut rng, &mut pos, 30, 0.06);
    // Empty a strip: its leaves underflow and CondenseTree re-inserts
    // what they still hold.
    let strip: Vec<usize> = (0..pos.len())
        .filter(|&oid| pos[oid].is_some_and(|p| p.x < 0.3))
        .collect();
    for chunk in strip.chunks(32) {
        let mut batch = Batch::new();
        for &oid in chunk {
            batch.delete(oid as u64, pos[oid].take().unwrap());
        }
        bur.apply(&batch).unwrap();
    }
    updates(&bur, &mut rng, &mut pos, 10, 0.06);
    let io = bur.io_snapshot();
    let ops = bur.with_op_stats(|s| s.snapshot()).to_string();
    bur.validate().unwrap();
    bur.checkpoint().unwrap();
    let mut crcs = Vec::new();
    let mut page = vec![0u8; PAGE];
    for pid in 0..disk.num_pages() {
        disk.read(pid, &mut page).unwrap();
        crcs.extend_from_slice(&bur::wal::crc32(&page).to_le_bytes());
    }
    (
        bur::wal::crc32(&crcs),
        [io.fetches, io.reads, io.writes],
        ops,
    )
}

/// The CRC, `[fetches, reads, writes]` and the counters of each run.
const PINNED: [(&str, u32, [u64; 3], &str); 8] = [
    ("td Guttman", 0x0bda_843a, [17_625, 4_592, 4_493], "updates=2240 (in_place=0 extended=0 shifted=0 ascended=0 top_down=2240) inserts=1216 deletes=350 queries=0 splits=349 condenses=200 reinserted=600 piggybacked=0 forced_reinserts=0 forced_reinserted=0 escalations=119 make_room_splits=0"),
    ("td RStar", 0xd97a_7f11, [17_260, 4_007, 4_045], "updates=2240 (in_place=0 extended=0 shifted=0 ascended=0 top_down=2240) inserts=1216 deletes=350 queries=0 splits=321 condenses=175 reinserted=525 piggybacked=0 forced_reinserts=432 forced_reinserted=1728 escalations=119 make_room_splits=0"),
    ("lbu Guttman", 0x697c_7aff, [13_787, 7_423, 6_499], "updates=2240 (in_place=981 extended=194 shifted=215 ascended=776 top_down=74) inserts=1216 deletes=350 queries=0 splits=295 condenses=143 reinserted=429 piggybacked=0 forced_reinserts=0 forced_reinserted=0 escalations=112 make_room_splits=0"),
    ("lbu RStar", 0xef68_1474, [14_753, 7_528, 6_549], "updates=2240 (in_place=1041 extended=190 shifted=230 ascended=721 top_down=58) inserts=1216 deletes=350 queries=0 splits=273 condenses=127 reinserted=381 piggybacked=0 forced_reinserts=375 forced_reinserted=1500 escalations=111 make_room_splits=0"),
    ("gbu Guttman", 0x1d7d_02b3, [13_844, 7_491, 6_607], "updates=2240 (in_place=896 extended=274 shifted=214 ascended=764 top_down=92) inserts=1216 deletes=350 queries=0 splits=304 condenses=156 reinserted=468 piggybacked=4 forced_reinserts=0 forced_reinserted=0 escalations=112 make_room_splits=0"),
    ("gbu RStar", 0x1f9a_d5f6, [14_588, 7_463, 6_523], "updates=2240 (in_place=968 extended=255 shifted=232 ascended=721 top_down=64) inserts=1216 deletes=350 queries=0 splits=271 condenses=124 reinserted=372 piggybacked=0 forced_reinserts=369 forced_reinserted=1476 escalations=111 make_room_splits=0"),
    ("gbu durable Guttman", 0x0238_f6bf, [13_846, 7_192, 6_284], "updates=2240 (in_place=896 extended=274 shifted=214 ascended=764 top_down=92) inserts=1216 deletes=350 queries=0 splits=304 condenses=156 reinserted=468 piggybacked=4 forced_reinserts=0 forced_reinserted=0 escalations=112 make_room_splits=0"),
    ("gbu durable RStar", 0x5771_ccbf, [14_590, 7_027, 6_122], "updates=2240 (in_place=968 extended=255 shifted=232 ascended=721 top_down=64) inserts=1216 deletes=350 queries=0 splits=271 condenses=124 reinserted=372 piggybacked=0 forced_reinserts=369 forced_reinserted=1476 escalations=111 make_room_splits=0"),
];

#[test]
fn pages_and_counts_after_a_fixed_sequence_are_pinned() {
    let strategies = [
        ("td", IndexOptions::top_down()),
        ("lbu", IndexOptions::localized()),
        ("gbu", IndexOptions::generalized()),
        ("gbu durable", IndexOptions::durable()),
    ];
    let runs = strategies
        .into_iter()
        .flat_map(|(name, opts)| [(name, opts), (name, opts.rstar())]);
    for ((name, opts), (label, crc, io, ops)) in runs.zip(PINNED) {
        let run = run(opts);
        println!(
            "{name} {:?}: crc {:#010x}, io {:?}, {}",
            opts.variant, run.0, run.1, run.2
        );
        assert_eq!(format!("{name} {:?}", opts.variant), label);
        assert_eq!(run, (crc, io, ops.to_string()), "{label}");
    }
}
