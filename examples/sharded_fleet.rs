//! Hilbert-range sharding: one logical index over N shards.
//!
//! A city fleet reports positions into a `ShardedBur` — four GBU
//! indexes behind one batch-first facade. Writes route by Hilbert key,
//! window queries scatter only to the shards whose key range the
//! window's curve decomposition touches, kNN merges per-shard cursors
//! into one globally ordered stream. When a depot hotspot skews the
//! load, `rebalance_step` carves key ranges off the hot shard until
//! the fleet spreads evenly again.
//!
//! ```sh
//! cargo run --release --example sharded_fleet
//! ```

use bur::core::{Batch, IndexBuilder};
use bur::geom::{Point, Rect};
use bur::shard::{key_space_for, ShardedBur};

const SHARDS: usize = 4;
const FLEET: u64 = 30_000;
const HOTSPOT: u64 = 15_000;

/// Deterministic pseudo-random position in the unit square.
fn pos(seed: u64) -> Point {
    let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    let x = ((h >> 16) & 0xffff) as f32 / 65536.0;
    let y = ((h >> 40) & 0xffff) as f32 / 65536.0;
    Point::new(x, y)
}

fn print_loads(s: &ShardedBur, label: &str) {
    let stats = s.stats();
    let loads: Vec<String> = stats
        .shards
        .iter()
        .enumerate()
        .map(|(k, l)| format!("s{k}={}", l.len))
        .collect();
    println!(
        "{label:<18} {} | imbalance {:.2} | {} segments, epoch {}",
        loads.join(" "),
        stats.imbalance,
        stats.segments,
        stats.epoch
    );
}

fn main() {
    // One logical index, four shards. `from_shards` splits the Hilbert
    // key space evenly; a manifest path would make the map durable.
    let shards = (0..SHARDS)
        .map(|_| IndexBuilder::generalized().build().unwrap())
        .collect();
    let fleet = ShardedBur::from_shards(shards).unwrap();

    // The city fleet spreads evenly over town...
    let mut batch = Batch::with_capacity(FLEET as usize);
    for oid in 0..FLEET {
        batch.insert(oid, pos(oid));
    }
    let ticket = fleet.apply(&batch).unwrap();
    println!(
        "inserted {} vehicles in one batch across {} shards ({} group commits)",
        ticket.report().inserted,
        SHARDS,
        ticket.shards_touched()
    );
    print_loads(&fleet, "uniform fleet");

    // ...until the morning rush crowds one depot corner.
    let mut rush = Batch::with_capacity(HOTSPOT as usize);
    for i in 0..HOTSPOT {
        let p = pos(FLEET + i);
        rush.insert(FLEET + i, Point::new(p.x * 0.12, p.y * 0.12));
    }
    fleet.apply(&rush).unwrap();
    print_loads(&fleet, "depot hotspot");

    // Rebalance: carve contiguous key ranges off the hottest shard to
    // the coolest until the load evens out. Each step is one online
    // range migration (readers stay live, writes into the moving range
    // briefly freeze, the routing epoch ticks).
    let mut steps = 0;
    while let Some(report) = fleet.rebalance_step().unwrap() {
        steps += 1;
        println!(
            "  rebalance step {steps}: moved {} vehicles shard {} -> {}",
            report.moved, report.from, report.to
        );
        if steps >= 16 {
            break;
        }
    }
    print_loads(&fleet, "after rebalance");

    // Scatter-gather reads. A dispatch window in the depot corner only
    // visits the shards owning that part of the curve.
    let window = Rect::new(0.0, 0.0, 0.1, 0.1);
    let q = fleet.query(&window).unwrap();
    let touched = q.shards_touched();
    let nearby = q.count();
    println!("dispatch window {window}: {nearby} vehicles from {touched}/{SHARDS} shards");

    // kNN merges per-shard cursors into one globally ordered stream
    // with distance-pruned shard admission.
    let incident = Point::new(0.06, 0.06);
    let responders: Vec<_> = fleet.nearest(incident, 5).unwrap().try_collect().unwrap();
    println!("5 nearest responders to {incident}:");
    for n in &responders {
        println!("  vehicle {:>6} at distance {:.4}", n.oid, n.distance);
    }

    // Targeted migration: operations can also move an explicit key
    // range to a named shard. A migration must name a range owned by a
    // single shard, so split the map's first segment in half.
    let segments = fleet.segments();
    let first = segments[0];
    let end = segments
        .get(1)
        .map_or_else(|| key_space_for(fleet.order()), |next| next.start);
    let mid = first.start + (end - first.start) / 2;
    let to = (first.shard + 1) % SHARDS as u32;
    let r = fleet.migrate_range(first.start, mid, to).unwrap();
    println!(
        "manual migration: moved {} vehicles shard {} -> {} (epoch {})",
        r.moved, r.from, r.to, r.epoch
    );
    print_loads(&fleet, "final");
    assert_eq!(fleet.len(), FLEET + HOTSPOT);
}
