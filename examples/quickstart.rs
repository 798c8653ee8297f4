//! Quickstart: build a shared handle, load it with one batch, move
//! objects, query through streaming cursors — and watch which bottom-up
//! path each update takes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bur::core::OpSnapshot;
use bur::prelude::*;

fn main() -> CoreResult<()> {
    // A generalized-bottom-up (GBU) index with the paper's default
    // tuning: ε = 0.003, τ = 0.03, unrestricted ascent, piggybacking and
    // summary-assisted queries on. Pages are 1 KiB, as in the paper.
    // `build()` returns the clonable `Bur` handle — the one entry point
    // for single- and multi-threaded use alike.
    let bur = IndexBuilder::generalized().build()?;

    // Index a small fleet of point objects (seeded, reproducible) as one
    // batch: one lock acquisition — and, on a durable index, one WAL
    // group commit record — instead of a thousand.
    println!("indexing 1000 objects in one batch ...");
    let workload = Workload::generate(WorkloadConfig {
        num_objects: 1000,
        seed: 7,
        ..WorkloadConfig::default()
    });
    let mut load = Batch::with_capacity(1000);
    for (oid, pos) in workload.items() {
        load.insert(oid, pos);
    }
    let ticket = bur.apply(&load)?;
    println!(
        "loaded {} objects (tree height {})",
        ticket.report().inserted,
        bur.height(),
    );

    // Move an object a little: resolved entirely inside its leaf. A
    // single update is a batch of one; the op stats say which path it
    // took.
    let p5 = workload.positions()[5];
    let p6 = workload.positions()[6];
    let before = bur.with_op_stats(|s| s.snapshot());
    bur.update(5, p5, p5.translated(0.005, 0.003))?;
    println!("small move   -> {}", outcome_since(&bur, &before));

    // Move an object further: the index extends, shifts to a sibling, or
    // ascends — whatever is cheapest — without a top-down delete+insert.
    let before = bur.with_op_stats(|s| s.snapshot());
    bur.update(6, p6, Point::new(0.5, 0.5))?;
    println!("large move   -> {}", outcome_since(&bur, &before));

    // Window query (answered through the main-memory summary structure),
    // streamed through a cursor backed by a recycled buffer.
    let window = Rect::new(0.45, 0.45, 0.55, 0.55);
    let mut hits: Vec<u64> = bur.query(&window)?.collect();
    hits.sort_unstable();
    println!("objects in {window}: {hits:?}");

    // The k nearest neighbors stream the same way, closest first.
    let nearest: Vec<u64> = bur
        .nearest(Point::new(0.5, 0.5), 3)?
        .map(|n| n.oid)
        .collect();
    println!("3 nearest to the center: {nearest:?}");

    // Physical I/O so far, from the buffer-pool counters the experiments
    // are built on.
    let io = bur.io_snapshot();
    println!(
        "physical I/O: {} reads, {} writes ({} logical fetches, hit ratio {:.0}%)",
        io.reads,
        io.writes,
        io.fetches,
        io.hit_ratio().unwrap_or(0.0) * 100.0
    );

    // Outcome distribution across all updates.
    bur.with_op_stats(|s| println!("op stats: {}", s.snapshot()));

    // The index checks its own invariants (used heavily in the tests).
    bur.validate()?;
    println!("validate(): ok");
    Ok(())
}

/// The outcome class of the update applied since `before`.
fn outcome_since(bur: &Bur, before: &OpSnapshot) -> &'static str {
    let d = bur.with_op_stats(|s| s.snapshot()).since(before);
    let taken = [
        d.upd_in_place,
        d.upd_extended,
        d.upd_shifted,
        d.upd_ascended,
        d.upd_top_down,
    ];
    let class = taken.iter().position(|&n| n > 0).expect("one update");
    ["InPlace", "Extended", "Shifted", "Ascended", "TopDown"][class]
}
