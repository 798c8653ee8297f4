//! Heap allocations on the hot paths of a resident volatile tree,
//! counted per thread by a global allocator that forwards to the system
//! allocator. The engine reads and edits node pages where they lie, so
//! the paper's cheapest updates — in place, or with the parent entry
//! extended — allocate nothing, and neither does a small window query,
//! whatever the number of pages it reads.
//!
//! The counts are pinned: they are deterministic for the seeds below,
//! and a change that moves one is re-pinned deliberately. With a decoded
//! node per page read they were 4 567 allocations for the 3 958 updates
//! in place or extended, 10 840 for the 2 000 windows and 14 138 for the
//! 6 400 batched updates; with a frontier `Vec` per level of the summary
//! walk the windows took 5 957, and with a leaf list per window 1 956.
//!
//! This file is a test binary of its own: the allocator is process-wide.

// The counting allocator implements `GlobalAlloc`, an unsafe trait, by
// forwarding every call to `System` unchanged.
#![allow(unsafe_code)]

use bur_core::{Batch, IndexBuilder, RTreeIndex, UpdateOutcome};
use bur_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const OBJECTS: u64 = 20_000;

/// A GBU tree of [`OBJECTS`] random points whose every page stays
/// resident, with the positions it holds.
fn resident_tree() -> (RTreeIndex, Vec<Point>) {
    let mut index = IndexBuilder::generalized()
        .buffer_frames(8_192)
        .build_index()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let mut positions = Vec::new();
    for oid in 0..OBJECTS {
        let p = Point::new(rng.random(), rng.random());
        index.insert(oid, p).unwrap();
        positions.push(p);
    }
    (index, positions)
}

fn moved(rng: &mut StdRng, p: Point, max_distance: f32) -> Point {
    Point::new(
        (p.x + rng.random_range(-max_distance..max_distance)).clamp(0.0, 1.0),
        (p.y + rng.random_range(-max_distance..max_distance)).clamp(0.0, 1.0),
    )
}

#[test]
fn allocation_counts_on_the_hot_paths() {
    let (mut index, mut positions) = resident_tree();
    let mut rng = StdRng::seed_from_u64(7);

    // Single updates at the paper's slow speed, by outcome.
    let (mut local, mut local_allocations, mut other, mut other_allocations) = (0, 0, 0, 0);
    for _ in 0..4_000 {
        let oid = rng.random_range(0..OBJECTS);
        let (old, new) = (
            positions[oid as usize],
            moved(&mut rng, positions[oid as usize], 0.003),
        );
        let (outcome, n) = allocations(|| index.update(oid, old, new).unwrap());
        positions[oid as usize] = new;
        match outcome {
            UpdateOutcome::InPlace | UpdateOutcome::Extended => {
                local += 1;
                local_allocations += n;
            }
            _ => {
                other += 1;
                other_allocations += n;
            }
        }
    }
    assert_eq!((local, other), (3_958, 42), "the workload's outcomes moved");
    assert_eq!(
        local_allocations, 0,
        "an update in place or extended builds no node"
    );
    // Repairs build nodes from nothing (split halves, orphan lists).
    assert_eq!(other_allocations, 156);

    // Small windows, into a buffer kept across queries.
    let mut hits = Vec::with_capacity(1_024);
    let mut window_allocations = 0;
    for _ in 0..2_000 {
        let (x, y): (f32, f32) = (rng.random(), rng.random());
        let (w, h): (f32, f32) = (rng.random_range(0.0..0.01), rng.random_range(0.0..0.01));
        hits.clear();
        let ((), n) = allocations(|| {
            index
                .query_into(&Rect::new(x, y, x + w, y + h), &mut hits)
                .unwrap()
        });
        window_allocations += n;
    }
    // The list of leaves to read is one buffer per thread, kept across
    // queries: it grows twice, and after that a window allocates nothing
    // however many pages it reads (the summary walk allocates nothing).
    assert_eq!(window_allocations, 2);

    // 32-update batches through the shared handle.
    let bur = IndexBuilder::generalized()
        .buffer_frames(8_192)
        .build()
        .unwrap();
    let mut batch = Batch::new();
    for oid in 0..OBJECTS {
        batch.insert(oid, positions[oid as usize]);
        if batch.len() == 1_024 {
            bur.apply(&batch).unwrap();
            batch = Batch::new();
        }
    }
    bur.apply(&batch).unwrap();
    let mut batch_allocations = 0;
    for _ in 0..200 {
        let mut batch = Batch::with_capacity(32);
        for _ in 0..32 {
            let oid = rng.random_range(0..OBJECTS);
            let new = moved(&mut rng, positions[oid as usize], 0.003);
            batch.update(oid, positions[oid as usize], new);
            positions[oid as usize] = new;
        }
        let (_, n) = allocations(|| bur.apply(&batch).unwrap());
        batch_allocations += n;
    }
    // The shared pass's own bookkeeping, per batch: under one allocation
    // per update.
    assert_eq!(batch_allocations, 5_112);
}
