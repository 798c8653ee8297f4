//! Cross-crate persistence tests: indexes written to a file-backed disk
//! must reopen bit-identically (same answers), across strategies and
//! even across *strategy switches* (the reopen path rebuilds whatever
//! main-memory or secondary state the new strategy needs).

mod common;

use bur::prelude::*;
use common::TempDir;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

fn populate(index: &mut RTreeIndex, rng: &mut StdRng, n: u64) -> Vec<Point> {
    let mut positions = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        index.insert(oid, p).unwrap();
        positions.push(p);
    }
    positions
}

fn churn(index: &mut RTreeIndex, positions: &mut [Point], rng: &mut StdRng, updates: usize) {
    for _ in 0..updates {
        let oid = rng.random_range(0..positions.len() as u64);
        let old = positions[oid as usize];
        let new = old.translated(rng.random_range(-0.05..0.05), rng.random_range(-0.05..0.05));
        index.update(oid, old, new).unwrap();
        positions[oid as usize] = new;
    }
}

fn queries_match(a: &RTreeIndex, b: &RTreeIndex, rng: &mut StdRng) {
    for _ in 0..20 {
        let x = rng.random_range(0.0..0.8);
        let y = rng.random_range(0.0..0.8);
        let w = Rect::new(x, y, x + 0.2, y + 0.2);
        let mut ra = a.query(&w).unwrap();
        let mut rb = b.query(&w).unwrap();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb, "reopened index answers differ on {w}");
    }
}

#[test]
fn persist_reopen_roundtrip_all_strategies() {
    for (name, opts) in [
        ("td", IndexOptions::top_down()),
        ("lbu", IndexOptions::localized()),
        ("gbu", IndexOptions::generalized()),
    ] {
        let dir = TempDir::new("persist");
        let path = dir.file(&format!("roundtrip-{name}.bur"));
        let mut rng = StdRng::seed_from_u64(404);
        let mut reference = IndexBuilder::with_options(opts).build_index().unwrap();
        {
            // Build the durable index and an identical in-memory twin.
            let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
            let mut index = IndexBuilder::with_options(opts)
                .disk(disk)
                .build_index()
                .unwrap();
            let mut rng2 = StdRng::seed_from_u64(404);
            let positions = populate(&mut index, &mut rng, 1_500);
            let ref_positions = populate(&mut reference, &mut rng2, 1_500);
            assert_eq!(positions, ref_positions);
            churn(
                &mut index,
                &mut positions.clone(),
                &mut StdRng::seed_from_u64(9),
                2_000,
            );
            churn(
                &mut reference,
                &mut positions.clone(),
                &mut StdRng::seed_from_u64(9),
                2_000,
            );
            index.persist().unwrap();
            assert_eq!(index.len(), 1_500);
        }

        let disk = Arc::new(FileDisk::open(&path, opts.page_size).unwrap());
        let reopened = IndexBuilder::with_options(opts)
            .disk(disk)
            .open()
            .build_index()
            .unwrap();
        assert_eq!(reopened.len(), 1_500, "{name}");
        reopened
            .validate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        queries_match(&reopened, &reference, &mut StdRng::seed_from_u64(5));
    }
}

#[test]
fn reopened_index_keeps_working() {
    let opts = IndexOptions::generalized();
    let dir = TempDir::new("persist");
    let path = dir.file("keeps-working.bur");
    let mut rng = StdRng::seed_from_u64(77);
    let mut positions;
    {
        let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
        let mut index = IndexBuilder::with_options(opts)
            .disk(disk)
            .build_index()
            .unwrap();
        positions = populate(&mut index, &mut rng, 2_000);
        index.persist().unwrap();
    }
    let disk = Arc::new(FileDisk::open(&path, opts.page_size).unwrap());
    let mut index = IndexBuilder::with_options(opts)
        .disk(disk)
        .open()
        .build_index()
        .unwrap();
    // Updates, inserts, deletes and queries must all work post-reopen.
    churn(&mut index, &mut positions, &mut rng, 3_000);
    for oid in 2_000..2_200u64 {
        index
            .insert(oid, Point::new(rng.random_range(0.0..1.0), 0.5))
            .unwrap();
    }
    for oid in 0..100u64 {
        assert!(index.delete(oid, positions[oid as usize]).unwrap());
    }
    assert_eq!(index.len(), 2_000 + 200 - 100);
    index.validate().unwrap();
}

#[test]
fn strategy_switch_on_reopen() {
    // Build with TD (no hash index on disk), reopen as GBU: the hash
    // index and summary must be rebuilt from the stored tree.
    let td = IndexOptions::top_down();
    let dir = TempDir::new("persist");
    let path = dir.file("switch.bur");
    let mut rng = StdRng::seed_from_u64(123);
    {
        let disk = Arc::new(FileDisk::create(&path, td.page_size).unwrap());
        let mut index = IndexBuilder::with_options(td)
            .disk(disk)
            .build_index()
            .unwrap();
        populate(&mut index, &mut rng, 1_200);
        index.persist().unwrap();
    }
    let gbu = IndexOptions::generalized();
    let disk = Arc::new(FileDisk::open(&path, gbu.page_size).unwrap());
    let mut index = IndexBuilder::with_options(gbu)
        .disk(disk)
        .open()
        .build_index()
        .unwrap();
    assert_eq!(index.len(), 1_200);
    index.validate().unwrap();
    assert!(index.hash_pages() > 0, "hash index must have been rebuilt");
    assert!(index.summary().is_some());
    // Bottom-up updates must work on the rebuilt state.
    let mut rng2 = StdRng::seed_from_u64(123);
    let mut positions = Vec::new();
    for _ in 0..1_200 {
        positions.push(Point::new(
            rng2.random_range(0.0..1.0),
            rng2.random_range(0.0..1.0),
        ));
    }
    churn(&mut index, &mut positions, &mut rng, 2_000);
    index.validate().unwrap();
}

#[test]
fn lbu_reopen_repairs_parent_pointers() {
    // Build with GBU (no parent pointers), reopen as LBU: the reopen
    // path must install leaf parent pointers before LBU updates run.
    let gbu = IndexOptions::generalized();
    let dir = TempDir::new("persist");
    let path = dir.file("parents.bur");
    let mut rng = StdRng::seed_from_u64(31);
    {
        let disk = Arc::new(FileDisk::create(&path, gbu.page_size).unwrap());
        let mut index = IndexBuilder::with_options(gbu)
            .disk(disk)
            .build_index()
            .unwrap();
        populate(&mut index, &mut rng, 1_500);
        index.persist().unwrap();
    }
    let lbu = IndexOptions::localized();
    let disk = Arc::new(FileDisk::open(&path, lbu.page_size).unwrap());
    let mut index = IndexBuilder::with_options(lbu)
        .disk(disk)
        .open()
        .build_index()
        .unwrap();
    index.validate().unwrap(); // validate() checks leaf parent pointers in LBU mode
    let mut rng2 = StdRng::seed_from_u64(31);
    let mut positions = Vec::new();
    for _ in 0..1_500 {
        positions.push(Point::new(
            rng2.random_range(0.0..1.0),
            rng2.random_range(0.0..1.0),
        ));
    }
    churn(&mut index, &mut positions, &mut rng, 2_000);
    index.validate().unwrap();
}

#[test]
fn open_rejects_garbage_and_mismatched_page_size() {
    let opts = IndexOptions::generalized();
    let dir = TempDir::new("persist");
    let path = dir.file("garbage.bur");
    {
        // A file with one zeroed page is not a bur index.
        let disk = FileDisk::create(&path, opts.page_size).unwrap();
        use bur::storage::DiskBackend;
        disk.allocate().unwrap();
    }
    let disk = Arc::new(FileDisk::open(&path, opts.page_size).unwrap());
    let err = IndexBuilder::with_options(opts)
        .disk(disk)
        .open()
        .build_index()
        .unwrap_err();
    assert!(err.to_string().contains("magic"), "got: {err}");

    // Page-size mismatch is rejected before any parsing.
    let path2 = dir.file("mismatch.bur");
    {
        let disk = Arc::new(FileDisk::create(&path2, 2048).unwrap());
        let mut o = opts;
        o.page_size = 2048;
        let mut index = IndexBuilder::with_options(o)
            .disk(disk)
            .build_index()
            .unwrap();
        index.insert(1, Point::new(0.5, 0.5)).unwrap();
        index.persist().unwrap();
    }
    let disk = Arc::new(FileDisk::open(&path2, 1024).unwrap());
    let err = IndexBuilder::with_options(opts)
        .disk(disk)
        .open()
        .build_index()
        .unwrap_err();
    assert!(err.to_string().contains("page size"), "got: {err}");
}

// ---- the file pair: `<path>` + `<path>.wal` ---------------------------------

/// A durable file written before the log moved out — built through
/// `.disk(Arc<FileDisk>)`, so its log sits at page 1 and there is no
/// sidecar — reopens through `.file(path)`, recovers the tail it never
/// flushed, and keeps logging in place.
#[test]
fn parent_layout_durable_file_reopens_and_keeps_logging_in_place() {
    let opts = IndexOptions::generalized().with_durability(Durability::Wal(WalOptions {
        checkpoint_every: 1_000_000,
    }));
    let dir = TempDir::new("persist");
    let path = dir.file("old-layout.bur");
    let sidecar = bur::core::log_path(&path);
    let mut rng = StdRng::seed_from_u64(41);
    let mut positions;
    {
        let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
        let mut index = IndexBuilder::with_options(opts)
            .disk(disk)
            .build_index()
            .unwrap();
        positions = populate(&mut index, &mut rng, 400);
        index.checkpoint().unwrap();
        // The unflushed tail: committed to the in-file log, not in the
        // base image. Dropping without a checkpoint is the crash.
        churn(&mut index, &mut positions, &mut rng, 300);
    }
    assert!(!sidecar.exists(), "the parent layout has no sidecar");

    for round in 0..2 {
        let mut index = IndexBuilder::with_options(IndexOptions::generalized())
            .file(&path)
            .open()
            .build_index()
            .unwrap();
        assert!(index.is_durable(), "durability is the file's property");
        assert_eq!(index.len(), 400);
        index.validate().unwrap();
        for (oid, p) in positions.iter().enumerate() {
            assert!(
                index.point_query(*p).unwrap().contains(&(oid as u64)),
                "round {round}: acknowledged position of {oid} lost"
            );
        }
        // Keeps working, again without a clean shutdown.
        churn(&mut index, &mut positions, &mut rng, 200);
        assert!(!sidecar.exists(), "an in-place log stays in place");
    }
    let files = bur::core::IndexFiles::open(&path, opts.page_size).unwrap();
    assert!(files.sidecar.is_none());
    assert_eq!(files.anchor, Some(bur::core::WAL_ANCHOR));
}

/// A new-layout file whose sidecar vanished fails closed with a typed
/// error from every way in — never as an index rolled back to its last
/// checkpoint, never as an empty one.
#[test]
fn missing_sidecar_fails_closed_with_a_typed_error() {
    let dir = TempDir::new("persist");
    let path = dir.file("pair.bur");
    let sidecar = bur::core::log_path(&path);
    {
        let mut index = IndexBuilder::generalized()
            .durable()
            .file(&path)
            .build_index()
            .unwrap();
        populate(&mut index, &mut StdRng::seed_from_u64(43), 200);
    }
    assert!(sidecar.exists(), "a durable file keeps its log beside it");
    std::fs::remove_file(&sidecar).unwrap();

    let open = IndexBuilder::generalized().file(&path).open().build_index();
    assert!(matches!(open, Err(CoreError::LogMissing(_))), "{open:?}");
    let recover = IndexBuilder::generalized()
        .file(&path)
        .recover()
        .build_index();
    assert!(
        matches!(recover, Err(CoreError::LogMissing(_))),
        "{recover:?}"
    );
    // Bringing the data file as a bare disk is no way around it.
    let disk = Arc::new(FileDisk::open(&path, 1024).unwrap());
    let bare = IndexBuilder::generalized().disk(disk).open().build_index();
    assert!(matches!(bare, Err(CoreError::LogMissing(_))), "{bare:?}");
    assert!(
        !sidecar.exists(),
        "a refused open must not conjure an empty log"
    );
}

/// `create` over a path whose old sidecar is still there starts from
/// nothing: the stale log is truncated, not replayed.
#[test]
fn create_over_a_stale_sidecar_does_not_replay_it() {
    let dir = TempDir::new("persist");
    let path = dir.file("reborn.bur");
    let sidecar = bur::core::log_path(&path);
    {
        let mut index = IndexBuilder::generalized()
            .durable()
            .file(&path)
            .build_index()
            .unwrap();
        populate(&mut index, &mut StdRng::seed_from_u64(47), 300);
    }
    assert!(std::fs::metadata(&sidecar).unwrap().len() > 1024);
    std::fs::remove_file(&path).unwrap();

    let mut positions;
    {
        let mut index = IndexBuilder::generalized()
            .durable()
            .file(&path)
            .build_index()
            .unwrap();
        assert_eq!(index.len(), 0);
        positions = populate(&mut index, &mut StdRng::seed_from_u64(53), 50);
        churn(
            &mut index,
            &mut positions,
            &mut StdRng::seed_from_u64(59),
            40,
        );
    }
    let (index, report) = IndexBuilder::generalized()
        .file(&path)
        .recover()
        .build_index_with_report()
        .unwrap();
    assert_eq!(index.len(), 50, "only the new index's operations replay");
    assert!(report.unwrap().committed_ops <= 90);
    index.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        assert!(index.point_query(*p).unwrap().contains(&(oid as u64)));
    }

    // A volatile index created over the path takes the old sidecar away.
    drop(index);
    std::fs::remove_file(&path).unwrap();
    let mut index = IndexBuilder::generalized()
        .file(&path)
        .build_index()
        .unwrap();
    index.insert(1, Point::new(0.5, 0.5)).unwrap();
    index.persist().unwrap();
    assert!(!sidecar.exists());
}
