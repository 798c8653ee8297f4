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
            index.checkpoint().unwrap();
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
        index.checkpoint().unwrap();
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
        index.checkpoint().unwrap();
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
    for writer in [IndexOptions::generalized(), IndexOptions::top_down()] {
        lbu_reopen_of(writer);
    }
}

/// Build with `writer` (no parent pointers; TD keeps no hash index on
/// disk either), reopen as LBU: the reopen path must install leaf
/// parent pointers before LBU updates run.
fn lbu_reopen_of(writer: IndexOptions) {
    let dir = TempDir::new("persist");
    let path = dir.file("parents.bur");
    let mut rng = StdRng::seed_from_u64(31);
    {
        let disk = Arc::new(FileDisk::create(&path, writer.page_size).unwrap());
        let mut index = IndexBuilder::with_options(writer)
            .disk(disk)
            .build_index()
            .unwrap();
        populate(&mut index, &mut rng, 1_500);
        index.checkpoint().unwrap();
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
        index.checkpoint().unwrap();
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

/// A durable file written before the log moved out of the data file
/// fails closed in every mode, with the typed error that names `burctl
/// upgrade`, and keeps its bytes. The fixture was written through
/// `.disk(Arc<FileDisk>)` when that kept the log inside the file: seed
/// 41, 200 objects populated and checkpointed, then 100 moves that live
/// only in that log. After `burctl upgrade` the pair reopens with every
/// acknowledged position and keeps logging to its sidecar.
#[test]
fn old_layout_file_fails_closed_until_burctl_upgrade() {
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/old-layout.bur"
    ))
    .unwrap();
    let dir = TempDir::new("persist");
    let path = dir.file("old-layout.bur");
    let sidecar = bur::core::log_path(&path);
    std::fs::write(&path, &fixture).unwrap();
    for mode in [OpenMode::Open, OpenMode::Recover] {
        let err = IndexBuilder::generalized()
            .file(&path)
            .mode(mode)
            .build_index()
            .unwrap_err();
        let named = path.display().to_string();
        assert!(
            matches!(&err, CoreError::LogMissing(msg)
                if msg.contains(&format!("burctl upgrade {named}"))),
            "{mode:?}: {err}"
        );
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        fixture,
        "a refusal writes nothing"
    );
    assert!(!sidecar.exists());

    let upgrade = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_burctl"))
            .arg("upgrade")
            .arg(&path)
            .output()
            .unwrap()
    };
    let out = upgrade();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sidecar.exists(), "the log moved to its sidecar");

    // The acknowledged positions, regenerated from the fixture's seed.
    let mut rng = StdRng::seed_from_u64(41);
    let mut twin = IndexBuilder::generalized().build_index().unwrap();
    let mut positions = populate(&mut twin, &mut rng, 200);
    churn(&mut twin, &mut positions, &mut rng, 100);

    let mut index = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build_index()
        .unwrap();
    assert!(index.is_durable());
    assert_eq!(index.len(), 200);
    index.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        assert!(
            index.point_query(*p).unwrap().contains(&(oid as u64)),
            "acknowledged position of {oid} lost"
        );
    }
    // It keeps logging to the sidecar: churn, crash, recover.
    churn(&mut index, &mut positions, &mut rng, 50);
    drop(index);
    let index = IndexBuilder::generalized()
        .file(&path)
        .recover()
        .build_index()
        .unwrap();
    index.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        assert!(index.point_query(*p).unwrap().contains(&(oid as u64)));
    }
    drop(index);
    assert!(
        !upgrade().status.success(),
        "an upgraded file has nothing to upgrade"
    );
}

/// The same fixture with page 0 torn, as a crash inside the old layout's
/// checkpoint leaves it: it still fails closed naming `burctl upgrade`,
/// and the upgrade recovers every acknowledged position from the log
/// inside the file.
#[test]
fn old_layout_file_with_a_torn_page_0_fails_closed_and_upgrades() {
    let mut fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/old-layout.bur"
    ))
    .unwrap();
    let page_size = IndexOptions::default().page_size;
    fixture[..page_size / 2].fill(0);
    let dir = TempDir::new("persist");
    let path = dir.file("torn.bur");
    std::fs::write(&path, &fixture).unwrap();
    let err = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build_index()
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::LogMissing(msg) if msg.contains("burctl upgrade")),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), fixture);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_burctl"))
        .arg("upgrade")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut rng = StdRng::seed_from_u64(41);
    let mut twin = IndexBuilder::generalized().build_index().unwrap();
    let mut positions = populate(&mut twin, &mut rng, 200);
    churn(&mut twin, &mut positions, &mut rng, 100);
    let index = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build_index()
        .unwrap();
    index.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        assert!(index.point_query(*p).unwrap().contains(&(oid as u64)));
    }
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

/// `create` over an existing index file is refused before either file
/// is touched, durable or not: the index still opens with all of it.
#[test]
fn create_over_an_existing_index_file_is_refused_and_changes_nothing() {
    let dir = TempDir::new("persist");
    let path = dir.file("kept.bur");
    let sidecar = bur::core::log_path(&path);
    let positions = {
        let mut index = IndexBuilder::generalized()
            .durable()
            .file(&path)
            .build_index()
            .unwrap();
        populate(&mut index, &mut StdRng::seed_from_u64(61), 300)
    };
    let (data, log) = (
        std::fs::read(&path).unwrap(),
        std::fs::read(&sidecar).unwrap(),
    );
    for builder in [
        IndexBuilder::generalized().durable(),
        IndexBuilder::generalized(),
    ] {
        let err = builder.file(&path).build_index().unwrap_err();
        assert!(
            matches!(&err, CoreError::BadConfig(msg) if msg.contains("exists")),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), data, "data file untouched");
        assert_eq!(std::fs::read(&sidecar).unwrap(), log, "sidecar untouched");
    }
    let index = IndexBuilder::generalized()
        .file(&path)
        .open()
        .build_index()
        .unwrap();
    assert_eq!(index.len(), 300);
    index.validate().unwrap();
    for (oid, p) in positions.iter().enumerate() {
        assert!(index.point_query(*p).unwrap().contains(&(oid as u64)));
    }
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
    let index = IndexBuilder::generalized()
        .file(&path)
        .recover()
        .build_index()
        .unwrap();
    assert_eq!(index.len(), 50, "only the new index's operations replay");
    assert!(index.recovery_report().unwrap().commits <= 90);
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
    index.checkpoint().unwrap();
    assert!(!sidecar.exists());
}

#[test]
fn a_corrupt_hash_directory_fails_the_open_instead_of_panicking() {
    use bur::storage::DiskBackend;
    let opts = IndexOptions::generalized();
    let dir = TempDir::new("persist");
    let path = dir.file("corrupt-directory.bur");
    {
        let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
        let mut index = IndexBuilder::with_options(opts)
            .disk(disk)
            .build_index()
            .unwrap();
        populate(&mut index, &mut StdRng::seed_from_u64(3), 300);
        index.checkpoint().unwrap();
    }
    // The directory chain's one page: `[next = none][len]` then level,
    // split pointer, 300 entries, 4 initial buckets, overflow count and
    // the bucket count. Raise the bucket count past the payload.
    let disk = FileDisk::open(&path, opts.page_size).unwrap();
    let mut page = vec![0u8; opts.page_size];
    let head = (0..disk.num_pages())
        .find(|&pid| {
            disk.read(pid, &mut page).unwrap();
            page[0..4] == [0xFF; 4]
                && page[18..26] == 300u64.to_le_bytes()
                && page[26..30] == 4u32.to_le_bytes()
        })
        .expect("the hash directory page");
    disk.read(head, &mut page).unwrap();
    page[38..42].copy_from_slice(&u32::MAX.to_le_bytes());
    disk.write(head, &page).unwrap();
    disk.sync().unwrap();
    drop(disk);

    let opened = IndexBuilder::with_options(opts)
        .disk(Arc::new(FileDisk::open(&path, opts.page_size).unwrap()))
        .open()
        .build_index();
    match opened {
        Err(CoreError::Storage(e)) => assert!(e.to_string().contains("hash directory"), "{e}"),
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("opened an index over a corrupt hash directory"),
    }
}

#[test]
fn metadata_whose_height_disagrees_with_the_root_fails_the_open() {
    use bur::storage::DiskBackend;
    let opts = IndexOptions::generalized();
    let dir = TempDir::new("persist");
    let path = dir.file("corrupt-height.bur");
    {
        let disk = Arc::new(FileDisk::create(&path, opts.page_size).unwrap());
        let mut index = IndexBuilder::with_options(opts)
            .disk(disk)
            .build_index()
            .unwrap();
        populate(&mut index, &mut StdRng::seed_from_u64(5), 2_000);
        assert_eq!(index.height(), 3);
        index.checkpoint().unwrap();
    }
    // Page 0: the 6-byte chain header, then the snapshot, whose height
    // is the `u32` at payload offset 20 (magic, page size, flags, root).
    let mut page = vec![0u8; opts.page_size];
    let disk = FileDisk::open(&path, opts.page_size).unwrap();
    disk.read(0, &mut page).unwrap();
    assert_eq!(page[26..30], 3u32.to_le_bytes(), "the stored height");
    drop(disk);
    for height in [0u32, 1, 9] {
        page[26..30].copy_from_slice(&height.to_le_bytes());
        let disk = FileDisk::open(&path, opts.page_size).unwrap();
        disk.write(0, &page).unwrap();
        disk.sync().unwrap();
        drop(disk);

        let opened = IndexBuilder::with_options(opts)
            .disk(Arc::new(FileDisk::open(&path, opts.page_size).unwrap()))
            .open()
            .build_index();
        match opened {
            Err(CoreError::BadConfig(msg)) => {
                assert!(msg.contains("corrupt index metadata"), "{msg}");
            }
            Err(e) => panic!("height {height}: unexpected error: {e}"),
            Ok(_) => panic!("height {height}: opened an index whose root is at level 2"),
        }
    }
}
