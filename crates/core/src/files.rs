//! An index on a real file is a file *pair*: `<path>` holds the tree,
//! the hash index and the metadata chain; `<path>.wal` holds the
//! write-ahead log of a durable index. Everything that opens, ships or
//! inspects an index file resolves the pair through [`IndexFiles`].
//!
//! Files written before the log moved out chain it inside the data file
//! instead. They fail closed with [`CoreError::LogMissing`] until
//! [`upgrade`] (`burctl upgrade <path>`) moves the log to its sidecar.

use crate::commit::Log;
use crate::config::{Durability, IndexOptions};
use crate::error::{CoreError, CoreResult};
use crate::index::{check_page_size, redo_log, RTreeIndex, RecoveryReport};
use crate::meta::{read_meta_chain, MetaSnapshot, LOG_DISK_ANCHOR};
use crate::tree::RTree;
use bur_storage::{BufferPool, DiskBackend, FileDisk, PageId, PoolConfig, INVALID_PAGE};
use bur_wal::{LogReader, Wal, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The sidecar holding the write-ahead log of the index file at `path`:
/// the same name with `.wal` appended (`fleet.bur` → `fleet.bur.wal`).
#[must_use]
pub fn log_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".wal");
    PathBuf::from(name)
}

/// What [`stored_snapshot`] read: the snapshot, its old-layout flag and
/// the chain's continuation pages, or why page 0 holds none.
pub(crate) type Stored = CoreResult<((MetaSnapshot, bool), Vec<PageId>)>;

/// The metadata snapshot stored in the chain headed at page 0, with
/// [`MetaSnapshot::decode`]'s old-layout flag, and the continuation pages
/// it occupies — an error when the chain does not hold a genuine
/// snapshot. Walked defensively: a crash inside a chain rewrite can leave
/// torn links, so the pages are only trusted when the walked payload
/// round-trips.
pub(crate) fn stored_snapshot(pool: &BufferPool) -> Stored {
    let (payload, pages) = read_meta_chain(pool)?;
    Ok((MetaSnapshot::decode(&payload)?, pages))
}

fn open_file(path: &Path, page_size: usize) -> CoreResult<Arc<dyn DiskBackend>> {
    Ok(Arc::new(FileDisk::open(path, page_size).map_err(|e| {
        CoreError::BadConfig(format!("cannot open {}: {e}", path.display()))
    })?))
}

/// An existing index file opened together with its log sidecar.
pub struct IndexFiles {
    /// The page file at the path itself.
    pub data: Arc<dyn DiskBackend>,
    /// The `.wal` sidecar of a durable file; `None` for a volatile one.
    pub sidecar: Option<Arc<dyn DiskBackend>>,
    /// Page 0's chain as the open read it, so opening the index does
    /// not decode it again.
    pub(crate) stored: Stored,
}

impl IndexFiles {
    /// Open the index file at `path` and, when its metadata says it is
    /// durable, its sidecar. A durable file whose sidecar is gone fails
    /// with [`CoreError::LogMissing`] — never with an index silently
    /// rolled back to its last checkpoint — and so does a file that keeps
    /// its log inside it.
    pub fn open(path: &Path, page_size: usize) -> CoreResult<Self> {
        let data = open_file(path, page_size)?;
        let sidecar_path = log_path(path);
        let stored = stored_snapshot(&BufferPool::new(data.clone(), PoolConfig::default()));
        let durable = match &stored {
            Ok(((_, true), _)) => return Err(in_file_log(path)),
            Ok(((snap, false), _)) => snap.wal_anchor != INVALID_PAGE,
            // Page 0 is rewritten in place at every checkpoint; when a
            // crash tore it, the log (which carries the snapshot in every
            // commit record) is the authority: the sidecar, or else a log
            // chained inside the file.
            Err(_) if sidecar_path.exists() => true,
            Err(_) if LogReader::open(data.as_ref(), LEGACY_LOG_ANCHOR)?.is_some() => {
                return Err(in_file_log(path))
            }
            Err(_) => false,
        };
        let sidecar = if durable {
            if !sidecar_path.exists() {
                return Err(CoreError::LogMissing(format!(
                    "{} keeps its log in {}, which does not exist",
                    path.display(),
                    sidecar_path.display()
                )));
            }
            Some(open_file(&sidecar_path, page_size)?)
        } else {
            None
        };
        Ok(Self {
            data,
            sidecar,
            stored,
        })
    }
}

/// Where the log of a file written before the log moved out is chained
/// from: page 1 of the data file, right after the metadata page.
const LEGACY_LOG_ANCHOR: PageId = 1;

/// Whether `log` holds a commit or checkpoint that recovery can start
/// from. A page of it that cannot be read is an error.
fn holds_recovery_point(log: &dyn DiskBackend) -> CoreResult<bool> {
    let Some(mut reader) = LogReader::open(log, LOG_DISK_ANCHOR)? else {
        return Ok(false);
    };
    while let Some((_, rec)) = reader.next_record()? {
        if matches!(rec, WalRecord::Commit { .. } | WalRecord::Checkpoint { .. }) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The refusal of an index file whose log is chained inside it.
fn in_file_log(path: &Path) -> CoreError {
    CoreError::LogMissing(format!(
        "{0} keeps its write-ahead log inside the data file, a layout this build no longer \
         opens; run `burctl upgrade {0}` once to move the log to its sidecar",
        path.display()
    ))
}

/// Move the write-ahead log of the old-layout index file at `path` into
/// its sidecar: redo the old log to its last commit or checkpoint, as
/// recovery does, create the sidecar and checkpoint into it. Returns the
/// upgraded index and what the redo did. The old log's pages stay in the
/// data file, unused. A file whose page 0 was torn upgrades from its old
/// log alone. A file without an in-file log is refused unchanged.
///
/// Cut short anywhere, the upgrade leaves a file that either still names
/// its old log, intact — run the upgrade again — or names a sidecar that
/// holds a recovery point: the redone pages reach the data file, and a
/// commit of their snapshot the sidecar, before page 0 moves.
pub fn upgrade(path: &Path, opts: IndexOptions) -> CoreResult<(RTreeIndex, RecoveryReport)> {
    let sidecar = log_path(path);
    let data = open_file(path, opts.page_size)?;
    let recovers = match open_file(&sidecar, opts.page_size) {
        Ok(log) => holds_recovery_point(log.as_ref())?,
        Err(_) => false,
    };
    upgrade_on(data, recovers, opts, || {
        // Truncates whatever an interrupted upgrade left there: page 0
        // still names the old log, so nothing in the sidecar is live.
        let log = FileDisk::create(&sidecar, opts.page_size).map_err(|e| {
            CoreError::BadConfig(format!("cannot create {}: {e}", sidecar.display()))
        })?;
        Ok(Arc::new(log))
    })
}

/// [`upgrade`] on disks: `data` holds the index, `log_recovers` says
/// whether its log disk holds a recovery point already (a torn page 0
/// beside one belongs to an upgraded file), and `create_log` makes that
/// disk, empty, once `data` is known to need it.
fn upgrade_on(
    data: Arc<dyn DiskBackend>,
    log_recovers: bool,
    opts: IndexOptions,
    create_log: impl FnOnce() -> CoreResult<Arc<dyn DiskBackend>>,
) -> CoreResult<(RTreeIndex, RecoveryReport)> {
    let Durability::Wal(wopts) = opts.durability else {
        return Err(CoreError::BadConfig("upgrade needs durable options".into()));
    };
    opts.validate()?;
    let pool = Arc::new(BufferPool::new(
        data.clone(),
        PoolConfig {
            capacity: opts.buffer_frames,
        },
    ));
    let stored = stored_snapshot(&pool).ok();
    let old_layout = stored.as_ref().map_or(!log_recovers, |((_, old), _)| *old);
    // A page of the old log that cannot be read fails the upgrade here,
    // before the sidecar is created or page 0 rewritten.
    let redone = if old_layout {
        redo_log(&pool, data.as_ref(), LEGACY_LOG_ANCHOR)?
    } else {
        None
    };
    let (mut snap, report, old_log) = redone.ok_or_else(|| {
        CoreError::BadConfig("the file keeps no log inside it; there is nothing to upgrade".into())
    })?;
    check_page_size("logged", snap.page_size, "configured", opts.page_size)?;
    // The redone image is durable while page 0 still names the old log,
    // and the sidecar holds a recovery point before the checkpoint
    // rewrites page 0.
    pool.flush_all()?;
    let wal = Wal::create(create_log()?)?;
    snap.wal_anchor = wal.anchor();
    wal.commit(snap.encode())?;
    let meta_chain = stored.map_or_else(Vec::new, |(_, pages)| pages);
    // Until that checkpoint, an upgrade cut short runs again from the
    // old log: its pages are kept out of the rebuilt hash's reach.
    let mut tree = RTree::from_snapshot(pool, opts, Some(&snap), meta_chain, old_log.pages())?;
    let log = Log::attach(wal, wopts, &mut tree)?;
    let index = RTreeIndex {
        tree,
        log: Some(log),
        recovery: Some(report),
    };
    Ok((index, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_geom::Point;
    use bur_storage::{FaultKind, FaultyDisk, MemDisk};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Written through `.disk(FileDisk)` when that kept the log inside the
    /// file: seed 41, 200 objects populated and checkpointed, then 100
    /// moves that live only in that log.
    const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/old-layout.bur");

    /// The fixture on an in-memory disk; with `torn_page_0`, page 0 as a
    /// crash inside the old layout's checkpoint can leave it.
    fn fixture_disk(page_size: usize, torn_page_0: bool) -> Arc<MemDisk> {
        let disk = Arc::new(MemDisk::new(page_size));
        for (pid, page) in FIXTURE.chunks(page_size).enumerate() {
            assert_eq!(disk.allocate().unwrap(), pid as PageId);
            disk.write(pid as PageId, page).unwrap();
        }
        if torn_page_0 {
            disk.write(0, &vec![0u8; page_size]).unwrap();
        }
        disk
    }

    /// Every object at its last acknowledged position, regenerated from
    /// the fixture's seed the way `tests/persistence.rs` wrote it.
    fn assert_acked(index: &RTreeIndex) {
        let mut rng = StdRng::seed_from_u64(41);
        let mut positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        for _ in 0..100 {
            let oid = rng.random_range(0..positions.len() as u64) as usize;
            positions[oid] = positions[oid]
                .translated(rng.random_range(-0.05..0.05), rng.random_range(-0.05..0.05));
        }
        index.validate().unwrap();
        assert_eq!(index.len(), 200);
        for (oid, p) in positions.iter().enumerate() {
            assert!(
                index.point_query(*p).unwrap().contains(&(oid as u64)),
                "acknowledged position of {oid} lost"
            );
        }
    }

    /// A power cut at every mutating call of an upgrade, data and log on
    /// one supply, page 0 intact or torn: afterwards the file either still
    /// counts as old, and the upgrade runs again, or recovery from the
    /// sidecar finds every acknowledged position.
    #[test]
    fn an_upgrade_cut_at_any_write_reruns_or_recovers() {
        let opts = IndexOptions::durable();
        let ps = opts.page_size;
        let fresh = || Ok(Arc::new(MemDisk::new(ps)) as Arc<dyn DiskBackend>);
        for torn in [false, true] {
            let mut cut = 0;
            loop {
                let (data, log) = (fixture_disk(ps, torn), Arc::new(MemDisk::new(ps)));
                let (fdata, flog) = FaultyDisk::pair(data.clone(), log.clone());
                fdata.power().cut_after(cut);
                let upgraded = upgrade_on(fdata.clone(), false, opts, || Ok(flog.clone()));
                let finished = upgraded.is_ok() && !fdata.power().is_cut();
                drop(upgraded);
                // Every write sent before the cut reaches the platters;
                // the file tools decide the same way.
                fdata.crash(|| true).unwrap();
                flog.crash(|| true).unwrap();
                let probe = BufferPool::new(data.clone(), PoolConfig::default());
                let old = match stored_snapshot(&probe).ok() {
                    Some(((_, old), _)) => old,
                    None => !holds_recovery_point(log.as_ref()).unwrap(),
                };
                let index = if old {
                    upgrade_on(data, false, opts, fresh).unwrap().0
                } else {
                    RTreeIndex::open_on_inner(data, Some(log), opts, true, None)
                        .unwrap_or_else(|e| panic!("torn {torn}, cut at call {cut}: {e}"))
                };
                assert_acked(&index);
                if finished {
                    break;
                }
                cut += 1;
            }
            assert!(
                cut > 10,
                "the sweep crossed the whole upgrade ({cut} calls)"
            );
        }
    }

    /// An old file whose page 0 a crash tore upgrades from its in-file
    /// log; beside a log that recovers, it counts as upgraded already.
    #[test]
    fn an_old_file_with_a_torn_page_0_upgrades_from_its_log() {
        let opts = IndexOptions::durable();
        let ps = opts.page_size;
        let data = fixture_disk(ps, true);
        let log = || Ok(Arc::new(MemDisk::new(ps)) as Arc<dyn DiskBackend>);
        let err = upgrade_on(data.clone(), true, opts, log).unwrap_err();
        assert!(err.to_string().contains("nothing to upgrade"), "{err}");
        let (index, report) = upgrade_on(data, false, opts, log).unwrap();
        assert!(report.commits > 0);
        assert_acked(&index);
    }

    /// A page of the old log that cannot be read fails the upgrade before
    /// it writes anything: no sidecar, page 0 as it was. Redoing the
    /// readable prefix would drop the moves logged behind the page.
    #[test]
    fn an_unreadable_old_log_page_fails_the_upgrade_unchanged() {
        let opts = IndexOptions::durable();
        let ps = opts.page_size;
        let data = fixture_disk(ps, false);
        let pages = bur_wal::scan(data.as_ref(), LEGACY_LOG_ANCHOR)
            .unwrap()
            .expect("the fixture keeps its log inside")
            .pages;
        assert!(pages.len() > 2, "chain: {pages:?}");
        let mut page_0 = vec![0u8; ps];
        data.read(0, &mut page_0).unwrap();
        let faulty = FaultyDisk::new(data.clone());
        faulty.fail_page(FaultKind::Read, pages[pages.len() / 2]);
        let mut created = false;
        let upgraded = upgrade_on(faulty.clone(), false, opts, || {
            created = true;
            Ok(Arc::new(MemDisk::new(ps)) as Arc<dyn DiskBackend>)
        });
        assert!(
            matches!(upgraded, Err(CoreError::Storage(_))),
            "{:?}",
            upgraded.map(|_| ())
        );
        assert!(!created, "no sidecar log was created");
        let mut now = vec![0u8; ps];
        faulty.read(0, &mut now).unwrap();
        assert_eq!(now, page_0, "page 0 is unchanged");
        faulty.clear_faults();
        assert_acked(
            &upgrade_on(faulty, false, opts, || Ok(Arc::new(MemDisk::new(ps)) as _))
                .unwrap()
                .0,
        );
    }
}
