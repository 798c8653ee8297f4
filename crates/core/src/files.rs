//! An index on a real file is a file *pair*: `<path>` holds the tree,
//! the hash index and the metadata chain; `<path>.wal` holds the
//! write-ahead log of a durable index. Everything that opens, ships or
//! inspects an index file resolves the pair through [`IndexFiles`], so
//! "where is the log" has one answer: what the file's own metadata says
//! (see [`MetaSnapshot::log_elsewhere`]). Files written before the log
//! moved out keep it in place at [`WAL_ANCHOR`] and have no sidecar.

use crate::error::{CoreError, CoreResult};
use crate::meta::{read_meta_chain, MetaSnapshot, LOG_DISK_ANCHOR, WAL_ANCHOR};
use bur_storage::{BufferPool, DiskBackend, FileDisk, PageId, PoolConfig, INVALID_PAGE};
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

/// The metadata snapshot stored in the chain headed at page 0 and the
/// continuation pages it occupies — `None` when the chain does not hold
/// a genuine snapshot. Walked defensively: a crash inside a chain rewrite
/// can leave torn links, so the pages are only trusted when the walked
/// payload round-trips.
pub(crate) fn stored_snapshot(pool: &BufferPool) -> Option<(MetaSnapshot, Vec<PageId>)> {
    let (payload, pages) = read_meta_chain(pool).ok()?;
    Some((MetaSnapshot::decode(&payload).ok()?, pages))
}

/// An existing index file opened together with whatever holds its log.
pub struct IndexFiles {
    /// The page file at the path itself.
    pub data: Arc<dyn DiskBackend>,
    /// The `.wal` sidecar, when the file keeps its log there.
    pub sidecar: Option<Arc<dyn DiskBackend>>,
    /// Anchor page of the log chain on [`IndexFiles::log_disk`]; `None`
    /// when the file is not durable.
    pub anchor: Option<PageId>,
}

impl IndexFiles {
    /// Open the index file at `path` and resolve its log. A file whose
    /// metadata says the log lives in the sidecar fails with
    /// [`CoreError::LogMissing`] when the sidecar is gone — never with an
    /// index silently rolled back to its last checkpoint.
    pub fn open(path: &Path, page_size: usize) -> CoreResult<Self> {
        let cannot_open =
            |p: &Path, e| CoreError::BadConfig(format!("cannot open {}: {e}", p.display()));
        let data: Arc<dyn DiskBackend> =
            Arc::new(FileDisk::open(path, page_size).map_err(|e| cannot_open(path, e))?);
        let sidecar_path = log_path(path);
        let probe = BufferPool::new(data.clone(), PoolConfig::default());
        let (elsewhere, anchor) = match stored_snapshot(&probe) {
            Some((snap, _)) if snap.wal_anchor == INVALID_PAGE => (false, None),
            Some((snap, _)) => (snap.log_elsewhere, Some(snap.wal_anchor)),
            // Page 0 is rewritten in place at every checkpoint; when a
            // crash tore it, the log (which carries the snapshot in every
            // commit record) is the authority, wherever it can be found.
            None if sidecar_path.exists() => (true, Some(LOG_DISK_ANCHOR)),
            None => (false, Some(WAL_ANCHOR)),
        };
        let sidecar: Option<Arc<dyn DiskBackend>> = if elsewhere {
            if !sidecar_path.exists() {
                return Err(CoreError::LogMissing(format!(
                    "{} keeps its log in {}, which does not exist",
                    path.display(),
                    sidecar_path.display()
                )));
            }
            Some(Arc::new(
                FileDisk::open(&sidecar_path, page_size)
                    .map_err(|e| cannot_open(&sidecar_path, e))?,
            ))
        } else {
            None
        };
        Ok(Self {
            data,
            sidecar,
            anchor,
        })
    }

    /// The disk the log is written to: the sidecar, or the data file
    /// itself for a file that logs in place.
    #[must_use]
    pub fn log_disk(&self) -> &Arc<dyn DiskBackend> {
        self.sidecar.as_ref().unwrap_or(&self.data)
    }
}
