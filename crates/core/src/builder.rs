//! One construction path for every index: backend × open mode ×
//! durability × strategy.
//!
//! [`IndexBuilder`] subsumes the historical direct constructors
//! (`create_in_memory` / `create_on` / `open_on` / `recover_on` /
//! `recover`), which were deprecated for one release and have been
//! removed. Pick a strategy, point the builder at a backend, choose an
//! [`OpenMode`], and build either the clonable [`Bur`] handle (the
//! default — shared, leaf-claiming, batch-first) or a raw [`RTreeIndex`]
//! for single-threaded embedding.
//!
//! ```
//! use bur_core::IndexBuilder;
//! use bur_geom::Point;
//!
//! // A durable GBU index on an in-memory disk, as one shared handle.
//! let bur = IndexBuilder::generalized().durable().build().unwrap();
//! bur.insert(1, Point::new(0.4, 0.4)).unwrap();
//! assert_eq!(bur.len(), 1);
//! ```

use crate::config::{Durability, IndexOptions, UpdateStrategy, WalOptions};
use crate::error::{CoreError, CoreResult};
use crate::files::{log_path, IndexFiles};
use crate::handle::Bur;
use crate::index::RTreeIndex;
use bur_storage::{DiskBackend, FileDisk, MemDisk};
use std::path::PathBuf;
use std::sync::Arc;

/// How the builder treats the backend's existing content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// Build a fresh index. The backend must be empty (a file backend is
    /// created; an existing file is rejected rather than clobbered).
    #[default]
    Create,
    /// Open a persisted index. Durability is a property of the *file*:
    /// when the stored metadata records a write-ahead log — or the
    /// options ask for one — the log is replayed first (always safe; a
    /// cleanly shut down log replays to exactly the stored image), and
    /// the [`crate::RecoveryReport`] says what the replay did.
    Open,
    /// Recover a durable index after a crash: [`OpenMode::Open`] for an
    /// index that must have a log — replay it up to the last durable
    /// commit, rebuild in-memory state, and checkpoint. The
    /// [`crate::RecoveryReport`] is available from [`Bur::recovery_report`] /
    /// [`RTreeIndex::recovery_report`].
    Recover,
}

/// Which page store the index lives on.
enum Backend {
    /// A fresh in-memory disk (the experiment default).
    Memory,
    /// A page file at this path, its log in the `.wal` sidecar beside it.
    File(PathBuf),
    /// A caller-supplied disk (fault-injection wrappers, shared disks).
    Disk(Arc<dyn DiskBackend>),
}

/// Builder for every way of constructing an index — see the
/// crate docs.
///
/// Defaults: GBU strategy with paper tuning, in-memory backend,
/// [`OpenMode::Create`], no durability.
#[must_use = "builders do nothing until `build*` is called"]
pub struct IndexBuilder {
    opts: IndexOptions,
    mode: OpenMode,
    backend: Backend,
    log_disk: Option<Arc<dyn DiskBackend>>,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Default options (GBU), in-memory backend, create mode.
    pub fn new() -> Self {
        Self::with_options(IndexOptions::default())
    }

    /// Start from explicit [`IndexOptions`].
    pub fn with_options(opts: IndexOptions) -> Self {
        Self {
            opts,
            mode: OpenMode::Create,
            backend: Backend::Memory,
            log_disk: None,
        }
    }

    /// Start from the classic top-down (TD) update strategy.
    pub fn top_down() -> Self {
        Self::with_options(IndexOptions::top_down())
    }

    /// Start from the localized bottom-up (LBU) strategy.
    pub fn localized() -> Self {
        Self::with_options(IndexOptions::localized())
    }

    /// Start from the generalized bottom-up (GBU) strategy — the
    /// paper's contribution and the default.
    pub fn generalized() -> Self {
        Self::with_options(IndexOptions::generalized())
    }

    // ---- options ---------------------------------------------------------

    /// Replace the update strategy.
    pub fn strategy(mut self, strategy: UpdateStrategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Page size in bytes (paper default: 1024).
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.opts.page_size = bytes;
        self
    }

    /// Buffer-pool capacity in frames.
    pub fn buffer_frames(mut self, frames: usize) -> Self {
        self.opts.buffer_frames = frames;
        self
    }

    /// Write-ahead-logged durability with default [`WalOptions`].
    pub fn durable(mut self) -> Self {
        self.opts.durability = Durability::Wal(WalOptions::default());
        self
    }

    /// Explicit durability mode.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.opts.durability = durability;
        self
    }

    /// Arbitrary option tweaks in one closure (escape hatch for the
    /// long tail: R-tree variant, strategy parameters, ...).
    pub fn tune(mut self, f: impl FnOnce(&mut IndexOptions)) -> Self {
        f(&mut self.opts);
        self
    }

    /// The options as configured so far.
    #[must_use]
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    // ---- backend ---------------------------------------------------------

    /// A fresh in-memory disk (the default backend).
    pub fn in_memory(mut self) -> Self {
        self.backend = Backend::Memory;
        self
    }

    /// A page file at `path` (created in [`OpenMode::Create`], opened
    /// otherwise). A durable index keeps its write-ahead log in the
    /// sidecar `<path>.wal` ([`crate::log_path`]), so a commit's `fsync`
    /// touches the sequential log and never the data pages the pool
    /// evicted; the data file is synced once per checkpoint. Creating
    /// refuses an existing `path` and truncates a stale sidecar with no
    /// data file beside it. A file written before the log moved out (log
    /// inside the data file, no sidecar) fails closed with
    /// [`CoreError::LogMissing`] until [`crate::upgrade`] moves its log.
    pub fn file(mut self, path: impl Into<PathBuf>) -> Self {
        self.backend = Backend::File(path.into());
        self
    }

    /// A caller-supplied disk backend (fault-injection wrappers, shared
    /// in-memory disks for crash drills, ...). A durable index needs a
    /// [`IndexBuilder::log_disk`] beside it.
    pub fn disk(mut self, disk: Arc<dyn DiskBackend>) -> Self {
        self.backend = Backend::Disk(disk);
        self
    }

    /// The disk the write-ahead log of a [`IndexBuilder::disk`] backend
    /// lives on — what [`IndexBuilder::file`] does with the sidecar, for
    /// callers that bring their own disks. A durable index needs one:
    /// creating without it is [`CoreError::BadConfig`], opening or
    /// recovering without it [`CoreError::LogMissing`]. A volatile index
    /// takes none ([`CoreError::BadConfig`]).
    pub fn log_disk(mut self, log: Arc<dyn DiskBackend>) -> Self {
        self.log_disk = Some(log);
        self
    }

    // ---- open mode -------------------------------------------------------

    /// Set the open mode explicitly.
    pub fn mode(mut self, mode: OpenMode) -> Self {
        self.mode = mode;
        self
    }

    /// Build a fresh index ([`OpenMode::Create`], the default).
    pub fn create(self) -> Self {
        self.mode(OpenMode::Create)
    }

    /// Open a persisted index ([`OpenMode::Open`]).
    pub fn open(self) -> Self {
        self.mode(OpenMode::Open)
    }

    /// Recover a durable index after a crash ([`OpenMode::Recover`]).
    pub fn recover(self) -> Self {
        self.mode(OpenMode::Recover)
    }

    // ---- build -----------------------------------------------------------

    /// Build the clonable, shared [`Bur`] handle (the primary entry
    /// point; share it across threads by cloning).
    pub fn build(self) -> CoreResult<Bur> {
        Ok(Bur::from_index(self.build_index()?))
    }

    /// Build a raw single-threaded [`RTreeIndex`] (benches, CLI tools,
    /// anything that wants `&mut` access without a lock). When the
    /// build replayed a log, [`RTreeIndex::recovery_report`] says what
    /// the replay did.
    pub fn build_index(self) -> CoreResult<RTreeIndex> {
        let Self {
            opts,
            mode,
            backend,
            mut log_disk,
        } = self;
        if log_disk.is_some() && !matches!(backend, Backend::Disk(_)) {
            return Err(CoreError::BadConfig(
                "log_disk(..) goes with disk(..); file(..) resolves its own sidecar".into(),
            ));
        }
        let durable = matches!(opts.durability, Durability::Wal(_));
        let mut stored = None;
        let disk: Arc<dyn DiskBackend> = match backend {
            Backend::Memory => {
                if !matches!(mode, OpenMode::Create) {
                    return Err(CoreError::BadConfig(
                        "a fresh in-memory backend can only be created; \
                         pass the shared disk of an existing index with `disk(...)`"
                            .into(),
                    ));
                }
                if durable {
                    log_disk = Some(Arc::new(MemDisk::new(opts.page_size)));
                }
                Arc::new(MemDisk::new(opts.page_size))
            }
            Backend::File(path) if matches!(mode, OpenMode::Create) => {
                if path.exists() {
                    return Err(CoreError::BadConfig(format!(
                        "{} already exists; open it, or delete it and its sidecar first",
                        path.display()
                    )));
                }
                let create = |p: &std::path::Path| {
                    FileDisk::create(p, opts.page_size).map_err(|e| {
                        CoreError::BadConfig(format!("cannot create {}: {e}", p.display()))
                    })
                };
                let sidecar = log_path(&path);
                if durable {
                    // Truncates whatever an earlier index left there.
                    log_disk = Some(Arc::new(create(&sidecar)?));
                } else {
                    // A volatile index has no log; an old one must not
                    // sit beside it looking like its own.
                    let _ = std::fs::remove_file(&sidecar);
                }
                Arc::new(create(&path)?)
            }
            Backend::File(path) => {
                let files = IndexFiles::open(&path, opts.page_size)?;
                log_disk = files.sidecar;
                stored = Some(files.stored);
                files.data
            }
            Backend::Disk(disk) => disk,
        };
        match mode {
            OpenMode::Create => RTreeIndex::create_on_inner(disk, log_disk, opts, |_| Ok(())),
            // Recovery presupposes a log; open finds out from the file.
            OpenMode::Open | OpenMode::Recover => {
                RTreeIndex::open_on_inner(disk, log_disk, opts, mode == OpenMode::Recover, stored)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeVariant;
    use bur_geom::Point;
    use bur_storage::MemDisk;

    #[test]
    fn create_open_recover_roundtrip_on_shared_disk() {
        let disk = Arc::new(MemDisk::new(1024));
        let log = Arc::new(MemDisk::new(1024));
        let mut index = IndexBuilder::generalized()
            .durable()
            .disk(disk.clone())
            .log_disk(log.clone())
            .build_index()
            .unwrap();
        index.insert(1, Point::new(0.4, 0.4)).unwrap();
        drop(index); // crash: no clean shutdown

        let recovered = IndexBuilder::generalized()
            .disk(disk.clone())
            .log_disk(log.clone())
            .recover()
            .build_index()
            .unwrap();
        assert_eq!(recovered.len(), 1);
        let report = recovered
            .recovery_report()
            .expect("recover mode must produce a report");
        assert_eq!(report.commits, 1);
        drop(recovered);

        // `open` on a durable disk replays the (clean) log too.
        let reopened = IndexBuilder::generalized()
            .disk(disk)
            .log_disk(log)
            .open()
            .build_index()
            .unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.is_durable());
    }

    #[test]
    fn a_durable_disk_without_a_log_disk_is_refused_before_any_write() {
        let disk = Arc::new(MemDisk::new(1024));
        let err = IndexBuilder::generalized()
            .durable()
            .disk(disk.clone())
            .build_index()
            .unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
        assert!(err.to_string().contains("log_disk"), "{err}");
        assert_eq!(disk.num_pages(), 0, "nothing was written");
    }

    #[test]
    fn log_disk_holds_the_log_and_must_come_back_to_reopen() {
        let data = Arc::new(MemDisk::new(1024));
        let log = Arc::new(MemDisk::new(1024));
        let mut index = IndexBuilder::generalized()
            .durable()
            .disk(data.clone())
            .log_disk(log.clone())
            .build_index()
            .unwrap();
        assert!(bur_wal::scan(log.as_ref(), crate::LOG_DISK_ANCHOR)
            .unwrap()
            .is_some());
        for oid in 0..50u64 {
            index
                .insert(oid, Point::new(oid as f32 / 50.0, 0.5))
                .unwrap();
        }
        index.checkpoint().unwrap();
        let stats = index.wal_stats().unwrap();
        assert!(stats.checkpoint_pages_flushed > 0 && stats.checkpoint_nanos > 0);
        index.insert(50, Point::new(0.9, 0.9)).unwrap();
        drop(index); // crash

        // Without the log disk: a typed refusal, in either mode.
        for mode in [OpenMode::Open, OpenMode::Recover] {
            let err = IndexBuilder::generalized()
                .disk(data.clone())
                .mode(mode)
                .build_index()
                .unwrap_err();
            assert!(matches!(err, CoreError::LogMissing(_)), "{mode:?}: {err}");
        }
        let recovered = IndexBuilder::generalized()
            .disk(data)
            .log_disk(log)
            .open()
            .build_index()
            .unwrap();
        assert_eq!(recovered.len(), 51, "the tail came from the log disk");
    }

    #[test]
    fn in_memory_backend_rejects_open_modes() {
        for mode in [OpenMode::Open, OpenMode::Recover] {
            let err = IndexBuilder::new().mode(mode).build_index().unwrap_err();
            assert!(
                err.to_string().contains("in-memory"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn option_knobs_reach_the_index() {
        let index = IndexBuilder::top_down()
            .page_size(2048)
            .buffer_frames(64)
            .tune(|o| o.variant = TreeVariant::RStar)
            .build_index()
            .unwrap();
        assert_eq!(index.options().page_size, 2048);
        assert_eq!(index.options().buffer_frames, 64);
        assert_eq!(index.options().variant, TreeVariant::RStar);
        assert!(matches!(index.options().strategy, UpdateStrategy::TopDown));
        assert!(!index.is_durable());
    }
}
