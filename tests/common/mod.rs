//! Shared integration-test utilities.
//!
//! [`TempDir`] is an RAII temporary directory: it is created unique per
//! test (pid + counter) and removed — with everything inside — when the
//! value drops, so test runs never leak `bur-*` droppings under the
//! system temp directory, even when a test fails (panics unwind through
//! the `Drop`).

#![allow(dead_code)] // each integration test binary uses a subset

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely named temporary directory, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `bur-<tag>-<pid>-<n>` under the system temp directory.
    pub fn new(tag: &str) -> Self {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bur-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---- a disk that loses what was not synced ----------------------------------

use bur::storage::{DiskBackend, PageId, StorageError, StorageResult};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The power supply of one simulated machine, shared by its disks: after
/// `budget` more mutating calls (write, allocate, sync — summed over every
/// [`LossyDisk`] wired to it) every further one fails, as after a power
/// cut. Reads keep working so recovery can inspect what survived.
pub struct PowerSwitch {
    budget: AtomicU64,
    spent: AtomicU64,
    /// Which of the calls counted in `spent` were syncs, by call number.
    syncs: Mutex<Vec<u64>>,
}

impl PowerSwitch {
    /// Power that fails after `budget` more mutating calls.
    pub fn cut_after(budget: u64) -> Arc<Self> {
        Arc::new(Self {
            budget: AtomicU64::new(budget),
            spent: AtomicU64::new(0),
            syncs: Mutex::new(Vec::new()),
        })
    }

    /// Power that never fails.
    pub fn always_on() -> Arc<Self> {
        Self::cut_after(u64::MAX)
    }

    /// Mutating calls seen so far (a dry run reads this to place cuts).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The call numbers (positions in the `spent` count) of every sync so
    /// far, ascending: `cut_after(n)` with `n` one of them refuses exactly
    /// that sync and everything after it.
    pub fn sync_calls(&self) -> Vec<u64> {
        self.syncs.lock().unwrap().clone()
    }

    /// `true` once a mutating call was refused.
    pub fn is_cut(&self) -> bool {
        self.spent() > self.budget.load(Ordering::Relaxed)
    }

    /// Power is back (the machine rebooted): nothing fails any more.
    pub fn restore(&self) {
        self.budget.store(u64::MAX, Ordering::Relaxed);
    }

    fn spend(&self, op: &'static str, pid: Option<PageId>) -> StorageResult<()> {
        let call = self.spent.fetch_add(1, Ordering::Relaxed);
        if op == "sync" {
            self.syncs.lock().unwrap().push(call);
        }
        if call >= self.budget.load(Ordering::Relaxed) {
            return Err(StorageError::InjectedFault { op, pid });
        }
        Ok(())
    }
}

/// A disk with a volatile write cache. Writes and allocations since the
/// last `sync` live in an overlay above `platter`; `sync` moves them down;
/// [`LossyDisk::crash`] drops all of them or any subset, which is what a
/// real device may do to writes it acknowledged but never flushed.
/// (`FaultyDisk`'s power cut keeps every write issued before the cut — a
/// model two files can contradict and one file cannot.)
pub struct LossyDisk {
    platter: Arc<dyn DiskBackend>,
    power: Arc<PowerSwitch>,
    cache: Mutex<WriteCache>,
}

struct WriteCache {
    /// Unsynced page contents, by page id.
    pages: BTreeMap<PageId, Box<[u8]>>,
    /// Page count as the writer sees it (unsynced allocations included).
    num_pages: u32,
}

impl LossyDisk {
    pub fn new(platter: Arc<dyn DiskBackend>, power: Arc<PowerSwitch>) -> Arc<Self> {
        let num_pages = platter.num_pages();
        Arc::new(Self {
            platter,
            power,
            cache: Mutex::new(WriteCache {
                pages: BTreeMap::new(),
                num_pages,
            }),
        })
    }

    /// Lose power with the cache unflushed: every unsynced page for which
    /// `keep` says `true` reaches the platter (extending it with zero
    /// pages where a kept write lies past its end, as a file system
    /// would), the rest never happened.
    pub fn crash(&self, mut keep: impl FnMut() -> bool) {
        let mut cache = self.cache.lock().unwrap();
        for (pid, data) in std::mem::take(&mut cache.pages) {
            if keep() {
                Self::write_through(self.platter.as_ref(), pid, &data).expect("platter write");
            }
        }
        cache.num_pages = self.platter.num_pages();
    }

    fn write_through(platter: &dyn DiskBackend, pid: PageId, data: &[u8]) -> StorageResult<()> {
        while platter.num_pages() <= pid {
            platter.allocate()?;
        }
        platter.write(pid, data)
    }
}

impl DiskBackend for LossyDisk {
    fn page_size(&self) -> usize {
        self.platter.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.cache.lock().unwrap().num_pages
    }

    fn allocate(&self) -> StorageResult<PageId> {
        self.power.spend("allocate", None)?;
        let mut cache = self.cache.lock().unwrap();
        let pid = cache.num_pages;
        cache.num_pages += 1;
        let zeros = vec![0u8; self.platter.page_size()].into_boxed_slice();
        cache.pages.insert(pid, zeros);
        Ok(pid)
    }

    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let cache = self.cache.lock().unwrap();
        if pid >= cache.num_pages {
            return Err(StorageError::PageOutOfBounds {
                pid,
                len: cache.num_pages,
            });
        }
        match cache.pages.get(&pid) {
            Some(data) => {
                buf.copy_from_slice(data);
                Ok(())
            }
            None => self.platter.read(pid, buf),
        }
    }

    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        self.power.spend("write", Some(pid))?;
        let mut cache = self.cache.lock().unwrap();
        if pid >= cache.num_pages {
            return Err(StorageError::PageOutOfBounds {
                pid,
                len: cache.num_pages,
            });
        }
        cache.pages.insert(pid, buf.into());
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.power.spend("sync", None)?;
        let mut cache = self.cache.lock().unwrap();
        for (pid, data) in std::mem::take(&mut cache.pages) {
            Self::write_through(self.platter.as_ref(), pid, &data)?;
        }
        Ok(())
    }
}
