//! Page-addressed disk backends.

use crate::{PageId, StorageError, StorageResult};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// A page-addressed disk: fixed-size pages, dense allocation from page 0.
///
/// Implementations must be thread-safe; the buffer pool serializes access
/// internally but tests may hit a disk from several threads directly.
pub trait DiskBackend: Send + Sync {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of allocated pages (page ids `0..num_pages` are valid).
    fn num_pages(&self) -> u32;

    /// Allocate a fresh zero-filled page and return its id.
    fn allocate(&self) -> StorageResult<PageId>;

    /// Read page `pid` into `buf` (`buf.len()` must equal the page size).
    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()>;

    /// Write `buf` to page `pid` (`buf.len()` must equal the page size).
    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()>;

    /// Flush any backend-level caches to stable storage.
    fn sync(&self) -> StorageResult<()>;
}

pub(crate) fn check_len(page_size: usize, got: usize) -> StorageResult<()> {
    if got != page_size {
        return Err(StorageError::BadBufferLen {
            expected: page_size,
            got,
        });
    }
    Ok(())
}

/// An in-memory simulated disk.
///
/// This is the experiment workhorse: the paper's metric is the *number* of
/// page transfers, not their latency, so the disk only needs to be
/// addressable and countable. Every transfer still physically copies the
/// page so that bugs in dirty-tracking or eviction corrupt data loudly
/// instead of silently sharing buffers.
pub struct MemDisk {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemDisk {
    /// Create an empty disk with the given page size.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to be useful");
        Self {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }

    /// Create an empty disk with the paper's 1024-byte pages.
    #[must_use]
    pub fn default_size() -> Self {
        Self::new(crate::DEFAULT_PAGE_SIZE)
    }
}

impl DiskBackend for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.lock();
        if pages.len() >= (PageId::MAX as usize) {
            return Err(StorageError::DiskFull);
        }
        let pid = pages.len() as PageId;
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(pid)
    }

    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        check_len(self.page_size, buf.len())?;
        let pages = self.pages.lock();
        let page = pages
            .get(pid as usize)
            .ok_or(StorageError::PageOutOfBounds {
                pid,
                len: pages.len() as u32,
            })?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        check_len(self.page_size, buf.len())?;
        let mut pages = self.pages.lock();
        let len = pages.len() as u32;
        let page = pages
            .get_mut(pid as usize)
            .ok_or(StorageError::PageOutOfBounds { pid, len })?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// A file-backed disk for persistence: page `pid` lives at byte offset
/// `pid * page_size`.
///
/// Used by the persistence tests and available to library users who want a
/// durable index; experiments use [`MemDisk`].
pub struct FileDisk {
    page_size: usize,
    file: File,
    num_pages: Mutex<u32>,
}

impl FileDisk {
    /// Create a new file (truncating any existing one).
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> StorageResult<Self> {
        assert!(page_size >= 64, "page size too small to be useful");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            page_size,
            file,
            num_pages: Mutex::new(0),
        })
    }

    /// Open an existing file; the page count is derived from its length.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let pages = (len / page_size as u64) as u32;
        Ok(Self {
            page_size,
            file,
            num_pages: Mutex::new(pages),
        })
    }

    fn offset(&self, pid: PageId) -> u64 {
        pid as u64 * self.page_size as u64
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

impl DiskBackend for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn allocate(&self) -> StorageResult<PageId> {
        let mut n = self.num_pages.lock();
        if *n == PageId::MAX {
            return Err(StorageError::DiskFull);
        }
        let pid = *n;
        // Extend the file with a zero page so reads of fresh pages succeed.
        let zeros = vec![0u8; self.page_size];
        write_at(&self.file, &zeros, self.offset(pid))?;
        *n += 1;
        Ok(pid)
    }

    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        check_len(self.page_size, buf.len())?;
        let n = *self.num_pages.lock();
        if pid >= n {
            return Err(StorageError::PageOutOfBounds { pid, len: n });
        }
        read_at(&self.file, buf, self.offset(pid))?;
        Ok(())
    }

    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        check_len(self.page_size, buf.len())?;
        let n = *self.num_pages.lock();
        if pid >= n {
            return Err(StorageError::PageOutOfBounds { pid, len: n });
        }
        write_at(&self.file, buf, self.offset(pid))?;
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskBackend) {
        let ps = disk.page_size();
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(disk.num_pages(), 2);

        let mut buf = vec![0u8; ps];
        disk.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "fresh pages are zeroed");

        let payload: Vec<u8> = (0..ps).map(|i| (i % 251) as u8).collect();
        disk.write(b, &payload).unwrap();
        disk.read(b, &mut buf).unwrap();
        assert_eq!(buf, payload);

        // Page a must be untouched.
        disk.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn memdisk_roundtrip() {
        roundtrip(&MemDisk::new(256));
    }

    /// Unit-test-local RAII dir (the integration tests share a richer
    /// helper in `tests/common`); removing only the file would leak the
    /// directory itself.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("bur-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = TestDir::new("filedisk");
        let path = dir.0.join("roundtrip.pages");
        roundtrip(&FileDisk::create(&path, 256).unwrap());
    }

    #[test]
    fn filedisk_reopen_preserves_pages() {
        let dir = TestDir::new("filedisk-re");
        let path = dir.0.join("reopen.pages");
        let payload = vec![42u8; 128];
        {
            let d = FileDisk::create(&path, 128).unwrap();
            let pid = d.allocate().unwrap();
            d.write(pid, &payload).unwrap();
            d.sync().unwrap();
        }
        {
            let d = FileDisk::open(&path, 128).unwrap();
            assert_eq!(d.num_pages(), 1);
            let mut buf = vec![0u8; 128];
            d.read(0, &mut buf).unwrap();
            assert_eq!(buf, payload);
        }
    }

    #[test]
    fn out_of_bounds_and_bad_len() {
        let d = MemDisk::new(128);
        let mut buf = vec![0u8; 128];
        assert!(matches!(
            d.read(0, &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        d.allocate().unwrap();
        let mut short = vec![0u8; 64];
        assert!(matches!(
            d.read(0, &mut short),
            Err(StorageError::BadBufferLen { .. })
        ));
        assert!(matches!(
            d.write(0, &short),
            Err(StorageError::BadBufferLen { .. })
        ));
        assert!(matches!(
            d.write(5, &buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn concurrent_memdisk_access() {
        let d = std::sync::Arc::new(MemDisk::new(128));
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(d.allocate().unwrap());
        }
        std::thread::scope(|s| {
            for &pid in &ids {
                let d = d.clone();
                s.spawn(move || {
                    let payload = vec![pid as u8; 128];
                    for _ in 0..100 {
                        d.write(pid, &payload).unwrap();
                        let mut buf = vec![0u8; 128];
                        d.read(pid, &mut buf).unwrap();
                        assert_eq!(buf, payload);
                    }
                });
            }
        });
    }
}
