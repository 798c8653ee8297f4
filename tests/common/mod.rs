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
