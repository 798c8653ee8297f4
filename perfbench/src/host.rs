//! What the host is: CPU count, the filesystem under the data directory,
//! this process's peak resident set — and the per-run data directory that
//! removes itself, so repeated runs never see each other's files.

use std::path::{Path, PathBuf};

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads a probe of parallel behaviour runs side by side.
pub fn parallel_threads() -> usize {
    cpus().min(4)
}

/// Generator threads / client connections: one process, and one CPU fewer
/// than `parallel_threads`. A generator is busy the whole window, and on a
/// host whose every CPU is busy each disturbance from outside lands on the
/// measurement: with two generators on two CPUs the same code read
/// 25-35 % apart from run to run.
pub fn generator_threads() -> usize {
    (parallel_threads() - 1).max(1)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `unknown` where that cannot be read.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_from(&mounts, &path)
}

fn fs_type_from(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Peak resident set size (`VmHWM`) in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where data directories go unless `--data-dir` says otherwise: beside
/// the running executable, i.e. inside the build directory, which is
/// inside the checkout and ignored by git.
pub fn default_data_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perfbench-data")
}

/// A unique directory under the data root, removed on drop.
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    pub fn create(root: &Path) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = root.join(format!(
            "run-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory (one per set-up repetition or twin).
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(fs_type_from(mounts, Path::new("/tmp/x/y")), "tmpfs");
        assert_eq!(fs_type_from(mounts, Path::new("/root/repo")), "ext4");
        assert_eq!(fs_type_from("", Path::new("/root")), "unknown");
    }

    #[test]
    fn data_dirs_are_unique_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("perfbench-host-test-{}", std::process::id()));
        let (a, b) = (
            DataDir::create(&root).unwrap(),
            DataDir::create(&root).unwrap(),
        );
        assert_ne!(a.path(), b.path());
        let sub = a.sub("twin").unwrap();
        std::fs::write(sub.join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(&sub), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&root);
    }
}
