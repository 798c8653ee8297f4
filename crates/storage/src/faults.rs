//! Deterministic fault injection for disks.
//!
//! [`FaultyDisk`] wraps any [`DiskBackend`] and fails selected operations
//! with [`StorageError::InjectedFault`]. Schedules are explicit and
//! deterministic (fail the n-th read, fail every write to a page, fail
//! with a seeded probability), so robustness tests are reproducible:
//! the tests assert that faults surface as clean errors — never panics —
//! and that the structures above recover once the fault clears.

use crate::{DiskBackend, PageId, StorageError, StorageResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Which operation class a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail page reads.
    Read,
    /// Fail page writes.
    Write,
    /// Fail page allocations.
    Allocate,
    /// Fail `sync` calls.
    Sync,
    /// A power cut: the disk persists `after_writes` more writes, tears
    /// the write after that (only the first half of the page reaches the
    /// platter) and then stops persisting entirely — every later write,
    /// allocation and sync fails and leaves the disk unchanged. Reads
    /// keep working so recovery tooling can inspect what survived.
    ///
    /// Install with [`FaultyDisk::inject`] (the positional `fail_*`
    /// installers only understand the plain operation kinds).
    TornWrite {
        /// Number of writes that still reach stable storage before the
        /// cut (the cut write itself is the `after_writes`-th from now).
        after_writes: u64,
    },
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Write => "write",
            FaultKind::Allocate => "allocate",
            FaultKind::Sync => "sync",
            FaultKind::TornWrite { .. } => "torn-write",
        }
    }
}

/// One injection rule.
#[derive(Debug, Clone)]
enum Rule {
    /// Fail the operations whose (per-kind) sequence number lies in
    /// `[from, to)`, 0-based. `NthOps { from: 3, to: 4 }` fails exactly
    /// the fourth read (or write, ...).
    NthOps { kind: FaultKind, from: u64, to: u64 },
    /// Fail every access of `kind` touching page `pid`.
    Page { kind: FaultKind, pid: PageId },
    /// Fail everything of `kind` until cleared (a dead disk).
    Always { kind: FaultKind },
    /// Power cut at absolute write sequence number `at`: write `at` is
    /// torn (half-persisted), and all mutations after it are lost.
    PowerCut { at: u64 },
}

/// A [`DiskBackend`] decorator that injects deterministic faults.
///
/// ```
/// use bur_storage::{DiskBackend, FaultKind, FaultyDisk, MemDisk, StorageError};
/// use std::sync::Arc;
///
/// let disk = FaultyDisk::new(Arc::new(MemDisk::new(128)));
/// let pid = disk.allocate().unwrap();
/// disk.fail_page(FaultKind::Read, pid);
/// let mut buf = vec![0u8; 128];
/// assert!(matches!(
///     disk.read(pid, &mut buf),
///     Err(StorageError::InjectedFault { .. })
/// ));
/// disk.clear_faults();
/// assert!(disk.read(pid, &mut buf).is_ok());
/// ```
pub struct FaultyDisk {
    inner: Arc<dyn DiskBackend>,
    /// Rules and counters — one set for both disks of a
    /// [`FaultyDisk::pair`].
    state: Arc<FaultState>,
}

/// The rule list and the per-kind operation counters.
#[derive(Default)]
struct FaultState {
    rules: Mutex<Vec<Rule>>,
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    syncs: AtomicU64,
    injected: AtomicU64,
}

impl FaultyDisk {
    /// Wrap a disk. With no rules installed the wrapper is transparent.
    #[must_use]
    pub fn new(inner: Arc<dyn DiskBackend>) -> Self {
        Self {
            inner,
            state: Arc::default(),
        }
    }

    /// Wrap two disks that share one power supply, such as a data disk
    /// and its log disk: one rule list and one set of per-kind counters,
    /// so a [`FaultKind::TornWrite`] armed on either tears the n-th write
    /// across the pair and then stops both.
    #[must_use]
    pub fn pair(data: Arc<dyn DiskBackend>, log: Arc<dyn DiskBackend>) -> (Arc<Self>, Arc<Self>) {
        let data = Self::new(data);
        let log = Self {
            inner: log,
            state: data.state.clone(),
        };
        (Arc::new(data), Arc::new(log))
    }

    /// Fail exactly the `n`-th operation of `kind` from now (0 = the next
    /// one), counting per kind.
    pub fn fail_nth(&self, kind: FaultKind, n: u64) {
        let base = self.seq(kind);
        self.state.rules.lock().push(Rule::NthOps {
            kind,
            from: base + n,
            to: base + n + 1,
        });
    }

    /// Fail the next `count` operations of `kind`.
    pub fn fail_next(&self, kind: FaultKind, count: u64) {
        let base = self.seq(kind);
        self.state.rules.lock().push(Rule::NthOps {
            kind,
            from: base,
            to: base + count,
        });
    }

    /// Fail every `kind` access to page `pid` until cleared.
    pub fn fail_page(&self, kind: FaultKind, pid: PageId) {
        self.state.rules.lock().push(Rule::Page { kind, pid });
    }

    /// Fail every operation of `kind` until cleared (a dead disk).
    pub fn fail_always(&self, kind: FaultKind) {
        self.state.rules.lock().push(Rule::Always { kind });
    }

    /// Install a fault by kind. For [`FaultKind::TornWrite`] this arms a
    /// power cut relative to the current write sequence; every other kind
    /// behaves like [`FaultyDisk::fail_always`].
    pub fn inject(&self, kind: FaultKind) {
        match kind {
            FaultKind::TornWrite { after_writes } => {
                let base = self.state.writes.load(Ordering::Relaxed);
                self.state.rules.lock().push(Rule::PowerCut {
                    at: base + after_writes,
                });
            }
            k => self.fail_always(k),
        }
    }

    /// The write sequence number at which an armed power cut tears (the
    /// earliest, when several are installed); `None` without one.
    #[must_use]
    pub fn power_cut_at(&self) -> Option<u64> {
        self.state
            .rules
            .lock()
            .iter()
            .filter_map(|r| match *r {
                Rule::PowerCut { at } => Some(at),
                _ => None,
            })
            .min()
    }

    /// `true` once an armed power cut has fired (the torn write happened;
    /// nothing after it persisted).
    #[must_use]
    pub fn power_cut_triggered(&self) -> bool {
        self.power_cut_at()
            .is_some_and(|at| self.state.writes.load(Ordering::Relaxed) > at)
    }

    /// Remove all rules; the disk behaves transparently again.
    pub fn clear_faults(&self) {
        self.state.rules.lock().clear();
    }

    /// Number of operations failed by injection so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    fn seq(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Read => self.state.reads.load(Ordering::Relaxed),
            FaultKind::Write | FaultKind::TornWrite { .. } => {
                self.state.writes.load(Ordering::Relaxed)
            }
            FaultKind::Allocate => self.state.allocs.load(Ordering::Relaxed),
            FaultKind::Sync => self.state.syncs.load(Ordering::Relaxed),
        }
    }

    /// Account the operation and decide whether to fail it.
    fn check(&self, kind: FaultKind, pid: Option<PageId>) -> StorageResult<()> {
        let counter = match kind {
            FaultKind::Read => &self.state.reads,
            FaultKind::Write | FaultKind::TornWrite { .. } => &self.state.writes,
            FaultKind::Allocate => &self.state.allocs,
            FaultKind::Sync => &self.state.syncs,
        };
        let seq = counter.fetch_add(1, Ordering::Relaxed);
        self.check_seq(kind, seq, pid)
    }

    /// Decide whether the `seq`-th operation of `kind` fails, without
    /// touching the counters (the caller already accounted it).
    fn check_seq(&self, kind: FaultKind, seq: u64, pid: Option<PageId>) -> StorageResult<()> {
        let hit = self.state.rules.lock().iter().any(|rule| match *rule {
            Rule::NthOps { kind: k, from, to } => k == kind && (from..to).contains(&seq),
            Rule::Page { kind: k, pid: p } => k == kind && pid == Some(p),
            Rule::Always { kind: k } => k == kind,
            Rule::PowerCut { .. } => false, // handled by the write/sync paths
        });
        if hit {
            self.state.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::InjectedFault {
                op: kind.label(),
                pid,
            });
        }
        Ok(())
    }

    /// `true` when a power cut forbids the mutation (cut already fired).
    fn power_lost(&self) -> StorageResult<()> {
        if self.power_cut_triggered() {
            self.state.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::InjectedFault {
                op: "torn-write",
                pid: None,
            });
        }
        Ok(())
    }
}

impl DiskBackend for FaultyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> StorageResult<PageId> {
        self.power_lost()?;
        self.check(FaultKind::Allocate, None)?;
        self.inner.allocate()
    }

    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.check(FaultKind::Read, Some(pid))?;
        self.inner.read(pid, buf)
    }

    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        let seq = self.state.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(at) = self.power_cut_at() {
            if seq == at {
                // The cut write is torn: only the first half of the page
                // reaches stable storage; the rest keeps its old content.
                let mut torn = vec![0u8; buf.len()];
                if self.inner.read(pid, &mut torn).is_err() {
                    torn.fill(0);
                }
                let half = buf.len() / 2;
                torn[..half].copy_from_slice(&buf[..half]);
                let _ = self.inner.write(pid, &torn);
                self.state.injected.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::InjectedFault {
                    op: "torn-write",
                    pid: Some(pid),
                });
            }
            if seq > at {
                self.state.injected.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::InjectedFault {
                    op: "torn-write",
                    pid: Some(pid),
                });
            }
        }
        self.check_seq(FaultKind::Write, seq, Some(pid))?;
        self.inner.write(pid, buf)
    }

    fn sync(&self) -> StorageResult<()> {
        self.power_lost()?;
        self.check(FaultKind::Sync, None)?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn faulty() -> FaultyDisk {
        let d = FaultyDisk::new(Arc::new(MemDisk::new(128)));
        for _ in 0..4 {
            d.allocate().unwrap();
        }
        d
    }

    #[test]
    fn transparent_without_rules() {
        let d = faulty();
        let mut buf = vec![0u8; 128];
        d.read(0, &mut buf).unwrap();
        d.write(1, &buf).unwrap();
        d.sync().unwrap();
        assert_eq!(d.injected_faults(), 0);
        assert_eq!(d.num_pages(), 4);
        assert_eq!(d.page_size(), 128);
    }

    #[test]
    fn nth_read_fails_once() {
        let d = faulty();
        let mut buf = vec![0u8; 128];
        d.fail_nth(FaultKind::Read, 1);
        d.read(0, &mut buf).unwrap(); // read #0
        let err = d.read(0, &mut buf).unwrap_err(); // read #1: injected
        assert!(matches!(
            err,
            StorageError::InjectedFault { op: "read", .. }
        ));
        d.read(0, &mut buf).unwrap(); // read #2 passes again
        assert_eq!(d.injected_faults(), 1);
    }

    #[test]
    fn fail_next_window() {
        let d = faulty();
        d.fail_next(FaultKind::Write, 2);
        let buf = vec![7u8; 128];
        assert!(d.write(0, &buf).is_err());
        assert!(d.write(0, &buf).is_err());
        assert!(d.write(0, &buf).is_ok());
        // The page never saw the failed payloads or did see the last one.
        let mut got = vec![0u8; 128];
        d.read(0, &mut got).unwrap();
        assert_eq!(got, buf);
    }

    #[test]
    fn page_targeted_fault() {
        let d = faulty();
        d.fail_page(FaultKind::Read, 2);
        let mut buf = vec![0u8; 128];
        d.read(1, &mut buf).unwrap();
        assert!(d.read(2, &mut buf).is_err());
        assert!(d.read(2, &mut buf).is_err(), "page faults persist");
        d.clear_faults();
        d.read(2, &mut buf).unwrap();
    }

    #[test]
    fn dead_disk_and_recovery() {
        let d = faulty();
        d.fail_always(FaultKind::Write);
        d.fail_always(FaultKind::Sync);
        let buf = vec![1u8; 128];
        assert!(d.write(0, &buf).is_err());
        assert!(d.sync().is_err());
        let mut r = vec![0u8; 128];
        d.read(0, &mut r).unwrap(); // reads unaffected
        d.clear_faults();
        d.write(0, &buf).unwrap();
        d.sync().unwrap();
    }

    #[test]
    fn allocation_faults() {
        let d = faulty();
        d.fail_nth(FaultKind::Allocate, 0);
        assert!(matches!(
            d.allocate(),
            Err(StorageError::InjectedFault { op: "allocate", .. })
        ));
        assert_eq!(d.num_pages(), 4, "failed allocation must not allocate");
        assert_eq!(d.allocate().unwrap(), 4);
    }

    #[test]
    fn torn_write_cuts_power_at_boundary() {
        let d = faulty();
        let a = vec![0xAAu8; 128];
        let b = vec![0xBBu8; 128];
        d.write(0, &a).unwrap();
        d.inject(FaultKind::TornWrite { after_writes: 1 });
        assert!(!d.power_cut_triggered());
        // Write #0 after arming still persists.
        d.write(1, &a).unwrap();
        // Write #1 is the cut: torn, and reported as a fault.
        let err = d.write(0, &b).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::InjectedFault {
                    op: "torn-write",
                    ..
                }
            ),
            "got {err}"
        );
        assert!(d.power_cut_triggered());
        // The torn page holds the new first half and the old second half.
        let mut got = vec![0u8; 128];
        d.read(0, &mut got).unwrap();
        assert!(got[..64].iter().all(|&x| x == 0xBB), "new prefix persisted");
        assert!(got[64..].iter().all(|&x| x == 0xAA), "old suffix survives");
        // Everything after the cut is lost: writes, allocations, syncs.
        assert!(d.write(1, &b).is_err());
        d.read(1, &mut got).unwrap();
        assert_eq!(got, a, "post-cut write must not persist");
        assert!(d.allocate().is_err());
        assert_eq!(d.num_pages(), 4);
        assert!(d.sync().is_err());
        // Reads still serve the surviving image (recovery inspects it).
        d.read(1, &mut got).unwrap();
        assert!(d.injected_faults() >= 4);
        // Power restored: the disk works again.
        d.clear_faults();
        d.write(1, &b).unwrap();
        d.sync().unwrap();
        assert!(d.power_cut_at().is_none());
    }

    #[test]
    fn torn_write_zero_budget_tears_next_write() {
        let d = faulty();
        d.inject(FaultKind::TornWrite { after_writes: 0 });
        assert_eq!(d.power_cut_at(), Some(0));
        let buf = vec![0x11u8; 128];
        assert!(d.write(2, &buf).is_err(), "the very next write is the cut");
        let mut got = vec![0u8; 128];
        d.read(2, &mut got).unwrap();
        assert!(got[..64].iter().all(|&x| x == 0x11));
        assert!(got[64..].iter().all(|&x| x == 0));
        // Sync before any further write also fails: the cut has fired.
        assert!(d.sync().is_err());
    }

    #[test]
    fn inject_of_plain_kind_is_fail_always() {
        let d = faulty();
        d.inject(FaultKind::Read);
        let mut buf = vec![0u8; 128];
        assert!(d.read(0, &mut buf).is_err());
        d.clear_faults();
        d.read(0, &mut buf).unwrap();
        assert_eq!(
            FaultKind::TornWrite { after_writes: 3 }.label(),
            "torn-write"
        );
    }

    #[test]
    fn a_pair_shares_one_power_cut() {
        let (data, log) =
            FaultyDisk::pair(Arc::new(MemDisk::new(128)), Arc::new(MemDisk::new(128)));
        for _ in 0..2 {
            data.allocate().unwrap();
            log.allocate().unwrap();
        }
        let old = vec![0xAAu8; 128];
        let new = vec![0xBBu8; 128];
        data.write(0, &old).unwrap();
        log.write(0, &old).unwrap();
        // Armed on the log disk, counted across both: writes #0–#2 from
        // here alternate data, log, data and land; #3 (on the log) is
        // the cut.
        log.inject(FaultKind::TornWrite { after_writes: 3 });
        assert_eq!(data.power_cut_at(), log.power_cut_at());
        data.write(1, &new).unwrap();
        log.write(1, &new).unwrap();
        data.write(0, &new).unwrap();
        assert!(!data.power_cut_triggered());
        assert!(log.write(0, &new).is_err(), "the stated global write tears");
        assert!(data.power_cut_triggered() && log.power_cut_triggered());
        let mut got = vec![0u8; 128];
        log.read(0, &mut got).unwrap();
        assert!(got[..64].iter().all(|&x| x == 0xBB), "new prefix persisted");
        assert!(got[64..].iter().all(|&x| x == 0xAA), "old suffix survives");
        // After the cut, both disks refuse every mutation.
        for disk in [&data, &log] {
            assert!(disk.write(1, &old).is_err());
            disk.read(1, &mut got).unwrap();
            assert_eq!(got, new, "post-cut write must not persist");
            assert!(disk.allocate().is_err());
            assert_eq!(disk.num_pages(), 2);
            assert!(disk.sync().is_err());
        }
        data.read(0, &mut got).unwrap();
        assert_eq!(got, new, "writes before the cut persisted");
        // Restoring power on one restores it on both.
        data.clear_faults();
        log.write(1, &old).unwrap();
        log.sync().unwrap();
    }

    #[test]
    fn error_message_names_op_and_page() {
        let d = faulty();
        d.fail_page(FaultKind::Write, 3);
        let err = d.write(3, &[0u8; 128]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("write") && msg.contains('3'), "got: {msg}");
    }
}
