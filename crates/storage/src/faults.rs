//! Deterministic fault injection for disks: one model of a disk and of
//! the power that feeds it.
//!
//! [`FaultyDisk`] wraps any [`DiskBackend`], its *platter*, behind a
//! volatile write cache:
//!
//! * writes and allocations land in the cache, and reads see it;
//! * `sync` moves the cache to the platter;
//! * a sync that a rule refuses keeps the writes it covered readable but
//!   never persists them, not even through a later sync that succeeds —
//!   what Linux does after a writeback error, when it marks the pages
//!   clean (Rebello et al., "Can Applications Recover from fsync
//!   Failures?", USENIX ATC 2020);
//! * [`FaultyDisk::crash`] decides which unsynced writes reach the
//!   platter; keeping all of them models a device that persisted every
//!   write sent before the power failed.
//!
//! Rules fail selected operations with [`StorageError::InjectedFault`]:
//! the n-th operation of a kind, every access to a page, or everything
//! of a kind. Any number of disks share one [`PowerSupply`]: a cut lets
//! n more mutating calls (write, allocate or sync, counted across the
//! disks) land, tears the next call if it is a write (only the first half
//! of the page reaches the cache) and refuses every call after it. Reads
//! keep working, so recovery tooling can inspect what survived.
//! Schedules are explicit, so every drill is reproducible.

use crate::disk::check_len;
use crate::{DiskBackend, PageId, StorageError, StorageResult};
use std::cmp::Ordering as Cmp;
use std::collections::BTreeMap;
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
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Write => "write",
            FaultKind::Allocate => "allocate",
            FaultKind::Sync => "sync",
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
}

/// The power supply of one simulated machine, shared by its disks. It
/// counts their mutating calls (writes, allocations and syncs) and, once
/// cut, refuses the calls past the cut.
///
/// ```
/// use bur_storage::{DiskBackend, FaultyDisk, MemDisk, PowerSupply};
/// use std::sync::Arc;
///
/// let power = PowerSupply::new();
/// let data = FaultyDisk::on(Arc::new(MemDisk::new(128)), &power);
/// let log = FaultyDisk::on(Arc::new(MemDisk::new(128)), &power);
/// power.cut_after(2);
/// data.allocate().unwrap();
/// log.allocate().unwrap();
/// assert!(data.write(0, &[7; 128]).is_err(), "torn: the third call");
/// assert!(log.sync().is_err() && power.is_cut());
/// data.crash(|| true).unwrap(); // the torn page reaches the platter
/// log.crash(|| false).unwrap(); // the log's allocation never did
/// assert_eq!((data.num_pages(), log.num_pages()), (1, 0));
/// ```
#[derive(Debug)]
pub struct PowerSupply {
    /// Mutating calls so far.
    spent: AtomicU64,
    /// The call number the cut falls on: calls before it land.
    budget: AtomicU64,
    /// Which of the calls counted in `spent` were syncs, by call number.
    syncs: Mutex<Vec<u64>>,
}

/// What the supply does with one mutating call.
enum Draw {
    Land,
    Tear,
    Refuse,
}

impl PowerSupply {
    /// A supply that never fails until [`PowerSupply::cut_after`].
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            spent: AtomicU64::new(0),
            budget: AtomicU64::new(u64::MAX),
            syncs: Mutex::new(Vec::new()),
        })
    }

    /// Cut the power: `calls` more mutating calls land, the next is torn
    /// if it is a write and refused otherwise, and every call after it
    /// is refused.
    pub fn cut_after(&self, calls: u64) {
        self.budget.store(self.spent() + calls, Ordering::Relaxed);
    }

    /// Power is back (the machine rebooted): nothing fails any more.
    pub fn restore(&self) {
        self.budget.store(u64::MAX, Ordering::Relaxed);
    }

    /// Mutating calls seen so far (a dry run reads this to place cuts).
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The call numbers (positions in the [`PowerSupply::spent`] count) of
    /// every sync so far, ascending: on a fresh supply, `cut_after(n)`
    /// with `n` one of them refuses exactly that sync and everything
    /// after it.
    #[must_use]
    pub fn sync_calls(&self) -> Vec<u64> {
        self.syncs.lock().clone()
    }

    /// `true` once the cut fired: a call was torn or refused.
    #[must_use]
    pub fn is_cut(&self) -> bool {
        self.spent() > self.budget.load(Ordering::Relaxed)
    }

    fn draw(&self, kind: FaultKind) -> Draw {
        let call = self.spent.fetch_add(1, Ordering::Relaxed);
        if kind == FaultKind::Sync {
            self.syncs.lock().push(call);
        }
        match call.cmp(&self.budget.load(Ordering::Relaxed)) {
            Cmp::Less => Draw::Land,
            Cmp::Equal if kind == FaultKind::Write => Draw::Tear,
            _ => Draw::Refuse,
        }
    }
}

/// A [`DiskBackend`] decorator with a volatile write cache, fault rules
/// and a [`PowerSupply`] (see the module docs for the model).
///
/// ```
/// use bur_storage::{DiskBackend, FaultKind, FaultyDisk, MemDisk, StorageError};
/// use std::sync::Arc;
///
/// let platter = Arc::new(MemDisk::new(128));
/// let disk = FaultyDisk::new(platter.clone());
/// let pid = disk.allocate().unwrap();
/// disk.sync().unwrap();
/// disk.fail_page(FaultKind::Read, pid);
/// let mut buf = vec![0u8; 128];
/// assert!(matches!(
///     disk.read(pid, &mut buf),
///     Err(StorageError::InjectedFault { .. })
/// ));
/// disk.clear_faults();
/// assert!(disk.read(pid, &mut buf).is_ok());
/// // A refused sync: the write stays readable and never persists.
/// disk.write(pid, &[9; 128]).unwrap();
/// disk.fail_nth(FaultKind::Sync, 0);
/// assert!(disk.sync().is_err());
/// disk.sync().unwrap();
/// disk.read(pid, &mut buf).unwrap();
/// assert_eq!(buf, [9; 128]);
/// platter.read(pid, &mut buf).unwrap();
/// assert_eq!(buf, [0; 128]);
/// ```
pub struct FaultyDisk {
    platter: Arc<dyn DiskBackend>,
    power: Arc<PowerSupply>,
    cache: Mutex<Cache>,
    rules: Mutex<Vec<Rule>>,
    /// Operations seen, per kind, in [`FaultKind`] order.
    seen: [AtomicU64; 4],
    injected: AtomicU64,
}

/// What the disk holds that its platter does not.
struct Cache {
    /// Pages written or allocated since the last sync: a sync persists
    /// them, a crash may.
    dirty: BTreeMap<PageId, Box<[u8]>>,
    /// Pages a refused sync covered: readable, never persisted.
    lost: BTreeMap<PageId, Box<[u8]>>,
    /// Page count as the writer sees it (unsynced allocations included).
    num_pages: u32,
}

impl FaultyDisk {
    /// Wrap a disk on a power supply of its own. With no rules and no cut
    /// the wrapper behaves like its platter, except that writes reach the
    /// platter at the next sync.
    #[must_use]
    pub fn new(platter: Arc<dyn DiskBackend>) -> Arc<Self> {
        Self::on(platter, &PowerSupply::new())
    }

    /// Wrap a disk on a shared power supply.
    #[must_use]
    pub fn on(platter: Arc<dyn DiskBackend>, power: &Arc<PowerSupply>) -> Arc<Self> {
        let num_pages = platter.num_pages();
        Arc::new(Self {
            platter,
            power: power.clone(),
            cache: Mutex::new(Cache {
                dirty: BTreeMap::new(),
                lost: BTreeMap::new(),
                num_pages,
            }),
            rules: Mutex::new(Vec::new()),
            seen: Default::default(),
            injected: AtomicU64::new(0),
        })
    }

    /// Wrap two disks on one new power supply, such as a data disk and its
    /// log disk.
    #[must_use]
    pub fn pair(data: Arc<dyn DiskBackend>, log: Arc<dyn DiskBackend>) -> (Arc<Self>, Arc<Self>) {
        let power = PowerSupply::new();
        (Self::on(data, &power), Self::on(log, &power))
    }

    /// The power supply this disk is on.
    #[must_use]
    pub fn power(&self) -> &Arc<PowerSupply> {
        &self.power
    }

    /// Fail exactly the `n`-th operation of `kind` from now (0 = the next
    /// one), counting per kind.
    pub fn fail_nth(&self, kind: FaultKind, n: u64) {
        let base = self.seen(kind).load(Ordering::Relaxed);
        self.rules.lock().push(Rule::NthOps {
            kind,
            from: base + n,
            to: base + n + 1,
        });
    }

    /// Fail the next `count` operations of `kind`.
    pub fn fail_next(&self, kind: FaultKind, count: u64) {
        let base = self.seen(kind).load(Ordering::Relaxed);
        self.rules.lock().push(Rule::NthOps {
            kind,
            from: base,
            to: base + count,
        });
    }

    /// Fail every `kind` access to page `pid` until cleared.
    pub fn fail_page(&self, kind: FaultKind, pid: PageId) {
        self.rules.lock().push(Rule::Page { kind, pid });
    }

    /// Fail every operation of `kind` until cleared (a dead disk).
    pub fn fail_always(&self, kind: FaultKind) {
        self.rules.lock().push(Rule::Always { kind });
    }

    /// Remove all rules. Writes a refused sync lost stay lost.
    pub fn clear_faults(&self) {
        self.rules.lock().clear();
    }

    /// Number of operations failed by a rule or by the power so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The machine lost power with the cache unflushed: every unsynced
    /// write or allocation for which `keep` says `true` (asked once per
    /// page, in page order) reaches the platter, extending it with zero
    /// pages where a kept page lies past its end, as a file system would;
    /// the rest, and every write a refused sync lost, never happened.
    /// Afterwards the disk shows its platter. The power stays as it is.
    pub fn crash(&self, mut keep: impl FnMut() -> bool) -> StorageResult<()> {
        let mut cache = self.cache.lock();
        cache.lost.clear();
        for (pid, data) in std::mem::take(&mut cache.dirty) {
            if keep() {
                self.persist(pid, &data)?;
            }
        }
        cache.num_pages = self.platter.num_pages();
        Ok(())
    }

    fn seen(&self, kind: FaultKind) -> &AtomicU64 {
        &self.seen[kind as usize]
    }

    fn injected(&self, op: &'static str, pid: Option<PageId>) -> StorageError {
        self.injected.fetch_add(1, Ordering::Relaxed);
        StorageError::InjectedFault { op, pid }
    }

    /// Count the operation and fail it when a rule says so.
    fn check(&self, kind: FaultKind, pid: Option<PageId>) -> StorageResult<()> {
        let seq = self.seen(kind).fetch_add(1, Ordering::Relaxed);
        let hit = self.rules.lock().iter().any(|rule| match *rule {
            Rule::NthOps { kind: k, from, to } => k == kind && (from..to).contains(&seq),
            Rule::Page { kind: k, pid: p } => k == kind && pid == Some(p),
            Rule::Always { kind: k } => k == kind,
        });
        if hit {
            return Err(self.injected(kind.label(), pid));
        }
        Ok(())
    }

    /// Draw power for a mutating call, then apply the rules: `Ok(true)`
    /// when the call lands, `Ok(false)` when it is a write the cut tears.
    fn admit(&self, kind: FaultKind, pid: Option<PageId>) -> StorageResult<bool> {
        match self.power.draw(kind) {
            Draw::Land => self.check(kind, pid).map(|()| true),
            Draw::Tear => Ok(false),
            Draw::Refuse => Err(self.injected(kind.label(), pid)),
        }
    }

    /// Page `pid` as the cache shows it.
    fn view(&self, cache: &Cache, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if pid >= cache.num_pages {
            return Err(StorageError::PageOutOfBounds {
                pid,
                len: cache.num_pages,
            });
        }
        match cache.dirty.get(&pid).or_else(|| cache.lost.get(&pid)) {
            Some(data) => buf.copy_from_slice(data),
            None if pid < self.platter.num_pages() => self.platter.read(pid, buf)?,
            None => buf.fill(0),
        }
        Ok(())
    }

    fn persist(&self, pid: PageId, data: &[u8]) -> StorageResult<()> {
        while self.platter.num_pages() <= pid {
            self.platter.allocate()?;
        }
        self.platter.write(pid, data)
    }
}

impl DiskBackend for FaultyDisk {
    fn page_size(&self) -> usize {
        self.platter.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.cache.lock().num_pages
    }

    fn allocate(&self) -> StorageResult<PageId> {
        self.admit(FaultKind::Allocate, None)?;
        let mut cache = self.cache.lock();
        let pid = cache.num_pages;
        cache.num_pages += 1;
        let zeros = vec![0u8; self.page_size()].into_boxed_slice();
        cache.lost.remove(&pid);
        cache.dirty.insert(pid, zeros);
        Ok(pid)
    }

    fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
        check_len(self.page_size(), buf.len())?;
        self.check(FaultKind::Read, Some(pid))?;
        self.view(&self.cache.lock(), pid, buf)
    }

    fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
        check_len(self.page_size(), buf.len())?;
        let lands = self.admit(FaultKind::Write, Some(pid))?;
        let mut cache = self.cache.lock();
        let mut page: Box<[u8]> = buf.into();
        if !lands {
            // Torn: the first half of the page is new, the rest is what
            // the page held before.
            let half = buf.len() / 2;
            self.view(&cache, pid, &mut page)?;
            page[..half].copy_from_slice(&buf[..half]);
        } else if pid >= cache.num_pages {
            return Err(StorageError::PageOutOfBounds {
                pid,
                len: cache.num_pages,
            });
        }
        cache.lost.remove(&pid);
        cache.dirty.insert(pid, page);
        if lands {
            Ok(())
        } else {
            Err(self.injected("torn-write", Some(pid)))
        }
    }

    fn sync(&self) -> StorageResult<()> {
        if !matches!(self.power.draw(FaultKind::Sync), Draw::Land) {
            // No power: what the cache holds is left to the crash.
            return Err(self.injected("sync", None));
        }
        let refused = self.check(FaultKind::Sync, None);
        let mut cache = self.cache.lock();
        if refused.is_err() {
            let dirty = std::mem::take(&mut cache.dirty);
            cache.lost.extend(dirty);
            return refused;
        }
        while let Some((pid, data)) = cache.dirty.pop_first() {
            if let Err(e) = self.persist(pid, &data) {
                cache.dirty.insert(pid, data);
                return Err(e);
            }
        }
        self.platter.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn faulty() -> Arc<FaultyDisk> {
        let d = FaultyDisk::new(Arc::new(MemDisk::new(128)));
        for _ in 0..4 {
            d.allocate().unwrap();
        }
        d.sync().unwrap();
        d
    }

    fn page(disk: &dyn DiskBackend, pid: PageId) -> Vec<u8> {
        let mut buf = vec![0u8; disk.page_size()];
        disk.read(pid, &mut buf).unwrap();
        buf
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
        assert_eq!(page(&*d, 0), buf);
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
    fn writes_reach_the_platter_at_sync_and_a_crash_keeps_what_it_says() {
        let platter = Arc::new(MemDisk::new(128));
        let d = FaultyDisk::new(platter.clone());
        for fill in [1u8, 2] {
            let pid = d.allocate().unwrap();
            d.write(pid, &[fill; 128]).unwrap();
        }
        assert_eq!(platter.num_pages(), 0, "nothing synced yet");
        assert_eq!(page(&*d, 1), [2; 128], "reads see the cache");
        d.sync().unwrap();
        assert_eq!(page(platter.as_ref(), 1), [2; 128]);
        // Three unsynced pages: an overwrite and two allocations. Keep the
        // overwrite and the last allocation.
        d.write(0, &[3; 128]).unwrap();
        let (a, b) = (d.allocate().unwrap(), d.allocate().unwrap());
        d.write(b, &[4; 128]).unwrap();
        let mut keep = [true, false, true].into_iter();
        d.crash(|| keep.next().unwrap()).unwrap();
        assert_eq!((a, b, d.num_pages()), (2, 3, 4));
        assert_eq!(page(&*d, 0), [3; 128]);
        assert_eq!(page(&*d, a), [0; 128], "a lost page reads as zeros");
        assert_eq!(page(&*d, b), [4; 128]);
        // Losing everything leaves the platter as the last sync left it.
        d.write(0, &[5; 128]).unwrap();
        d.allocate().unwrap();
        d.crash(|| false).unwrap();
        assert_eq!(d.num_pages(), 4);
        assert_eq!(page(&*d, 0), [3; 128]);
    }

    #[test]
    fn a_refused_sync_loses_the_writes_it_covered_for_good() {
        let platter = Arc::new(MemDisk::new(128));
        let d = FaultyDisk::new(platter.clone());
        let pid = d.allocate().unwrap();
        d.sync().unwrap();
        d.write(pid, &[1; 128]).unwrap();
        d.fail_nth(FaultKind::Sync, 0);
        assert!(matches!(
            d.sync(),
            Err(StorageError::InjectedFault { op: "sync", .. })
        ));
        assert_eq!(page(&*d, pid), [1; 128], "still readable");
        d.sync().unwrap();
        assert_eq!(page(platter.as_ref(), pid), [0; 128], "never persisted");
        // A crash keeping everything does not bring it back; a write after
        // the refusal persists as usual.
        d.crash(|| true).unwrap();
        assert_eq!(page(&*d, pid), [0; 128]);
        d.write(pid, &[2; 128]).unwrap();
        d.fail_nth(FaultKind::Sync, 0);
        assert!(d.sync().is_err());
        d.write(pid, &[3; 128]).unwrap();
        d.sync().unwrap();
        assert_eq!(page(platter.as_ref(), pid), [3; 128]);
    }

    #[test]
    fn a_cut_tears_the_next_write_and_refuses_everything_after() {
        let d = faulty();
        let a = vec![0xAAu8; 128];
        let b = vec![0xBBu8; 128];
        d.write(0, &a).unwrap();
        d.power().cut_after(1);
        assert!(!d.power().is_cut());
        d.write(1, &a).unwrap(); // lands
        let err = d.write(0, &b).unwrap_err(); // the cut: torn
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
        assert!(d.power().is_cut());
        // The torn page holds the new first half and the old second half.
        let got = page(&*d, 0);
        assert!(got[..64].iter().all(|&x| x == 0xBB), "new prefix");
        assert!(got[64..].iter().all(|&x| x == 0xAA), "old suffix");
        // Everything after the cut is refused: writes, allocations, syncs.
        assert!(d.write(1, &b).is_err());
        assert_eq!(page(&*d, 1), a, "a refused write changes nothing");
        assert!(d.allocate().is_err());
        assert_eq!(d.num_pages(), 4);
        assert!(d.sync().is_err());
        assert_eq!(d.injected_faults(), 4);
        // Keeping every unsynced write is the device that persisted all
        // it was sent, the torn page included.
        d.crash(|| true).unwrap();
        assert_eq!(page(&*d, 0), got);
        d.power().restore();
        d.write(1, &b).unwrap();
        d.sync().unwrap();
    }

    #[test]
    fn a_cut_on_a_sync_or_allocation_refuses_it_whole() {
        let d = faulty();
        d.power().cut_after(0);
        assert!(d.sync().is_err());
        assert!(d.power().is_cut());
        let d = faulty();
        d.power().cut_after(0);
        assert!(d.allocate().is_err());
        assert_eq!(d.num_pages(), 4);
    }

    #[test]
    fn disks_on_one_supply_share_one_cut_and_its_sync_record() {
        let (data, log) =
            FaultyDisk::pair(Arc::new(MemDisk::new(128)), Arc::new(MemDisk::new(128)));
        assert!(Arc::ptr_eq(data.power(), log.power()));
        for disk in [&data, &log] {
            disk.allocate().unwrap();
            disk.allocate().unwrap();
        }
        let old = vec![0xAAu8; 128];
        let new = vec![0xBBu8; 128];
        data.write(0, &old).unwrap();
        log.write(0, &old).unwrap();
        log.sync().unwrap(); // call #6
                             // Counted across both: calls #7–#9 land, #10 (on the log) tears.
        data.power().cut_after(3);
        data.write(1, &new).unwrap();
        log.write(1, &new).unwrap();
        data.sync().unwrap(); // call #9
        assert!(log.write(0, &new).is_err(), "the stated call tears");
        assert!(log.power().is_cut());
        assert_eq!(data.power().sync_calls(), [6, 9]);
        for disk in [&data, &log] {
            assert!(disk.write(1, &old).is_err());
            assert!(disk.allocate().is_err());
            assert!(disk.sync().is_err());
        }
        assert_eq!(data.power().sync_calls(), [6, 9, 13, 16]);
        // Rules stay per disk.
        data.fail_always(FaultKind::Read);
        let mut buf = vec![0u8; 128];
        assert!(data.read(0, &mut buf).is_err());
        log.read(0, &mut buf).unwrap();
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
