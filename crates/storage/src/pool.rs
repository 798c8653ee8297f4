//! Write-back buffer pool with LRU replacement.
//!
//! All bookkeeping is one page-indexed table ([`Slot`], one per page of
//! the file) under one mutex: nothing on the hit path hashes a page id.

use crate::lru::LruList;
use crate::{DiskBackend, IoStats, Lsn, PageId, StorageError, StorageResult};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of *unpinned* frames retained in memory. `0` reproduces the
    /// paper's "0 % buffer": a page survives only while pinned, so every
    /// fetch is a physical read and every dirty page is written back as
    /// soon as its last guard drops.
    pub capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // A small default; experiments size this explicitly as a
        // percentage of the data pages (the paper's default is 1 %).
        Self { capacity: 128 }
    }
}

/// One cached page.
struct Frame {
    pid: PageId,
    data: RwLock<Box<[u8]>>,
    dirty: AtomicBool,
    pins: AtomicUsize,
    /// Writers between marking the page touched and releasing their
    /// write latch (WAL mode only). While there is one, the page stays
    /// touched: a record taken meanwhile may miss its write.
    writers: AtomicUsize,
}

impl Frame {
    /// A frame holding one pin.
    fn pinned(pid: PageId, data: Box<[u8]>, dirty: bool) -> Arc<Self> {
        Arc::new(Frame {
            pid,
            data: RwLock::new(data),
            dirty: AtomicBool::new(dirty),
            pins: AtomicUsize::new(1),
            writers: AtomicUsize::new(0),
        })
    }
}

/// A page's content as of its last logged record, kept from the first
/// write latch after that record until the page is logged again: the
/// base the log diffs the page's next record against
/// (`bur_wal::Wal::append_page`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreImage {
    /// LSN of the record whose content `data` is.
    pub lsn: Lsn,
    /// The page's bytes.
    pub data: Box<[u8]>,
}

/// [`Slot::flags`]: the page is an unpinned frame on [`PoolState::lru`].
pub(crate) const IN_LRU: u8 = 1;
/// [`Slot::flags`]: the page is an unpinned frame the WAL gate refused to
/// evict, queued on [`PoolState::parked`].
pub(crate) const PARKED: u8 = 1 << 1;
/// [`Slot::flags`]: the page was write-latched since its last logged
/// image, so its current content is not in the log yet and writing it
/// back would steal uncommitted data onto disk.
const TOUCHED: u8 = 1 << 2;

/// Everything the pool knows about one page of the file. Page ids are
/// allocated densely from 0, so the pool indexes a `Vec<Slot>` by page id
/// where it would otherwise hash: residency, the LRU links and the WAL
/// gate's per-page state are all one array access away.
#[derive(Default)]
pub(crate) struct Slot {
    /// The resident frame, pinned or not.
    frame: Option<Arc<Frame>>,
    /// Links of the list the page is on (`IN_LRU` or `PARKED`): `prev`
    /// towards the most recently used end, `next` towards the least,
    /// [`crate::INVALID_PAGE`] at either end. Garbage while the page is on
    /// no list.
    pub(crate) prev: PageId,
    pub(crate) next: PageId,
    /// Index of this page in [`PoolState::touched`] while `TOUCHED`.
    touched_at: u32,
    /// LSN of the last logged image of the page (0 = none noted). A dirty
    /// frame may only be written back once the log is durable past it.
    page_lsn: Lsn,
    /// `IN_LRU` | `PARKED` | `TOUCHED`.
    pub(crate) flags: u8,
}

struct PoolState {
    /// One slot per page id, grown on demand and never past
    /// `disk.num_pages()`.
    slots: Vec<Slot>,
    /// Number of slots holding a frame.
    resident: usize,
    /// Unpinned frames, least recently used at the back (the eviction
    /// victim).
    lru: LruList,
    /// Unpinned frames the WAL gate refused to evict (uncommitted or not
    /// yet durable), oldest at the back. Parked out of `lru` so
    /// capacity sweeps never rescan them; they re-enter when the durable
    /// LSN advances ([`BufferPool::set_durable_lsn`]), on a checkpoint
    /// reset, or when they are re-pinned. Invariant: an unpinned resident
    /// frame is in exactly one of `lru` / `parked`.
    parked: LruList,
    /// The `TOUCHED` pages, unordered (live only in WAL mode). These are
    /// the pages the next commit must log.
    touched: Vec<PageId>,
    /// Pre-images of touched pages that were logged in this generation,
    /// by page id: a side table, so a [`Slot`] stays 32 bytes.
    pre_images: HashMap<PageId, PreImage>,
}

impl PoolState {
    /// The slot of `pid`, growing the table to reach it. Page ids the
    /// disk never allocated are refused before anything grows.
    fn slot(&mut self, disk: &dyn DiskBackend, pid: PageId) -> StorageResult<&mut Slot> {
        let idx = pid as usize;
        if idx >= self.slots.len() {
            let len = disk.num_pages();
            if pid >= len {
                return Err(StorageError::PageOutOfBounds { pid, len });
            }
            self.slots.resize_with(idx + 1, Slot::default);
        }
        Ok(&mut self.slots[idx])
    }

    /// Pin the frame of `pid` when it is resident (a hit).
    fn pin_resident(&mut self, pid: PageId) -> Option<Arc<Frame>> {
        let frame = self.slots[pid as usize].frame.clone()?;
        if frame.pins.fetch_add(1, Ordering::Relaxed) == 0 && !self.lru.remove(&mut self.slots, pid)
        {
            self.parked.remove(&mut self.slots, pid);
        }
        Some(frame)
    }

    /// Make a freshly pinned frame resident.
    fn install(&mut self, frame: &Arc<Frame>) {
        let prev = self.slots[frame.pid as usize].frame.replace(frame.clone());
        debug_assert!(prev.is_none(), "page {} already resident", frame.pid);
        self.resident += 1;
    }

    fn mark_touched(&mut self, pid: PageId) {
        let slot = &mut self.slots[pid as usize];
        if slot.flags & TOUCHED == 0 {
            slot.flags |= TOUCHED;
            slot.touched_at = self.touched.len() as u32;
            self.touched.push(pid);
        }
    }

    /// Register a writer of `frame` ahead of its write latch and mark
    /// the page touched. On the transition, when the page was logged in
    /// this generation, its bytes are still that record's content and
    /// become its pre-image. The read latch cannot wait: a write latch is
    /// only ever held on a touched page.
    fn touch(&mut self, frame: &Frame) {
        frame.writers.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[frame.pid as usize];
        if slot.flags & TOUCHED != 0 {
            return;
        }
        let lsn = slot.page_lsn;
        self.mark_touched(frame.pid);
        if lsn != 0 {
            let data = (**frame.data.read()).into();
            self.pre_images.insert(frame.pid, PreImage { lsn, data });
        }
    }

    fn clear_touched(&mut self, pid: PageId) {
        let slot = &mut self.slots[pid as usize];
        if slot.flags & TOUCHED != 0 {
            slot.flags &= !TOUCHED;
            let at = slot.touched_at as usize;
            self.touched.swap_remove(at);
            if let Some(&moved) = self.touched.get(at) {
                self.slots[moved as usize].touched_at = at as u32;
            }
        }
    }

    /// Forget all gate state: nothing is touched, no page has a logged
    /// image or a pre-image, and every parked frame is back in `lru`.
    fn reset_gate(&mut self) {
        self.touched.clear();
        self.pre_images.clear();
        for slot in &mut self.slots {
            slot.flags &= !TOUCHED;
            slot.page_lsn = 0;
        }
        self.unpark_all();
    }

    /// Move every parked frame back into `lru`, oldest first so
    /// their relative recency survives (gate state changed wholesale;
    /// eviction sweeps re-park whatever is still blocked).
    fn unpark_all(&mut self) {
        while let Some(pid) = self.parked.pop_back(&mut self.slots) {
            self.lru.push_front(&mut self.slots, pid);
        }
    }
}

/// An LRU write-back buffer pool over a [`DiskBackend`].
///
/// * fetch hit — no physical I/O;
/// * fetch miss — one physical read;
/// * eviction or flush of a dirty frame — one physical write.
///
/// Frames returned by [`BufferPool::fetch`] are pinned until the guard is
/// dropped; pinned frames are never evicted. Capacity counts *unpinned*
/// frames, so deep operations can transiently hold more pages than the
/// capacity without failing, matching how the experiments in the paper
/// treat the buffer as a cache rather than a hard memory budget.
///
/// ```
/// use bur_storage::{BufferPool, MemDisk, PoolConfig};
/// use std::sync::Arc;
///
/// let pool = BufferPool::new(
///     Arc::new(MemDisk::new(1024)),
///     PoolConfig { capacity: 8 },
/// );
/// let (pid, page) = pool.new_page().unwrap();
/// page.write()[0] = 42;
/// drop(page);
/// assert_eq!(pool.fetch(pid).unwrap().read()[0], 42);
/// // Physical I/O is counted at the pool:
/// assert_eq!(pool.stats().snapshot().reads, 0); // the page was cached
/// ```
pub struct BufferPool {
    disk: Arc<dyn DiskBackend>,
    capacity: AtomicUsize,
    state: Mutex<PoolState>,
    stats: IoStats,
    /// WAL-aware mode switch. Off by default; the hot paths only pay one
    /// relaxed atomic load while it stays off. The gate's per-page state
    /// (touched bits, page LSNs) lives in the slot table under `state` —
    /// the pool has one lock.
    wal_mode: AtomicBool,
    /// Highest LSN known durable in the log.
    durable_lsn: AtomicU64,
}

impl BufferPool {
    /// Create a pool over `disk`.
    #[must_use]
    pub fn new(disk: Arc<dyn DiskBackend>, config: PoolConfig) -> Self {
        Self {
            disk,
            capacity: AtomicUsize::new(config.capacity),
            state: Mutex::new(PoolState {
                slots: Vec::new(),
                resident: 0,
                lru: LruList::new(IN_LRU),
                parked: LruList::new(PARKED),
                touched: Vec::new(),
                pre_images: HashMap::new(),
            }),
            stats: IoStats::new(),
            wal_mode: AtomicBool::new(false),
            durable_lsn: AtomicU64::new(0),
        }
    }

    // ---- WAL-aware mode --------------------------------------------------

    /// Switch the WAL-aware mode on or off (see the crate docs). Turning
    /// it off clears all gate state.
    pub fn set_wal_mode(&self, enabled: bool) {
        self.wal_mode.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.state.lock().reset_gate();
        }
    }

    /// `true` when the WAL-aware mode is active.
    #[must_use]
    pub fn wal_mode(&self) -> bool {
        self.wal_mode.load(Ordering::Relaxed)
    }

    /// Pages write-latched since their last logged image, sorted for
    /// deterministic log layouts. These are the pages a commit must log.
    #[must_use]
    pub fn touched_pages(&self) -> Vec<PageId> {
        let mut v = self.state.lock().touched.clone();
        v.sort_unstable();
        v
    }

    /// Record that the content `logged` holds was appended to the log as
    /// `lsn`: the page drops its pre-image, is no longer touched, and
    /// becomes writable back to disk once the log is durable past `lsn`.
    ///
    /// `logged` is the read latch the record was built from, still held:
    /// no write can land between the record's read and this note, and a
    /// writer already waiting for the X latch is counted. Such a page
    /// stays touched: that write is in no record.
    pub fn note_page_logged(&self, logged: &PageReadLatch<'_>, lsn: Lsn) {
        self.note_logged(logged.pid, lsn);
    }

    fn note_logged(&self, pid: PageId, lsn: Lsn) {
        let mut state = self.state.lock();
        // A page the disk never allocated has no frame to gate.
        if let Ok(slot) = state.slot(&*self.disk, pid) {
            slot.page_lsn = lsn;
            let writing = slot
                .frame
                .as_ref()
                .is_some_and(|frame| frame.writers.load(Ordering::Relaxed) > 0);
            if !writing {
                state.clear_touched(pid);
            }
            state.pre_images.remove(&pid);
        }
    }

    /// Hand over the pre-image of `pid`: its content as of its last
    /// logged record, taken at the first write latch after that record.
    /// `None` when the page was not logged in this generation, was not
    /// written since, was a blind-overwrite miss, or had a writer waiting
    /// for its X latch when its last record was noted. Commit paths pass it to
    /// the log as the delta base.
    #[must_use]
    pub fn take_pre_image(&self, pid: PageId) -> Option<PreImage> {
        self.state.lock().pre_images.remove(&pid)
    }

    /// Publish the log's durable horizon; frames whose last image lies at
    /// or below it become flushable. Parked frames the gate had turned
    /// away re-enter the LRU list here (and the capacity is re-enforced),
    /// so eviction is event-driven instead of rescanning blocked frames
    /// on every unpin.
    pub fn set_durable_lsn(&self, lsn: Lsn) {
        self.durable_lsn.store(lsn, Ordering::Relaxed);
        if !self.wal_mode.load(Ordering::Relaxed) {
            return;
        }
        let state = &mut *self.state.lock();
        if state.parked.len() == 0 {
            return;
        }
        // Oldest first, so the unparked frames keep their relative recency.
        let unparked: Vec<PageId> = state
            .parked
            .iter_from_back(&state.slots)
            .filter(|&pid| {
                let slot = &state.slots[pid as usize];
                slot.flags & TOUCHED == 0 && slot.page_lsn <= lsn
            })
            .collect();
        for pid in unparked {
            state.parked.remove(&mut state.slots, pid);
            state.lru.push_front(&mut state.slots, pid);
        }
        // Write-back errors have nowhere to report from here; the frames
        // are retained and the error resurfaces on the next flush.
        let _ = self.enforce_capacity(state);
    }

    /// The published durable horizon.
    #[must_use]
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn.load(Ordering::Relaxed)
    }

    /// LSN of the last logged image of `pid`, when one was noted.
    #[must_use]
    pub fn page_lsn(&self, pid: PageId) -> Option<Lsn> {
        let state = self.state.lock();
        let lsn = state.slots.get(pid as usize)?.page_lsn;
        (lsn != 0).then_some(lsn)
    }

    /// `true` while `pid` is write-latched since its last logged image
    /// (its current content exists only in memory). Commit paths use this
    /// to decide which pages a batch must log.
    #[must_use]
    pub fn is_touched(&self, pid: PageId) -> bool {
        let state = self.state.lock();
        state
            .slots
            .get(pid as usize)
            .is_some_and(|slot| slot.flags & TOUCHED != 0)
    }

    /// Pin `pid`, run `f` under its shared (S) latch, and unpin.
    ///
    /// The pin and latch are scoped to the call, so `f` must not attempt
    /// to latch the same frame again (the page latch is not reentrant).
    /// A miss performs one physical read, exactly like
    /// [`BufferPool::fetch`].
    ///
    /// ```
    /// use bur_storage::{BufferPool, MemDisk, PoolConfig};
    /// use std::sync::Arc;
    ///
    /// let pool = BufferPool::new(Arc::new(MemDisk::new(64)), PoolConfig::default());
    /// let (pid, page) = pool.new_page().unwrap();
    /// page.write()[2] = 5;
    /// drop(page);
    /// let v = pool.with_page_read(pid, |bytes| bytes[2]).unwrap();
    /// assert_eq!(v, 5);
    /// ```
    pub fn with_page_read<T>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> T) -> StorageResult<T> {
        let page = self.fetch(pid)?;
        let latch = page.read();
        Ok(f(&latch))
    }

    /// Pin `pid`, run `f` under its exclusive (X) latch, and unpin.
    ///
    /// Marks the frame dirty (and touched in WAL mode) like
    /// [`PageRef::write`]. Single-page read-modify-writes — the parent
    /// entry enlargement of the bottom-up update paths, for example — use
    /// this so the read, the decision, and the write are one atomic
    /// critical section with respect to every other latcher of the frame.
    ///
    /// ```
    /// use bur_storage::{BufferPool, MemDisk, PoolConfig};
    /// use std::sync::Arc;
    ///
    /// let pool = BufferPool::new(Arc::new(MemDisk::new(64)), PoolConfig::default());
    /// let (pid, page) = pool.new_page().unwrap();
    /// drop(page);
    /// pool.with_page_write(pid, |bytes| bytes[0] = bytes[0].max(9)).unwrap();
    /// assert_eq!(pool.with_page_read(pid, |b| b[0]).unwrap(), 9);
    /// ```
    pub fn with_page_write<T>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> StorageResult<T> {
        let page = self.fetch(pid)?;
        let mut latch = page.write();
        Ok(f(&mut latch))
    }

    /// Checkpoint reset: after the caller has made the log durable and is
    /// about to flush every frame as the new base image, all per-page
    /// gate state is obsolete. Clears touched pages and page LSNs (so the
    /// following [`BufferPool::flush_all`] writes everything) and unparks
    /// every gated frame.
    pub fn wal_checkpoint_reset(&self) {
        self.state.lock().reset_gate();
    }

    /// Page size of the underlying disk.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    /// The underlying disk.
    #[must_use]
    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// I/O counters (shared by all users of this pool).
    #[must_use]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Current capacity in unpinned frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Number of resident frames (pinned + unpinned).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.state.lock().resident
    }

    /// Number of frames currently pinned by at least one [`PageRef`].
    /// Walks every resident frame — a diagnostic for tests that assert an
    /// operation released all its pins, not a hot-path counter.
    #[must_use]
    pub fn pinned_frames(&self) -> usize {
        let state = self.state.lock();
        state
            .slots
            .iter()
            .filter_map(|slot| slot.frame.as_ref())
            .filter(|f| f.pins.load(Ordering::Relaxed) > 0)
            .count()
    }

    /// Change the capacity, evicting immediately if shrinking.
    pub fn set_capacity(&self, capacity: usize) -> StorageResult<()> {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut state = self.state.lock();
        // Exhaustive (unbudgeted): an explicit shrink must land fully.
        state.unpark_all();
        self.enforce_capacity_inner(&mut state, usize::MAX)
    }

    /// A zeroed page-sized buffer.
    fn blank_page(&self) -> Box<[u8]> {
        vec![0u8; self.disk.page_size()].into_boxed_slice()
    }

    /// Allocate a fresh zeroed page and return it pinned.
    pub fn new_page(&self) -> StorageResult<(PageId, PageRef<'_>)> {
        let pid = self.disk.allocate()?;
        self.stats.record_allocation();
        let frame = Frame::pinned(pid, self.blank_page(), false);
        let mut state = self.state.lock();
        state.slot(&*self.disk, pid)?;
        state.install(&frame);
        drop(state);
        Ok((pid, PageRef { pool: self, frame }))
    }

    /// Fetch a page, pinning it. A miss performs one physical read. A
    /// page id the disk never allocated is
    /// [`StorageError::PageOutOfBounds`].
    pub fn fetch(&self, pid: PageId) -> StorageResult<PageRef<'_>> {
        self.stats.record_fetch();
        let mut state = self.state.lock();
        state.slot(&*self.disk, pid)?;
        if let Some(frame) = state.pin_resident(pid) {
            return Ok(PageRef { pool: self, frame });
        }
        // Miss: read from disk while holding the state lock. This
        // serializes concurrent misses for the same page (no duplicate
        // frames) at the cost of serializing physical reads, which is fine
        // for a simulated disk.
        let mut buf = self.blank_page();
        self.disk.read(pid, &mut buf)?;
        self.stats.record_read();
        let frame = Frame::pinned(pid, buf, false);
        state.install(&frame);
        Ok(PageRef { pool: self, frame })
    }

    /// Fetch a page the caller will *fully overwrite*, pinning it. Unlike
    /// [`BufferPool::fetch`], a miss does not read the old contents from
    /// disk (a "blind write"): the frame starts zeroed and is marked dirty
    /// by the caller's first write latch. Node rewrites use this so that a
    /// read-modify-write of one page costs exactly one read and one write
    /// even with a cold cache, matching the paper's I/O accounting
    /// ("R/W leaf node = 2").
    ///
    /// Contract: the caller **must** overwrite the whole page before the
    /// guard drops. On a miss the frame starts zeroed and already dirty,
    /// so skipping the overwrite would persist zeros. The page must exist:
    /// an id the disk never allocated is [`StorageError::PageOutOfBounds`]
    /// here, not at write-back.
    pub fn fetch_for_overwrite(&self, pid: PageId) -> StorageResult<PageRef<'_>> {
        self.stats.record_fetch();
        let mut state = self.state.lock();
        state.slot(&*self.disk, pid)?;
        if let Some(frame) = state.pin_resident(pid) {
            return Ok(PageRef { pool: self, frame });
        }
        let frame = Frame::pinned(pid, self.blank_page(), true);
        state.install(&frame);
        // The frame is dirty from birth: gate it like any other write.
        if self.wal_mode.load(Ordering::Relaxed) {
            state.mark_touched(pid);
        }
        Ok(PageRef { pool: self, frame })
    }

    /// Write all dirty frames back to disk in ascending page-id order
    /// (counting physical writes) and sync the backend. Frames stay
    /// resident. In WAL mode, frames whose last image is not yet durable
    /// in the log are silently skipped.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.write_back_all()?;
        self.disk.sync()
    }

    /// [`BufferPool::flush_all`] without the sync, for a caller that must
    /// tell a refused write (the frame stays dirty, and a retry writes
    /// it) from a failed sync (what it covered may be lost).
    pub fn write_back_all(&self) -> StorageResult<()> {
        self.flush_frames(&self.state.lock())
    }

    /// Flush dirty frames — in ascending page-id order, like
    /// [`BufferPool::flush_all`] — and then drop every unpinned frame: a
    /// cold cache. In WAL mode, frames that may not leave memory yet stay
    /// resident. A write-back error drops nothing.
    pub fn evict_all(&self) -> StorageResult<()> {
        let state = &mut *self.state.lock();
        // Give parked frames another chance: the gate may have opened
        // since they were turned away (the loop re-parks the rest).
        state.unpark_all();
        // Pinned frames (if any) are flushed but stay resident.
        self.flush_frames(state)?;
        while let Some(victim) = state.lru.pop_back(&mut state.slots) {
            self.release(state, victim)?;
        }
        self.disk.sync()
    }

    /// Write every dirty frame the WAL gate lets go, ascending by page id.
    fn flush_frames(&self, state: &PoolState) -> StorageResult<()> {
        for slot in &state.slots {
            self.write_back(slot)?;
        }
        Ok(())
    }

    /// Write one slot's frame back if it has one and it is dirty. Returns
    /// `false` when the WAL gate forbids it (uncommitted content, or image
    /// not yet durable): the frame keeps its dirty bit and must stay
    /// resident.
    fn write_back(&self, slot: &Slot) -> StorageResult<bool> {
        let Some(frame) = &slot.frame else {
            return Ok(true);
        };
        if !frame.dirty.load(Ordering::Relaxed) {
            return Ok(true);
        }
        if self.wal_mode.load(Ordering::Relaxed)
            && (slot.flags & TOUCHED != 0
                || slot.page_lsn > self.durable_lsn.load(Ordering::Relaxed))
        {
            return Ok(false);
        }
        if frame.dirty.swap(false, Ordering::Relaxed) {
            let data = frame.data.read();
            if let Err(e) = self.disk.write(frame.pid, &data) {
                // Restore the dirty bit (under the read latch, so no
                // concurrent writer can be lost): the frame still holds
                // the only copy and the next flush must retry it.
                frame.dirty.store(true, Ordering::Relaxed);
                return Err(e);
            }
            self.stats.record_write();
        }
        Ok(true)
    }

    /// Let go of `victim`, just popped off the LRU list: write it back and
    /// drop its frame, or park it when the WAL gate holds it (off the LRU
    /// list until the durable horizon advances — no rescans meanwhile).
    /// When the disk rejects the write-back the frame (and its dirty
    /// data) re-enters the LRU list so nothing is lost,
    /// and the error is returned.
    fn release(&self, state: &mut PoolState, victim: PageId) -> StorageResult<()> {
        let slot = &mut state.slots[victim as usize];
        debug_assert!(slot.frame.is_some(), "LRU entry must be resident");
        match self.write_back(slot) {
            Ok(true) => {
                slot.frame = None;
                state.resident -= 1;
                Ok(())
            }
            Ok(false) => {
                state.parked.push_front(&mut state.slots, victim);
                Ok(())
            }
            Err(e) => {
                state.lru.push_front(&mut state.slots, victim);
                Err(e)
            }
        }
    }

    /// Per-unpin capacity enforcement. Bounded: in WAL mode, dirty frames
    /// whose image is not yet durable cannot be written back, and between
    /// syncs there can be far more of them than the capacity. Without a
    /// budget every unpin would rescan all of them (O(resident) per
    /// operation); with one, each call examines a bounded slice and
    /// blocked victims are parked, so successive sweeps see different
    /// candidates and still reclaim every evictable frame. A write-back
    /// error ends the sweep; it resurfaces on the next explicit flush.
    fn enforce_capacity(&self, state: &mut PoolState) -> StorageResult<()> {
        self.enforce_capacity_inner(state, 64)
    }

    fn enforce_capacity_inner(
        &self,
        state: &mut PoolState,
        mut budget: usize,
    ) -> StorageResult<()> {
        let cap = self.capacity.load(Ordering::Relaxed);
        while state.lru.len() > cap && budget > 0 {
            budget -= 1;
            let Some(victim) = state.lru.pop_back(&mut state.slots) else {
                break;
            };
            self.release(state, victim)?;
        }
        Ok(())
    }

    /// Called by [`PageRef::drop`].
    fn unpin(&self, frame: &Arc<Frame>) {
        let mut state = self.state.lock();
        let prev = frame.pins.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "unpin of unpinned frame {}", frame.pid);
        if prev == 1 {
            // A pinned frame is never dropped from its slot, and a frame
            // can be re-fetched and unpinned concurrently — all under the
            // state lock, so the accounting here is exact.
            debug_assert!(state.slots[frame.pid as usize].frame.is_some());
            let state = &mut *state;
            state.lru.push_front(&mut state.slots, frame.pid);
            // A write-back failure here has nowhere to report from a
            // destructor; `release` retains the frame (no data is lost)
            // and the error resurfaces on the next flush.
            let _ = self.enforce_capacity(state);
        }
    }
}

/// A pinned reference to a buffered page.
///
/// # Pins vs latches
///
/// A `PageRef` is a **pin**: it guarantees residency (the frame cannot be
/// evicted) but grants *no* access to the bytes. Byte access requires a
/// **latch** — [`PageRef::read`] (shared) or [`PageRef::write`]
/// (exclusive) — whose guard lifetime is independent of the pin. The two
/// lifetimes are deliberately separated so that an operation can keep a
/// page resident across several short latch windows (the bottom-up update
/// paths do exactly this), and so that pin counting never blocks on frame
/// contents.
///
/// The write latch marks the frame dirty (and, in WAL mode, *touched*).
/// Dropping the `PageRef` unpins the frame and may trigger eviction of
/// *other* (least-recently-used) frames — never of a frame whose latch or
/// pin is still held.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    frame: Arc<Frame>,
}

impl PageRef<'_> {
    /// Id of the pinned page.
    #[must_use]
    pub fn pid(&self) -> PageId {
        self.frame.pid
    }

    /// Acquire the shared (S) page latch.
    ///
    /// Blocks while another thread holds the exclusive latch on the same
    /// frame. Readers never observe a torn page: every writer mutates the
    /// bytes only under the exclusive latch.
    ///
    /// # Latch invariants
    ///
    /// * Hold at most one latch per frame per thread — the latch is not
    ///   reentrant, and S→X upgrade attempts on the same frame deadlock.
    /// * Callers that latch *multiple* frames must follow the crate-wide
    ///   latch order (parent before child, one-at-a-time in the bottom-up
    ///   paths); see `docs/ARCHITECTURE.md` ("Latching protocol").
    pub fn read(&self) -> PageReadLatch<'_> {
        PageReadLatch {
            pid: self.frame.pid,
            guard: self.frame.data.read(),
        }
    }

    /// Acquire the exclusive (X) page latch and mark the frame dirty
    /// (and, in WAL mode, touched — its content must be logged before it
    /// may be written back).
    ///
    /// # Latch invariants
    ///
    /// Same ordering rules as [`PageRef::read`]. Additionally, the dirty
    /// and touched marks are set *before* latch acquisition: a concurrent
    /// commit that snapshots the touched set therefore either sees this
    /// page (and logs its post-write image after the latch drops) or the
    /// write happens entirely after the snapshot — never a lost update.
    /// The first write latch after the page's last logged record also
    /// keeps the page's bytes as its pre-image
    /// ([`BufferPool::take_pre_image`]), in the same critical section that
    /// marks it touched.
    pub fn write(&self) -> PageWriteLatch<'_> {
        self.frame.dirty.store(true, Ordering::Relaxed);
        let mut writers = None;
        if self.pool.wal_mode.load(Ordering::Relaxed) {
            self.pool.state.lock().touch(&self.frame);
            writers = Some(&self.frame.writers);
        }
        PageWriteLatch {
            guard: self.frame.data.write(),
            writers,
        }
    }

    /// `true` when the frame has unwritten modifications.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.frame.dirty.load(Ordering::Relaxed)
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.unpin(&self.frame);
    }
}

/// Shared (S) latch on one page's bytes; see [`PageRef::read`].
///
/// Derefs to `[u8]`. Holding it blocks writers of *this* frame only;
/// frames are latched independently, which is what lets disjoint-granule
/// batches overlap physically.
///
/// ```
/// use bur_storage::{BufferPool, MemDisk, PoolConfig};
/// use std::sync::Arc;
///
/// let pool = BufferPool::new(Arc::new(MemDisk::new(64)), PoolConfig::default());
/// let (pid, page) = pool.new_page().unwrap();
/// page.write()[0] = 7; // exclusive latch, released at the end of the statement
/// let latch = page.read(); // shared latch
/// assert_eq!(latch[0], 7);
/// assert_eq!(latch.len(), 64);
/// # let _ = pid;
/// ```
pub struct PageReadLatch<'a> {
    pid: PageId,
    guard: RwLockReadGuard<'a, Box<[u8]>>,
}

impl std::ops::Deref for PageReadLatch<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

/// Exclusive (X) latch on one page's bytes; see [`PageRef::write`].
///
/// Derefs to `[u8]` (mutably). Acquiring it has already marked the frame
/// dirty/touched, so the WAL gate can never write back a frame whose
/// mutation is still in flight.
///
/// ```
/// use bur_storage::{BufferPool, MemDisk, PoolConfig};
/// use std::sync::Arc;
///
/// let pool = BufferPool::new(Arc::new(MemDisk::new(64)), PoolConfig::default());
/// let (_pid, page) = pool.new_page().unwrap();
/// let mut latch = page.write();
/// latch.fill(3);
/// latch[1] = 9;
/// drop(latch); // X latch released; the pin (`page`) is still held
/// assert_eq!(page.read()[0], 3);
/// ```
pub struct PageWriteLatch<'a> {
    guard: RwLockWriteGuard<'a, Box<[u8]>>,
    /// The frame's writer count, in WAL mode; released with the latch.
    writers: Option<&'a AtomicUsize>,
}

impl Drop for PageWriteLatch<'_> {
    fn drop(&mut self) {
        // Before the guard is released: a record is noted under the read
        // latch it was read through, so no note runs between the two.
        if let Some(writers) = self.writers {
            writers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl std::ops::Deref for PageWriteLatch<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.guard
    }
}

impl std::ops::DerefMut for PageWriteLatch<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new(128)), PoolConfig { capacity })
    }

    #[test]
    fn hit_does_not_read_disk() {
        let p = pool(4);
        let (pid, guard) = p.new_page().unwrap();
        drop(guard);
        let before = p.stats().snapshot();
        let g = p.fetch(pid).unwrap();
        drop(g);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 0, "resident page must not hit the disk");
        assert_eq!(d.fetches, 1);
    }

    #[test]
    fn miss_reads_once() {
        let p = pool(1);
        let (a, ga) = p.new_page().unwrap();
        {
            let mut w = ga.write();
            w[0] = 7;
        }
        drop(ga);
        let (_b, gb) = p.new_page().unwrap();
        drop(gb); // capacity 1: unpinning b evicts a (LRU), writing it back.
        let before = p.stats().snapshot();
        let g = p.fetch(a).unwrap();
        assert_eq!(g.read()[0], 7, "written data must survive eviction");
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 1);
    }

    #[test]
    fn dirty_eviction_counts_write() {
        let p = pool(0);
        let (pid, g) = p.new_page().unwrap();
        {
            let mut w = g.write();
            w[5] = 99;
        }
        let before = p.stats().snapshot();
        drop(g); // capacity 0: immediate write-back + eviction.
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.writes, 1);
        assert_eq!(p.resident(), 0);
        // Data must be on disk.
        let g = p.fetch(pid).unwrap();
        assert_eq!(g.read()[5], 99);
    }

    #[test]
    fn clean_eviction_skips_write() {
        let p = pool(0);
        let (pid, g) = p.new_page().unwrap();
        drop(g); // clean (never write-latched): no disk write
        let before = p.stats().snapshot();
        let g = p.fetch(pid).unwrap();
        drop(g);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn pinned_frames_never_evicted() {
        let p = pool(0);
        let (pid, g) = p.new_page().unwrap();
        // Create pressure: allocate and drop several other pages.
        for _ in 0..4 {
            let (_x, gx) = p.new_page().unwrap();
            drop(gx);
        }
        assert_eq!(p.resident(), 1, "only the pinned page stays");
        assert_eq!(g.pid(), pid);
    }

    #[test]
    fn lru_victim_selection() {
        let p = pool(2);
        let (a, ga) = p.new_page().unwrap();
        let (b, gb) = p.new_page().unwrap();
        let (c, gc) = p.new_page().unwrap();
        drop(ga);
        drop(gb);
        drop(gc); // unpinned order: a, b, c → a is LRU, capacity 2 evicts a
        assert_eq!(p.resident(), 2);
        let before = p.stats().snapshot();
        drop(p.fetch(b).unwrap()); // hit
        drop(p.fetch(c).unwrap()); // hit
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 0);
        let before = p.stats().snapshot();
        drop(p.fetch(a).unwrap()); // miss
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 1);
    }

    #[test]
    fn refetch_refreshes_recency() {
        let p = pool(2);
        let (a, ga) = p.new_page().unwrap();
        let (b, gb) = p.new_page().unwrap();
        drop(ga);
        drop(gb);
        // Touch a so that b becomes the LRU victim.
        drop(p.fetch(a).unwrap());
        let (_c, gc) = p.new_page().unwrap();
        drop(gc); // evicts b
        let before = p.stats().snapshot();
        drop(p.fetch(a).unwrap());
        assert_eq!(p.stats().snapshot().since(&before).reads, 0);
        let before = p.stats().snapshot();
        drop(p.fetch(b).unwrap());
        assert_eq!(p.stats().snapshot().since(&before).reads, 1);
    }

    #[test]
    fn multiple_pins_same_page() {
        let p = pool(0);
        let (pid, g1) = p.new_page().unwrap();
        let g2 = p.fetch(pid).unwrap();
        drop(g1);
        assert_eq!(p.resident(), 1, "still pinned by g2");
        g2.write()[0] = 1;
        drop(g2);
        assert_eq!(p.resident(), 0);
        assert_eq!(p.fetch(pid).unwrap().read()[0], 1);
    }

    #[test]
    fn pinned_frames_counts_pages_not_pins() {
        let p = pool(4);
        let (a, ga) = p.new_page().unwrap();
        let (_b, gb) = p.new_page().unwrap();
        let ga2 = p.fetch(a).unwrap();
        assert_eq!(p.pinned_frames(), 2, "two pins on one page count once");
        drop(ga);
        assert_eq!(p.pinned_frames(), 2);
        drop(ga2);
        assert_eq!(p.pinned_frames(), 1);
        drop(gb);
        assert_eq!(p.pinned_frames(), 0);
        assert_eq!(p.resident(), 2, "unpinned frames stay cached");
    }

    #[test]
    fn flush_all_writes_dirty_only() {
        let p = pool(8);
        let (_a, ga) = p.new_page().unwrap();
        let (_b, gb) = p.new_page().unwrap();
        ga.write()[0] = 1;
        drop(ga);
        drop(gb);
        let before = p.stats().snapshot();
        p.flush_all().unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.writes, 1, "only the dirty frame is written");
        // Second flush: nothing dirty.
        let before = p.stats().snapshot();
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 0);
    }

    #[test]
    fn evict_all_empties_cache() {
        let p = pool(8);
        for _ in 0..5 {
            let (_pid, g) = p.new_page().unwrap();
            g.write()[1] = 2;
            drop(g);
        }
        assert_eq!(p.resident(), 5);
        p.evict_all().unwrap();
        assert_eq!(p.resident(), 0);
        let before = p.stats().snapshot();
        drop(p.fetch(0).unwrap());
        assert_eq!(p.stats().snapshot().since(&before).reads, 1);
    }

    #[test]
    fn shrink_capacity_evicts() {
        let p = pool(8);
        for _ in 0..6 {
            let (_pid, g) = p.new_page().unwrap();
            drop(g);
        }
        assert_eq!(p.resident(), 6);
        p.set_capacity(2).unwrap();
        assert_eq!(p.resident(), 2);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn concurrent_fetch_stress() {
        let disk = Arc::new(MemDisk::new(128));
        let p = Arc::new(BufferPool::new(disk, PoolConfig { capacity: 4 }));
        let mut pids = Vec::new();
        for i in 0..16u8 {
            let (pid, g) = p.new_page().unwrap();
            g.write()[0] = i;
            drop(g);
            pids.push(pid);
        }
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = p.clone();
                let pids = pids.clone();
                s.spawn(move || {
                    for round in 0..200 {
                        let pid = pids[(t * 7 + round * 13) % pids.len()];
                        let g = p.fetch(pid).unwrap();
                        let v = g.read()[0];
                        assert_eq!(v as u32, pid, "page content must match id");
                    }
                });
            }
        });
        // Pool must still be consistent afterwards.
        p.flush_all().unwrap();
        for &pid in &pids {
            assert_eq!(p.fetch(pid).unwrap().read()[0] as u32, pid);
        }
    }

    #[test]
    fn overwrite_fetch_skips_read() {
        let p = pool(0);
        let (pid, g) = p.new_page().unwrap();
        g.write()[3] = 9;
        drop(g); // evicted + written (capacity 0)
        let before = p.stats().snapshot();
        let g = p.fetch_for_overwrite(pid).unwrap();
        {
            let mut w = g.write();
            w.fill(0);
            w[3] = 42;
        }
        drop(g);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 0, "blind write must not read the old page");
        assert_eq!(d.writes, 1);
        assert_eq!(p.fetch(pid).unwrap().read()[3], 42);
    }

    #[test]
    fn overwrite_fetch_hits_cache() {
        let p = pool(4);
        let (pid, g) = p.new_page().unwrap();
        g.write()[0] = 5;
        drop(g);
        let g = p.fetch_for_overwrite(pid).unwrap();
        // Cached frame: old bytes still visible (caller overwrites anyway).
        assert_eq!(g.read()[0], 5);
        drop(g);
    }

    #[test]
    fn stats_accessors() {
        let p = pool(4);
        assert_eq!(p.page_size(), 128);
        assert_eq!(p.capacity(), 4);
        let (_pid, g) = p.new_page().unwrap();
        assert!(!g.is_dirty());
        g.write()[0] = 1;
        assert!(g.is_dirty());
        drop(g);
        assert_eq!(p.stats().snapshot().allocations, 1);
        assert_eq!(p.disk().num_pages(), 1);
    }

    #[test]
    fn wal_gate_blocks_touched_pages() {
        let p = pool(0); // capacity 0: everything evicts on unpin normally
        p.set_wal_mode(true);
        assert!(p.wal_mode());
        let (pid, g) = p.new_page().unwrap();
        g.write()[0] = 7;
        let before = p.stats().snapshot();
        drop(g); // would evict+write without the gate
        assert_eq!(p.stats().snapshot().since(&before).writes, 0);
        assert_eq!(p.resident(), 1, "uncommitted frame must stay resident");
        assert_eq!(p.touched_pages(), vec![pid]);
        // flush_all skips it too.
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 0);
        // Log the image but keep it beyond the durable horizon: still held.
        p.note_logged(pid, 5);
        assert!(p.touched_pages().is_empty());
        assert_eq!(p.page_lsn(pid), Some(5));
        p.evict_all().unwrap();
        assert_eq!(p.resident(), 1, "undurable frame must stay resident");
        // Durable horizon catches up: the frame drains normally.
        p.set_durable_lsn(5);
        assert_eq!(p.durable_lsn(), 5);
        p.evict_all().unwrap();
        assert_eq!(p.resident(), 0);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.writes, 1);
        assert_eq!(p.fetch(pid).unwrap().read()[0], 7);
    }

    #[test]
    fn gate_blocked_frames_park_and_unpark_on_durable_advance() {
        // Many undurable frames over a tiny capacity: the pool must stay
        // correct, and the durable-LSN advance must drain them without
        // the caller issuing explicit flushes.
        let p = pool(2);
        p.set_wal_mode(true);
        let mut pids = Vec::new();
        for i in 0..20u8 {
            let (pid, g) = p.new_page().unwrap();
            g.write()[0] = i;
            drop(g);
            p.note_logged(pid, u64::from(i) + 1);
            pids.push(pid);
        }
        // Nothing durable: everything is resident (parked), nothing hit
        // the disk.
        assert_eq!(p.resident(), 20);
        assert_eq!(p.stats().snapshot().writes, 0);
        // Half become durable: the advance evicts down toward capacity.
        p.set_durable_lsn(10);
        assert!(p.resident() <= 12, "resident: {}", p.resident());
        // All durable: the pool drains to its capacity.
        p.set_durable_lsn(20);
        assert_eq!(p.resident(), 2);
        // Data survived the parked phase.
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(p.fetch(pid).unwrap().read()[0] as usize, i);
        }
    }

    #[test]
    fn parked_frame_can_be_refetched_and_modified() {
        let p = pool(0);
        p.set_wal_mode(true);
        let (pid, g) = p.new_page().unwrap();
        g.write()[0] = 1;
        drop(g); // parked (touched, unlogged)
        assert_eq!(p.resident(), 1);
        // Re-pin the parked frame, modify, unpin: still gated, no loss.
        let g = p.fetch(pid).unwrap();
        g.write()[0] = 2;
        drop(g);
        assert_eq!(p.resident(), 1);
        p.note_logged(pid, 7);
        p.set_durable_lsn(7); // unparks and (capacity 0) evicts + writes
        assert_eq!(p.resident(), 0);
        assert_eq!(p.fetch(pid).unwrap().read()[0], 2);
    }

    #[test]
    fn a_pre_image_is_the_logged_content_kept_from_the_first_write_after_it() {
        let p = pool(0);
        p.set_wal_mode(true);
        let (pid, g) = p.new_page().unwrap();
        // Never logged: a write keeps nothing.
        g.write()[0] = 1;
        assert_eq!(p.take_pre_image(pid), None);
        let logged = g.read().to_vec();
        p.note_page_logged(&g.read(), 5);
        // Logged: the first write latch after the record keeps the bytes
        // that record holds; later writes keep nothing more.
        g.write()[0] = 2;
        g.write()[1] = 3;
        assert_eq!(
            p.take_pre_image(pid),
            Some(PreImage {
                lsn: 5,
                data: logged.clone().into()
            })
        );
        assert_eq!(p.take_pre_image(pid), None, "taken once");
        // A note drops a pre-image nobody took.
        p.note_page_logged(&g.read(), 6);
        g.write()[0] = 4;
        p.note_page_logged(&g.read(), 7);
        assert_eq!(p.take_pre_image(pid), None, "dropped by the note");
        // Evicted and read back: the pre-image comes from the disk copy.
        drop(g);
        p.set_durable_lsn(7);
        assert_eq!(p.resident(), 0);
        let g = p.fetch(pid).unwrap();
        let logged = g.read().to_vec();
        g.write()[2] = 5;
        let pre = p.take_pre_image(pid).expect("a re-read page has one");
        assert_eq!((pre.lsn, &pre.data[..]), (7, &logged[..]));
        // A checkpoint reset drops pre-images and starts a generation in
        // which nothing is logged yet.
        p.note_page_logged(&g.read(), 8);
        g.write()[2] = 6;
        p.wal_checkpoint_reset();
        assert_eq!(p.take_pre_image(pid), None, "dropped by the reset");
        g.write()[2] = 7;
        assert_eq!(p.take_pre_image(pid), None, "not logged since the reset");
        p.note_page_logged(&g.read(), 9);
        drop(g);
        p.set_durable_lsn(9);
        assert_eq!(p.resident(), 0);
        // A blind-overwrite miss is touched from birth: no pre-image.
        let g = p.fetch_for_overwrite(pid).unwrap();
        g.write().fill(8);
        assert!(p.is_touched(pid));
        assert_eq!(p.take_pre_image(pid), None, "blind-overwrite miss");
    }

    #[test]
    fn a_write_waiting_on_a_records_latch_stays_touched_and_out_of_the_pre_image() {
        let p = pool(4);
        p.set_wal_mode(true);
        let (pid, g) = p.new_page().unwrap();
        g.write()[0] = 1;
        p.note_page_logged(&g.read(), 2);
        g.write()[0] = 2;
        assert_eq!(p.take_pre_image(pid).map(|pre| pre.lsn), Some(2));
        // A commit reads the page's record (lsn 3) through a read latch;
        // another batch's write to the page starts meanwhile and waits
        // for that latch, so it cannot finish before the note.
        let record = g.read();
        let logged = record.to_vec();
        std::thread::scope(|s| {
            let writer = s.spawn(|| g.write()[0] = 3);
            while g.frame.writers.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            p.note_page_logged(&record, 3);
            assert!(!writer.is_finished(), "the write waits for the latch");
            drop(record);
            writer.join().unwrap();
        });
        // That write is in no record: the page stays touched, and no
        // pre-image claims to be record 3's content.
        assert_eq!(logged[0], 2);
        assert_eq!(g.read()[0], 3);
        assert!(p.is_touched(pid));
        g.write()[0] = 4;
        assert_eq!(p.take_pre_image(pid), None);
        // Its next record holds it; the page is clear again, and the next
        // write keeps that record's content.
        let logged = g.read().to_vec();
        p.note_page_logged(&g.read(), 4);
        assert!(!p.is_touched(pid));
        g.write()[0] = 5;
        let pre = p.take_pre_image(pid).expect("logged, then written");
        assert_eq!((pre.lsn, &pre.data[..]), (4, &logged[..]));
    }

    #[test]
    fn wal_checkpoint_reset_unblocks_everything() {
        let p = pool(8);
        p.set_wal_mode(true);
        let (_a, ga) = p.new_page().unwrap();
        let (_b, gb) = p.new_page().unwrap();
        ga.write()[0] = 1;
        gb.write()[0] = 2;
        drop(ga);
        drop(gb);
        let before = p.stats().snapshot();
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 0);
        p.wal_checkpoint_reset();
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 2);
        // Disabling WAL mode clears the gate as well.
        let (_c, gc) = p.new_page().unwrap();
        gc.write()[0] = 3;
        drop(gc);
        p.set_wal_mode(false);
        assert!(p.touched_pages().is_empty());
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 3);
    }

    #[test]
    fn transient_write_fault_keeps_frame_dirty_for_retry() {
        use crate::{FaultKind, FaultyDisk};
        let disk = FaultyDisk::new(Arc::new(MemDisk::new(128)));
        let p = BufferPool::new(disk.clone(), PoolConfig { capacity: 8 });
        let (pid, g) = p.new_page().unwrap();
        g.write()[3] = 77;
        drop(g);
        disk.fail_next(FaultKind::Write, 1);
        assert!(p.flush_all().is_err(), "the injected fault must surface");
        disk.clear_faults();
        // The frame must still be dirty: this flush has to write it.
        let before = p.stats().snapshot();
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).writes, 1);
        p.evict_all().unwrap();
        assert_eq!(p.fetch(pid).unwrap().read()[3], 77, "data reached disk");
    }

    #[test]
    fn evict_all_error_keeps_frames_reachable() {
        use crate::{FaultKind, FaultyDisk};
        let disk = FaultyDisk::new(Arc::new(MemDisk::new(128)));
        let p = BufferPool::new(disk.clone(), PoolConfig { capacity: 8 });
        for i in 0..4u8 {
            let (_pid, g) = p.new_page().unwrap();
            g.write()[0] = i;
            drop(g);
        }
        disk.fail_next(FaultKind::Write, 1);
        assert!(p.evict_all().is_err());
        disk.clear_faults();
        // Every frame popped before/at the error must still be evictable.
        p.evict_all().unwrap();
        assert_eq!(p.resident(), 0);
        for pid in 0..4u32 {
            assert_eq!(p.fetch(pid).unwrap().read()[0] as u32, pid);
        }
    }

    #[test]
    fn slot_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    #[test]
    fn unallocated_page_ids_are_refused_before_anything_grows() {
        let p = pool(4);
        for _ in 0..3 {
            let (_pid, g) = p.new_page().unwrap();
            drop(g);
        }
        let before = p.stats().snapshot();
        for pid in [p.disk().num_pages(), u32::MAX] {
            let refused = |r: StorageResult<()>| {
                assert!(
                    matches!(r, Err(StorageError::PageOutOfBounds { pid: got, len: 3 }) if got == pid),
                    "page {pid}: {r:?}"
                );
            };
            refused(p.fetch(pid).map(drop));
            refused(p.fetch_for_overwrite(pid).map(drop));
            refused(p.with_page_read(pid, |_| ()));
            refused(p.with_page_write(pid, |_| ()));
            assert!(!p.is_touched(pid));
            assert_eq!(p.page_lsn(pid), None);
        }
        assert_eq!(p.resident(), 3, "no frame was made for a bogus id");
        assert_eq!(p.state.lock().slots.len(), 3, "the slot table did not grow");
        let d = p.stats().snapshot().since(&before);
        assert_eq!((d.reads, d.writes), (0, 0));
        // Nothing bogus is left to surface at write-back.
        p.evict_all().unwrap();
        assert_eq!(p.resident(), 0);
    }

    /// A disk that records the page id of every write it receives.
    struct RecordingDisk {
        inner: MemDisk,
        writes: Mutex<Vec<PageId>>,
    }

    impl DiskBackend for RecordingDisk {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn allocate(&self) -> StorageResult<PageId> {
            self.inner.allocate()
        }
        fn read(&self, pid: PageId, buf: &mut [u8]) -> StorageResult<()> {
            self.inner.read(pid, buf)
        }
        fn write(&self, pid: PageId, buf: &[u8]) -> StorageResult<()> {
            self.writes.lock().push(pid);
            self.inner.write(pid, buf)
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn flush_and_evict_write_back_in_ascending_page_order() {
        let disk = Arc::new(RecordingDisk {
            inner: MemDisk::new(128),
            writes: Mutex::new(Vec::new()),
        });
        let p = BufferPool::new(disk.clone(), PoolConfig { capacity: 16 });
        for _ in 0..8 {
            let (_pid, g) = p.new_page().unwrap();
            drop(g);
        }
        // Dirty the pages in an order that is neither ascending nor LRU.
        let scrambled = [5u32, 1, 7, 0, 3, 6, 2, 4];
        for &pid in &scrambled {
            p.fetch(pid).unwrap().write()[0] = 1;
        }
        p.flush_all().unwrap();
        assert_eq!(*disk.writes.lock(), (0..8).collect::<Vec<_>>());

        disk.writes.lock().clear();
        for &pid in &scrambled {
            p.fetch(pid).unwrap().write()[0] = 2;
        }
        // A pinned frame is written in its place and stays resident.
        let held = p.fetch(3).unwrap();
        p.evict_all().unwrap();
        assert_eq!(*disk.writes.lock(), (0..8).collect::<Vec<_>>());
        assert_eq!(p.resident(), 1);
        drop(held);
    }

    #[test]
    fn wal_gate_life_cycle_touched_logged_durable_unparked() {
        let p = pool(1);
        p.set_wal_mode(true);
        let mut pids = Vec::new();
        for _ in 0..6 {
            let (pid, g) = p.new_page().unwrap();
            drop(g);
            pids.push(pid);
        }
        assert_eq!(p.resident(), 1, "clean frames leave at capacity 1");
        // Touched: latched in a scrambled order, reported sorted; the
        // frames over capacity cannot leave, so they park.
        for &pid in &[4u32, 0, 5, 2] {
            p.fetch(pid).unwrap().write()[0] = pid as u8 + 1;
        }
        assert_eq!(p.touched_pages(), vec![0, 2, 4, 5]);
        assert!(p.is_touched(4) && !p.is_touched(3));
        {
            let state = p.state.lock();
            assert_eq!(state.touched.len(), 4);
            assert_eq!(state.parked.len() + state.lru.len(), state.resident);
            assert_eq!(state.parked.len(), 3);
        }
        // Logged: no longer touched, but not durable yet — still held.
        for (lsn, pid) in [(1, 0u32), (2, 2), (3, 4), (4, 5)] {
            p.note_logged(pid, lsn);
            assert_eq!(p.page_lsn(pid), Some(lsn));
        }
        assert!(p.touched_pages().is_empty());
        p.set_durable_lsn(0);
        assert_eq!(p.stats().snapshot().writes, 0);
        assert_eq!(p.state.lock().parked.len(), 3);
        // Durable up to LSN 2: page 0 unparks behind page 2 (never
        // parked, durable now too), which the capacity sweep writes.
        p.set_durable_lsn(2);
        assert_eq!(p.stats().snapshot().writes, 1);
        assert_eq!(p.state.lock().parked.len(), 2);
        // Fully durable: everything unparks, the pool is back at capacity.
        p.set_durable_lsn(4);
        {
            let state = p.state.lock();
            assert_eq!(state.parked.len(), 0);
            assert_eq!(state.resident, 1);
            assert!(state
                .slots
                .iter()
                .all(|s| s.flags & (PARKED | TOUCHED) == 0));
        }
        assert_eq!(
            p.stats().snapshot().writes,
            3,
            "the frame still cached is not written"
        );
        for &pid in &[4u32, 0, 5, 2] {
            assert_eq!(p.fetch(pid).unwrap().read()[0], pid as u8 + 1);
        }
        // Re-touching a logged page and resetting the gate forgets both.
        p.fetch(2).unwrap().write()[0] = 9;
        assert_eq!(p.touched_pages(), vec![2]);
        p.wal_checkpoint_reset();
        assert!(p.touched_pages().is_empty());
        assert_eq!(p.page_lsn(2), None);
        assert_eq!(p.page_lsn(5), None);
    }

    #[test]
    fn wal_mode_off_is_transparent() {
        let p = pool(0);
        let (pid, g) = p.new_page().unwrap();
        g.write()[0] = 9;
        drop(g);
        assert_eq!(p.resident(), 0, "default mode still evicts eagerly");
        assert!(p.touched_pages().is_empty());
        assert_eq!(p.page_lsn(pid), None);
    }
}
