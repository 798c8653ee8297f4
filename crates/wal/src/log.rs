//! The log: a byte stream of CRC-framed records chunked into a chain of
//! pages on a [`DiskBackend`], rewound in place at every checkpoint.
//!
//! # On-disk layout
//!
//! Every log page starts with a 14-byte header:
//!
//! ```text
//! [magic u32 = "BWAL"] [generation u32] [next PageId u32] [used u16]
//! ```
//!
//! followed by `used` bytes of record stream. Records span page
//! boundaries freely; each is framed as
//!
//! ```text
//! [len u32] [crc32 u32] [kind u8] [lsn u64] [payload ...]
//! ```
//!
//! with the CRC covering `kind..payload`. Page-delta payloads (kind 4)
//! are `[pid u32] [base_lsn u64] [count u16]` followed by `count` ranges
//! of `[offset u16] [len u16] [bytes ...]`.
//!
//! Within one page the stream is append-only, so a torn rewrite of the
//! tail page (power cut half-way through the sector) either reproduces
//! the old bytes exactly or breaks the CRC of the record under the tear —
//! either way a [`LogReader`](crate::LogReader) stops at a well-defined prefix and
//! reports `torn_tail`.
//!
//! A checkpoint *rewinds* the log: the chain's pages are recycled, the
//! generation number is bumped, and a fresh stream starts at the anchor
//! page with a [`WalRecord::Checkpoint`]. Stale pages of older
//! generations are ignored by the reader (generation mismatch
//! ends the chain), so the log never grows past one generation of records.

use crate::{crc32, crc32_update, DeltaRange, LogEnd, WalRecord};
use bur_storage::{DiskBackend, Lsn, PageId, PreImage, StorageResult, INVALID_PAGE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic number opening every log page ("BWAL", little-endian).
pub const WAL_PAGE_MAGIC: u32 = 0x4C41_5742;

/// Log page header size in bytes.
pub(crate) const HDR: usize = 14;

/// Record frame header size ahead of the body (`len` + `crc`).
pub(crate) const FRAME: usize = 8;

/// Body prefix: kind tag + LSN.
pub(crate) const BODY_PREFIX: usize = 9;

/// A run of equal bytes shorter than this is folded into the surrounding
/// changed ranges when diffing a page: each extra range costs a 4-byte
/// header, so splitting on tiny gaps would grow the record.
const DIFF_MERGE_GAP: usize = 8;

/// A page's records come as one full-image anchor followed by up to
/// `ANCHOR_EVERY - 1` deltas, so replay work per page stays bounded even
/// within one generation and a corrupt delta cannot poison an unbounded
/// suffix.
const ANCHOR_EVERY: u32 = 16;

fn wal_state_error(msg: &'static str) -> bur_storage::StorageError {
    bur_storage::StorageError::Io(std::io::Error::other(msg))
}

/// Where a page's delta chain stands in the current generation. The
/// log keeps no page bytes: the caller hands the base of the next delta
/// to [`Wal::append_page`].
struct PageTrack {
    /// LSN of the page's last record.
    last_lsn: Lsn,
    /// Records since the last full-image anchor.
    since_anchor: u32,
}

/// Mutable log state behind the [`Wal`] lock.
struct WalInner {
    generation: u32,
    /// Page currently being filled.
    cur: PageId,
    /// In-memory image of `cur` (header rewritten on every page write).
    buf: Box<[u8]>,
    /// Bytes of record stream in `cur`.
    used: usize,
    /// Pages of the current generation, anchor first.
    chain: Vec<PageId>,
    /// Recycled pages from previous generations.
    spare: Vec<PageId>,
    next_lsn: Lsn,
    last_lsn: Lsn,
    durable_lsn: Lsn,
    /// `cur` holds appended bytes not yet written to the disk.
    dirty_tail: bool,
    /// Set by [`Wal::reopen`]: the log must be rewound (checkpointed)
    /// before new records may be appended.
    needs_rewind: bool,
    /// Per-page delta-chain state, cleared at every rewind.
    tracks: HashMap<PageId, PageTrack>,
    /// The delta encoder's changed ranges, reused from page to page.
    spans: Vec<Range<usize>>,
}

impl WalInner {
    /// Start `pid`'s delta chain again at the full image `lsn`.
    fn track_image(&mut self, pid: PageId, lsn: Lsn) {
        let track = PageTrack {
            last_lsn: lsn,
            since_anchor: 0,
        };
        self.tracks.insert(pid, track);
    }

    /// Extend `pid`'s delta chain with the delta `lsn`.
    fn track_delta(&mut self, pid: PageId, lsn: Lsn) {
        let track = self.tracks.entry(pid).or_insert(PageTrack {
            last_lsn: lsn,
            since_anchor: 0,
        });
        track.last_lsn = lsn;
        track.since_anchor += 1;
    }
}

/// Where the stream stood before a record was appended: what
/// [`Wal::append_inner`] rolls back to when the append fails part-way.
struct StreamPos {
    cur: PageId,
    used: usize,
    pages: usize,
    dirty_tail: bool,
}

/// Monotonic counters describing log activity since creation.
#[derive(Debug, Default)]
struct WalCounters {
    records: AtomicU64,
    images: AtomicU64,
    deltas: AtomicU64,
    delta_bytes: AtomicU64,
    delta_saved_bytes: AtomicU64,
    commits: AtomicU64,
    checkpoints: AtomicU64,
    syncs: AtomicU64,
    page_writes: AtomicU64,
    bytes_appended: AtomicU64,
    rewinds: AtomicU64,
    sync_nanos: AtomicU64,
    checkpoint_nanos: AtomicU64,
    checkpoint_pages_flushed: AtomicU64,
}

/// A point-in-time view of a [`Wal`]'s counters and positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended (all kinds).
    pub records: u64,
    /// Full page-image records appended (delta anchors included).
    pub images: u64,
    /// Page-delta records appended.
    pub deltas: u64,
    /// Record-stream bytes spent on delta records (frame + body).
    pub delta_bytes: u64,
    /// Bytes the delta encoder avoided appending, versus logging a full
    /// image for each delta record.
    pub delta_saved_bytes: u64,
    /// Commit records appended.
    pub commits: u64,
    /// Checkpoints taken (log rewinds).
    pub checkpoints: u64,
    /// Durable syncs performed.
    pub syncs: u64,
    /// Physical log-page writes.
    pub page_writes: u64,
    /// Record-stream bytes appended.
    pub bytes_appended: u64,
    /// Log rewinds (equals checkpoints; kept separate for clarity).
    pub rewinds: u64,
    /// Highest LSN assigned.
    pub last_lsn: Lsn,
    /// Highest LSN known durable.
    pub durable_lsn: Lsn,
    /// Current log generation.
    pub generation: u32,
    /// Pages owned by the log (current chain + recycled spares).
    pub log_pages: usize,
    /// Nanoseconds spent inside [`DiskBackend::sync`] on the log's disk
    /// (commit syncs and checkpoint syncs alike).
    pub sync_nanos: u64,
    /// Nanoseconds the owning index spent in whole checkpoints (log sync,
    /// metadata persist, pool flush, data sync, rewind), as reported
    /// through [`Wal::note_checkpoint`].
    pub checkpoint_nanos: u64,
    /// Data pages those checkpoints wrote back from the buffer pool.
    pub checkpoint_pages_flushed: u64,
}

impl fmt::Display for WalStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gen {} lsn {} (durable {}) | {} records ({} images, {} deltas, {} commits, \
             {} checkpoints) | {} B appended ({} B saved by deltas), {} page writes, {} syncs, \
             {} pages",
            self.generation,
            self.last_lsn,
            self.durable_lsn,
            self.records,
            self.images,
            self.deltas,
            self.commits,
            self.checkpoints,
            self.bytes_appended,
            self.delta_saved_bytes,
            self.page_writes,
            self.syncs,
            self.log_pages
        )
    }
}

/// A record about to be appended, borrowing its payload. Internal twin of
/// [`WalRecord`] so the hot path ([`Wal::append_page`]) never copies a
/// page just to wrap it in an owned enum.
enum RecordRef<'a> {
    Image {
        pid: PageId,
        data: &'a [u8],
    },
    Delta {
        pid: PageId,
        base_lsn: Lsn,
        ranges: DeltaRanges<'a>,
    },
    Commit(&'a [u8]),
    Checkpoint(&'a [u8]),
}

/// The changed ranges of a delta record: a [`WalRecord`]'s own, or spans
/// of the page being logged, borrowed from it.
enum DeltaRanges<'a> {
    Owned(&'a [DeltaRange]),
    Spans {
        page: &'a [u8],
        spans: &'a [Range<usize>],
    },
}

impl DeltaRanges<'_> {
    fn len(&self) -> usize {
        match self {
            DeltaRanges::Owned(ranges) => ranges.len(),
            DeltaRanges::Spans { spans, .. } => spans.len(),
        }
    }

    /// Visit every range as `(offset, new bytes)`, in order.
    fn each<E>(&self, mut f: impl FnMut(u16, &[u8]) -> Result<(), E>) -> Result<(), E> {
        match self {
            DeltaRanges::Owned(ranges) => ranges.iter().try_for_each(|r| f(r.offset, &r.bytes)),
            DeltaRanges::Spans { page, spans } => spans
                .iter()
                .try_for_each(|s| f(s.start as u16, &page[s.clone()])),
        }
    }
}

impl RecordRef<'_> {
    fn kind(&self) -> u8 {
        match self {
            RecordRef::Image { .. } => 1,
            RecordRef::Commit(_) => 2,
            RecordRef::Checkpoint(_) => 3,
            RecordRef::Delta { .. } => 4,
        }
    }

    /// Feed the record's body — `[kind] [lsn] [payload ...]` — to `f`
    /// piece by piece, in order: once to checksum it, once to copy it
    /// into the log, never into a buffer of its own.
    fn body(&self, lsn: Lsn, mut f: impl FnMut(&[u8]) -> StorageResult<()>) -> StorageResult<()> {
        f(&[self.kind()])?;
        f(&lsn.to_le_bytes())?;
        match self {
            RecordRef::Image { pid, data } => {
                f(&pid.to_le_bytes())?;
                f(data)
            }
            RecordRef::Delta {
                pid,
                base_lsn,
                ranges,
            } => {
                f(&pid.to_le_bytes())?;
                f(&base_lsn.to_le_bytes())?;
                f(&(ranges.len() as u16).to_le_bytes())?;
                ranges.each(|offset, bytes| {
                    f(&offset.to_le_bytes())?;
                    f(&(bytes.len() as u16).to_le_bytes())?;
                    f(bytes)
                })
            }
            RecordRef::Commit(meta) | RecordRef::Checkpoint(meta) => f(meta),
        }
    }
}

/// The write-ahead log. See the [crate docs](crate) for the protocol;
/// the on-disk layout is documented at the top of this source file.
pub struct Wal {
    disk: Arc<dyn DiskBackend>,
    anchor: PageId,
    inner: Mutex<WalInner>,
    counters: WalCounters,
}

impl Wal {
    fn append_inner(&self, inner: &mut WalInner, rec: &RecordRef<'_>) -> StorageResult<Lsn> {
        if inner.needs_rewind {
            return Err(wal_state_error(
                "wal: reopened log must be checkpoint-rewound before appending",
            ));
        }
        let lsn = inner.next_lsn;
        // Frame header first: the body's length and CRC, taken over its
        // pieces without assembling it.
        let (mut len, mut crc) = (0, !0);
        rec.body(lsn, |part| {
            len += part.len();
            crc = crc32_update(crc, part);
            Ok(())
        })?;
        let start = StreamPos {
            cur: inner.cur,
            used: inner.used,
            pages: inner.chain.len(),
            dirty_tail: inner.dirty_tail,
        };
        let appended = self
            .put(inner, &(len as u32).to_le_bytes())
            .and_then(|()| self.put(inner, &(!crc).to_le_bytes()))
            .and_then(|()| rec.body(lsn, |part| self.put(inner, part)));
        if let Err(e) = appended {
            self.unwind(inner, start);
            return Err(e);
        }
        inner.next_lsn += 1;
        inner.last_lsn = lsn;
        let frame = (FRAME + len) as u64;
        match rec {
            RecordRef::Image { .. } => {
                self.counters.images.fetch_add(1, Ordering::Relaxed);
            }
            RecordRef::Delta { .. } => {
                self.counters.deltas.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .delta_bytes
                    .fetch_add(frame, Ordering::Relaxed);
            }
            RecordRef::Commit(_) | RecordRef::Checkpoint(_) => {}
        }
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_appended
            .fetch_add(frame, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Copy `bytes` into the record stream, moving on to a fresh page
    /// whenever the current one is full.
    fn put(&self, inner: &mut WalInner, mut bytes: &[u8]) -> StorageResult<()> {
        let cap = self.disk.page_size() - HDR;
        while !bytes.is_empty() {
            if inner.used == cap {
                self.advance_page(inner)?;
            }
            let n = (cap - inner.used).min(bytes.len());
            let start = HDR + inner.used;
            inner.buf[start..start + n].copy_from_slice(&bytes[..n]);
            inner.used += n;
            bytes = &bytes[n..];
            inner.dirty_tail = true;
        }
        Ok(())
    }

    /// Take back a record whose append failed part-way — a page write
    /// refused while the record spilled onto a fresh page — so the
    /// stream goes on from where the record began and the next record
    /// is not stranded behind a partial one. When a page holding the
    /// record's first bytes already reached the disk, the stream resumes
    /// on that page's written copy; if even that cannot be read back,
    /// the log must be rewound before it takes another record.
    fn unwind(&self, inner: &mut WalInner, start: StreamPos) {
        if inner.chain.len() > start.pages {
            let spilled = inner.chain.split_off(start.pages);
            inner.spare.extend(spilled);
            inner.cur = start.cur;
            if self.disk.read(start.cur, &mut inner.buf).is_err() {
                inner.needs_rewind = true;
            }
            inner.dirty_tail = true;
        } else {
            inner.dirty_tail = start.dirty_tail;
        }
        inner.used = start.used;
    }

    /// Finalize the (full) current page with a pointer to a fresh page
    /// and switch to it.
    fn advance_page(&self, inner: &mut WalInner) -> StorageResult<()> {
        let next = match inner.spare.pop() {
            Some(p) => p,
            None => self.disk.allocate()?,
        };
        if let Err(e) = self.write_cur_page(inner, next) {
            inner.spare.push(next);
            return Err(e);
        }
        inner.chain.push(next);
        inner.cur = next;
        inner.used = 0;
        inner.buf.fill(0);
        inner.dirty_tail = false;
        Ok(())
    }

    /// Write the current page image (header + stream) to the disk.
    fn write_cur_page(&self, inner: &mut WalInner, next: PageId) -> StorageResult<()> {
        inner.buf[0..4].copy_from_slice(&WAL_PAGE_MAGIC.to_le_bytes());
        inner.buf[4..8].copy_from_slice(&inner.generation.to_le_bytes());
        inner.buf[8..12].copy_from_slice(&next.to_le_bytes());
        inner.buf[12..14].copy_from_slice(&(inner.used as u16).to_le_bytes());
        self.disk.write(inner.cur, &inner.buf)?;
        self.counters.page_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write the tail page and sync the log's disk, charging the wait to
    /// `sync_nanos`. The durable watermark moves only when both succeed.
    fn sync_inner(&self, inner: &mut WalInner) -> StorageResult<()> {
        if inner.dirty_tail {
            self.write_cur_page(inner, INVALID_PAGE)?;
            inner.dirty_tail = false;
        }
        let started = Instant::now();
        let synced = self.disk.sync();
        self.counters
            .sync_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        synced?;
        inner.durable_lsn = inner.last_lsn;
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A log handle over `anchor` whose stream starts empty at `generation`.
    fn new(
        disk: Arc<dyn DiskBackend>,
        anchor: PageId,
        generation: u32,
        spare: Vec<PageId>,
        last_lsn: Lsn,
        needs_rewind: bool,
    ) -> Self {
        let ps = disk.page_size();
        Self {
            disk,
            anchor,
            inner: Mutex::new(WalInner {
                generation,
                cur: anchor,
                buf: vec![0u8; ps].into_boxed_slice(),
                used: 0,
                chain: vec![anchor],
                spare,
                next_lsn: last_lsn + 1,
                last_lsn,
                durable_lsn: last_lsn,
                dirty_tail: false,
                needs_rewind,
                tracks: HashMap::new(),
                spans: Vec::new(),
            }),
            counters: WalCounters::default(),
        }
    }

    /// Create a fresh log: allocates the anchor page and writes an empty
    /// generation-1 stream to it.
    pub fn create(disk: Arc<dyn DiskBackend>) -> StorageResult<Self> {
        let anchor = disk.allocate()?;
        let wal = Self::new(disk, anchor, 1, Vec::new(), 0, false);
        wal.write_cur_page(&mut wal.inner.lock(), INVALID_PAGE)?;
        Ok(wal)
    }

    /// Reopen an existing log for recovery, at `end`: where a
    /// [`LogReader`](crate::LogReader) that read this disk's chain to the
    /// end found it ended. The log is positioned *read-only* — it must be
    /// rewound with [`Wal::checkpoint_rewind`] (after replaying the
    /// records and flushing the new base image) before appending again;
    /// the rewind recycles the chain's pages and goes on from its last
    /// LSN.
    #[must_use]
    pub fn reopen(disk: Arc<dyn DiskBackend>, end: &LogEnd) -> Self {
        let (&anchor, rest) = end.pages().split_first().expect("a chain has its anchor");
        Self::new(
            disk,
            anchor,
            end.generation(),
            rest.to_vec(),
            end.last_lsn(),
            true,
        )
    }

    /// The anchor (first) page of the log chain.
    #[must_use]
    pub fn anchor(&self) -> PageId {
        self.anchor
    }

    /// Highest LSN assigned so far.
    #[must_use]
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().last_lsn
    }

    /// Highest LSN known durable (on disk and synced).
    #[must_use]
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.lock().durable_lsn
    }

    /// Counter snapshot for tooling and benches.
    #[must_use]
    pub fn stats(&self) -> WalStatsSnapshot {
        let c = &self.counters;
        let inner = self.inner.lock();
        WalStatsSnapshot {
            records: c.records.load(Ordering::Relaxed),
            images: c.images.load(Ordering::Relaxed),
            deltas: c.deltas.load(Ordering::Relaxed),
            delta_bytes: c.delta_bytes.load(Ordering::Relaxed),
            delta_saved_bytes: c.delta_saved_bytes.load(Ordering::Relaxed),
            commits: c.commits.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            page_writes: c.page_writes.load(Ordering::Relaxed),
            bytes_appended: c.bytes_appended.load(Ordering::Relaxed),
            rewinds: c.rewinds.load(Ordering::Relaxed),
            last_lsn: inner.last_lsn,
            durable_lsn: inner.durable_lsn,
            generation: inner.generation,
            log_pages: inner.chain.len() + inner.spare.len(),
            sync_nanos: c.sync_nanos.load(Ordering::Relaxed),
            checkpoint_nanos: c.checkpoint_nanos.load(Ordering::Relaxed),
            checkpoint_pages_flushed: c.checkpoint_pages_flushed.load(Ordering::Relaxed),
        }
    }

    /// Record one finished checkpoint of the index this log protects: how
    /// long it took end to end and how many data pages the pool wrote
    /// back. The log cannot see either (the flush happens on the data
    /// disk), so the owner reports them here and they ride
    /// [`WalStatsSnapshot`] beside the log's own counters.
    pub fn note_checkpoint(&self, elapsed: Duration, pages_flushed: u64) {
        let c = &self.counters;
        c.checkpoint_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        c.checkpoint_pages_flushed
            .fetch_add(pages_flushed, Ordering::Relaxed);
    }

    /// Append one record without syncing; returns its LSN. The record is
    /// durable only after the next [`Wal::sync`] or [`Wal::commit`]. A
    /// page record moves its page's delta chain like
    /// [`Wal::append_page`] does: an image starts it again, a delta
    /// extends it.
    pub fn append(&self, rec: &WalRecord) -> StorageResult<Lsn> {
        let mut inner = self.inner.lock();
        let rref = match rec {
            WalRecord::PageImage { pid, data } => RecordRef::Image { pid: *pid, data },
            WalRecord::PageDelta {
                pid,
                base_lsn,
                ranges,
            } => RecordRef::Delta {
                pid: *pid,
                base_lsn: *base_lsn,
                ranges: DeltaRanges::Owned(ranges),
            },
            WalRecord::Commit { meta } => RecordRef::Commit(meta),
            WalRecord::Checkpoint { meta } => RecordRef::Checkpoint(meta),
        };
        let lsn = self.append_inner(&mut inner, &rref)?;
        match rref {
            RecordRef::Image { pid, .. } => inner.track_image(pid, lsn),
            RecordRef::Delta { pid, .. } => inner.track_delta(pid, lsn),
            RecordRef::Commit(_) | RecordRef::Checkpoint(_) => {}
        }
        Ok(lsn)
    }

    /// Log the current content of page `pid`, letting the delta encoder
    /// choose between a full image and a [`WalRecord::PageDelta`] against
    /// `base`, the page's content as of its previous record in this
    /// generation (a buffer pool's [`PreImage`]). A delta is possible
    /// only when `base` is the content of exactly that record — its LSN
    /// is the page's last — and the page's chain has fewer than 15
    /// deltas since its last full image; otherwise, and whenever a delta
    /// would not be smaller, the record is a full image. The log keeps
    /// no copy of `data`. Returns the record's LSN.
    pub fn append_page(
        &self,
        pid: PageId,
        base: Option<&PreImage>,
        data: &[u8],
    ) -> StorageResult<Lsn> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let extends_chain = |base: &&PreImage| {
            inner.tracks.get(&pid).is_some_and(|track| {
                track.last_lsn == base.lsn && track.since_anchor + 1 < ANCHOR_EVERY
            }) && base.data.len() == data.len()
                && data.len() <= usize::from(u16::MAX)
        };
        if let Some(base) = base.filter(extends_chain) {
            diff_ranges(&base.data, data, &mut inner.spans);
            let delta_body = delta_payload_len(inner.spans.iter().map(Range::len));
            // Worth a delta only when it actually beats the full image (a
            // full rewrite degenerates to one big range).
            if delta_body < 4 + data.len() {
                let spans = std::mem::take(&mut inner.spans);
                let appended = self.append_inner(
                    inner,
                    &RecordRef::Delta {
                        pid,
                        base_lsn: base.lsn,
                        ranges: DeltaRanges::Spans {
                            page: data,
                            spans: &spans,
                        },
                    },
                );
                inner.spans = spans;
                let lsn = appended?;
                self.counters
                    .delta_saved_bytes
                    .fetch_add((4 + data.len() - delta_body) as u64, Ordering::Relaxed);
                inner.track_delta(pid, lsn);
                return Ok(lsn);
            }
        }
        let lsn = self.append_inner(inner, &RecordRef::Image { pid, data })?;
        inner.track_image(pid, lsn);
        Ok(lsn)
    }

    /// Append a [`WalRecord::Commit`], write the tail page and sync the
    /// log's disk; returns the commit's LSN, which is durable. When the
    /// sync fails the error is returned and the durable watermark stays
    /// where it was: the record may or may not survive a crash, so the
    /// caller must not acknowledge it.
    pub fn commit(&self, meta: Vec<u8>) -> StorageResult<Lsn> {
        let mut inner = self.inner.lock();
        let lsn = self.append_inner(&mut inner, &RecordRef::Commit(&meta))?;
        self.sync_inner(&mut inner)?;
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Make every appended record durable: write the tail page and sync
    /// the disk.
    pub fn sync(&self) -> StorageResult<()> {
        self.sync_inner(&mut self.inner.lock())
    }

    /// Checkpoint: recycle the current generation's pages, start a fresh
    /// generation at the anchor whose first record is a
    /// [`WalRecord::Checkpoint`] carrying `meta`, and sync it. The caller
    /// must have flushed the buffer pool *before* this, so the on-disk
    /// pages are a complete base image for `meta`.
    pub fn checkpoint_rewind(&self, meta: Vec<u8>) -> StorageResult<Lsn> {
        let mut inner = self.inner.lock();
        let old_chain = std::mem::take(&mut inner.chain);
        inner
            .spare
            .extend(old_chain.into_iter().filter(|&p| p != self.anchor));
        inner.generation = inner.generation.wrapping_add(1);
        inner.cur = self.anchor;
        inner.used = 0;
        inner.buf.fill(0);
        inner.chain = vec![self.anchor];
        inner.dirty_tail = true; // the fresh header must reach the disk
        inner.needs_rewind = false;
        // The new generation's first image of every page is full again.
        inner.tracks.clear();
        let lsn = self.append_inner(&mut inner, &RecordRef::Checkpoint(&meta))?;
        self.sync_inner(&mut inner)?;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.counters.rewinds.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }
}

/// Payload bytes of a [`WalRecord::PageDelta`] whose ranges carry
/// `range_lens` bytes each: page id, base LSN and range count, then each
/// range's offset, length and bytes. A full image of an `n`-byte page
/// costs `4 + n`; the difference is what a delta saves.
pub fn delta_payload_len(range_lens: impl IntoIterator<Item = usize>) -> usize {
    14 + range_lens.into_iter().map(|n| 4 + n).sum::<usize>()
}

/// Diff `new` against `old` (equal lengths) into `spans`: the ascending
/// changed byte ranges, folding gaps shorter than [`DIFF_MERGE_GAP`]
/// equal bytes into the surrounding ranges.
fn diff_ranges(old: &[u8], new: &[u8], spans: &mut Vec<Range<usize>>) {
    debug_assert_eq!(old.len(), new.len());
    spans.clear();
    let n = new.len();
    let mut i = 0;
    while i < n {
        // Fast-skip equal prefixes in 8-byte chunks.
        while i + 8 <= n && old[i..i + 8] == new[i..i + 8] {
            i += 8;
        }
        while i < n && old[i] == new[i] {
            i += 1;
        }
        if i == n {
            break;
        }
        let start = i;
        let mut end = i + 1;
        let mut j = i + 1;
        let mut gap = 0;
        while j < n && gap < DIFF_MERGE_GAP {
            if old[j] != new[j] {
                end = j + 1;
                gap = 0;
            } else {
                gap += 1;
            }
            j += 1;
        }
        spans.push(start..end);
        i = end;
    }
}

/// Outcome of parsing one record frame from a stream position.
pub(crate) enum FrameStep {
    /// A complete, CRC-clean record; `next_off` is where the next frame
    /// starts.
    Parsed {
        /// The record's LSN.
        lsn: Lsn,
        /// The decoded record.
        rec: WalRecord,
        /// Stream offset of the following frame.
        next_off: usize,
    },
    /// The stream ends exactly at `off`: a clean boundary.
    End,
    /// The bytes at `off` are an incomplete, corrupt, or stale record —
    /// a torn tail (or, on a live log, a record still being appended).
    Torn,
}

/// Parse the record frame at `stream[off..]`. `prev_lsn` is the LSN of
/// the preceding record; anything at or below it is stale bytes from an
/// earlier pass over a recycled page and parses as [`FrameStep::Torn`].
pub(crate) fn parse_frame(stream: &[u8], off: usize, prev_lsn: Lsn) -> FrameStep {
    if off == stream.len() {
        return FrameStep::End;
    }
    if off + FRAME > stream.len() {
        return FrameStep::Torn;
    }
    let len = u32::from_le_bytes(stream[off..off + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(stream[off + 4..off + 8].try_into().unwrap());
    if len < BODY_PREFIX || off + FRAME + len > stream.len() {
        return FrameStep::Torn;
    }
    let body = &stream[off + FRAME..off + FRAME + len];
    if crc32(body) != crc {
        return FrameStep::Torn;
    }
    let kind = body[0];
    let lsn = u64::from_le_bytes(body[1..9].try_into().unwrap());
    if lsn <= prev_lsn {
        return FrameStep::Torn;
    }
    let payload = &body[BODY_PREFIX..];
    let rec = match kind {
        1 => {
            if payload.len() < 4 {
                return FrameStep::Torn;
            }
            WalRecord::PageImage {
                pid: u32::from_le_bytes(payload[0..4].try_into().unwrap()),
                data: payload[4..].to_vec(),
            }
        }
        2 => WalRecord::Commit {
            meta: payload.to_vec(),
        },
        3 => WalRecord::Checkpoint {
            meta: payload.to_vec(),
        },
        4 => match parse_delta(payload) {
            Some(rec) => rec,
            None => return FrameStep::Torn,
        },
        _ => return FrameStep::Torn,
    };
    FrameStep::Parsed {
        lsn,
        rec,
        next_off: off + FRAME + len,
    }
}

/// Parse a [`WalRecord::PageDelta`] payload; `None` on any bound
/// violation (treated as a torn record by the caller).
fn parse_delta(payload: &[u8]) -> Option<WalRecord> {
    if payload.len() < 14 {
        return None;
    }
    let pid = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    let base_lsn = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    let count = u16::from_le_bytes(payload[12..14].try_into().unwrap()) as usize;
    let mut ranges = Vec::with_capacity(count.min(1 << 12));
    let mut off = 14;
    for _ in 0..count {
        if off + 4 > payload.len() {
            return None;
        }
        let offset = u16::from_le_bytes(payload[off..off + 2].try_into().unwrap());
        let len = u16::from_le_bytes(payload[off + 2..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if off + len > payload.len() {
            return None;
        }
        ranges.push(DeltaRange {
            offset,
            bytes: payload[off..off + len].to_vec(),
        });
        off += len;
    }
    if off != payload.len() {
        return None;
    }
    Some(WalRecord::PageDelta {
        pid,
        base_lsn,
        ranges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_delta, scan, LogReader};
    use bur_storage::MemDisk;

    fn disk(ps: usize) -> Arc<MemDisk> {
        Arc::new(MemDisk::new(ps))
    }

    fn image(pid: PageId, fill: u8, ps: usize) -> WalRecord {
        WalRecord::PageImage {
            pid,
            data: vec![fill; ps],
        }
    }

    /// Log `page` as `pid`'s next record with `last` — the content of the
    /// page's previous record, as a buffer pool's pre-image holds it — as
    /// the base, and make `page` the base of the one after.
    fn log_page(wal: &Wal, last: &mut Option<PreImage>, pid: PageId, page: &[u8]) -> Lsn {
        let lsn = wal.append_page(pid, last.as_ref(), page).unwrap();
        *last = Some(PreImage {
            lsn,
            data: page.into(),
        });
        lsn
    }

    #[test]
    fn append_scan_roundtrip() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let l1 = wal.append(&image(9, 0xAA, 256)).unwrap();
        let l2 = wal.append(&image(10, 0xBB, 256)).unwrap();
        let l3 = wal.commit(b"meta-1".to_vec()).unwrap();
        assert!(l1 < l2 && l2 < l3);
        assert_eq!(wal.durable_lsn(), l3);

        let s = scan(d.as_ref(), wal.anchor()).unwrap().expect("a log");
        assert!(!s.torn_tail);
        assert_eq!(s.generation, 1);
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[0], (l1, image(9, 0xAA, 256)));
        assert_eq!(
            s.records[2],
            (
                l3,
                WalRecord::Commit {
                    meta: b"meta-1".to_vec()
                }
            )
        );
        // Two images of a 256-byte page cannot fit in one 256-byte log
        // page: the chain must have grown.
        assert!(s.pages.len() >= 2, "chain: {:?}", s.pages);
    }

    #[test]
    fn records_span_pages() {
        let d = disk(128);
        let wal = Wal::create(d.clone()).unwrap();
        // One image is larger than a whole log page.
        let rec = WalRecord::PageImage {
            pid: 3,
            data: (0..128).map(|i| i as u8).collect(),
        };
        wal.append(&rec).unwrap();
        wal.sync().unwrap();
        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].1, rec);
        assert!(!s.torn_tail);
    }

    #[test]
    fn unsynced_tail_is_invisible_after_crash() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        wal.append(&image(1, 1, 64)).unwrap();
        wal.sync().unwrap();
        // Appended but never synced: lives only in the tail buffer.
        wal.append(&image(2, 2, 64)).unwrap();
        drop(wal); // crash
        let s = scan(d.as_ref(), 0).unwrap().unwrap();
        assert_eq!(s.records.len(), 1, "only the synced record survives");
        assert!(!s.torn_tail, "a clean prefix is not a torn tail");
    }

    #[test]
    fn torn_tail_is_detected_and_clipped() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        wal.append(&image(1, 1, 64)).unwrap();
        wal.append(&image(2, 2, 64)).unwrap();
        wal.sync().unwrap();
        let anchor = wal.anchor();
        let pages = scan(d.as_ref(), anchor).unwrap().unwrap().pages;
        // Corrupt the last bytes of the stream on the tail page.
        let tail = *pages.last().unwrap();
        let mut buf = vec![0u8; 256];
        d.read(tail, &mut buf).unwrap();
        let used = u16::from_le_bytes(buf[12..14].try_into().unwrap()) as usize;
        for b in &mut buf[HDR + used - 8..HDR + used] {
            *b ^= 0xFF;
        }
        d.write(tail, &buf).unwrap();

        let s = scan(d.as_ref(), anchor).unwrap().unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records.len(), 1, "the intact prefix survives");
        assert_eq!(s.records[0].1, image(1, 1, 64));
    }

    #[test]
    fn rewind_recycles_pages_and_bumps_generation() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        for round in 0..5u8 {
            for p in 0..4 {
                wal.append(&image(p, round, 200)).unwrap();
            }
            wal.commit(vec![round]).unwrap();
            wal.checkpoint_rewind(vec![round, round]).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.checkpoints, 5);
        // The chain is recycled: the disk must not have grown by five
        // rounds' worth of log pages.
        let after_one_round = stats.log_pages;
        assert!(
            d.num_pages() as usize <= after_one_round + 1,
            "log leaked pages: {} on disk, {} owned",
            d.num_pages(),
            after_one_round
        );
        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert_eq!(s.generation, 6);
        assert_eq!(s.records.len(), 1, "rewind discards earlier generations");
        assert_eq!(s.records[0].1, WalRecord::Checkpoint { meta: vec![4, 4] });
        assert!(!s.torn_tail);
    }

    #[test]
    fn a_failed_append_leaves_no_partial_record_behind() {
        use bur_storage::{FaultKind, FaultyDisk};
        // A 221-byte frame after a 71-byte one on 128-byte pages (114
        // bytes of stream each) spills over two page boundaries; fail the
        // first page write, or the second after the first landed.
        for nth in [0, 1] {
            let d = Arc::new(FaultyDisk::new(disk(128)));
            let wal = Wal::create(d.clone()).unwrap();
            let l1 = wal.append(&image(1, 1, 50)).unwrap();
            d.fail_nth(FaultKind::Write, nth);
            assert!(wal.append(&image(2, 2, 200)).is_err(), "write {nth}");
            let l3 = wal.append(&image(3, 3, 200)).unwrap();
            let l4 = wal.commit(b"m".to_vec()).unwrap();
            let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
            assert!(!s.torn_tail, "write {nth}: {s:?}");
            let lsns: Vec<Lsn> = s.records.iter().map(|&(lsn, _)| lsn).collect();
            assert_eq!(lsns, [l1, l3, l4], "write {nth}");
            assert_eq!(s.records[1].1, image(3, 3, 200));
            assert_eq!(wal.stats().records, 3);
        }
    }

    #[test]
    fn reopen_requires_rewind_before_append() {
        let d = disk(256);
        let anchor;
        {
            let wal = Wal::create(d.clone()).unwrap();
            anchor = wal.anchor();
            wal.append(&image(5, 5, 100)).unwrap();
            wal.commit(b"m".to_vec()).unwrap();
        }
        let end = LogReader::open(d.as_ref(), anchor)
            .unwrap()
            .expect("a log")
            .finish()
            .unwrap();
        assert_eq!(end.records(), 2);
        let wal = Wal::reopen(d.clone(), &end);
        assert!(wal.append(&image(1, 1, 8)).is_err(), "append before rewind");
        wal.checkpoint_rewind(b"base".to_vec()).unwrap();
        wal.append(&image(1, 1, 8)).unwrap();
        wal.commit(b"m2".to_vec()).unwrap();
        let s = scan(d.as_ref(), anchor).unwrap().unwrap();
        assert_eq!(s.records.len(), 3, "checkpoint + image + commit");
        assert!(matches!(s.records[0].1, WalRecord::Checkpoint { .. }));
        // LSNs continued past the pre-crash log.
        assert!(s.records[0].0 > 2);
    }

    #[test]
    fn reopen_of_garbage_is_invalid_not_fatal() {
        let d = disk(256);
        d.allocate().unwrap(); // a zeroed page is not a log
        assert_eq!(scan(d.as_ref(), 0).unwrap(), None);
        assert_eq!(scan(d.as_ref(), 7).unwrap(), None, "out of bounds");
        assert!(LogReader::open(d.as_ref(), 0).unwrap().is_none());
    }

    #[test]
    fn stats_display_is_readable() {
        let d = disk(256);
        let wal = Wal::create(d).unwrap();
        wal.append(&image(1, 1, 32)).unwrap();
        wal.commit(vec![]).unwrap();
        let text = wal.stats().to_string();
        assert!(text.contains("records"), "{text}");
        assert!(text.contains("gen 1"), "{text}");
        assert!(text.contains("deltas"), "{text}");
    }

    // ---- delta records ---------------------------------------------------

    #[test]
    fn append_page_logs_full_then_delta() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut page = vec![0u8; 256];
        let mut last = None;
        page[10] = 1;
        let l1 = log_page(&wal, &mut last, 7, &page);
        page[10] = 2;
        page[200] = 9;
        let l2 = log_page(&wal, &mut last, 7, &page);
        wal.sync().unwrap();

        let stats = wal.stats();
        assert_eq!(stats.images, 1, "first touch is a full image");
        assert_eq!(stats.deltas, 1);
        assert!(
            stats.delta_saved_bytes > 150,
            "saved: {}",
            stats.delta_saved_bytes
        );

        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert_eq!(s.records.len(), 2);
        let (lsn1, WalRecord::PageImage { pid: 7, data }) = &s.records[0] else {
            panic!("first record must be a full image: {:?}", s.records[0]);
        };
        assert_eq!(*lsn1, l1);
        let (
            lsn2,
            WalRecord::PageDelta {
                pid: 7,
                base_lsn,
                ranges,
            },
        ) = &s.records[1]
        else {
            panic!("second record must be a delta: {:?}", s.records[1]);
        };
        assert_eq!(*lsn2, l2);
        assert_eq!(*base_lsn, l1, "delta chains to the previous image");
        // Replaying the chain reproduces the final page.
        let mut replayed = data.clone();
        assert!(apply_delta(&mut replayed, ranges));
        assert_eq!(replayed, page);
    }

    #[test]
    fn anchor_cadence_forces_full_images() {
        let d = disk(512);
        let wal = Wal::create(d.clone()).unwrap();
        let mut page = vec![0u8; 512];
        let mut last = None;
        for i in 0..3 * ANCHOR_EVERY as usize {
            page[i] = i as u8 + 1;
            log_page(&wal, &mut last, 3, &page);
        }
        wal.sync().unwrap();
        let stats = wal.stats();
        // Records 1, 17, 33 are anchors (every 16th), the rest deltas.
        assert_eq!(stats.images, 3, "{stats}");
        assert_eq!(stats.deltas, 3 * u64::from(ANCHOR_EVERY - 1), "{stats}");
        // Replay the mixed chain and compare against the final state.
        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        let mut replayed = vec![0u8; 512];
        for (_, rec) in &s.records {
            match rec {
                WalRecord::PageImage { data, .. } => replayed.copy_from_slice(data),
                WalRecord::PageDelta { ranges, .. } => {
                    assert!(apply_delta(&mut replayed, ranges));
                }
                _ => {}
            }
        }
        assert_eq!(replayed, page);
    }

    #[test]
    fn full_rewrite_falls_back_to_full_image() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut last = None;
        log_page(&wal, &mut last, 1, &[0xAA; 256]);
        // Every byte changed: a delta would be bigger than the image.
        log_page(&wal, &mut last, 1, &[0x55; 256]);
        let stats = wal.stats();
        assert_eq!(stats.images, 2);
        assert_eq!(stats.deltas, 0);
    }

    #[test]
    fn rewind_resets_delta_chains() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut page = vec![0u8; 256];
        let mut last = None;
        log_page(&wal, &mut last, 4, &page);
        page[3] = 1;
        log_page(&wal, &mut last, 4, &page);
        wal.commit(vec![1]).unwrap();
        wal.checkpoint_rewind(vec![2]).unwrap();
        // First touch after the rewind must be a full image again, even
        // handed the previous generation's content as a base.
        page[3] = 2;
        log_page(&wal, &mut last, 4, &page);
        wal.commit(vec![3]).unwrap();
        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert!(
            matches!(s.records[1].1, WalRecord::PageImage { .. }),
            "post-rewind image must be full: {:?}",
            s.records[1].1
        );
    }

    #[test]
    fn a_base_that_is_not_the_last_record_gives_a_full_image() {
        let d = disk(256);
        let wal = Wal::create(d).unwrap();
        let mut page = vec![0u8; 256];
        let mut last = None;
        log_page(&wal, &mut last, 2, &page);
        let stale = last.clone();
        page[9] = 1;
        log_page(&wal, &mut last, 2, &page);
        page[9] = 2;
        // No base (a blind overwrite), then the base of an older record.
        wal.append_page(2, None, &page).unwrap();
        wal.append_page(2, stale.as_ref(), &page).unwrap();
        let stats = wal.stats();
        assert_eq!((stats.images, stats.deltas), (3, 1), "{stats}");
    }

    #[test]
    fn an_image_appended_as_a_record_restarts_the_delta_chain() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let a = vec![0u8; 256];
        let mut b = a.clone();
        b[10] = 2;
        let mut c = b.clone();
        c[40] = 3;
        wal.append_page(5, None, &a).unwrap();
        let lb = wal
            .append(&WalRecord::PageImage {
                pid: 5,
                data: b.clone(),
            })
            .unwrap();
        let base = PreImage {
            lsn: lb,
            data: b.into(),
        };
        wal.append_page(5, Some(&base), &c).unwrap();
        wal.commit(b"m".to_vec()).unwrap();
        assert_eq!(wal.stats().deltas, 1, "C is a delta against B");

        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        let pool = bur_storage::BufferPool::new(disk(256), Default::default());
        crate::redo(&pool, &s.records, &mut HashMap::new()).expect("the log replays");
        assert_eq!(&*pool.fetch(5).unwrap().read(), &c[..]);
    }

    #[test]
    fn diff_ranges_merges_small_gaps() {
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[10] = 1;
        new[12] = 1; // 1-byte gap: merged
        new[40] = 1; // far away: separate range
        let mut spans = vec![0..1, 2..3];
        diff_ranges(&old, &new, &mut spans);
        assert_eq!(spans, [10..13, 40..41]);
        assert_eq!(new[10..13], [1, 0, 1]);
        // Round-trip.
        let ranges: Vec<DeltaRange> = spans
            .iter()
            .map(|s| DeltaRange {
                offset: s.start as u16,
                bytes: new[s.clone()].to_vec(),
            })
            .collect();
        let mut replayed = old.clone();
        assert!(apply_delta(&mut replayed, &ranges));
        assert_eq!(replayed, new);
    }

    #[test]
    fn diff_ranges_empty_for_identical_pages() {
        let page = vec![7u8; 128];
        let mut spans = vec![0..1, 2..3];
        diff_ranges(&page, &page, &mut spans);
        assert!(spans.is_empty());
    }
}
