//! Reading a log chain. A [`LogReader`] hands out a chain's records one
//! at a time, holding the chain page it is reading and the bytes of the
//! one record that spans a page boundary, never the whole stream: crash
//! recovery and `upgrade` read a generation through it twice without
//! their memory growing with the generation. [`scan`] collects a whole
//! chain through it, for tools and tests; a [`LogCursor`] tails a live
//! one through it for replication. All three read through the one
//! reader, so they agree on where a log ends.
//!
//! Only a crash's footprints end a log, as a torn tail: a next page past
//! the disk's end, a page without the log magic or from another
//! generation, a `used` count larger than a page holds, a chain that
//! loops back on itself, and a torn or stale record frame. A page that
//! cannot be read is none of these: it is an error, so a dying disk is
//! never mistaken for the end of the log.
//!
//! A cursor *remembers where it stopped*. Each [`LogCursor::poll`]
//! resumes at the first unconsumed record boundary (pages before it are
//! never re-read once full), returns only records newer than the last
//! LSN handed out, and stops at the first incomplete or torn frame, so a
//! batch is always a clean, exactly-once extension of the previous one.
//!
//! Checkpoint rewinds are survived through the generation tag in every
//! log page header: when the resume page (or the anchor) turns up under
//! a different generation, the cursor restarts from the anchor and
//! returns the new generation's surviving records with
//! [`ShipBatch::rewound`] set — the follower's signal to resync its base
//! image before applying them. LSNs are globally monotonic across
//! generations, so records already consumed can never be replayed: stale
//! bytes parse as a torn tail and recycled pages change generation.
//!
//! Polling a *live* log from another thread is safe because every log
//! page write is a single atomic page-sized disk write and the stream
//! within a page is append-only: a concurrent tail rewrite either shows
//! the old prefix or a longer one, and a chain pointer to a page not yet
//! written under the new generation reads as a generation mismatch — the
//! batch simply ends at the last complete record.

use crate::log::{parse_frame, FrameStep, FRAME, HDR, WAL_PAGE_MAGIC};
use crate::WalRecord;
use bur_storage::{DiskBackend, Lsn, PageId, StorageResult, INVALID_PAGE};
use std::collections::HashSet;

/// What [`scan`] found in a log chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Generation of the scanned chain.
    pub generation: u32,
    /// Surviving records in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Pages of the chain, anchor first.
    pub pages: Vec<PageId>,
    /// `true` when the stream ended in a crash's footprint (see the
    /// module docs) rather than cleanly.
    pub torn_tail: bool,
    /// Total record-stream bytes seen (including any torn tail).
    pub stream_bytes: usize,
}

/// Read the log chain headed at `anchor` and collect every surviving
/// record. Read-only, for tools and tests: it holds the whole generation
/// in memory, so recovery reads through a [`LogReader`] instead.
///
/// `Ok(None)` when `anchor` holds no log (out of bounds, or not a log
/// page). A page of the chain that cannot be read is an error, never a
/// torn tail.
pub fn scan(disk: &dyn DiskBackend, anchor: PageId) -> StorageResult<Option<ScanResult>> {
    let Some(mut reader) = LogReader::open(disk, anchor)? else {
        return Ok(None);
    };
    let mut records = Vec::new();
    while let Some(record) = reader.next_record()? {
        records.push(record);
    }
    let end = reader.finish()?;
    Ok(Some(ScanResult {
        generation: end.generation,
        records,
        pages: end.pages,
        torn_tail: end.torn_tail,
        stream_bytes: end.stream_bytes,
    }))
}

/// Where a log chain ends, as a [`LogReader`] that read it to the end
/// found it: what [`Wal::reopen`](crate::Wal::reopen) goes on from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEnd {
    generation: u32,
    pages: Vec<PageId>,
    last_lsn: Lsn,
    records: u64,
    torn_tail: bool,
    stream_bytes: usize,
}

impl LogEnd {
    /// Generation of the chain.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Pages of the chain, anchor first.
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// LSN of the last surviving record (0 when none survived).
    #[must_use]
    pub fn last_lsn(&self) -> Lsn {
        self.last_lsn
    }

    /// Surviving records, all kinds.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when the stream ended in a crash's footprint (see the
    /// module docs) rather than cleanly.
    #[must_use]
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }
}

/// An incremental reader over a log chain (see the module docs): each
/// [`LogReader::next_record`] parses one record. It holds the chain page
/// it is reading, the bytes of a record that began on an earlier page,
/// and the chain's page ids.
pub struct LogReader<'d> {
    disk: &'d dyn DiskBackend,
    /// Image of the chain page being read.
    page: Vec<u8>,
    /// Which page that is.
    pid: PageId,
    /// Record-stream bytes in `page`.
    used: usize,
    /// Offset into `page`'s stream of the first byte not yet consumed.
    off: usize,
    /// The bytes read so far of a record that began on an earlier page;
    /// empty between such records.
    spill: Vec<u8>,
    /// Pages visited, to tell a chain that loops back on itself.
    visited: HashSet<PageId>,
    /// First unconsumed record boundary, as (page, offset into its
    /// stream): where a [`LogCursor`] resumes.
    resume: (PageId, usize),
    /// The stream has ended; `end` is final.
    ended: bool,
    end: LogEnd,
}

impl<'d> LogReader<'d> {
    /// A reader over the chain headed at `anchor`, before its first
    /// record. `Ok(None)` when `anchor` holds no log (out of bounds, or
    /// not a log page); a failed read is an error.
    pub fn open(disk: &'d dyn DiskBackend, anchor: PageId) -> StorageResult<Option<Self>> {
        let mut page = vec![0u8; disk.page_size()];
        let Some(generation) = read_log_page(disk, anchor, &mut page)? else {
            return Ok(None);
        };
        Ok(Some(Self::start(disk, page, generation, (anchor, 0), 0)))
    }

    /// A reader over the chain of `generation` from `start` — a page,
    /// whose image `page` already holds, and a byte offset into its
    /// stream — handing out the records after `prev_lsn`.
    fn start(
        disk: &'d dyn DiskBackend,
        page: Vec<u8>,
        generation: u32,
        start: (PageId, usize),
        prev_lsn: Lsn,
    ) -> Self {
        let mut reader = Self {
            disk,
            page,
            pid: start.0,
            used: 0,
            off: start.1,
            spill: Vec::new(),
            visited: HashSet::new(),
            resume: start,
            ended: false,
            end: LogEnd {
                generation,
                pages: Vec::new(),
                last_lsn: prev_lsn,
                records: 0,
                torn_tail: false,
                stream_bytes: 0,
            },
        };
        reader.enter();
        reader
    }

    /// The next surviving record, or `Ok(None)` once the stream ended —
    /// at the chain's last page or at a crash's footprint, which
    /// [`LogEnd::torn_tail`] reports. A page that cannot be read is an
    /// error.
    pub fn next_record(&mut self) -> StorageResult<Option<(Lsn, WalRecord)>> {
        while !self.ended {
            // A record is parsed where it lies when it began on this
            // page, and from `spill` when it began on an earlier one.
            let from_page = self.spill.is_empty();
            let (stream, off) = if from_page {
                (&self.page[HDR..HDR + self.used], self.off)
            } else {
                (&self.spill[..], 0)
            };
            match parse_frame(stream, off, self.end.last_lsn) {
                FrameStep::Parsed { lsn, rec, next_off } => {
                    if from_page {
                        self.off = next_off;
                    } else {
                        self.spill.clear();
                    }
                    self.resume = (self.pid, self.off);
                    self.end.last_lsn = lsn;
                    self.end.records += 1;
                    return Ok(Some((lsn, rec)));
                }
                FrameStep::End => self.advance()?,
                FrameStep::Torn => {
                    let have = stream.len() - off;
                    let want = frame_len(&stream[off..]);
                    if have >= want {
                        // The whole frame is here, and it is torn or
                        // stale: the stream ends. The rest of the chain
                        // is walked all the same, so the pages it owns
                        // are all reported.
                        self.end.torn_tail = true;
                        while !self.ended {
                            self.advance()?;
                        }
                    } else {
                        self.pull(want - have)?;
                    }
                }
            }
        }
        Ok(None)
    }

    /// Read the records left, and report where the log ends.
    pub fn finish(mut self) -> StorageResult<LogEnd> {
        while self.next_record()?.is_some() {}
        Ok(self.end)
    }

    /// The frame at the stream position goes on past this page: carry
    /// what this page holds of it into `spill`, and add up to `missing`
    /// more of its bytes from the pages after it. When the chain ends
    /// first, the frame is a torn tail.
    fn pull(&mut self, missing: usize) -> StorageResult<()> {
        if self.spill.is_empty() {
            self.take(self.used - self.off);
        }
        if self.off == self.used {
            self.advance()?;
            if self.ended {
                self.end.torn_tail = true;
                return Ok(());
            }
        }
        self.take(missing.min(self.used - self.off));
        Ok(())
    }

    /// Move `n` stream bytes of this page into `spill`, growing it no
    /// further than they need.
    fn take(&mut self, n: usize) {
        let from = HDR + self.off;
        self.spill.reserve_exact(n);
        self.spill.extend_from_slice(&self.page[from..from + n]);
        self.off += n;
    }

    /// Move on to the chain's next page. The stream ends at the chain's
    /// last page, and at a crash's footprint as a torn tail.
    fn advance(&mut self) -> StorageResult<()> {
        let next = u32::from_le_bytes(self.page[8..12].try_into().unwrap());
        if next == INVALID_PAGE {
            self.ended = true;
            return Ok(());
        }
        // A pointer back into the chain is stale garbage, and a next page
        // never (re)written under this generation ends the chain (an
        // allocation lost to a crash, or a live append racing us).
        if self.visited.contains(&next)
            || read_log_page(self.disk, next, &mut self.page)? != Some(self.end.generation)
        {
            self.end.torn_tail = true;
            self.ended = true;
            return Ok(());
        }
        let boundary_at_end = self.resume == (self.pid, self.used);
        self.pid = next;
        self.off = 0;
        if self.enter() && boundary_at_end {
            self.resume = (next, 0);
        }
        Ok(())
    }

    /// Take the page in `page` as the chain's next; `false` when its
    /// `used` count is impossible, which ends the stream as torn.
    fn enter(&mut self) -> bool {
        self.end.pages.push(self.pid);
        self.visited.insert(self.pid);
        let used = u16::from_le_bytes(self.page[12..14].try_into().unwrap()) as usize;
        if used > self.page.len() - HDR || self.off > used {
            self.end.torn_tail = true;
            self.ended = true;
            return false;
        }
        self.used = used;
        self.end.stream_bytes += used - self.off;
        true
    }
}

/// Bytes the frame whose first bytes are `head` spans: its header and
/// body once the header is all there, the header until then.
fn frame_len(head: &[u8]) -> usize {
    match head.get(..4) {
        Some(len) if head.len() >= FRAME => {
            FRAME + u32::from_le_bytes(len.try_into().unwrap()) as usize
        }
        _ => FRAME,
    }
}

/// One increment of log tailing — what [`LogCursor::poll`] found since
/// the previous poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipBatch {
    /// Generation of the chain the records came from.
    pub generation: u32,
    /// `true` when the log was checkpoint-rewound since the last poll
    /// (or this is the first poll): the consumer must resynchronize its
    /// base image before applying `records`, which restart at the new
    /// generation's opening [`WalRecord::Checkpoint`].
    pub rewound: bool,
    /// New records in LSN order (empty when nothing new landed).
    pub records: Vec<(Lsn, WalRecord)>,
    /// `true` when the stream ended in an incomplete or torn record
    /// rather than at a clean boundary. On a live log this is routinely
    /// a record mid-append and the next poll picks it up; after a crash
    /// it is the torn tail recovery would discard.
    pub torn_tail: bool,
}

/// A resumable reader over a log chain (see the module docs).
///
/// The cursor holds no reference to the disk — the caller passes it to
/// every [`LogCursor::poll`] — so it can be stored beside whichever
/// handle owns the primary's disk.
#[derive(Debug, Clone)]
pub struct LogCursor {
    anchor: PageId,
    /// Generation being followed; 0 before the first successful poll.
    generation: u32,
    /// Highest LSN handed out in a batch.
    last_lsn: Lsn,
    /// Page holding the first unconsumed stream byte.
    resume_page: PageId,
    /// Offset of that byte within the page's stream area.
    resume_off: usize,
}

impl LogCursor {
    /// A cursor over the chain headed at `anchor`, positioned before the
    /// first record.
    #[must_use]
    pub fn new(anchor: PageId) -> Self {
        Self {
            anchor,
            generation: 0,
            last_lsn: 0,
            resume_page: anchor,
            resume_off: 0,
        }
    }

    /// `(generation, last shipped LSN)` — where the cursor stands.
    #[must_use]
    pub fn position(&self) -> (u32, Lsn) {
        (self.generation, self.last_lsn)
    }

    /// Read everything appended (and surviving) since the last poll.
    ///
    /// Errors on a failed read or when the anchor is not a log page at
    /// all (the disk was never durable); torn tails and generation
    /// changes are reported in the batch, not as errors.
    pub fn poll(&mut self, disk: &dyn DiskBackend) -> StorageResult<ShipBatch> {
        let mut buf = vec![0u8; disk.page_size()];
        // The anchor's generation tag is the ground truth for rewinds: a
        // recycled page keeps its stale bytes until reused, so only the
        // anchor — rewritten by every `checkpoint_rewind` — can say which
        // generation is current. It is read first on every poll.
        let Some(generation) = read_log_page(disk, self.anchor, &mut buf)? else {
            return Err(bur_storage::StorageError::Io(std::io::Error::other(
                "log cursor: anchor page is not a write-ahead log",
            )));
        };
        let rewound = generation != self.generation;
        let start = if rewound {
            // A fresh cursor (generation 0) or a checkpoint rewind since
            // the last poll: restart at the new generation's head.
            (self.anchor, 0)
        } else if self.resume_page == self.anchor
            || read_log_page(disk, self.resume_page, &mut buf)? == Some(generation)
        {
            (self.resume_page, self.resume_off)
        } else {
            // The generation is current at the anchor but the resume page
            // is gone or stale: a crash artifact on the tail. Report a
            // torn batch; the caller decides whether to fail over.
            return Ok(ShipBatch {
                generation,
                rewound,
                records: Vec::new(),
                torn_tail: true,
            });
        };
        let mut reader = LogReader::start(disk, buf, generation, start, self.last_lsn);
        let mut records = Vec::new();
        while let Some(record) = reader.next_record()? {
            records.push(record);
        }
        // The cursor moves only once the read succeeded, so a poll that
        // failed is retried from the same place.
        self.generation = generation;
        self.last_lsn = reader.end.last_lsn;
        (self.resume_page, self.resume_off) = reader.resume;
        Ok(ShipBatch {
            generation,
            rewound,
            records,
            torn_tail: reader.end.torn_tail,
        })
    }
}

/// Read page `pid` into `buf` and return its generation, or `Ok(None)`
/// when the page is out of bounds (an allocation lost to a crash) or not
/// a log page. A failed read propagates: a dying disk must not be
/// mistaken for a torn, quiescent or never-durable log.
fn read_log_page(
    disk: &dyn DiskBackend,
    pid: PageId,
    buf: &mut [u8],
) -> StorageResult<Option<u32>> {
    if pid >= disk.num_pages() {
        return Ok(None);
    }
    disk.read(pid, buf)?;
    if u32::from_le_bytes(buf[0..4].try_into().unwrap()) != WAL_PAGE_MAGIC {
        return Ok(None);
    }
    Ok(Some(u32::from_le_bytes(buf[4..8].try_into().unwrap())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, Wal};
    use bur_storage::MemDisk;
    use std::sync::Arc;

    fn disk(ps: usize) -> Arc<MemDisk> {
        Arc::new(MemDisk::new(ps))
    }

    fn image(pid: PageId, fill: u8, len: usize) -> WalRecord {
        WalRecord::PageImage {
            pid,
            data: vec![fill; len],
        }
    }

    #[test]
    fn poll_is_incremental_and_exactly_once() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());

        // Nothing yet: first poll reports the attach rewind, no records.
        let b = cur.poll(d.as_ref()).unwrap();
        assert!(b.rewound, "first poll always resynchronizes");
        assert!(b.records.is_empty());
        assert!(!b.torn_tail);

        wal.append(&image(9, 0xAA, 100)).unwrap();
        wal.commit(b"c1".to_vec()).unwrap();
        let b = cur.poll(d.as_ref()).unwrap();
        assert!(!b.rewound);
        assert_eq!(b.records.len(), 2);
        assert!(!b.torn_tail);

        // No new records: empty batch, and repeated polls stay empty.
        assert!(cur.poll(d.as_ref()).unwrap().records.is_empty());
        assert!(cur.poll(d.as_ref()).unwrap().records.is_empty());

        // New records arrive exactly once, spanning page boundaries.
        wal.append(&image(10, 0xBB, 200)).unwrap();
        wal.append(&image(11, 0xCC, 200)).unwrap();
        wal.commit(b"c2".to_vec()).unwrap();
        let b = cur.poll(d.as_ref()).unwrap();
        assert_eq!(b.records.len(), 3);
        assert_eq!(
            b.records.last().unwrap().1,
            WalRecord::Commit {
                meta: b"c2".to_vec()
            }
        );
        assert!(cur.poll(d.as_ref()).unwrap().records.is_empty());
    }

    #[test]
    fn poll_matches_scan_cumulatively() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());
        let mut collected = Vec::new();
        for round in 0..7u8 {
            for p in 0..3 {
                wal.append(&image(p, round, 120)).unwrap();
            }
            wal.commit(vec![round]).unwrap();
            collected.extend(cur.poll(d.as_ref()).unwrap().records);
        }
        let s = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert_eq!(collected, s.records, "increments must concatenate to scan");
    }

    #[test]
    fn rewind_is_reported_and_stale_records_are_skipped() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());
        wal.append(&image(5, 1, 150)).unwrap();
        wal.commit(b"pre".to_vec()).unwrap();
        let b = cur.poll(d.as_ref()).unwrap();
        assert_eq!(b.records.len(), 2);
        let (gen_before, lsn_before) = cur.position();

        wal.checkpoint_rewind(b"ckpt".to_vec()).unwrap();
        wal.append(&image(6, 2, 150)).unwrap();
        wal.commit(b"post".to_vec()).unwrap();

        let b = cur.poll(d.as_ref()).unwrap();
        assert!(b.rewound, "generation change must be reported");
        assert_eq!(b.generation, gen_before + 1);
        // The new generation ships from its opening checkpoint; nothing
        // from the dead generation reappears.
        assert_eq!(b.records.len(), 3);
        assert!(matches!(b.records[0].1, WalRecord::Checkpoint { .. }));
        assert!(b.records[0].0 > lsn_before);
        assert!(cur.poll(d.as_ref()).unwrap().records.is_empty());
    }

    #[test]
    fn unsynced_tail_is_invisible_until_written() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());
        cur.poll(d.as_ref()).unwrap();
        wal.append(&image(1, 1, 80)).unwrap();
        // Still only in the tail buffer: nothing to ship.
        assert!(cur.poll(d.as_ref()).unwrap().records.is_empty());
        wal.sync().unwrap();
        assert_eq!(cur.poll(d.as_ref()).unwrap().records.len(), 1);
    }

    #[test]
    fn torn_tail_ships_the_clean_prefix_only() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());
        wal.append(&image(1, 1, 64)).unwrap();
        wal.append(&image(2, 2, 64)).unwrap();
        wal.sync().unwrap();
        let pages = scan(d.as_ref(), wal.anchor()).unwrap().unwrap().pages;
        let tail = *pages.last().unwrap();
        let mut buf = vec![0u8; 256];
        d.read(tail, &mut buf).unwrap();
        let used = u16::from_le_bytes(buf[12..14].try_into().unwrap()) as usize;
        for b in &mut buf[HDR + used - 8..HDR + used] {
            *b ^= 0xFF;
        }
        d.write(tail, &buf).unwrap();

        let b = cur.poll(d.as_ref()).unwrap();
        assert!(b.torn_tail);
        assert_eq!(b.records.len(), 1, "only the intact prefix ships");
        assert_eq!(b.records[0].1, image(1, 1, 64));
    }

    #[test]
    fn poll_of_garbage_anchor_is_an_error() {
        let d = disk(256);
        d.allocate().unwrap(); // zeroed page: not a log
        let mut cur = LogCursor::new(0);
        assert!(cur.poll(d.as_ref()).is_err());
        let mut cur = LogCursor::new(9); // out of bounds
        assert!(cur.poll(d.as_ref()).is_err());
    }

    #[test]
    fn cursor_survives_many_rewinds() {
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut cur = LogCursor::new(wal.anchor());
        let mut commits_seen = 0usize;
        for round in 0..5u8 {
            for p in 0..4 {
                wal.append(&image(p, round, 180)).unwrap();
            }
            wal.commit(vec![round]).unwrap();
            let b = cur.poll(d.as_ref()).unwrap();
            commits_seen += b
                .records
                .iter()
                .filter(|(_, r)| matches!(r, WalRecord::Commit { .. }))
                .count();
            wal.checkpoint_rewind(vec![round, round]).unwrap();
            let b = cur.poll(d.as_ref()).unwrap();
            assert!(b.rewound, "round {round}");
            assert_eq!(b.records.len(), 1, "only the fresh checkpoint");
        }
        assert_eq!(commits_seen, 5, "every commit shipped exactly once");
    }

    /// A chain page that cannot be read ends neither reader's log as a
    /// torn tail: `scan` and `poll` both fail, and once the page reads
    /// again both see every record.
    #[test]
    fn a_failed_read_is_an_error_not_a_torn_tail() {
        use bur_storage::{FaultKind, FaultyDisk};
        let d = FaultyDisk::new(disk(256));
        let wal = Wal::create(d.clone()).unwrap();
        for round in 0..4u8 {
            wal.append(&image(1, round, 150)).unwrap();
            wal.commit(vec![round]).unwrap();
        }
        let full = scan(d.as_ref(), wal.anchor()).unwrap().unwrap();
        assert!(full.pages.len() >= 3, "chain: {:?}", full.pages);
        d.fail_page(FaultKind::Read, full.pages[full.pages.len() / 2]);
        assert!(scan(d.as_ref(), wal.anchor()).is_err());
        let mut cur = LogCursor::new(wal.anchor());
        assert!(cur.poll(d.as_ref()).is_err());
        d.clear_faults();
        assert_eq!(scan(d.as_ref(), wal.anchor()).unwrap().unwrap(), full);
        let b = cur.poll(d.as_ref()).unwrap();
        assert!(
            b.rewound,
            "a failed first poll leaves the cursor unattached"
        );
        assert_eq!(b.records, full.records);
    }

    /// A reader holds one log page and the one record it is assembling,
    /// however long the chain: reading a log of over 2 000 pages, its
    /// buffers never exceed one page plus the largest record's frame.
    #[test]
    fn the_reader_holds_one_page_and_one_record() {
        use crate::log::BODY_PREFIX;
        let d = disk(256);
        let wal = Wal::create(d.clone()).unwrap();
        let mut largest = 0;
        let mut appended = 0u64;
        for round in 0..1_600usize {
            // Images from a few bytes to over two log pages long.
            let len = (round * 37) % 600;
            wal.append(&image(round as PageId, round as u8, len))
                .unwrap();
            largest = largest.max(FRAME + BODY_PREFIX + 4 + len);
            appended += 1;
            if round % 7 == 0 {
                wal.commit(vec![round as u8; 40]).unwrap();
                appended += 1;
            }
        }
        wal.sync().unwrap();

        let mut reader = LogReader::open(d.as_ref(), wal.anchor()).unwrap().unwrap();
        let mut read = 0u64;
        while let Some((_, rec)) = reader.next_record().unwrap() {
            read += 1;
            let held = reader.page.capacity() + reader.spill.capacity();
            assert!(
                held <= 256 + largest,
                "record {read} ({}): {held} bytes held, largest frame {largest}",
                rec.name()
            );
        }
        let end = reader.finish().unwrap();
        assert_eq!((read, end.records()), (appended, appended));
        assert!(!end.torn_tail());
        assert!(end.pages().len() >= 2_000, "{} pages", end.pages().len());
    }
}
