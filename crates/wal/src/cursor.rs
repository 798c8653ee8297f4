//! Reading a log chain. [`scan`] reads a whole chain once, for recovery,
//! `upgrade` and tooling; a [`LogCursor`] tails a live one for
//! replication. Both walk the chain through one function, so they agree
//! on where a log ends.
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

use crate::log::{parse_frame, FrameStep, HDR, WAL_PAGE_MAGIC};
use crate::WalRecord;
use bur_storage::{DiskBackend, Lsn, PageId, StorageResult, INVALID_PAGE};

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

/// Read the log chain headed at `anchor` and parse every surviving
/// record. Read-only: used by recovery, `upgrade` and `burctl wal-stats`.
///
/// `Ok(None)` when `anchor` holds no log (out of bounds, or not a log
/// page). A page of the chain that cannot be read is an error, never a
/// torn tail: recovery must not start from a log cut short by the disk.
pub fn scan(disk: &dyn DiskBackend, anchor: PageId) -> StorageResult<Option<ScanResult>> {
    let mut buf = vec![0u8; disk.page_size()];
    let Some(generation) = read_log_page(disk, anchor, &mut buf)? else {
        return Ok(None);
    };
    Ok(Some(walk(disk, &mut buf, generation, (anchor, 0), 0)?.0))
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
        // The cursor moves only once the walk succeeded, so a poll that
        // failed is retried from the same place.
        let (read, resume) = walk(disk, &mut buf, generation, start, self.last_lsn)?;
        self.generation = generation;
        if let Some(&(lsn, _)) = read.records.last() {
            self.last_lsn = lsn;
        }
        (self.resume_page, self.resume_off) = resume;
        Ok(ShipBatch {
            generation,
            rewound,
            records: read.records,
            torn_tail: read.torn_tail,
        })
    }
}

/// Walk the chain of `generation` from `start` — a page, whose image
/// `buf` already holds, and a byte offset into its stream — and parse
/// every complete record after `prev_lsn`. The one chain walker: [`scan`]
/// reads from the anchor, [`LogCursor::poll`] from where it stopped.
///
/// Returns what was read, with the pages visited from `start` on, and
/// where the first unconsumed byte lies. The walk ends at the chain's
/// last page or at a crash's footprint (see the module docs), which it
/// reports as a torn tail; a failed read is an error.
fn walk(
    disk: &dyn DiskBackend,
    buf: &mut [u8],
    generation: u32,
    start: (PageId, usize),
    prev_lsn: Lsn,
) -> StorageResult<(ScanResult, (PageId, usize))> {
    let cap = disk.page_size() - HDR;
    let (mut pid, mut skip) = start;
    let mut stream: Vec<u8> = Vec::new();
    // (pid, stream offset of the page's stream byte 0). Negative for the
    // first page when the walk starts mid-page.
    let mut segments: Vec<(PageId, isize)> = Vec::new();
    let mut read = ScanResult {
        generation,
        records: Vec::new(),
        pages: Vec::new(),
        torn_tail: false,
        stream_bytes: 0,
    };
    loop {
        read.pages.push(pid);
        let next = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let used = u16::from_le_bytes(buf[12..14].try_into().unwrap()) as usize;
        if used > cap || skip > used {
            read.torn_tail = true;
            break;
        }
        segments.push((pid, stream.len() as isize - skip as isize));
        stream.extend_from_slice(&buf[HDR + skip..HDR + used]);
        skip = 0;
        if next == INVALID_PAGE {
            break;
        }
        // A pointer back into the chain is stale garbage, and a next
        // page never (re)written under this generation ends the chain
        // (an allocation lost to a crash, or a live append racing us).
        if read.pages.contains(&next) || read_log_page(disk, next, buf)? != Some(generation) {
            read.torn_tail = true;
            break;
        }
        pid = next;
    }
    read.stream_bytes = stream.len();

    let mut off = 0;
    let mut prev_lsn = prev_lsn;
    loop {
        match parse_frame(&stream, off, prev_lsn) {
            FrameStep::Parsed { lsn, rec, next_off } => {
                read.records.push((lsn, rec));
                prev_lsn = lsn;
                off = next_off;
            }
            FrameStep::End => break,
            FrameStep::Torn => {
                read.torn_tail = true;
                break;
            }
        }
    }

    // Map the consumed boundary back to (page, in-page offset): the
    // segment bases ascend, so the owning page is the last one whose base
    // lies at or before `off`. Without a segment nothing was consumed.
    let offi = off as isize;
    let resume = segments
        .iter()
        .rev()
        .find(|&&(_, base)| base <= offi)
        .map_or(start, |&(rpid, base)| (rpid, (offi - base) as usize));
    Ok((read, resume))
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
        let d = Arc::new(FaultyDisk::new(disk(256)));
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
}
