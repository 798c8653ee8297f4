//! # bur-wal — write-ahead logging and crash recovery for `bur`
//!
//! The VLDB 2003 bottom-up update techniques make frequent updates cheap,
//! but a cheap update is only useful in production if it *survives*: dirty
//! pages leave the buffer pool in arbitrary order, so a crash mid-stream
//! can tear the tree, and GBU's main-memory summary structure simply
//! vanishes. This crate adds the missing durability layer:
//!
//! * [`Wal`] — a page-oriented, physiological write-ahead log written
//!   through whatever [`DiskBackend`](bur_storage::DiskBackend) it is
//!   handed, chained from the anchor page it allocates there. A `bur`
//!   index hands it a disk of its own — a `.bur` file keeps its log in a
//!   `.bur.wal` sidecar — so a commit's `fsync` pushes the sequential log
//!   and not the randomly placed data pages the pool evicted. The log
//!   only ever syncs *its* disk; ordering against the data disk is the
//!   caller's checkpoint protocol (sync the log → flush and sync the data
//!   → rewind the log);
//! * **records** ([`WalRecord`]) — LSN-stamped page images plus commit
//!   and checkpoint records that carry an opaque metadata snapshot of the
//!   index (root, height, object count, ...);
//! * **delta records** ([`WalRecord::PageDelta`]) — byte-range diffs of a
//!   page against its previous logged image within the same generation.
//!   In-place bottom-up updates touch a few dozen bytes of a 1 KiB page,
//!   so deltas cut log volume several-fold. A page's first record in a
//!   generation is its one full image; every later record is a delta
//!   chained onto the one before, unless there is no base to diff
//!   against or the delta would not be smaller. The log keeps no page
//!   bytes: the caller
//!   hands [`Wal::append_page`] the base, the page's content as of its
//!   previous record — the buffer pool's
//!   [`PreImage`](bur_storage::PreImage), copied at the first write latch
//!   after that record and dropped once the page is logged again — so
//!   the encoder's memory is bounded by the pages of uncommitted batches;
//! * **one way to sync** — [`Wal::commit`] appends the commit record,
//!   writes the tail page and syncs the log's disk before it returns, so
//!   a commit that returned `Ok` is durable and one whose sync failed
//!   returns the error. A failed sync is never retried: a disk may mark
//!   the pages it could not write clean, so a second `fsync` would
//!   succeed without them. It closes the log instead ([`Wal::fail`]):
//!   every later append, sync and rewind is
//!   [`StorageError::LogFailed`](bur_storage::StorageError::LogFailed),
//!   and the owner reopens and recovers. The log is single-threaded and
//!   has no cadence to configure; several operations share one sync by
//!   sharing one commit record (a `Batch` in `bur-core`);
//! * **checkpoints as rewind** — a checkpoint makes the log durable,
//!   flushes the buffer pool as the new base image, then *rewinds* the
//!   log onto its own pages under a fresh generation number, reusing them
//!   instead of growing forever;
//! * **redo** ([`LogReader`] / [`check_page_record`] /
//!   [`redo_page_record`] / [`Wal::reopen`]) — replay every page record
//!   up to the last durable commit, in order, onto the surviving base
//!   image. Records are CRC-framed and generation-tagged, so a torn tail
//!   (a write cut mid-page by power loss) is detected and discarded,
//!   never replayed. Delta chains replay onto the full image that anchors
//!   them — the first record of every page in a generation is always a
//!   full image, so redo never depends on pre-crash disk content. Crash
//!   recovery reads the log twice through a [`LogReader`], checking
//!   every record before it writes a page, and a replication follower
//!   redoes a commit's buffered records through [`redo`], which refuses
//!   them whole when any is malformed; both check through
//!   [`check_page_record`];
//! * **one reader** — a [`LogReader`] hands out a chain's records one at
//!   a time, holding one log page and the one record that spans a page
//!   boundary, so reading a log costs memory for a page and a record, not
//!   for the generation. [`scan`] (tools and tests) and the replication
//!   [`LogCursor`] collect from it, so all agree on where a log ends.
//!   Only a crash's footprints end it, as a torn tail: a next page past
//!   the disk's end, a page without the log magic or from another
//!   generation, an oversized `used` count, a chain loop, a torn or stale
//!   frame. A log page that cannot be read is an error, and recovery,
//!   `upgrade` and a follower's poll return it before writing anything.
//!
//! The protocol is ARIES-style redo-only: the WAL-aware [`BufferPool`]
//! mode guarantees no page leaves the pool before its image is durable in
//! the log (no-steal for uncommitted content, flush gating on the durable
//! LSN for committed content), so recovery never needs undo.
//!
//! ```
//! use bur_storage::MemDisk;
//! use bur_wal::{Wal, WalRecord};
//! use std::sync::Arc;
//!
//! let disk = Arc::new(MemDisk::new(256));
//! let wal = Wal::create(disk.clone()).unwrap();
//! let anchor = wal.anchor();
//! wal.append(&WalRecord::PageImage { pid: 9, data: vec![7u8; 256] }).unwrap();
//! let lsn = wal.commit(b"snapshot".to_vec()).unwrap();
//! assert_eq!(wal.durable_lsn(), lsn);
//!
//! let mut reader = bur_wal::LogReader::open(disk.as_ref(), anchor).unwrap().expect("a log");
//! assert!(matches!(reader.next_record().unwrap(), Some((_, WalRecord::PageImage { pid: 9, .. }))));
//! assert!(matches!(reader.next_record().unwrap(), Some((l, WalRecord::Commit { .. })) if l == lsn));
//! let end = reader.finish().unwrap();
//! assert_eq!(end.records(), 2);
//! assert!(!end.torn_tail());
//! ```

#![warn(missing_docs)]

mod cursor;
mod log;

pub use bur_storage::Lsn;
pub use cursor::{scan, LogCursor, LogEnd, LogReader, ScanResult, ShipBatch};
pub use log::{delta_payload_len, Wal, WalStatsSnapshot, WAL_PAGE_MAGIC};

use bur_storage::{BufferPool, PageId, StorageError, StorageResult};
use std::collections::HashMap;

/// One contiguous byte range rewritten by a [`WalRecord::PageDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRange {
    /// Byte offset of the range within the page.
    pub offset: u16,
    /// The new bytes at `offset`.
    pub bytes: Vec<u8>,
}

/// One record in the log.
///
/// Page images are *physical* redo: replaying them in log order is
/// idempotent, so recovery needs no page-level LSN comparison. Page
/// deltas are physical too but *chained*: each applies onto the page
/// state produced by the record `base_lsn`, which in-order replay
/// guarantees is already in place. Commit and checkpoint records carry
/// the index's serialized metadata snapshot (opaque bytes owned by
/// `bur-core`), which makes every commit a consistent recovery point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The full content of page `pid` as of the enclosing commit.
    PageImage {
        /// The page this image belongs to.
        pid: bur_storage::PageId,
        /// The page bytes (exactly one page).
        data: Vec<u8>,
    },
    /// Byte ranges of page `pid` that changed since its previous logged
    /// image (`base_lsn`) in the same generation.
    PageDelta {
        /// The page this delta belongs to.
        pid: bur_storage::PageId,
        /// LSN of the page's previous image/delta record — the state this
        /// delta applies onto. Replay verifies the chain is unbroken.
        base_lsn: Lsn,
        /// Changed ranges, ascending and non-overlapping.
        ranges: Vec<DeltaRange>,
    },
    /// One index operation (or batch of operations) committed; `meta` is
    /// the index metadata snapshot taken *after* the last of them.
    Commit {
        /// Serialized index metadata (opaque to the log).
        meta: Vec<u8>,
    },
    /// A checkpoint: the on-disk pages at this point are a complete base
    /// image for `meta`. Always the first record of a log generation.
    Checkpoint {
        /// Serialized index metadata (opaque to the log).
        meta: Vec<u8>,
    },
}

impl WalRecord {
    /// Short display name ("image" / "delta" / "commit" / "checkpoint").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WalRecord::PageImage { .. } => "image",
            WalRecord::PageDelta { .. } => "delta",
            WalRecord::Commit { .. } => "commit",
            WalRecord::Checkpoint { .. } => "checkpoint",
        }
    }
}

/// Apply the ranges of a [`WalRecord::PageDelta`] onto a page buffer.
/// Returns `false` (page untouched beyond already-applied ranges) when a
/// range falls outside the buffer — a corrupt record.
#[must_use]
pub fn apply_delta(page: &mut [u8], ranges: &[DeltaRange]) -> bool {
    for r in ranges {
        let start = r.offset as usize;
        let end = start + r.bytes.len();
        if end > page.len() {
            return false;
        }
        page[start..end].copy_from_slice(&r.bytes);
    }
    true
}

/// Why [`redo`] refused or failed its records.
#[derive(Debug)]
pub enum RedoError {
    /// A malformed page record: an image whose length is not the page
    /// size, a delta whose `base_lsn` does not chain to the page's last
    /// replayed record, or a delta range past the page end. Nothing was
    /// written.
    Corrupt(String),
    /// The buffer pool or its disk failed while the records were being
    /// written.
    Storage(StorageError),
}

/// The page `rec` writes, once it passed the checks redo makes before
/// writing a page record: an image must be one page long, and a delta
/// must chain to `last` — the LSN of the page's last record redone (or
/// checked) before it — and stay inside the page. `Ok(None)` for a
/// commit or checkpoint record. Crash recovery and [`redo`] check
/// through this one function.
pub fn check_page_record(
    lsn: Lsn,
    rec: &WalRecord,
    page_size: usize,
    last: impl FnOnce(PageId) -> Option<Lsn>,
) -> Result<Option<PageId>, RedoError> {
    let (pid, flaw) = match rec {
        WalRecord::PageImage { pid, data } => (
            *pid,
            (data.len() != page_size).then_some("is not one page long"),
        ),
        WalRecord::PageDelta {
            pid,
            base_lsn,
            ranges,
        } => {
            let flaw = if last(*pid) != Some(*base_lsn) {
                Some("does not chain to a replayed record")
            } else if ranges
                .iter()
                .any(|r| usize::from(r.offset) + r.bytes.len() > page_size)
            {
                Some("runs past the page end")
            } else {
                None
            };
            (*pid, flaw)
        }
        WalRecord::Commit { .. } | WalRecord::Checkpoint { .. } => return Ok(None),
    };
    match flaw {
        Some(flaw) => Err(RedoError::Corrupt(format!(
            "{} of page {pid} at lsn {lsn} {flaw}",
            rec.name()
        ))),
        None => Ok(Some(pid)),
    }
}

/// Write one page record that passed [`check_page_record`] onto `pool`;
/// commit and checkpoint records write nothing. An image of a page past
/// the disk's end extends the disk first (a crash may have lost trailing
/// allocations).
pub fn redo_page_record(pool: &BufferPool, rec: &WalRecord) -> StorageResult<()> {
    match rec {
        WalRecord::PageImage { pid, data } => {
            while *pid >= pool.disk().num_pages() {
                pool.disk().allocate()?;
            }
            pool.fetch_for_overwrite(*pid)?
                .write()
                .copy_from_slice(data);
        }
        WalRecord::PageDelta { pid, ranges, .. } => {
            let applied = apply_delta(&mut pool.fetch(*pid)?.write(), ranges);
            debug_assert!(applied, "delta bounds were checked");
        }
        WalRecord::Commit { .. } | WalRecord::Checkpoint { .. } => {}
    }
    Ok(())
}

/// Redo the page records among `records` onto `pool`, in order, and
/// return how many `(images, deltas)` it wrote; commit and checkpoint
/// records are skipped. `page_lsns` holds each page's last replayed
/// record, which a delta must chain to, and is advanced.
///
/// Every page record is checked ([`check_page_record`]) before any is
/// written, so a malformed one leaves the pool as it was.
pub fn redo(
    pool: &BufferPool,
    records: &[(Lsn, WalRecord)],
    page_lsns: &mut HashMap<PageId, Lsn>,
) -> Result<(u64, u64), RedoError> {
    let mut chained: HashMap<PageId, Lsn> = HashMap::new();
    for (lsn, rec) in records {
        let last = |pid| chained.get(&pid).or_else(|| page_lsns.get(&pid)).copied();
        if let Some(pid) = check_page_record(*lsn, rec, pool.page_size(), last)? {
            chained.insert(pid, *lsn);
        }
    }
    let (mut images, mut deltas) = (0, 0);
    for (_, rec) in records {
        redo_page_record(pool, rec).map_err(RedoError::Storage)?;
        match rec {
            WalRecord::PageImage { .. } => images += 1,
            WalRecord::PageDelta { .. } => deltas += 1,
            WalRecord::Commit { .. } | WalRecord::Checkpoint { .. } => {}
        }
    }
    page_lsns.extend(chained);
    Ok((images, deltas))
}

/// CRC-32 slice-by-8 lookup tables (IEEE 802.3 polynomial), built at
/// compile time. `T[0]` is the classic byte table; `T[k][b]` extends a
/// byte's contribution `k` positions further into the stream, so eight
/// bytes fold in one step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, slice-by-8). Small and
/// dependency-free; the log only needs torn-tail detection, not
/// cryptographic strength. Folding eight bytes per step keeps the CRC
/// off the durable-update critical path (every appended record is
/// framed with one).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Fold `data` into a running CRC-32 register: start from `!0` and invert
/// the result, and a message fed in pieces gets the CRC of the whole.
pub(crate) fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    const T: &[[u32; 256]; 8] = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().unwrap());
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_fed_in_pieces_is_the_crc_of_the_whole() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for cuts in [[0, 0], [1, 9], [7, 8], [13, 600], [999, 1_000]] {
            let crc = [&data[..cuts[0]], &data[cuts[0]..cuts[1]], &data[cuts[1]..]]
                .iter()
                .fold(!0, |crc, part| crc32_update(crc, part));
            assert_eq!(!crc, crc32(&data), "cut at {cuts:?}");
        }
    }

    #[test]
    fn record_names() {
        assert_eq!(
            WalRecord::PageImage {
                pid: 0,
                data: vec![]
            }
            .name(),
            "image"
        );
        assert_eq!(
            WalRecord::PageDelta {
                pid: 0,
                base_lsn: 1,
                ranges: vec![]
            }
            .name(),
            "delta"
        );
        assert_eq!(WalRecord::Commit { meta: vec![] }.name(), "commit");
        assert_eq!(WalRecord::Checkpoint { meta: vec![] }.name(), "checkpoint");
    }

    #[test]
    fn apply_delta_bounds_checked() {
        let mut page = vec![0u8; 16];
        let ok = apply_delta(
            &mut page,
            &[
                DeltaRange {
                    offset: 2,
                    bytes: vec![9, 9],
                },
                DeltaRange {
                    offset: 14,
                    bytes: vec![7, 7],
                },
            ],
        );
        assert!(ok);
        assert_eq!(page[2], 9);
        assert_eq!(page[15], 7);
        let bad = apply_delta(
            &mut page,
            &[DeltaRange {
                offset: 15,
                bytes: vec![1, 1],
            }],
        );
        assert!(!bad, "out-of-bounds range must be rejected");
    }

    /// A wrong-length image or an out-of-bounds range anywhere in the run
    /// refuses the run whole: the good records before it are not written.
    #[test]
    fn redo_refuses_a_malformed_record_before_writing_any() {
        let good = (
            1,
            WalRecord::PageImage {
                pid: 1,
                data: vec![7; 64],
            },
        );
        let short_image = (
            2,
            WalRecord::PageImage {
                pid: 1,
                data: vec![7; 63],
            },
        );
        let past_the_end = (
            2,
            WalRecord::PageDelta {
                pid: 1,
                base_lsn: 1,
                ranges: vec![DeltaRange {
                    offset: 62,
                    bytes: vec![1; 4],
                }],
            },
        );
        for bad in [short_image, past_the_end] {
            let disk = std::sync::Arc::new(bur_storage::MemDisk::new(64));
            let pool = BufferPool::new(disk, bur_storage::PoolConfig { capacity: 8 });
            let mut lsns = HashMap::new();
            let err = redo(&pool, &[good.clone(), bad], &mut lsns).unwrap_err();
            assert!(matches!(err, RedoError::Corrupt(_)), "{err:?}");
            assert_eq!(pool.disk().num_pages(), 0, "nothing written");
            assert!(lsns.is_empty());
        }
    }
}
