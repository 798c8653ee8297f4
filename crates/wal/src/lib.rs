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
//!   handed, chained from the anchor page it allocates there. That may be
//!   the page disk of the index it protects (one simulated power cut then
//!   covers both) or a disk of its own — a `.bur` file keeps its log in a
//!   `.bur.wal` sidecar, so a commit's `fsync` pushes the sequential log
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
//!   so deltas cut log volume several-fold; full images are re-emitted as
//!   periodic *anchors* ([`DeltaPolicy`]) so redo stays a bounded replay
//!   of one generation;
//! * **one way to sync** — [`Wal::commit`] appends the commit record,
//!   writes the tail page and syncs the log's disk before it returns, so
//!   a commit that returned `Ok` is durable and one whose sync failed
//!   returns the error. The log is single-threaded and has no cadence to
//!   configure; several operations share one sync by sharing one commit
//!   record (a `Batch` in `bur-core`);
//! * **checkpoints as rewind** — a checkpoint makes the log durable,
//!   flushes the buffer pool as the new base image, then *rewinds* the
//!   log onto its own pages under a fresh generation number, reusing them
//!   instead of growing forever;
//! * **redo recovery** ([`Wal::reopen`] / [`scan`]) — replay every page
//!   image up to the last durable commit, in order, onto the surviving
//!   base image. Records are CRC-framed and generation-tagged, so a torn
//!   tail (a write cut mid-page by power loss) is detected and discarded,
//!   never replayed. Delta chains replay onto the full image that anchors
//!   them — the first record of every page in a generation is always a
//!   full image, so redo never depends on pre-crash disk content.
//!
//! The protocol is ARIES-style redo-only: the WAL-aware
//! [`BufferPool`](bur_storage::BufferPool) mode guarantees no page leaves
//! the pool before its image is durable in the log (no-steal for
//! uncommitted content, flush gating on the durable LSN for committed
//! content), so recovery never needs undo.
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
//! let scan = bur_wal::scan(disk.as_ref(), anchor).unwrap();
//! assert_eq!(scan.records.len(), 2);
//! assert!(!scan.torn_tail);
//! ```

#![warn(missing_docs)]

mod cursor;
mod log;

pub use bur_storage::Lsn;
pub use cursor::{LogCursor, ShipBatch};
pub use log::{scan, ScanResult, Wal, WalStatsSnapshot, WAL_PAGE_MAGIC};

/// When [`Wal::append_page`] may log a byte-range delta instead of a full
/// page image.
///
/// Deltas are only ever taken against the previous logged image of the
/// same page *within the current log generation*; the first image of a
/// page after a checkpoint is always full. `anchor_every` bounds how long
/// a delta chain may grow before a fresh full image (an *anchor*) is
/// forced, so replay work per page stays bounded even within one
/// generation and a single corrupt delta cannot poison an unbounded
/// suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPolicy {
    /// Log deltas at all. Off reproduces the original full-image log.
    pub enabled: bool,
    /// Force a full-image anchor every this many records per page (one
    /// anchor followed by `anchor_every - 1` deltas). Values below 2
    /// disable deltas.
    pub anchor_every: u32,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            anchor_every: 16,
        }
    }
}

impl DeltaPolicy {
    /// A policy that always logs full page images (the pre-delta format).
    #[must_use]
    pub fn full_images() -> Self {
        Self {
            enabled: false,
            anchor_every: 16,
        }
    }
}

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
    const T: &[[u32; 256]; 8] = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
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

    #[test]
    fn delta_policy_defaults() {
        let p = DeltaPolicy::default();
        assert!(p.enabled);
        assert!(p.anchor_every >= 2);
        assert!(!DeltaPolicy::full_images().enabled);
    }
}
