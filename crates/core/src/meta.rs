//! Index metadata snapshots and their on-disk page chains.
//!
//! A [`MetaSnapshot`] is the serialized "superblock" of an index: root
//! page, height, object count, hash-index directory head, free list and
//! WAL anchor. It is written in two places:
//!
//! * the **metadata page chain** headed at page 0 — what a clean open
//!   through [`crate::IndexBuilder`]'s [`crate::OpenMode::Open`] reads,
//!   in the page-chain format `bur-storage` shares with the persisted
//!   hash directory ([`bur_storage::write_chain`]);
//! * inside every WAL **commit/checkpoint record** — what recovery uses,
//!   so a crash can never leave the superblock behind the log.

use crate::error::{CoreError, CoreResult};
use crate::node::NodeView;
use bur_storage::{read_chain, write_chain, BufferPool, PageId, StorageError, INVALID_PAGE};

/// Magic opening every metadata payload ("BURTREE1").
pub(crate) const META_MAGIC: u64 = 0x4255_5254_5245_4531;

/// The metadata chain head: always page 0.
pub(crate) const META_PAGE: PageId = 0;

/// The anchor of a durable index's write-ahead log: the first page the
/// log allocates on its own disk (a `.bur.wal` sidecar, or
/// [`crate::IndexBuilder::log_disk`]). Public because log shippers
/// (`bur-repl`) tail the chain headed here.
pub const LOG_DISK_ANCHOR: PageId = 0;

/// All index state that lives outside the tree pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MetaSnapshot {
    /// Page size the index was built with.
    pub page_size: usize,
    /// Root node page.
    pub root: PageId,
    /// Tree height (1 = the root is a leaf).
    pub height: u16,
    /// Number of indexed objects.
    pub len: u64,
    /// Head of the persisted hash directory chain, or [`INVALID_PAGE`]
    /// when the snapshot carries no hash image (recovery rebuilds it from
    /// the tree instead).
    pub hash_head: PageId,
    /// Pages freed by CondenseTree, available for reuse.
    pub free_pages: Vec<PageId>,
    /// WAL anchor page on the log disk, or [`INVALID_PAGE`] for a
    /// non-durable index.
    pub wal_anchor: PageId,
}

impl MetaSnapshot {
    /// Refuse a snapshot whose height disagrees with its root page's
    /// level in `pool`: a tree built or installed over it would take
    /// writes and queries and fail only later. An empty disk holds no
    /// tree to disagree with: a replication follower builds its view
    /// before the base image lands.
    pub(crate) fn check_root(&self, pool: &BufferPool) -> CoreResult<()> {
        if pool.disk().num_pages() == 0 {
            return Ok(());
        }
        let level = NodeView::new(self.root, pool.fetch(self.root)?.read())?.level();
        if self.height.checked_sub(1) == Some(level) {
            return Ok(());
        }
        Err(CoreError::BadConfig(format!(
            "corrupt index metadata: height {} over root page {} of level {level}",
            self.height, self.root
        )))
    }

    /// `true` when the snapshot includes a persisted hash directory.
    pub fn stored_hash(&self) -> bool {
        self.hash_head != INVALID_PAGE
    }

    /// Serialize to the little-endian wire format. Flag bit 2 says the
    /// log lives on a disk of its own; every durable snapshot sets it,
    /// because files written before that was the only layout kept their
    /// log inside the data file and read bit 2 clear.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(44 + 4 * self.free_pages.len());
        payload.extend_from_slice(&META_MAGIC.to_le_bytes());
        payload.extend_from_slice(&(self.page_size as u32).to_le_bytes());
        let durable = u32::from(self.wal_anchor != INVALID_PAGE);
        let flags: u32 = u32::from(self.stored_hash()) | (durable << 1) | (durable << 2);
        payload.extend_from_slice(&flags.to_le_bytes());
        payload.extend_from_slice(&self.root.to_le_bytes());
        payload.extend_from_slice(&u32::from(self.height).to_le_bytes());
        payload.extend_from_slice(&self.len.to_le_bytes());
        payload.extend_from_slice(&self.hash_head.to_le_bytes());
        payload.extend_from_slice(&self.wal_anchor.to_le_bytes());
        payload.extend_from_slice(&(self.free_pages.len() as u32).to_le_bytes());
        for &p in &self.free_pages {
            payload.extend_from_slice(&p.to_le_bytes());
        }
        payload
    }

    /// Parse the wire format; rejects bad magic and truncated payloads.
    /// The flag is `true` for a durable snapshot with bit 2 clear: the
    /// old layout, whose log is chained inside the data file — which only
    /// [`crate::upgrade`] accepts.
    pub fn decode(payload: &[u8]) -> CoreResult<(Self, bool)> {
        let mut cur = MetaCursor::new(payload);
        if cur.u64()? != META_MAGIC {
            return Err(CoreError::BadConfig("not a bur index (bad magic)".into()));
        }
        let page_size = cur.u32()? as usize;
        let flags = cur.u32()?;
        let root = cur.u32()?;
        let height = cur.u32()? as u16;
        let len = cur.u64()?;
        let hash_head = cur.u32()?;
        let wal_anchor = cur.u32()?;
        let free_count = cur.u32()? as usize;
        let mut free_pages = Vec::with_capacity(free_count.min(1 << 16));
        for _ in 0..free_count {
            free_pages.push(cur.u32()?);
        }
        let snap = Self {
            page_size,
            root,
            height,
            len,
            hash_head,
            free_pages,
            wal_anchor,
        };
        let durable = snap.wal_anchor != INVALID_PAGE;
        if snap.stored_hash() != (flags & 1 != 0)
            || durable != (flags & 2 != 0)
            || (!durable && flags & 4 != 0)
        {
            return Err(CoreError::BadConfig(
                "corrupt index metadata (flag mismatch)".into(),
            ));
        }
        // Every writer emits exactly this layout; trailing bytes mean a
        // torn or mis-linked chain and must not pass as a valid snapshot
        // (recovery trusts a decodable chain's pages for recycling).
        if cur.off != payload.len() {
            return Err(CoreError::BadConfig(
                "corrupt index metadata (trailing bytes)".into(),
            ));
        }
        Ok((snap, durable && flags & 4 == 0))
    }
}

/// Bounds-checked little-endian payload reader.
struct MetaCursor<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> MetaCursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, off: 0 }
    }

    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        if self.off + n > self.data.len() {
            return Err(CoreError::BadConfig(
                "truncated index metadata payload".into(),
            ));
        }
        let s = &self.data[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u32(&mut self) -> CoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> CoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

// ---- metadata page chain -------------------------------------------------

/// Write `payload` as the metadata chain headed at page 0, in
/// `bur-storage`'s page-chain format ([`bur_storage::write_chain`]).
///
/// Continuation pages (when the payload does not fit on the head page)
/// are drawn from `chain_pool` — the pages the *previous* chain occupied,
/// as returned by [`read_meta_chain`] or by the last write — before any
/// fresh allocation. On return, `chain_pool` holds the new chain's
/// continuation pages plus any leftover spares, so superseded chains are
/// recycled in place instead of leaking one continuation run per
/// checkpoint.
pub(crate) fn write_meta_chain(
    pool: &BufferPool,
    payload: &[u8],
    chain_pool: &mut Vec<PageId>,
) -> CoreResult<()> {
    write_chain(pool, Some(META_PAGE), payload, chain_pool)?;
    Ok(())
}

/// Read the metadata chain headed at page 0 back into one payload, also
/// returning the continuation pages it occupies (page 0 excluded) so the
/// next [`write_meta_chain`] can recycle them. A chain that does not
/// decode (a zeroed or garbage page can point anywhere, page 0 included)
/// is not a bur index.
pub(crate) fn read_meta_chain(pool: &BufferPool) -> CoreResult<(Vec<u8>, Vec<PageId>)> {
    let (payload, mut pages) = read_chain(pool, META_PAGE).map_err(|e| match e {
        StorageError::Corrupt(what) => {
            CoreError::BadConfig(format!("not a bur index (bad magic in meta chain: {what})"))
        }
        e => e.into(),
    })?;
    pages.remove(0);
    Ok((payload, pages))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let snap = MetaSnapshot {
            page_size: 1024,
            root: 7,
            height: 3,
            len: 123_456,
            hash_head: 42,
            free_pages: vec![9, 11, 13],
            wal_anchor: LOG_DISK_ANCHOR,
        };
        assert_eq!(
            MetaSnapshot::decode(&snap.encode()).unwrap(),
            (snap.clone(), false)
        );
        assert!(snap.stored_hash());

        // Bit 2 clear on a durable snapshot: the log is in the data file.
        let mut old = snap.encode();
        old[12] &= !4;
        assert_eq!(MetaSnapshot::decode(&old).unwrap(), (snap.clone(), true));

        let bare = MetaSnapshot {
            hash_head: INVALID_PAGE,
            wal_anchor: INVALID_PAGE,
            free_pages: vec![],
            ..snap
        };
        let (decoded, old_layout) = MetaSnapshot::decode(&bare.encode()).unwrap();
        assert!(!old_layout);
        assert!(!decoded.stored_hash());
        assert_eq!(decoded.wal_anchor, INVALID_PAGE);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MetaSnapshot::decode(&[]).is_err());
        assert!(MetaSnapshot::decode(&[0u8; 12]).is_err());
        let snap = MetaSnapshot {
            page_size: 1024,
            root: 2,
            height: 1,
            len: 0,
            hash_head: INVALID_PAGE,
            free_pages: vec![],
            wal_anchor: INVALID_PAGE,
        };
        let mut bytes = snap.encode();
        bytes.truncate(bytes.len() - 2);
        assert!(MetaSnapshot::decode(&bytes).is_err(), "truncated payload");
    }
}
