//! A byte payload stored across a chain of pages: the format behind the
//! index's metadata chain and its persisted hash directory.
//!
//! Every page of a chain holds `[next u32][len u16][data ...]`: the next
//! page's id ([`INVALID_PAGE`] on the last page), the length of this
//! page's chunk, and the chunk. An empty payload is one page with an
//! empty chunk.

use crate::{BufferPool, PageId, StorageError, StorageResult, INVALID_PAGE};

/// Chunk header: `next` and `len`.
const CHUNK_HDR: usize = 6;

/// Write `payload` as a chain through `pool` and return its head.
///
/// With `head` set the chain starts on that page (a chain at a fixed
/// place, like the metadata chain at page 0); without it the head is
/// drawn like every other page. Pages are popped from `spare` (the pages
/// of the chain this one supersedes) before any fresh allocation. On
/// return `spare` holds the leftover spares and then the new chain's
/// drawn pages, in chain order, so the next write recycles them instead
/// of leaking a chain per write.
pub fn write_chain(
    pool: &BufferPool,
    head: Option<PageId>,
    payload: &[u8],
    spare: &mut Vec<PageId>,
) -> StorageResult<PageId> {
    // `len` is a u16, so a page over 64 KiB carries a shorter chunk.
    let chunk = (pool.page_size() - CHUNK_HDR).min(usize::from(u16::MAX));
    let parts = payload.len().div_ceil(chunk).max(1);
    let mut drawn = Vec::with_capacity(parts);
    let mut prev = None;
    for i in 0..parts {
        let start = (i * chunk).min(payload.len());
        let part = &payload[start..payload.len().min(start + chunk)];
        let pid = match head.filter(|_| i == 0) {
            Some(fixed) => fixed,
            None => {
                let pid = match spare.pop() {
                    Some(p) => p,
                    None => pool.new_page()?.0,
                };
                drawn.push(pid);
                pid
            }
        };
        {
            let guard = pool.fetch_for_overwrite(pid)?;
            let mut w = guard.write();
            w.fill(0);
            w[0..4].copy_from_slice(&INVALID_PAGE.to_le_bytes());
            w[4..6].copy_from_slice(&u16::try_from(part.len()).expect("chunk fits").to_le_bytes());
            w[CHUNK_HDR..CHUNK_HDR + part.len()].copy_from_slice(part);
        }
        if let Some(p) = prev {
            pool.fetch(p)?.write()[0..4].copy_from_slice(&pid.to_le_bytes());
        }
        prev = Some(pid);
    }
    let first = head.unwrap_or_else(|| drawn[0]);
    spare.extend(drawn);
    Ok(first)
}

/// Read the chain headed at `head` back into one payload, with every page
/// it occupies, head first. A chain that loops or a chunk length past its
/// page is [`StorageError::Corrupt`], never a panic or an endless walk.
pub fn read_chain(pool: &BufferPool, head: PageId) -> StorageResult<(Vec<u8>, Vec<PageId>)> {
    let mut payload = Vec::new();
    let mut pages = Vec::new();
    let mut pid = head;
    loop {
        if pages.contains(&pid) {
            return Err(StorageError::Corrupt("page chain loops"));
        }
        let guard = pool.fetch(pid)?;
        let data = guard.read();
        let next = PageId::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let len = usize::from(u16::from_le_bytes(data[4..6].try_into().expect("2 bytes")));
        if len > data.len() - CHUNK_HDR {
            return Err(StorageError::Corrupt("page chain chunk overruns its page"));
        }
        payload.extend_from_slice(&data[CHUNK_HDR..CHUNK_HDR + len]);
        pages.push(pid);
        if next == INVALID_PAGE {
            return Ok((payload, pages));
        }
        pid = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDisk, PoolConfig};
    use std::sync::Arc;

    const PAGE: usize = 64;

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new(PAGE)), PoolConfig { capacity: 8 })
    }

    /// A payload filling `pages` pages, the last one partly.
    fn payload(pages: usize) -> Vec<u8> {
        (0..(pages - 1) * (PAGE - CHUNK_HDR) + 5)
            .map(|i| i as u8)
            .collect()
    }

    #[test]
    fn a_chain_at_a_fixed_head_round_trips_and_recycles_its_pages() {
        let pool = pool();
        let (head, _) = pool.new_page().unwrap();
        let mut spare = Vec::new();
        let big = payload(4);
        assert_eq!(
            write_chain(&pool, Some(head), &big, &mut spare).unwrap(),
            head
        );
        assert_eq!(
            spare.len(),
            3,
            "the fixed head is not the chain's to recycle"
        );
        let (read, pages) = read_chain(&pool, head).unwrap();
        assert_eq!(read, big);
        assert_eq!(pages[0], head);
        assert_eq!(pages[1..], spare[..]);

        // A shorter payload reuses the old pages and keeps the leftovers.
        let allocated = pool.disk().num_pages();
        let small = payload(2);
        assert_eq!(
            write_chain(&pool, Some(head), &small, &mut spare).unwrap(),
            head
        );
        assert_eq!(pool.disk().num_pages(), allocated, "no fresh page");
        assert_eq!(spare.len(), 3);
        assert_eq!(read_chain(&pool, head).unwrap().0, small);

        // A payload that fits the head page draws nothing.
        assert_eq!(
            write_chain(&pool, Some(head), &[], &mut spare).unwrap(),
            head
        );
        assert_eq!(read_chain(&pool, head).unwrap(), (Vec::new(), vec![head]));
        assert_eq!(spare.len(), 3);
    }

    #[test]
    fn a_chain_with_a_free_head_round_trips() {
        let pool = pool();
        let mut spare = Vec::new();
        let big = payload(3);
        let head = write_chain(&pool, None, &big, &mut spare).unwrap();
        let (read, pages) = read_chain(&pool, head).unwrap();
        assert_eq!(read, big);
        assert_eq!(pages, spare, "every page is the chain's, head first");

        let empty = write_chain(&pool, None, &[], &mut spare).unwrap();
        assert_eq!(read_chain(&pool, empty).unwrap(), (Vec::new(), vec![empty]));
        assert_eq!(pool.disk().num_pages(), 3, "the empty chain took a spare");
    }

    #[test]
    fn a_page_over_64_kib_round_trips() {
        let page = 70_000;
        let pool = BufferPool::new(Arc::new(MemDisk::new(page)), PoolConfig { capacity: 4 });
        let big: Vec<u8> = (0..page).map(|i| i as u8).collect();
        let head = write_chain(&pool, None, &big, &mut Vec::new()).unwrap();
        let (read, pages) = read_chain(&pool, head).unwrap();
        assert_eq!(read, big);
        assert_eq!(pages.len(), 2, "a chunk holds at most u16::MAX bytes");
    }

    #[test]
    fn a_chain_that_loops_back_is_refused() {
        let pool = pool();
        let head = write_chain(&pool, None, &payload(3), &mut Vec::new()).unwrap();
        let (_, pages) = read_chain(&pool, head).unwrap();
        // The last page links back to the second.
        pool.fetch(pages[2]).unwrap().write()[0..4].copy_from_slice(&pages[1].to_le_bytes());
        assert!(matches!(
            read_chain(&pool, head),
            Err(StorageError::Corrupt("page chain loops"))
        ));
        // A page that names itself is the shortest loop.
        pool.fetch(head).unwrap().write()[0..4].copy_from_slice(&head.to_le_bytes());
        assert!(matches!(
            read_chain(&pool, head),
            Err(StorageError::Corrupt("page chain loops"))
        ));
    }

    #[test]
    fn a_chunk_length_past_its_page_is_refused() {
        let pool = pool();
        let head = write_chain(&pool, None, &payload(2), &mut Vec::new()).unwrap();
        let (_, pages) = read_chain(&pool, head).unwrap();
        let past = (PAGE - CHUNK_HDR + 1) as u16;
        pool.fetch(pages[1]).unwrap().write()[4..6].copy_from_slice(&past.to_le_bytes());
        assert!(matches!(
            read_chain(&pool, head),
            Err(StorageError::Corrupt("page chain chunk overruns its page"))
        ));
        // One byte less fills the page exactly and still reads.
        let full = past - 1;
        pool.fetch(pages[1]).unwrap().write()[4..6].copy_from_slice(&full.to_le_bytes());
        assert_eq!(
            read_chain(&pool, head).unwrap().0.len(),
            2 * usize::from(full)
        );
    }
}
