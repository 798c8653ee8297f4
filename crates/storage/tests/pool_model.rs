//! Model-based property test for the buffer pool: under arbitrary
//! operation sequences (allocation, reads, writes, flushes, eviction,
//! capacity changes) the pool must never lose or corrupt a byte, its I/O
//! counters must respect basic conservation laws, and it must evict
//! exactly the victims a reference LRU evicts.

use bur_storage::{BufferPool, DiskBackend, MemDisk, PoolConfig};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Number of distinct pages among the held guards (a page may be pinned
/// several times but occupies one frame).
fn distinct_pids(pinned: &[bur_storage::PageRef<'_>]) -> usize {
    let mut ids: Vec<u32> = pinned.iter().map(|g| g.pid()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Eviction-order oracle: a reference LRU over the *unpinned* resident
/// pages. It predicts, for every fetch, whether the pool serves it from
/// memory or reads the disk — which is only right when the pool chose
/// the same victims in the same order all along.
struct LruModel {
    capacity: usize,
    /// Pins held per page (pinned pages are resident and not evictable).
    pins: HashMap<u32, usize>,
    /// Unpinned resident pages, most recently unpinned at the front.
    unpinned: VecDeque<u32>,
    /// Physical reads predicted so far.
    misses: u64,
}

impl LruModel {
    /// A fetch of `pid`; `reads_on_miss` is false for a blind write.
    fn pin(&mut self, pid: u32, reads_on_miss: bool) {
        let pins = self.pins.entry(pid).or_insert(0);
        *pins += 1;
        if *pins == 1 {
            match self.unpinned.iter().position(|&p| p == pid) {
                Some(at) => {
                    self.unpinned.remove(at);
                }
                None if reads_on_miss => self.misses += 1,
                None => {}
            }
        }
    }

    /// A guard of `pid` dropped.
    fn unpin(&mut self, pid: u32) {
        let pins = self.pins.get_mut(&pid).expect("unpin of a pinned page");
        *pins -= 1;
        if *pins == 0 {
            self.pins.remove(&pid);
            self.unpinned.push_front(pid);
            self.unpinned.truncate(self.capacity);
        }
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.unpinned.truncate(capacity);
    }
}

#[derive(Debug, Clone)]
enum Op {
    New(u8),
    Write(u8, u8),
    /// Blind write through `fetch_for_overwrite`: overwrites the whole
    /// page without reading the old content from disk.
    BlindWrite(u8, u8),
    Read(u8),
    /// Fetch a page and *hold* the guard across later operations.
    Pin(u8),
    /// Drop the oldest held guard.
    Unpin,
    Flush,
    EvictAll,
    SetCapacity(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => any::<u8>().prop_map(Op::New),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(p, v)| Op::Write(p, v)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(p, v)| Op::BlindWrite(p, v)),
        4 => any::<u8>().prop_map(Op::Read),
        2 => any::<u8>().prop_map(Op::Pin),
        2 => Just(Op::Unpin),
        1 => Just(Op::Flush),
        1 => Just(Op::EvictAll),
        1 => (0u8..8).prop_map(Op::SetCapacity),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pool_never_loses_data(
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let pool = BufferPool::new(
            Arc::new(MemDisk::new(128)),
            PoolConfig { capacity: 2 },
        );
        // Model: page id -> the byte we last wrote at offset 7.
        let mut model: HashMap<u32, u8> = HashMap::new();
        let mut pids: Vec<u32> = Vec::new();
        // Guards held open across operations (pinned frames).
        let mut pinned = Vec::new();
        let mut lru = LruModel {
            capacity: 2,
            pins: HashMap::new(),
            unpinned: VecDeque::new(),
            misses: 0,
        };
        for op in ops {
            match op {
                Op::New(v) => {
                    let (pid, guard) = pool.new_page().unwrap();
                    guard.write()[7] = v;
                    drop(guard);
                    model.insert(pid, v);
                    pids.push(pid);
                    // Born resident and pinned: no read.
                    lru.pin(pid, false);
                    lru.unpin(pid);
                }
                Op::Write(which, v) => {
                    if pids.is_empty() { continue; }
                    let pid = pids[which as usize % pids.len()];
                    let guard = pool.fetch(pid).unwrap();
                    guard.write()[7] = v;
                    drop(guard);
                    model.insert(pid, v);
                    lru.pin(pid, true);
                    lru.unpin(pid);
                }
                Op::BlindWrite(which, v) => {
                    if pids.is_empty() { continue; }
                    let pid = pids[which as usize % pids.len()];
                    let guard = pool.fetch_for_overwrite(pid).unwrap();
                    {
                        // Contract: a blind write overwrites the whole page.
                        let mut w = guard.write();
                        w.fill(0);
                        w[7] = v;
                    }
                    drop(guard);
                    model.insert(pid, v);
                    lru.pin(pid, false);
                    lru.unpin(pid);
                }
                Op::Read(which) => {
                    if pids.is_empty() { continue; }
                    let pid = pids[which as usize % pids.len()];
                    let guard = pool.fetch(pid).unwrap();
                    let got = guard.read()[7];
                    prop_assert_eq!(got, model[&pid], "page {} corrupted", pid);
                    lru.pin(pid, true);
                    lru.unpin(pid);
                }
                Op::Pin(which) => {
                    if pids.is_empty() { continue; }
                    let pid = pids[which as usize % pids.len()];
                    pinned.push(pool.fetch(pid).unwrap());
                    lru.pin(pid, true);
                }
                Op::Unpin => {
                    if !pinned.is_empty() {
                        lru.unpin(pinned.remove(0).pid());
                    }
                }
                Op::Flush => pool.flush_all().unwrap(),
                Op::EvictAll => {
                    pool.evict_all().unwrap();
                    lru.unpinned.clear();
                }
                Op::SetCapacity(c) => {
                    pool.set_capacity(c as usize).unwrap();
                    lru.set_capacity(c as usize);
                }
            }
            // Eviction order: the pool read the disk exactly when the
            // reference LRU says the page had been evicted.
            prop_assert_eq!(pool.stats().snapshot().reads, lru.misses,
                "pool and reference LRU disagree on a victim");
            prop_assert_eq!(pool.resident(), lru.pins.len() + lru.unpinned.len());
            // Conservation: fetches >= physical reads; pinned frames are
            // always resident and still serve fresh content.
            let snap = pool.stats().snapshot();
            prop_assert!(snap.fetches >= snap.reads);
            prop_assert!(pool.resident() >= distinct_pids(&pinned));
            for guard in &pinned {
                prop_assert_eq!(guard.read()[7], model[&guard.pid()],
                    "pinned page {} corrupted", guard.pid());
            }
        }
        // Final audit: every page readable with the right content, even
        // while some frames are still pinned.
        for (&pid, &v) in &model {
            let guard = pool.fetch(pid).unwrap();
            prop_assert_eq!(guard.read()[7], v);
        }
        // Dropping the pins and evicting everything: the disk alone must
        // hold the truth (pinned frames were flushed, not lost).
        pool.evict_all().unwrap();
        drop(pinned);
        pool.evict_all().unwrap();
        prop_assert_eq!(pool.resident(), 0);
        for (&pid, &v) in &model {
            let guard = pool.fetch(pid).unwrap();
            prop_assert_eq!(guard.read()[7], v, "page {} lost after evict_all", pid);
        }
    }

    #[test]
    fn capacity_is_respected_when_unpinned(
        cap in 0usize..6,
        n in 1usize..30,
    ) {
        let pool = BufferPool::new(
            Arc::new(MemDisk::new(128)),
            PoolConfig { capacity: cap },
        );
        for _ in 0..n {
            let (_pid, guard) = pool.new_page().unwrap();
            drop(guard);
        }
        prop_assert!(pool.resident() <= cap, "resident {} > capacity {}", pool.resident(), cap);
    }
}

/// Page ids index the pool's slot table directly, but the table is not a
/// frame array: touching one page at the far end of a large file makes one
/// frame, and ids beyond `u16` are not truncated on the way.
#[test]
fn far_page_of_a_large_file_costs_one_frame() {
    let disk = Arc::new(MemDisk::new(64));
    for _ in 0..70_000 {
        disk.allocate().unwrap();
    }
    let mut tail = vec![0u8; 64];
    tail[3] = 0xEE;
    disk.write(69_999, &tail).unwrap();
    let pool = BufferPool::new(disk, PoolConfig::default());
    let page = pool.fetch(69_999).unwrap();
    assert_eq!(page.read()[3], 0xEE);
    assert_eq!(page.pid(), 69_999);
    assert_eq!(pool.resident(), 1);
    assert_eq!(pool.pinned_frames(), 1);
    drop(page);
    assert_eq!(pool.stats().snapshot().reads, 1);
    assert_eq!(pool.resident(), 1);
}
