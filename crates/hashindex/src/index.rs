//! Litwin linear hashing over buffer-pool pages.

use crate::bucket::{capacity, BucketView, BucketViewMut};
use crate::{mix, Key, Value};
use bur_storage::{
    read_chain, write_chain, BufferPool, PageId, PageRef, StorageError, StorageResult,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Tuning knobs for [`LinearHashIndex`].
#[derive(Debug, Clone, Copy)]
pub struct HashIndexConfig {
    /// Number of buckets at level 0. Must be a power of two.
    pub initial_buckets: usize,
    /// Split when `entries / (buckets * bucket_capacity)` exceeds this.
    pub max_load: f64,
}

impl Default for HashIndexConfig {
    fn default() -> Self {
        Self {
            initial_buckets: 4,
            max_load: 0.75,
        }
    }
}

struct State {
    /// Primary page of every bucket; index is the bucket number.
    buckets: Vec<PageId>,
    /// Current doubling round.
    level: u32,
    /// Next bucket to split in this round.
    next: usize,
    /// Total entries stored.
    entries: usize,
    /// Buckets at level 0.
    initial: usize,
    /// Pages released by collapsed overflow chains or handed over at
    /// creation, reused before allocating fresh pages (the disk itself is
    /// append-only).
    free_pages: Vec<PageId>,
    /// Overflow pages currently in use (for space accounting).
    overflow_pages: usize,
    /// Pages owned by the persisted directory chain (plus spares from
    /// chains that shrank). [`LinearHashIndex::persist`] recycles them for
    /// the next chain instead of allocating a fresh run every time, so
    /// repeated checkpoints of a durable index no longer leak a
    /// directory's worth of pages each.
    chain: Vec<PageId>,
}

impl State {
    /// Bucket number for a key under the current split state.
    fn bucket_of(&self, key: Key) -> usize {
        let h = mix(key) as usize;
        let n_low = self.initial << self.level;
        let b = h & (n_low - 1);
        if b < self.next {
            h & (2 * n_low - 1)
        } else {
            b
        }
    }
}

/// A linear-hash index `object id → page id` stored in buffer-pool pages.
///
/// All probes and maintenance go through the shared [`BufferPool`], so the
/// index contributes to (and is measured by) the same physical-I/O
/// counters as the R-tree it serves. See the crate docs for the role this
/// plays in the paper's cost model.
///
/// ```
/// use bur_hashindex::{HashIndexConfig, LinearHashIndex};
/// use bur_storage::{BufferPool, MemDisk, PoolConfig};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::new(
///     Arc::new(MemDisk::new(1024)),
///     PoolConfig { capacity: 32 },
/// ));
/// let index = LinearHashIndex::create(pool, HashIndexConfig::default()).unwrap();
/// index.insert(42, 7).unwrap();          // object 42 lives on page 7
/// assert_eq!(index.get(42).unwrap(), Some(7));
/// index.insert(42, 9).unwrap();          // it moved to page 9
/// assert_eq!(index.get(42).unwrap(), Some(9));
/// assert_eq!(index.remove(42).unwrap(), Some(9));
/// ```
pub struct LinearHashIndex {
    pool: Arc<BufferPool>,
    config: HashIndexConfig,
    state: Mutex<State>,
}

impl LinearHashIndex {
    /// Create an empty index, allocating its initial bucket pages.
    pub fn create(pool: Arc<BufferPool>, config: HashIndexConfig) -> StorageResult<Self> {
        Self::create_reusing(pool, config, Vec::new())
    }

    /// [`LinearHashIndex::create`] over `reuse`, pages of the disk that
    /// nothing owns: the first directory chain, the initial buckets and
    /// every later bucket or overflow page come from them, lowest id
    /// first, before the disk grows. Their contents are never trusted:
    /// each is cleared when drawn. An index rebuilt over an existing
    /// file takes the pages of the one it replaces this way.
    pub fn create_reusing(
        pool: Arc<BufferPool>,
        config: HashIndexConfig,
        mut reuse: Vec<PageId>,
    ) -> StorageResult<Self> {
        assert!(
            config.initial_buckets.is_power_of_two(),
            "initial_buckets must be a power of two"
        );
        // Descending, so `pop` draws the lowest id.
        reuse.sort_unstable_by(|a, b| b.cmp(a));
        // The directory chain's spares: enough pages for a directory that
        // names every reused page (40 bytes of header, 4 per page), less
        // a generous chain-page header.
        let directory = 40 + 4 * reuse.len();
        let chain_pages = if reuse.is_empty() {
            0
        } else {
            let per_page = pool.page_size().saturating_sub(16).max(1);
            directory.div_ceil(per_page).min(reuse.len())
        };
        let chain = reuse.split_off(reuse.len() - chain_pages);
        let index = Self {
            pool,
            config,
            state: Mutex::new(State {
                buckets: Vec::with_capacity(config.initial_buckets),
                level: 0,
                next: 0,
                entries: 0,
                initial: config.initial_buckets,
                free_pages: reuse,
                overflow_pages: 0,
                chain,
            }),
        };
        {
            let mut state = index.state.lock();
            for _ in 0..config.initial_buckets {
                let (pid, _page) = index.alloc_bucket_page(&mut state)?;
                state.buckets.push(pid);
            }
        }
        Ok(index)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().entries
    }

    /// `true` when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pages used (primary buckets + overflow pages). The
    /// experiments size the buffer as a percentage of *all* data pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        let s = self.state.lock();
        s.buckets.len() + s.overflow_pages
    }

    /// Look up the page currently associated with `key`.
    pub fn get(&self, key: Key) -> StorageResult<Option<Value>> {
        Ok(self.probe(key)?.map(|p| p.value()))
    }

    /// Look up `key` and keep its bucket page pinned with the slot
    /// remembered, so a caller that goes on to re-point the key
    /// ([`Probe::set`]) does not walk to the same page a second time.
    /// One fetch per chain page walked, like [`LinearHashIndex::get`];
    /// `None` (nothing stays pinned) when the key is absent.
    pub fn probe(&self, key: Key) -> StorageResult<Option<Probe<'_>>> {
        let state = self.state.lock();
        let mut pid = state.buckets[state.bucket_of(key)];
        loop {
            let page = self.pool.fetch(pid)?;
            let (found, next) = {
                let data = page.read();
                let view = BucketView(&data);
                (view.find(key), view.overflow())
            };
            if let Some((slot, value)) = found {
                return Ok(Some(Probe {
                    index: self,
                    page,
                    key,
                    slot,
                    value,
                }));
            }
            match next {
                Some(n) => pid = n,
                None => return Ok(None),
            }
        }
    }

    /// Insert or replace; returns the previous value when the key existed.
    pub fn insert(&self, key: Key, value: Value) -> StorageResult<Option<Value>> {
        self.insert_keeping(key, value, None)
    }

    /// [`LinearHashIndex::insert`] that, given `written`, hands it every
    /// page it writes — the key's bucket, an overflow page it appends,
    /// the pages of a bucket split it triggers — still pinned, instead of
    /// unpinning them: a durable caller logs the pages through those pins.
    pub fn insert_keeping<'a>(
        &'a self,
        key: Key,
        value: Value,
        mut written: Written<'_, 'a>,
    ) -> StorageResult<Option<Value>> {
        let mut state = self.state.lock();
        let bucket = state.bucket_of(key);
        let head = state.buckets[bucket];
        let replaced = self.chain_upsert(head, key, value, &mut state, &mut written)?;
        if replaced.is_none() {
            state.entries += 1;
            self.maybe_split(&mut state, &mut written)?;
        }
        Ok(replaced)
    }

    /// Remove a key; returns its value when present.
    pub fn remove(&self, key: Key) -> StorageResult<Option<Value>> {
        self.remove_keeping(key, None)
    }

    /// [`LinearHashIndex::remove`] that, given `written`, hands it the
    /// page it writes, still pinned (see
    /// [`LinearHashIndex::insert_keeping`]).
    pub fn remove_keeping<'a>(
        &'a self,
        key: Key,
        mut written: Written<'_, 'a>,
    ) -> StorageResult<Option<Value>> {
        let mut state = self.state.lock();
        let mut pid = state.buckets[state.bucket_of(key)];
        loop {
            let guard = self.pool.fetch(pid)?;
            let found = {
                let data = guard.read();
                BucketView(&data).find(key)
            };
            if let Some((i, v)) = found {
                BucketViewMut(&mut guard.write()).swap_remove(i);
                state.entries -= 1;
                hand_over(&mut written, guard);
                return Ok(Some(v));
            }
            let next = {
                let data = guard.read();
                BucketView(&data).overflow()
            };
            match next {
                Some(n) => pid = n,
                None => return Ok(None),
            }
        }
    }

    /// Visit every `(key, value)` pair (test/diagnostic helper; touches
    /// every page).
    pub fn for_each<F: FnMut(Key, Value)>(&self, mut f: F) -> StorageResult<()> {
        let state = self.state.lock();
        for &head in &state.buckets {
            let mut pid = Some(head);
            while let Some(p) = pid {
                let guard = self.pool.fetch(p)?;
                let data = guard.read();
                let view = BucketView(&data);
                for i in 0..view.count() {
                    let (k, v) = view.entry(i);
                    f(k, v);
                }
                pid = view.overflow();
            }
        }
        Ok(())
    }

    /// Insert into a chain, replacing an existing key or appending to the
    /// first page with room (allocating an overflow page when all full).
    /// Every chain page is fetched once: the first page with room stays
    /// pinned while the rest of the chain is searched for the key.
    fn chain_upsert<'a>(
        &'a self,
        head: PageId,
        key: Key,
        value: Value,
        state: &mut State,
        written: &mut Written<'_, 'a>,
    ) -> StorageResult<Option<Value>> {
        let cap = capacity(self.pool.page_size());
        let mut pid = head;
        let mut first_with_room: Option<PageRef<'_>> = None;
        loop {
            let guard = self.pool.fetch(pid)?;
            let (found, count, next) = {
                let data = guard.read();
                let view = BucketView(&data);
                (view.find(key), view.count(), view.overflow())
            };
            if let Some((i, old)) = found {
                BucketViewMut(&mut guard.write()).set_entry(i, key, value);
                hand_over(written, guard);
                return Ok(Some(old));
            }
            if let Some(n) = next {
                if count < cap && first_with_room.is_none() {
                    first_with_room = Some(guard);
                }
                pid = n;
                continue;
            }
            // End of the chain, key absent: place it.
            match first_with_room {
                Some(room) => {
                    BucketViewMut(&mut room.write()).push(key, value);
                    drop(guard);
                    hand_over(written, room);
                }
                None if count < cap => {
                    BucketViewMut(&mut guard.write()).push(key, value);
                    hand_over(written, guard);
                }
                None => {
                    // Chain full: append an overflow page.
                    let (new_pid, new_page) = self.alloc_bucket_page(state)?;
                    state.overflow_pages += 1;
                    BucketViewMut(&mut new_page.write()).push(key, value);
                    BucketViewMut(&mut guard.write()).set_overflow(Some(new_pid));
                    hand_over(written, new_page);
                    hand_over(written, guard);
                }
            }
            return Ok(None);
        }
    }

    /// Allocate an empty bucket/overflow page, reusing freed pages first;
    /// returned pinned.
    fn alloc_bucket_page(&self, state: &mut State) -> StorageResult<(PageId, PageRef<'_>)> {
        let (pid, page) = match state.free_pages.pop() {
            Some(pid) => (pid, self.pool.fetch(pid)?),
            None => self.pool.new_page()?,
        };
        BucketViewMut(&mut page.write()).clear();
        Ok((pid, page))
    }

    /// Split one bucket when over the configured load factor.
    fn maybe_split<'a>(
        &'a self,
        state: &mut State,
        written: &mut Written<'_, 'a>,
    ) -> StorageResult<()> {
        let cap = capacity(self.pool.page_size());
        let load = state.entries as f64 / (state.buckets.len() * cap) as f64;
        if load <= self.config.max_load {
            return Ok(());
        }
        // Collect the split bucket's whole chain.
        let split_bucket = state.next;
        let head = state.buckets[split_bucket];
        let mut entries: Vec<(Key, Value)> = Vec::new();
        let mut pid = Some(head);
        let mut chain_pages = Vec::new();
        // The primary page stays pinned: the redistribution appends to it.
        let mut primary = None;
        while let Some(p) = pid {
            chain_pages.push(p);
            let guard = self.pool.fetch(p)?;
            // Read the page out and empty it under one write latch: a
            // stale [`Probe`] on it then either wrote before the entries
            // were collected or finds an empty page and re-inserts — it
            // can never write into a page that has left the chain.
            let mut data = guard.write();
            let view = BucketView(&data);
            for i in 0..view.count() {
                entries.push(view.entry(i));
            }
            pid = view.overflow();
            BucketViewMut(&mut data).clear();
            drop(data);
            if primary.is_none() && !split_by_upsert() {
                primary = Some(guard);
            } else {
                hand_over(written, guard);
            }
        }
        // Release overflow pages (all but the primary) to the free list.
        for &p in &chain_pages[1..] {
            state.free_pages.push(p);
            state.overflow_pages -= 1;
        }
        // Create the image bucket.
        let (new_pid, new_page) = self.alloc_bucket_page(state)?;
        let new_bucket = state.buckets.len();
        state.buckets.push(new_pid);
        // Advance the split pointer *before* redistribution so that
        // bucket_of routes keys with the widened mask.
        let n_low = state.initial << state.level;
        state.next += 1;
        if state.next == n_low {
            state.level += 1;
            state.next = 0;
        }
        // Redistribute: each key lands in the old or the image bucket,
        // appended to that chain's tail page (the key cannot be in the
        // chain already: keys are unique and both chains start empty).
        let wide_mask = 2 * n_low - 1;
        #[cfg(test)]
        if split_by_upsert() {
            hand_over(written, new_page);
            let targets = [head, new_pid];
            return self.redistribute_by_upsert(
                entries,
                targets,
                split_bucket,
                wide_mask,
                state,
                written,
            );
        }
        let primary = primary.expect("a chain has a primary page");
        let mut chains = [Chain::new(primary), Chain::new(new_page)];
        let mut last = None;
        for (k, v) in entries {
            let target = usize::from((mix(k) as usize) & wide_mask != split_bucket);
            debug_assert!(target == 0 || (mix(k) as usize) & wide_mask == new_bucket);
            let chain = &mut chains[target];
            let tail = chain.pages.last().expect("a chain has a page");
            chain.overflowed = BucketView(&tail.read()).count() == cap;
            if chain.overflowed {
                let (new_pid, new_page) = self.alloc_bucket_page(state)?;
                state.overflow_pages += 1;
                BucketViewMut(&mut tail.write()).set_overflow(Some(new_pid));
                chain.pages.push(new_page);
            }
            let tail = chain.pages.last().expect("a chain has a page");
            BucketViewMut(&mut tail.write()).push(k, v);
            last = Some(target);
        }
        // Hand the pages over in the order an upsert per entry would have
        // last let go of them — the chain the last key did not go to
        // first, each chain head to tail, except that a chain whose last
        // key opened an overflow page let go of that page before its old
        // tail — so the pool's recency order comes out the same.
        let [primary, image] = chains;
        let order = if last == Some(0) {
            [image, primary]
        } else {
            [primary, image]
        };
        for chain in order {
            chain.hand_over(written);
        }
        Ok(())
    }

    /// [`LinearHashIndex::maybe_split`]'s redistribution as it was first
    /// written: every entry goes through [`LinearHashIndex::chain_upsert`],
    /// which walks the target chain from its head. The reference the
    /// one-pass split is compared against.
    #[cfg(test)]
    fn redistribute_by_upsert<'a>(
        &'a self,
        entries: Vec<(Key, Value)>,
        targets: [PageId; 2],
        split_bucket: usize,
        wide_mask: usize,
        state: &mut State,
        written: &mut Written<'_, 'a>,
    ) -> StorageResult<()> {
        for (k, v) in entries {
            let target = targets[usize::from((mix(k) as usize) & wide_mask != split_bucket)];
            let prev = self.chain_upsert(target, k, v, state, written)?;
            debug_assert!(prev.is_none());
        }
        Ok(())
    }

    // ---- persistence ----------------------------------------------------

    /// Serialize the in-memory directory into a chain of pages; returns
    /// the head page id. Call after quiescing writers; bucket pages are
    /// already on disk once the pool is flushed.
    ///
    /// The previous chain's pages are recycled for the new chain (the old
    /// chain is superseded the moment this returns), so repeated persists
    /// keep the directory's page footprint flat instead of leaking one
    /// chain per call.
    pub fn persist(&self) -> StorageResult<PageId> {
        let mut state = self.state.lock();
        let mut payload = Vec::new();
        payload.extend_from_slice(&state.level.to_le_bytes());
        payload.extend_from_slice(&(state.next as u64).to_le_bytes());
        payload.extend_from_slice(&(state.entries as u64).to_le_bytes());
        payload.extend_from_slice(&(state.initial as u32).to_le_bytes());
        payload.extend_from_slice(&(state.overflow_pages as u64).to_le_bytes());
        payload.extend_from_slice(&(state.buckets.len() as u32).to_le_bytes());
        for &b in &state.buckets {
            payload.extend_from_slice(&b.to_le_bytes());
        }
        payload.extend_from_slice(&(state.free_pages.len() as u32).to_le_bytes());
        for &p in &state.free_pages {
            payload.extend_from_slice(&p.to_le_bytes());
        }
        // The old chain (and any spares from earlier shrinks) is the
        // allocation pool for the new one; after the write it holds the
        // live chain and the leftover spares, neither of which may be
        // handed out as bucket pages.
        write_chain(&self.pool, None, &payload, &mut state.chain)
    }

    /// Reload an index persisted with [`LinearHashIndex::persist`]. A
    /// directory that does not decode is [`StorageError::Corrupt`].
    pub fn load(
        pool: Arc<BufferPool>,
        config: HashIndexConfig,
        head: PageId,
    ) -> StorageResult<Self> {
        let (payload, chain) = read_chain(&pool, head)?;
        Ok(Self {
            pool,
            config,
            state: Mutex::new(decode_directory(&payload, chain)?),
        })
    }
}

/// Decode a directory payload written by [`LinearHashIndex::persist`],
/// trusting none of its bytes: every count is checked against the bytes
/// left before anything is allocated, and the split state must be one
/// [`State::bucket_of`] can route keys with.
fn decode_directory(payload: &[u8], chain: Vec<PageId>) -> StorageResult<State> {
    let mut cur = Cursor(payload);
    let level = cur.u32()?;
    let next = cur.u64()?;
    let entries = cur.u64()?;
    let initial = cur.u32()?;
    let overflow_pages = cur.u64()?;
    let buckets = cur.pages()?;
    let free_pages = cur.pages()?;
    if !cur.0.is_empty() {
        return Err(StorageError::Corrupt("hash directory has trailing bytes"));
    }
    if !initial.is_power_of_two() || level >= 32 {
        return Err(StorageError::Corrupt(
            "hash directory split state is invalid",
        ));
    }
    // Buckets below the split pointer have their image: `initial << level`
    // plus `next` of them, and the pointer stays inside the round.
    let n_low = u64::from(initial) << level;
    if next >= n_low || n_low + next != buckets.len() as u64 {
        return Err(StorageError::Corrupt(
            "hash directory bucket count does not match its split state",
        ));
    }
    let corrupt_count = || StorageError::Corrupt("hash directory count overflows");
    Ok(State {
        buckets,
        level,
        next: usize::try_from(next).map_err(|_| corrupt_count())?,
        entries: usize::try_from(entries).map_err(|_| corrupt_count())?,
        initial: initial as usize,
        free_pages,
        overflow_pages: usize::try_from(overflow_pages).map_err(|_| corrupt_count())?,
        chain,
    })
}

/// Where a write leaves the pages it dirtied: `None` unpins each one
/// where the write lets go of it; `Some` hands it to the caller, still
/// pinned.
pub type Written<'w, 'a> = Option<&'w mut Vec<PageRef<'a>>>;

/// Whether splits redistribute through the test-only reference
/// ([`LinearHashIndex::redistribute_by_upsert`]).
#[cfg(test)]
fn split_by_upsert() -> bool {
    tests::SPLIT_BY_UPSERT.with(std::cell::Cell::get)
}

#[cfg(not(test))]
fn split_by_upsert() -> bool {
    false
}

/// One chain a split redistributes into: its pages, head first, all
/// kept pinned until the split hands them over.
struct Chain<'a> {
    pages: Vec<PageRef<'a>>,
    /// The last key appended opened a new overflow page.
    overflowed: bool,
}

impl<'a> Chain<'a> {
    fn new(head: PageRef<'a>) -> Self {
        Self {
            pages: vec![head],
            overflowed: false,
        }
    }

    /// Hand every page over, head to tail, the newest overflow page
    /// before the tail it was appended to when the last key opened it.
    fn hand_over(mut self, written: &mut Written<'_, 'a>) {
        let n = self.pages.len();
        if self.overflowed {
            self.pages.swap(n - 2, n - 1);
        }
        for page in self.pages {
            hand_over(written, page);
        }
    }
}

fn hand_over<'a>(written: &mut Written<'_, 'a>, page: PageRef<'a>) {
    if let Some(w) = written {
        w.push(page);
    }
}

/// A key found by [`LinearHashIndex::probe`]: its bucket page, still
/// pinned, and the slot the entry sits in. Holding one blocks nobody (a
/// pin is not a latch); the slot is re-checked before it is written.
pub struct Probe<'a> {
    index: &'a LinearHashIndex,
    page: PageRef<'a>,
    key: Key,
    slot: usize,
    value: Value,
}

impl<'a> Probe<'a> {
    /// The value found by the probe.
    #[must_use]
    pub fn value(&self) -> Value {
        self.value
    }

    /// Re-point the key at `value` through the pinned page: no fetch.
    /// The slot is checked under the page's write latch first — a remove
    /// or a bucket split since the probe may have moved the entry — and a
    /// probe gone stale falls back to [`LinearHashIndex::insert`].
    pub fn set(self, value: Value) -> StorageResult<()> {
        self.set_keeping(value, None)
    }

    /// [`Probe::set`] that, given `written`, hands it the probe's page —
    /// written either way: the write latch marks it — and whatever a
    /// stale probe's upsert writes, still pinned (see
    /// [`LinearHashIndex::insert_keeping`]).
    pub fn set_keeping(self, value: Value, mut written: Written<'_, 'a>) -> StorageResult<()> {
        let Probe {
            index,
            page,
            key,
            slot,
            ..
        } = self;
        let in_place = {
            let mut data = page.write();
            let view = BucketView(&data);
            let found = slot < view.count() && view.entry(slot).0 == key;
            if found {
                BucketViewMut(&mut data).set_entry(slot, key, value);
            }
            found
        };
        if in_place {
            hand_over(&mut written, page);
            return Ok(());
        }
        let upserted = index.insert_keeping(key, value, written.as_deref_mut());
        hand_over(&mut written, page);
        upserted.map(|_| ())
    }
}

/// Bounds-checked little-endian payload reader for
/// [`LinearHashIndex::load`]: the bytes not read yet.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> StorageResult<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(StorageError::Corrupt("hash directory is truncated"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// A count-prefixed list of page ids; the count is held against the
    /// bytes left before the list is allocated.
    fn pages(&mut self) -> StorageResult<Vec<PageId>> {
        let n = self.u32()? as usize;
        if n > self.0.len() / 4 {
            return Err(StorageError::Corrupt("hash directory is truncated"));
        }
        (0..n).map(|_| self.u32()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_storage::{MemDisk, PoolConfig};
    use std::cell::Cell;

    thread_local! {
        /// Splits on this thread go through the reference redistribution.
        pub(super) static SPLIT_BY_UPSERT: Cell<bool> = const { Cell::new(false) };
    }

    fn make_pool(page_size: usize, capacity: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(MemDisk::new(page_size)),
            PoolConfig { capacity },
        ))
    }

    /// Insert `keys` into a fresh index on a pool of `capacity` frames,
    /// splitting through the reference when `by_upsert`. Returns the
    /// index, its pool, and for every split the fetches it cost and the
    /// pages of the chain it split.
    fn load_splitting(
        keys: impl Iterator<Item = u64>,
        capacity: usize,
        by_upsert: bool,
    ) -> (LinearHashIndex, Arc<BufferPool>, Vec<(u64, u64)>) {
        SPLIT_BY_UPSERT.with(|c| c.set(by_upsert));
        let pool = make_pool(1024, capacity);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        let mut splits = Vec::new();
        for k in keys {
            let mut state = idx.state.lock();
            let head = state.buckets[state.bucket_of(k)];
            let prev = idx.chain_upsert(head, k, k as u32, &mut state, &mut None);
            assert_eq!(prev.unwrap(), None);
            state.entries += 1;
            let mut chain = 0;
            let mut pid = Some(state.buckets[state.next]);
            while let Some(p) = pid {
                chain += 1;
                pid = pool
                    .with_page_read(p, |b| BucketView(b).overflow())
                    .unwrap();
            }
            let (buckets, before) = (state.buckets.len(), fetches(&pool));
            idx.maybe_split(&mut state, &mut None).unwrap();
            if state.buckets.len() > buckets {
                splits.push((fetches(&pool) - before, chain));
            }
        }
        SPLIT_BY_UPSERT.with(|c| c.set(false));
        (idx, pool, splits)
    }

    /// The one-pass split leaves every page, the directory and the pool's
    /// physical traffic exactly as an upsert per entry does, at a fetch
    /// per page it touches: the chain it splits plus at most two.
    #[test]
    fn a_one_pass_split_matches_the_upsert_reference() {
        for capacity in [12, 4_096] {
            let keys = || (0..20_000u64).map(|k| k.wrapping_mul(0x9E37_79B9));
            let (reference, ref_pool, ref_splits) = load_splitting(keys(), capacity, true);
            let (one_pass, pool, splits) = load_splitting(keys(), capacity, false);
            assert_eq!(splits.len(), ref_splits.len());
            assert!(splits.len() > 200, "{} splits", splits.len());
            for &(fetched, chain) in &splits {
                assert!(
                    fetched <= chain + 2,
                    "{fetched} fetches splitting {chain} pages"
                );
            }
            let (one, all): (u64, u64) = (
                splits.iter().map(|s| s.0).sum(),
                ref_splits.iter().map(|s| s.0).sum(),
            );
            assert!(one * 10 < all, "{one} fetches against {all}");
            let (stats, ref_stats) = (pool.stats().snapshot(), ref_pool.stats().snapshot());
            assert_eq!(
                (stats.reads, stats.writes),
                (ref_stats.reads, ref_stats.writes),
                "capacity {capacity}: the same physical traffic"
            );
            {
                let (a, b) = (one_pass.state.lock(), reference.state.lock());
                assert_eq!(a.buckets, b.buckets);
                assert_eq!(a.free_pages, b.free_pages);
                assert_eq!(
                    (a.level, a.next, a.entries, a.overflow_pages),
                    (b.level, b.next, b.entries, b.overflow_pages)
                );
            }
            for pid in 0..pool.disk().num_pages() as PageId {
                let page = pool.with_page_read(pid, <[u8]>::to_vec).unwrap();
                let ref_page = ref_pool.with_page_read(pid, <[u8]>::to_vec).unwrap();
                assert_eq!(page, ref_page, "page {pid}");
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let idx = LinearHashIndex::create(make_pool(256, 64), HashIndexConfig::default()).unwrap();
        assert!(idx.is_empty());
        assert_eq!(idx.insert(1, 100).unwrap(), None);
        assert_eq!(idx.insert(2, 200).unwrap(), None);
        assert_eq!(idx.get(1).unwrap(), Some(100));
        assert_eq!(idx.get(2).unwrap(), Some(200));
        assert_eq!(idx.get(3).unwrap(), None);
        assert_eq!(idx.insert(1, 101).unwrap(), Some(100), "upsert replaces");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove(1).unwrap(), Some(101));
        assert_eq!(idx.remove(1).unwrap(), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn growth_through_many_splits() {
        let idx = LinearHashIndex::create(make_pool(128, 256), HashIndexConfig::default()).unwrap();
        let n = 5_000u64;
        for k in 0..n {
            idx.insert(k, (k * 3) as u32).unwrap();
        }
        assert_eq!(idx.len(), n as usize);
        for k in 0..n {
            assert_eq!(idx.get(k).unwrap(), Some((k * 3) as u32), "key {k}");
        }
        assert_eq!(idx.get(n + 1).unwrap(), None);
        // Page 128 holds 10 entries; 5000 entries need >= 500 pages.
        assert!(idx.page_count() >= 500, "got {}", idx.page_count());
    }

    #[test]
    fn delete_heavy_then_reinsert() {
        let idx = LinearHashIndex::create(make_pool(128, 256), HashIndexConfig::default()).unwrap();
        for k in 0..2_000u64 {
            idx.insert(k, k as u32).unwrap();
        }
        for k in 0..2_000u64 {
            if k % 2 == 0 {
                assert_eq!(idx.remove(k).unwrap(), Some(k as u32));
            }
        }
        assert_eq!(idx.len(), 1_000);
        for k in 0..2_000u64 {
            let expect = (k % 2 == 1).then_some(k as u32);
            assert_eq!(idx.get(k).unwrap(), expect);
        }
        for k in 0..2_000u64 {
            idx.insert(k, (k + 7) as u32).unwrap();
        }
        assert_eq!(idx.len(), 2_000);
        for k in 0..2_000u64 {
            assert_eq!(idx.get(k).unwrap(), Some((k + 7) as u32));
        }
    }

    #[test]
    fn for_each_sees_everything_once() {
        let idx = LinearHashIndex::create(make_pool(128, 64), HashIndexConfig::default()).unwrap();
        for k in 0..500u64 {
            idx.insert(k, k as u32).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        idx.for_each(|k, v| {
            assert!(seen.insert(k, v).is_none(), "duplicate key {k}");
        })
        .unwrap();
        assert_eq!(seen.len(), 500);
        for k in 0..500u64 {
            assert_eq!(seen[&k], k as u32);
        }
    }

    #[test]
    fn cold_probe_costs_about_one_read() {
        let pool = make_pool(1024, 1024);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..20_000u64 {
            idx.insert(k, k as u32).unwrap();
        }
        pool.evict_all().unwrap();
        pool.set_capacity(0).unwrap(); // no caching: every probe is cold
        let before = pool.stats().snapshot();
        let probes = 500;
        for k in 0..probes {
            idx.get(k * 37 % 20_000).unwrap();
        }
        let d = pool.stats().snapshot().since(&before);
        let per_probe = d.reads as f64 / probes as f64;
        // One primary bucket read, occasionally one overflow page.
        assert!(
            (1.0..1.5).contains(&per_probe),
            "expected ~1 read per cold probe, got {per_probe}"
        );
    }

    fn fetches(pool: &BufferPool) -> u64 {
        pool.stats().snapshot().fetches
    }

    #[test]
    fn probe_is_one_fetch_and_set_is_none() {
        let pool = make_pool(1024, 64);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..40u64 {
            idx.insert(k, k as u32).unwrap();
        }
        // 40 keys in four 84-entry buckets: every chain is one page.
        assert_eq!(idx.page_count(), 4);
        let before = fetches(&pool);
        let probe = idx.probe(17).unwrap().expect("present");
        assert_eq!(probe.value(), 17);
        assert_eq!(fetches(&pool) - before, 1, "probe");
        assert_eq!(pool.pinned_frames(), 1, "the bucket stays pinned");
        probe.set(99).unwrap();
        assert_eq!(
            fetches(&pool) - before,
            1,
            "set goes through the probe's pin"
        );
        assert_eq!(pool.pinned_frames(), 0);
        assert_eq!(idx.get(17).unwrap(), Some(99));
        assert_eq!(idx.len(), 40);

        let before = fetches(&pool);
        assert!(idx.probe(1_000).unwrap().is_none());
        assert_eq!(pool.pinned_frames(), 0, "a miss pins nothing");
        assert_eq!(fetches(&pool) - before, 1);

        let before = fetches(&pool);
        idx.insert(1_000, 5).unwrap();
        assert_eq!(fetches(&pool) - before, 1, "new key, one-page chain");
    }

    #[test]
    fn upsert_fetches_each_chain_page_once() {
        // 10-entry pages and no splitting: a three-page chain per bucket.
        let pool = make_pool(128, 64);
        let config = HashIndexConfig {
            initial_buckets: 1,
            max_load: 100.0,
        };
        let idx = LinearHashIndex::create(pool.clone(), config).unwrap();
        for k in 0..25u64 {
            idx.insert(k, 1).unwrap();
        }
        assert_eq!(idx.page_count(), 3);
        let before = fetches(&pool);
        idx.insert(25, 1).unwrap();
        assert_eq!(
            fetches(&pool) - before,
            3,
            "absent key: walk the chain once"
        );
        // A hole in the first page: the walk must still reach the end of
        // the chain (the key could sit further down) and then come back
        // to the first page with room through the pin it kept.
        idx.remove(0).unwrap();
        let before = fetches(&pool);
        idx.insert(26, 1).unwrap();
        assert_eq!(fetches(&pool) - before, 3);
        assert_eq!(idx.get(26).unwrap(), Some(1));
    }

    #[test]
    fn set_after_the_bucket_split_falls_back_to_an_upsert() {
        // 10-entry pages, four buckets, a split once 80 entries are in.
        let pool = make_pool(128, 256);
        let config = HashIndexConfig {
            initial_buckets: 4,
            max_load: 2.0,
        };
        let idx = LinearHashIndex::create(pool.clone(), config).unwrap();
        // Crowd bucket 0 (the first to split) into a five-page chain,
        // thin it out again, and probe what is left: slots in the primary
        // page and in overflow pages.
        let (crowd, others): (Vec<u64>, Vec<u64>) = (0..400u64).partition(|&k| mix(k) & 3 == 0);
        for &k in &crowd[..45] {
            idx.insert(k, 1).unwrap();
        }
        assert_eq!(idx.page_count(), 4 + 4, "bucket 0 should chain five pages");
        for &k in &crowd[..30] {
            idx.remove(k).unwrap();
        }
        let probes: Vec<_> = crowd[30..45]
            .iter()
            .map(|&k| (k, idx.probe(k).unwrap().expect("present")))
            .collect();
        // The 81st entry splits bucket 0: its 15 keys now fit two primary
        // pages, so overflow pages the probes still pin leave the chain.
        for &k in &others[..66] {
            idx.insert(k, 2).unwrap();
        }
        assert_eq!(idx.len(), 81);
        for (i, (k, probe)) in probes.into_iter().enumerate() {
            probe.set(100 + i as u32).unwrap();
            assert_eq!(idx.get(k).unwrap(), Some(100 + i as u32), "key {k}");
        }
        assert_eq!(idx.len(), 81, "a stale set must not duplicate its key");
        // Nothing else was overwritten, and no key exists twice.
        let mut seen = std::collections::HashMap::new();
        idx.for_each(|k, v| assert!(seen.insert(k, v).is_none(), "duplicate key {k}"))
            .unwrap();
        assert_eq!(seen.len(), 81);
        for k in &others[..66] {
            assert_eq!(seen[k], 2);
        }
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let pool = make_pool(256, 256);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..3_000u64 {
            idx.insert(k, (k * 11) as u32).unwrap();
        }
        let head = idx.persist().unwrap();
        pool.flush_all().unwrap();
        drop(idx);
        let idx2 = LinearHashIndex::load(pool, HashIndexConfig::default(), head).unwrap();
        assert_eq!(idx2.len(), 3_000);
        for k in 0..3_000u64 {
            assert_eq!(idx2.get(k).unwrap(), Some((k * 11) as u32));
        }
        // The reloaded index must keep working (splits continue correctly).
        for k in 3_000..4_000u64 {
            idx2.insert(k, k as u32).unwrap();
        }
        for k in 0..4_000u64 {
            let expect = if k < 3_000 { (k * 11) as u32 } else { k as u32 };
            assert_eq!(idx2.get(k).unwrap(), Some(expect));
        }
    }

    #[test]
    fn repeated_persists_recycle_the_directory_chain() {
        let pool = make_pool(256, 256);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..3_000u64 {
            idx.insert(k, (k * 3) as u32).unwrap();
        }
        // First persist lays out the steady-state chain.
        let head0 = idx.persist().unwrap();
        let baseline = pool.disk().num_pages();
        let mut last_head = head0;
        for _ in 0..10 {
            last_head = idx.persist().unwrap();
        }
        assert_eq!(
            pool.disk().num_pages(),
            baseline,
            "superseded directory chains must be recycled, not leaked"
        );
        pool.flush_all().unwrap();
        // The recycled chain still loads correctly — including after a
        // reload (the chain pages are rediscovered by the walk).
        let idx2 =
            LinearHashIndex::load(pool.clone(), HashIndexConfig::default(), last_head).unwrap();
        assert_eq!(idx2.len(), 3_000);
        let head3 = idx2.persist().unwrap();
        assert_eq!(
            pool.disk().num_pages(),
            baseline,
            "recycling must survive a reload"
        );
        pool.flush_all().unwrap();
        let idx3 = LinearHashIndex::load(pool, HashIndexConfig::default(), head3).unwrap();
        for k in (0..3_000u64).step_by(97) {
            assert_eq!(idx3.get(k).unwrap(), Some((k * 3) as u32));
        }
    }

    /// An index created over the pages of the one it replaces, and a few
    /// blank ones a crashed writer allocated, draws its buckets, overflow
    /// pages and directory chain from them and grows the disk only once
    /// they are used up.
    #[test]
    fn an_index_over_reused_pages_grows_the_disk_only_past_them() {
        let pool = make_pool(256, 256);
        let old = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..3_000u64 {
            old.insert(k, k as u32).unwrap();
        }
        old.persist().unwrap();
        drop(old);
        for _ in 0..8 {
            pool.new_page().unwrap();
        }
        let pages = pool.disk().num_pages();
        let idx = LinearHashIndex::create_reusing(
            pool.clone(),
            HashIndexConfig::default(),
            (0..pages).collect(),
        )
        .unwrap();
        for k in 0..3_000u64 {
            idx.insert(k, (k * 7) as u32).unwrap();
        }
        let head = idx.persist().unwrap();
        assert_eq!(
            pool.disk().num_pages(),
            pages,
            "no page past the reused ones"
        );
        pool.flush_all().unwrap();
        let idx = LinearHashIndex::load(pool.clone(), HashIndexConfig::default(), head).unwrap();
        for k in 0..3_000u64 {
            assert_eq!(idx.get(k).unwrap(), Some((k * 7) as u32));
        }
        for k in 3_000..6_000u64 {
            idx.insert(k, k as u32).unwrap();
        }
        assert!(pool.disk().num_pages() > pages, "then the disk grows");
    }

    /// The directory payload of a 300-key index, as `persist` writes it.
    fn persisted_directory() -> Vec<u8> {
        let pool = make_pool(256, 256);
        let idx = LinearHashIndex::create(pool.clone(), HashIndexConfig::default()).unwrap();
        for k in 0..300u64 {
            idx.insert(k, k as u32).unwrap();
        }
        // Free an overflow page so both page lists are non-empty.
        let (crowd, _): (Vec<u64>, Vec<u64>) = (1_000..5_000u64).partition(|&k| mix(k) & 7 == 0);
        for &k in &crowd[..20] {
            idx.insert(k, 1).unwrap();
        }
        let head = idx.persist().unwrap();
        read_chain(&pool, head).unwrap().0
    }

    /// Load `payload` written as a directory chain.
    fn load(payload: &[u8]) -> StorageResult<LinearHashIndex> {
        let pool = make_pool(256, 16);
        let head = write_chain(&pool, None, payload, &mut Vec::new()).unwrap();
        LinearHashIndex::load(pool, HashIndexConfig::default(), head)
    }

    fn refused(payload: &[u8], what: &str) {
        match load(payload) {
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what}: loaded"),
        }
    }

    #[test]
    fn a_truncated_directory_is_refused_at_every_length() {
        let payload = persisted_directory();
        assert_eq!(load(&payload).unwrap().len(), 320);
        for len in 0..payload.len() {
            refused(
                &payload[..len],
                &format!("{len} of {} bytes", payload.len()),
            );
        }
        let mut longer = payload.clone();
        longer.push(0);
        refused(&longer, "a trailing byte");
    }

    #[test]
    fn a_directory_whose_counts_lie_is_refused() {
        let payload = persisted_directory();
        // level u32 @0, next u64 @4, entries u64 @12, initial u32 @20,
        // overflow u64 @24, bucket count u32 @32, buckets, free count u32.
        let n_buckets = u32::from_le_bytes(payload[32..36].try_into().unwrap()) as usize;
        let free_at = 36 + 4 * n_buckets;
        let level = u32::from_le_bytes(payload[0..4].try_into().unwrap());
        let set = |at: usize, bytes: &[u8]| {
            let mut p = payload.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        for (what, p) in [
            (
                "bucket count past the payload",
                set(32, &u32::MAX.to_le_bytes()),
            ),
            (
                "bucket count one up",
                set(32, &(n_buckets as u32 + 1).to_le_bytes()),
            ),
            (
                "bucket count one down",
                set(32, &(n_buckets as u32 - 1).to_le_bytes()),
            ),
            (
                "free count past the payload",
                set(free_at, &u32::MAX.to_le_bytes()),
            ),
            ("free count one up", set(free_at, &1_000u32.to_le_bytes())),
            ("initial 0", set(20, &0u32.to_le_bytes())),
            ("initial not a power of two", set(20, &6u32.to_le_bytes())),
            ("level at the word width", set(0, &64u32.to_le_bytes())),
            ("level one up", set(0, &(level + 1).to_le_bytes())),
            (
                "split pointer past the round",
                set(4, &u64::MAX.to_le_bytes()),
            ),
        ] {
            refused(&p, what);
        }
    }

    #[test]
    fn values_can_collide() {
        // Different keys mapping to the same value (many objects on one
        // leaf page) must coexist.
        let idx = LinearHashIndex::create(make_pool(128, 64), HashIndexConfig::default()).unwrap();
        for k in 0..100u64 {
            idx.insert(k, 7).unwrap();
        }
        assert_eq!(idx.len(), 100);
        for k in 0..100u64 {
            assert_eq!(idx.get(k).unwrap(), Some(7));
        }
    }
}
