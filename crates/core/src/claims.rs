//! Leaf claims: the paper's per-leaf locking bits.
//!
//! The paper runs its throughput study under Dynamic Granular Locking
//! (Chakrabarti & Mehrotra, ICDE 1998), which associates "each entry in
//! the direct access table and the bit vector with 3 locking bits". The
//! shared write path needs one of them: a batch *claims* every leaf it
//! touches, exclusively, for the batch's whole trip (plan, execute,
//! commit). A claim is one bit in a table indexed by page id (page ids
//! are dense): claiming is one `fetch_or`, releasing one `fetch_and`.
//!
//! Claims are only ever *tried*, never waited for: a batch that meets a
//! claim already held escalates at that op, as it does at any op it
//! cannot plan, which keeps claims out of every wait-for cycle.
//! Whole-tree exclusion is not a claim; it is the `Bur` handle's
//! structure lock, under whose read side claims are taken.
//!
//! The table grows only through `&mut` — under the structure lock's
//! write side, where every tree page is allocated — so a claim never
//! races a resize. A page id past the end is not claimable either.

use bur_storage::PageId;
use std::sync::atomic::{AtomicU64, Ordering};

/// The claim bits, one per page id.
#[derive(Default)]
pub(crate) struct LeafClaims {
    words: Vec<AtomicU64>,
}

impl LeafClaims {
    /// A table covering page ids below `pages`.
    pub(crate) fn covering(pages: usize) -> Self {
        let mut claims = Self::default();
        claims.cover(pages);
        claims
    }

    /// Grow the table to cover page ids below `pages` (never shrinks;
    /// held claims keep their bits).
    pub(crate) fn cover(&mut self, pages: usize) {
        let words = pages.div_ceil(64);
        if words > self.words.len() {
            self.words.resize_with(words, AtomicU64::default);
        }
    }

    /// The word holding `pid`'s bit, and the bit.
    fn slot(&self, pid: PageId) -> Option<(&AtomicU64, u64)> {
        let word = self.words.get(pid as usize / 64)?;
        Some((word, 1 << (pid % 64)))
    }

    /// Claim leaf `pid` without waiting; `false` when another batch
    /// holds it or the table does not cover it. On `true` the caller
    /// owes the [`LeafClaims::release`]. The claim's `Acquire` pairs
    /// with the previous holder's `Release`, so the new holder sees
    /// everything written under the old claim.
    pub(crate) fn claim(&self, pid: PageId) -> bool {
        self.slot(pid)
            .is_some_and(|(word, bit)| word.fetch_or(bit, Ordering::Acquire) & bit == 0)
    }

    /// Claim leaf `pid` without waiting, released when the guard drops.
    /// (The guard is built only on success: a refused one would release
    /// the holder's claim when it dropped.)
    pub(crate) fn try_claim(&self, pid: PageId) -> Option<LeafClaim<'_>> {
        self.claim(pid).then(|| LeafClaim { claims: self, pid })
    }

    /// Clear `pid`'s bit: the release half of a claim.
    pub(crate) fn release(&self, pid: PageId) {
        if let Some((word, bit)) = self.slot(pid) {
            word.fetch_and(!bit, Ordering::Release);
        }
    }

    /// Number of leaves claimed right now (diagnostics: `Relaxed`, it
    /// publishes nothing).
    pub(crate) fn claimed(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// One held claim; released on drop.
pub(crate) struct LeafClaim<'a> {
    claims: &'a LeafClaims,
    pid: PageId,
}

impl Drop for LeafClaim<'_> {
    fn drop(&mut self) {
        self.claims.release(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn exclusive_conflicts() {
        let c = LeafClaims::covering(128);
        let _x = c.try_claim(1).unwrap();
        assert!(c.try_claim(1).is_none());
        assert_eq!(c.claimed(), 1, "a refused claim keeps the holder's bit");
        // A different leaf, in the same word or another, is independent.
        assert!(c.try_claim(2).is_some());
        assert!(c.try_claim(65).is_some());
    }

    #[test]
    fn release_frees_the_table_entry() {
        let c = LeafClaims::covering(16);
        let x = c.try_claim(9).unwrap();
        assert_eq!(c.claimed(), 1);
        drop(x);
        assert_eq!(c.claimed(), 0);
        let again = c.try_claim(9).unwrap();
        assert_eq!(c.claimed(), 1);
        drop(again);
        assert_eq!(c.claimed(), 0);
    }

    #[test]
    fn a_page_past_the_end_is_refused_without_panicking() {
        let mut c = LeafClaims::covering(64);
        assert!(c.try_claim(64).is_none());
        assert!(c.try_claim(PageId::MAX).is_none());
        c.release(PageId::MAX);
        assert_eq!(c.claimed(), 0);
        // Growing keeps a held claim and makes the new ids claimable.
        assert!(c.claim(3));
        c.cover(65);
        assert!(c.try_claim(3).is_none());
        assert!(c.try_claim(64).is_some());
    }

    #[test]
    fn stress_mutual_exclusion_invariant() {
        // Many threads hammer a few leaves; a per-leaf counter
        // incremented under the claim must never lose an increment.
        fn acquire(c: &LeafClaims, pid: PageId) -> LeafClaim<'_> {
            loop {
                match c.try_claim(pid) {
                    Some(claim) => return claim,
                    None => std::thread::yield_now(),
                }
            }
        }
        let c = LeafClaims::covering(4);
        let counters: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let (c, counters) = (&c, &counters);
                s.spawn(move || {
                    for i in 0..100 {
                        let pid = ((t * 31 + i * 7) % 4) as PageId;
                        let _x = acquire(c, pid);
                        let counter = &counters[pid as usize];
                        let v = counter.load(Ordering::Relaxed);
                        std::thread::yield_now();
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Every claimed section incremented exactly once.
        let total: usize = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 8 * 100);
        assert_eq!(c.claimed(), 0);
    }
}
