//! An O(1) intrusive LRU list over page ids.
//!
//! The buffer pool keeps *unpinned* frames in this list: most recently
//! used at the front, eviction victims popped from the back. All three
//! operations (`push_front`, `remove`, `pop_back`) are O(1) and hash
//! nothing: page ids are dense, so the `prev`/`next` links live in the
//! pool's page-indexed slot table ([`Slot`]) and the list itself is a
//! head, a tail and a length. Membership is one flag bit in the slot, so
//! several lists (the eviction order, the pool's parked queue) can thread
//! through the same table as long as a page is on at most one of them.

use crate::pool::Slot;
use crate::{PageId, INVALID_PAGE};

/// Doubly-linked LRU queue of page ids, threaded through a slot table.
/// Every method takes the table its links live in; callers pass the same
/// one each time.
#[derive(Debug)]
pub(crate) struct LruList {
    /// Most recently used end; [`INVALID_PAGE`] when empty.
    head: PageId,
    /// Least recently used end; [`INVALID_PAGE`] when empty.
    tail: PageId,
    len: usize,
    /// The [`Slot::flags`] bit that marks a page as on this list.
    member: u8,
}

impl LruList {
    /// Empty list whose members carry the flag bit `member`.
    pub(crate) fn new(member: u8) -> Self {
        Self {
            head: INVALID_PAGE,
            tail: INVALID_PAGE,
            len: 0,
            member,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, slots: &[Slot], pid: PageId) -> bool {
        slots
            .get(pid as usize)
            .is_some_and(|s| s.flags & self.member != 0)
    }

    /// Insert `pid` as most-recently-used. Panics if already present
    /// (callers must `remove` first); this catches accounting bugs early.
    pub(crate) fn push_front(&mut self, slots: &mut [Slot], pid: PageId) {
        debug_assert!(!self.contains(slots, pid), "page {pid} already in LRU list");
        let old_head = self.head;
        let slot = &mut slots[pid as usize];
        slot.flags |= self.member;
        slot.prev = INVALID_PAGE;
        slot.next = old_head;
        if old_head == INVALID_PAGE {
            self.tail = pid;
        } else {
            slots[old_head as usize].prev = pid;
        }
        self.head = pid;
        self.len += 1;
    }

    /// Remove `pid` from the list; returns `false` when absent.
    pub(crate) fn remove(&mut self, slots: &mut [Slot], pid: PageId) -> bool {
        if !self.contains(slots, pid) {
            return false;
        }
        let slot = &mut slots[pid as usize];
        slot.flags &= !self.member;
        let (prev, next) = (slot.prev, slot.next);
        if prev == INVALID_PAGE {
            self.head = next;
        } else {
            slots[prev as usize].next = next;
        }
        if next == INVALID_PAGE {
            self.tail = prev;
        } else {
            slots[next as usize].prev = prev;
        }
        self.len -= 1;
        true
    }

    /// Pop the least-recently-used page id.
    pub(crate) fn pop_back(&mut self, slots: &mut [Slot]) -> Option<PageId> {
        let victim = self.tail;
        self.remove(slots, victim).then_some(victim)
    }

    /// Members from the least to the most recently used.
    pub(crate) fn iter_from_back<'a>(
        &self,
        slots: &'a [Slot],
    ) -> impl Iterator<Item = PageId> + 'a {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            let pid = cur;
            (pid != INVALID_PAGE).then(|| {
                cur = slots[pid as usize].prev;
                pid
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A list over pages `0..n` and the slot table its links live in.
    fn list(n: usize) -> (LruList, Vec<Slot>) {
        let mut slots = Vec::new();
        slots.resize_with(n, Slot::default);
        (LruList::new(crate::pool::IN_LRU), slots)
    }

    #[test]
    fn fifo_order_when_no_touches() {
        let (mut l, mut s) = list(32);
        for pid in 0..5 {
            l.push_front(&mut s, pid);
        }
        assert_eq!(l.len(), 5);
        // 0 was pushed first => least recently used.
        assert_eq!(l.pop_back(&mut s), Some(0));
        assert_eq!(l.pop_back(&mut s), Some(1));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_moves_to_front() {
        let (mut l, mut s) = list(32);
        for pid in 0..4 {
            l.push_front(&mut s, pid);
        }
        // Touch page 0: remove + re-push.
        assert!(l.remove(&mut s, 0));
        l.push_front(&mut s, 0);
        assert_eq!(l.pop_back(&mut s), Some(1));
        assert_eq!(l.pop_back(&mut s), Some(2));
        assert_eq!(l.pop_back(&mut s), Some(3));
        assert_eq!(l.pop_back(&mut s), Some(0));
        assert_eq!(l.pop_back(&mut s), None);
    }

    #[test]
    fn remove_middle_head_tail() {
        let (mut l, mut s) = list(32);
        for pid in 0..3 {
            l.push_front(&mut s, pid);
        }
        assert!(l.remove(&mut s, 1)); // middle
        assert!(l.remove(&mut s, 2)); // head
        assert!(l.remove(&mut s, 0)); // tail (and only element)
        assert_eq!(l.len(), 0);
        assert_eq!(l.pop_back(&mut s), None);
        assert!(!l.remove(&mut s, 7));
    }

    #[test]
    fn interleaved_operations() {
        let (mut l, mut s) = list(32);
        l.push_front(&mut s, 10);
        l.push_front(&mut s, 20);
        assert_eq!(l.pop_back(&mut s), Some(10));
        l.push_front(&mut s, 30);
        assert!(l.contains(&s, 20));
        assert!(l.contains(&s, 30));
        assert_eq!(l.pop_back(&mut s), Some(20));
        assert_eq!(l.pop_back(&mut s), Some(30));
        assert_eq!(l.pop_back(&mut s), None);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn model_check_against_vecdeque() {
        use std::collections::VecDeque;
        let (mut l, mut s) = list(32);
        let mut model: VecDeque<PageId> = VecDeque::new();
        // Deterministic pseudo-random op sequence.
        let mut state = 0x9e3779b9u32;
        for _ in 0..2000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let op = state % 3;
            let pid = (state >> 8) % 32;
            match op {
                0 => {
                    if !l.contains(&s, pid) {
                        l.push_front(&mut s, pid);
                        model.push_front(pid);
                    }
                }
                1 => {
                    let was = l.remove(&mut s, pid);
                    let model_had = model.iter().any(|&x| x == pid);
                    assert_eq!(was, model_had);
                    model.retain(|&x| x != pid);
                }
                _ => {
                    assert_eq!(l.pop_back(&mut s), model.pop_back());
                }
            }
            assert_eq!(l.len(), model.len());
            assert!(l.iter_from_back(&s).eq(model.iter().rev().copied()));
        }
    }
}
