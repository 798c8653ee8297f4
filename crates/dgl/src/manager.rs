//! The granule lock manager.

use crate::Granule;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Lock modes. DGL needs only these two at the granule level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: searchers reading the objects under a granule.
    Shared,
    /// Exclusive: updaters inserting/deleting/moving objects in a granule.
    Exclusive,
}

/// Why a lock acquisition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryLockError {
    /// The lock is held in a conflicting mode right now.
    WouldBlock,
}

impl fmt::Display for TryLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryLockError::WouldBlock => write!(f, "lock is held in a conflicting mode"),
        }
    }
}

impl std::error::Error for TryLockError {}

#[derive(Debug, Default)]
struct LockState {
    shared: usize,
    exclusive: bool,
}

impl LockState {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => !self.exclusive,
            LockMode::Exclusive => !self.exclusive && self.shared == 0,
        }
    }

    fn acquire(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.shared += 1,
            LockMode::Exclusive => self.exclusive = true,
        }
    }

    fn release(&mut self, mode: LockMode) {
        match mode {
            LockMode::Shared => self.shared -= 1,
            LockMode::Exclusive => self.exclusive = false,
        }
    }

    fn is_free(&self) -> bool {
        self.shared == 0 && !self.exclusive
    }
}

/// S/X lock table over [`Granule`]s. Acquisition never waits: a request
/// that conflicts with a held lock is refused with
/// [`TryLockError::WouldBlock`], and the caller releases what it holds
/// and retries or takes another path. A thread that never waits on a
/// granule cannot be part of a deadlock cycle through one.
///
/// ```
/// use bur_dgl::{Granule, LockManager, LockMode};
///
/// let locks = LockManager::new();
/// // A scan shares a leaf granule ...
/// let scan = locks.try_lock(Granule::Leaf(2), LockMode::Shared).unwrap();
/// // ... so an update of that leaf is refused until the scan is done.
/// assert!(locks.try_lock(Granule::Leaf(2), LockMode::Exclusive).is_err());
/// drop(scan);
/// assert!(locks.try_lock(Granule::Leaf(2), LockMode::Exclusive).is_ok());
/// ```
#[derive(Default)]
pub struct LockManager {
    table: Mutex<HashMap<Granule, LockState>>,
}

impl LockManager {
    /// Fresh lock manager with no locks held.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of granules currently locked (diagnostics).
    #[must_use]
    pub fn locked_granules(&self) -> usize {
        self.table.lock().len()
    }

    /// Acquire without waiting.
    pub fn try_lock(
        &self,
        granule: Granule,
        mode: LockMode,
    ) -> Result<LockGuard<'_>, TryLockError> {
        let mut table = self.table.lock();
        let state = table.entry(granule).or_default();
        if state.compatible(mode) {
            state.acquire(mode);
            Ok(LockGuard {
                mgr: self,
                granule,
                mode,
            })
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    fn release(&self, granule: Granule, mode: LockMode) {
        let mut table = self.table.lock();
        let state = table
            .get_mut(&granule)
            .expect("released granule must be in table");
        state.release(mode);
        if state.is_free() {
            table.remove(&granule);
        }
    }
}

/// Holds one granule lock; released on drop.
pub struct LockGuard<'a> {
    mgr: &'a LockManager,
    granule: Granule,
    mode: LockMode,
}

impl LockGuard<'_> {
    /// The locked granule.
    #[must_use]
    pub fn granule(&self) -> Granule {
        self.granule
    }

    /// The held mode.
    #[must_use]
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.mgr.release(self.granule, self.mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let m = LockManager::new();
        let a = m.try_lock(Granule::Leaf(1), LockMode::Shared).unwrap();
        let b = m.try_lock(Granule::Leaf(1), LockMode::Shared).unwrap();
        assert_eq!(a.granule(), b.granule());
        assert_eq!(b.mode(), LockMode::Shared);
        assert_eq!(m.locked_granules(), 1);
    }

    #[test]
    fn exclusive_conflicts() {
        let m = LockManager::new();
        let _x = m.try_lock(Granule::Leaf(1), LockMode::Exclusive).unwrap();
        assert_eq!(
            m.try_lock(Granule::Leaf(1), LockMode::Shared).err(),
            Some(TryLockError::WouldBlock)
        );
        assert_eq!(
            m.try_lock(Granule::Leaf(1), LockMode::Exclusive).err(),
            Some(TryLockError::WouldBlock)
        );
        // A different granule is independent.
        assert!(m.try_lock(Granule::Leaf(2), LockMode::Exclusive).is_ok());
        assert!(m.try_lock(Granule::External(1), LockMode::Shared).is_ok());
    }

    #[test]
    fn shared_blocks_exclusive_until_released() {
        // The phantom-protection contract: a scanner holds S on the
        // granules its window overlaps, so an updater of one of those
        // leaves is refused until the scan finishes.
        let m = LockManager::new();
        let scan = [
            m.try_lock(Granule::Leaf(2), LockMode::Shared).unwrap(),
            m.try_lock(Granule::External(3), LockMode::Shared).unwrap(),
        ];
        assert_eq!(
            m.try_lock(Granule::Leaf(2), LockMode::Exclusive).err(),
            Some(TryLockError::WouldBlock)
        );
        assert_eq!(
            m.try_lock(Granule::External(3), LockMode::Exclusive).err(),
            Some(TryLockError::WouldBlock)
        );
        drop(scan);
        assert!(m.try_lock(Granule::Leaf(2), LockMode::Exclusive).is_ok());
    }

    #[test]
    fn release_frees_the_table_entry() {
        let m = LockManager::new();
        let x = m.try_lock(Granule::Leaf(9), LockMode::Exclusive).unwrap();
        assert_eq!(m.locked_granules(), 1);
        drop(x);
        assert_eq!(m.locked_granules(), 0);
        let a = m.try_lock(Granule::Leaf(9), LockMode::Shared).unwrap();
        let b = m.try_lock(Granule::Leaf(9), LockMode::Shared).unwrap();
        drop(a);
        // Still shared by `b`: the entry stays until the last holder goes.
        assert_eq!(m.locked_granules(), 1);
        drop(b);
        assert_eq!(m.locked_granules(), 0);
    }

    #[test]
    fn stress_mutual_exclusion_invariant() {
        // Many threads hammer a few granules; a per-granule counter
        // checked under X must never observe concurrent modification.
        fn acquire(m: &LockManager, g: Granule, mode: LockMode) -> LockGuard<'_> {
            loop {
                match m.try_lock(g, mode) {
                    Ok(guard) => return guard,
                    Err(TryLockError::WouldBlock) => std::thread::yield_now(),
                }
            }
        }
        let m = Arc::new(LockManager::new());
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = m.clone();
                let counters = counters.clone();
                s.spawn(move || {
                    for i in 0..300 {
                        let g = ((t * 31 + i * 7) % 4) as u32;
                        if i % 3 == 0 {
                            let _x = acquire(&m, Granule::Leaf(g), LockMode::Exclusive);
                            let c = &counters[g as usize];
                            let v = c.load(Ordering::SeqCst);
                            std::thread::yield_now();
                            c.store(v + 1, Ordering::SeqCst);
                        } else {
                            let _s = acquire(&m, Granule::Leaf(g), LockMode::Shared);
                            let _ = counters[g as usize].load(Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Every X section incremented exactly once => total = #X sections.
        let total: usize = counters.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(total, 8 * 100);
        assert_eq!(m.locked_granules(), 0);
    }
}
