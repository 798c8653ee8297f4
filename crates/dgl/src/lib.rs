//! Dynamic Granular Locking (DGL) for R-trees.
//!
//! The VLDB 2003 bottom-up update paper adopts DGL (Chakrabarti &
//! Mehrotra, "Dynamic Granular Locking Approach to Phantom Protection in
//! R-trees", ICDE 1998) for its throughput study: "DGL provides low
//! overhead phantom protection in R-trees by utilizing external and leaf
//! granules that can be locked or released. The finest granular level is
//! the leaf MBR."
//!
//! This crate implements the lock-manager half of DGL:
//!
//! * [`Granule`] — a lockable unit: one per leaf node, plus one *external*
//!   granule per internal node covering the space not owned by any child
//!   (new objects that fall outside every leaf MBR are protected by the
//!   external granule of the node that absorbs them).
//! * [`LockManager`] — an S/X granule lock table that is only ever
//!   *tried*, never waited on: a conflicting request is refused at once
//!   ([`TryLockError`]) and the caller backs out, which is what keeps
//!   granules out of every wait-for cycle.
//!
//! The paper's observation that bottom-up updates "fit naturally into DGL"
//! holds here too: a bottom-up update X-locks exactly the granules of the
//! leaves it touches and nothing else. Whole-tree exclusion (structure
//! changes against everyone) is not a granule: it is the index handle's
//! reader-writer structure lock, under whose read side granules are taken.

#![warn(missing_docs)]

mod manager;

pub use manager::{LockGuard, LockManager, LockMode, TryLockError};

/// A lockable granule. The paper associates "each entry in the direct
/// access table and the bit vector with 3 locking bits"; we key granules
/// by the page id they protect instead, which is equivalent and keeps the
/// lock table independent of the summary layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Granule {
    /// The granule of one leaf node (finest granularity: the leaf MBR).
    Leaf(u32),
    /// The external granule of one internal node: protects inserts that
    /// fall outside all current leaf MBRs under that node.
    External(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_ordering_is_total() {
        let mut g = vec![Granule::Leaf(2), Granule::External(1), Granule::Leaf(1)];
        g.sort();
        // Sorted order is deterministic (variant order, then id).
        assert_eq!(
            g,
            [Granule::Leaf(1), Granule::Leaf(2), Granule::External(1)]
        );
    }
}
