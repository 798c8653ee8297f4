//! Paged linear-hash secondary index: object id → page id.
//!
//! Both bottom-up algorithms in the VLDB 2003 paper "locate via the
//! secondary object-ID index (e.g., hash table) the leaf node with the
//! object" — their cost model charges one disk read per probe. This crate
//! implements that index as a real on-disk structure so the charge emerges
//! from the buffer pool instead of being hard-coded:
//!
//! * buckets are pages of the shared [`bur_storage::BufferPool`] (so hash
//!   I/O competes with tree I/O for buffer space exactly like in a real
//!   system),
//! * the directory (bucket page ids + split state) is main-memory, like
//!   the paper's summary structure, and can be persisted to a page chain
//!   (the format `bur-storage` shares with the index's metadata chain,
//!   [`bur_storage::write_chain`]) for reopening a stored index,
//! * growth follows Litwin's linear hashing: one bucket splits at a time,
//!   keeping the directory dense and splits cheap.
//!
//! Keys are `u64` object ids; values are `u32` page ids.

#![warn(missing_docs)]

mod bucket;
mod index;

pub use index::{HashIndexConfig, LinearHashIndex, Probe, Written};

/// Key type: object identifier.
pub type Key = u64;

/// Value type: page id of the leaf currently holding the object.
pub type Value = u32;

/// Mix a key into a well-distributed 64-bit hash (splitmix64 finalizer).
///
/// Object ids in workloads are dense integers; without mixing, linear
/// hashing would split pathologically.
#[inline]
#[must_use]
pub fn mix(key: Key) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_spreads_dense_keys() {
        // Dense keys must not collide in the low bits used for buckets.
        let mut low_bits = std::collections::HashSet::new();
        for k in 0..64u64 {
            low_bits.insert(mix(k) & 0xff);
        }
        assert!(low_bits.len() > 48, "low bits too collision-prone");
    }

    #[test]
    fn mix_deterministic() {
        assert_eq!(mix(42), mix(42));
        assert_ne!(mix(42), mix(43));
    }
}
