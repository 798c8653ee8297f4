//! # bur-core — bottom-up update R-trees
//!
//! A from-scratch, disk-resident R-tree implementing the three update
//! techniques evaluated in *"Supporting Frequent Updates in R-Trees: A
//! Bottom-Up Approach"* (Lee, Hsu, Jensen, Cui, Teo — VLDB 2003):
//!
//! * **TD** — the classic top-down delete + insert baseline,
//! * **LBU** — localized bottom-up (Algorithm 1): hash-indexed leaf
//!   access, uniform ε-enlargement through a parent pointer, sibling
//!   shift,
//! * **GBU** — generalized bottom-up (Algorithm 2): the paper's
//!   contribution, built on a compact main-memory [`SummaryStructure`]
//!   (direct access table over internal nodes + leaf-fullness bit
//!   vector), directional `iExtendMBR`, τ-ordered repairs, piggybacked
//!   sibling shifts and `FindParent` ascent.
//!
//! The tree lives on 1 KiB pages behind an LRU buffer pool
//! ([`bur_storage`]) and keeps an on-disk linear-hash secondary index
//! ([`bur_hashindex`]) from object ids to leaf pages, so every figure of
//! the paper can be reproduced by counting physical page transfers.
//!
//! Entry point: [`IndexBuilder`], which builds either the clonable
//! [`Bur`] handle (shared use, batch-first writes via [`Batch`],
//! streaming [`QueryCursor`] results, durability acks via
//! [`CommitTicket`]) or a raw single-threaded [`RTreeIndex`].
//!
//! # Concurrency
//!
//! [`Bur::apply`] executes pure-update batches on disjoint leaves in
//! parallel: a shared structure lock, a claim bit per touched leaf (the
//! paper's DGL locking bits, one atomic op to take or drop), and
//! per-page buffer-pool latches, with plan-then-write
//! semantics — any op that is not leaf-local escalates the whole batch
//! to the exclusive path having written nothing, so results are always
//! identical to sequential application. The normative contract (lock
//! layering, latch-order invariant, pin-vs-latch rules, the
//! deadlock-avoidance and "benign slack" arguments) lives in
//! `docs/ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]

mod batch;
mod bottom_up;
mod builder;
mod bulk;
mod claims;
mod concurrent;
mod config;
pub mod cost_model;
mod error;
mod files;
mod gbu;
mod handle;
mod index;
mod knn;
mod lbu;
mod meta;
mod node;
mod pins;
mod replica;
mod split;
mod stats;
mod summary;
mod topdown;
mod tree;

pub use batch::{Batch, BatchReport, Op};
pub use builder::{IndexBuilder, OpenMode};
pub use config::{
    Durability, GbuParams, IndexOptions, LbuParams, TreeVariant, UpdateStrategy, WalOptions,
};
pub use error::{CoreError, CoreResult};
pub use files::{log_path, IndexFiles};
pub use gbu::iextend_mbr;
pub use handle::{Bur, CommitTicket, HeldLeafClaim, NeighborCursor, QueryCursor};
pub use index::{RTreeIndex, RecoveryReport};
pub use meta::{LOG_DISK_ANCHOR, WAL_ANCHOR};
// Re-exported so durability consumers need no direct `bur-wal` dependency.
pub use bur_wal::WalStatsSnapshot;
pub use knn::Neighbor;
pub use node::{
    internal_capacity, leaf_capacity, InternalEntry, LeafEntry, Node, NodeEntries, ObjectId,
    INTERNAL_ENTRY_SIZE, LEAF_ENTRY_SIZE,
};
pub use stats::{OpSnapshot, OpStats, UpdateOutcome};
pub use summary::{SummaryEntry, SummaryStructure};
