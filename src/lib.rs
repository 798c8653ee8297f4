//! # bur — Bottom-Up update R-trees
//!
//! A production-quality Rust reproduction of *"Supporting Frequent
//! Updates in R-Trees: A Bottom-Up Approach"* (Lee, Hsu, Jensen, Cui,
//! Teo — VLDB 2003): a disk-resident R-tree whose updates can be served
//! *bottom-up* — in place, by bounded MBR extension, by shifting to a
//! sibling leaf, or by re-inserting from the lowest bounding ancestor —
//! instead of the classic top-down delete + insert.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`bur-core`) — the index: [`core::IndexBuilder`], the
//!   clonable [`core::Bur`] handle, mixed-op [`core::Batch`] writes,
//!   streaming [`core::QueryCursor`] results, update strategies
//!   (TD / LBU / GBU), the main-memory summary structure, the leaf
//!   claims of the shared write path, the cost model, and the
//!   single-threaded [`core::RTreeIndex`] engine;
//! * [`geom`] (`bur-geom`) — points and rectangles;
//! * [`storage`] (`bur-storage`) — page store, disks, LRU buffer pool,
//!   I/O accounting;
//! * [`hashindex`] (`bur-hashindex`) — the paged linear-hash secondary
//!   index (object id → leaf page);
//! * [`wal`] (`bur-wal`) — write-ahead logging, fuzzy checkpoints and
//!   crash recovery for durable indexes;
//! * [`repl`] (`bur-repl`) — warm-standby replication: WAL shipping
//!   ([`repl::LogShipper`]), follower replay ([`repl::Follower`]) and
//!   failover promotion;
//! * [`shard`] (`bur-shard`) — Hilbert-range sharding: the
//!   [`shard::ShardedBur`] facade routes writes by Hilbert key across N
//!   shard indexes, scatter-gathers window and kNN queries, and
//!   migrates key ranges between shards under an epoch protocol;
//! * [`workload`] (`bur-workload`) — the GSTD-like moving-object
//!   workload generator;
//! * [`serve`] (`bur-serve`) — the `burd` network server: the wire
//!   protocol, the multi-tenant [`serve::IndexRegistry`], and the
//!   write [`serve::Coalescer`] that merges concurrent client batches
//!   into shared WAL group commits;
//! * [`client`] (`bur-client`) — the blocking [`client::BurClient`]
//!   with batch-first writes, durable [`client::RemoteAck`]s and
//!   streaming query iterators.
//!
//! ## Quickstart
//!
//! One handle, batch-first: [`core::IndexBuilder`] builds a clonable
//! [`core::Bur`] handle (share it across threads by cloning); writes go
//! through mixed-op [`core::Batch`]es and queries stream through
//! cursors. Update batches on disjoint leaves execute in parallel —
//! a claim bit per leaf (the paper's DGL locking bits, one atomic op
//! each) plus per-page buffer-pool latches; the
//! normative protocol (latch order, pin-vs-latch rules, deadlock
//! avoidance) is `docs/ARCHITECTURE.md` in the repository, and
//! `examples/parallel_writers.rs` demonstrates the clone-per-writer
//! pattern.
//!
//! ```
//! use bur::prelude::*;
//!
//! // A GBU (generalized bottom-up) index on an in-memory disk.
//! let bur = IndexBuilder::generalized().build().unwrap();
//!
//! // Batch-first writes: one lock acquisition, and on a durable index
//! // one WAL group commit record, for the whole batch.
//! let mut batch = Batch::new();
//! batch
//!     .insert(1, Point::new(0.2, 0.2))
//!     .insert(2, Point::new(0.8, 0.8))
//!     // Objects move; updates are served bottom-up whenever possible.
//!     .update(1, Point::new(0.2, 0.2), Point::new(0.21, 0.2));
//! let ticket = bur.apply(&batch).unwrap();
//! assert_eq!(ticket.report().applied, 3);
//!
//! // Window queries stream through a cursor whose buffer is recycled
//! // across calls (no per-query Vec allocation in steady state).
//! let hits: Vec<u64> = bur.query(&Rect::new(0.0, 0.0, 0.5, 0.5)).unwrap().collect();
//! assert_eq!(hits, vec![1]);
//!
//! // Single-op writes work too, and the handle clones freely.
//! let writer = bur.clone();
//! writer.insert(3, Point::new(0.5, 0.5)).unwrap();
//! assert_eq!(bur.len(), 3);
//! ```
//!
//! ## Durability
//!
//! By default an index is durable only after an explicit
//! [`core::Bur::checkpoint`] (the paper's experimental setup). With
//! [`core::IndexBuilder::durable`] every acknowledged update is
//! write-ahead logged, the pool checkpoints on a cadence, and a crash —
//! even one that tears a page write in half — recovers through the
//! builder's [`core::IndexBuilder::recover`] mode. A [`core::Batch`] is
//! atomic with respect to the log: one group commit record covers the
//! whole batch and is synced before [`core::Bur::apply`] returns, so
//! `Ok` means durable (a failed sync is an `Err`) and the returned
//! [`core::CommitTicket`] is the receipt.
//!
//! ```
//! use bur::prelude::*;
//! use std::sync::Arc;
//!
//! // The tree on one disk, its write-ahead log on a second.
//! let (disk, log) = (Arc::new(MemDisk::new(1024)), Arc::new(MemDisk::new(1024)));
//! let bur = IndexBuilder::generalized()
//!     .durable()
//!     .disk(disk.clone())
//!     .log_disk(log.clone())
//!     .build()
//!     .unwrap();
//! let mut batch = Batch::new();
//! batch.insert(1, Point::new(0.4, 0.4)).insert(2, Point::new(0.6, 0.6));
//! bur.apply(&batch).unwrap().wait().unwrap(); // logged + synced
//! drop(bur); // crash: no checkpoint(), no clean shutdown
//!
//! let recovered = IndexBuilder::generalized()
//!     .disk(disk)
//!     .log_disk(log)
//!     .recover()
//!     .build()
//!     .unwrap();
//! assert_eq!(recovered.len(), 2);
//! assert!(recovered.recovery_report().unwrap().commits >= 1);
//! ```

#![warn(missing_docs)]

pub use bur_client as client;
pub use bur_core as core;
pub use bur_geom as geom;
pub use bur_hashindex as hashindex;
pub use bur_repl as repl;
pub use bur_serve as serve;
pub use bur_shard as shard;
pub use bur_storage as storage;
pub use bur_wal as wal;
pub use bur_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use bur_core::{
        Batch, BatchReport, Bur, CommitTicket, CoreError, CoreResult, Durability, GbuParams,
        IndexBuilder, IndexOptions, LbuParams, Neighbor, NeighborCursor, ObjectId, Op, OpenMode,
        QueryCursor, RTreeIndex, RecoveryReport, TreeVariant, UpdateOutcome, UpdateStrategy,
        WalOptions,
    };
    pub use bur_geom::{Point, Rect};
    pub use bur_repl::{Follower, LogShipper, ReplError, ReplResult};
    pub use bur_storage::{FileDisk, IoSnapshot, MemDisk};
    pub use bur_workload::{DataDistribution, MovementModel, Workload, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let bur = IndexBuilder::top_down().build().unwrap();
        bur.insert(1, Point::new(0.5, 0.5)).unwrap();
        assert_eq!(bur.len(), 1);
        let mut index = IndexBuilder::top_down().build_index().unwrap();
        index.insert(1, Point::new(0.5, 0.5)).unwrap();
        assert_eq!(index.len(), 1);
    }
}
