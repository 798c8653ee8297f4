//! Hilbert-range sharding: one logical bur index over N independent
//! shards.
//!
//! The paper's bottom-up update path (VLDB 2003) keeps a *single*
//! R-tree fast under frequent updates — but a single tree is still one
//! structure lock, one write-ahead log and one disk. This crate scales
//! the same index out: [`ShardedBur`] presents the batch-first
//! [`bur_core::Bur`] surface over N shards partitioned by ranges of the
//! Hilbert curve that `bur_geom::hilbert` already uses to linearize
//! space.
//!
//! * **Point ops are single-shard.** Each op's position quantizes to a
//!   curve key; a sorted range map names the one owning shard. A mixed
//!   [`bur_core::Batch`] splits into per-shard sub-batches applied in
//!   parallel — one WAL group-commit record per touched shard — and the
//!   per-shard tickets fold into one [`AggregateTicket`].
//! * **Window queries scatter narrowly.** The window decomposes into a
//!   handful of curve ranges ([`bur_geom::hilbert::hilbert_ranges`]);
//!   only shards owning an overlapping range are queried, gathered via
//!   [`ScatterQuery`] over the shards' recycled-buffer cursors.
//! * **kNN merges lazily.** Per-shard neighbor streams merge through a
//!   bounded heap ([`MergedNeighbors`]); a shard is admitted only when
//!   the `MINDIST` to its root MBR can still beat the current k-th
//!   candidate.
//! * **Rebalancing is all-or-nothing.** [`ShardedBur::migrate_range`]
//!   moves a key range shard-to-shard in group-commit chunks under a
//!   migration epoch; with a manifest file attached, a crash at any
//!   point rolls the move back or forward on reopen without losing an
//!   acked write. `docs/ARCHITECTURE.md` ("Sharding") is the normative
//!   protocol description.
//!
//! ```
//! use bur_core::{Batch, IndexBuilder};
//! use bur_geom::{Point, Rect};
//! use bur_shard::ShardedBur;
//!
//! let shards = (0..4)
//!     .map(|_| IndexBuilder::generalized().build().unwrap())
//!     .collect();
//! let sharded = ShardedBur::from_shards(shards).unwrap();
//!
//! let mut batch = Batch::new();
//! for i in 0..100u64 {
//!     batch.insert(i, Point::new((i as f32) / 100.0, 0.5));
//! }
//! let ticket = sharded.apply(&batch).unwrap();
//! assert_eq!(ticket.report().inserted, 100);
//!
//! let hits: Vec<u64> = sharded
//!     .query(&Rect::new(0.0, 0.0, 0.25, 1.0))
//!     .unwrap()
//!     .collect();
//! assert_eq!(hits.len(), 26);
//! let nearest = sharded.nearest(Point::new(0.5, 0.5), 3).unwrap();
//! assert_eq!(nearest.count(), 3);
//! ```

mod manifest;
mod router;
mod sharded;

pub use manifest::{key_space_for, load as load_manifest, store as store_manifest, Manifest};
pub use router::{Migration, RangeMap, Segment};
pub use sharded::{
    AggregateTicket, MergedNeighbors, MigrationReport, RoutedWrite, ScatterQuery, ShardLoad,
    ShardStats, ShardedBur, DEFAULT_ORDER, DEFAULT_SCATTER_BUDGET,
};

use bur_core::CoreError;
use std::fmt;

/// Errors from the sharding layer.
#[derive(Debug)]
pub enum ShardError {
    /// A core failure not attributable to one shard.
    Core(CoreError),
    /// A core failure on one specific shard.
    Shard {
        /// Which shard failed.
        shard: u32,
        /// What went wrong.
        source: CoreError,
    },
    /// Manifest I/O failure.
    Io(std::io::Error),
    /// The manifest file was malformed or inconsistent.
    Manifest(String),
    /// The request or configuration was invalid.
    Config(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Core(e) => write!(f, "core: {e}"),
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardError::Io(e) => write!(f, "manifest io: {e}"),
            ShardError::Manifest(m) => write!(f, "manifest: {m}"),
            ShardError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Core(e) | ShardError::Shard { source: e, .. } => Some(e),
            ShardError::Io(e) => Some(e),
            ShardError::Manifest(_) | ShardError::Config(_) => None,
        }
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> Self {
        ShardError::Core(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Convenience alias for sharding-layer results.
pub type ShardResult<T> = Result<T, ShardError>;
