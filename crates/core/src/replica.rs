//! Replica-side index support: read-only views over a replicated page
//! image and the *promote tail* that turns one into a writable primary.
//!
//! A replication follower (`bur-repl`) redoes the primary's write-ahead
//! log onto its own page disk. Between commits it needs a way to answer
//! queries over a *consistent prefix* of that redo stream; at failover
//! it needs the tail of recovery — the memory-state rebuild and log
//! attach that [`crate::IndexBuilder`]'s recover mode runs after replay.
//! Both live here, on [`RTreeIndex`], so the follower never has to reach
//! into tree internals:
//!
//! * [`RTreeIndex::replica_view`] — a queryable, strategy-less (TD)
//!   index over a disk whose superblock comes from a replicated WAL
//!   commit/checkpoint record instead of the on-disk metadata chain;
//! * [`RTreeIndex::install_replica_snapshot`] — advance the view to a
//!   newer replicated snapshot (the follower's apply watermark);
//! * [`RTreeIndex::promote_replica`] — rebuild the summary structure /
//!   hash index / parent pointers the target strategy needs, start a
//!   write-ahead log on the replica's own log disk and checkpoint: the
//!   replica becomes an ordinary writable index.

use crate::commit::{self, Log};
use crate::config::{Durability, IndexOptions, UpdateStrategy};
use crate::error::{CoreError, CoreResult};
use crate::files::stored_snapshot;
use crate::index::{check_page_size, log_disk_of, log_disk_without_log, RTreeIndex};
use crate::meta::MetaSnapshot;
use crate::tree::RTree;
use bur_storage::{BufferPool, DiskBackend, PoolConfig, INVALID_PAGE};
use bur_wal::Wal;
use std::sync::Arc;

impl RTreeIndex {
    /// Build a read-only replica view over `disk` from a serialized
    /// metadata snapshot (the payload of a replicated WAL commit or
    /// checkpoint record).
    ///
    /// The view carries no write-ahead log and none of the bottom-up
    /// strategies' memory state — queries run as plain top-down descents
    /// — so constructing one costs a metadata decode, not a tree scan.
    /// Writes through it would desynchronize the follower from the
    /// shipped log; wrap it in a read-only handle
    /// ([`crate::Bur::from_index_read_only`]) before sharing it.
    pub fn replica_view(
        disk: Arc<dyn DiskBackend>,
        buffer_frames: usize,
        meta: &[u8],
    ) -> CoreResult<Self> {
        let (mut snap, _) = MetaSnapshot::decode(meta)?;
        let disk_size = disk.page_size();
        check_page_size("disk", disk_size, "replicated snapshot's", snap.page_size)?;
        let opts = IndexOptions {
            page_size: snap.page_size,
            buffer_frames,
            strategy: UpdateStrategy::TopDown,
            durability: Durability::None,
            ..IndexOptions::default()
        };
        let pool = Arc::new(BufferPool::new(
            disk,
            PoolConfig {
                capacity: buffer_frames,
            },
        ));
        // A view keeps no hash index: a replicated directory goes stale
        // as the follower redoes the log.
        snap.hash_head = INVALID_PAGE;
        let tree = RTree::from_snapshot(pool, opts, Some(&snap), Vec::new(), &[])?;
        Ok(Self {
            tree,
            log: None,
            recovery: None,
        })
    }

    /// Advance a replica view to a newer replicated snapshot: swap in the
    /// root, height, object count and free list recorded at the new
    /// apply watermark. The caller must already have redone every page
    /// record covered by that snapshot onto this index's pool. A snapshot
    /// whose height disagrees with its root page is refused, as an open
    /// refuses it, and the view stays as it was.
    pub fn install_replica_snapshot(&mut self, meta: &[u8]) -> CoreResult<()> {
        let (snap, _) = MetaSnapshot::decode(meta)?;
        let view = self.tree.opts.page_size;
        check_page_size("replicated snapshot", snap.page_size, "view's", view)?;
        snap.check_root(&self.tree.pool)?;
        self.tree.root = snap.root;
        self.tree.height = snap.height;
        self.tree.len = snap.len;
        self.tree.free_pages = snap.free_pages;
        Ok(())
    }

    /// Promote a replica view into a writable index with the given
    /// options — the tail of crash recovery, minus the replay the
    /// follower already performed:
    ///
    /// 1. rebuild the memory state the target strategy needs (GBU
    ///    summary structure, object-id hash index, LBU parent pointers)
    ///    from a tree scan — the replicated hash directory is rebuilt
    ///    rather than trusted, exactly as recovery does;
    /// 2. with [`Durability::Wal`] options, start a log on `log_disk`,
    ///    which must be empty, and checkpoint: its first generation's base
    ///    image is the replica's current pages;
    /// 3. otherwise persist, so the metadata chain matches the adopted
    ///    state. A volatile promote takes no `log_disk`.
    ///
    /// `opts.page_size` must match the view's. Fails on an index that
    /// already has a log attached (it is not a replica view).
    pub fn promote_replica(
        &mut self,
        opts: IndexOptions,
        log_disk: Option<Arc<dyn DiskBackend>>,
    ) -> CoreResult<()> {
        opts.validate()?;
        let replica = self.tree.opts.page_size;
        check_page_size("promote", opts.page_size, "replica's", replica)?;
        if self.log.is_some() {
            return Err(CoreError::BadConfig(
                "promote_replica: index already has a write-ahead log attached".into(),
            ));
        }
        let log = match opts.durability {
            Durability::Wal(wopts) => {
                let log = log_disk_of(log_disk, &opts)?;
                if log.num_pages() != 0 {
                    return Err(CoreError::BadConfig(
                        "promote_replica: the replica's log disk must be empty".into(),
                    ));
                }
                Some((log, wopts))
            }
            Durability::None if log_disk.is_some() => return Err(log_disk_without_log()),
            Durability::None => None,
        };
        self.tree.pool.set_capacity(opts.buffer_frames)?;
        // The copied disk carries the primary's old metadata chain; it
        // may be mid-checkpoint garbage, so its pages are recycled only
        // when it round-trips — the same rule recovery follows.
        let meta_chain = stored_snapshot(&self.tree.pool).map_or_else(|_| Vec::new(), |(_, p)| p);
        // The view's snapshot names no hash directory, so the hash index
        // is rebuilt from the tree rather than trusted, as in recovery.
        let snap = self.tree.meta_snapshot(INVALID_PAGE, INVALID_PAGE);
        let pool = Arc::clone(&self.tree.pool);
        let mut tree = RTree::from_snapshot(pool, opts, Some(&snap), meta_chain, &[])?;
        tree.stats = std::mem::take(&mut self.tree.stats);
        let log = match log {
            Some((log, wopts)) => Some(Log::attach(Wal::create(log)?, wopts, &mut tree)?),
            None => {
                commit::checkpoint(&mut tree, None)?;
                None
            }
        };
        self.tree = tree;
        self.log = log;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexBuilder;
    use bur_geom::{Point, Rect};
    use bur_storage::MemDisk;

    /// Copy every page of `src` onto a fresh in-memory disk.
    fn clone_disk(src: &dyn DiskBackend) -> Arc<MemDisk> {
        let dst = Arc::new(MemDisk::new(src.page_size()));
        let mut buf = vec![0u8; src.page_size()];
        for pid in 0..src.num_pages() {
            src.read(pid, &mut buf).unwrap();
            dst.allocate().unwrap();
            dst.write(pid, &buf).unwrap();
        }
        dst
    }

    fn durable_primary() -> (crate::RTreeIndex, Arc<MemDisk>, Vec<u8>) {
        durable_primary_of(200)
    }

    /// A checkpointed durable GBU index of `objects` points on a grid 20
    /// wide, its data disk and its metadata snapshot.
    fn durable_primary_of(objects: u64) -> (crate::RTreeIndex, Arc<MemDisk>, Vec<u8>) {
        let disk = Arc::new(MemDisk::new(1024));
        let mut index = IndexBuilder::generalized()
            .durable()
            .disk(disk.clone())
            .log_disk(Arc::new(MemDisk::new(1024)))
            .build_index()
            .unwrap();
        let rows = (objects / 20) as f32;
        for oid in 0..objects {
            let x = (oid % 20) as f32 / 20.0;
            let y = (oid / 20) as f32 / rows;
            index.insert(oid, Point::new(x, y)).unwrap();
        }
        index.checkpoint().unwrap();
        let anchor = crate::meta::LOG_DISK_ANCHOR;
        let meta = index.tree.meta_snapshot(INVALID_PAGE, anchor).encode();
        (index, disk, meta)
    }

    #[test]
    fn replica_view_answers_queries_without_memory_state() {
        let (primary, disk, meta) = durable_primary();
        let copy = clone_disk(disk.as_ref());
        let view = crate::RTreeIndex::replica_view(copy, 64, &meta).unwrap();
        assert_eq!(view.len(), primary.len());
        assert!(!view.is_durable());
        assert!(view.summary().is_none());
        let w = Rect::new(0.0, 0.0, 0.5, 0.5);
        let mut got = view.query(&w).unwrap();
        let mut want = primary.query(&w).unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        view.validate().unwrap();
    }

    #[test]
    fn install_refuses_a_height_that_disagrees_with_the_root_page() {
        let (primary, disk, meta) = durable_primary_of(2_000);
        assert_eq!(primary.height(), 3);
        let mut view =
            crate::RTreeIndex::replica_view(clone_disk(disk.as_ref()), 64, &meta).unwrap();
        let w = Rect::new(0.2, 0.2, 0.6, 0.6);
        let hits = view.query(&w).unwrap();
        assert!(!hits.is_empty());
        // The height is bytes 20..24 of the snapshot's payload.
        for height in [0u32, 1, 9] {
            let mut bad = meta.clone();
            bad[20..24].copy_from_slice(&height.to_le_bytes());
            let err = view.install_replica_snapshot(&bad).unwrap_err();
            assert!(
                matches!(&err, CoreError::BadConfig(m) if m.starts_with("corrupt index metadata")),
                "height {height}: {err}"
            );
            assert_eq!(view.height(), 3);
            view.validate().unwrap();
            assert_eq!(view.query(&w).unwrap(), hits);
        }
    }

    #[test]
    fn replica_view_rejects_mismatched_page_size() {
        let (_p, _disk, meta) = durable_primary();
        let wrong = Arc::new(MemDisk::new(512));
        assert!(crate::RTreeIndex::replica_view(wrong, 16, &meta).is_err());
        assert!(
            crate::RTreeIndex::replica_view(Arc::new(MemDisk::new(1024)), 16, b"junk").is_err()
        );
    }

    #[test]
    fn promote_rebuilds_state_and_takes_writes() {
        let (primary, disk, meta) = durable_primary();
        let copy = clone_disk(disk.as_ref());
        let mut view = crate::RTreeIndex::replica_view(copy.clone(), 64, &meta).unwrap();
        let log = Arc::new(MemDisk::new(1024));
        view.promote_replica(IndexOptions::durable(), Some(log.clone()))
            .unwrap();
        assert!(view.is_durable());
        assert!(view.summary().is_some(), "GBU summary rebuilt");
        view.validate().unwrap();
        assert_eq!(view.len(), primary.len());
        // The promoted index is live and durable: write, crash, recover.
        view.insert(9000, Point::new(0.91, 0.91)).unwrap();
        drop(view);
        let rec = IndexBuilder::generalized()
            .disk(copy)
            .log_disk(log)
            .recover()
            .build_index()
            .unwrap();
        assert!(rec
            .point_query(Point::new(0.91, 0.91))
            .unwrap()
            .contains(&9000));
        rec.validate().unwrap();
    }

    #[test]
    fn promote_to_each_strategy_validates() {
        for opts in [
            IndexOptions::top_down(),
            IndexOptions::localized(),
            IndexOptions::generalized(),
        ] {
            let (_primary, disk, meta) = durable_primary();
            let copy = clone_disk(disk.as_ref());
            let mut view = crate::RTreeIndex::replica_view(copy, 64, &meta).unwrap();
            view.promote_replica(opts, None).unwrap();
            view.validate().unwrap();
            // Non-durable promote persists: a clean open works.
            assert!(!view.is_durable());
        }
    }

    #[test]
    fn promote_rejects_an_already_writable_index() {
        let (mut primary, _disk, _meta) = durable_primary();
        let err = primary
            .promote_replica(IndexOptions::durable(), Some(Arc::new(MemDisk::new(1024))))
            .unwrap_err();
        assert!(err.to_string().contains("already has"), "{err}");
    }

    #[test]
    fn durable_promote_needs_an_empty_log_disk_and_changes_nothing_without_one() {
        let (_primary, disk, meta) = durable_primary();
        let mut view =
            crate::RTreeIndex::replica_view(clone_disk(disk.as_ref()), 64, &meta).unwrap();
        let used = Arc::new(MemDisk::new(1024));
        used.allocate().unwrap();
        let err = view
            .promote_replica(IndexOptions::durable(), Some(used))
            .unwrap_err();
        assert!(err.to_string().contains("must be empty"), "{err}");
        let err = view
            .promote_replica(IndexOptions::durable(), None)
            .unwrap_err();
        assert!(matches!(err, CoreError::LogMissing(_)), "{err}");
        // A volatile promote takes no log disk.
        let err = view
            .promote_replica(
                IndexOptions::generalized(),
                Some(Arc::new(MemDisk::new(1024))),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
        assert!(view.summary().is_none(), "still a replica view");
        view.promote_replica(IndexOptions::durable(), Some(Arc::new(MemDisk::new(1024))))
            .unwrap();
        view.validate().unwrap();
    }
}
