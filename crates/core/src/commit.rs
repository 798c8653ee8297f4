//! The commit protocol of a durable index: the only code that knows how
//! a write reaches the write-ahead log, when a checkpoint is due, and in
//! which order the log and the data disk take their turns at one.
//!
//! [`crate::RTreeIndex`] owns the [`Log`]; the tree it logs knows
//! nothing of it. The tree hands over what is its own — the pages a
//! batch wrote, its metadata snapshot ([`RTree::meta_snapshot`]) and its
//! base image ([`RTree::write_base_image`]) — and this module wraps them
//! in the log's steps:
//!
//! * a **commit** ([`commit`]) logs every page a batch wrote, then a
//!   record carrying the snapshot, syncs the log and lets the pool write
//!   those pages back;
//! * the **cadence** ([`Log::checkpoint_due`]) counts the committed
//!   operations since the last checkpoint;
//! * a **checkpoint** ([`checkpoint`]) syncs the log, writes and flushes
//!   the base image, then rewinds the log onto it;
//! * the **attach** ([`Log::attach`]) gates the pool's writes on a log
//!   and checkpoints: the one way an index gets its log.

use crate::config::WalOptions;
use crate::error::CoreResult;
use crate::tree::RTree;
use bur_storage::{Lsn, PageRef, INVALID_PAGE};
use bur_wal::Wal;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// The write-ahead log of a durable index ([`crate::Durability::Wal`])
/// and the state its commits share.
pub(crate) struct Log {
    /// The log itself.
    pub(crate) wal: Wal,
    /// Checkpoint interval, in committed operations.
    checkpoint_every: u64,
    /// Committed operations since the last checkpoint (drives the
    /// cadence). Atomic because concurrent leaf-local batches commit
    /// through a shared reference.
    commits_since_checkpoint: AtomicU64,
    /// Serializes concurrent group commits: a batch's page images and
    /// its commit record must land contiguously in the log, so another
    /// batch's record cannot slip between a page image and the record
    /// that covers it.
    commit_lock: Mutex<()>,
}

impl Log {
    /// Attach `wal` to `tree`: gate the pool's writes on it and
    /// checkpoint, so the pages as they stand become the log's base
    /// image. The one way an index gets its log — created, recovered,
    /// upgraded, promoted or bulk loaded.
    pub(crate) fn attach(wal: Wal, opts: WalOptions, tree: &mut RTree) -> CoreResult<Self> {
        let log = Self {
            wal,
            checkpoint_every: opts.checkpoint_every,
            commits_since_checkpoint: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
        };
        tree.pool.set_wal_mode(true);
        checkpoint(tree, Some(&log))?;
        Ok(log)
    }

    /// `true` when the checkpoint cadence has been reached. Readable
    /// without exclusivity; callers on the shared path re-check under an
    /// exclusive lock before actually checkpointing.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.commits_since_checkpoint.load(Ordering::Relaxed) >= self.checkpoint_every
    }
}

/// Group-commit `ops` operations applied to `tree` under one record on
/// `log`: an image or delta of every page `pages` yields (read through
/// its pin, diffed against the pool's pre-image of it — no copy), then a
/// commit record carrying the tree's snapshot, and a log sync. Returns
/// the record's LSN, or `None` when nothing is logged: without a log, or
/// when nothing changed (`ops == 0`). This is the one place that tells,
/// and `pages` is only called when something is. Never checkpoints —
/// callers check [`Log::checkpoint_due`].
///
/// The one commit of both write paths, and both feed it the pins their
/// batch holds: the exclusive engine every page the pool saw touched
/// since the last commit, in ascending order, each through the pin its
/// batch kept (fetched only when it was left touched by an earlier
/// commit that failed); the shared path its batch's own pinned pages.
/// It takes `&RTree`, so batches on disjoint leaves commit while others
/// are still applying, and `commit_lock` keeps each batch's pages and
/// record contiguous. A shared batch's page set is complete because,
/// while any such batch is in flight:
///
/// * no operation changes `root`, `height`, the free list or the object
///   count (a shared batch only moves objects within their leaves); and
/// * every exclusive write has committed before it released the
///   structure lock's write side, so a touched page outside `pages`
///   belongs to another in-flight batch and its own record (the
///   no-steal gate keeps it off the disk until then). Only a failed
///   exclusive commit or first op leaves pages touched, gated, for the
///   next exclusive commit or checkpoint.
///
/// A shared parent page may carry another in-flight batch's official
/// -rect enlargement when it is imaged here. That is benign slack:
/// enlargements are monotone and bounded by the parent node MBR, and the
/// other batch's leaf write (the actual object move) is gated until its
/// own commit record lands ("grow before move").
pub(crate) fn commit<'p, P, I>(
    log: Option<&Log>,
    tree: &RTree,
    ops: u64,
    pages: impl FnOnce() -> I,
) -> CoreResult<Option<Lsn>>
where
    P: Borrow<PageRef<'p>>,
    I: IntoIterator<Item = CoreResult<P>>,
{
    let Some(log) = log.filter(|_| ops > 0) else {
        return Ok(None);
    };
    let _serial = log.commit_lock.lock();
    for page in pages() {
        let page = page?;
        let pid = page.borrow().pid();
        let base = tree.pool.take_pre_image(pid);
        // Noted under the latch the record is read through, so no
        // write lands between the two.
        let data = page.borrow().read();
        let lsn = log.wal.append_page(pid, base.as_ref(), &data)?;
        tree.pool.note_page_logged(&data, lsn);
    }
    let meta = tree.meta_snapshot(INVALID_PAGE, log.wal.anchor()).encode();
    let lsn = log.wal.commit(meta)?;
    tree.pool.set_durable_lsn(lsn);
    log.commits_since_checkpoint
        .fetch_add(ops, Ordering::Relaxed);
    Ok(Some(lsn))
}

/// Write `tree`'s base image and flush every page: the image an open
/// starts from. With a `log` this is a fuzzy checkpoint, and the log
/// steps wrap the base image: the log is made durable first, and rewound
/// onto its own pages once the data disk is synced. That order is the
/// whole two-file argument: the old generation stays replayable until
/// the base image that supersedes it is on the platter, and this is the
/// only place the data disk is synced — a commit syncs the log's disk
/// and nothing else.
pub(crate) fn checkpoint(tree: &mut RTree, log: Option<&Log>) -> CoreResult<()> {
    let Some(log) = log else {
        tree.write_base_image(INVALID_PAGE)?;
        return Ok(tree.pool.flush_all()?);
    };
    let started = std::time::Instant::now();
    let writes_before = tree.pool.stats().snapshot().writes;
    log.wal.sync()?;
    tree.pool.set_durable_lsn(log.wal.durable_lsn());
    let payload = tree.write_base_image(log.wal.anchor())?;
    // The writes above are part of the new base image, not of any
    // commit: drop their gate state before the flush.
    tree.pool.wal_checkpoint_reset();
    tree.pool.flush_all()?;
    log.wal.checkpoint_rewind(payload)?;
    log.commits_since_checkpoint.store(0, Ordering::Relaxed);
    tree.pool.set_durable_lsn(log.wal.durable_lsn());
    log.wal.note_checkpoint(
        started.elapsed(),
        tree.pool.stats().snapshot().writes - writes_before,
    );
    Ok(())
}
