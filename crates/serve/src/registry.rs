//! Multi-tenant index registry: named indexes living in one data
//! directory, each paired with its own write [`Coalescer`].

use crate::coalescer::{
    ApplyError, Coalescer, DedupTable, Expiry, PendingAck, WriteAck, MAX_QUEUED_OPS, MAX_SESSIONS,
};
use crate::protocol::StrategyKind;
use bur_core::{Bur, CoreError, IndexBuilder, Op};
use bur_shard::{ShardError, ShardedBur};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by registry operations; rendered into wire `Err`
/// responses verbatim.
#[derive(Debug)]
pub enum ServeError {
    /// The index name contains characters outside `[A-Za-z0-9_.-]`, is
    /// empty, starts with a dot, or collides with the reserved
    /// `<name>.s<k>` shard-file stems.
    BadName(String),
    /// The named index is neither open nor present on disk.
    NotFound(String),
    /// The named index already exists (create refused).
    AlreadyExists(String),
    /// Propagated core failure.
    Core(CoreError),
    /// Propagated sharding-layer failure.
    Shard(ShardError),
    /// Filesystem failure outside the index files proper.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadName(name) => write!(
                f,
                "bad index name {name:?}: use [A-Za-z0-9_.-], non-empty, no leading dot, \
                 no `.s<digits>` suffix"
            ),
            ServeError::NotFound(name) => write!(f, "index {name:?} not found"),
            ServeError::AlreadyExists(name) => write!(f, "index {name:?} already exists"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Shard(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Shard(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> Self {
        ServeError::Shard(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Result alias for registry operations.
pub type ServeResult<T> = Result<T, ServeError>;

/// One open index: the shared handle plus its write coalescer.
#[derive(Debug)]
pub struct IndexEntry {
    /// Registry name.
    pub name: String,
    /// The clonable index handle (reads go straight here).
    pub bur: Bur,
    /// The write path (all `Apply` requests funnel through it).
    pub coalescer: Coalescer,
}

/// One open *sharded* index: the logical handle, one write coalescer
/// per shard, and one retry-dedup ledger for the whole index.
///
/// A client write is admitted once and deduplicated once, as a whole
/// ([`Self::apply_session`]): the ledger keys it by the client's
/// `(session, seq)` and caches the write's own aggregate ack, and the
/// shard coalescers see its parts with no session. A retry replays
/// that ack however the routing map has changed in between, so a range
/// migration has no dedup state to move.
#[derive(Debug)]
pub struct ShardedEntry {
    /// Registry name.
    pub name: String,
    /// The logical index over all shards (reads go straight here).
    pub sharded: ShardedBur,
    /// Per-shard write paths, indexed by shard id.
    pub coalescers: Vec<Coalescer>,
    /// Retry dedup for every write to this index.
    ledger: DedupTable,
}

impl ShardedEntry {
    /// Apply one client write and block until every part is durable,
    /// deduplicated by `(session, seq)` like
    /// [`Coalescer::apply_session`] (session `0` opts out).
    ///
    /// The write is routed by key, waiting out any migration whose
    /// frozen range it touches, and admitted as a whole: unless every
    /// part fits its shard's write queue right now, it is shed with
    /// nothing applied. Then [`bur_shard::RoutedWrite::fan_out`] queues
    /// the parts on their shards' coalescers and waits for their acks,
    /// so the shards' committers apply and sync independent parts side
    /// by side. The parts share one expiry decision, made when a
    /// committer first takes one of them, so either every part applies
    /// or none does, and [`ApplyError::Overloaded`] and
    /// [`ApplyError::Expired`] keep meaning "no side effects". The ack
    /// folds the parts' acks: the highest LSN, the most merged
    /// submissions, and the ops applied with each cross-shard update
    /// counted once.
    pub fn apply_session(
        &self,
        session: u128,
        seq: u64,
        ops: &[Op],
        deadline: Option<Instant>,
    ) -> Result<WriteAck, ApplyError> {
        self.serve_write(session, seq, ops, deadline).0
    }

    /// [`Self::apply_session`], also saying whether the ledger answered
    /// the write with a replay.
    pub(crate) fn serve_write(
        &self,
        session: u128,
        seq: u64,
        ops: &[Op],
        deadline: Option<Instant>,
    ) -> (Result<WriteAck, ApplyError>, bool) {
        self.ledger.run_once(session, seq, deadline, || {
            let routed = self
                .sharded
                .route_for_write(ops)
                .map_err(|e| ApplyError::Rejected(e.to_string()))?;
            for (shard, part) in routed.parts() {
                self.coalescers[*shard as usize].admit(part.len())?;
            }
            let split_updates = routed.split_updates();
            let first = routed.parts().first().map(|(shard, _)| *shard as usize);
            let expiry = deadline.map(Expiry::new);
            let acks = routed.fan_out(
                |shard, part| self.coalescers[shard as usize].submit(part, expiry.clone()),
                PendingAck::wait,
            );
            if let (Err(ApplyError::Expired), Some(first)) = (&acks, first) {
                self.coalescers[first].count_expired();
            }
            let mut ack = WriteAck {
                lsn: 0,
                applied: 0,
                merged: 0,
            };
            // Shard logs are independent, so the folded LSN is only an
            // "everything acked" watermark, like `AggregateTicket`'s.
            for (_, part) in acks? {
                ack.lsn = ack.lsn.max(part.lsn);
                ack.applied += part.applied;
                ack.merged = ack.merged.max(part.merged);
            }
            // A cross-shard update ran as delete + insert; count it as
            // the one logical op the client submitted.
            ack.applied = ack.applied.saturating_sub(split_updates);
            Ok(ack)
        })
    }

    /// Retried writes answered from the ledger so far.
    #[must_use]
    pub fn dedup_hits(&self) -> u64 {
        self.ledger.hits()
    }

    /// Client sessions the ledger tracks right now.
    #[must_use]
    pub fn dedup_sessions(&self) -> u64 {
        self.ledger.sessions()
    }

    /// Whether any shard's write queue is past its degraded watermark.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.coalescers.iter().any(|c| c.is_degraded())
    }

    /// Ops queued across every shard's coalescer.
    #[must_use]
    pub fn queued_ops(&self) -> usize {
        self.coalescers.iter().map(|c| c.queued_ops()).sum()
    }
}

/// Either kind of open index the registry can hand out.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A single-shard index (one file, one coalescer).
    Plain(Arc<IndexEntry>),
    /// A sharded index (N shard files + a shard manifest).
    Sharded(Arc<ShardedEntry>),
}

impl Entry {
    /// Registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Entry::Plain(e) => &e.name,
            Entry::Sharded(e) => &e.name,
        }
    }

    /// Objects in the index (summed across shards when sharded).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            Entry::Plain(e) => e.bur.len(),
            Entry::Sharded(e) => e.sharded.len(),
        }
    }

    /// Whether the index holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The plain (unsharded) entry, if this is one.
    #[must_use]
    pub fn as_plain(&self) -> Option<&Arc<IndexEntry>> {
        match self {
            Entry::Plain(e) => Some(e),
            Entry::Sharded(_) => None,
        }
    }

    /// The sharded entry, if this is one.
    #[must_use]
    pub fn as_sharded(&self) -> Option<&Arc<ShardedEntry>> {
        match self {
            Entry::Plain(_) => None,
            Entry::Sharded(e) => Some(e),
        }
    }

    /// Drain the coalescer(s), so late submissions are refused rather
    /// than lost, then flush and checkpoint.
    fn retire(&self) -> ServeResult<()> {
        match self {
            Entry::Plain(e) => {
                e.coalescer.shutdown();
                e.bur.checkpoint()?;
            }
            Entry::Sharded(e) => {
                for c in &e.coalescers {
                    c.shutdown();
                }
                e.sharded.checkpoint()?;
            }
        }
        Ok(())
    }
}

/// Named indexes in one data directory. A plain index lives at
/// `<root>/<name>.bur`; a sharded one at `<root>/<name>.s<k>.bur` (one
/// file per shard) plus the `<root>/<name>.shardmap` routing manifest.
/// Every durable `.bur` file is a pair: its write-ahead log sits beside
/// it in `<file>.wal` (`bur_core::log_path`), opened and created with it
/// by `IndexBuilder::file` and never listed as an index of its own.
/// Opening is idempotent and crash-safe (`Open` mode replays each write-
/// ahead log; an interrupted shard migration rolls back or forward from
/// the manifest).
#[derive(Debug)]
pub struct IndexRegistry {
    root: PathBuf,
    entries: Mutex<BTreeMap<String, Entry>>,
    /// The admission ceiling of every coalescer this registry starts.
    max_queued_ops: usize,
}

/// Shard files of a sharded index are named `<name>.s<k>.bur`, so a
/// stem ending in `.s<digits>` is reserved and refused as an index name.
fn is_shard_stem(name: &str) -> bool {
    name.rsplit_once('.').is_some_and(|(_, suffix)| {
        suffix.len() >= 2
            && suffix.starts_with('s')
            && suffix[1..].bytes().all(|b| b.is_ascii_digit())
    })
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && !is_shard_stem(name)
}

impl IndexRegistry {
    /// Open a registry rooted at `root`, creating the directory if
    /// needed. No indexes are opened eagerly.
    pub fn new(root: impl Into<PathBuf>) -> ServeResult<Self> {
        Self::with_config(root, MAX_QUEUED_OPS)
    }

    /// [`IndexRegistry::new`] with the write-queue admission ceiling
    /// `max_queued_ops` for every index this registry opens.
    pub fn with_config(root: impl Into<PathBuf>, max_queued_ops: usize) -> ServeResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(IndexRegistry {
            root,
            entries: Mutex::new(BTreeMap::new()),
            max_queued_ops,
        })
    }

    /// The data directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_for(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.bur"))
    }

    fn manifest_for(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.shardmap"))
    }

    fn check_name(name: &str) -> ServeResult<()> {
        if valid_name(name) {
            Ok(())
        } else {
            Err(ServeError::BadName(name.to_string()))
        }
    }

    fn builder_for(strategy: StrategyKind, durable: bool) -> IndexBuilder {
        let mut builder = match strategy {
            StrategyKind::TopDown => IndexBuilder::top_down(),
            StrategyKind::Localized => IndexBuilder::localized(),
            StrategyKind::Generalized => IndexBuilder::generalized(),
        };
        if durable {
            builder = builder.durable();
        }
        builder
    }

    /// Create a named index. Refuses to clobber an existing one.
    pub fn create(&self, name: &str, strategy: StrategyKind, durable: bool) -> ServeResult<()> {
        Self::check_name(name)?;
        let mut entries = self.entries.lock();
        if entries.contains_key(name) {
            return Err(ServeError::AlreadyExists(name.to_string()));
        }
        let file = self.file_for(name);
        if file.exists() || self.manifest_for(name).exists() {
            return Err(ServeError::AlreadyExists(name.to_string()));
        }
        let bur = Self::builder_for(strategy, durable)
            .file(&file)
            .create()
            .build()?;
        entries.insert(name.to_string(), Entry::Plain(self.entry(name, bur)));
        Ok(())
    }

    /// Create a named index sharded `shards` ways by Hilbert-key range.
    /// Shard files land at `<name>.s<k>.bur` and the routing manifest at
    /// `<name>.shardmap`. Refuses to clobber an existing index of
    /// either kind.
    pub fn create_sharded(
        &self,
        name: &str,
        strategy: StrategyKind,
        durable: bool,
        shards: u32,
    ) -> ServeResult<()> {
        Self::check_name(name)?;
        if shards == 0 || shards > 1024 {
            return Err(ServeError::Shard(ShardError::Config(format!(
                "shard count {shards} outside 1..=1024"
            ))));
        }
        let mut entries = self.entries.lock();
        if entries.contains_key(name) {
            return Err(ServeError::AlreadyExists(name.to_string()));
        }
        if self.file_for(name).exists() || self.manifest_for(name).exists() {
            return Err(ServeError::AlreadyExists(name.to_string()));
        }
        let sharded = ShardedBur::create_in(&self.root, name, shards, || {
            Self::builder_for(strategy, durable)
        })?;
        entries.insert(
            name.to_string(),
            Entry::Sharded(self.sharded_entry(name, sharded)),
        );
        Ok(())
    }

    fn entry(&self, name: &str, bur: Bur) -> Arc<IndexEntry> {
        Arc::new(IndexEntry {
            name: name.to_string(),
            coalescer: Coalescer::with_config(bur.clone(), self.max_queued_ops),
            bur,
        })
    }

    fn sharded_entry(&self, name: &str, sharded: ShardedBur) -> Arc<ShardedEntry> {
        let coalescers = (0..sharded.shard_count())
            .map(|k| Coalescer::with_config(sharded.shard(k).clone(), self.max_queued_ops))
            .collect();
        Arc::new(ShardedEntry {
            name: name.to_string(),
            sharded,
            coalescers,
            ledger: DedupTable::new(MAX_SESSIONS),
        })
    }

    /// Open the named index from disk, or return the already-open
    /// entry. The kind is auto-detected: a `<name>.shardmap` manifest
    /// means sharded, a bare `<name>.bur` means plain. `Open` mode
    /// auto-recovers from each write-ahead log, and an interrupted
    /// shard migration is rolled back or forward from the manifest, so
    /// this is also the post-crash path.
    pub fn open(&self, name: &str) -> ServeResult<Entry> {
        Self::check_name(name)?;
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.get(name) {
            return Ok(entry.clone());
        }
        let entry = if self.manifest_for(name).exists() {
            let sharded = ShardedBur::open_in(&self.root, name)?;
            Entry::Sharded(self.sharded_entry(name, sharded))
        } else {
            let file = self.file_for(name);
            if !file.exists() {
                return Err(ServeError::NotFound(name.to_string()));
            }
            let bur = IndexBuilder::new().file(&file).open().build()?;
            Entry::Plain(self.entry(name, bur))
        };
        entries.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    /// The open entry for `name`, opening it from disk on demand.
    pub fn get(&self, name: &str) -> ServeResult<Entry> {
        self.open(name)
    }

    /// Every currently open entry (metrics, maintenance sweeps).
    #[must_use]
    pub fn open_entries(&self) -> Vec<Entry> {
        self.entries.lock().values().cloned().collect()
    }

    /// Close the named index: drain its coalescer(s), flush and
    /// checkpoint. Late `Apply` submissions racing the close are refused by
    /// the drained coalescers rather than lost.
    pub fn close(&self, name: &str) -> ServeResult<()> {
        Self::check_name(name)?;
        let entry = {
            let mut entries = self.entries.lock();
            entries
                .remove(name)
                .ok_or_else(|| ServeError::NotFound(name.to_string()))?
        };
        entry.retire()
    }

    /// Every index this registry knows about: open entries plus index
    /// files on disk, as `(name, open)` pairs sorted by name. A sharded
    /// index appears once under its logical name (its `<name>.s<k>.bur`
    /// shard files are not listed individually), and a `.bur.wal` log
    /// sidecar is part of its index, not an entry.
    pub fn list(&self) -> ServeResult<Vec<(String, bool)>> {
        let mut names: BTreeMap<String, bool> = self
            .entries
            .lock()
            .keys()
            .map(|name| (name.clone(), true))
            .collect();
        for dirent in std::fs::read_dir(&self.root)? {
            let path = dirent?.path();
            let ext = path.extension().and_then(|e| e.to_str());
            if !matches!(ext, Some("bur" | "shardmap")) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                // `valid_name` rejects `<name>.s<k>` shard-file stems,
                // so a sharded index is listed only via its manifest.
                if valid_name(stem) {
                    names.entry(stem.to_string()).or_insert(false);
                }
            }
        }
        Ok(names.into_iter().collect())
    }

    /// Close every open index (drain, flush, checkpoint). The registry
    /// stays usable; this is the graceful-shutdown tail.
    pub fn shutdown(&self) {
        let entries: Vec<Entry> = {
            let mut map = self.entries.lock();
            std::mem::take(&mut *map).into_values().collect()
        };
        for entry in entries {
            let _ = entry.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_geom::{Point, Rect};
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bur-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn plain(entry: Entry) -> Arc<IndexEntry> {
        match entry {
            Entry::Plain(e) => e,
            Entry::Sharded(_) => panic!("expected a plain entry"),
        }
    }

    fn sharded(entry: Entry) -> Arc<ShardedEntry> {
        match entry {
            Entry::Sharded(e) => e,
            Entry::Plain(_) => panic!("expected a sharded entry"),
        }
    }

    #[test]
    fn create_open_close_list_roundtrip() {
        let root = tempdir("lifecycle");
        let reg = IndexRegistry::new(&root).expect("registry");
        reg.create("fleet", StrategyKind::Generalized, true)
            .expect("create");
        assert!(matches!(
            reg.create("fleet", StrategyKind::Generalized, true),
            Err(ServeError::AlreadyExists(_))
        ));
        let entry = plain(reg.get("fleet").expect("get"));
        entry
            .coalescer
            .apply(vec![Op::Insert {
                oid: 1,
                rect: Rect::from_point(Point::new(0.5, 0.5)),
            }])
            .expect("apply");
        assert_eq!(entry.bur.len(), 1);
        reg.close("fleet").expect("close");
        assert!(root.join("fleet.bur.wal").exists(), "durable = a file pair");
        assert_eq!(reg.list().expect("list"), vec![("fleet".into(), false)]);
        // Reopen from disk; the insert survived.
        let entry = plain(reg.open("fleet").expect("reopen"));
        assert_eq!(entry.bur.len(), 1);
        assert_eq!(reg.list().expect("list"), vec![("fleet".into(), true)]);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A write to an index whose log a failed `fsync` closed is answered
    /// with an error that says to reopen; closing it is refused too (its
    /// checkpoint), and opening it again recovers it from its file pair.
    #[test]
    fn a_closed_log_refuses_writes_until_close_and_open() {
        use bur_storage::{DiskBackend, FaultKind, FaultyDisk, FileDisk};
        let root = tempdir("closed-log");
        let reg = IndexRegistry::new(&root).expect("registry");
        let file = reg.file_for("fleet");
        let opts = bur_core::IndexOptions::durable();
        let create = |path: &Path| -> Arc<dyn DiskBackend> {
            Arc::new(FileDisk::create(path, opts.page_size).expect("create"))
        };
        let (data, log) = FaultyDisk::pair(create(&file), create(&bur_core::log_path(&file)));
        let bur = IndexBuilder::with_options(opts)
            .disk(data)
            .log_disk(log.clone())
            .build()
            .expect("build");
        let entry = Entry::Plain(reg.entry("fleet", bur));
        reg.entries.lock().insert("fleet".into(), entry);
        let insert = |oid| {
            vec![Op::Insert {
                oid,
                rect: Rect::from_point(Point::new(0.5, 0.5)),
            }]
        };
        let entry = plain(reg.get("fleet").expect("get"));
        entry.coalescer.apply(insert(1)).expect("acked");
        log.fail_nth(FaultKind::Sync, 0);
        assert!(entry.coalescer.apply(insert(2)).is_err(), "refused sync");
        let err = entry.coalescer.apply(insert(3)).expect_err("closed log");
        assert!(err.contains("reopen"), "{err}");
        assert_eq!(
            entry
                .bur
                .query(&Rect::new(0.0, 0.0, 1.0, 1.0))
                .map(|q| q.count())
                .ok(),
            Some(3)
        );
        drop(entry);
        assert!(
            reg.close("fleet").is_err(),
            "the closing checkpoint is refused"
        );
        let entry = plain(reg.open("fleet").expect("recovered from the files"));
        assert_eq!(entry.bur.len(), 1, "only the acked insert");
        entry.coalescer.apply(insert(4)).expect("acks again");
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_lifecycle_roundtrip() {
        let root = tempdir("sharded");
        let reg = IndexRegistry::new(&root).expect("registry");
        reg.create_sharded("grid", StrategyKind::Generalized, true, 4)
            .expect("create sharded");
        // Name now taken for both kinds.
        assert!(matches!(
            reg.create("grid", StrategyKind::Generalized, true),
            Err(ServeError::AlreadyExists(_))
        ));
        assert!(matches!(
            reg.create_sharded("grid", StrategyKind::Generalized, true, 2),
            Err(ServeError::AlreadyExists(_))
        ));
        let entry = sharded(reg.get("grid").expect("get"));
        assert_eq!(entry.coalescers.len(), 4);
        // Writes through per-shard coalescers, routed by key.
        let ops: Vec<Op> = (0..32u64)
            .map(|i| Op::Insert {
                oid: i,
                rect: Rect::from_point(Point::new((i as f32) / 32.0, ((i * 7) % 32) as f32 / 32.0)),
            })
            .collect();
        let routed = entry.sharded.route_for_write(&ops).expect("route");
        assert!(routed.parts().len() > 1, "spread over shards");
        for (shard, sub) in routed.parts() {
            entry.coalescers[*shard as usize]
                .apply(sub.ops().to_vec())
                .expect("apply");
        }
        drop(routed);
        assert_eq!(entry.sharded.len(), 32);
        // The logical name lists once; shard files are not listed.
        assert_eq!(reg.list().expect("list"), vec![("grid".into(), true)]);
        reg.close("grid").expect("close");
        assert_eq!(reg.list().expect("list"), vec![("grid".into(), false)]);
        // Reopen auto-detects the sharded kind and finds every object.
        let entry = sharded(reg.open("grid").expect("reopen"));
        assert_eq!(entry.sharded.len(), 32);
        assert_eq!(entry.sharded.shard_count(), 4);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn names_are_validated() {
        let root = tempdir("names");
        let reg = IndexRegistry::new(&root).expect("registry");
        for bad in [
            "", ".hidden", "a/b", "a b", "..", "x\u{0}", "grid.s0", "a.s12",
        ] {
            assert!(
                matches!(
                    reg.create(bad, StrategyKind::TopDown, false),
                    Err(ServeError::BadName(_))
                ),
                "accepted {bad:?}"
            );
        }
        // `.s<digits>`-free names that merely resemble shard stems pass.
        reg.create("a.sx", StrategyKind::TopDown, false)
            .expect("a.sx is fine");
        reg.create("b.s", StrategyKind::TopDown, false)
            .expect("b.s is fine");
        assert!(matches!(reg.open("missing"), Err(ServeError::NotFound(_))));
        assert!(matches!(
            reg.create_sharded("z", StrategyKind::TopDown, false, 0),
            Err(ServeError::Shard(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    // ---- a sharded write's parts fan out -------------------------------
    //
    // Two shards split the Hilbert curve in half: a point near (0, 0)
    // lies at its start (shard 0), a point near (1, 0) at its end
    // (shard 1). A thread holding a shard's structure lock
    // (`Bur::with_index_mut`) stalls that shard's committer.

    fn near(i: u64) -> Point {
        Point::new(0.001 + i as f32 * 1e-4, 0.002)
    }

    fn far(i: u64) -> Point {
        Point::new(0.999 - i as f32 * 1e-4, 0.002)
    }

    fn insert(oid: u64, p: Point) -> Op {
        Op::Insert {
            oid,
            rect: Rect::from_point(p),
        }
    }

    /// A volatile two-shard index whose `near` points route to shard 0
    /// and `far` points to shard 1.
    fn two_shards(tag: &str) -> (IndexRegistry, PathBuf, Arc<ShardedEntry>) {
        let root = tempdir(tag);
        let reg = IndexRegistry::new(&root).expect("registry");
        reg.create_sharded("fan", StrategyKind::Generalized, false, 2)
            .expect("create sharded");
        let entry = sharded(reg.get("fan").expect("get"));
        assert_eq!(entry.sharded.route_point(near(0)), 0);
        assert_eq!(entry.sharded.route_point(far(0)), 1);
        (reg, root, entry)
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Shard `shard` held by a thread of its own, with its committer
    /// busy behind the hold: it has taken a one-insert blocker (oid
    /// `blocker`) and waits in `apply`, so what is queued after it is
    /// taken only once the hold is released. Dropping the `Stall`, as a
    /// failing test does, releases the hold too.
    struct Stall<'a> {
        release: mpsc::Sender<()>,
        holder: JoinHandle<()>,
        blocker: PendingAck<'a>,
    }

    fn stall(entry: &ShardedEntry, shard: usize, blocker: u64) -> Stall<'_> {
        let bur = entry.sharded.shard(shard).clone();
        let (held_tx, held_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            bur.with_index_mut(|_| {
                held_tx.send(()).expect("held");
                let _ = release_rx.recv();
            });
        });
        held_rx.recv().expect("the hold begins");
        let at = if shard == 0 { near(99) } else { far(99) };
        let expiry = Expiry::new(Instant::now() + Duration::from_secs(600));
        let blocker = entry.coalescers[shard]
            .submit(
                [insert(blocker, at)].into_iter().collect(),
                Some(Arc::clone(&expiry)),
            )
            .expect("queued");
        wait_until("the committer takes the blocker", || expiry.is_decided());
        Stall {
            release,
            holder,
            blocker,
        }
    }

    impl Stall<'_> {
        fn release(self) {
            drop(self.release);
            self.holder.join().expect("holder");
            assert_eq!(self.blocker.wait().expect("the blocker applies").applied, 1);
        }
    }

    #[test]
    fn a_two_part_write_lands_on_a_free_shard_while_another_is_held() {
        let (reg, root, entry) = two_shards("fan-out");
        let ops = [insert(1, near(0)), insert(2, far(0))];
        let held = stall(&entry, 0, 100);
        std::thread::scope(|scope| {
            let write = scope.spawn(|| entry.apply_session(0, 0, &ops, None));
            // Waiting on shard 0's part before queuing shard 1's would
            // leave shard 1 empty until the release.
            wait_until("shard 1's part lands", || entry.sharded.shard(1).len() == 1);
            assert!(!write.is_finished(), "shard 0's part is still held");
            held.release();
            let ack = write.join().expect("writer").expect("acked");
            assert_eq!(ack.applied, 2);
        });
        assert_eq!(entry.sharded.shard(0).len(), 2, "blocker and part");
        assert_eq!(entry.sharded.shard(1).len(), 1);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_write_both_committers_take_past_its_deadline_expires_whole() {
        let (reg, root, entry) = two_shards("fan-expired");
        let ops = [insert(1, near(0)), insert(2, far(0))];
        let held = [stall(&entry, 0, 100), stall(&entry, 1, 101)];
        let deadline = Instant::now() + Duration::from_millis(50);
        std::thread::scope(|scope| {
            let write = scope.spawn(|| entry.apply_session(0, 0, &ops, Some(deadline)));
            wait_until("both parts are queued", || {
                entry.coalescers.iter().all(|c| c.queued_ops() == 2)
            });
            wait_until("the deadline passes", || Instant::now() > deadline);
            for stall in held {
                stall.release();
            }
            let result = write.join().expect("writer");
            assert_eq!(result, Err(ApplyError::Expired));
        });
        for shard in 0..2 {
            assert_eq!(entry.sharded.shard(shard).len(), 1, "only the blocker");
        }
        let expired: u64 = entry.coalescers.iter().map(|c| c.stats().expired).sum();
        assert_eq!(expired, 1, "one write expired");
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_part_taken_in_time_decides_for_a_part_taken_late() {
        let (reg, root, entry) = two_shards("fan-late");
        let ops = [insert(1, near(0)), insert(2, far(0))];
        let held = stall(&entry, 0, 100);
        let deadline = Instant::now() + Duration::from_secs(1);
        std::thread::scope(|scope| {
            let write = scope.spawn(|| entry.apply_session(0, 0, &ops, Some(deadline)));
            wait_until("shard 1 takes its part in time", || {
                entry.sharded.shard(1).len() == 1
            });
            wait_until("the deadline passes", || Instant::now() > deadline);
            held.release();
            let ack = write.join().expect("writer").expect("both parts apply");
            assert_eq!(ack.applied, 2);
        });
        assert_eq!(entry.sharded.shard(0).len(), 2, "blocker and part");
        assert_eq!(entry.sharded.shard(1).len(), 1);
        assert_eq!(entry.coalescers[0].stats().expired, 0);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_write_splitting_an_update_queues_its_parts_one_after_another() {
        let (reg, root, entry) = two_shards("fan-split");
        entry
            .apply_session(0, 0, &[insert(7, near(0))], None)
            .expect("seed");
        // Object 7 moves from shard 0 to shard 1: a delete there, then
        // an insert here.
        let ops = [Op::Update {
            oid: 7,
            old: near(0),
            new: far(0),
        }];
        let held = stall(&entry, 0, 100);
        std::thread::scope(|scope| {
            let write = scope.spawn(|| entry.apply_session(0, 0, &ops, None));
            wait_until("the delete is queued", || {
                entry.coalescers[0].queued_ops() == 2
            });
            // The insert may be queued only once the held delete is
            // acked; the pause gives a write that queues it early the
            // time to show.
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(entry.coalescers[1].queued_ops(), 0, "the insert waits");
            assert_eq!(entry.sharded.shard(1).len(), 0, "shard 1 untouched");
            held.release();
            let ack = write.join().expect("writer").expect("acked");
            assert_eq!(ack.applied, 1, "one logical update");
        });
        assert_eq!(entry.sharded.shard(0).len(), 1, "only the blocker");
        assert_eq!(entry.sharded.shard(1).len(), 1);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
