//! Multi-tenant index registry: named indexes living in one data
//! directory, each paired with its own write [`Coalescer`].

use crate::coalescer::{Coalescer, CoalescerConfig};
use crate::protocol::StrategyKind;
use bur_core::{Bur, CoreError, IndexBuilder};
use bur_shard::{ShardError, ShardOptions, ShardedBur};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// One open *sharded* index: the logical handle plus one write
/// coalescer per shard. `Apply` batches split by routing key and each
/// sub-batch funnels through its shard's coalescer under the client's
/// unchanged `(session, seq)` — the split is deterministic for a fixed
/// routing map, so per-shard retry dedup stays exactly-once.
///
/// The coalescers are `Arc`-shared with the sharded handle's migration
/// hook: when `migrate_range` re-homes a key range, the donor
/// coalescer's completed dedup entries merge into the recipient's right
/// before the ownership flip, so a retry that crosses the migration
/// replays its original ack on the new owner instead of re-applying.
#[derive(Debug)]
pub struct ShardedEntry {
    /// Registry name.
    pub name: String,
    /// The logical index over all shards (reads go straight here).
    pub sharded: ShardedBur,
    /// Per-shard write paths, indexed by shard id.
    pub coalescers: Vec<Arc<Coalescer>>,
    /// Read side: one client write's sub-batches. Write side: the dedup
    /// handover. So a handover never lands between two sub-batches of
    /// one write.
    handover: Arc<RwLock<()>>,
}

impl ShardedEntry {
    /// Hold off the dedup handover while one client write funnels its
    /// sub-batches through the coalescers. Take it after routing: the
    /// routing step waits out migrations, whose handover needs the
    /// write side.
    pub(crate) fn hold_handover(&self) -> RwLockReadGuard<'_, ()> {
        self.handover.read()
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
    coalescer_config: CoalescerConfig,
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
        Self::with_config(root, CoalescerConfig::default())
    }

    /// [`IndexRegistry::new`] with explicit per-index coalescer limits
    /// (queue ceiling, dedup-table bound) applied to every index this
    /// registry opens.
    pub fn with_config(root: impl Into<PathBuf>, config: CoalescerConfig) -> ServeResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(IndexRegistry {
            root,
            entries: Mutex::new(BTreeMap::new()),
            coalescer_config: config,
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

    fn shard_file_for(&self, name: &str, shard: u32) -> PathBuf {
        self.root.join(format!("{name}.s{shard}.bur"))
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
        let mut burs = Vec::with_capacity(shards as usize);
        for k in 0..shards {
            let bur = Self::builder_for(strategy, durable)
                .file(self.shard_file_for(name, k))
                .create()
                .build()?;
            burs.push(bur);
        }
        let sharded =
            ShardedBur::with_manifest(burs, ShardOptions::default(), self.manifest_for(name))?;
        entries.insert(
            name.to_string(),
            Entry::Sharded(self.sharded_entry(name, sharded)),
        );
        Ok(())
    }

    fn entry(&self, name: &str, bur: Bur) -> Arc<IndexEntry> {
        Arc::new(IndexEntry {
            name: name.to_string(),
            coalescer: Coalescer::with_config(bur.clone(), self.coalescer_config),
            bur,
        })
    }

    fn sharded_entry(&self, name: &str, sharded: ShardedBur) -> Arc<ShardedEntry> {
        let coalescers: Vec<Arc<Coalescer>> = (0..sharded.shard_count())
            .map(|k| {
                Arc::new(Coalescer::with_config(
                    sharded.shard(k).clone(),
                    self.coalescer_config,
                ))
            })
            .collect();
        // Exactly-once across rebalances: hand the donor's completed
        // retry-dedup entries to the recipient before each migration's
        // ownership flip. The hook runs while writes into the moving
        // range are frozen, so no slot it exports can race a retry, and
        // under the handover lock, so no write outside the range has
        // applied one sub-batch and not yet begun the next: the
        // recipient would answer that one with the donor's ack.
        let hooked = coalescers.clone();
        let handover = Arc::new(RwLock::new(()));
        let held = Arc::clone(&handover);
        sharded.set_migration_hook(move |from, to| {
            let _writes = held.write();
            let donor = &hooked[from as usize];
            hooked[to as usize].merge_dedup(donor.export_dedup());
        });
        Arc::new(ShardedEntry {
            name: name.to_string(),
            sharded,
            coalescers,
            handover,
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
        let manifest = self.manifest_for(name);
        let entry = if manifest.exists() {
            let m = bur_shard::load_manifest(&manifest)?;
            let mut burs = Vec::with_capacity(m.shards as usize);
            for k in 0..m.shards {
                let file = self.shard_file_for(name, k);
                if !file.exists() {
                    return Err(ServeError::Shard(ShardError::Manifest(format!(
                        "manifest names {} shards but {} is missing",
                        m.shards,
                        file.display()
                    ))));
                }
                burs.push(IndexBuilder::new().file(&file).open().build()?);
            }
            let sharded = ShardedBur::with_manifest(burs, ShardOptions::default(), manifest)?;
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
    /// persist. Late `Apply` submissions racing the close are refused by
    /// the drained coalescers rather than lost.
    pub fn close(&self, name: &str) -> ServeResult<()> {
        Self::check_name(name)?;
        let entry = {
            let mut entries = self.entries.lock();
            entries
                .remove(name)
                .ok_or_else(|| ServeError::NotFound(name.to_string()))?
        };
        match entry {
            Entry::Plain(e) => {
                e.coalescer.shutdown();
                e.bur.persist()?;
            }
            Entry::Sharded(e) => {
                for c in &e.coalescers {
                    c.shutdown();
                }
                e.sharded.persist()?;
            }
        }
        Ok(())
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

    /// Close every open index (drain, flush, persist). The registry
    /// stays usable; this is the graceful-shutdown tail.
    pub fn shutdown(&self) {
        let entries: Vec<Entry> = {
            let mut map = self.entries.lock();
            std::mem::take(&mut *map).into_values().collect()
        };
        for entry in entries {
            match entry {
                Entry::Plain(e) => {
                    e.coalescer.shutdown();
                    let _ = e.bur.persist();
                }
                Entry::Sharded(e) => {
                    for c in &e.coalescers {
                        c.shutdown();
                    }
                    let _ = e.sharded.persist();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_core::Op;
    use bur_geom::{Point, Rect};
    use std::time::{Duration, Instant};

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
                .apply(sub.clone())
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

    /// A migration's dedup handover never lands between the parts of
    /// one client write. The write holds the handover's read side across
    /// its parts, as `apply_sharded` does, so a migration that reaches
    /// its hook meanwhile waits. Were the handover to land between the
    /// parts, the second part's shard would find the `(session, seq)`
    /// slot donated by the first part's shard and answer with that ack
    /// instead of applying.
    #[test]
    fn dedup_handover_waits_for_a_write_between_its_parts() {
        let root = tempdir("handover");
        let reg = IndexRegistry::new(&root).expect("registry");
        reg.create_sharded("idx", StrategyKind::Generalized, false, 2)
            .expect("create sharded");
        let entry = sharded(reg.get("idx").expect("get"));
        let bur = entry.sharded.clone();
        let origin = Point::new(0.0, 0.0);
        let moving = (1u64 << (2 * bur.order())) / 16;
        let donor = bur.route_point(origin);
        let recipient = 1 - donor;
        let grid = (0..32u8).flat_map(|i| {
            (0..32u8)
                .map(move |j| Point::new((f32::from(i) + 0.5) / 32.0, (f32::from(j) + 0.5) / 32.0))
        });
        let kept: Vec<Point> = grid
            .clone()
            .filter(|p| bur.route_point(*p) == donor && bur.key_of(*p) >= moving)
            .take(3)
            .collect();
        let theirs: Vec<Point> = grid
            .filter(|p| bur.route_point(*p) == recipient)
            .take(5)
            .collect();
        let insert = |oid: u64, p: Point| Op::Insert {
            oid,
            rect: Rect::from_point(p),
        };

        // A write routed before the migration holds it between its
        // freeze and its copy until that write is done.
        let early = bur
            .route_for_write(&[insert(100, theirs[0])])
            .expect("route early");
        let epoch = bur.epoch();
        let migrator = {
            let bur = bur.clone();
            std::thread::spawn(move || bur.migrate_range(0, moving, recipient))
        };
        while bur.epoch() == epoch {
            std::thread::sleep(Duration::from_millis(1));
        }

        // The write under test, routed after the freeze: it stays out
        // of the moving range, so it is not frozen.
        let ops: Vec<Op> = (0..)
            .zip(&kept)
            .chain((10..).zip(&theirs))
            .map(|(oid, p)| insert(oid, *p))
            .collect();
        let routed = bur.route_for_write(&ops).expect("route");
        let held = entry.hold_handover();
        let parts = routed.parts();
        let shape: Vec<(u32, usize)> = parts.iter().map(|(s, sub)| (*s, sub.len())).collect();
        assert_eq!(shape, vec![(donor, 3), (recipient, 5)]);
        let first = entry.coalescers[donor as usize]
            .apply_session(0xab, 1, parts[0].1.clone(), None)
            .expect("first part");
        assert_eq!(first.applied, 3);

        // Free the migration to copy and reach its hook. It must not hand
        // over, so it cannot flip, while the write is between its parts.
        drop(early);
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until && bur.route_point(origin) == donor {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(bur.route_point(origin), donor, "the handover waited");
        let second_shard = &entry.coalescers[recipient as usize];
        let hits = second_shard.stats().dedup_hits;
        let second = second_shard
            .apply_session(0xab, 1, parts[1].1.clone(), None)
            .expect("second part");
        assert_eq!(second.applied, 5, "applied, not the first part's ack");
        assert_eq!(second_shard.stats().dedup_hits, hits);

        drop(held);
        drop(routed);
        migrator.join().expect("migrator").expect("migrate");
        assert_eq!(bur.route_point(origin), recipient, "flipped");
        assert_eq!(bur.len(), 8);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
