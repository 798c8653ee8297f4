//! The system under test, reached only through public functions: either an
//! in-process `Bur` handle, or a server started with `bur_serve::start`
//! (the function `burd` calls) and talked to through `BurClient`. Counters
//! are read from the public snapshots and folded into one flat struct so
//! a phase's cost is `after.since(&before)`.

use crate::trace::{now_ns, SpanSink};
use bur_client::BurClient;
use bur_core::{Batch, Bur, IndexBuilder, OpSnapshot};
use bur_geom::{Point, Rect};
use bur_serve::protocol::opcode;
use bur_serve::registry::Entry;
use bur_serve::{start, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// The one index every workload uses.
pub const INDEX: &str = "bench";

/// Pool frames that hold the whole 100k-object tree and its hash index.
pub const FAST_POOL_FRAMES: usize = 16_384;

/// How a workload wants its system built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// In-process `Bur`, volatile, `MemDisk`, pool larger than the tree.
    LocalVolatile,
    /// In-process `Bur`, `durable()` (sync every commit) on a `FileDisk`,
    /// default 256-frame pool.
    LocalDurable,
    /// `bur_serve::start` + one durable GBU index; `shards == 0` is plain.
    Served { shards: u32 },
}

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub enum Sut {
    Local { bur: Bur, file: Option<PathBuf> },
    Served { handle: ServerHandle, dir: PathBuf },
}

impl Sut {
    /// Build an empty system in `dir` (which must be empty).
    pub fn build(build: Build, dir: &Path) -> Res<Sut> {
        match build {
            Build::LocalVolatile => Ok(Sut::Local {
                bur: IndexBuilder::generalized()
                    .buffer_frames(FAST_POOL_FRAMES)
                    .build()
                    .map_err(err("build volatile index"))?,
                file: None,
            }),
            Build::LocalDurable => {
                let file = dir.join("bench.bur");
                Ok(Sut::Local {
                    bur: IndexBuilder::generalized()
                        .durable()
                        .file(&file)
                        .build()
                        .map_err(err("build durable index"))?,
                    file: Some(file),
                })
            }
            Build::Served { shards } => {
                let handle = start(ServerConfig::new(dir)).map_err(err("start server"))?;
                let mut admin = BurClient::connect(handle.addr()).map_err(err("connect"))?;
                if shards == 0 {
                    admin.create_index(INDEX, "gbu", true)
                } else {
                    admin.create_sharded_index(INDEX, "gbu", true, shards)
                }
                .map_err(err("create index"))?;
                Ok(Sut::Served {
                    handle,
                    dir: dir.to_path_buf(),
                })
            }
        }
    }

    /// Reopen a durable in-process index after its handle was dropped
    /// without a flush; returns the system and the recovery time in ms.
    pub fn recover(file: &Path) -> Res<(Sut, f64)> {
        let t0 = now_ns();
        let bur = IndexBuilder::generalized()
            .file(file)
            .recover()
            .build()
            .map_err(err("recover"))?;
        let ms = (now_ns() - t0) as f64 / 1e6;
        let file = Some(file.to_path_buf());
        Ok((Sut::Local { bur, file }, ms))
    }

    pub fn connector(&self) -> Connector {
        match self {
            Sut::Local { bur, .. } => Connector::Local(bur.clone()),
            Sut::Served { handle, .. } => Connector::Remote(handle.addr()),
        }
    }

    fn entry(&self) -> Option<Entry> {
        match self {
            Sut::Local { .. } => None,
            Sut::Served { handle, .. } => handle.registry().get(INDEX).ok(),
        }
    }

    /// Every underlying index handle: the one `Bur`, or one per shard.
    pub fn burs(&self) -> Vec<Bur> {
        match (self, self.entry()) {
            (Sut::Local { bur, .. }, _) => vec![bur.clone()],
            (_, Some(Entry::Plain(e))) => vec![e.bur.clone()],
            (_, Some(Entry::Sharded(e))) => (0..e.sharded.shard_count())
                .map(|k| e.sharded.shard(k).clone())
                .collect(),
            (_, None) => Vec::new(),
        }
    }

    /// The served sharded entry, when this is the sharded workload.
    pub fn sharded(&self) -> Option<std::sync::Arc<bur_serve::registry::ShardedEntry>> {
        self.entry().and_then(|e| e.as_sharded().cloned())
    }

    pub fn is_served(&self) -> bool {
        matches!(self, Sut::Served { .. })
    }

    /// The durable in-process index's file, if that is what this is.
    pub fn local_file(&self) -> Option<&Path> {
        match self {
            Sut::Local { file, .. } => file.as_deref(),
            Sut::Served { .. } => None,
        }
    }

    /// Bytes of index files on disk (0 for a volatile index).
    pub fn file_bytes(&self) -> u64 {
        match self {
            Sut::Local { file, .. } => file
                .as_ref()
                .and_then(|f| std::fs::metadata(f).ok())
                .map_or(0, |m| m.len()),
            Sut::Served { dir, .. } => crate::host::dir_bytes(dir),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for bur in self.burs() {
            c.add_op(&bur.with_op_stats(bur_core::OpStats::snapshot));
            let io = bur.io_snapshot();
            c.io_reads += io.reads;
            c.io_writes += io.writes;
            c.io_fetches += io.fetches;
            if let Some(w) = bur.wal_stats() {
                c.wal_bytes += w.bytes_appended;
                c.wal_records += w.records;
                c.wal_images += w.images;
                c.wal_deltas += w.deltas;
                c.wal_commits += w.commits;
                c.wal_checkpoints += w.checkpoints;
                c.wal_syncs += w.syncs;
                c.wal_page_writes += w.page_writes;
                c.wal_log_pages += w.log_pages as u64;
            }
        }
        let coalescers = match self.entry() {
            Some(Entry::Plain(e)) => vec![e.coalescer.stats()],
            Some(Entry::Sharded(e)) => e.coalescers.iter().map(|c| c.stats()).collect(),
            None => Vec::new(),
        };
        for s in coalescers {
            c.co_rounds += s.rounds;
            c.co_submissions += s.submissions;
            c.co_ops += s.ops;
            c.co_shed += s.shed_writes;
            c.co_expired += s.expired;
            c.co_dedup += s.dedup_hits;
        }
        if let Sut::Served { handle, .. } = self {
            let m = handle.metrics();
            if let Some(h) = m.histogram(opcode::APPLY) {
                c.srv_apply_n = h.count();
                c.srv_apply_ns = h.mean_nanos() * h.count();
            }
            c.srv_errors = m.request_errors.load(std::sync::atomic::Ordering::Relaxed);
        }
        c
    }

    /// Server-side `(p50, p99)` of an opcode in us, since server start
    /// (the histogram has log2 buckets and cannot be windowed).
    pub fn server_quantiles_us(&self, op: u8) -> Option<(f64, f64)> {
        let Sut::Served { handle, .. } = self else {
            return None;
        };
        let h = handle.metrics().histogram(op)?;
        (h.count() > 0).then(|| {
            (
                h.quantile_nanos(0.50) as f64 / 1e3,
                h.quantile_nanos(0.99) as f64 / 1e3,
            )
        })
    }

    /// In-process: `validate()`. Served: `len` over the wire. Both must
    /// also hold exactly `objects` objects.
    pub fn check_integrity(&self, objects: u64) -> Res<()> {
        let len = match self {
            Sut::Local { bur, .. } => {
                bur.validate().map_err(err("validate"))?;
                bur.len()
            }
            Sut::Served { handle, .. } => BurClient::connect(handle.addr())
                .and_then(|mut c| c.len(INDEX))
                .map_err(err("len"))?,
        };
        if len == objects {
            Ok(())
        } else {
            Err(format!("index holds {len} objects, expected {objects}"))
        }
    }

    /// Stop the server (drain, flush, checkpoint) or drop the handle.
    pub fn shutdown(self) {
        if let Sut::Served { handle, .. } = self {
            handle.shutdown();
        }
    }
}

/// What a generator thread needs to open its own connection.
#[derive(Clone)]
pub enum Connector {
    Local(Bur),
    Remote(SocketAddr),
}

impl Connector {
    pub fn connect(&self) -> Res<Conn> {
        Ok(match self {
            Connector::Local(bur) => Conn::Local(bur.clone()),
            Connector::Remote(addr) => {
                Conn::Remote(BurClient::connect(*addr).map_err(err("connect"))?)
            }
        })
    }
}

/// When an in-process `Bur::apply` started, returned, and was acknowledged
/// (`CommitTicket::wait` returned), on the `now_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct ApplyTimes {
    pub start_ns: u64,
    pub called_ns: u64,
    pub acked_ns: u64,
}

impl ApplyTimes {
    /// Record the call and the wait as children of span `parent`.
    pub fn record(&self, sink: &mut SpanSink, request: u64, parent: u32) {
        sink.record(
            "core.apply_call",
            request,
            parent,
            self.start_ns,
            self.called_ns,
        );
        sink.record(
            "core.ticket_wait",
            request,
            parent,
            self.called_ns,
            self.acked_ns,
        );
    }
}

/// One caller's view of the system: the three request kinds, timed by the
/// caller. `apply` returns only when the batch is acknowledged (durably
/// where the index is durable).
pub enum Conn {
    Local(Bur),
    Remote(BurClient),
}

impl Conn {
    /// Apply one batch and wait for its acknowledgement. An in-process
    /// handle also says when the `apply` call returned, so a tracing caller
    /// can tell the call from the ticket wait; over the wire there is one
    /// client call and nothing to split.
    pub fn apply(&mut self, batch: &Batch) -> Res<Option<ApplyTimes>> {
        match self {
            Conn::Local(bur) => {
                let start_ns = now_ns();
                let ticket = bur.apply(batch).map_err(err("apply"))?;
                let called_ns = now_ns();
                ticket.wait().map_err(err("ticket wait"))?;
                Ok(Some(ApplyTimes {
                    start_ns,
                    called_ns,
                    acked_ns: now_ns(),
                }))
            }
            Conn::Remote(client) => {
                client.apply(INDEX, batch).map_err(err("remote apply"))?;
                Ok(None)
            }
        }
    }

    /// Window query; returns the number of hits, which are left in `out`.
    pub fn query(&mut self, window: &Rect, out: &mut Vec<u64>) -> Res<usize> {
        out.clear();
        match self {
            Conn::Local(bur) => bur.query(window).map_err(err("query"))?.collect_into(out),
            Conn::Remote(client) => {
                for id in client.query(INDEX, window).map_err(err("remote query"))? {
                    out.push(id.map_err(err("query stream"))?);
                }
            }
        }
        Ok(out.len())
    }

    /// k nearest neighbours of `point` as `(oid, distance)`, closest first.
    pub fn nearest(&mut self, point: Point, k: usize, out: &mut Vec<(u64, f32)>) -> Res<()> {
        out.clear();
        match self {
            Conn::Local(bur) => out.extend(
                bur.nearest(point, k)
                    .map_err(err("nearest"))?
                    .map(|n| (n.oid, n.distance)),
            ),
            Conn::Remote(client) => {
                for n in client
                    .nearest(INDEX, point, k)
                    .map_err(err("remote nearest"))?
                {
                    let n = n.map_err(err("nearest stream"))?;
                    out.push((n.oid, n.distance));
                }
            }
        }
        Ok(())
    }

    pub fn ping(&mut self) -> Res<()> {
        match self {
            Conn::Local(_) => Ok(()),
            Conn::Remote(client) => client.ping().map_err(err("ping")),
        }
    }

    /// `(retries, reconnects)` this connection performed.
    pub fn retry_counts(&self) -> (u64, u64) {
        match self {
            Conn::Local(_) => (0, 0),
            Conn::Remote(client) => (client.retries(), client.reconnects()),
        }
    }
}

macro_rules! counters {
    ($($field:ident),+ $(,)?) => {
        /// Monotonic counters of every layer, summed over shards.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)+
        }

        impl Counters {
            /// Counter-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }
        }
    };
}

counters! {
    op_updates, op_in_place, op_extended, op_shifted, op_ascended, op_top_down,
    op_splits, op_condenses, op_escalations, op_make_room,
    io_reads, io_writes, io_fetches,
    wal_bytes, wal_records, wal_images, wal_deltas, wal_commits, wal_checkpoints,
    wal_syncs, wal_page_writes, wal_log_pages,
    co_rounds, co_submissions, co_ops, co_shed, co_expired, co_dedup,
    srv_apply_n, srv_apply_ns, srv_errors,
}

impl Counters {
    fn add_op(&mut self, s: &OpSnapshot) {
        self.op_updates += s.updates;
        self.op_in_place += s.upd_in_place;
        self.op_extended += s.upd_extended;
        self.op_shifted += s.upd_shifted;
        self.op_ascended += s.upd_ascended;
        self.op_top_down += s.upd_top_down;
        self.op_splits += s.splits;
        self.op_condenses += s.condenses;
        self.op_escalations += s.escalations;
        self.op_make_room += s.make_room_splits;
    }
}
