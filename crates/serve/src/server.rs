//! The `burd` server proper: a std `TcpListener` accept loop feeding a
//! bounded thread-per-connection pool, request dispatch over the wire
//! protocol, and the graceful-shutdown contract (stop accepting → join
//! connections → drain coalescers → flush and checkpoint every index).

use crate::coalescer::{ApplyError, WriteAck, MAX_QUEUED_OPS};
use crate::metrics::ServerMetrics;
use crate::protocol::{Request, Response, WireNeighbor};
use crate::registry::{Entry, IndexRegistry, ServeResult, ShardedEntry};
use crate::wire::{self, FrameError};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result ids per streamed response frame (window queries and kNN).
const CHUNK: usize = 512;

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// Everything `burd` needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data directory holding the named `.bur` index files.
    pub data_dir: std::path::PathBuf,
    /// Bind address; use port 0 to let the OS pick (the bound address
    /// is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-pool bound: further clients are refused with an
    /// error frame, not queued.
    pub max_connections: usize,
    /// Per-index write-queue admission ceiling (ops queued or in
    /// flight); batches past it are shed with `overloaded` frames, and
    /// half of it is the degraded-mode watermark that sheds queries.
    pub max_queued_ops: usize,
    /// Shard count for plain `create` requests: with a value > 1 the
    /// server creates every new index sharded that many ways
    /// (`burd --shards N`). Explicit `create_sharded` requests carry
    /// their own count and ignore this.
    pub default_shards: u32,
}

impl ServerConfig {
    /// Defaults: loopback on an OS-assigned port, 64 connections,
    /// 16384-op write queues, unsharded creates.
    pub fn new(data_dir: impl Into<std::path::PathBuf>) -> Self {
        ServerConfig {
            data_dir: data_dir.into(),
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_queued_ops: MAX_QUEUED_OPS,
            default_shards: 1,
        }
    }
}

struct ConnCtx {
    registry: Arc<IndexRegistry>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    degraded: Arc<AtomicBool>,
    addr: SocketAddr,
    default_shards: u32,
}

/// A running server. Dropping the handle does NOT stop the server;
/// call [`ServerHandle::shutdown`] (or send the `shutdown` opcode) and
/// then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<IndexRegistry>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    degraded: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<Vec<JoinHandle<()>>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Bind, start the accept loop, return immediately.
pub fn start(config: ServerConfig) -> ServeResult<ServerHandle> {
    let registry = Arc::new(IndexRegistry::with_config(
        &config.data_dir,
        config.max_queued_ops,
    )?);
    let metrics = Arc::new(ServerMetrics::default());
    let stop = Arc::new(AtomicBool::new(false));
    let degraded = Arc::new(AtomicBool::new(false));
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let ctx = Arc::new(ConnCtx {
        registry: Arc::clone(&registry),
        metrics: Arc::clone(&metrics),
        stop: Arc::clone(&stop),
        degraded: Arc::clone(&degraded),
        addr,
        default_shards: config.default_shards.max(1),
    });
    let max_connections = config.max_connections.max(1);
    let accept = std::thread::Builder::new()
        .name("burd-accept".into())
        .spawn(move || accept_loop(&listener, &ctx, max_connections))
        .expect("spawn accept thread");
    Ok(ServerHandle {
        addr,
        registry,
        metrics,
        stop,
        degraded,
        accept: Mutex::new(Some(accept)),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The index registry (shared with the serving threads).
    #[must_use]
    pub fn registry(&self) -> &Arc<IndexRegistry> {
        &self.registry
    }

    /// Server-wide metrics.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Force (or clear) degraded mode: while set, queries are shed with
    /// `overloaded` frames and writes keep flowing. The same mode also
    /// engages automatically when an index's write queue crosses its
    /// watermark; this override is for drills and manual load relief.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::SeqCst);
    }

    /// Whether the manual degraded-mode override is set.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Ask the server to stop and block until it has: stop accepting,
    /// join every connection thread, drain each index's coalescer,
    /// flush and checkpoint. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        poke(self.addr);
        self.wait();
    }

    /// Block until the server has stopped (via [`ServerHandle::shutdown`]
    /// or a client's `shutdown` request) and the shutdown tail —
    /// connection joins, coalescer drains, flush, checkpoint — has run.
    pub fn wait(&self) {
        let accept = self.accept.lock().take();
        if let Some(accept) = accept {
            let conns = accept.join().unwrap_or_default();
            for conn in conns {
                let _ = conn.join();
            }
            self.registry.shutdown();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    ctx: &Arc<ConnCtx>,
    max_connections: usize,
) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => break,
        };
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|h| !h.is_finished());
        if conns.len() >= max_connections {
            ctx.metrics
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream);
            continue;
        }
        ctx.metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        ctx.metrics
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        let ctx = Arc::clone(ctx);
        let handle = std::thread::Builder::new()
            .name("burd-conn".into())
            .spawn(move || {
                connection_loop(stream, &ctx);
                ctx.metrics
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        conns.push(handle);
    }
    conns
}

/// Wake a listener blocked in `accept` so it can observe the stop flag.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

fn refuse(mut stream: TcpStream) {
    let _ = send(
        &mut stream,
        0,
        &Response::Err {
            message: "server at capacity".to_string(),
        },
    );
}

fn send(stream: &mut TcpStream, request_id: u64, resp: &Response) -> io::Result<()> {
    let mut out = Vec::with_capacity(64);
    wire::write_frame(&mut out, request_id, resp.opcode(), &resp.encode_payload());
    stream.write_all(&out)
}

fn connection_loop(mut stream: TcpStream, ctx: &ConnCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
        let frame = match wire::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(FrameError::Io(_)) => break,
            Err(FrameError::Wire(e)) => {
                // A malformed frame poisons only this connection: answer
                // with an error frame (id 0 — the real id is unknowable)
                // and close. The server and its sibling connections are
                // untouched.
                ctx.metrics.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    &mut stream,
                    0,
                    &Response::Err {
                        message: format!("malformed frame: {e}"),
                    },
                );
                break;
            }
        };
        let started = Instant::now();
        // Relative budget → absolute deadline, anchored at frame
        // receipt (clients and servers need not share a clock).
        let deadline = frame
            .deadline_ms
            .map(|ms| started + Duration::from_millis(u64::from(ms)));
        let req = match Request::decode(frame.opcode, &frame.payload) {
            Ok(req) => req,
            Err(e) => {
                ctx.metrics.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let _ = send(
                    &mut stream,
                    frame.request_id,
                    &Response::Err {
                        message: format!("bad request: {e}"),
                    },
                );
                break;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let io = serve_request(&mut stream, frame.request_id, req, ctx, deadline);
        ctx.metrics.record(frame.opcode, started.elapsed());
        if io.is_err() {
            break;
        }
        if is_shutdown {
            ctx.stop.store(true, Ordering::SeqCst);
            poke(ctx.addr);
            break;
        }
    }
}

fn serve_request(
    stream: &mut TcpStream,
    id: u64,
    req: Request,
    ctx: &ConnCtx,
    deadline: Option<Instant>,
) -> io::Result<()> {
    let reply = |stream: &mut TcpStream, resp: Response| -> io::Result<()> {
        if matches!(resp, Response::Err { .. }) {
            ctx.metrics.request_errors.fetch_add(1, Ordering::Relaxed);
        }
        send(stream, id, &resp)
    };
    let err = |e: &dyn std::fmt::Display| Response::Err {
        message: e.to_string(),
    };
    // A request that is already past its deadline gets an `expired`
    // frame instead of a coalescer slot or an index lock; the
    // connection itself stays healthy.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        ctx.metrics.requests_expired.fetch_add(1, Ordering::Relaxed);
        return reply(
            stream,
            Response::Expired {
                message: "deadline passed before dispatch".to_string(),
            },
        );
    }
    match req {
        Request::Ping => reply(stream, Response::Pong),
        Request::Shutdown => reply(stream, Response::Ok),
        Request::Create {
            name,
            strategy,
            durable,
        } => {
            // `burd --shards N` makes every plain create sharded N ways.
            let resp = if ctx.default_shards > 1 {
                match ctx
                    .registry
                    .create_sharded(&name, strategy, durable, ctx.default_shards)
                {
                    Ok(()) => Response::Ok,
                    Err(e) => err(&e),
                }
            } else {
                match ctx.registry.create(&name, strategy, durable) {
                    Ok(()) => Response::Ok,
                    Err(e) => err(&e),
                }
            };
            reply(stream, resp)
        }
        Request::CreateSharded {
            name,
            strategy,
            durable,
            shards,
        } => {
            let resp = match ctx
                .registry
                .create_sharded(&name, strategy, durable, shards)
            {
                Ok(()) => Response::Ok,
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Open { name } => {
            let resp = match ctx.registry.open(&name) {
                Ok(_) => Response::Ok,
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Close { name } => {
            let resp = match ctx.registry.close(&name) {
                Ok(()) => Response::Ok,
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::List => {
            let resp = match ctx.registry.list() {
                Ok(names) => Response::Names { names },
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Apply {
            index,
            session,
            seq,
            ops,
        } => {
            let resp = match ctx.registry.get(&index) {
                Ok(Entry::Plain(entry)) => write_response(
                    ctx,
                    entry.coalescer.serve_write(session, seq, ops, deadline),
                ),
                Ok(Entry::Sharded(entry)) => {
                    write_response(ctx, entry.serve_write(session, seq, &ops, deadline))
                }
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Query { index, window } => match ctx.registry.get(&index) {
            Ok(Entry::Plain(entry)) => {
                if let Some(resp) = shed_query(ctx, &entry) {
                    return reply(stream, resp);
                }
                let cursor = match entry.bur.query(&window) {
                    Ok(cursor) => cursor,
                    Err(e) => return reply(stream, err(&e)),
                };
                stream_chunks(stream, id, cursor.remaining(), |ids| Response::IdChunk {
                    ids: ids.to_vec(),
                    last: false,
                })
            }
            Ok(Entry::Sharded(entry)) => {
                if let Some(resp) = shed_sharded_query(ctx, &entry) {
                    return reply(stream, resp);
                }
                let mut scatter = match entry.sharded.query(&window) {
                    Ok(scatter) => scatter,
                    Err(e) => return reply(stream, err(&e)),
                };
                let mut ids = Vec::new();
                bur_shard::ScatterQuery::collect_into(&mut scatter, &mut ids);
                stream_chunks(stream, id, &ids, |ids| Response::IdChunk {
                    ids: ids.to_vec(),
                    last: false,
                })
            }
            Err(e) => reply(stream, err(&e)),
        },
        Request::Knn { index, point, k } => {
            let neighbors: Vec<WireNeighbor> = match ctx.registry.get(&index) {
                Ok(Entry::Plain(entry)) => {
                    if let Some(resp) = shed_query(ctx, &entry) {
                        return reply(stream, resp);
                    }
                    match entry.bur.nearest(point, k as usize) {
                        Ok(cursor) => cursor
                            .map(|n| WireNeighbor {
                                oid: n.oid,
                                distance: n.distance,
                            })
                            .collect(),
                        Err(e) => return reply(stream, err(&e)),
                    }
                }
                Ok(Entry::Sharded(entry)) => {
                    if let Some(resp) = shed_sharded_query(ctx, &entry) {
                        return reply(stream, resp);
                    }
                    match entry
                        .sharded
                        .nearest(point, k as usize)
                        .and_then(bur_shard::MergedNeighbors::try_collect)
                    {
                        Ok(neighbors) => neighbors
                            .into_iter()
                            .map(|n| WireNeighbor {
                                oid: n.oid,
                                distance: n.distance,
                            })
                            .collect(),
                        Err(e) => return reply(stream, err(&e)),
                    }
                }
                Err(e) => return reply(stream, err(&e)),
            };
            stream_chunks(stream, id, &neighbors, |chunk| Response::NeighborChunk {
                neighbors: chunk.to_vec(),
                last: false,
            })
        }
        Request::Len { index } => {
            let resp = match ctx.registry.get(&index) {
                Ok(entry) => Response::Count { value: entry.len() },
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Stats { index } => {
            let resp = match ctx.registry.get(&index) {
                Ok(Entry::Plain(entry)) => Response::Text {
                    text: index_stats_text(&entry),
                },
                Ok(Entry::Sharded(entry)) => Response::Text {
                    text: sharded_stats_text(&entry),
                },
                Err(e) => err(&e),
            };
            reply(stream, resp)
        }
        Request::Metrics => {
            // The server-wide dump plus the per-shard gauges of every
            // open sharded index, the log gauges of every open durable
            // index, and the escalation total across every
            // open index (the shared write path's contention tripwire).
            let mut text = ctx.metrics.render();
            let mut escalations = 0u64;
            for entry in ctx.registry.open_entries() {
                match entry {
                    Entry::Plain(e) => {
                        escalations += e.bur.with_op_stats(|s| s.snapshot()).escalations;
                        wal_gauges(&mut text, &format!("index=\"{}\"", e.name), &e.bur);
                    }
                    Entry::Sharded(e) => {
                        for k in 0..e.sharded.shard_count() {
                            escalations += e
                                .sharded
                                .shard(k)
                                .with_op_stats(|s| s.snapshot())
                                .escalations;
                        }
                        text.push_str(&shard_gauges(&e));
                    }
                }
            }
            text.push_str(&format!("burd_escalations {escalations}\n"));
            reply(stream, Response::Text { text })
        }
    }
}

/// Translate a client write's outcome into the wire response and count
/// the shared metrics; `replayed` says the dedup table answered it.
fn write_response(
    ctx: &ConnCtx,
    (result, replayed): (Result<WriteAck, ApplyError>, bool),
) -> Response {
    if replayed {
        ctx.metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }
    match result {
        Ok(WriteAck {
            lsn,
            applied,
            merged,
        }) => Response::Ack {
            lsn,
            applied,
            merged,
        },
        Err(e @ ApplyError::Overloaded { .. }) => {
            ctx.metrics.writes_shed.fetch_add(1, Ordering::Relaxed);
            Response::Overloaded {
                message: e.to_string(),
            }
        }
        Err(e @ ApplyError::Expired) => {
            ctx.metrics.requests_expired.fetch_add(1, Ordering::Relaxed);
            Response::Expired {
                message: e.to_string(),
            }
        }
        Err(ApplyError::Rejected(message)) => Response::Err { message },
    }
}

/// Degraded-mode check for read requests: queries are shed — with a
/// retryable `overloaded` frame — when the operator forced degraded
/// mode or the index's write queue is past its watermark. Writes are
/// never shed here; the coalescer's own admission ceiling governs them.
fn shed_query(ctx: &ConnCtx, entry: &crate::registry::IndexEntry) -> Option<Response> {
    if ctx.degraded.load(Ordering::SeqCst) || entry.coalescer.is_degraded() {
        ctx.metrics.queries_shed.fetch_add(1, Ordering::Relaxed);
        return Some(Response::Overloaded {
            message: format!(
                "degraded: query shed ({} ops queued on {:?}); retry later",
                entry.coalescer.queued_ops(),
                entry.name
            ),
        });
    }
    None
}

/// [`shed_query`] for a sharded index: one shard past its watermark
/// sheds the whole scatter (a gather blocked on the hot shard would
/// hold every other shard's results hostage anyway).
fn shed_sharded_query(ctx: &ConnCtx, entry: &ShardedEntry) -> Option<Response> {
    if ctx.degraded.load(Ordering::SeqCst) || entry.is_degraded() {
        ctx.metrics.queries_shed.fetch_add(1, Ordering::Relaxed);
        return Some(Response::Overloaded {
            message: format!(
                "degraded: query shed ({} ops queued across {} shards of {:?}); retry later",
                entry.queued_ops(),
                entry.coalescers.len(),
                entry.name
            ),
        });
    }
    None
}

/// Send `items` as a sequence of chunk frames under one request id,
/// flipping `last` on the final (possibly empty) chunk.
fn stream_chunks<T>(
    stream: &mut TcpStream,
    id: u64,
    items: &[T],
    make: impl Fn(&[T]) -> Response,
) -> io::Result<()> {
    let mut sent = 0;
    while items.len() - sent > CHUNK {
        send(stream, id, &make(&items[sent..sent + CHUNK]))?;
        sent += CHUNK;
    }
    let mut tail = make(&items[sent..]);
    match &mut tail {
        Response::IdChunk { last, .. } | Response::NeighborChunk { last, .. } => *last = true,
        _ => {}
    }
    send(stream, id, &tail)
}

/// The `stats` opcode's plaintext gauge dump for one index.
fn index_stats_text(entry: &crate::registry::IndexEntry) -> String {
    let mut out = String::with_capacity(512);
    let bur = &entry.bur;
    let label = &entry.name;
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!("bur_{name}{{index=\"{label}\"}} {v}\n"));
    };
    gauge("objects", bur.len());
    gauge("height", u64::from(bur.height()));
    gauge("durable", u64::from(bur.is_durable()));
    let io = bur.io_snapshot();
    gauge("io_reads", io.reads);
    gauge("io_writes", io.writes);
    gauge("io_fetches", io.fetches);
    gauge("io_allocations", io.allocations);
    let ops = bur.with_op_stats(|s| s.snapshot());
    gauge("op_inserts", ops.inserts);
    gauge("op_updates", ops.updates);
    gauge("op_deletes", ops.deletes);
    gauge("op_queries", ops.queries);
    gauge("op_splits", ops.splits);
    gauge("op_escalations", ops.escalations);
    gauge(
        "peak_concurrent_batches",
        bur.peak_concurrent_batches() as u64,
    );
    let co = entry.coalescer.stats();
    gauge("coalescer_rounds", co.rounds);
    gauge("coalescer_submissions", co.submissions);
    gauge("coalescer_ops", co.ops);
    gauge("coalescer_shed_writes", co.shed_writes);
    gauge("coalescer_expired", co.expired);
    gauge("coalescer_dedup_hits", co.dedup_hits);
    gauge("coalescer_dedup_sessions", co.dedup_sessions);
    gauge("coalescer_queued_ops", co.queued_ops);
    gauge("degraded", u64::from(entry.coalescer.is_degraded()));
    wal_gauges(&mut out, &format!("index=\"{label}\""), bur);
    out
}

/// The write-ahead-log gauges of one index or shard (nothing for a
/// volatile one), labelled `labels`. The two `_seconds_total` gauges are
/// where a durable update's time goes besides the tree: inside `fsync` on
/// the log's disk, and inside checkpoints (which is where the data disk
/// is flushed and synced).
fn wal_gauges(out: &mut String, labels: &str, bur: &bur_core::Bur) {
    let Some(wal) = bur.wal_stats() else {
        return;
    };
    let mut gauge = |name: &str, v: &dyn std::fmt::Display| {
        out.push_str(&format!("bur_wal_{name}{{{labels}}} {v}\n"));
    };
    let seconds = |nanos: u64| format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000);
    gauge("records", &wal.records);
    gauge("commits", &wal.commits);
    gauge("syncs", &wal.syncs);
    gauge("sync_seconds_total", &seconds(wal.sync_nanos));
    gauge("checkpoints", &wal.checkpoints);
    gauge("checkpoint_seconds_total", &seconds(wal.checkpoint_nanos));
    gauge("checkpoint_pages_flushed", &wal.checkpoint_pages_flushed);
    gauge("last_lsn", &wal.last_lsn);
    gauge("durable_lsn", &wal.durable_lsn);
}

/// The `stats` opcode's plaintext gauge dump for one sharded index:
/// logical totals plus the per-shard gauges from [`shard_gauges`].
fn sharded_stats_text(entry: &ShardedEntry) -> String {
    let label = &entry.name;
    let stats = entry.sharded.stats();
    let mut out = String::with_capacity(1024);
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!("bur_{name}{{index=\"{label}\"}} {v}\n"));
    };
    gauge("objects", entry.sharded.len());
    gauge("durable", u64::from(entry.sharded.is_durable()));
    gauge("shards", stats.shards.len() as u64);
    gauge("shard_epoch", stats.epoch);
    gauge("shard_segments", stats.segments as u64);
    gauge("shard_migrating", u64::from(stats.migrating));
    gauge("degraded", u64::from(entry.is_degraded()));
    out.push_str(&shard_gauges(entry));
    out
}

/// Per-shard size/depth/queue gauges, labeled `{index, shard}`, plus
/// the index-wide imbalance ratio and dedup ledger, labeled `{index}`;
/// appended to both `stats` and the server-wide `metrics` dump.
fn shard_gauges(entry: &ShardedEntry) -> String {
    let label = &entry.name;
    let stats = entry.sharded.stats();
    let mut out = String::with_capacity(256 * stats.shards.len());
    for (k, load) in stats.shards.iter().enumerate() {
        let mut gauge = |name: &str, v: u64| {
            out.push_str(&format!(
                "bur_{name}{{index=\"{label}\",shard=\"{k}\"}} {v}\n"
            ));
        };
        gauge("shard_objects", load.len);
        gauge("shard_height", u64::from(load.height));
        let co = entry.coalescers[k].stats();
        gauge("shard_queued_ops", co.queued_ops);
        gauge("shard_coalescer_rounds", co.rounds);
        gauge(
            "shard_escalations",
            entry
                .sharded
                .shard(k)
                .with_op_stats(|s| s.snapshot())
                .escalations,
        );
        gauge(
            "shard_degraded",
            u64::from(entry.coalescers[k].is_degraded()),
        );
        wal_gauges(
            &mut out,
            &format!("index=\"{label}\",shard=\"{k}\""),
            entry.sharded.shard(k),
        );
    }
    let mut gauge = |name: &str, v: u64| {
        out.push_str(&format!("bur_{name}{{index=\"{label}\"}} {v}\n"));
    };
    // Milli-units: the gauge grammar is integer-only.
    gauge("shard_imbalance_milli", (stats.imbalance * 1000.0) as u64);
    gauge("dedup_hits", entry.dedup_hits());
    gauge("dedup_sessions", entry.dedup_sessions());
    out
}
