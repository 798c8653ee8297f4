//! End-to-end serving tests: real `burd` servers (in-process and as a
//! child process), real `bur-client` connections over loopback.
//!
//! Covered here, per the serving contract:
//! - N concurrent clients' writes coalesce into fewer WAL group-commit
//!   records than client batches, and the served state matches a
//!   single-handle oracle;
//! - streamed query responses chunk correctly and an early-dropped
//!   stream leaves the connection usable;
//! - malformed frames poison only their own connection;
//! - graceful shutdown drains pending writes;
//! - acked writes survive a hard server kill + restart (durable acks
//!   are real).

mod common;

use bur::client::{BurClient, ClientError};
use bur::core::{Batch, IndexBuilder};
use bur::geom::{Point, Rect};
use bur::serve::{start, ServerConfig};
use common::TempDir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Deterministic pseudo-random position for an object id.
fn pos(oid: u64) -> Point {
    let h = oid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Point::new(
        (h % 1000) as f32 / 1000.0,
        ((h >> 32) % 1000) as f32 / 1000.0,
    )
}

fn insert_batch(range: std::ops::Range<u64>) -> Batch {
    let mut batch = Batch::new();
    for oid in range {
        batch.insert(oid, pos(oid));
    }
    batch
}

fn server(dir: &TempDir) -> bur::serve::ServerHandle {
    start(ServerConfig::new(dir.file("data"))).expect("server starts")
}

fn client(handle: &bur::serve::ServerHandle) -> BurClient {
    BurClient::connect(handle.addr()).expect("client connects")
}

#[test]
fn concurrent_clients_coalesce_and_match_oracle() {
    const THREADS: u64 = 8;
    const BATCHES: u64 = 30;
    const PER_BATCH: u64 = 20;

    let dir = TempDir::new("serving-coalesce");
    let handle = server(&dir);
    client(&handle)
        .create_index("fleet", "gbu", true)
        .expect("create");

    // N client threads write disjoint oid ranges and interleave reads.
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut c = BurClient::connect(addr).expect("connect");
                for b in 0..BATCHES {
                    let base = t * 1_000_000 + b * PER_BATCH;
                    let ack = c
                        .apply("fleet", &insert_batch(base..base + PER_BATCH))
                        .expect("apply");
                    assert_eq!(ack.applied, PER_BATCH);
                    assert!(ack.lsn > 0, "durable index acks carry an LSN");
                    if b % 7 == 0 {
                        let hits: Vec<u64> = c
                            .query("fleet", &Rect::new(0.0, 0.0, 0.3, 0.3))
                            .expect("query")
                            .collect::<Result<_, _>>()
                            .expect("stream");
                        // Sanity only: results racing writers aren't stable.
                        assert!(hits.iter().all(|&oid| {
                            let p = pos(oid);
                            p.x <= 0.31 && p.y <= 0.31
                        }));
                    }
                    if b % 11 == 0 {
                        let nn = c
                            .nearest("fleet", Point::new(0.5, 0.5), 3)
                            .expect("knn")
                            .collect::<Result<Vec<_>, _>>()
                            .expect("stream");
                        assert!(nn.len() <= 3);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }

    // Coalescing observed: fewer group-commit rounds than client batches.
    let entry = handle.registry().get("fleet").expect("entry");
    let entry = entry.as_plain().expect("plain index");
    let stats = entry.coalescer.stats();
    let total_batches = THREADS * BATCHES;
    assert_eq!(stats.submissions, total_batches);
    assert!(
        stats.rounds < total_batches,
        "no coalescing: {} rounds for {} client batches",
        stats.rounds,
        total_batches
    );
    // And the WAL agrees: one commit record per round (plus the handful
    // from index creation), not one per client batch.
    let wal = entry.bur.wal_stats().expect("durable");
    assert!(
        wal.commits < total_batches + 10,
        "WAL cut {} commit records for {} client batches ({} rounds)",
        wal.commits,
        total_batches,
        stats.rounds
    );

    // Equivalence vs a single-handle oracle over several windows.
    let oracle = IndexBuilder::generalized().build().expect("oracle");
    for t in 0..THREADS {
        for b in 0..BATCHES {
            let base = t * 1_000_000 + b * PER_BATCH;
            oracle
                .apply(&insert_batch(base..base + PER_BATCH))
                .expect("oracle apply");
        }
    }
    let mut c = client(&handle);
    assert_eq!(c.len("fleet").expect("len"), oracle.len());
    for window in [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.1, 0.2, 0.4, 0.9),
        Rect::new(0.85, 0.85, 0.95, 0.95),
    ] {
        let mut remote: Vec<u64> = c
            .query("fleet", &window)
            .expect("query")
            .collect::<Result<_, _>>()
            .expect("stream");
        let mut local: Vec<u64> = oracle.query(&window).expect("oracle query").collect();
        remote.sort_unstable();
        local.sort_unstable();
        assert_eq!(remote, local, "window {window} diverged from oracle");
    }
    let remote_nn = c
        .nearest("fleet", Point::new(0.5, 0.5), 10)
        .expect("knn")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream");
    let local_nn: Vec<_> = oracle
        .nearest(Point::new(0.5, 0.5), 10)
        .expect("oracle knn")
        .collect();
    assert_eq!(remote_nn.len(), local_nn.len());
    // Position collisions make exact oid order tie-dependent; the
    // distance profile is the invariant.
    for (r, l) in remote_nn.iter().zip(&local_nn) {
        assert!(
            (r.distance - l.distance).abs() < 1e-6,
            "kNN distance profile diverged: {} vs {}",
            r.distance,
            l.distance
        );
    }

    // The observability surface reflects the workload.
    let stats_text = c.stats("fleet").expect("stats");
    assert!(
        stats_text.contains("bur_coalescer_rounds{index=\"fleet\"}"),
        "{stats_text}"
    );
    assert!(stats_text.contains("bur_wal_commits"), "{stats_text}");
    let metrics = c.metrics().expect("metrics");
    // Where a durable update's time goes besides the tree, per index, on
    // both surfaces: inside the log's fsync, and inside checkpoints.
    for text in [&stats_text, &metrics] {
        for gauge in [
            "bur_wal_sync_seconds_total{index=\"fleet\"} 0.",
            "bur_wal_checkpoint_seconds_total{index=\"fleet\"} 0.",
            "bur_wal_checkpoint_pages_flushed{index=\"fleet\"}",
        ] {
            assert!(text.contains(gauge), "{gauge} missing from {text}");
        }
    }
    assert!(
        metrics.contains("burd_requests_total{op=\"apply\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("burd_latency_p99_ns{op=\"apply\"}"),
        "{metrics}"
    );
    drop(c);

    // Graceful shutdown: drain, flush, checkpoint — then the data
    // directory reopens with every acked write present.
    handle.shutdown();
    let reopened = IndexBuilder::new()
        .file(dir.file("data").join("fleet.bur"))
        .open()
        .build()
        .expect("reopen after shutdown");
    assert_eq!(reopened.len(), THREADS * BATCHES * PER_BATCH);
    reopened.validate().expect("invariants hold");
}

#[test]
fn streamed_queries_chunk_and_early_drop_keeps_connection_usable() {
    let dir = TempDir::new("serving-stream");
    let handle = server(&dir);
    let mut c = client(&handle);
    c.create_index("big", "gbu", false).expect("create");
    // Well above the 512-ids-per-frame chunk size, in one window.
    c.apply("big", &insert_batch(0..2000)).expect("apply");

    let everywhere = Rect::new(0.0, 0.0, 1.0, 1.0);
    let all: Vec<u64> = c
        .query("big", &everywhere)
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert_eq!(all.len(), 2000, "multi-chunk stream delivers everything");

    // Drop a stream after three items; the Drop impl must drain the
    // remaining chunk frames so the next request still lines up.
    {
        let mut stream = c.query("big", &everywhere).expect("query");
        for _ in 0..3 {
            stream.next().expect("item").expect("ok");
        }
    }
    assert_eq!(c.len("big").expect("len after early drop"), 2000);

    // Empty result: a single empty last-chunk frame.
    let none: Vec<u64> = c
        .query("big", &Rect::new(-5.0, -5.0, -4.0, -4.0))
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert!(none.is_empty());
    handle.shutdown();
}

#[test]
fn malformed_frames_poison_only_their_connection() {
    let dir = TempDir::new("serving-malformed");
    let handle = server(&dir);
    let mut healthy = client(&handle);
    healthy.create_index("idx", "gbu", false).expect("create");
    healthy.apply("idx", &insert_batch(0..5)).expect("apply");

    // 1) Oversized length prefix: the server answers with an error
    //    frame and closes this connection.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(&(64u32 << 20).to_le_bytes()).expect("write");
    let mut response = Vec::new();
    raw.read_to_end(&mut response)
        .expect("server closed cleanly");
    assert!(!response.is_empty(), "expected an error frame before close");
    let text = String::from_utf8_lossy(&response);
    assert!(text.contains("bad frame length"), "{text}");

    // 2) Unknown opcode in a well-formed frame.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    let mut frame = Vec::new();
    bur::serve::wire::write_frame(&mut frame, 7, 0x77, b"");
    raw.write_all(&frame).expect("write");
    let mut response = Vec::new();
    raw.read_to_end(&mut response)
        .expect("server closed cleanly");
    assert!(String::from_utf8_lossy(&response).contains("unknown opcode"));

    // 3) Truncated frame then hangup: no response owed, no harm done.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.write_all(&[9, 0, 0]).expect("write");
    drop(raw);

    // The sibling connection and the server survived all three.
    healthy.ping().expect("healthy connection unaffected");
    assert_eq!(healthy.len("idx").expect("len"), 5);
    assert!(
        handle
            .metrics()
            .malformed_frames
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2
    );
    handle.shutdown();
}

#[test]
fn shutdown_request_drains_and_stops_the_server() {
    let dir = TempDir::new("serving-shutdown");
    let handle = server(&dir);
    let mut c = client(&handle);
    c.create_index("idx", "gbu", true).expect("create");
    let ack = c.apply("idx", &insert_batch(0..100)).expect("apply");
    assert_eq!(ack.applied, 100);
    c.shutdown_server().expect("shutdown acked");
    handle.wait();
    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(handle.addr()).is_err() || {
            // The OS may briefly accept before reset; a request must fail.
            BurClient::connect(handle.addr())
                .and_then(|mut c| c.ping())
                .is_err()
        }
    );
    let reopened = IndexBuilder::new()
        .file(dir.file("data").join("idx.bur"))
        .open()
        .build()
        .expect("reopen");
    assert_eq!(reopened.len(), 100);
}

/// Spawn the real `burd` binary on an OS-assigned port and parse the
/// bound address off its stdout.
fn spawn_burd(data_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_burd"))
        .arg(data_dir)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("burd spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("burd announces its address");
    let addr = line
        .trim()
        .strip_prefix("burd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn acked_writes_survive_server_kill_and_restart() {
    const BATCHES: u64 = 12;
    const PER_BATCH: u64 = 25;

    let dir = TempDir::new("serving-kill");
    let data = dir.file("data");
    let (mut child, addr) = spawn_burd(&data);
    // No in-flight retries: this test asserts the *connection* dies on
    // kill, so the client must surface the first failure, not mask it
    // by retrying against the dead address for seconds.
    let config = bur::client::ClientConfig {
        retry: bur::client::RetryPolicy::none(),
        ..Default::default()
    };
    let mut c = BurClient::connect_with(&addr, &config).expect("connect");
    c.create_index("fleet", "gbu", true).expect("create");
    let mut acked = 0u64;
    for b in 0..BATCHES {
        let base = b * PER_BATCH;
        let ack = c
            .apply("fleet", &insert_batch(base..base + PER_BATCH))
            .expect("apply");
        assert!(ack.lsn > 0);
        acked += ack.applied;
    }

    // Hard kill: no drain, no flush, no checkpoint. Every *acked* write
    // must still be there — that is what the durable ack promised.
    child.kill().expect("kill");
    child.wait().expect("reap");
    match c.ping() {
        Err(ClientError::Io(_)) | Err(ClientError::Wire(_)) => {}
        other => panic!("expected a dead connection, got {other:?}"),
    }

    let (mut child, addr) = spawn_burd(&data);
    let mut c = BurClient::connect(&addr).expect("reconnect");
    assert_eq!(
        c.len("fleet").expect("reopen recovers the index"),
        acked,
        "acked writes lost across kill + restart"
    );
    let all: Vec<u64> = c
        .query("fleet", &Rect::new(0.0, 0.0, 1.0, 1.0))
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert_eq!(all.len() as u64, acked);
    for oid in 0..acked {
        assert!(all.contains(&oid), "acked oid {oid} missing after restart");
    }
    c.shutdown_server().expect("graceful stop");
    child.wait().expect("burd exits");
}

#[test]
fn index_lifecycle_over_the_wire() {
    let dir = TempDir::new("serving-lifecycle");
    let handle = server(&dir);
    let mut c = client(&handle);
    assert!(c.list_indexes().expect("list").is_empty());
    c.create_index("a", "gbu", true).expect("create a");
    c.create_index("b", "td", false).expect("create b");
    match c.create_index("a", "gbu", true) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("already exists"), "{msg}"),
        other => panic!("duplicate create must fail, got {other:?}"),
    }
    assert_eq!(
        c.list_indexes().expect("list"),
        vec![("a".to_string(), true), ("b".to_string(), true)]
    );
    c.apply("a", &insert_batch(0..7)).expect("apply");
    c.close_index("a").expect("close");
    assert_eq!(
        c.list_indexes().expect("list"),
        vec![("a".to_string(), false), ("b".to_string(), true)]
    );
    // Writes to a closed index reopen it on demand.
    c.apply("a", &insert_batch(7..9)).expect("reopen on write");
    assert_eq!(c.len("a").expect("len"), 9);
    match c.open_index("missing") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not found"), "{msg}"),
        other => panic!("open of a missing index must fail, got {other:?}"),
    }
    handle.shutdown();
}
