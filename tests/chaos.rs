//! Fault-tolerant serving drills: real `burd` servers behind the
//! frame-aware [`ChaosProxy`], real `bur-client` connections retrying
//! through injected drops, truncations, delays and black holes.
//!
//! The contracts under test:
//! - **Zero acked-write loss, zero double-applies.** Every apply the
//!   client got an ack for is present exactly once (unique-oid inserts
//!   against a single-handle length oracle), across hundreds of
//!   randomized fault plans.
//! - **Exactly-once retries.** A retried apply whose original ack was
//!   eaten by the network returns the *original* ack from the server's
//!   dedup table — observable as `dedup_hits` in stats — instead of
//!   applying twice.
//! - **Exactly-once across migrations.** A retry that crosses a
//!   completed `migrate_range` re-routes to the recipient shard and
//!   still replays the original ack: the donor's dedup entries move
//!   with the range at the ownership flip.
//! - **Deadlines.** An expired request gets an `expired` error frame
//!   and the connection stays usable; a black-holed server cannot hang
//!   a client thread.
//! - **Shedding.** In degraded mode queries are shed with `overloaded`
//!   while writes still land; a zero queue limit sheds writes too.
//! - **Malformed replies.** Garbage from the server side poisons the
//!   client's connection, never the process.

mod common;

use bur::client::{BurClient, ClientConfig, ClientError, RetryPolicy};
use bur::core::{Batch, Op};
use bur::geom::{Point, Rect};
use bur::serve::wire;
use bur::serve::{
    start, ChaosProxy, Direction, Fault, FaultPlan, IndexRegistry, Response, ScriptedFault,
    ServerConfig, StrategyKind,
};
use common::TempDir;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Client knobs tuned for talking through a hostile proxy: short
/// operation deadlines, fast reconnects, generous attempt budget.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_attempts: 8,
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        max_connect_elapsed: Duration::from_secs(5),
        op_timeout: Some(Duration::from_millis(300)),
        retry: RetryPolicy {
            max_attempts: 12,
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            max_elapsed: Duration::from_secs(30),
        },
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The headline drill: `CHAOS_PLANS` (default 200) randomized fault
/// plans, each a fresh proxy in front of one shared durable server.
/// Every batch inserts globally unique oids, so the final index length
/// is an exact oracle — a lost acked write shrinks it, a double-applied
/// retry grows it (or fails the retried apply outright). The server
/// must answer a direct, deadline-bounded ping after every plan.
#[test]
fn randomized_fault_plans_lose_nothing_and_apply_once() {
    let plans = env_u64("CHAOS_PLANS", 200);
    let base_seed = env_u64("CHAOS_BASE_SEED", 0x00c0_ffee);
    const BATCHES_PER_PLAN: u64 = 3;
    const OPS_PER_BATCH: u64 = 10;

    let dir = TempDir::new("chaos-drill");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let direct = handle.addr();
    let mut admin = BurClient::connect(direct).expect("admin connects");
    admin.create_index("drill", "gbu", true).expect("create");
    let mut probe = BurClient::connect_with(
        direct,
        &ClientConfig {
            op_timeout: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    )
    .expect("probe connects");

    let mut next_oid = 0u64;
    let mut acked_ops = 0u64;
    let mut acked_batches = 0u64;
    let mut total_retries = 0u64;
    let mut total_faults = 0u64;

    for plan_idx in 0..plans {
        let seed = base_seed.wrapping_add(plan_idx);
        let plan = FaultPlan {
            seed,
            drop_rate: 0.08,
            truncate_rate: 0.04,
            blackhole_rate: 0.01,
            delay_rate: 0.10,
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        };
        let proxy = ChaosProxy::start("127.0.0.1:0", direct, plan).expect("proxy starts");
        let mut c = BurClient::connect_with(proxy.addr(), &chaos_client_config())
            .unwrap_or_else(|e| panic!("seed {seed}: connect through proxy: {e}"));
        for _ in 0..BATCHES_PER_PLAN {
            let base = next_oid;
            next_oid += OPS_PER_BATCH;
            let ack = c
                .apply("drill", &insert_batch(base..base + OPS_PER_BATCH))
                .unwrap_or_else(|e| panic!("seed {seed}: apply exhausted its retries: {e}"));
            assert_eq!(ack.applied, OPS_PER_BATCH, "seed {seed}: short ack");
            acked_ops += OPS_PER_BATCH;
            acked_batches += 1;
        }
        total_retries += c.retries();
        drop(c);
        total_faults += proxy.stats().faults();
        proxy.shutdown();
        // Liveness throughout: the server itself (not the proxy) must
        // answer a deadline-bounded ping after every plan.
        probe
            .ping()
            .unwrap_or_else(|e| panic!("seed {seed}: server stopped answering pings: {e}"));
    }

    // The oracle: exactly the acked inserts, each exactly once.
    assert_eq!(
        admin.len("drill").expect("len"),
        acked_ops,
        "acked-write loss or double-apply detected"
    );
    let entry = handle.registry().get("drill").expect("entry");
    let entry = entry.as_plain().expect("plain index");
    let stats = entry.coalescer.stats();
    assert_eq!(
        stats.submissions, acked_batches,
        "every acked batch must have committed exactly once \
         (more means a dedup miss double-submitted a retry)"
    );
    if plans >= 20 {
        // With hundreds of batches at these fault rates the drill must
        // actually have exercised the retry and dedup paths.
        assert!(total_faults > 0, "the proxy never injected a fault");
        assert!(total_retries > 0, "no client ever retried");
        assert!(
            stats.dedup_hits >= 1,
            "no retry was ever answered from the dedup table \
             ({total_retries} retries, {total_faults} faults)"
        );
    }
    handle.shutdown();
}

/// The exactly-once acceptance test, deterministically: a scripted
/// fault eats the very first server-to-client frame — the ack of an
/// apply the server *did* commit. The client's retry reconnects and
/// resends the same `(session, seq)`, and must get the original ack
/// back: one submission, one dedup hit, nothing applied twice.
#[test]
fn retried_apply_over_killed_connection_returns_original_ack() {
    let dir = TempDir::new("chaos-dedup");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let mut admin = BurClient::connect(handle.addr()).expect("admin connects");
    admin.create_index("idx", "gbu", true).expect("create");

    let plan = FaultPlan {
        script: vec![ScriptedFault {
            conn: 0,
            direction: Direction::ServerToClient,
            frame: 0,
            fault: Fault::Drop,
        }],
        ..FaultPlan::default()
    };
    let proxy = ChaosProxy::start("127.0.0.1:0", handle.addr(), plan).expect("proxy starts");
    let mut c =
        BurClient::connect_with(proxy.addr(), &chaos_client_config()).expect("connect via proxy");

    // First request through the proxy: the apply lands, the ack dies.
    let ack = c.apply("idx", &insert_batch(0..25)).expect("retried apply");
    assert_eq!(ack.applied, 25);
    assert!(ack.lsn > 0, "the replayed ack is the original durable ack");
    assert!(c.retries() >= 1, "the lost ack must have forced a retry");
    assert!(c.reconnects() >= 1, "the drop must have forced a reconnect");

    let entry = handle.registry().get("idx").expect("entry");
    let entry = entry.as_plain().expect("plain index");
    let stats = entry.coalescer.stats();
    assert_eq!(stats.submissions, 1, "the retry must not resubmit");
    assert_eq!(stats.dedup_hits, 1, "the retry must hit the dedup table");
    assert_eq!(admin.len("idx").expect("len"), 25, "applied exactly once");

    // The dedup hit is observable on both stats surfaces.
    let text = admin.stats("idx").expect("stats");
    assert!(
        text.contains("bur_coalescer_dedup_hits{index=\"idx\"} 1"),
        "{text}"
    );
    let metrics = admin.metrics().expect("metrics");
    assert!(metrics.contains("burd_dedup_hits 1"), "{metrics}");
    // The shared write path's contention counters are on both surfaces.
    assert!(text.contains("bur_op_escalations{index=\"idx\"}"), "{text}");
    assert!(metrics.contains("burd_escalations"), "{metrics}");

    proxy.shutdown();
    handle.shutdown();
}

/// The retry-across-migration hole, deterministically: an apply lands
/// on shard 0, its ack is "eaten", and before the retry arrives a
/// range migration re-homes the whole batch onto shard 1. The retry
/// re-routes under the flipped map and reaches a coalescer that never
/// saw the original `(session, seq)` — the migration hook must have
/// handed shard 0's dedup entry over, so the retry replays the
/// original ack instead of re-applying (which would double-insert, or
/// fail an already-acked batch on the duplicate-oid check).
#[test]
fn retry_across_migration_replays_original_ack_without_reapplying() {
    let dir = TempDir::new("chaos-migrate-dedup");
    let reg = IndexRegistry::new(dir.path()).expect("registry");
    reg.create_sharded("idx", StrategyKind::Generalized, true, 2)
        .expect("create sharded");
    let entry = reg.get("idx").expect("get");
    let entry = entry.as_sharded().expect("sharded");

    // All ops cluster near the curve origin, so the batch routes whole
    // to the low-key shard.
    let ops: Vec<Op> = (0..25u64)
        .map(|i| Op::Insert {
            oid: 1000 + i,
            rect: Rect::from_point(Point::new(0.001 + i as f32 * 1e-4, 0.002)),
        })
        .collect();

    // The original attempt, exactly as the server applies it: route,
    // then funnel each part through its shard's coalescer under the
    // client's unchanged (session, seq).
    let routed = entry.sharded.route_for_write(&ops).expect("route");
    assert_eq!(routed.parts().len(), 1, "one donor shard");
    let (donor, sub) = &routed.parts()[0];
    let donor = *donor;
    let original = entry.coalescers[donor as usize]
        .apply_session(0xfeed, 9, sub.clone(), None)
        .expect("original apply");
    assert_eq!(original.applied, 25);
    // Release the writer registration so the migration can drain it.
    drop(routed);

    // The ack never reached the client; before the retry shows up, a
    // rebalance moves the low quarter of the key space away.
    let key_space = 1u64 << (2 * entry.sharded.order());
    let report = entry
        .sharded
        .migrate_range(0, key_space / 4, 1 - donor)
        .expect("migrate");
    assert_eq!(report.moved, 25, "the whole batch moved");

    // The retry re-routes under the flipped map: same (session, seq),
    // different shard.
    let routed = entry.sharded.route_for_write(&ops).expect("re-route");
    assert_eq!(routed.parts().len(), 1);
    let (recipient, sub) = &routed.parts()[0];
    assert_ne!(*recipient, donor, "ownership flipped");
    let before = entry.coalescers[*recipient as usize].stats();
    let replay = entry.coalescers[*recipient as usize]
        .apply_session(0xfeed, 9, sub.clone(), None)
        .expect("the retry must replay, not re-apply");
    assert_eq!(replay.lsn, original.lsn, "the original ack came back");
    assert_eq!(replay.applied, original.applied);
    let after = entry.coalescers[*recipient as usize].stats();
    assert_eq!(after.dedup_hits, before.dedup_hits + 1);
    assert_eq!(
        after.submissions, before.submissions,
        "the retry must not resubmit on the recipient"
    );
    assert_eq!(entry.sharded.len(), 25, "applied exactly once");
    reg.shutdown();
}

/// The randomized version: `CHAOS_MIGRATE_PLANS` (default 200) seeded
/// fault plans of unique-oid inserts through an ack-eating proxy while
/// a background rebalancer ping-pongs a slice of the key space between
/// the two shards. Retries land before, during (write-frozen, so they
/// wait) and after migrations; the final length is an exact oracle —
/// a lost acked write shrinks it, a double-applied retry fails the
/// apply outright on the duplicate-oid check.
#[test]
fn migration_crossing_retries_lose_nothing_and_apply_once() {
    let plans = env_u64("CHAOS_MIGRATE_PLANS", 200);
    let base_seed = env_u64("CHAOS_BASE_SEED", 0x5eed_cafe);
    const BATCHES_PER_PLAN: u64 = 2;
    const OPS_PER_BATCH: u64 = 10;

    let dir = TempDir::new("chaos-migrate-drill");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let direct = handle.addr();
    let mut admin = BurClient::connect(direct).expect("admin connects");
    admin
        .create_sharded_index("drill", "gbu", true, 2)
        .expect("create");

    // Background rebalancer: ping-pong ownership of the low sixteenth
    // of the key space for the whole drill. Writes whose ops touch the
    // moving range freeze until the flip completes, so every migration
    // is a chance for a retry to cross it.
    let entry = handle.registry().get("drill").expect("entry");
    let entry = entry.as_sharded().expect("sharded").clone();
    let sharded = entry.sharded.clone();
    let key_space = 1u64 << (2 * sharded.order());
    let stop = Arc::new(AtomicBool::new(false));
    let migrations = Arc::new(AtomicU64::new(0));
    let migrator = {
        let stop = Arc::clone(&stop);
        let migrations = Arc::clone(&migrations);
        std::thread::spawn(move || {
            let mut owner = 0u32;
            while !stop.load(Ordering::Relaxed) {
                sharded
                    .migrate_range(0, key_space / 16, 1 - owner)
                    .expect("migrate");
                owner = 1 - owner;
                migrations.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };

    let mut next_oid = 0u64;
    let mut acked_ops = 0u64;
    let mut total_retries = 0u64;
    let mut total_faults = 0u64;
    for plan_idx in 0..plans {
        let seed = base_seed.wrapping_add(plan_idx);
        let plan = FaultPlan {
            seed,
            drop_rate: 0.08,
            truncate_rate: 0.04,
            delay_rate: 0.10,
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        };
        let proxy = ChaosProxy::start("127.0.0.1:0", direct, plan).expect("proxy starts");
        let mut c = BurClient::connect_with(proxy.addr(), &chaos_client_config())
            .unwrap_or_else(|e| panic!("seed {seed}: connect through proxy: {e}"));
        for _ in 0..BATCHES_PER_PLAN {
            let base = next_oid;
            next_oid += OPS_PER_BATCH;
            let ack = c
                .apply("drill", &insert_batch(base..base + OPS_PER_BATCH))
                .unwrap_or_else(|e| panic!("seed {seed}: apply exhausted its retries: {e}"));
            assert_eq!(ack.applied, OPS_PER_BATCH, "seed {seed}: short ack");
            acked_ops += OPS_PER_BATCH;
        }
        total_retries += c.retries();
        drop(c);
        total_faults += proxy.stats().faults();
        proxy.shutdown();
    }
    stop.store(true, Ordering::Relaxed);
    migrator.join().expect("migrator");

    assert!(
        migrations.load(Ordering::Relaxed) > 0,
        "the rebalancer never migrated"
    );
    // The oracle: exactly the acked inserts, each exactly once, spread
    // across whichever shards the rebalancer left them on.
    assert_eq!(
        admin.len("drill").expect("len"),
        acked_ops,
        "acked-write loss or double-apply across a migration"
    );
    if plans >= 20 {
        assert!(total_faults > 0, "the proxy never injected a fault");
        assert!(total_retries > 0, "no client ever retried");
        let dedup_hits: u64 = entry.coalescers.iter().map(|c| c.stats().dedup_hits).sum();
        assert!(
            dedup_hits >= 1,
            "no retry was ever answered from a dedup table \
             ({total_retries} retries, {total_faults} faults)"
        );
    }
    handle.shutdown();
}

/// A frame that arrives already expired gets an `expired` error frame
/// — not silence, not a served request — and the connection stays
/// usable for the next, unexpired request.
#[test]
fn expired_request_gets_error_frame_and_connection_survives() {
    let dir = TempDir::new("chaos-expired");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");

    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    // Ping with a zero-millisecond budget: expired on arrival by
    // contract.
    let ping = bur::serve::Request::Ping;
    let mut frame = Vec::new();
    wire::write_frame_deadline(
        &mut frame,
        1,
        ping.opcode(),
        Some(0),
        &ping.encode_payload(),
    );
    raw.write_all(&frame).expect("write expired ping");
    let reply = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(reply.request_id, 1);
    match Response::decode(reply.opcode, &reply.payload).expect("decode") {
        Response::Expired { message } => {
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected Expired, got {other:?}"),
    }

    // Same connection, sane budget: served normally.
    let mut frame = Vec::new();
    wire::write_frame_deadline(
        &mut frame,
        2,
        ping.opcode(),
        Some(5_000),
        &ping.encode_payload(),
    );
    raw.write_all(&frame).expect("write healthy ping");
    let reply = wire::read_frame(&mut raw).expect("read").expect("frame");
    assert_eq!(reply.request_id, 2);
    assert!(matches!(
        Response::decode(reply.opcode, &reply.payload).expect("decode"),
        Response::Pong
    ));

    assert_eq!(
        handle
            .metrics()
            .requests_expired
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    handle.shutdown();
}

/// Degraded mode sheds queries before writes: flip the manual degrade
/// switch and queries come back `overloaded` while applies still land
/// durably; flip it back and queries serve again.
#[test]
fn degraded_mode_sheds_queries_before_writes() {
    let dir = TempDir::new("chaos-degraded");
    let handle = start(ServerConfig::new(dir.file("data"))).expect("server starts");
    let config = ClientConfig {
        retry: RetryPolicy::none(),
        ..Default::default()
    };
    let mut c = BurClient::connect_with(handle.addr(), &config).expect("connect");
    c.create_index("idx", "gbu", true).expect("create");
    c.apply("idx", &insert_batch(0..10)).expect("apply");

    handle.set_degraded(true);
    assert!(handle.is_degraded());
    let everywhere = Rect::new(0.0, 0.0, 1.0, 1.0);
    match c.query("idx", &everywhere).and_then(|s| s.collect_all()) {
        Err(ClientError::Overloaded(msg)) => assert!(msg.contains("degraded"), "{msg}"),
        other => panic!("degraded query must shed, got {other:?}"),
    }
    match c
        .nearest("idx", Point::new(0.5, 0.5), 3)
        .and_then(|s| s.collect_all())
    {
        Err(ClientError::Overloaded(_)) => {}
        other => panic!("degraded knn must shed, got {other:?}"),
    }
    // Writes are the priority: they still land while degraded.
    let ack = c
        .apply("idx", &insert_batch(10..20))
        .expect("degraded apply");
    assert_eq!(ack.applied, 10);

    handle.set_degraded(false);
    let hits: Vec<u64> = c
        .query("idx", &everywhere)
        .expect("query")
        .collect::<Result<_, _>>()
        .expect("stream");
    assert_eq!(hits.len(), 20, "recovered from degraded mode");

    let shed = handle
        .metrics()
        .queries_shed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(shed, 2, "both shed queries counted");
    let text = c.stats("idx").expect("stats");
    assert!(text.contains("bur_coalescer_queued_ops"), "{text}");
    handle.shutdown();
}

/// A zero write-queue limit sheds every apply with `overloaded` (and
/// the shed is counted), while reads are also refused — the server
/// stays responsive to pings throughout.
#[test]
fn zero_queue_limit_sheds_writes_with_overloaded() {
    let dir = TempDir::new("chaos-shed");
    let mut server_config = ServerConfig::new(dir.file("data"));
    server_config.max_queued_ops = 0;
    let handle = start(server_config).expect("server starts");
    let config = ClientConfig {
        retry: RetryPolicy::none(),
        ..Default::default()
    };
    let mut c = BurClient::connect_with(handle.addr(), &config).expect("connect");
    c.create_index("idx", "gbu", false).expect("create");
    match c.apply("idx", &insert_batch(0..5)) {
        Err(ClientError::Overloaded(msg)) => assert!(msg.contains("overloaded"), "{msg}"),
        other => panic!("zero queue limit must shed writes, got {other:?}"),
    }
    c.ping().expect("server still answers pings");
    assert!(
        handle
            .metrics()
            .writes_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    let entry = handle.registry().get("idx").expect("entry");
    let entry = entry.as_plain().expect("plain index");
    assert!(
        entry.coalescer.is_degraded(),
        "zero limit is always degraded"
    );
    assert_eq!(entry.coalescer.stats().shed_writes, 1);
    handle.shutdown();
}

/// A sharded write whose later part exceeds its shard's write-queue
/// limit is shed whole, before any part applies. Once a part has
/// applied the rest are resubmitted until they fit, so a part that can
/// never fit must not start the write: the connection would spin and
/// hold off every later migration's dedup handover.
#[test]
fn an_oversized_later_part_sheds_the_whole_write() {
    let dir = TempDir::new("chaos-oversized-part");
    let mut server_config = ServerConfig::new(dir.file("data"));
    server_config.max_queued_ops = 8;
    let handle = start(server_config).expect("server starts");
    let mut c = BurClient::connect_with(handle.addr(), &no_retry_config(Duration::from_secs(10)))
        .expect("connect");
    c.create_sharded_index("idx", "gbu", false, 2)
        .expect("create");
    let entry = handle.registry().get("idx").expect("entry");
    let entry = entry.as_sharded().expect("sharded").clone();

    // One insert near the curve origin, then twelve near the far end:
    // a part of 1 op, then a part of 12 ops over the limit of 8.
    let near = Point::new(0.001, 0.001);
    let mut batch = Batch::new();
    batch.insert(0, near);
    for oid in 1..13u64 {
        batch.insert(oid, Point::new(0.999 - oid as f32 * 1e-3, 0.001));
    }
    let routed = entry.sharded.route_for_write(batch.ops()).expect("route");
    let sizes: Vec<usize> = routed.parts().iter().map(|(_, sub)| sub.len()).collect();
    assert_eq!(sizes, vec![1, 12], "two parts, the later one oversized");
    drop(routed);

    match c.apply("idx", &batch) {
        Err(ClientError::Overloaded(msg)) => assert!(msg.contains("write-queue limit"), "{msg}"),
        other => panic!("an oversized part must shed the write, got {other:?}"),
    }
    assert_eq!(c.len("idx").expect("len"), 0, "no part applied");

    // Nothing holds the handover: a migration completes.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let sharded = entry.sharded.clone();
    let from = sharded.route_point(near);
    let key_space = 1u64 << (2 * sharded.order());
    std::thread::spawn(move || {
        let _ = done_tx.send(sharded.migrate_range(0, key_space / 16, 1 - from));
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the migration completes")
        .expect("migrate");

    // A write whose parts fit applies.
    let mut batch = Batch::new();
    batch.insert(20, near);
    batch.insert(21, Point::new(0.999, 0.001));
    assert_eq!(c.apply("idx", &batch).expect("apply").applied, 2);
    handle.shutdown();
}

/// A fake "server" that accepts one connection and answers it with
/// whatever `reply` produces from the client's first frame.
fn fake_server(
    reply: impl FnOnce(wire::Frame) -> Vec<u8> + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let join = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let frame = wire::read_frame(&mut conn)
            .expect("read client frame")
            .expect("a frame");
        let bytes = reply(frame);
        let _ = conn.write_all(&bytes);
        // Hold the socket open briefly so the client reads our bytes,
        // not a reset.
        std::thread::sleep(Duration::from_millis(200));
    });
    (addr, join)
}

fn no_retry_config(op_timeout: Duration) -> ClientConfig {
    ClientConfig {
        connect_attempts: 2,
        max_connect_elapsed: Duration::from_secs(2),
        op_timeout: Some(op_timeout),
        retry: RetryPolicy::none(),
        ..Default::default()
    }
}

/// Malformed server replies error cleanly and poison the connection —
/// the client process and its error surface stay intact.
#[test]
fn malformed_server_replies_poison_the_connection_cleanly() {
    // 1) A reply with a garbage opcode.
    let (addr, join) = fake_server(|frame| {
        let mut out = Vec::new();
        wire::write_frame(&mut out, frame.request_id, 0x77, b"");
        out
    });
    let mut c =
        BurClient::connect_with(addr, &no_retry_config(Duration::from_secs(2))).expect("connect");
    match c.ping() {
        Err(ClientError::Wire(e)) => {
            assert!(e.to_string().contains("unknown opcode"), "{e}");
        }
        other => panic!("garbage opcode must be a wire error, got {other:?}"),
    }
    assert!(!c.is_connected(), "wire garbage must poison the connection");
    join.join().expect("fake server");

    // 2) A frame truncated mid-payload (length prefix promises more
    //    bytes than ever arrive).
    let (addr, join) = fake_server(|frame| {
        let mut out = Vec::new();
        wire::write_frame(
            &mut out,
            frame.request_id,
            bur::serve::protocol::opcode::TEXT,
            &[0u8; 64],
        );
        out.truncate(out.len() - 32);
        out
    });
    let mut c =
        BurClient::connect_with(addr, &no_retry_config(Duration::from_secs(2))).expect("connect");
    match c.ping() {
        Err(ClientError::Wire(_)) | Err(ClientError::Io(_)) => {}
        other => panic!("truncated frame must error, got {other:?}"),
    }
    assert!(!c.is_connected());
    join.join().expect("fake server");

    // 3) A well-formed pong echoing the WRONG request id.
    let (addr, join) = fake_server(|frame| {
        let mut out = Vec::new();
        wire::write_frame(
            &mut out,
            frame.request_id + 1,
            bur::serve::protocol::opcode::PONG,
            b"",
        );
        out
    });
    let mut c =
        BurClient::connect_with(addr, &no_retry_config(Duration::from_secs(2))).expect("connect");
    match c.ping() {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("while waiting on"), "{msg}");
        }
        other => panic!("wrong request id must be a protocol error, got {other:?}"),
    }
    assert!(!c.is_connected(), "a desynced stream must be poisoned");
    join.join().expect("fake server");
}

/// A server that accepts and then never answers cannot hang the client:
/// the operation deadline bounds the wait wall-clock-tight.
#[test]
fn black_holed_server_cannot_hang_the_client() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let join = std::thread::spawn(move || {
        // Accept, read nothing, answer nothing, hold the socket open.
        let (conn, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(10));
        drop(conn);
    });
    let mut c = BurClient::connect_with(addr, &no_retry_config(Duration::from_millis(250)))
        .expect("connect");
    let started = Instant::now();
    let err = c.ping().expect_err("a silent server must time out");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ClientError::Io(_)),
        "timeout surfaces as an io error, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline did not bound the wait: {elapsed:?}"
    );
    assert!(!c.is_connected(), "a timed-out connection is poisoned");
    drop(c);
    drop(join); // The sleeping thread outlives the test harmlessly.
}
