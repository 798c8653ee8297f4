//! Per-layer numbers from outside: the same generated batch stream the
//! workload's counted phase used, replayed against one layer at a time
//! (a volatile twin, a durable twin, a coalescer straight on that twin),
//! plus a buffer pool, a disk and a hash index standing alone. Each
//! number is a separate replay; none of them is a slice of one request.

use crate::host::{self, DataDir};
use crate::stats::Summary;
use crate::system::{Build, Conn, Res, Sut};
use crate::trace::{now_ns, SpanSink};
use crate::workloads::{load, Metrics, RunOpts, Spec, Stream, BATCH_OPS, KNN_K};
use bur_core::Batch;
use bur_hashindex::{HashIndexConfig, LinearHashIndex};
use bur_serve::Coalescer;
use bur_storage::{
    BufferPool, DiskBackend, FileDisk, MemDisk, PageId, PoolConfig, DEFAULT_PAGE_SIZE,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Spans one replay keeps.
const REPLAY_SPAN_CAP: usize = 10_000;
/// Fetches / gets timed together, so the clock's own cost (~25 ns) is
/// spread over the group instead of dominating a ~50 ns operation.
const GROUP: usize = 64;
/// Pages of the standalone pool probes.
const PROBE_PAGES: u32 = 2_048;

/// Apply `batch` on an in-process twin under a root span with the call
/// and the wait as its children; returns `(whole, call, wait)` in ns.
fn timed_apply(
    conn: &mut Conn,
    batch: &Batch,
    sink: &mut SpanSink,
    root_name: &'static str,
    request: u64,
) -> Res<(u64, u64, u64)> {
    let times = conn
        .apply(batch)?
        .ok_or("replay twins are in-process handles")?;
    let root = sink.record(root_name, request, 0, times.start_ns, times.acked_ns);
    times.record(sink, request, root);
    Ok((
        times.acked_ns - times.start_ns,
        times.called_ns - times.start_ns,
        times.acked_ns - times.called_ns,
    ))
}

pub fn replay(
    spec: &Spec,
    opts: &RunOpts,
    data: &DataDir,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Res<Vec<SpanSink>> {
    let shrink = opts.shrink.max(1);
    let batches = opts.counted_batches(spec);
    let io = |e: std::io::Error| format!("data dir: {e}");
    // The counted phase's batch stream again: same streams, same turns.
    let fresh_streams = || Stream::split(spec, opts, spec.threads());
    let mut batch = Batch::with_capacity(BATCH_OPS);

    // ---- volatile twin: the planner and the pool hit path alone ----
    let mut streams = fresh_streams();
    let twin = Sut::build(Build::LocalVolatile, data.path())?;
    let mut conn = twin.connector().connect()?;
    load(&mut conn, &Stream::items(&streams))?;
    let mut sink_v = SpanSink::new("replay.volatile", REPLAY_SPAN_CAP);
    sink_v.set_enabled(true);
    let mut volatile = Vec::with_capacity(batches);
    for i in 0..batches {
        Stream::fill_turn(&mut streams, i, &mut batch);
        let (whole, _, _) = timed_apply(
            &mut conn,
            &batch,
            &mut sink_v,
            "replay.volatile.apply",
            i as u64 + 1,
        )?;
        volatile.push(whole);
    }
    let volatile = Summary::of(&mut volatile);
    let (mut q_lat, mut k_lat) = (Vec::new(), Vec::new());
    let (mut ids, mut neighbours) = (Vec::new(), Vec::new());
    for i in 0..(1_000 / shrink).max(50) {
        let window = streams[0].next_window();
        let t0 = now_ns();
        conn.query(&window, &mut ids)?;
        q_lat.push(now_ns() - t0);
        if i % 5 == 0 {
            let t0 = now_ns();
            conn.nearest(window.center(), KNN_K, &mut neighbours)?;
            k_lat.push(now_ns() - t0);
        }
    }
    drop(conn);
    twin.shutdown();
    m.set("core.apply_volatile_p50_us", volatile.p50_us());
    m.set("core.query_p50_us", Summary::of(&mut q_lat).p50_us());
    m.set("core.knn_p50_us", Summary::of(&mut k_lat).p50_us());
    notes.push(format!(
        "replay, volatile twin apply: {}",
        volatile.describe()
    ));

    // ---- durable twin, alternating direct applies and a coalescer on it ----
    let mut streams = fresh_streams();
    let dir = data.sub("twin-durable").map_err(io)?;
    let twin = Sut::build(Build::LocalDurable, &dir)?;
    let mut conn = twin.connector().connect()?;
    load(&mut conn, &Stream::items(&streams))?;
    let coalescer = Coalescer::new(twin.burs().remove(0));
    let mut sink_d = SpanSink::new("replay.durable", REPLAY_SPAN_CAP);
    let mut sink_c = SpanSink::new("replay.coalescer", REPLAY_SPAN_CAP);
    sink_d.set_enabled(true);
    sink_c.set_enabled(true);
    let (mut durable, mut call, mut wait, mut queued) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..batches {
        Stream::fill_turn(&mut streams, i, &mut batch);
        let request = i as u64 + 1;
        if i % 2 == 0 {
            let (whole, called, waited) = timed_apply(
                &mut conn,
                &batch,
                &mut sink_d,
                "replay.durable.apply",
                request,
            )?;
            durable.push(whole);
            call.push(called);
            wait.push(waited);
        } else {
            let ops = batch.ops().to_vec();
            let t0 = now_ns();
            coalescer
                .apply(ops)
                .map_err(|e| format!("coalescer apply: {e}"))?;
            let t1 = now_ns();
            sink_c.record("serve.coalescer_apply", request, 0, t0, t1);
            queued.push(t1 - t0);
        }
    }
    coalescer.shutdown();
    drop(coalescer);
    drop(conn);
    let file = twin
        .local_file()
        .expect("durable twin has a file")
        .to_path_buf();
    drop(twin);
    let (recovered, recover_ms) = Sut::recover(&file)?;
    recovered.check_integrity(opts.objects as u64)?;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Summary::of(&mut durable);
    let queued = Summary::of(&mut queued);
    m.set("core.apply_durable_p50_us", durable.p50_us());
    m.set("core.apply_call_p50_us", Summary::of(&mut call).p50_us());
    m.set("core.ticket_wait_p50_us", Summary::of(&mut wait).p50_us());
    m.set("core.recover_ms", recover_ms);
    m.set(
        "wal.durable_overhead_p50_us",
        durable.p50_us() - volatile.p50_us(),
    );
    m.set("serve.coalescer_apply_p50_us", queued.p50_us());
    m.set(
        "serve.queue_overhead_p50_us",
        queued.p50_us() - durable.p50_us(),
    );
    notes.push(format!(
        "replay, durable twin apply + wait: {}",
        durable.describe()
    ));
    notes.push(format!(
        "replay, Coalescer::apply on the durable twin: {}",
        queued.describe()
    ));

    // ---- standalone layers ----
    let probe_dir = data.sub("probe").map_err(io)?;
    storage_probes(&probe_dir, shrink, m, notes)?;
    hash_probe(opts.objects, m)?;
    let _ = std::fs::remove_dir_all(&probe_dir);
    notes.push("dgl.* skipped: bur-dgl has no public timing surface".to_string());
    Ok(vec![sink_v, sink_d, sink_c])
}

fn storage_err(e: bur_storage::StorageError) -> String {
    format!("storage probe: {e}")
}

/// A pool of `capacity` frames over `disk`, holding `PROBE_PAGES` pages.
fn probe_pool(disk: Arc<dyn DiskBackend>, capacity: usize) -> Res<BufferPool> {
    let pool = BufferPool::new(
        disk,
        PoolConfig {
            capacity,
            ..PoolConfig::default()
        },
    );
    for _ in 0..PROBE_PAGES {
        let (_, page) = pool.new_page().map_err(storage_err)?;
        page.write()[0] = 1;
    }
    pool.flush_all().map_err(storage_err)?;
    Ok(pool)
}

/// A cheap deterministic page / key sequence.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Total ns of each of `groups` groups of `GROUP` hits on pages `lo..hi`.
fn hit_groups(pool: &BufferPool, lo: u32, hi: u32, groups: usize) -> Res<Vec<u64>> {
    let mut rng = u64::from(lo) + 1;
    let mut out = Vec::with_capacity(groups);
    for _ in 0..groups {
        let t0 = now_ns();
        for _ in 0..GROUP {
            let pid = lo + (lcg(&mut rng) % u64::from(hi - lo)) as PageId;
            black_box(pool.fetch(black_box(pid)).map_err(storage_err)?.pid());
        }
        out.push(now_ns() - t0);
    }
    Ok(out)
}

/// Each fetch evicts a clean frame and reads: 64 frames, and a stride
/// that returns to a page only after every other page was touched.
fn miss_us_p50(disk: Arc<dyn DiskBackend>, samples: usize) -> Res<f64> {
    let pool = probe_pool(disk, 64)?;
    let mut lat = Vec::with_capacity(samples);
    for i in 0..samples as u32 {
        let pid = (i * 67) % PROBE_PAGES;
        let t0 = now_ns();
        black_box(pool.fetch(black_box(pid)).map_err(storage_err)?.pid());
        lat.push(now_ns() - t0);
    }
    Ok(Summary::of(&mut lat).p50_us())
}

fn storage_probes(dir: &Path, shrink: usize, m: &mut Metrics, notes: &mut Vec<String>) -> Res<()> {
    let groups = (2_000 / shrink).max(100);
    let mem = || -> Arc<dyn DiskBackend> { Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE)) };
    let file = |name: &str| -> Res<Arc<dyn DiskBackend>> {
        Ok(Arc::new(
            FileDisk::create(dir.join(name), DEFAULT_PAGE_SIZE).map_err(storage_err)?,
        ))
    };

    // Hit path, one thread then min(nproc, 4) threads on disjoint pages.
    let pool = probe_pool(mem(), 2 * PROBE_PAGES as usize)?;
    hit_groups(&pool, 0, PROBE_PAGES, groups / 4)?; // warm
    let single = Summary::of(&mut hit_groups(&pool, 0, PROBE_PAGES, groups)?).p50_ns;
    m.set("storage.fetch_hit_ns_p50", single as f64 / GROUP as f64);
    let threads = host::parallel_threads();
    if host::cpus() < 2 {
        m.absent(
            &["storage.fetch_hit_mt_ratio"],
            "skipped (1 CPU: threads cannot run side by side)",
        );
    } else {
        let per = PROBE_PAGES / threads as u32;
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u32)
                .map(|t| {
                    let pool = &pool;
                    scope.spawn(move || hit_groups(pool, t * per, (t + 1) * per, groups))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect::<Res<Vec<_>>>()
        })?
        .concat();
        let multi = Summary::of(&mut all).p50_ns;
        m.set(
            "storage.fetch_hit_mt_ratio",
            multi as f64 / single.max(1) as f64,
        );
    }
    drop(pool);

    // Miss path on both backends.
    let samples = (4_000 / shrink).max(200);
    m.set(
        "storage.fetch_miss_mem_us_p50",
        miss_us_p50(mem(), samples)?,
    );
    m.set(
        "storage.fetch_miss_file_us_p50",
        miss_us_p50(file("miss.pages")?, samples)?,
    );

    // Device sync: one dirty page, then sync.
    let disk = file("sync.pages")?;
    let pids: Vec<PageId> = (0..64)
        .map(|_| disk.allocate().map_err(storage_err))
        .collect::<Res<_>>()?;
    let page = vec![7u8; DEFAULT_PAGE_SIZE];
    let mut lat = Vec::new();
    for i in 0..(1_000 / shrink).max(100) {
        disk.write(pids[i % pids.len()], &page)
            .map_err(storage_err)?;
        let t0 = now_ns();
        disk.sync().map_err(storage_err)?;
        lat.push(now_ns() - t0);
    }
    let sync = Summary::of(&mut lat);
    m.set("storage.sync_p50_us", sync.p50_us());
    m.set("storage.sync_p99_us", sync.p99_us());
    notes.push(format!(
        "storage.sync (write one page, DiskBackend::sync): {}",
        sync.describe()
    ));
    Ok(())
}

/// `LinearHashIndex::get` on an index holding one key per object, its
/// pages all resident.
fn hash_probe(objects: usize, m: &mut Metrics) -> Res<()> {
    let pool = Arc::new(BufferPool::new(
        Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE)),
        PoolConfig {
            capacity: crate::system::FAST_POOL_FRAMES,
            ..PoolConfig::default()
        },
    ));
    let index = LinearHashIndex::create(pool, HashIndexConfig::default()).map_err(storage_err)?;
    for key in 0..objects as u64 {
        index.insert(key, key as u32).map_err(storage_err)?;
    }
    let mut rng = 1u64;
    let mut lat = Vec::new();
    for _ in 0..1_000 {
        let t0 = now_ns();
        for _ in 0..GROUP {
            let key = lcg(&mut rng) % objects as u64;
            black_box(index.get(black_box(key)).map_err(storage_err)?);
        }
        lat.push(now_ns() - t0);
    }
    m.set(
        "hashindex.get_ns_p50",
        Summary::of(&mut lat).p50_ns as f64 / GROUP as f64,
    );
    Ok(())
}
