//! The four workloads and the one runner they share. A run is: set up
//! (timed, repeated), a *counted phase* of a fixed number of batches from
//! one caller (warm-up, and the source of every count-based metric — on
//! `core_slow_durable` those counts repeat exactly for a seed), the timed
//! *window* with every generator thread, a query phase on the quiesced
//! index, and the oracle check.

use crate::calib;
use crate::host::{self, DataDir};
use crate::layers;
use crate::oracle;
use crate::pacer::{self, Schedule};
use crate::stats::{self, Summary};
use crate::system::{Build, Conn, Counters, Res, Sut};
use crate::trace::{self, now_ns, SpanSink};
use bur_core::Batch;
use bur_geom::{Point, Rect};
use bur_serve::protocol::opcode;
use bur_workload::{Workload, WorkloadConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Updates per write batch, everywhere.
pub const BATCH_OPS: usize = 32;
/// Inserts per batch while loading.
const LOAD_BATCH: usize = 1024;
/// Set-ups an untraced run times; `setup_s` is their median.
const SETUPS: usize = 3;
/// Neighbours asked of every kNN query.
pub const KNN_K: usize = 10;
/// Seeded window / kNN queries compared against the oracle after a run.
const CHECK_WINDOWS: usize = 200;
const CHECK_KNN: usize = 20;
/// Fixed window queries whose page fetches are `query_fetch_growth` and
/// `storage.fetches_per_query`: the paper's default windows (sides uniform
/// in `[0, 0.1]`) on every workload, so they mean one thing everywhere.
const COST_WINDOWS: usize = 1_000;
const COST_WINDOW_SIDE: f32 = 0.1;
/// Equal parts of the window, each with its own rate and median latency;
/// in a traced run even-numbered slices record spans and odd ones do not.
const SLICES: usize = 40;
/// The gated timings are the quiet quartile of the slices: the rate that a
/// quarter of them reach, the median latency that a quarter of them stay
/// under. Neighbours on a shared host only ever slow a slice down, so a
/// median over slices follows the host from one minute to the next, while
/// the quiet quartile needs only a quarter of the window undisturbed; a
/// change to the program moves every slice and so moves this just as far.
const QUIET: f64 = 0.25;
/// Latency limits of the paced workload.
const APPLY_LIMIT_NS: u64 = 20_000_000;
const READ_LIMIT_NS: u64 = 5_000_000;
/// Spans one generator thread keeps.
const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Update,
    Query,
    Knn,
}

use Kind::{Knn, Query, Update};

pub struct Spec {
    pub name: &'static str,
    pub build: Build,
    pub max_distance: f32,
    /// Window queries have both sides uniform in `[0, query_side]`.
    pub query_side: f32,
    pub one_writer: bool,
    /// What each generator thread repeats.
    pub cycle: &'static [Kind],
    /// Open loop at this many requests/s in total; `None` is closed loop.
    pub rate: Option<f64>,
    /// Batches of the counted phase at full scale.
    pub counted_batches: usize,
    /// Share of `--seconds` the window lasts. A closed loop on a durable
    /// index writes about 450 MB/s here (1 KiB pages in 4 KiB file-system
    /// blocks, a sync per batch); kept up for 20 s that is 9 GB a run, and
    /// the host answers hundreds of GB an hour with slow phases that last
    /// minutes and reach the runs that follow. A quarter of the time still
    /// holds some 250 000 updates.
    pub window_share: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "core_fast_mixed",
        build: Build::LocalVolatile,
        max_distance: 0.06,
        query_side: 0.01,
        one_writer: false,
        cycle: &[
            Update, Query, Query, Query, Query, Query, Query, Query, Query,
        ],
        rate: None,
        counted_batches: 2_000,
        window_share: 1.0,
    },
    Spec {
        name: "core_slow_durable",
        build: Build::LocalDurable,
        max_distance: 0.003,
        query_side: 0.1,
        one_writer: true,
        cycle: &[Update],
        rate: None,
        counted_batches: 1_000,
        window_share: 0.25,
    },
    Spec {
        name: "served_fast_update",
        build: Build::Served { shards: 0 },
        max_distance: 0.06,
        query_side: 0.1,
        one_writer: false,
        cycle: &[Update],
        rate: None,
        counted_batches: 500,
        window_share: 0.25,
    },
    Spec {
        name: "served_sharded_paced",
        build: Build::Served { shards: 4 },
        max_distance: 0.003,
        query_side: 0.1,
        one_writer: false,
        cycle: &[
            Update, Update, Query, Update, Update, Query, Update, Update, Query, Knn,
        ],
        rate: Some(400.0),
        counted_batches: 500,
        window_share: 1.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn threads(&self) -> usize {
        if self.one_writer {
            1
        } else {
            host::generator_threads()
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub objects: usize,
    pub trace: bool,
    pub data_root: PathBuf,
    /// Divide the counted phase and the replays by this (`--smoke`).
    pub shrink: usize,
}

impl RunOpts {
    pub fn counted_batches(&self, spec: &Spec) -> usize {
        (spec.counted_batches / self.shrink.max(1)).max(20)
    }
}

/// A metric's value, or why the workload or host cannot have one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    Num(f64),
    /// Printed as `n/a` / `skipped`; 0 in the driver's JSON line, which
    /// has room for numbers only.
    Absent(&'static str),
}

pub const NOT_ON_PATH: &str = "n/a (layer not on this workload's path)";

#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Val>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Val::Num(value));
    }

    pub fn absent(&mut self, names: &[&'static str], why: &'static str) {
        for name in names {
            self.put(name, Val::Absent(why));
        }
    }

    fn put(&mut self, name: &'static str, val: Val) {
        assert!(
            crate::table::find(name).is_some(),
            "metric {name} is not in the table"
        );
        self.0.insert(name, val);
    }

    pub fn get(&self, name: &str) -> Option<Val> {
        self.0.get(name).copied()
    }

    pub fn num(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Val::Num(v)) => Some(v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

impl Outcome {
    /// Every operation succeeded and every checked answer matched the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines: timings with tail and count, host facts,
    /// the latency budget, problems found.
    pub notes: Vec<String>,
}

/// One generator's update and query stream over its own contiguous range
/// of object ids. `Workload::split` would hand out the same thing, but its
/// part type cannot be named from outside the crate and does not show its
/// positions, which the oracle needs; so each stream is a whole `Workload`
/// of its own with the ids shifted by `base`.
pub struct Stream {
    base: u64,
    workload: Workload,
}

impl Stream {
    /// `parts` streams that together hold `opts.objects` objects.
    pub fn split(spec: &Spec, opts: &RunOpts, parts: usize) -> Vec<Stream> {
        let chunk = opts.objects.div_ceil(parts);
        (0..parts)
            .map(|i| {
                let base = i * chunk;
                Stream {
                    base: base as u64,
                    workload: Workload::generate(WorkloadConfig {
                        num_objects: chunk.min(opts.objects - base),
                        max_distance: spec.max_distance,
                        query_max_side: spec.query_side,
                        seed: opts.seed ^ ((i as u64 + 1) << 32),
                        ..WorkloadConfig::default()
                    }),
                }
            })
            .collect()
    }

    pub fn items(streams: &[Stream]) -> Vec<(u64, Point)> {
        streams
            .iter()
            .flat_map(|s| {
                s.workload
                    .items()
                    .into_iter()
                    .map(|(oid, p)| (oid + s.base, p))
            })
            .collect()
    }

    /// Where the generators left every object, indexed by object id.
    fn positions(streams: &[Stream]) -> Vec<Point> {
        streams
            .iter()
            .flat_map(|s| s.workload.positions().iter().copied())
            .collect()
    }

    /// Refill `batch` with this stream's next `BATCH_OPS` updates.
    pub fn fill(&mut self, batch: &mut Batch) {
        batch.clear();
        for _ in 0..BATCH_OPS {
            let op = self.workload.next_update();
            batch.update(op.oid + self.base, op.old, op.new);
        }
    }

    /// The counted phase's batch `turn`: the streams take turns, so one
    /// caller still touches every range of object ids.
    pub fn fill_turn(streams: &mut [Stream], turn: usize, batch: &mut Batch) {
        let n = streams.len();
        streams[turn % n].fill(batch);
    }

    pub fn next_window(&mut self) -> Rect {
        self.workload.next_query().window
    }
}

/// The seeded stream of check windows (and, from their centres, kNN
/// points): a generator of its own, so checking never disturbs the
/// update streams.
fn check_queries(spec: &Spec, opts: &RunOpts) -> Workload {
    Workload::generate(WorkloadConfig {
        num_objects: 1,
        query_max_side: spec.query_side,
        seed: opts.seed ^ 0x0C4E_C8ED,
        ..WorkloadConfig::default()
    })
}

/// Load every object through the same write path the workload uses.
pub fn load(conn: &mut Conn, items: &[(u64, Point)]) -> Res<()> {
    let mut batch = Batch::with_capacity(LOAD_BATCH);
    for chunk in items.chunks(LOAD_BATCH) {
        batch.clear();
        for &(oid, p) in chunk {
            batch.insert(oid, p);
        }
        conn.apply(&batch)?;
    }
    Ok(())
}

/// What a run accumulates across its phases.
struct Tally {
    m: Metrics,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count one operation; a failure is recorded, not propagated, so a
    /// run reports `failed` instead of dying on the first bad answer.
    fn attempt<T>(&mut self, result: Res<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

pub fn run(spec: &'static Spec, opts: &RunOpts) -> Res<Outcome> {
    let data = DataDir::create(&opts.data_root).map_err(|e| format!("data dir: {e}"))?;
    let mut t = Tally {
        m: Metrics::default(),
        notes: vec![
            format!("host.cpus {}", host::cpus()),
            format!("host.fs_type {}", host::fs_type(data.path())),
        ],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    let (mut sut, mut streams, first_setup_s) = set_up(spec, opts, &data, 0)?;
    counted_phase(spec, opts, &sut, &mut streams, &mut t)?;
    let (streams, window, mut sinks) = window_phase(spec, opts, &sut, streams, &mut t)?;
    query_phase(spec, opts, &sut, &window, &mut t)?;

    // Crash and recover the durable in-process index: check it live, drop
    // the handle unflushed, reopen with recover(), check it again below.
    let positions = Stream::positions(&streams);
    if let Some(file) = sut.local_file().map(std::path::Path::to_path_buf) {
        check(spec, opts, &sut, &positions, &mut t);
        drop(sut);
        let (recovered, ms) = Sut::recover(&file)?;
        t.notes.push(format!(
            "recover() after dropping the handle unflushed: {ms:.1} ms; checks repeated on the recovered index"
        ));
        sut = recovered;
    }
    let knn_check = check(spec, opts, &sut, &positions, &mut t);
    let knn = if spec.cycle.contains(&Knn) {
        window.knn
    } else {
        knn_check
    };
    t.m.set("run.knn_p50_us", knn.p50_us());
    t.notes.push(format!("kNN k={KNN_K}: {}", knn.describe()));
    t.m.set(
        "core.height",
        sut.burs()
            .iter()
            .map(|b| f64::from(b.height()))
            .fold(0.0, f64::max),
    );

    if opts.trace {
        t.m.set(
            "trace.overhead_share",
            1.0 - window.traced_rate / window.untraced_rate.max(1e-9),
        );
        ping_probe(&sut, opts, &mut t)?;
        sinks.extend(layers::replay(spec, opts, &data, &mut t.m, &mut t.notes)?);
        budget(&mut t, sut.is_served());
        let path = opts.data_root.join(format!("trace-{}.jsonl", spec.name));
        let spans = trace::write_jsonl(&path, &sinks).map_err(|e| format!("trace file: {e}"))?;
        t.m.set("trace.spans", spans as f64);
        t.notes
            .push(format!("trace: {spans} spans in {}", path.display()));
    }

    sut.shutdown();
    // Read before the set-up is repeated: memory of a system that was shut
    // down is not all returned, and the peak should be one system's.
    t.m.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));

    // `setup_s` is a median: an untraced run sets up twice more, on the
    // same inputs, and throws those systems away.
    let mut setup_s = vec![first_setup_s];
    for rep in 1..if opts.trace { 1 } else { SETUPS } {
        let (again, _, seconds) = set_up(spec, opts, &data, rep)?;
        again.shutdown();
        setup_s.push(seconds);
    }
    t.attempted += (opts.objects.div_ceil(LOAD_BATCH) * setup_s.len()) as u64;
    t.m.set("setup_s", stats::median(&mut setup_s));
    t.m.set(
        "run.failed_share",
        t.failed as f64 / t.attempted.max(1) as f64,
    );
    for p in t.problems.iter().take(10) {
        t.notes.push(format!("PROBLEM: {p}"));
    }
    Ok(Outcome {
        workload: spec.name,
        metrics: t.m,
        attempted: t.attempted,
        failed: t.failed,
        notes: t.notes,
    })
}

/// Build the system in a directory of its own and load every object;
/// returns it, the generators' streams, and the seconds it took.
fn set_up(spec: &Spec, opts: &RunOpts, data: &DataDir, rep: usize) -> Res<(Sut, Vec<Stream>, f64)> {
    let streams = Stream::split(spec, opts, spec.threads());
    let items = Stream::items(&streams);
    let dir = data
        .sub(&format!("setup{rep}"))
        .map_err(|e| format!("data dir: {e}"))?;
    let t0 = Instant::now();
    let sut = Sut::build(spec.build, &dir)?;
    load(&mut sut.connector().connect()?, &items)?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok((sut, streams, seconds))
}

/// A fixed number of batches from one caller, the streams taking turns.
/// Every count-based metric is the counters' difference across this.
fn counted_phase(
    spec: &Spec,
    opts: &RunOpts,
    sut: &Sut,
    streams: &mut [Stream],
    t: &mut Tally,
) -> Res<()> {
    let batches = opts.counted_batches(spec);
    let sharded = sut.sharded();
    let mut split_ns: Vec<u64> = Vec::new();
    let (mut split_parts, mut crossing) = (0u64, 0u64);
    let mut conn = sut.connector().connect()?;
    let mut batch = Batch::with_capacity(BATCH_OPS);
    let (fresh_fetches, _) = query_cost(opts, sut, &mut conn, t);
    let before = sut.counters();
    for i in 0..batches {
        Stream::fill_turn(streams, i, &mut batch);
        if let Some(entry) = &sharded {
            let t0 = now_ns();
            let (parts, crossed) = entry.sharded.split_ops(batch.ops());
            split_ns.push(now_ns() - t0);
            split_parts += parts.len() as u64;
            crossing += crossed;
        }
        t.attempt(conn.apply(&batch));
    }
    let after = sut.counters();
    counted_metrics(
        &mut t.m,
        &after.since(&before),
        batches,
        sut.is_served(),
        sut.file_bytes(),
        after.wal_log_pages,
        opts.objects,
    );
    if sharded.is_some() {
        let updates = (batches * BATCH_OPS) as f64;
        t.m.set(
            "shard.shards_per_batch",
            split_parts as f64 / batches as f64,
        );
        t.m.set("shard.split_updates_share", crossing as f64 / updates);
        t.m.set(
            "shard.split_ops_p50_us",
            Summary::of(&mut split_ns).p50_us(),
        );
    } else {
        t.m.absent(
            &[
                "shard.shards_per_batch",
                "shard.split_updates_share",
                "shard.split_ops_p50_us",
            ],
            NOT_ON_PATH,
        );
    }

    // What the updates did to the MBRs, as a query pays for it. The cost
    // itself follows the seed (the loaded tree's top levels differ, +-15 %);
    // its growth over the counted phase does not.
    let (fetches, reads) = query_cost(opts, sut, &mut conn, t);
    t.m.set("query_fetch_growth", fetches / fresh_fetches.max(1e-9));
    t.m.set("storage.fetches_per_query", fetches);
    t.m.set("storage.reads_per_query", reads);
    Ok(())
}

/// `(page fetches, disk reads)` per window query over the pool, on the
/// index as it stands. The same windows for every seed, and many of them:
/// window areas spread widely, and the number should move with the tree,
/// not the draw.
fn query_cost(opts: &RunOpts, sut: &Sut, conn: &mut Conn, t: &mut Tally) -> (f64, f64) {
    let mut queries = Workload::generate(WorkloadConfig {
        num_objects: 1,
        query_max_side: COST_WINDOW_SIDE,
        ..WorkloadConfig::default()
    });
    let windows = (COST_WINDOWS / opts.shrink.max(1)).max(CHECK_WINDOWS);
    let mut ids = Vec::new();
    let before = sut.counters();
    for _ in 0..windows {
        t.attempt(conn.query(&queries.next_query().window, &mut ids));
    }
    let io = sut.counters().since(&before);
    (
        io.io_fetches as f64 / windows as f64,
        io.io_reads as f64 / windows as f64,
    )
}

/// Count-based metrics of the counted phase.
fn counted_metrics(
    m: &mut Metrics,
    c: &Counters,
    batches: usize,
    served: bool,
    file_bytes: u64,
    log_pages: u64,
    objects: usize,
) {
    let updates = (batches * BATCH_OPS) as f64;
    let per_update = |v: u64| v as f64 / updates;
    // One caller, so every coalescer round is one `Bur::apply`.
    let apply_calls = if served {
        c.co_rounds.max(1)
    } else {
        batches as u64
    };
    m.set(
        "core.escalation_rate",
        c.op_escalations as f64 / apply_calls as f64,
    );
    let outcomes = c.op_updates.max(1) as f64;
    m.set("core.upd_in_place_share", c.op_in_place as f64 / outcomes);
    m.set("core.upd_extended_share", c.op_extended as f64 / outcomes);
    m.set("core.upd_shifted_share", c.op_shifted as f64 / outcomes);
    m.set("core.upd_ascended_share", c.op_ascended as f64 / outcomes);
    m.set("core.upd_top_down_share", c.op_top_down as f64 / outcomes);
    m.set("core.splits_per_kop", per_update(c.op_splits) * 1e3);
    m.set("core.condenses_per_kop", per_update(c.op_condenses) * 1e3);
    m.set("update_page_fetches", per_update(c.io_fetches));
    m.set("storage.reads_per_update", per_update(c.io_reads));
    m.set("storage.writes_per_update", per_update(c.io_writes));
    m.set(
        "storage.hit_ratio",
        1.0 - c.io_reads as f64 / c.io_fetches.max(1) as f64,
    );
    if file_bytes > 0 {
        m.set(
            "storage.file_bytes_per_object",
            file_bytes as f64 / objects as f64,
        );
    } else {
        m.absent(
            &["storage.file_bytes_per_object"],
            "n/a (volatile index: no file)",
        );
    }
    if c.wal_records > 0 {
        m.set("wal.bytes_per_update", per_update(c.wal_bytes));
        m.set("wal.records_per_update", per_update(c.wal_records));
        m.set(
            "wal.image_share",
            c.wal_images as f64 / (c.wal_images + c.wal_deltas).max(1) as f64,
        );
        m.set(
            "wal.syncs_per_commit",
            c.wal_syncs as f64 / c.wal_commits.max(1) as f64,
        );
        m.set(
            "wal.commits_per_batch",
            c.wal_commits as f64 / batches as f64,
        );
        m.set(
            "wal.checkpoints_per_kop",
            per_update(c.wal_checkpoints) * 1e3,
        );
        m.set("wal.page_writes_per_update", per_update(c.wal_page_writes));
        m.set("wal.log_pages", log_pages as f64);
    } else {
        m.absent(
            &[
                "wal.bytes_per_update",
                "wal.records_per_update",
                "wal.image_share",
                "wal.syncs_per_commit",
                "wal.commits_per_batch",
                "wal.checkpoints_per_kop",
                "wal.page_writes_per_update",
                "wal.log_pages",
            ],
            "n/a (volatile index: no log)",
        );
    }
}

/// One request of the window, 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion, ns from the window start.
    end_ns: u64,
    /// What the caller waited (from the due time when paced), clamped to 4.29 s.
    latency_ns: u32,
    /// Send minus due time when paced, else 0.
    lateness_ns: u32,
    kind: Kind,
}

fn clamp_u32(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

struct LaneResult {
    stream: Stream,
    samples: Vec<Sample>,
    errors: Vec<String>,
    sink: SpanSink,
    retries: u64,
    reconnects: u64,
}

/// What the query phase and the traced extras need from the window.
struct Window {
    query: Summary,
    knn: Summary,
    query_rate: f64,
    traced_rate: f64,
    untraced_rate: f64,
}

/// The quiet quartile over the window's slices of `weight` units per
/// sample per second; `traced` keeps only the slices that recorded spans
/// (the even ones) or only those that did not.
fn quiet_rate(
    samples: &[Sample],
    kind: Kind,
    weight: u64,
    window_ns: u64,
    traced: Option<bool>,
) -> f64 {
    let done = samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| (s.end_ns, weight));
    let mut rates: Vec<f64> = stats::slice_rates(done, window_ns, SLICES)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| traced.is_none_or(|t| (i % 2 == 0) == t))
        .map(|(_, r)| r)
        .collect();
    stats::quantile(&mut rates, 1.0 - QUIET)
}

/// The quiet quartile over the window's slices of the slice's median
/// latency, in us.
fn quiet_p50_us(samples: &[Sample], kind: Kind, window_ns: u64) -> f64 {
    let done = samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| (s.end_ns, u64::from(s.latency_ns)));
    let mut medians = stats::slice_medians(done, window_ns, SLICES);
    stats::quantile(&mut medians, QUIET) / 1e3
}

fn window_phase(
    spec: &'static Spec,
    opts: &RunOpts,
    sut: &Sut,
    streams: Vec<Stream>,
    t: &mut Tally,
) -> Res<(Vec<Stream>, Window, Vec<SpanSink>)> {
    let threads = streams.len();
    let window_ns = (opts.seconds * spec.window_share * 1e9) as u64;
    let mut lanes = Vec::with_capacity(threads);
    for (i, stream) in streams.into_iter().enumerate() {
        lanes.push((i, stream, sut.connector().connect()?));
    }
    for bur in sut.burs() {
        bur.reset_peak_concurrent_batches();
    }
    let quiet_before = calib::measure(threads);
    let before = sut.counters();
    let start_ns = now_ns() + 5_000_000;
    let results: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|(i, stream, conn)| {
                let lane = Lane {
                    spec,
                    schedule: spec.rate.map(|r| Schedule::new(r, i, threads)),
                    start_ns,
                    window_ns,
                    trace: opts.trace,
                };
                scope.spawn(move || lane.generate(i, stream, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let quiet_after = calib::measure(threads);
    let (chase_ns, alu_ms) = (
        (quiet_before.chase_ns + quiet_after.chase_ns) / 2.0,
        (quiet_before.alu_ms + quiet_after.alu_ms) / 2.0,
    );
    t.m.set("host.chase_ns_p50", chase_ns);
    t.m.set("host.alu_ms_p50", alu_ms);
    t.notes.push(format!(
        "host around the window: {chase_ns:.1} ns per dependent load, {alu_ms:.2} ms per 2M ALU steps"
    ));
    let counters = sut.counters().since(&before);
    let peak_batches = sut
        .burs()
        .iter()
        .map(bur_core::Bur::peak_concurrent_batches)
        .max();

    let mut streams = Vec::with_capacity(threads);
    let mut sinks = Vec::with_capacity(threads);
    let mut samples: Vec<Sample> = Vec::new();
    let (mut retries, mut reconnects) = (0u64, 0u64);
    for r in results {
        t.attempted += (r.samples.len() + r.errors.len()) as u64;
        t.failed += r.errors.len() as u64;
        t.problems.extend(r.errors.into_iter().take(3));
        retries += r.retries;
        reconnects += r.reconnects;
        samples.extend(r.samples);
        streams.push(r.stream);
        sinks.push(r.sink);
    }

    let latencies = |kind: Kind| -> Summary {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| u64::from(s.latency_ns))
            .collect();
        Summary::of(&mut v)
    };
    let apply = latencies(Update);
    let updates = BATCH_OPS as u64;
    let update_rate = if spec.rate.is_some() {
        // Open loop: the schedule fixes every slice's rate, so report what
        // was achieved overall, which falls when a backlog outlasts the window.
        let last_ack = samples
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(window_ns)
            .max(1);
        (apply.n as u64 * updates) as f64 / (last_ack as f64 / 1e9)
    } else {
        quiet_rate(&samples, Update, updates, window_ns, None)
    };
    t.m.set("update_ops_per_s", update_rate);
    t.m.set(
        "run.apply_p50_us",
        quiet_p50_us(&samples, Update, window_ns),
    );
    t.m.set("run.apply_p99_us", apply.p99_us());
    t.notes.push(format!(
        "apply (32-update batch, whole window): {}; update_ops_per_s and run.apply_p50_us are the quiet quartile of {SLICES} slices",
        apply.describe()
    ));
    if apply.n < 1_000 {
        t.notes.push(format!(
            "run.apply_p99_us has fewer than ten samples beyond it (n={}): read it as a high percentile, not a p99",
            apply.n
        ));
    }
    t.m.set("core.make_room_splits", counters.op_make_room as f64);
    t.m.set(
        "core.peak_concurrent_batches",
        peak_batches.unwrap_or(0) as f64,
    );
    t.m.set("gen.threads", threads as f64);

    if spec.rate.is_some() {
        let over_limit = samples
            .iter()
            .filter(|s| {
                u64::from(s.latency_ns)
                    > if s.kind == Update {
                        APPLY_LIMIT_NS
                    } else {
                        READ_LIMIT_NS
                    }
            })
            .count() as u64;
        let requests = samples.len().max(1) as f64;
        t.m.set(
            "run.missed_limit_share",
            (over_limit + t.failed) as f64 / requests,
        );
        let mut late: Vec<u64> = samples.iter().map(|s| u64::from(s.lateness_ns)).collect();
        late.sort_unstable();
        let n_late = late.iter().filter(|&&l| l > pacer::LATE_NS).count();
        t.m.set("gen.late_share", n_late as f64 / requests);
        t.m.set(
            "gen.late_p99_us",
            stats::percentile(&late, 0.99) as f64 / 1e3,
        );
    } else {
        t.m.absent(
            &[
                "run.missed_limit_share",
                "gen.late_share",
                "gen.late_p99_us",
            ],
            "n/a (closed loop: no schedule, no limit)",
        );
    }

    if sut.is_served() {
        let rounds = counters.co_rounds.max(1) as f64;
        t.m.set(
            "serve.coalesce_ratio",
            counters.co_submissions as f64 / rounds,
        );
        t.m.set("serve.ops_per_round", counters.co_ops as f64 / rounds);
        let server_mean_us =
            counters.srv_apply_ns as f64 / counters.srv_apply_n.max(1) as f64 / 1e3;
        t.m.set("serve.apply_server_mean_us", server_mean_us);
        let (p50, p99) = sut.server_quantiles_us(opcode::APPLY).unwrap_or((0.0, 0.0));
        t.m.set("serve.apply_server_p50_us", p50);
        t.m.set("serve.apply_server_p99_us", p99);
        t.m.set("serve.shed_writes", counters.co_shed as f64);
        t.m.set("serve.expired", counters.co_expired as f64);
        t.m.set("serve.dedup_hits", counters.co_dedup as f64);
        t.m.set("serve.request_errors", counters.srv_errors as f64);
        // Send-to-ack time, so that on the paced workload waiting for the
        // schedule is not charged to the wire.
        let on_wire: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == Update)
            .map(|s| f64::from(s.latency_ns.saturating_sub(s.lateness_ns)))
            .collect();
        let client_mean_us = on_wire.iter().sum::<f64>() / on_wire.len().max(1) as f64 / 1e3;
        t.m.set("client.wire_overhead_us", client_mean_us - server_mean_us);
        t.m.set("client.retries", retries as f64);
        t.m.set("client.reconnects", reconnects as f64);
    } else {
        t.m.absent(
            &[
                "serve.coalesce_ratio",
                "serve.ops_per_round",
                "serve.apply_server_mean_us",
                "serve.apply_server_p50_us",
                "serve.apply_server_p99_us",
                "serve.shed_writes",
                "serve.expired",
                "serve.dedup_hits",
                "serve.request_errors",
                "client.wire_overhead_us",
                "client.retries",
                "client.reconnects",
            ],
            NOT_ON_PATH,
        );
    }

    let window = Window {
        query: latencies(Query),
        knn: latencies(Knn),
        query_rate: quiet_rate(&samples, Query, 1, window_ns, None),
        traced_rate: quiet_rate(&samples, Update, updates, window_ns, Some(true)),
        untraced_rate: quiet_rate(&samples, Update, updates, window_ns, Some(false)),
    };
    Ok((streams, window, sinks))
}

/// One generator thread's share of the window.
struct Lane {
    spec: &'static Spec,
    schedule: Option<Schedule>,
    /// Window start on the `now_ns` clock.
    start_ns: u64,
    window_ns: u64,
    trace: bool,
}

impl Lane {
    fn generate(&self, tid: usize, mut stream: Stream, mut conn: Conn) -> LaneResult {
        let mut sink = SpanSink::new(format!("w{tid}"), if self.trace { SPAN_CAP } else { 0 });
        let mut samples = Vec::with_capacity(1 << 16);
        let mut errors = Vec::new();
        let mut batch = Batch::with_capacity(BATCH_OPS);
        let mut ids: Vec<u64> = Vec::new();
        let mut neighbours: Vec<(u64, f32)> = Vec::new();
        let slice_ns = (self.window_ns / SLICES as u64).max(1);
        let origin = trace::origin();
        pacer::wait_until(origin, self.start_ns);
        for i in 0u64.. {
            // Decide whether the window is over *before* generating: an
            // update the generator has drawn moves the oracle's positions,
            // so it must also reach the system.
            let due = self.schedule.map(|s| s.due_ns(i));
            let over = match due {
                Some(due) => due >= self.window_ns,
                None => now_ns().saturating_sub(self.start_ns) >= self.window_ns,
            };
            if over {
                break;
            }
            let kind = self.spec.cycle[(i % self.spec.cycle.len() as u64) as usize];
            let mut window = Rect::UNIT;
            match kind {
                Update => stream.fill(&mut batch),
                Query | Knn => window = stream.next_window(),
            }
            if let Some(due) = due {
                pacer::wait_until(origin, self.start_ns + due);
            }
            let sent = now_ns().saturating_sub(self.start_ns);
            // Even slices of a traced run record spans, odd ones do not.
            sink.set_enabled(self.trace && (sent / slice_ns) % 2 == 0);
            let request = sink.next_request();
            let name = match kind {
                Update => "request.apply",
                Query => "request.query",
                Knn => "request.knn",
            };
            let root = sink.open(name, request, 0, self.start_ns + sent);
            let result = match kind {
                Update => conn.apply(&batch).map(|times| {
                    if let Some(times) = times {
                        times.record(&mut sink, request, root);
                    }
                }),
                Query => conn.query(&window, &mut ids).map(|_| ()),
                Knn => conn.nearest(window.center(), KNN_K, &mut neighbours),
            };
            let done = now_ns();
            sink.close(root, done);
            let done = done.saturating_sub(self.start_ns);
            if let Err(e) = result {
                errors.push(e);
                continue;
            }
            let paced = pacer::account(due.unwrap_or(sent), sent, done);
            samples.push(Sample {
                end_ns: done,
                latency_ns: clamp_u32(paced.latency_ns),
                lateness_ns: clamp_u32(paced.lateness_ns),
                kind,
            });
        }
        let (retries, reconnects) = conn.retry_counts();
        LaneResult {
            stream,
            samples,
            errors,
            sink,
            retries,
            reconnects,
        }
    }
}

/// `run.query_p50_us`: from the window where the workload queries beside its
/// writers; otherwise from a timed run of window queries on the quiesced
/// index right after the window (what the updates did to the MBRs shows
/// in what a query costs afterwards).
fn query_phase(spec: &Spec, opts: &RunOpts, sut: &Sut, window: &Window, t: &mut Tally) -> Res<()> {
    let in_window = spec.cycle.contains(&Query);
    let (query, rate) = if in_window {
        (window.query, window.query_rate)
    } else {
        let mut conn = sut.connector().connect()?;
        let mut queries = check_queries(spec, opts);
        let mut ids = Vec::new();
        let mut lat = Vec::new();
        let until = Instant::now() + Duration::from_secs_f64((opts.seconds / 5.0).clamp(0.2, 2.0));
        while Instant::now() < until {
            let w = queries.next_query().window;
            let t0 = now_ns();
            if t.attempt(conn.query(&w, &mut ids)).is_some() {
                lat.push(now_ns() - t0);
            }
        }
        let query = Summary::of(&mut lat);
        (query, 1e9 / query.p50_ns.max(1) as f64)
    };
    t.m.set("run.query_p50_us", query.p50_us());
    t.m.set("run.query_p99_us", query.p99_us());
    t.m.set("run.query_ops_per_s", rate);
    t.notes.push(format!(
        "window query ({}): {}",
        if in_window {
            "beside the writers"
        } else {
            "quiesced, after the window"
        },
        query.describe()
    ));
    match sut.server_quantiles_us(opcode::QUERY) {
        Some((p50, _)) => t.m.set("serve.query_server_p50_us", p50),
        None => t.m.absent(&["serve.query_server_p50_us"], NOT_ON_PATH),
    }
    Ok(())
}

/// The correctness gate: integrity (`validate()` / `len`), then seeded
/// window and kNN queries against the brute-force oracle over the
/// positions the generators left every object at. Returns the kNN timings.
fn check(spec: &Spec, opts: &RunOpts, sut: &Sut, positions: &[Point], t: &mut Tally) -> Summary {
    t.attempt(sut.check_integrity(positions.len() as u64));
    let Some(mut conn) = t.attempt(sut.connector().connect()) else {
        return Summary::default();
    };
    let mut queries = check_queries(spec, opts);
    let sharded = sut.sharded();
    let mut shards_touched = 0usize;
    let mut ids = Vec::new();
    for _ in 0..CHECK_WINDOWS {
        let w = queries.next_query().window;
        if let Some(n) = t.attempt(conn.query(&w, &mut ids)) {
            if !oracle::window_matches(positions, &w, &mut ids) {
                let want = oracle::window_ids(positions, &w);
                let missing: Vec<_> = want.iter().filter(|id| !ids.contains(id)).take(3).collect();
                let extra: Vec<_> = ids.iter().filter(|id| !want.contains(id)).take(3).collect();
                t.fail(format!(
                    "window {w:?}: got {n} ids, the oracle has {}; missing {missing:?}, extra {extra:?}",
                    want.len()
                ));
            }
        }
        // Scatter width shows only on the router's own cursor.
        if let Some(entry) = &sharded {
            shards_touched += entry.sharded.query(&w).map_or(0, |q| q.shards_touched());
        }
    }
    if let Some(entry) = &sharded {
        t.m.set("shard.imbalance", entry.sharded.stats().imbalance);
        t.m.set(
            "shard.shards_per_query",
            shards_touched as f64 / CHECK_WINDOWS as f64,
        );
    } else {
        t.m.absent(&["shard.imbalance", "shard.shards_per_query"], NOT_ON_PATH);
    }
    let mut neighbours = Vec::new();
    let mut lat = Vec::new();
    for _ in 0..CHECK_KNN {
        let p = queries.next_query().window.center();
        let t0 = now_ns();
        if t.attempt(conn.nearest(p, KNN_K, &mut neighbours)).is_some() {
            lat.push(now_ns() - t0);
            if !oracle::knn_matches(positions, p, KNN_K, &neighbours) {
                t.fail(format!("kNN at {p:?}: answer differs from the oracle"));
            }
        }
    }
    Summary::of(&mut lat)
}

/// Ping round trips on an idle connection: the wire + dispatch floor.
fn ping_probe(sut: &Sut, opts: &RunOpts, t: &mut Tally) -> Res<()> {
    if !sut.is_served() {
        t.m.absent(&["client.ping_rtt_p50_us"], NOT_ON_PATH);
        return Ok(());
    }
    let mut conn = sut.connector().connect()?;
    let mut rtt = Vec::new();
    for _ in 0..(2_000 / opts.shrink.max(1)).max(100) {
        let t0 = now_ns();
        conn.ping()?;
        rtt.push(now_ns() - t0);
    }
    t.m.set("client.ping_rtt_p50_us", Summary::of(&mut rtt).p50_us());
    Ok(())
}

/// The latency budget of a served apply: four replayed layer costs against
/// what the client saw. Each term is the median of a *separate* replay of
/// the same batch stream, not a slice of one request.
fn budget(t: &mut Tally, served: bool) {
    if !served {
        t.m.absent(
            &["budget.residual_share"],
            "n/a (in-process workload: no hop chain)",
        );
        return;
    }
    let terms = [
        "client.ping_rtt_p50_us",
        "serve.queue_overhead_p50_us",
        "core.apply_volatile_p50_us",
        "wal.durable_overhead_p50_us",
    ];
    let observed = t.m.num("run.apply_p50_us").unwrap_or(0.0);
    let mut sum = 0.0;
    t.notes.push(
        "latency budget (medians of separate replays of one batch stream, not spans of one request):".into(),
    );
    for term in terms {
        let v = t.m.num(term).unwrap_or(0.0);
        sum += v;
        t.notes.push(format!("  {term:<32} {v:>10.1} us"));
    }
    let residual = (observed - sum) / observed.max(1e-9);
    t.notes.push(format!("  {:<32} {sum:>10.1} us", "sum"));
    t.notes.push(format!(
        "  {:<32} {observed:>10.1} us",
        "client-observed run.apply_p50_us"
    ));
    t.notes.push(format!(
        "  {:<32} {residual:>10.3}",
        "budget.residual_share"
    ));
    t.m.set("budget.residual_share", residual);
}
