//! `burctl` — inspect and exercise persisted `bur` index files.
//!
//! ```text
//! burctl build <file> [--objects N] [--strategy td|lbu|gbu] [--seed S] [--durable]
//! burctl info <file>
//! burctl validate <file>
//! burctl query <file> <min_x> <min_y> <max_x> <max_y>
//! burctl knn <file> <x> <y> <k>
//! burctl batch <file> <ops-file|->
//! burctl stats <file> [--updates N]
//! burctl recover <file> [--strategy td|lbu|gbu]
//! burctl replicate <primary-file> <replica-file>
//! burctl promote <file> [--strategy td|lbu|gbu]
//! burctl wal-stats <file>
//! burctl upgrade <file>
//! burctl serve <data-dir> [--addr HOST:PORT] [--max-conns N]
//! burctl ping --addr HOST:PORT
//! burctl remote-query --addr HOST:PORT <index> <min_x> <min_y> <max_x> <max_y>
//! burctl chaos <listen> <upstream> [--plan <spec>]
//! burctl shard create --addr HOST:PORT <name> --shards N [--strategy td|lbu|gbu] [--durable]
//! burctl shard map <data-dir> <name>
//! burctl shard move <data-dir> <name> <lo> <hi> <to-shard>
//! burctl shard rebalance <data-dir> <name>
//! ```
//!
//! `build` creates a demonstration index from a seeded uniform workload;
//! the other commands open an existing file read-only (except `batch`,
//! which applies a mixed-operation `Batch` from a text stream; `stats`,
//! which drives updates and reports I/O and outcome counters; `recover`,
//! which replays the write-ahead log of a `--durable` index after a
//! crash and checkpoints the result; and the replication pair —
//! `replicate` ships a durable primary's log into a warm-standby clone
//! file, `promote` blesses a standby (or crashed primary) file as the
//! new verified primary).
//!
//! A `--durable` index is a file *pair*: `<file>` and the write-ahead
//! log beside it in `<file>.wal`. Every command takes the data file's
//! path and resolves the sidecar the way `IndexBuilder::file` does
//! (`bur::core::IndexFiles`). A file written before the log moved out
//! keeps it inside the data file; every command refuses it until
//! `upgrade` moves the log to its sidecar.
//!
//! The serving trio talks the `burd` wire protocol: `serve` runs the
//! server in the foreground over a data directory of named indexes
//! (equivalent to the standalone `burd` binary), `ping` checks a
//! running server's liveness, and `remote-query` runs a window query
//! against a named index over the network through `bur-client`.
//!
//! `chaos` runs a standalone frame-aware fault-injecting TCP proxy in
//! front of a running server — point clients at `<listen>` and it
//! forwards to `<upstream>`, dropping, truncating, delaying or
//! black-holing frames per the seeded `--plan` spec. Used to rehearse
//! client retry/timeout behavior against a real server.
//!
//! The `shard` family manages Hilbert-range sharded indexes. `shard
//! create` asks a running server to build an index as N range shards
//! behind one logical name; `shard map` prints a sharded index's
//! routing manifest (key-range segments, epoch, slack, any in-flight
//! migration); `shard move` and `shard rebalance` open the shard files
//! directly to migrate a key range or run the imbalance heuristic —
//! run those two only against a **stopped** server.

use bur::core::{
    log_path, Batch, IndexBuilder, IndexFiles, IndexOptions, RTreeIndex, LOG_DISK_ANCHOR,
};
use bur::geom::{Point, Rect};
use bur::repl::{Follower, LogShipper};
use bur::storage::{DiskBackend, FileDisk};
use bur::wal::{delta_payload_len, WalRecord};
use bur::workload::{Workload, WorkloadConfig};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         \x20 burctl build <file> [--objects N] [--strategy td|lbu|gbu] [--seed S] [--durable]\n\
         \x20 burctl info <file>\n\
         \x20 burctl validate <file>\n\
         \x20 burctl query <file> <min_x> <min_y> <max_x> <max_y>\n\
         \x20 burctl knn <file> <x> <y> <k>\n\
         \x20 burctl batch <file> <ops-file|->\n\
         \x20 burctl stats <file> [--updates N]\n\
         \x20 burctl recover <file> [--strategy td|lbu|gbu]\n\
         \x20 burctl replicate <primary-file> <replica-file>\n\
         \x20 burctl promote <file> [--strategy td|lbu|gbu]\n\
         \x20 burctl wal-stats <file>\n\
         \x20 burctl upgrade <file>\n\
         \x20 burctl serve <data-dir> [--addr HOST:PORT] [--max-conns N]\n\
         \x20 burctl ping --addr HOST:PORT\n\
         \x20 burctl remote-query --addr HOST:PORT <index> <min_x> <min_y> <max_x> <max_y>\n\
         \x20 burctl chaos <listen> <upstream> [--plan <spec>]\n\
         \x20 burctl shard create --addr HOST:PORT <name> --shards N [--strategy td|lbu|gbu] [--durable]\n\
         \x20 burctl shard map <data-dir> <name>\n\
         \x20 burctl shard move <data-dir> <name> <lo> <hi> <to-shard>\n\
         \x20 burctl shard rebalance <data-dir> <name>\n\
         \n\
         the shard family manages Hilbert-range sharded indexes: create\n\
         asks a running server to build <name> as N key-range shards\n\
         behind one logical name (writes route by key, queries scatter-\n\
         gather); map prints the routing manifest (<name>.shardmap) —\n\
         key-range segments, epoch, extent slack, in-flight migration;\n\
         move migrates the Hilbert keys [lo, hi) to <to-shard> and\n\
         rebalance runs imbalance-driven migration steps until even.\n\
         map/move/rebalance open the files directly: run them only\n\
         against a STOPPED server.\n\
         \n\
         chaos runs a fault-injecting TCP proxy in the foreground:\n\
         clients connect to <listen> (port 0 lets the OS pick; the bound\n\
         address is printed as `chaos proxy listening on <addr> -> <upstream>`)\n\
         and frames are forwarded to the burd server at <upstream> with\n\
         faults injected per --plan, a comma-separated spec:\n\
         `seed=42,drop=0.05,truncate=0.02,delay=0.1:5,blackhole=0.01,cut-after=4096`\n\
         (rates are per-frame probabilities; delay=RATE:MILLIS; cut-after\n\
         cuts the connection after N forwarded bytes per direction;\n\
         script=CONN/c2s|s2c/FRAME/drop|truncate|blackhole|delay pins a\n\
         fault to an exact frame, `+`-separated to stack). The same seed\n\
         replays the same fault schedule. Runs until killed.\n\
         \n\
         serve runs the burd server in the foreground over <data-dir>\n\
         (named indexes, one `<name>.bur` file each; create them over the\n\
         wire with bur-client). It prints `burd listening on <addr>` once\n\
         bound — pass port 0 to let the OS pick — and exits after a client\n\
         sends the shutdown opcode (writes drain, logs flush, indexes\n\
         checkpoint). ping round-trips a liveness probe; remote-query runs\n\
         a window query against a named index on a running server.\n\
         \n\
         replicate attaches a warm-standby follower to a --durable primary\n\
         file: it copies the base image, tails the write-ahead log with an\n\
         incremental cursor (surviving checkpoint rewinds via generation\n\
         tags), redoes every shipped record commit-by-commit onto\n\
         <replica-file>, and finally promotes the clone so it stands alone\n\
         as a valid durable index with its own <replica-file>.wal\n\
         (overwriting an earlier clone: re-run it to refresh). promote turns any durable\n\
         standby (or crashed primary) file into a verified primary: it replays the\n\
         file's own log to the last durable commit, rebuilds the memory\n\
         state the strategy needs, validates every invariant, and\n\
         checkpoints a fresh log generation.\n\
         \n\
         batch applies one atomic mixed-operation Batch read from <ops-file>\n\
         (or stdin with `-`): one `op,oid,x,y[,x2,y2]` line per operation,\n\
         where op is insert|update|delete (or i|u|d). insert and delete take\n\
         the object's position as x,y; update moves the object from x,y to\n\
         x2,y2. Blank lines and lines starting with `#` are skipped. On a\n\
         --durable file the whole batch lands under ONE write-ahead-log\n\
         group commit record — after a crash it recovers entirely or not at\n\
         all — and the commit ticket is awaited (hard durability ack).\n\
         \n\
         upgrade moves the log of a durable file written before sidecars out\n\
         of the data file into <file>.wal, once; other commands refuse such\n\
         a file until then.\n\
         \n\
         wal-stats reads the write-ahead log of a --durable file from its\n\
         <file>.wal sidecar and reports,\n\
         besides the generation / page / LSN figures: full-image vs delta\n\
         record counts (`N full images, M deltas`), the wire bytes the delta\n\
         encoder spent and saved versus full-image logging (`delta bytes`),\n\
         and the page records logged per full image."
    );
    ExitCode::FAILURE
}

fn parse_strategy(s: &str) -> Option<IndexOptions> {
    match s {
        "td" => Some(IndexOptions::top_down()),
        "lbu" => Some(IndexOptions::localized()),
        "gbu" => Some(IndexOptions::generalized()),
        _ => None,
    }
}

fn open(path: &str, opts: IndexOptions) -> Result<RTreeIndex, String> {
    IndexBuilder::with_options(opts)
        .file(path)
        .open()
        .build_index()
        .map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_build(path: &str, rest: &[String]) -> Result<(), String> {
    let mut objects = 50_000usize;
    let mut opts = IndexOptions::generalized();
    let mut seed = 42u64;
    let mut durable = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--objects" => {
                objects = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--objects needs a number")?;
            }
            "--strategy" => {
                opts = it
                    .next()
                    .and_then(|v| parse_strategy(v))
                    .ok_or("--strategy needs td|lbu|gbu")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--durable" => durable = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if durable {
        opts = opts.with_durability(bur::core::Durability::Wal(bur::core::WalOptions::default()));
    }
    let mut index = IndexBuilder::with_options(opts)
        .file(path)
        .build_index()
        .map_err(|e| format!("cannot init index: {e}"))?;
    let workload = Workload::generate(WorkloadConfig {
        num_objects: objects,
        seed,
        ..WorkloadConfig::default()
    });
    for (oid, p) in workload.items() {
        index
            .insert(oid, p)
            .map_err(|e| format!("insert {oid}: {e}"))?;
    }
    index.persist().map_err(|e| format!("persist: {e}"))?;
    println!(
        "built {path}: {} objects, strategy {}, height {}, {} tree pages",
        index.len(),
        index.options().strategy.name(),
        index.height(),
        index.tree_pages().map_err(|e| e.to_string())?,
    );
    Ok(())
}

fn cmd_info(path: &str) -> Result<(), String> {
    let index = open(path, IndexOptions::generalized())?;
    println!("file          : {path}");
    println!("objects       : {}", index.len());
    println!("height        : {}", index.height());
    println!("page size     : {} B", index.options().page_size);
    println!(
        "tree pages    : {}",
        index.tree_pages().map_err(|e| e.to_string())?
    );
    println!("hash pages    : {}", index.hash_pages());
    if let Some(s) = index.summary() {
        println!(
            "summary       : {} internal entries, {} B table + {} B parent index + {} B bit vectors",
            s.internal_count(),
            s.table_size_bytes(),
            s.parent_table_size_bytes(),
            s.bitvec_size_bytes()
        );
    }
    let mbr = index.bounds().map_err(|e| e.to_string())?;
    println!("root MBR      : {mbr}");
    Ok(())
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let index = open(path, IndexOptions::generalized())?;
    index
        .validate()
        .map_err(|e| format!("INVALID index: {e}"))?;
    println!("ok: {} objects, all invariants hold", index.len());
    Ok(())
}

fn cmd_query(path: &str, rest: &[String]) -> Result<(), String> {
    let nums: Vec<f32> = rest
        .iter()
        .map(|s| s.parse().map_err(|_| format!("bad coordinate {s}")))
        .collect::<Result<_, _>>()?;
    let [min_x, min_y, max_x, max_y] = nums[..] else {
        return Err("query needs 4 coordinates".into());
    };
    let index = open(path, IndexOptions::generalized())?;
    let window = Rect::new(min_x, min_y, max_x, max_y);
    if !window.is_valid() {
        return Err(format!("invalid window {window}"));
    }
    let mut hits = index.query(&window).map_err(|e| e.to_string())?;
    hits.sort_unstable();
    println!("{} objects in {window}:", hits.len());
    for chunk in hits.chunks(10) {
        println!(
            "  {}",
            chunk
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    Ok(())
}

fn cmd_knn(path: &str, rest: &[String]) -> Result<(), String> {
    let [x, y, k] = rest else {
        return Err("knn needs x y k".into());
    };
    let x: f32 = x.parse().map_err(|_| "bad x")?;
    let y: f32 = y.parse().map_err(|_| "bad y")?;
    let k: usize = k.parse().map_err(|_| "bad k")?;
    let index = open(path, IndexOptions::generalized())?;
    let neighbors = index
        .nearest_neighbors(Point::new(x, y), k)
        .map_err(|e| e.to_string())?;
    println!("{} nearest neighbors of ({x}, {y}):", neighbors.len());
    for n in neighbors {
        println!("  oid {:>8}  distance {:.6}", n.oid, n.distance);
    }
    Ok(())
}

/// Parse one `op,oid,x,y[,x2,y2]` line into the batch.
fn parse_batch_line(line: &str, lineno: usize, batch: &mut Batch) -> Result<(), String> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    let bad = |what: &str| format!("line {lineno}: {what} in {line:?}");
    let coord = |s: &str, what: &str| -> Result<f32, String> {
        s.parse().map_err(|_| bad(&format!("bad {what} {s:?}")))
    };
    let oid: u64 = fields
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("missing or bad oid"))?;
    match (fields[0], fields.len()) {
        ("insert" | "i", 4) => {
            batch.insert(
                oid,
                Point::new(coord(fields[2], "x")?, coord(fields[3], "y")?),
            );
        }
        ("delete" | "d", 4) => {
            batch.delete(
                oid,
                Point::new(coord(fields[2], "x")?, coord(fields[3], "y")?),
            );
        }
        ("update" | "u", 6) => {
            batch.update(
                oid,
                Point::new(coord(fields[2], "x")?, coord(fields[3], "y")?),
                Point::new(coord(fields[4], "x2")?, coord(fields[5], "y2")?),
            );
        }
        ("insert" | "i" | "delete" | "d", n) => {
            return Err(bad(&format!("expected 4 fields, got {n}")))
        }
        ("update" | "u", n) => return Err(bad(&format!("expected 6 fields, got {n}"))),
        (op, _) => return Err(bad(&format!("unknown op {op:?}"))),
    }
    Ok(())
}

fn cmd_batch(path: &str, rest: &[String]) -> Result<(), String> {
    let [source] = rest else {
        return Err("batch needs an ops file (or `-` for stdin)".into());
    };
    let mut batch = Batch::new();
    let reader: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let f = std::fs::File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
        Box::new(std::io::BufReader::new(f))
    };
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read {source}: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        parse_batch_line(line, i + 1, &mut batch)?;
    }
    if batch.is_empty() {
        return Err(format!("no operations in {source}"));
    }

    let bur = IndexBuilder::generalized()
        .file(path)
        .open()
        .build()
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let commits_before = bur.wal_stats().map_or(0, |s| s.commits);
    let ticket = bur.apply(&batch).map_err(|e| format!("apply: {e}"))?;
    let report = *ticket.report();
    let watermark = ticket.wait().map_err(|e| format!("durability ack: {e}"))?;
    println!(
        "applied {} operations atomically: {} inserted, {} updated, {} deleted \
         ({} deletes missed)",
        report.applied, report.inserted, report.updated, report.deleted, report.missing_deletes
    );
    if let Some(stats) = bur.wal_stats() {
        println!(
            "durable: {} group commit record(s) cover the batch, \
             durable watermark lsn {watermark}",
            stats.commits - commits_before
        );
    }
    bur.persist().map_err(|e| format!("persist: {e}"))?;
    bur.validate().map_err(|e| format!("INVALID index: {e}"))?;
    println!("persisted; all invariants hold ({} objects)", bur.len());
    Ok(())
}

fn cmd_stats(path: &str, rest: &[String]) -> Result<(), String> {
    let mut updates = 10_000usize;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--updates" => {
                updates = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--updates needs a number")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut index = open(path, IndexOptions::generalized())?;
    // Rebuild the same workload state the file was built from is not
    // possible in general; instead move objects found by sampling leaves.
    let all = index
        .query_entries(&Rect::new(
            f32::MIN / 4.0,
            f32::MIN / 4.0,
            f32::MAX / 4.0,
            f32::MAX / 4.0,
        ))
        .map_err(|e| e.to_string())?;
    if all.is_empty() {
        return Err("index is empty".into());
    }
    index.io_stats().reset();
    index.op_stats().reset();
    let before = index.io_stats().snapshot();
    for i in 0..updates {
        let e = &all[i % all.len()];
        let old = e.rect.center();
        let step = 0.002 * ((i % 7) as f32 - 3.0);
        let new = Point::new(old.x + step, old.y + step * 0.5);
        index
            .update(e.oid, old, new)
            .map_err(|err| format!("update {}: {err}", e.oid))?;
        // Move it back so repeated runs see a stable file.
        index
            .update(e.oid, new, old)
            .map_err(|err| format!("restore {}: {err}", e.oid))?;
    }
    let io = index.io_stats().snapshot().since(&before);
    println!(
        "{} updates: {:.3} physical I/O per update ({})",
        updates * 2,
        io.physical() as f64 / (updates * 2) as f64,
        index.op_stats().snapshot()
    );
    Ok(())
}

fn cmd_recover(path: &str, rest: &[String]) -> Result<(), String> {
    let mut opts = IndexOptions::generalized();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strategy" => {
                opts = it
                    .next()
                    .and_then(|v| parse_strategy(v))
                    .ok_or("--strategy needs td|lbu|gbu")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let opts = opts.with_durability(bur::core::Durability::Wal(bur::core::WalOptions::default()));
    let (index, report) = IndexBuilder::with_options(opts)
        .file(path)
        .recover()
        .build_index_with_report()
        .map_err(|e| format!("recover: {e}"))?;
    let report = report.expect("recover mode always produces a report");
    index
        .validate()
        .map_err(|e| format!("recovered index is INVALID: {e}"))?;
    println!(
        "recovered {path}: {} objects at lsn {} (log gen {})",
        report.recovered_len, report.recovered_lsn, report.log_generation
    );
    println!(
        "replayed {} full page images + {} deltas across {} commits \
         ({} log records scanned{})",
        report.replayed_images,
        report.replayed_deltas,
        report.commits,
        report.scanned_records,
        if report.torn_tail {
            ", torn tail discarded"
        } else {
            ""
        }
    );
    println!("checkpointed; all invariants hold");
    Ok(())
}

fn cmd_replicate(primary_path: &str, rest: &[String]) -> Result<(), String> {
    let [replica_path] = rest else {
        return Err("replicate needs <primary-file> <replica-file>".into());
    };
    let opts = IndexOptions::generalized()
        .with_durability(bur::core::Durability::Wal(bur::core::WalOptions::default()));
    let create = |path: &std::path::Path| -> Result<Arc<dyn DiskBackend>, String> {
        Ok(Arc::new(FileDisk::create(path, opts.page_size).map_err(
            |e| format!("cannot create {}: {e}", path.display()),
        )?))
    };
    // The primary is a file pair; the replica becomes one of the same shape.
    let primary = IndexFiles::open(primary_path.as_ref(), opts.page_size)
        .map_err(|e| format!("cannot load {primary_path}: {e}"))?;
    let log = primary.sidecar.ok_or_else(|| {
        format!("{primary_path} has no write-ahead log (built without --durable?)")
    })?;
    let mut shipper = LogShipper::new(primary.data, log);
    let replica = create(replica_path.as_ref())?;
    let replica_log = create(&log_path(replica_path.as_ref()))?;
    let mut follower = Follower::attach(&mut shipper, replica, Some(replica_log), opts)
        .map_err(|e| format!("attach: {e}"))?;
    follower
        .catch_up(&mut shipper)
        .map_err(|e| format!("ship: {e}"))?;
    let stats = follower.stats();
    let watermark = follower.applied_lsn();
    println!(
        "shipped {} records ({} commits, {} full images, {} deltas) across {} base copy(ies) \
         of {} pages",
        stats.records_shipped,
        stats.commits_applied,
        stats.images_applied,
        stats.deltas_applied,
        stats.resyncs,
        stats.pages_copied
    );
    // Promote the clone so the replica file is a self-describing durable
    // index (its own fresh log generation over the adopted state).
    let standby = follower.promote().map_err(|e| format!("finalize: {e}"))?;
    standby
        .validate()
        .map_err(|e| format!("INVALID replica: {e}"))?;
    println!(
        "{replica_path}: warm-standby clone of {primary_path} at watermark lsn {watermark} \
         ({} objects); re-run replicate to refresh, or `burctl promote` it to serve writes",
        standby.len()
    );
    Ok(())
}

fn cmd_promote(path: &str, rest: &[String]) -> Result<(), String> {
    let mut opts = IndexOptions::generalized();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strategy" => {
                opts = it
                    .next()
                    .and_then(|v| parse_strategy(v))
                    .ok_or("--strategy needs td|lbu|gbu")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let opts = opts.with_durability(bur::core::Durability::Wal(bur::core::WalOptions::default()));
    let (index, report) = IndexBuilder::with_options(opts)
        .file(path)
        .recover()
        .build_index_with_report()
        .map_err(|e| format!("promote: {e}"))?;
    let report = report.expect("recover mode always produces a report");
    index
        .validate()
        .map_err(|e| format!("promoted index is INVALID: {e}"))?;
    println!(
        "promoted {path}: {} objects at lsn {} (log gen {}), {} commits replayed{}",
        report.recovered_len,
        report.recovered_lsn,
        report.log_generation,
        report.commits,
        if report.torn_tail {
            "; torn tail discarded"
        } else {
            ""
        }
    );
    println!("all invariants hold — ready to serve writes as the new primary");
    Ok(())
}

fn cmd_wal_stats(path: &str) -> Result<(), String> {
    let opts = IndexOptions::generalized();
    let files = IndexFiles::open(path.as_ref(), opts.page_size)
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let page_size = opts.page_size as u64;
    let no_log = "no write-ahead log in this file (built without --durable?)";
    let log = files.sidecar.ok_or(no_log)?;
    let scan = bur::wal::scan(log.as_ref(), LOG_DISK_ANCHOR)
        .map_err(|e| format!("scan: {e}"))?
        .ok_or(no_log)?;
    let (mut images, mut deltas, mut commits, mut checkpoints) = (0u64, 0u64, 0u64, 0u64);
    let (mut delta_bytes, mut delta_saved) = (0u64, 0u64);
    for (_, rec) in &scan.records {
        match rec {
            WalRecord::PageImage { .. } => images += 1,
            WalRecord::PageDelta { ranges, .. } => {
                deltas += 1;
                // Payload of the delta versus the full image it replaced
                // (pid + page bytes), by the formula `Wal`'s
                // `delta_saved_bytes` counter uses, so the two tools agree.
                let payload = delta_payload_len(ranges.iter().map(|r| r.bytes.len())) as u64;
                delta_bytes += payload;
                delta_saved += (4 + page_size).saturating_sub(payload);
            }
            WalRecord::Commit { .. } => commits += 1,
            WalRecord::Checkpoint { .. } => checkpoints += 1,
        }
    }
    println!("file          : {path}");
    println!("log           : {}", log_path(path.as_ref()).display());
    println!("generation    : {}", scan.generation);
    println!("log pages     : {}", scan.pages.len());
    println!("stream bytes  : {}", scan.stream_bytes);
    println!(
        "records       : {} ({images} full images, {deltas} deltas, {commits} commits, \
         {checkpoints} checkpoints)",
        scan.records.len()
    );
    println!("delta bytes   : {delta_bytes} on the wire, {delta_saved} saved vs full images");
    if images + deltas > 0 {
        println!(
            "page records per full image: {:.1} ({:.0}% deltas)",
            (images + deltas) as f64 / images.max(1) as f64,
            100.0 * deltas as f64 / (images + deltas) as f64
        );
    }
    if let Some(&(first, _)) = scan.records.first() {
        let last = scan.records.last().map(|&(l, _)| l).unwrap_or(first);
        println!("lsn range     : {first}..={last}");
    }
    println!(
        "tail          : {}",
        if scan.torn_tail {
            "TORN (crash artifact; discarded on recovery)"
        } else {
            "clean"
        }
    );
    Ok(())
}

fn cmd_upgrade(path: &str) -> Result<(), String> {
    let opts = IndexOptions::generalized()
        .with_durability(bur::core::Durability::Wal(bur::core::WalOptions::default()));
    let (index, report) = bur::core::upgrade(path.as_ref(), opts).map_err(|e| e.to_string())?;
    index
        .validate()
        .map_err(|e| format!("upgraded index is INVALID: {e}"))?;
    println!(
        "upgraded {path}: {} objects, {} commits redone; all invariants hold",
        report.recovered_len, report.commits
    );
    Ok(())
}

fn cmd_serve(path: &str, rest: &[String]) -> Result<(), String> {
    let mut config = bur::serve::ServerConfig::new(path);
    config.addr = "127.0.0.1:4000".to_string();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--max-conns" => {
                config.max_connections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-conns needs a number")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let handle = bur::serve::start(config).map_err(|e| e.to_string())?;
    use std::io::Write as _;
    println!("burd listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.wait();
    // Whoever spawned us may have closed the pipe already.
    let _ = writeln!(std::io::stdout(), "burd stopped");
    Ok(())
}

/// Pull the mandatory `--addr HOST:PORT` out of `rest`, returning the
/// leftover arguments.
fn parse_addr(rest: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = None;
    let mut leftover = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone());
        } else {
            leftover.push(arg.clone());
        }
    }
    Ok((addr.ok_or("--addr HOST:PORT is required")?, leftover))
}

fn cmd_ping(rest: &[String]) -> Result<(), String> {
    let (addr, leftover) = parse_addr(rest)?;
    if !leftover.is_empty() {
        return Err(format!("unexpected arguments {leftover:?}"));
    }
    let started = std::time::Instant::now();
    let mut client =
        bur::client::BurClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    println!("pong from {addr} in {:?}", started.elapsed());
    Ok(())
}

fn cmd_remote_query(rest: &[String]) -> Result<(), String> {
    let (addr, leftover) = parse_addr(rest)?;
    let [index, coords @ ..] = leftover.as_slice() else {
        return Err("remote-query needs <index> <min_x> <min_y> <max_x> <max_y>".into());
    };
    let nums: Vec<f32> = coords
        .iter()
        .map(|s| s.parse().map_err(|_| format!("bad coordinate {s}")))
        .collect::<Result<_, _>>()?;
    let [min_x, min_y, max_x, max_y] = nums[..] else {
        return Err("remote-query needs 4 coordinates".into());
    };
    let window = Rect::new(min_x, min_y, max_x, max_y);
    if !window.is_valid() {
        return Err(format!("invalid window {window}"));
    }
    let mut client =
        bur::client::BurClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut hits: Vec<u64> = client
        .query(index, &window)
        .and_then(|stream| stream.collect_all())
        .map_err(|e| format!("query: {e}"))?;
    hits.sort_unstable();
    println!(
        "{} objects in {window} (index {index:?} at {addr}):",
        hits.len()
    );
    for chunk in hits.chunks(10) {
        println!(
            "  {}",
            chunk
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    Ok(())
}

fn cmd_chaos(rest: &[String]) -> Result<(), String> {
    let mut plan_spec = None;
    let mut positional = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--plan" {
            plan_spec = Some(it.next().ok_or("--plan needs a spec")?.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    let [listen, upstream] = positional.as_slice() else {
        return Err("chaos needs <listen> <upstream> [--plan <spec>]".into());
    };
    let plan = match plan_spec {
        Some(spec) => bur::serve::FaultPlan::parse(&spec).map_err(|e| format!("--plan: {e}"))?,
        None => bur::serve::FaultPlan::default(),
    };
    let proxy = bur::serve::ChaosProxy::start(listen, upstream.as_str(), plan)
        .map_err(|e| format!("start proxy: {e}"))?;
    use std::io::Write as _;
    println!("chaos proxy listening on {} -> {upstream}", proxy.addr());
    let _ = std::io::stdout().flush();
    // Foreground tool: runs until killed (the proxy threads do the work).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Open an existing sharded index from its manifest and shard files —
/// the offline mirror of the server registry's auto-detecting open.
/// Must not race a running server over the same files.
fn open_sharded(dir: &str, name: &str) -> Result<bur::shard::ShardedBur, String> {
    let manifest = std::path::Path::new(dir).join(format!("{name}.shardmap"));
    let m = bur::shard::load_manifest(&manifest)
        .map_err(|e| format!("cannot load {}: {e}", manifest.display()))?;
    let mut burs = Vec::with_capacity(m.shards as usize);
    for k in 0..m.shards {
        let file = std::path::Path::new(dir).join(format!("{name}.s{k}.bur"));
        burs.push(
            IndexBuilder::new()
                .file(&file)
                .open()
                .build()
                .map_err(|e| format!("cannot open {}: {e}", file.display()))?,
        );
    }
    bur::shard::ShardedBur::with_manifest(burs, manifest).map_err(|e| e.to_string())
}

fn shard_create(rest: &[String]) -> Result<(), String> {
    let (addr, leftover) = parse_addr(rest)?;
    let mut name = None;
    let mut shards = None;
    let mut strategy = "gbu".to_string();
    let mut durable = false;
    let mut it = leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .ok_or("--shards needs a number")?,
                );
            }
            "--strategy" => strategy = it.next().ok_or("--strategy needs td|lbu|gbu")?.clone(),
            "--durable" => durable = true,
            other if name.is_none() && !other.starts_with("--") => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let name = name.ok_or("shard create needs <name>")?;
    let shards = shards.ok_or("--shards N is required")?;
    let mut client =
        bur::client::BurClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .create_sharded_index(&name, &strategy, durable, shards)
        .map_err(|e| format!("create: {e}"))?;
    println!(
        "created sharded index {name:?} at {addr}: {shards} shards, strategy {strategy}{}",
        if durable { ", durable" } else { "" }
    );
    Ok(())
}

fn shard_map(rest: &[String]) -> Result<(), String> {
    let [dir, name] = rest else {
        return Err("shard map needs <data-dir> <name>".into());
    };
    let path = std::path::Path::new(dir).join(format!("{name}.shardmap"));
    let m = bur::shard::load_manifest(&path)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    let space = bur::shard::key_space_for(m.order);
    println!("manifest : {}", path.display());
    println!("order    : {} ({space} Hilbert keys)", m.order);
    println!("budget   : {} ranges per window decomposition", m.budget);
    println!("shards   : {}", m.shards);
    println!("epoch    : {}", m.epoch);
    println!("slack    : half-extent w {} h {}", m.slack.0, m.slack.1);
    println!("segments : {}", m.segments.len());
    for (i, seg) in m.segments.iter().enumerate() {
        let end = m.segments.get(i + 1).map_or(space, |next| next.start);
        println!("  [{}..{}) -> shard {}", seg.start, end, seg.shard);
    }
    match &m.migration {
        Some(mg) => println!(
            "migration: [{}..{}) shard {} -> {} ({})",
            mg.lo,
            mg.hi,
            mg.from,
            mg.to,
            if mg.flipped {
                "committed; rolls forward on open"
            } else {
                "intent; rolls back on open"
            }
        ),
        None => println!("migration: none"),
    }
    Ok(())
}

fn shard_move(rest: &[String]) -> Result<(), String> {
    let [dir, name, lo, hi, to] = rest else {
        return Err("shard move needs <data-dir> <name> <lo> <hi> <to-shard>".into());
    };
    let lo: u64 = lo.parse().map_err(|_| format!("bad lo {lo}"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("bad hi {hi}"))?;
    let to: u32 = to.parse().map_err(|_| format!("bad to-shard {to}"))?;
    let sharded = open_sharded(dir, name)?;
    let report = sharded
        .migrate_range(lo, hi, to)
        .map_err(|e| format!("migrate: {e}"))?;
    sharded.persist().map_err(|e| format!("persist: {e}"))?;
    println!(
        "moved {} objects [{lo}..{hi}) shard {} -> {} (epoch {})",
        report.moved, report.from, report.to, report.epoch
    );
    Ok(())
}

fn shard_rebalance(rest: &[String]) -> Result<(), String> {
    let [dir, name] = rest else {
        return Err("shard rebalance needs <data-dir> <name>".into());
    };
    let sharded = open_sharded(dir, name)?;
    let mut steps = 0u32;
    while let Some(report) = sharded
        .rebalance_step()
        .map_err(|e| format!("rebalance: {e}"))?
    {
        steps += 1;
        println!(
            "step {steps}: moved {} objects shard {} -> {} (epoch {})",
            report.moved, report.from, report.to, report.epoch
        );
        // The heuristic converges, but cap the walk so a pathological
        // distribution cannot spin this tool forever.
        if steps >= 64 {
            break;
        }
    }
    sharded.persist().map_err(|e| format!("persist: {e}"))?;
    let stats = sharded.stats();
    println!(
        "{steps} step(s); imbalance {:.3} over {} shards ({} segments, epoch {})",
        stats.imbalance,
        stats.shards.len(),
        stats.segments,
        stats.epoch
    );
    for (k, s) in stats.shards.iter().enumerate() {
        println!("  shard {k}: {} objects, height {}", s.len, s.height);
    }
    Ok(())
}

fn cmd_shard(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("shard needs a subcommand: create | map | move | rebalance".into());
    };
    match sub.as_str() {
        "create" => shard_create(rest),
        "map" => shard_map(rest),
        "move" => shard_move(rest),
        "rebalance" => shard_rebalance(rest),
        other => Err(format!("unknown shard subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    if matches!(cmd, "--help" | "-h" | "help") {
        usage();
        return ExitCode::SUCCESS;
    }
    // The networked commands and the shard family don't follow the
    // `<cmd> <path>` shape — handle them before the split.
    if matches!(cmd, "ping" | "remote-query" | "chaos" | "shard") {
        let result = match cmd {
            "ping" => cmd_ping(rest),
            "chaos" => cmd_chaos(rest),
            "shard" => cmd_shard(rest),
            _ => cmd_remote_query(rest),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("burctl {cmd}: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let Some((path, rest)) = rest.split_first() else {
        return usage();
    };
    let result = match cmd {
        "build" => cmd_build(path, rest),
        "info" => cmd_info(path),
        "validate" => cmd_validate(path),
        "query" => cmd_query(path, rest),
        "knn" => cmd_knn(path, rest),
        "batch" => cmd_batch(path, rest),
        "stats" => cmd_stats(path, rest),
        "recover" => cmd_recover(path, rest),
        "replicate" => cmd_replicate(path, rest),
        "promote" => cmd_promote(path, rest),
        "wal-stats" => cmd_wal_stats(path),
        "upgrade" => cmd_upgrade(path),
        "serve" => cmd_serve(path, rest),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("burctl {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}
