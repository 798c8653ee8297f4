//! The one table the runner, `perfbench list` and `BENCHMARK.json` share:
//! every workload and every metric with its unit, direction and bound.
//! A name that is not in here cannot be printed, and a unit test keeps
//! `BENCHMARK.json` equal to what this table generates.

use std::fmt::Write as _;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
    "run",
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "core_fast_mixed",
        why: "paper traffic in process: 32-update batches at max_distance 0.06 beside small window queries, volatile, tree fits the pool; all time is in core, hash, dgl and the pool hit path",
    },
    WorkloadDef {
        name: "core_slow_durable",
        why: "one writer, durable on a real file with fsync per batch, data 20x the pool, short moves; WAL, checkpoints, pool miss/evict and device sync do the work and counts repeat exactly",
    },
    WorkloadDef {
        name: "served_fast_update",
        why: "closed-loop client over loopback into burd's coalescer and a durable plain index at max_distance 0.06; the full hop chain client, wire, coalescer, core, WAL, sync, ack",
    },
    WorkloadDef {
        name: "served_sharded_paced",
        why: "open loop at a fixed 400 requests/s into a 4-shard durable index, updates beside window and kNN queries; the only path through the shard router, shows tail latency not throughput",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these, and none of them is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "build the index (and start the server) and load every object in 1024-insert batches; median of three set-ups"),
    e2e("update_ops_per_s", "1/s", Higher, 0.25, "updates acknowledged per second (durably where the index is durable): the rate a quarter of the window's 40 slices reach; on the paced workload all acknowledged over the time to the last ack"),
    e2e("update_page_fetches", "1/op", Lower, 0.10, "buffer-pool page fetches per update over the counted phase (the paper's cost unit; a count, so host noise does not move it)"),
    e2e("query_fetch_growth", "ratio", Lower, 0.10, "what the counted phase's updates did to query cost: page fetches per window query after it over the same 1000 fixed windows (sides up to 0.1) on the freshly loaded index; a ratio of counts"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "peak resident set (VmHWM) of the one process holding generators, index and server, read before the set-up is repeated"),
];

/// Numbers of single layers, from public counters and from replaying the
/// generated inputs against a layer on its own. Not gated.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload's own window, second-rank numbers a user would see.
    layer("run.apply_p50_us", "us", Lower, "median time of one 32-update batch as its caller sees it, durable ack included, from the due time on the paced workload: the slice median a quarter of the window's 40 slices stay under (demoted: on the paced workload it follows how fast the host wakes an idle CPU, and drifted 10-50 % between sets of runs)"),
    layer("run.apply_p99_us", "us", Lower, "99th percentile of one 32-update batch over the whole window (demoted from the gated list: outside its bound in the A/A check)"),
    layer("run.query_p50_us", "us", Lower, "median window query as its caller sees it: beside the writers where the workload mixes them, else on the quiesced index right after the window (demoted: outside its bound in the A/A check)"),
    layer("run.query_p99_us", "us", Lower, "99th percentile window query"),
    layer("run.query_ops_per_s", "1/s", Higher, "window queries answered per second while the window ran"),
    layer("run.knn_p50_us", "us", Lower, "median k=10 nearest-neighbour query (paced workload's window; elsewhere the check queries)"),
    layer("run.missed_limit_share", "ratio", Lower, "paced workload: requests over their limit (apply 20 ms, query/kNN 5 ms) or failed, over attempted"),
    layer("run.failed_share", "ratio", Lower, "failed, refused or oracle-mismatched operations over attempted; must be 0"),
    // bur-core, from OpSnapshot over the counted phase and the window.
    layer("core.escalation_rate", "ratio", Lower, "counted phase: escalations to the exclusive path per Bur::apply call"),
    layer("core.upd_in_place_share", "ratio", Higher, "counted phase: updates resolved inside the leaf MBR"),
    layer("core.upd_extended_share", "ratio", Higher, "counted phase: updates resolved by epsilon-extending the leaf MBR"),
    layer("core.upd_shifted_share", "ratio", Lower, "counted phase: updates resolved by a sibling shift"),
    layer("core.upd_ascended_share", "ratio", Lower, "counted phase: updates re-inserted from an ancestor"),
    layer("core.upd_top_down_share", "ratio", Lower, "counted phase: updates that fell back to top-down delete + insert"),
    layer("core.splits_per_kop", "1/kop", Lower, "counted phase: node splits per 1000 updates"),
    layer("core.condenses_per_kop", "1/kop", Lower, "counted phase: nodes dissolved per 1000 updates"),
    layer("core.make_room_splits", "count", Lower, "window: preparatory leaf splits"),
    layer("core.peak_concurrent_batches", "count", Higher, "window: most batches inside the shared write path at once"),
    layer("core.height", "count", Lower, "tree height after the run (tallest shard)"),
    layer("core.apply_volatile_p50_us", "us", Lower, "replay: one batch on a volatile in-memory twin"),
    layer("core.apply_durable_p50_us", "us", Lower, "replay: the same batch stream on a durable file-backed twin, apply + wait"),
    layer("core.apply_call_p50_us", "us", Lower, "replay, durable twin: the Bur::apply call alone"),
    layer("core.ticket_wait_p50_us", "us", Lower, "replay, durable twin: CommitTicket::wait alone"),
    layer("core.query_p50_us", "us", Lower, "replay, volatile twin: Bur::query of the workload's windows"),
    layer("core.knn_p50_us", "us", Lower, "replay, volatile twin: Bur::nearest, k=10"),
    layer("core.recover_ms", "ms", Lower, "replay: recover() of the durable twin after dropping it unflushed"),
    layer("hashindex.get_ns_p50", "ns", Lower, "standalone LinearHashIndex holding one key per object: one get"),
    // bur-storage, from IoSnapshot and a standalone pool and disk.
    layer("storage.reads_per_update", "1/op", Lower, "counted phase: disk page reads per update"),
    layer("storage.writes_per_update", "1/op", Lower, "counted phase: disk page writes per update"),
    layer("storage.fetches_per_query", "1/op", Lower, "window queries after the counted phase: page fetches per query, 1000 fixed windows with sides up to 0.1 (follows the seed by +-15 % through the loaded tree, so query_fetch_growth is what is gated)"),
    layer("storage.reads_per_query", "1/op", Lower, "window queries after the counted phase: disk page reads per query"),
    layer("storage.hit_ratio", "ratio", Higher, "counted phase: pool hit ratio"),
    layer("storage.file_bytes_per_object", "B", Lower, "index file bytes after the counted phase over objects"),
    layer("storage.fetch_hit_ns_p50", "ns", Lower, "standalone BufferPool::fetch of a resident page"),
    layer("storage.fetch_miss_mem_us_p50", "us", Lower, "standalone fetch that evicts and reads, MemDisk"),
    layer("storage.fetch_miss_file_us_p50", "us", Lower, "the same on a FileDisk in the data directory"),
    layer("storage.fetch_hit_mt_ratio", "ratio", Lower, "per-fetch hit time with min(nproc, 4) threads on disjoint pages over one thread's; skipped on 1 CPU"),
    layer("storage.sync_p50_us", "us", Lower, "one dirty page then DiskBackend::sync on a FileDisk in the data directory"),
    layer("storage.sync_p99_us", "us", Lower, "99th percentile of the same"),
    // bur-wal, from WalStatsSnapshot over the counted phase.
    layer("wal.bytes_per_update", "B", Lower, "log bytes appended per update"),
    layer("wal.records_per_update", "1/op", Lower, "log records per update"),
    layer("wal.image_share", "ratio", Lower, "full page images over images + deltas"),
    layer("wal.syncs_per_commit", "ratio", Lower, "durable syncs per commit record"),
    layer("wal.commits_per_batch", "ratio", Lower, "commit records per applied batch"),
    layer("wal.checkpoints_per_kop", "1/kop", Lower, "checkpoints per 1000 updates"),
    layer("wal.page_writes_per_update", "1/op", Lower, "physical log-page writes per update"),
    layer("wal.log_pages", "count", Lower, "pages the log owns after the counted phase"),
    layer("wal.durable_overhead_p50_us", "us", Lower, "replay: core.apply_durable_p50_us - core.apply_volatile_p50_us"),
    // bur-serve, from CoalescerStats and ServerMetrics over the window.
    layer("serve.coalesce_ratio", "ratio", Higher, "client submissions per group-commit round"),
    layer("serve.ops_per_round", "count", Higher, "operations per group-commit round"),
    layer("serve.apply_server_mean_us", "us", Lower, "server-side mean of the apply opcode over the window (the histogram's exact sum and count)"),
    layer("serve.apply_server_p50_us", "us", Lower, "server-side apply median since start; log2 buckets, so a factor-2 upper bound"),
    layer("serve.apply_server_p99_us", "us", Lower, "server-side apply p99, same resolution"),
    layer("serve.query_server_p50_us", "us", Lower, "server-side query median, same resolution"),
    layer("serve.shed_writes", "count", Lower, "write batches refused at admission"),
    layer("serve.expired", "count", Lower, "submissions whose deadline passed before commit"),
    layer("serve.dedup_hits", "count", Lower, "retried batches answered from the dedup table"),
    layer("serve.request_errors", "count", Lower, "requests answered with an error frame"),
    layer("serve.coalescer_apply_p50_us", "us", Lower, "replay: Coalescer::apply straight on the durable twin, one submitter"),
    layer("serve.queue_overhead_p50_us", "us", Lower, "replay: serve.coalescer_apply_p50_us - core.apply_durable_p50_us"),
    // bur-client.
    layer("client.ping_rtt_p50_us", "us", Lower, "ping round trip on an idle connection: wire + dispatch floor"),
    layer("client.wire_overhead_us", "us", Lower, "client-observed mean apply - serve.apply_server_mean_us"),
    layer("client.retries", "count", Lower, "operation retries across the window's connections"),
    layer("client.reconnects", "count", Lower, "reconnects across the window's connections"),
    // bur-shard, reached through the served sharded entry.
    layer("shard.imbalance", "ratio", Lower, "ShardStats::imbalance after the run"),
    layer("shard.shards_per_batch", "count", Lower, "counted phase: shards one 32-update batch splits across"),
    layer("shard.split_updates_share", "ratio", Lower, "counted phase: updates that cross shards (delete + insert) over updates"),
    layer("shard.shards_per_query", "count", Lower, "check queries: shards one window scatters to"),
    layer("shard.split_ops_p50_us", "us", Lower, "replay: ShardedBur::split_ops of one batch"),
    // The measurement itself.
    layer("host.chase_ns_p50", "ns", Lower, "one dependent load in an 8 MiB array, every generator thread at once, around the window: rises when neighbours contend for memory"),
    layer("host.alu_ms_p50", "ms", Lower, "2M dependent xorshift steps, measured alongside: rises when the CPU itself is taken away"),
    layer("gen.late_share", "ratio", Lower, "paced workload: requests sent more than 1 ms after they were due"),
    layer("gen.late_p99_us", "us", Lower, "paced workload: 99th percentile of send time - due time"),
    layer("gen.threads", "count", Higher, "generator threads / client connections: min(nproc, 4) - 1, at least 1, so one CPU stays free of generators"),
    layer("budget.residual_share", "ratio", Lower, "served workloads: share of client-observed run.apply_p50_us the four replayed layer costs leave unexplained"),
    layer("trace.overhead_share", "ratio", Lower, "1 - update throughput of the window's traced slices over its untraced slices"),
    layer("trace.spans", "count", Higher, "spans written to the trace file"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, generated (`perfbench list --json`).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.unwrap_or(0.0),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// `perfbench list`: every workload and metric, straight from the table.
pub fn listing() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads ({} s measured per run):", RUN_SECONDS);
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<22} {}", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "end-to-end metrics (gated; bound = share of the parent's median):"
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<34} {:<6} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    let _ = writeln!(out, "per-layer metrics (not gated):");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<34} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    let _ = writeln!(
        out,
        "not measured: dgl.* (bur-dgl has no public timing surface; skipped until ROADMAP item 1's probes), \
         bur-repl and bur-geom (on no measured path)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are gated");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn benchmark_json_is_generated_from_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench list --json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
