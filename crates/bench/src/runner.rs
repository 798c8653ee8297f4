//! The single-experiment executor: build a tree, run updates, run
//! queries, measure average physical I/O and CPU time per phase.

use bur_core::{IndexOptions, OpSnapshot};
use bur_workload::{Workload, WorkloadConfig};
use std::time::Instant;

/// One experiment cell: a strategy (inside [`IndexOptions`]) crossed with
/// a workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Index construction options (strategy, R-tree variant, page size).
    pub index: IndexOptions,
    /// Workload parameters (objects, distribution, movement, queries).
    pub workload: WorkloadConfig,
    /// Number of updates to run and measure.
    pub updates: usize,
    /// Number of queries to run and measure (after the updates, on the
    /// updated tree — the paper's protocol).
    pub queries: usize,
    /// Buffer size as a percentage of the database pages (tree + hash).
    /// The paper's default is 1.0 (%).
    pub buffer_pct: f64,
}

/// Measured outcomes of one experiment cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Average physical page transfers per update.
    pub update_io: f64,
    /// Average physical page transfers per query.
    pub query_io: f64,
    /// Total CPU (wall) time of the update phase, seconds.
    pub update_secs: f64,
    /// Total CPU (wall) time of the query phase, seconds.
    pub query_secs: f64,
    /// Tree height after the build.
    pub height: u16,
    /// Data pages (tree + hash) after the build.
    pub data_pages: u64,
    /// Buffer frames granted.
    pub buffer_frames: usize,
    /// Update outcome counters for the measured phase.
    pub outcomes: OpSnapshot,
    /// Total results returned by the query phase (sanity anchor).
    pub query_results: u64,
}

/// Run one experiment cell.
///
/// Protocol (matching Section 5): generate the initial objects, build
/// the tree by inserting them one at a time (the paper's "original
/// R-tree with re-insertions"; an insertion-built tree carries the node
/// overlap that makes top-down searches follow several partial paths),
/// size the buffer as a percentage of the database pages, start cold,
/// run and measure the update stream, then run and measure the query
/// stream on the updated index.
pub fn run_experiment(cfg: &ExperimentConfig) -> Measurement {
    let workload = Workload::generate(cfg.workload);
    // Build with a generous buffer: build I/O is not measured.
    let mut build_opts = cfg.index;
    build_opts.buffer_frames = 4096;
    let mut index = bur_core::IndexBuilder::with_options(build_opts)
        .build_index()
        .expect("create failed");
    for (oid, p) in workload.items() {
        index.insert(oid, p).expect("build insert failed");
    }

    let data_pages = index.data_pages().expect("page count");
    let buffer_frames =
        ((data_pages as f64 * cfg.buffer_pct / 100.0).round() as usize).min(data_pages as usize);
    index
        .set_buffer_capacity(buffer_frames)
        .expect("buffer resize");
    index.pool().evict_all().expect("cold start");
    index.io_stats().reset();
    index.op_stats().reset();

    // ---- update phase ----
    let mut wl = workload;
    let io_before = index.io_stats().snapshot();
    let t0 = Instant::now();
    for _ in 0..cfg.updates {
        let op = wl.next_update();
        index.update(op.oid, op.old, op.new).expect("update failed");
    }
    let update_secs = t0.elapsed().as_secs_f64();
    let io_updates = index.io_stats().snapshot().since(&io_before);
    let outcomes = index.op_stats().snapshot();

    // ---- query phase ----
    let io_before = index.io_stats().snapshot();
    let mut results = 0u64;
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for _ in 0..cfg.queries {
        let q = wl.next_query();
        buf.clear();
        index.query_into(&q.window, &mut buf).expect("query failed");
        results += buf.len() as u64;
    }
    let query_secs = t0.elapsed().as_secs_f64();
    let io_queries = index.io_stats().snapshot().since(&io_before);

    Measurement {
        update_io: io_updates.physical() as f64 / cfg.updates.max(1) as f64,
        query_io: io_queries.physical() as f64 / cfg.queries.max(1) as f64,
        update_secs,
        query_secs,
        height: index.height(),
        data_pages,
        buffer_frames,
        outcomes,
        query_results: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bur_workload::DataDistribution;

    fn small_cfg(index: IndexOptions) -> ExperimentConfig {
        ExperimentConfig {
            index,
            workload: WorkloadConfig {
                num_objects: 2_000,
                distribution: DataDistribution::Uniform,
                max_distance: 0.06,
                movement: bur_workload::MovementModel::RandomWalk,
                query_max_side: 0.1,
                seed: 77,
                clamp: false,
            },
            updates: 3_000,
            queries: 30,
            buffer_pct: 1.0,
        }
    }

    #[test]
    fn runner_produces_sane_measurements() {
        let m = run_experiment(&small_cfg(IndexOptions::generalized()));
        assert!(
            m.update_io > 0.0 && m.update_io < 50.0,
            "update io {}",
            m.update_io
        );
        assert!(m.query_io > 0.0, "query io {}", m.query_io);
        assert!(m.height >= 3);
        assert!(m.data_pages > 50);
        assert_eq!(m.outcomes.updates, 3_000);
        assert!(m.query_results > 0);
    }

    #[test]
    fn gbu_beats_td_on_update_io() {
        // The paper's headline claim at miniature scale.
        let td = run_experiment(&small_cfg(IndexOptions::top_down()));
        let gbu = run_experiment(&small_cfg(IndexOptions::generalized()));
        assert!(
            gbu.update_io < td.update_io,
            "GBU ({}) must beat TD ({}) on update I/O",
            gbu.update_io,
            td.update_io
        );
    }

    #[test]
    fn identical_config_reproducible() {
        let a = run_experiment(&small_cfg(IndexOptions::generalized()));
        let b = run_experiment(&small_cfg(IndexOptions::generalized()));
        assert_eq!(a.update_io, b.update_io);
        assert_eq!(a.query_io, b.query_io);
        assert_eq!(a.query_results, b.query_results);
    }
}
