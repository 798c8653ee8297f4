//! Per-figure experiment sweeps. Each function reproduces one figure (or
//! table) of the paper and returns the result tables; the `repro` binary
//! prints them and saves CSVs.

use crate::report::{fnum, Table};
use crate::runner::{run_experiment, ExperimentConfig, Measurement};
use crate::scale::Scale;
use crate::throughput;
use bur_core::{GbuParams, IndexOptions, LbuParams, UpdateStrategy};
use bur_workload::{DataDistribution, WorkloadConfig};

/// Paper defaults for the strategy parameters (Section 5.1).
pub const DEFAULT_EPSILON: f32 = 0.003;
/// Paper default distance threshold τ (Section 5.1.2).
pub const DEFAULT_TAU: f32 = 0.03;

fn base_workload(scale: Scale) -> WorkloadConfig {
    WorkloadConfig {
        num_objects: scale.objects(),
        distribution: DataDistribution::Uniform,
        max_distance: scale.max_distance(),
        movement: bur_workload::MovementModel::RandomWalk,
        query_max_side: 0.1,
        seed: 0xB0_77_03,
        clamp: false,
    }
}

/// TD options.
fn td() -> IndexOptions {
    IndexOptions::top_down()
}

/// LBU with a given ε.
fn lbu(epsilon: f32) -> IndexOptions {
    IndexOptions {
        strategy: UpdateStrategy::Localized(LbuParams { epsilon }),
        ..IndexOptions::default()
    }
}

/// GBU with given ε, τ and level threshold.
fn gbu(epsilon: f32, tau: f32, level: Option<u16>) -> IndexOptions {
    IndexOptions {
        strategy: UpdateStrategy::Generalized(GbuParams {
            epsilon,
            distance_threshold: tau,
            level_threshold: level,
            piggyback: true,
        }),
        ..IndexOptions::default()
    }
}

fn cell(
    scale: Scale,
    index: IndexOptions,
    workload: WorkloadConfig,
    buffer_pct: f64,
) -> Measurement {
    cell_with(scale, index, workload, buffer_pct, scale.updates())
}

fn cell_with(
    scale: Scale,
    index: IndexOptions,
    workload: WorkloadConfig,
    buffer_pct: f64,
    updates: usize,
) -> Measurement {
    let cfg = ExperimentConfig {
        index,
        workload,
        updates,
        queries: scale.queries(),
        buffer_pct,
    };
    let m = run_experiment(&cfg);
    eprintln!(
        "  [{} N={} U={}] upd_io={:.2} qry_io={:.1} (h={}, pages={})",
        index.strategy.name(),
        workload.num_objects,
        updates,
        m.update_io,
        m.query_io,
        m.height,
        m.data_pages
    );
    m
}

/// Figure 5(a)–(d): effect of ε on update and query cost for TD, LBU,
/// GBU. TD does not depend on ε and is measured once.
pub fn fig5_epsilon(scale: Scale) -> Vec<Table> {
    let epsilons = [0.0f32, 0.003, 0.007, 0.015, 0.03];
    let wl = base_workload(scale);
    eprintln!("fig5-epsilon: measuring TD baseline");
    let td_m = cell(scale, td(), wl, 1.0);
    let mut upd_io = Table::new(
        "Figure 5(a): varying epsilon — avg disk I/O, update",
        &["epsilon", "TD", "LBU", "GBU"],
    );
    let mut qry_io = Table::new(
        "Figure 5(b): varying epsilon — avg disk I/O, querying",
        &["epsilon", "TD", "LBU", "GBU"],
    );
    let mut upd_cpu = Table::new(
        "Figure 5(c): varying epsilon — total CPU time (s), update",
        &["epsilon", "TD", "LBU", "GBU"],
    );
    let mut qry_cpu = Table::new(
        "Figure 5(d): varying epsilon — total CPU time (s), querying",
        &["epsilon", "TD", "LBU", "GBU"],
    );
    for &eps in &epsilons {
        eprintln!("fig5-epsilon: eps={eps}");
        let l = cell(scale, lbu(eps), wl, 1.0);
        let g = cell(scale, gbu(eps, DEFAULT_TAU, None), wl, 1.0);
        upd_io.row(vec![
            fnum(eps as f64),
            fnum(td_m.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry_io.row(vec![
            fnum(eps as f64),
            fnum(td_m.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
        upd_cpu.row(vec![
            fnum(eps as f64),
            fnum(td_m.update_secs),
            fnum(l.update_secs),
            fnum(g.update_secs),
        ]);
        qry_cpu.row(vec![
            fnum(eps as f64),
            fnum(td_m.query_secs),
            fnum(l.query_secs),
            fnum(g.query_secs),
        ]);
    }
    vec![upd_io, qry_io, upd_cpu, qry_cpu]
}

/// Figure 5(e)–(f): effect of the distance threshold τ (GBU only; TD and
/// LBU are constants).
pub fn fig5_tau(scale: Scale) -> Vec<Table> {
    let taus = [0.0f32, 0.03, 0.3, 3.0];
    let wl = base_workload(scale);
    eprintln!("fig5-tau: measuring TD/LBU baselines");
    let td_m = cell(scale, td(), wl, 1.0);
    let lbu_m = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
    let mut upd = Table::new(
        "Figure 5(e): varying distance threshold — avg disk I/O, update",
        &["tau", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 5(f): varying distance threshold — avg disk I/O, querying",
        &["tau", "TD", "LBU", "GBU"],
    );
    for &tau in &taus {
        eprintln!("fig5-tau: tau={tau}");
        let g = cell(scale, gbu(DEFAULT_EPSILON, tau, None), wl, 1.0);
        upd.row(vec![
            fnum(tau as f64),
            fnum(td_m.update_io),
            fnum(lbu_m.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            fnum(tau as f64),
            fnum(td_m.query_io),
            fnum(lbu_m.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 5(g)–(h): effect of the maximum distance moved between
/// updates.
pub fn fig5_maxdist(scale: Scale) -> Vec<Table> {
    let dists = [0.003f32, 0.015, 0.03, 0.06, 0.1, 0.15];
    let mut upd = Table::new(
        "Figure 5(g): varying maximum distance — avg disk I/O, update",
        &["max_dist", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 5(h): varying maximum distance — avg disk I/O, querying",
        &["max_dist", "TD", "LBU", "GBU"],
    );
    for &d in &dists {
        eprintln!("fig5-maxdist: d={d}");
        let wl = WorkloadConfig {
            max_distance: d,
            ..base_workload(scale)
        };
        let t = cell(scale, td(), wl, 1.0);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, 1.0);
        upd.row(vec![
            fnum(d as f64),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            fnum(d as f64),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 6(a)–(b): effect of the level threshold L (GBU-0 … GBU-3)
/// across the maximum-distance sweep.
pub fn fig6_level(scale: Scale) -> Vec<Table> {
    let dists = [0.003f32, 0.03, 0.06, 0.1, 0.15];
    let headers = ["max_dist", "TD", "LBU", "GBU-0", "GBU-1", "GBU-2", "GBU-3"];
    let mut upd = Table::new(
        "Figure 6(a): ascending the R-tree — avg disk I/O, update",
        &headers,
    );
    let mut qry = Table::new(
        "Figure 6(b): ascending the R-tree — avg disk I/O, querying",
        &headers,
    );
    for &d in &dists {
        eprintln!("fig6-level: d={d}");
        let wl = WorkloadConfig {
            max_distance: d,
            ..base_workload(scale)
        };
        let t = cell(scale, td(), wl, 1.0);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
        let mut upd_row = vec![fnum(d as f64), fnum(t.update_io), fnum(l.update_io)];
        let mut qry_row = vec![fnum(d as f64), fnum(t.query_io), fnum(l.query_io)];
        for level in 0..=3u16 {
            let g = cell(
                scale,
                gbu(DEFAULT_EPSILON, DEFAULT_TAU, Some(level)),
                wl,
                1.0,
            );
            upd_row.push(fnum(g.update_io));
            qry_row.push(fnum(g.query_io));
        }
        upd.row(upd_row);
        qry.row(qry_row);
    }
    vec![upd, qry]
}

/// Figure 6(c)–(d): effect of the initial data distribution.
pub fn fig6_dist(scale: Scale) -> Vec<Table> {
    let dists = [
        DataDistribution::Uniform,
        DataDistribution::Gaussian,
        DataDistribution::Skewed,
    ];
    let mut upd = Table::new(
        "Figure 6(c): varying data distributions — avg disk I/O, update",
        &["distribution", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 6(d): varying data distributions — avg disk I/O, querying",
        &["distribution", "TD", "LBU", "GBU"],
    );
    for &d in &dists {
        eprintln!("fig6-dist: {}", d.name());
        let wl = WorkloadConfig {
            distribution: d,
            ..base_workload(scale)
        };
        let t = cell(scale, td(), wl, 1.0);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, 1.0);
        upd.row(vec![
            d.name().to_string(),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            d.name().to_string(),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 6(e)–(f): effect of the number of updates (multiples of the
/// base update count).
pub fn fig6_updates(scale: Scale) -> Vec<Table> {
    let multiples = [1usize, 2, 3, 5, 7, 10];
    let wl = base_workload(scale);
    let mut upd = Table::new(
        "Figure 6(e): varying amounts of updates — avg disk I/O, update",
        &["updates", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 6(f): varying amounts of updates — avg disk I/O, querying",
        &["updates", "TD", "LBU", "GBU"],
    );
    for &mult in &multiples {
        let updates = scale.updates() * mult;
        eprintln!("fig6-updates: U={updates}");
        let t = cell_with(scale, td(), wl, 1.0, updates);
        let l = cell_with(scale, lbu(DEFAULT_EPSILON), wl, 1.0, updates);
        let g = cell_with(
            scale,
            gbu(DEFAULT_EPSILON, DEFAULT_TAU, None),
            wl,
            1.0,
            updates,
        );
        upd.row(vec![
            updates.to_string(),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            updates.to_string(),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 6(g)–(h): effect of the buffer size (percent of database
/// pages).
pub fn fig6_buffer(scale: Scale) -> Vec<Table> {
    let pcts = [0.0f64, 1.0, 3.0, 5.0, 10.0];
    let wl = base_workload(scale);
    let mut upd = Table::new(
        "Figure 6(g): varying buffer size — avg disk I/O, update",
        &["buffer_pct", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 6(h): varying buffer size — avg disk I/O, querying",
        &["buffer_pct", "TD", "LBU", "GBU"],
    );
    for &pct in &pcts {
        eprintln!("fig6-buffer: {pct}%");
        let t = cell(scale, td(), wl, pct);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, pct);
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, pct);
        upd.row(vec![
            fnum(pct),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            fnum(pct),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 7: scalability — database size multiples (density grows, the
/// space is not expanded).
pub fn fig7_scale(scale: Scale) -> Vec<Table> {
    let multiples = [1usize, 2, 5, 10];
    let mut upd = Table::new(
        "Figure 7(a): scalability — avg disk I/O, update",
        &["objects", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Figure 7(b): scalability — avg disk I/O, querying",
        &["objects", "TD", "LBU", "GBU"],
    );
    for &mult in &multiples {
        let objects = scale.objects() * mult;
        eprintln!("fig7-scale: N={objects}");
        let wl = WorkloadConfig {
            num_objects: objects,
            ..base_workload(scale)
        };
        let t = cell(scale, td(), wl, 1.0);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, 1.0);
        upd.row(vec![
            objects.to_string(),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            objects.to_string(),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Figure 8: throughput with a varying update/query mix. The paper runs
/// it under DGL; here updates take leaf claims and page latches, and
/// queries page latches only (no query granules).
pub fn fig8_throughput(scale: Scale) -> Vec<Table> {
    throughput::fig8(scale)
}

/// Table 1: the parameter space (echoed for the record).
pub fn params_table() -> Vec<Table> {
    let mut t = Table::new(
        "Table 1: parameters and their values (* = default)",
        &["parameter", "values"],
    );
    for (k, v) in bur_workload::paper_parameter_table() {
        t.row(vec![k.to_string(), v.to_string()]);
    }
    vec![t]
}

/// Section 3.2 size claims: measure the summary structure's footprint
/// against the R-tree it summarizes, and recompute the paper's 4 KiB
/// geometry analytically.
pub fn summary_size(scale: Scale) -> Vec<Table> {
    let wl = base_workload(scale);
    let items = bur_workload::Workload::generate(wl).items();
    let index =
        bur_core::RTreeIndex::bulk_load_in_memory(gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), &items)
            .expect("bulk load");
    let summary = index.summary().expect("GBU summary");
    let tree_pages = index.tree_pages().expect("pages");
    let internal = summary.internal_count() as u64;
    let table_bytes = summary.table_size_bytes() as u64;
    let bitvec_bytes = summary.bitvec_size_bytes() as u64;
    let tree_bytes = tree_pages * index.options().page_size as u64;
    let entry_ratio =
        table_bytes as f64 / internal.max(1) as f64 / index.options().page_size as f64;
    let node_ratio = internal as f64 / tree_pages as f64;
    let space_ratio = table_bytes as f64 / tree_bytes as f64;

    let mut t = Table::new(
        "Section 3.2: summary structure size (measured at this build)",
        &["quantity", "measured", "paper (4KiB pages, fanout 204)"],
    );
    // Paper's analytic geometry: entry = 20.4 % of node, internal/node =
    // 0.75 %, table/tree = 0.16 %.
    t.row(vec![
        "avg table entry / node size".into(),
        format!("{:.1}%", entry_ratio * 100.0),
        "20.4%".into(),
    ]);
    t.row(vec![
        "internal nodes / all nodes".into(),
        format!("{:.2}%", node_ratio * 100.0),
        "0.75%".into(),
    ]);
    t.row(vec![
        "table bytes / tree bytes".into(),
        format!("{:.3}%", space_ratio * 100.0),
        "0.16%".into(),
    ]);
    t.row(vec![
        "bit vector bytes".into(),
        bitvec_bytes.to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "tree pages".into(),
        tree_pages.to_string(),
        "-".into(),
    ]);
    vec![t]
}

/// Section 4: analytic cost model vs measurement.
pub fn cost_model(scale: Scale) -> Vec<Table> {
    use bur_core::cost_model as cm;
    let dists = [0.003f32, 0.015, 0.03, 0.06, 0.1];
    let mut t = Table::new(
        "Section 4: analytic costs vs measured I/O (buffer 0%)",
        &[
            "max_dist",
            "analytic BU",
            "measured GBU",
            "TD best case",
            "measured TD",
        ],
    );
    for &d in &dists {
        eprintln!("cost-model: d={d}");
        let wl = WorkloadConfig {
            max_distance: d,
            ..base_workload(scale)
        };
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, 0.0);
        let td_m = cell(scale, td(), wl, 0.0);
        // Average leaf side: objects uniform in the unit square packed
        // ~27/leaf → leaf area ≈ 27/N, side ≈ sqrt of that.
        let s = (27.0f64 / wl.num_objects as f64).sqrt();
        // Expected travel distance is half the maximum (uniform draw).
        let analytic = cm::bottom_up_update_cost(d as f64 / 2.0, (s, s), DEFAULT_EPSILON as f64);
        let td_best = cm::top_down_best_case(g.height);
        t.row(vec![
            fnum(d as f64),
            fnum(analytic),
            fnum(g.update_io),
            fnum(td_best),
            fnum(td_m.update_io),
        ]);
    }
    vec![t]
}

/// Extension (paper future work, §6): the update strategies on the
/// R*-tree variant. Guttman vs R* builds, TD vs GBU updates on each.
pub fn ext_rstar(scale: Scale) -> Vec<Table> {
    let wl = base_workload(scale);
    let mut upd = Table::new(
        "Extension: R*-tree variant — avg disk I/O, update",
        &["tree", "TD", "GBU"],
    );
    let mut qry = Table::new(
        "Extension: R*-tree variant — avg disk I/O, querying",
        &["tree", "TD", "GBU"],
    );
    for (name, rstar) in [("guttman", false), ("rstar", true)] {
        eprintln!("ext-rstar: {name}");
        let mk = |o: IndexOptions| if rstar { o.rstar() } else { o };
        let t = cell(scale, mk(td()), wl, 1.0);
        let g = cell(scale, mk(gbu(DEFAULT_EPSILON, DEFAULT_TAU, None)), wl, 1.0);
        upd.row(vec![name.to_string(), fnum(t.update_io), fnum(g.update_io)]);
        qry.row(vec![name.to_string(), fnum(t.query_io), fnum(g.query_io)]);
    }
    vec![upd, qry]
}

/// Extension (§5.1.4's "persistent movement according to a trend"):
/// random-walk vs trend movement at the same speed. Trend movement keeps
/// crossing leaf boundaries in one direction, stressing extension/shift/
/// ascent harder than diffusion does.
pub fn ext_trend(scale: Scale) -> Vec<Table> {
    use bur_workload::MovementModel;
    let mut upd = Table::new(
        "Extension: movement model — avg disk I/O, update",
        &["movement", "TD", "LBU", "GBU"],
    );
    let mut qry = Table::new(
        "Extension: movement model — avg disk I/O, querying",
        &["movement", "TD", "LBU", "GBU"],
    );
    for (name, movement) in [
        ("random-walk", MovementModel::RandomWalk),
        ("trend", MovementModel::Trend { jitter: 0.3 }),
    ] {
        eprintln!("ext-trend: {name}");
        let wl = WorkloadConfig {
            movement,
            ..base_workload(scale)
        };
        let t = cell(scale, td(), wl, 1.0);
        let l = cell(scale, lbu(DEFAULT_EPSILON), wl, 1.0);
        let g = cell(scale, gbu(DEFAULT_EPSILON, DEFAULT_TAU, None), wl, 1.0);
        upd.row(vec![
            name.to_string(),
            fnum(t.update_io),
            fnum(l.update_io),
            fnum(g.update_io),
        ]);
        qry.row(vec![
            name.to_string(),
            fnum(t.query_io),
            fnum(l.query_io),
            fnum(g.query_io),
        ]);
    }
    vec![upd, qry]
}

/// Run every experiment at the given scale.
pub fn all(scale: Scale) -> Vec<(String, Vec<Table>)> {
    EXPERIMENTS
        .iter()
        .map(|name| {
            (
                (*name).to_string(),
                by_name(name, scale).expect("EXPERIMENTS entries resolve"),
            )
        })
        .collect()
}

/// Look up one experiment by CLI name.
pub fn by_name(name: &str, scale: Scale) -> Option<Vec<Table>> {
    Some(match name {
        "fig5-epsilon" => fig5_epsilon(scale),
        "fig5-tau" => fig5_tau(scale),
        "fig5-maxdist" => fig5_maxdist(scale),
        "fig6-level" => fig6_level(scale),
        "fig6-dist" => fig6_dist(scale),
        "fig6-updates" => fig6_updates(scale),
        "fig6-buffer" => fig6_buffer(scale),
        "fig7-scale" => fig7_scale(scale),
        "fig8-throughput" => fig8_throughput(scale),
        "params" => params_table(),
        "summary-size" => summary_size(scale),
        "cost-model" => cost_model(scale),
        "ext-rstar" => ext_rstar(scale),
        "ext-trend" => ext_trend(scale),
        _ => return None,
    })
}

/// All experiment names (CLI help + `all`).
pub const EXPERIMENTS: &[&str] = &[
    "params",
    "fig5-epsilon",
    "fig5-tau",
    "fig5-maxdist",
    "fig6-level",
    "fig6-dist",
    "fig6-updates",
    "fig6-buffer",
    "fig7-scale",
    "fig8-throughput",
    "summary-size",
    "cost-model",
    "ext-rstar",
    "ext-trend",
];
