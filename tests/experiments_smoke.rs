//! Smoke tests for the experiment harness: every figure of the paper
//! must run end-to-end at `Scale::Smoke` and produce non-degenerate
//! tables. This keeps `repro all` permanently runnable.

use bur_bench::{figures, Scale};

fn check_tables(name: &str, min_rows: usize) {
    let tables = figures::by_name(name, Scale::Smoke)
        .unwrap_or_else(|| panic!("experiment {name} not found"));
    assert!(!tables.is_empty(), "{name}: no tables");
    for t in &tables {
        assert!(
            t.rows.len() >= min_rows,
            "{name}: table '{}' has {} rows, expected >= {min_rows}",
            t.title,
            t.rows.len()
        );
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len(), "{name}: ragged row");
            for cell in row {
                assert!(!cell.is_empty(), "{name}: empty cell");
            }
        }
        // Render must not panic and should contain the title.
        let rendered = t.render();
        assert!(rendered.contains("##"));
    }
}

#[test]
fn params_table_runs() {
    check_tables("params", 8);
}

#[test]
fn fig5_epsilon_runs() {
    check_tables("fig5-epsilon", 5);
}

#[test]
fn fig5_tau_runs() {
    check_tables("fig5-tau", 4);
}

#[test]
fn fig6_dist_runs() {
    check_tables("fig6-dist", 3);
}

#[test]
fn fig6_buffer_runs() {
    check_tables("fig6-buffer", 5);
}

#[test]
fn summary_size_runs() {
    check_tables("summary-size", 4);
}

#[test]
fn cost_model_runs() {
    check_tables("cost-model", 4);
}

#[test]
fn unknown_experiment_is_none() {
    assert!(figures::by_name("fig99-nope", Scale::Smoke).is_none());
}

#[test]
fn experiment_list_is_complete() {
    // Every listed experiment resolves (without being run here — the
    // heavyweight sweeps are covered by the dedicated tests above and by
    // `repro all`).
    for name in figures::EXPERIMENTS {
        assert!(
            [
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
            ]
            .contains(name),
            "unexpected experiment {name}"
        );
    }
    assert_eq!(figures::EXPERIMENTS.len(), 14);
}

#[test]
fn ext_rstar_runs() {
    check_tables("ext-rstar", 2);
}

#[test]
fn ext_trend_runs() {
    check_tables("ext-trend", 2);
}

#[test]
fn headline_shapes_hold_at_smoke_scale() {
    // The paper's two robust orderings, checked at smoke scale so CI
    // guards them: (1) GBU updates cost less than TD updates without a
    // buffer; (2) LBU queries degrade once epsilon grows.
    use bur_bench::{run_experiment, ExperimentConfig};
    use bur_core::{IndexOptions, LbuParams, UpdateStrategy};
    use bur_workload::WorkloadConfig;

    let wl = WorkloadConfig {
        num_objects: 3_000,
        max_distance: 0.05,
        ..WorkloadConfig::default()
    };
    let mk = |index, buffer_pct| ExperimentConfig {
        index,
        workload: wl,
        updates: 6_000,
        queries: 40,
        buffer_pct,
    };
    let td = run_experiment(&mk(IndexOptions::top_down(), 0.0));
    let gbu = run_experiment(&mk(IndexOptions::generalized(), 0.0));
    assert!(
        gbu.update_io < td.update_io,
        "unbuffered: GBU ({}) must beat TD ({})",
        gbu.update_io,
        td.update_io
    );

    let lbu_small = run_experiment(&mk(
        IndexOptions {
            strategy: UpdateStrategy::Localized(LbuParams { epsilon: 0.0 }),
            ..IndexOptions::default()
        },
        1.0,
    ));
    let lbu_large = run_experiment(&mk(
        IndexOptions {
            strategy: UpdateStrategy::Localized(LbuParams { epsilon: 0.03 }),
            ..IndexOptions::default()
        },
        1.0,
    ));
    assert!(
        lbu_large.query_io > lbu_small.query_io,
        "LBU query cost must grow with epsilon ({} vs {})",
        lbu_large.query_io,
        lbu_small.query_io
    );
}
