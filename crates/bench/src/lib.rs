//! Experiment harness reproducing the paper's evaluation (Section 5).
//!
//! Every table and figure has a sweep function in [`figures`]; the
//! `repro` binary drives them and prints the same series the paper plots
//! (average disk I/O per update / per query, total CPU time, throughput).
//! Results are also written as CSV for EXPERIMENTS.md.
//!
//! The harness is deliberately scale-aware: `--scale paper` runs the
//! original 1M-object / 1M-update / 1M-query configuration; the default
//! scale keeps the same tree geometry (5 levels at 1 KiB pages) at
//! laptop-friendly sizes, and `smoke` exists so the whole sweep can run
//! in CI and in integration tests.

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod runner;
pub mod scale;
pub mod throughput;

pub use report::Table;
pub use runner::{run_experiment, ExperimentConfig, Measurement};
pub use scale::Scale;
