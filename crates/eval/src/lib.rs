//! # ann-eval
//!
//! Evaluation harness for the reproduction: timed builds ([`build`]),
//! single-thread L-ladder query sweeps ([`sweep`]), and report emission
//! ([`report`]). Every `repro_e*` binary in `ann-bench` is a thin
//! composition of these pieces, so measurement methodology lives in exactly
//! one place.

#![forbid(unsafe_code)]

pub mod audit;
pub mod build;
pub mod filtered;
pub mod report;
pub mod sweep;
pub mod tune;

pub use audit::{audit_bare_graph, audit_entry_graph, audit_frozen, audit_tau, AuditReport};
pub use build::{timed_build, BuildReport};
pub use filtered::{
    band_matches, filtered_ground_truth, recall_at_ndc, run_filtered_sweep, run_planned_sweep,
    run_postfilter_sweep, run_scan, FilteredPoint,
};
pub use report::{banner, fmt_f, results_dir, write_report, CsvTable, MarkdownTable};
pub use sweep::{ndc_at_recall, qps_at_recall, run_sweep, SweepConfig, SweepPoint};
pub use tune::{calibrate_l, Calibration};
