//! # ann-perf — the repository's benchmark
//!
//! Four workloads drive the serving engine from outside, the way an
//! embedding application would (`AnnService::submit*` → `BatchHandle::wait`,
//! `ShardSetWriter::{insert, delete, publish, recover}`), and report eight
//! end-to-end metrics; a separate traced run reports per-layer metrics taken
//! by timing each layer's public function from here. Nothing inside the
//! engine is instrumented, and nothing here depends on anything but the
//! engine crates and `std`.
//!
//! See `README.md` beside this package for the workload table, the metric →
//! layer → end-to-end table, the thread budget and how rates were frozen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod writes;
