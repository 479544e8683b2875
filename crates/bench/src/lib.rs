//! # bddfc-bench — experiment harness
//!
//! The paper has no empirical evaluation section (it is a theory paper),
//! so the reproducible quantitative surface is the set of checkable
//! claims its examples and lemmas make, plus a systems-style evaluation
//! of each component. The [`experiments`] module regenerates every row of
//! EXPERIMENTS.md; `cargo run -p bddfc-bench --bin tables` prints them,
//! and the dependency-free benches under `benches/` (run with
//! `cargo bench`) measure the hot paths using the in-tree [`timing`]
//! harness.

#![warn(missing_docs)]

pub mod experiments;
pub mod prof;
pub mod timing;
pub mod top;

pub use experiments::{all_experiments, run_experiment, Experiment};
pub use prof::{run_workload, Report, WorkloadRun, WORKLOADS};
pub use timing::{bench, black_box, format_row, init_json, paired_ratio, BenchRow, SCHEMA_VERSION};
