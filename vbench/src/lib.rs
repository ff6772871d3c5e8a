//! End-to-end and per-layer benchmark of the vamor reduction pipeline.
//!
//! `vbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints, as its last line, one JSON object with the checked
//! operation counts and the metrics (`--trace 0`: end-to-end, `--trace 1`:
//! per layer). See `vbench/README.md` for the metric and workload tables.

pub mod alloc;
pub mod machine;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod workloads;
