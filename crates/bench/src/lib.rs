//! # tempart-bench
//!
//! Benchmark harness for the `tempart` reproduction of Kaul & Vemuri (DATE
//! 1998): the paper's six random task graphs, the experiment runner, and
//! the report formatting that regenerates Tables 1–4 plus the ablation and
//! simulation studies.
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p tempart-bench --bin tables -- all
//! ```
//!
//! or pick one experiment: `table1`, `table2`, `table3`, `table4`,
//! `ablation`, `simulate`.

pub mod graphs;
pub mod kernels;
pub mod report;
pub mod runner;

pub use graphs::{date98_device, date98_instance, date98_scaled_instance, paper_graph, GraphSpec};
pub use runner::{build_model, host_cpus, run_row, ExperimentRow, RowConfig};
