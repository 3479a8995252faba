//! # rcpn-perfbench — the repository benchmark
//!
//! Measures the generated (RCPN) simulators the way the paper's Figure 10
//! does — relative to SimpleScalar-Arm on the same program — on three
//! workloads, verifies every simulated result, and in a traced run splits
//! host time across the repository's layers. See `README.md` beside this
//! crate for the metric table and how to run it.

pub mod gen;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
