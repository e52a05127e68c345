//! The fleet benchmark of the Ethernet Speaker reproduction.
//!
//! See `README.md` in this directory for the workloads, every metric
//! and how to run it.

pub mod calib;
pub mod child;
pub mod clock;
pub mod e2e;
pub mod metrics;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
