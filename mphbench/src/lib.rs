//! The repository benchmark: three seeded workloads over the solver,
//! fabric and service layers, end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs, every output checked.
//!
//! Run one workload from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path mphbench/Cargo.toml -- \
//!     --workload solo-coarse --seed 1 --seconds 20 --trace 0
//! ```

pub mod checks;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
