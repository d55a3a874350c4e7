//! # perfbench — the simulator's end-to-end and per-layer benchmark
//!
//! One command runs one named workload (`paper`, `constrained`, `serving`,
//! `fleet`) for a fixed number of host seconds and prints every metric by
//! name and unit, ending with one JSON line. Untraced runs (`--trace 0`)
//! report host metrics at `--jobs 2` plus the workload's model metrics; a
//! traced run (`--trace 1`) re-runs the workload at `--jobs 1` under the
//! span profiler and the metrics registry, times each layer from outside
//! through its public entry points, and prints the per-layer table. See
//! `README.md` beside this crate.

mod host;
mod layers;
pub mod run;
mod setup;
pub mod workloads;

pub use run::{traced, untraced, Report};
pub use workloads::{Outcome, Workload};

/// The workload seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0xDAC2020;
