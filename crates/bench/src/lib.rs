//! # bench — the experiment harness
//!
//! One runner per paper artefact (Fig. 1, Fig. 6, Fig. 7, Fig. 8, Table I,
//! Table II), each regenerating the same rows/series the paper reports.
//! The binaries in `src/bin/` print the tables and drop machine-readable
//! JSON into `results/`; `cargo run -p bench --bin all --release`
//! regenerates everything (see EXPERIMENTS.md for paper-vs-measured).

#![warn(missing_docs)]

pub mod experiments;
pub mod flags;
pub mod gate;
pub mod reports;

pub use experiments::{
    convergence, default_gap_densities, default_gap_layouts, default_lanes, default_layouts,
    default_serve_lanes, fig1, fig6, fig7, fig8, fig_lifetime_campaign, fleet_serve_campaign, gap,
    layout, table1, table2, ExperimentContext, CONVERGENCE_TOLERANCE,
};
pub use flags::{
    apply_cli_flags, parse_campaign_flags, parse_devices_flag, parse_fabric_flags,
    parse_horizon_days_flag, parse_jobs_flag, parse_lanes_flag, parse_metrics_flag,
    parse_policy_flags, parse_shard_flag, parse_traffic_flags,
};
pub use gate::{GateOutcome, GateRow, GateStatus, DEFAULT_TOLERANCE};

use std::path::PathBuf;

use transrec::campaign::Status;

/// Directory where experiment JSON lands (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Serializes a report into `results/<name>.json`.
///
/// # Panics
///
/// Panics on I/O or serialization failure (the harness treats that as a
/// fatal experiment error).
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    eprintln!("[saved {}]", path.display());
}

/// The binaries' one malformed-input path: unwraps `parsed`, or prints
/// the error and exits with status 2.
pub fn or_exit<T, E: std::fmt::Display>(parsed: Result<T, E>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The shared ending of the campaign binaries: a completed campaign
/// prints its report with `print` and saves it as `results/<name>.json`
/// — plus `results/metrics.json` when it collected metrics — while a
/// paused `noun` campaign only reports its progress.
///
/// # Panics
///
/// Panics like [`save_json`].
pub fn finish_campaign<R: serde::Serialize>(
    status: Status<R>,
    name: &str,
    noun: &str,
    collect_metrics: bool,
    print: fn(&R),
) {
    match status {
        Status::Complete(report) => {
            print(&report);
            save_json(name, &*report);
            // Paused campaigns fold nothing into the global registry, so
            // metrics.json — like the report — only exists once the
            // campaign completes (the CI resume legs assert both).
            if collect_metrics {
                save_json("metrics", &obs::global::snapshot());
            }
        }
        Status::Paused { completed_shards, total_shards } => println!(
            "== {noun} campaign paused: {completed_shards}/{total_shards} shards complete \
             (resume with the same --checkpoint) =="
        ),
    }
}
