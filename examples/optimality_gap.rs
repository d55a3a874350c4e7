//! Optimality gap in miniature: how far do the heuristics sit from the
//! per-decision (myopic) `exact` oracle (DESIGN.md §15)?
//!
//! Runs the gap experiment on a single small layout — baseline, rotation
//! and the health-aware scan against `exact` — across the default injected
//! fault densities, and prints each policy's worst-FU duty as a multiple
//! of the oracle's. The oracle solves each placement decision exactly; it
//! is not a proven optimum of the whole run. `results/gap.json` (via
//! `cargo run --release -p bench --bin gap`) is the full-grid version of
//! this table.
//!
//! ```sh
//! cargo run --release --example optimality_gap [seed]
//! ```

use bench::{gap, ExperimentContext};
use uaware::PolicySpec;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xDAC2020u64))
}

/// Runs the miniature gap grid with an explicit seed (the smoke test
/// enters here, so libtest's own CLI arguments can never leak in as a
/// seed).
pub fn run(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let mut ctx = ExperimentContext { seed, ..ExperimentContext::default() };
    ctx.fabrics = vec!["2x8".parse()?];
    ctx.policies = vec![PolicySpec::rotation(), PolicySpec::HealthAware];
    let report = gap(&ctx);

    println!("seed {seed}; dutygap = worst-FU duty / the {} oracle's", report.exact_policy);
    println!(
        "{:>8} {:>8} {:>6} {:<24} {:>10} {:>8} {:>8}",
        "fabric", "density", "dead", "policy", "worstduty", "dutygap", "starved"
    );
    for row in &report.rows {
        assert!(row.verified, "{} failed verification under {}", row.fabric, row.policy);
        println!(
            "{:>8} {:>7.1}% {:>6} {:<24} {:>9.1}% {:>8.3} {:>8}",
            row.fabric,
            100.0 * row.fault_density,
            row.dead_fus,
            row.policy,
            100.0 * row.worst_utilization,
            row.duty_gap,
            row.offloads_starved,
        );
        // On this grid no policy beats the per-decision oracle: no gap may
        // dip below 1 (modulo the degenerate all-starved rows, which
        // report 0 duty).
        assert!(
            row.duty_gap >= 1.0 || row.worst_utilization == 0.0,
            "{} beat the exact oracle on {} at density {}",
            row.policy,
            row.fabric,
            row.fault_density
        );
    }
    Ok(())
}
