//! The optimality-gap table: every heuristic policy measured against the
//! per-decision (myopic) `exact` oracle, which gives each placement the
//! leximin argmin over its legal pivots (DESIGN.md §15).
//!
//! Sweeps the default gap layouts (or the repeatable `--fabric <spec>`
//! overrides) × injected fault densities under the baseline, the context
//! policy series (`--policy`) and the `exact` oracle, printing a
//! per-cell table and writing `results/gap.json`. `--jobs <n>` shards
//! the sweep; the output is byte-identical for every worker count.
//! `--metrics` turns the flight recorder on (DESIGN.md §16) and also
//! writes `results/metrics.json`, byte-identical for every worker count
//! too.

use bench::{apply_cli_flags, gap, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    obs::global::reset();
    let r = gap(&ctx);
    println!("== Optimality gap: policies vs the {} oracle ==", r.exact_policy);
    println!(
        "{:<20} {:>7} {:<24} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "fabric",
        "density",
        "policy",
        "speedup",
        "worstutil",
        "life(y)",
        "dutygap",
        "lifegap",
        "starved"
    );
    for row in &r.rows {
        assert!(row.verified, "oracle failed on {} under {}", row.fabric, row.policy);
        println!(
            "{:<20} {:>6.1}% {:<24} {:>7.2} {:>8.1}% {:>8.2} {:>8.3} {:>8.3} {:>7}",
            row.fabric,
            100.0 * row.fault_density,
            row.policy,
            row.speedup,
            100.0 * row.worst_utilization,
            row.lifetime_years,
            row.duty_gap,
            row.lifetime_gap,
            row.offloads_starved,
        );
    }
    save_json("gap", &r);
    if ctx.collect_metrics {
        save_json("metrics", &obs::global::snapshot());
    }
}
