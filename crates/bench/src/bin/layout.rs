//! The layout explorer: heterogeneous fabric mixes × policies
//! (DESIGN.md §14).
//!
//! Sweeps the default layout mixes (or the repeatable `--fabric <spec>`
//! overrides) against the baseline plus the context policy series
//! (`--policy`), printing a per-layout table and writing
//! `results/layout.json`. `--jobs <n>` shards the sweep; the output is
//! byte-identical for every worker count.

use bench::{apply_cli_flags, layout, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = layout(&ctx);
    println!("== Layout explorer: fabric mixes x policies (proposed: {}) ==", r.proposed_policy);
    println!(
        "{:<24} {:<24} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "fabric", "policy", "speedup", "worstutil", "meanutil", "wear", "life(y)", "starved"
    );
    for row in &r.rows {
        assert!(row.verified, "oracle failed on {} under {}", row.fabric, row.policy);
        println!(
            "{:<24} {:<24} {:>7.2} {:>8.1}% {:>8.1}% {:>9.4} {:>9.2} {:>7}",
            row.fabric,
            row.policy,
            row.speedup,
            100.0 * row.worst_utilization,
            100.0 * row.mean_utilization,
            row.worst_wear,
            row.lifetime_years,
            row.offloads_starved,
        );
    }
    save_json("layout", &r);
}
