//! Regenerates paper Table I: utilization and lifetime improvements for the
//! BE, BP and BU scenarios, one row per scenario × policy.
//!
//! Pass `--policy <spec>` (repeatable) to evaluate a custom policy set,
//! e.g. `table1 -- --policy rotation:snake@per-load --policy random:7`, and
//! `--jobs <n>` to shard the scenario x policy grid (default: all cores;
//! `--jobs 1` and `--jobs 4` produce byte-identical JSON).

use bench::{apply_cli_flags, or_exit, save_json, table1, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = table1(&ctx);
    println!("== Table I: utilization and lifetime improvements ==");
    println!(
        "{:<9} {:<26} {:>9} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "Scenario",
        "Policy",
        "Avg.Util",
        "BaseWorst",
        "PolWorst",
        "Improv.",
        "BaseLife[y]",
        "PolLife[y]"
    );
    for row in &r.rows {
        println!(
            "{:<9} {:<26} {:>8.1}% {:>9.1}% {:>9.1}% {:>8.2}x {:>12.2} {:>12.2}",
            row.scenario,
            row.policy,
            100.0 * row.avg_util,
            100.0 * row.baseline_worst,
            100.0 * row.policy_worst,
            row.lifetime_improvement,
            row.baseline_lifetime_years,
            row.policy_lifetime_years,
        );
    }
    println!();
    println!(
        "paper (rotation:snake@per-exec): BE 39.7%/94.5%/41.1%/2.29x, \
         BP 17.1%/98.1%/22.4%/4.37x, BU 8.5%/98.1%/12.3%/7.97x"
    );
    save_json("table1", &r);
}
