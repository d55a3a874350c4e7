//! Fleet-scale closed-loop lifetime simulation (DESIGN.md §11, §12): N
//! devices per policy run their lane's seed-derived mibench mix for years
//! on the BE scenario while NBTI wear accumulates, end-of-life FUs drop
//! out of the fault mask, allocation routes around them, and devices die
//! when no legal placement remains. Emits `results/survival.json` with
//! per-policy survival curves, MTTF and first-failure histograms.
//!
//! Flags: `--devices <n>` sizes the fleet (default 8), `--lanes <n>` sets
//! the distinct workload seeds (default `min(devices, 8)` — fleets beyond
//! 8 devices share trajectories through equivalence classes), `--shard
//! <n>` the streaming shard size, and the usual repeatable `--policy
//! <spec>` / `--jobs <n>` apply. Campaign control: `--checkpoint <path>`
//! persists (and resumes) progress, `--checkpoint-every <n>` sets the wave
//! width, `--stop-after <n>` pauses after n shards. `--metrics` turns the
//! flight recorder on (DESIGN.md §16): a completed campaign also writes
//! `results/metrics.json`. The report — and the metrics registry — is
//! byte-identical for every worker count, shard split and kill/resume
//! point — CI diffs them all.

use bench::{
    apply_cli_flags, default_lanes, fig_lifetime_campaign, finish_campaign, or_exit,
    parse_campaign_flags, parse_devices_flag, parse_lanes_flag, parse_shard_flag,
    ExperimentContext,
};
use transrec::FleetReport;

/// Default device instances per policy.
const DEFAULT_DEVICES: usize = 8;

fn main() {
    let mut ctx = ExperimentContext::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = apply_cli_flags(&mut ctx).and_then(|()| {
        Ok((
            parse_devices_flag(&args)?.unwrap_or(DEFAULT_DEVICES),
            parse_lanes_flag(&args)?,
            parse_shard_flag(&args)?,
            parse_campaign_flags(&args)?,
        ))
    });
    let (devices, lanes, shard, options) = or_exit(parsed);
    let lanes = lanes.unwrap_or_else(|| default_lanes(devices));
    obs::global::reset();
    let status = fig_lifetime_campaign(&ctx, devices, lanes, shard, &options);
    finish_campaign(status, "survival", "fleet", options.collect_metrics, print_report);
}

fn print_report(r: &FleetReport) {
    println!(
        "== fleet lifetime: {} devices/policy over {} lane(s), {}x{} fabric, {} mix, {}y \
         missions, {}y horizon ==",
        r.devices, r.lanes, r.rows, r.cols, r.suite, r.mission_years, r.horizon_years
    );
    println!(
        "{:<26} {:>8} {:>10} {:>13} {:>13} {:>12} {:>10}",
        "policy", "deaths", "MTTF[y]", "1st death[y]", "1st fail[y]", "alive@10y", "sims"
    );
    let baseline_mttf = r.policy("baseline").map(|p| p.stats.mttf_years);
    for fleet in &r.policies {
        let first_fail = fleet
            .devices
            .iter()
            .filter_map(|d| d.first_failure_years)
            .fold(f64::INFINITY, f64::min);
        println!(
            "{:<26} {:>5}/{:<2} {:>10.2} {:>13} {:>13} {:>11.0}% {:>10}",
            fleet.policy,
            fleet.stats.deaths,
            fleet.stats.devices,
            fleet.stats.mttf_years,
            fleet
                .stats
                .earliest_death_years
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "-".into()),
            if first_fail.is_finite() { format!("{first_fail:.2}") } else { "-".into() },
            100.0 * fleet.survival.alive_at(10.0),
            fleet.simulated_missions,
        );
    }
    if let Some(base) = baseline_mttf {
        println!();
        for fleet in r.policies.iter().filter(|p| p.policy != "baseline") {
            println!(
                "{:<26} outlives baseline by {:.2}x (MTTF, horizon-censored)",
                fleet.policy,
                fleet.stats.mttf_years / base
            );
        }
    }
}
