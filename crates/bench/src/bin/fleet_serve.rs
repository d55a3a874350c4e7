//! Live fleet serving with replacement economics (DESIGN.md §13): N
//! devices per (traffic × policy) cell queue and serve their lane's
//! seeded request stream — diurnal and heavy-tailed profiles by default —
//! with utilization-aware backpressure shedding or deferring offloads
//! when the tracker shows hot FUs, per-day wear folding into the lifetime
//! engine, and dead devices retired and replaced at cost. Emits
//! `results/serving.json` with per-cell fleet MTTF, p50/p95/p99 tail
//! latency, shed rate, and replacement counts/spend.
//!
//! Flags: `--devices <n>` sizes the fleet (default 8), `--horizon-days
//! <n>` the serving horizon (default 30), repeatable `--traffic <spec>`
//! replaces the profile mix (`steady@rph-N`, `diurnal@rph-N+swing-P`,
//! `heavy@rph-N+alpha-M`), `--lanes <n>` the distinct workload/traffic
//! seeds (default `min(devices, 4)`), `--shard <n>` the streaming shard
//! size, and the usual repeatable `--policy <spec>` / `--jobs <n>` apply.
//! Campaign control: `--checkpoint <path>` persists (and resumes)
//! progress, `--checkpoint-every <n>` sets the wave width, `--stop-after
//! <n>` pauses after n shards. `--metrics` turns the flight recorder on
//! (DESIGN.md §16): a completed campaign also writes
//! `results/metrics.json`. The report — and the metrics registry — is
//! byte-identical for every worker count, shard split and kill/resume
//! point — CI diffs them all.

use bench::{
    apply_cli_flags, default_serve_lanes, finish_campaign, fleet_serve_campaign, or_exit,
    parse_campaign_flags, parse_devices_flag, parse_horizon_days_flag, parse_lanes_flag,
    parse_shard_flag, parse_traffic_flags, ExperimentContext,
};
use transrec::ServeReport;

/// Default device instances per (traffic × policy) cell.
const DEFAULT_DEVICES: usize = 8;

/// Default serving horizon in days.
const DEFAULT_HORIZON_DAYS: usize = 30;

fn main() {
    let mut ctx = ExperimentContext::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = apply_cli_flags(&mut ctx).and_then(|()| {
        Ok((
            parse_devices_flag(&args)?.unwrap_or(DEFAULT_DEVICES),
            parse_horizon_days_flag(&args)?.unwrap_or(DEFAULT_HORIZON_DAYS) as u64,
            parse_traffic_flags(&args)?,
            parse_lanes_flag(&args)?,
            parse_shard_flag(&args)?,
            parse_campaign_flags(&args)?,
        ))
    });
    let (devices, horizon_days, traffic, lanes, shard, options) = or_exit(parsed);
    let lanes = lanes.unwrap_or_else(|| default_serve_lanes(devices));
    let traffic = if traffic.is_empty() { None } else { Some(traffic) };
    obs::global::reset();
    let status = fleet_serve_campaign(&ctx, devices, lanes, horizon_days, traffic, shard, &options);
    finish_campaign(status, "serving", "serving", options.collect_metrics, print_report);
}

fn print_report(r: &ServeReport) {
    println!(
        "== fleet serving: {} devices/cell over {} lane(s), {}x{} fabric, {} mix, {} days \
         ({}y deployed), {} Hz ==",
        r.devices, r.lanes, r.rows, r.cols, r.suite, r.horizon_days, r.horizon_years, r.clock_hz
    );
    println!(
        "{:<26} {:<26} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>10}",
        "traffic", "policy", "MTTF[y]", "p50[ms]", "p95[ms]", "p99[ms]", "shed%", "repl", "cost[$]"
    );
    for cell in &r.cells {
        println!(
            "{:<26} {:<26} {:>9.2} {:>8.1} {:>8.1} {:>8.1} {:>6.2}% {:>6} {:>10.2}",
            cell.traffic,
            cell.policy,
            cell.stats.mttf_years,
            cell.p50_ms,
            cell.p95_ms,
            cell.p99_ms,
            100.0 * cell.shed_rate,
            cell.replacements,
            cell.replacement_cost_cents as f64 / 100.0,
        );
    }
    for traffic in
        r.cells.iter().map(|c| c.traffic.clone()).collect::<std::collections::BTreeSet<_>>()
    {
        let base = r.cell(&traffic, "baseline");
        let best = r
            .cells
            .iter()
            .filter(|c| c.traffic == traffic && c.policy != "baseline")
            .max_by(|a, b| a.stats.mttf_years.total_cmp(&b.stats.mttf_years));
        if let (Some(base), Some(best)) = (base, best) {
            println!(
                "{traffic}: {} vs baseline — MTTF {:.2}x, p95 {:.1} -> {:.1} ms, \
                 replacements {} -> {}",
                best.policy,
                best.stats.mttf_years / base.stats.mttf_years,
                base.p95_ms,
                best.p95_ms,
                base.replacements,
                best.replacements,
            );
        }
    }
}
