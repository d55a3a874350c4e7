//! Regenerates every table and figure in one go (the full evaluation).
//!
//! Pass `--jobs <n>` to shard every figure's sweep across n workers
//! (default: all cores; `--jobs 1` is the sequential path — CI diffs the
//! two `results/` trees to enforce byte-identical output), the usual
//! repeatable `--policy <spec>` / `--fabric <spec>` flags to swap the
//! evaluated policy series and fabric layouts, and `--devices <n>` to
//! size the fleet behind `results/survival.json`.
//!
//! The full evaluation always runs with the flight recorder on
//! (DESIGN.md §16): `results/metrics.json` holds the deterministic
//! counter registry (byte-identical for every `--jobs` value — CI diffs
//! it with the rest of the tree) and `results/profile.json` the
//! wall-clock span tree per experiment phase (nondeterministic by nature,
//! excluded from the diff).

use bench::*;
use tracing::{span, Level};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    ctx.collect_metrics = true;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let devices = or_exit(parse_devices_flag(&args)).unwrap_or(8);
    let options = transrec::CampaignOptions { collect_metrics: true, ..Default::default() };
    obs::global::reset();
    let profiler = obs::Profiler::new();
    tracing::with_default(profiler.dispatch(), || {
        let phase = |name: &'static str| {
            eprintln!("[{name}]");
            span!(Level::INFO, name).entered()
        };
        {
            let _p = phase("fig1");
            save_json("fig1", &fig1(&ctx));
        }
        {
            let _p = phase("fig6");
            save_json("fig6", &fig6(&ctx));
        }
        {
            let _p = phase("fig7");
            save_json("fig7", &fig7(&ctx));
        }
        {
            let _p = phase("fig8");
            let f8 = fig8(&ctx);
            save_json("fig8", &f8);
            eprintln!("[convergence]");
            save_json("convergence", &convergence(&f8));
        }
        {
            let _p = phase("table1");
            save_json("table1", &table1(&ctx));
        }
        {
            let _p = phase("layout");
            save_json("layout", &layout(&ctx));
        }
        {
            let _p = phase("gap");
            save_json("gap", &gap(&ctx));
        }
        {
            let _p = phase("table2");
            save_json("table2", &table2(&ctx));
        }
        {
            let _p = phase("survival");
            let status =
                fig_lifetime_campaign(&ctx, devices, default_lanes(devices), None, &options);
            save_json("survival", &status.unwrap_complete());
        }
        {
            let _p = phase("serving");
            let lanes = default_serve_lanes(devices);
            let status = fleet_serve_campaign(&ctx, devices, lanes, 30, None, None, &options);
            save_json("serving", &status.unwrap_complete());
        }
    });
    save_json("metrics", &obs::global::snapshot());
    save_json("profile", &profiler.report());
    eprintln!("done: results/*.json");
}
