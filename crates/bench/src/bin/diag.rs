//! Diagnostic: per-benchmark cycle breakdown on the BE fabric, plus the
//! flight recorder's metrics registry for the diagnosed run (DBT hit
//! rate, starvation counts, exact-solver calls — DESIGN.md §16).
//!
//! Pass `--policy <spec>` to diagnose a different allocation policy
//! (default: baseline), e.g. `diag -- --policy rotation:snake@per-load`,
//! `--fabric <spec>` to diagnose a different fabric layout (default: BE;
//! DESIGN.md §14), e.g. `diag -- --fabric 4x8:het-checker`, and
//! `--jobs <n>` to size the sweep pool (one cell, so the flag only
//! matters for the GPP-reference phase).

use bench::{or_exit, parse_fabric_flags, parse_jobs_flag, parse_policy_flags};
use cgra::Fabric;
use transrec::{run_sweep_observed, SweepPlan};
use uaware::PolicySpec;

fn flags_from_args() -> (PolicySpec, Fabric, usize) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = or_exit(parse_policy_flags(&args));
    let fabrics = or_exit(parse_fabric_flags(&args));
    let fabric = fabrics
        .first()
        .map_or_else(Fabric::be, |s| or_exit(s.build().map_err(|e| format!("--fabric {s}: {e}"))));
    let jobs = or_exit(parse_jobs_flag(&args));
    (specs.first().copied().unwrap_or(PolicySpec::Baseline), fabric, jobs.unwrap_or(0))
}

fn main() {
    let (spec, fabric, jobs) = flags_from_args();
    let plan = SweepPlan::new(0xDAC2020).fabric(fabric).policy(spec);
    println!("policy: {spec}");
    println!("fabric: {}", cgra::FabricSpec::from_fabric(&fabric));
    println!(
        "{:<16} {:>9} {:>9} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "bench",
        "gpp-only",
        "system",
        "speedup",
        "cover",
        "gppcyc",
        "exec",
        "reconf",
        "xfer",
        "rot",
        "offl",
        "skip",
        "starv"
    );
    let (runs, metrics) = run_sweep_observed(&plan, jobs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for b in &runs[0].benchmarks {
        assert!(b.verified, "oracle failed on {}", b.name);
        let s = &b.stats;
        let cover = s.offloaded_instrs as f64 / s.total_instrs() as f64;
        println!(
            "{:<16} {:>9} {:>9} {:>7.2} {:>5.1}% {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
            b.name,
            b.gpp_cycles,
            b.system_cycles,
            b.speedup(),
            100.0 * cover,
            s.gpp_cycles,
            s.cgra_exec_cycles,
            s.reconfig_cycles,
            s.transfer_cycles,
            s.rotate_cycles,
            s.offloads,
            s.offloads_skipped,
            s.offloads_starved,
        );
    }
    let hits = metrics.counter("dbt.cache.hit");
    let lookups = hits + metrics.counter("dbt.cache.miss");
    println!("\nmetrics registry (flight recorder, DESIGN.md §16):");
    if lookups > 0 {
        println!("  dbt cache hit rate: {:.1}%", 100.0 * hits as f64 / lookups as f64);
    }
    print!("{}", metrics.render_table());
}
