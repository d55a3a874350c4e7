//! Aging forecast: plan the deployment lifetime of a CGRA product running a
//! known workload mix, comparing allocation policies — the decision the
//! paper's Table I supports, extended with the *temporal* view: a
//! `util-trace` probe samples the stress map during each run, so the
//! forecast also reports how fast every policy flattens worst-FU stress
//! (DESIGN.md §10).
//!
//! Two lifetime columns cross-check each other: `life[y]` is the one-shot
//! analytic projection from the final utilization grid, `wear[y]` replays
//! the same duty cycles through the persistent per-FU wear state
//! (DESIGN.md §11) — equivalent-age composition across missions must land
//! on the same worst-FU lifetime.
//!
//! The policy loop shares one precomputed GPP reference
//! ([`transrec::gpp_reference`] fed to [`transrec::run_suite_with_options`]):
//! the stand-alone GPP baseline is policy-independent, so it is simulated
//! once, not once per policy.
//!
//! ```sh
//! cargo run --release -p transrec --example aging_forecast
//! ```

use cgra::Fabric;
use lifetime::DeviceLifetime;
use nbti::CalibratedAging;
use transrec::telemetry::{settle_cycle, ProbeSpec};
use transrec::{gpp_reference, run_suite_with_options, EnergyParams, SuiteOptions, SystemConfig};
use uaware::{evaluate_aging, PolicySpec};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fabric = Fabric::be();
    let config = SystemConfig::new(fabric);
    let workloads = mibench::suite(42);
    let energy = EnergyParams::default();
    let aging = CalibratedAging::default();
    let probes = [ProbeSpec::util_trace(50_000)];

    // The policy-independent half of every run, computed exactly once.
    let gpp_cycles = gpp_reference(&config, &workloads)?;

    println!("deployment forecast, {}x{} fabric, ten-benchmark mix", fabric.rows, fabric.cols);
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>14} {:>10}",
        "policy", "worst-FU", "CoV", "life[y]", "wear[y]", "10y delay[%]", "settle[%]"
    );

    // The whole standard sweep, enumerated as data — every policy ×
    // pattern × granularity point the workspace knows about.
    for spec in PolicySpec::all_specs(&fabric) {
        let options =
            SuiteOptions { policy: spec, probes: &probes, gpp_reference: Some(&gpp_cycles) };
        let run = run_suite_with_options(&config, &workloads, &energy, options)?;
        assert!(run.all_verified(), "oracle failure under {spec}");
        let grid = run.tracker.utilization();
        let eval = evaluate_aging(&aging, &grid, 10.0, 101);
        let at_10y = aging.delay_increase(10.0, eval.worst_utilization);

        // The wear-state lifetime (DESIGN.md §11): fold the run's duty
        // cycles into a persistent per-FU wear grid, mission by mission,
        // and project the first end-of-life crossing. Equivalent-age
        // composition makes this agree with the analytic column.
        let total_cycles: u64 = run.benchmarks.iter().map(|b| b.stats.total_cycles()).sum();
        let duty = run.tracker.duty_cycles(total_cycles);
        let mut device = DeviceLifetime::new(&fabric, aging, false);
        for _ in 0..4 {
            device.advance_mission(&duty, 0.5); // two deployment years …
        }
        let wear_life = device.projected_first_failure(&duty);
        assert!(
            (wear_life - eval.lifetime_years).abs() < 1e-6,
            "wear-state and analytic lifetimes must agree ({wear_life} vs {})",
            eval.lifetime_years
        );

        // The temporal view: the suite-level epoch series, and where the
        // worst-FU stress settles to within 5% of its final value.
        let trace = run.util_trace().expect("util-trace probe attached");
        let total = trace.total_cycles();
        let settle = settle_cycle(&trace.worst_series(), 0.05);
        let settle_pct = if total == 0 { 0.0 } else { 100.0 * settle as f64 / total as f64 };

        println!(
            "{:<26} {:>9.1}% {:>10.3} {:>9.2} {:>9.2} {:>13.2}% {:>9.1}%",
            spec.to_string(),
            100.0 * eval.worst_utilization,
            grid.cov(),
            eval.lifetime_years,
            wear_life,
            100.0 * at_10y,
            settle_pct,
        );
    }

    println!();
    println!(
        "(end of life = {:.0}% delay degradation; paper anchor: u=100% dies in 3 years; \
         settle = fraction of the run after which worst-FU stress stays within 5% of final)",
        100.0 * aging.eol_delay_frac
    );
    Ok(())
}
