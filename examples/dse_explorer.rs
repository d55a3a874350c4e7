//! Layout explorer: sweep heterogeneous fabric mixes (DESIGN.md §14) and
//! print the speedup / wear / lifetime trade-off per layout.
//!
//! Each layout is a `FabricSpec` string — geometry plus capability-class
//! mix plus column-bandwidth budget — and the whole set ×
//! {baseline, rotation} is one `SweepPlan`, sharded across all cores by
//! `run_sweep` (DESIGN.md §9); the printed table is byte-identical to a
//! sequential run.
//!
//! ```sh
//! cargo run --release --example dse_explorer [seed]
//! ```

use cgra::FabricSpec;
use nbti::CalibratedAging;
use transrec::{run_sweep, SweepPlan};
use uaware::PolicySpec;

/// The explored layout mixes: the uniform Fig. 1 geometry, its
/// heterogeneous class mixes, and bandwidth-budgeted variants.
const LAYOUTS: [&str; 6] =
    ["4x8", "4x8:het-checker", "4x8:het-rows", "4x8:het-cols", "4x8+bw-2", "4x8:het-checker+bw-2"];

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    run(std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xDAC2020u64))
}

/// Runs the sweep with an explicit seed (the smoke test enters here, so
/// libtest's own CLI arguments can never leak in as a seed).
pub fn run(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let aging = CalibratedAging::default();

    let mut plan = SweepPlan::new(seed).policy(PolicySpec::Baseline).policy(PolicySpec::rotation());
    let specs: Vec<FabricSpec> = LAYOUTS.iter().map(|s| s.parse()).collect::<Result<_, _>>()?;
    for spec in &specs {
        plan = plan.fabric(spec.build()?);
    }
    let runs = run_sweep(&plan, 0)?; // 0 = all cores

    println!("seed {seed}; worst-FU duty folds in column-bandwidth stress (DESIGN.md §14)");
    println!(
        "{:>22} {:>9} {:>10} {:>9} {:>13} {:>12} {:>8}",
        "layout", "speedup", "duty-base", "duty-rot", "life-base[y]", "life-rot[y]", "starved"
    );

    for (ci, spec) in specs.iter().enumerate() {
        let base = &runs[plan.index_of(ci, 0)];
        let rot = &runs[plan.index_of(ci, 1)];
        assert!(base.all_verified() && rot.all_verified());
        let cycles = |run: &transrec::SuiteRun| -> u64 {
            run.benchmarks.iter().map(|b| b.system_cycles).sum()
        };
        let base_duty = base.tracker.duty_cycles(cycles(base));
        let rot_duty = rot.tracker.duty_cycles(cycles(rot));
        let starved: u64 = rot.benchmarks.iter().map(|b| b.stats.offloads_starved).sum();
        println!(
            "{:>22} {:>8.2}x {:>9.1}% {:>8.1}% {:>13.2} {:>12.2} {:>8}",
            spec.to_string(),
            rot.speedup(),
            100.0 * base_duty.max(),
            100.0 * rot_duty.max(),
            aging.lifetime_years(base_duty.max()),
            aging.lifetime_years(rot_duty.max()),
            starved,
        );
    }
    Ok(())
}
