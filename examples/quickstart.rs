//! Quickstart: accelerate a RISC-V kernel on the CGRA and watch
//! utilization-aware allocation flatten the FU stress map.
//!
//! ```sh
//! cargo run --release -p transrec --example quickstart
//! ```

use cgra::Fabric;
use nbti::CalibratedAging;
use rv32::asm::assemble;
use transrec::{run_gpp_only, System, SystemConfig};
use uaware::PolicySpec;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small fixed-point dot-product kernel, written like compiled -O3
    // code (bottom-tested loop).
    let program = assemble(
        "
        .data
    a:  .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
    b:  .word 2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5
    out:
        .word 0

        .text
        la   s0, a
        la   s1, b
        li   s2, 16
        li   a0, 0
    loop:
        lw   t0, 0(s0)
        lw   t1, 0(s1)
        mul  t2, t0, t1
        add  a0, a0, t2
        addi s0, s0, 4
        addi s1, s1, 4
        addi s2, s2, -1
        bnez s2, loop
        la   t3, out
        sw   a0, 0(t3)
        ebreak
    ",
    )?;

    // Reference: the stand-alone GPP.
    let gpp = run_gpp_only(&program, 1 << 20, Default::default(), 1_000_000)?;
    println!(
        "GPP alone:              {:>6} cycles, dot = {}",
        gpp.cycles(),
        gpp.reg(rv32::Reg::A0)
    );

    // The paper's BE design point (16 columns x 2 rows).
    let fabric = Fabric::be();

    // 1. Traditional corner-anchored allocation: the `baseline` policy.
    let mut baseline = System::with_spec(SystemConfig::new(fabric), PolicySpec::Baseline)?;
    baseline.run(&program)?;
    println!(
        "TransRec (baseline):    {:>6} cycles ({:.2}x), {} offloads",
        baseline.cpu().cycles(),
        gpp.cycles() as f64 / baseline.cpu().cycles() as f64,
        baseline.stats().offloads,
    );

    // 2. The paper's utilization-aware rotation, selected as data — the
    // same spec could come from a CLI flag or a JSON sweep file.
    let mut rotated = System::with_spec(SystemConfig::new(fabric), PolicySpec::rotation())?;
    rotated.run(&program)?;
    println!(
        "TransRec (rotation):    {:>6} cycles ({:.2}x), same result: {}",
        rotated.cpu().cycles(),
        gpp.cycles() as f64 / rotated.cpu().cycles() as f64,
        rotated.cpu().reg(rv32::Reg::A0) == gpp.reg(rv32::Reg::A0),
    );

    // The aging story: the hottest FU decides the lifetime.
    let aging = CalibratedAging::default();
    let base_grid = baseline.tracker().utilization();
    let rot_grid = rotated.tracker().utilization();
    println!("\nBaseline utilization (max {:.0}%):", 100.0 * base_grid.max());
    println!("{}", base_grid.render_heatmap());
    println!("Rotated utilization (max {:.0}%):", 100.0 * rot_grid.max());
    println!("{}", rot_grid.render_heatmap());
    println!(
        "lifetime: {:.1} years -> {:.1} years ({:.2}x improvement)",
        aging.lifetime_years(base_grid.max()),
        aging.lifetime_years(rot_grid.max()),
        aging.lifetime_improvement(base_grid.max(), rot_grid.max()),
    );
    Ok(())
}
