//! Regenerates paper Fig. 8: utilization PDFs (top) and NBTI-induced delay
//! increase over the years (bottom) for BE/BP/BU × every policy series.
//! The delay curves come from true in-run epoch snapshots (`util-trace`
//! probes riding the sweep, DESIGN.md §10); the utilization-convergence
//! report derived from the same series lands in `results/convergence.json`.
//!
//! Pass `--policy <spec>` (repeatable) to evaluate a custom policy set,
//! e.g. `fig8 -- --policy rotation:raster --policy health-aware`, and
//! `--jobs <n>` to shard the scenario x policy grid (default: all cores).

use bench::{apply_cli_flags, convergence, fig8, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = fig8(&ctx);
    println!("== Fig. 8 (top): utilization PDFs ==");
    for s in &r.series {
        let peak = s.pdf.iter().cloned().fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
        println!(
            "{:<3} {:<26} worst-util {:>5.1}%  pdf peak at u={:.2} (density {:.1})",
            s.scenario,
            s.policy,
            100.0 * s.worst_utilization,
            peak.0,
            peak.1
        );
    }
    println!();
    println!("== Fig. 8 (bottom): delay increase over time (worst FU) ==");
    println!(
        "{:<3} {:<26} {:>7} {:>7} {:>7} {:>7} {:>7}  years->10%",
        "sc", "policy", "2y", "4y", "6y", "8y", "10y"
    );
    for s in &r.series {
        let at = |y: f64| {
            s.delay_curve
                .iter()
                .find(|(t, _)| (*t - y).abs() < 0.06)
                .map(|(_, d)| format!("{:>6.2}%", 100.0 * d))
                .unwrap_or_default()
        };
        let eol = s
            .delay_curve
            .iter()
            .find(|(_, d)| *d >= r.eol_delay_frac)
            .map(|(t, _)| format!("{t:.1}y"))
            .unwrap_or_else(|| "> horizon".into());
        println!(
            "{:<3} {:<26} {} {} {} {} {}  {}",
            s.scenario,
            s.policy,
            at(2.0),
            at(4.0),
            at(6.0),
            at(8.0),
            at(10.0),
            eol
        );
    }
    let conv = convergence(&r);
    println!();
    println!(
        "== utilization convergence (worst FU settles within {:.0}%) ==",
        100.0 * conv.tolerance
    );
    for row in &conv.rows {
        println!(
            "{:<3} {:<26} settles at {:>5.1}% of run ({:>9} of {:>9} cycles)",
            row.scenario,
            row.policy,
            100.0 * row.settle_fraction,
            row.settle_cycle,
            row.total_cycles,
        );
    }
    save_json("fig8", &r);
    save_json("convergence", &conv);
}
