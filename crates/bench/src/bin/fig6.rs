//! Regenerates paper Fig. 6: the L×W design-space exploration
//! (execution time ×GPP, energy ×GPP, average occupation).
//!
//! Pass `--jobs <n>` to shard the 12 design points across n workers
//! (default: all cores; `--jobs 1` is sequential, same bytes either way).

use bench::{apply_cli_flags, fig6, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = fig6(&ctx);
    println!("== Fig. 6: design-space exploration (relative to stand-alone GPP) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "design", "time [x]", "energy [x]", "speedup", "occupation", "verified"
    );
    for p in &r.points {
        let tag = match (p.l, p.w) {
            (16, 2) => " <- BE",
            (32, 4) => " <- BP",
            (32, 8) => " <- BU",
            _ => "",
        };
        println!(
            "{:>10} {:>10.3} {:>10.3} {:>10.2} {:>11.1}% {:>9}{}",
            format!("(L{},W{})", p.l, p.w),
            p.rel_time,
            p.rel_energy,
            p.speedup,
            100.0 * p.occupation,
            p.verified,
            tag
        );
    }
    save_json("fig6", &r);
}
