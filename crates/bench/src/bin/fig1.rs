//! Regenerates paper Fig. 1: FU utilization of a 1D 4×8 CGRA under
//! traditional (greedy, corner-anchored) mapping.
//!
//! Accepts the shared `--jobs <n>` flag for symmetry with the other
//! runners (a single-cell sweep gains nothing from it).

use bench::{apply_cli_flags, fig1, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = fig1(&ctx);
    println!("== Fig. 1: utilization of a {} fabric, baseline allocation ==", r.fabric);
    println!("{}", r.heatmap);
    println!("max FU utilization: {:.1}% (paper: 100%)", 100.0 * r.max);
    println!("min FU utilization: {:.1}% (paper: 1%)", 100.0 * r.min);
    save_json("fig1", &r);
}
