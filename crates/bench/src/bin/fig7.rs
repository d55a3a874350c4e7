//! Regenerates paper Fig. 7: BE (16×2) per-FU utilization heatmaps under
//! the baseline and the proposed utilization-aware allocation.
//!
//! Pass `--policy <spec>` to swap the proposed policy, e.g.
//! `fig7 -- --policy rotation:column-major@per-load`, and `--jobs <n>` to
//! size the sweep pool (default: all cores).

use bench::{apply_cli_flags, fig7, or_exit, save_json, ExperimentContext};

fn main() {
    let mut ctx = ExperimentContext::default();
    or_exit(apply_cli_flags(&mut ctx));
    let r = fig7(&ctx);
    println!("== Fig. 7: BE (16x2) utilization, baseline vs proposed ==");
    println!("-- baseline --");
    println!("{}", r.baseline_heatmap);
    println!("-- proposed ({}) --", r.proposed_policy);
    println!("{}", r.proposed_heatmap);
    println!(
        "max utilization: baseline {:.1}% (paper 94.5%) -> proposed {:.1}% (paper 41.2%)",
        100.0 * r.baseline_max,
        100.0 * r.proposed_max
    );
    save_json("fig7", &r);
}
