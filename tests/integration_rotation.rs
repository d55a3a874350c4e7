//! The paper's core claims about the rotation mechanism, tested end-to-end:
//! movement never changes results, it flattens the utilization
//! distribution, and the balancing follows the movement pattern/granularity.

use cgra::Fabric;
use transrec::{System, SystemConfig};
use uaware::{AllocationPolicy, BaselinePolicy, MovementGranularity, PatternSpec, RotationPolicy};

fn run_with(policy: Box<dyn AllocationPolicy>, seed: u64) -> System {
    let w = &mibench::suite(seed)[1]; // crc32: dense hot loop
    let mut sys = System::new(SystemConfig::new(Fabric::be()), policy);
    sys.run(w.program()).unwrap();
    w.verify(sys.cpu()).unwrap();
    sys
}

#[test]
fn rotation_flattens_utilization_on_every_benchmark() {
    for (i, w) in mibench::suite(1).iter().enumerate() {
        let mut base = System::new(SystemConfig::new(Fabric::be()), Box::new(BaselinePolicy));
        base.run(w.program()).unwrap();
        let mut rot = System::new(
            SystemConfig::new(Fabric::be()),
            Box::new(RotationPolicy::new(PatternSpec::Snake)),
        );
        rot.run(w.program()).unwrap();
        let bg = base.tracker().utilization();
        let rg = rot.tracker().utilization();
        assert!(
            rg.max() < bg.max(),
            "benchmark #{i} ({}): rotation must reduce the worst-FU stress ({} vs {})",
            w.name(),
            rg.max(),
            bg.max()
        );
        assert!(
            rg.cov() < bg.cov(),
            "benchmark #{i} ({}): rotation must reduce utilization spread",
            w.name()
        );
    }
}

#[test]
fn baseline_pins_the_corner() {
    let sys = run_with(Box::new(BaselinePolicy), 17);
    let grid = sys.tracker().utilization();
    assert!(
        (grid.value(0, 0) - 1.0).abs() < 1e-9,
        "greedy anchoring uses the top-left FU in every configuration"
    );
}

#[test]
fn every_pattern_balances() {
    let baseline_max = run_with(Box::new(BaselinePolicy), 17).tracker().utilization().max();
    for (name, policy) in [
        ("snake", Box::new(RotationPolicy::new(PatternSpec::Snake)) as Box<dyn AllocationPolicy>),
        ("raster", Box::new(RotationPolicy::new(PatternSpec::Raster))),
        ("column-major", Box::new(RotationPolicy::new(PatternSpec::ColumnMajor))),
    ] {
        let sys = run_with(policy, 17);
        let max = sys.tracker().utilization().max();
        assert!(max < 0.6 * baseline_max, "{name}: worst-FU {max} vs baseline {baseline_max}");
    }
}

#[test]
fn coarser_granularity_balances_less() {
    let per_exec = run_with(Box::new(RotationPolicy::new(PatternSpec::Snake)), 5);
    let periodic = run_with(
        Box::new(RotationPolicy::with_granularity(
            PatternSpec::Snake,
            MovementGranularity::Periodic(64),
        )),
        5,
    );
    let per_load = run_with(
        Box::new(RotationPolicy::with_granularity(
            PatternSpec::Snake,
            MovementGranularity::PerLoad,
        )),
        5,
    );
    let m_exec = per_exec.tracker().utilization().max();
    let m_per = periodic.tracker().utilization().max();
    let m_load = per_load.tracker().utilization().max();
    assert!(m_exec <= m_per + 1e-9, "per-execution at least as flat as periodic(64)");
    assert!(m_per <= m_load + 1e-9, "periodic(64) at least as flat as per-load");
}

#[test]
fn rotation_overhead_is_negligible() {
    // Paper §V: "negligible performance overheads". Allow a small margin.
    let base = run_with(Box::new(BaselinePolicy), 23);
    let rot = run_with(Box::new(RotationPolicy::new(PatternSpec::Snake)), 23);
    let slowdown = rot.cpu().cycles() as f64 / base.cpu().cycles() as f64;
    assert!(
        slowdown < 1.10,
        "rotation slowdown {slowdown} exceeds 10% (rotate cycles {})",
        rot.stats().rotate_cycles
    );
}

#[test]
fn utilization_mean_is_policy_invariant() {
    // The rotation moves work around; it does not change how much work there
    // is. Means must agree to within accounting noise.
    let base = run_with(Box::new(BaselinePolicy), 31);
    let rot = run_with(Box::new(RotationPolicy::new(PatternSpec::Snake)), 31);
    let bm = base.tracker().utilization().mean();
    let rm = rot.tracker().utilization().mean();
    assert!((bm - rm).abs() < 0.02 * bm.max(1e-9), "means {bm} vs {rm}");
}
