//! The sweep engine's determinism contract: results must be byte-identical
//! regardless of worker count, and identical to the sequential
//! [`run_suite_with_options`] path cell by cell, however a sweep task ran
//! the cell (DESIGN.md §9, §17).

use cgra::{Fabric, FabricSpec, FaultMask};
use obs::Registry;
use transrec::telemetry::{ProbeReport, ProbeSpec};
use transrec::{
    gpp_reference, run_suite_with_options, run_sweep, run_sweep_observed, SuiteOptions, SuiteRun,
    SuiteSpec, SweepPlan, SystemConfig, SystemError,
};
use uaware::PolicySpec;

/// A 2-policy × 2-workload × 2-fabric plan — small enough for a debug-mode
/// test, wide enough (8 cells) that a 4-worker pool actually interleaves.
fn mini_plan() -> SweepPlan {
    SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .fabric(Fabric::bp())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("mini", vec![0, 1])) // bitcount, crc32
}

#[test]
fn sweep_json_is_identical_across_worker_counts() {
    let plan = mini_plan();
    let sequential = run_sweep(&plan, 1).expect("jobs=1 sweep runs");
    let parallel = run_sweep(&plan, 4).expect("jobs=4 sweep runs");
    assert_eq!(sequential.len(), plan.len());
    assert!(sequential.iter().all(|r| r.all_verified()));
    let a = serde_json::to_string_pretty(&sequential).expect("serialize");
    let b = serde_json::to_string_pretty(&parallel).expect("serialize");
    assert_eq!(a, b, "jobs=1 and jobs=4 must produce byte-identical JSON");
}

/// The per-cell path the sweep must equal: every cell as a plain
/// [`run_suite_with_options`] on the same inputs (in cell order, the first
/// error winning), and the registry of the GPP references and those cells.
fn per_cell(plan: &SweepPlan) -> (Result<Vec<SuiteRun>, SystemError>, Registry) {
    let workloads = plan.suite.workloads(plan.base_seed);
    obs::collect(|| {
        // Every configuration of these plans shares its GPP parameters.
        let gpp = gpp_reference(&plan.configs[0], &workloads)?;
        plan.cells()
            .iter()
            .map(|cell| {
                let options = SuiteOptions {
                    policy: plan.policies[cell.policy],
                    probes: &[],
                    gpp_reference: Some(&gpp),
                };
                let config = &plan.configs[cell.config];
                run_suite_with_options(config, &workloads, &plan.energy, options)
            })
            .collect()
    })
}

/// Shaped like `gap`: the full policy series plus the `exact` oracle on a
/// heterogeneous fabric and a faulted one, both degrading to the GPP
/// (where the baseline's tape starves and mobile policies fall back and
/// record again), and a bandwidth-budgeted fabric; crc32 + dijkstra.
fn gap_plan() -> SweepPlan {
    let config =
        |spec: &str| SystemConfig::new(spec.parse::<FabricSpec>().unwrap().build().unwrap());
    let mut het = config("4x8:het-checker");
    het.fault_fallback = true;
    let mut faulted = config("2x8");
    let mut mask = FaultMask::healthy(&faulted.fabric);
    mask.mark_dead(0, 0);
    mask.mark_dead(1, 5);
    faulted.faults = Some(mask);
    faulted.fault_fallback = true;
    let policies = [
        "baseline",
        "rotation",
        "rotation:snake@per-load",
        "random",
        "health-aware",
        "exact@every-1",
    ];
    SweepPlan::new(0xDAC2020)
        .config(het)
        .config(faulted)
        .config(config("4x8+bw-2"))
        .policies(policies.iter().map(|p| p.parse::<PolicySpec>().unwrap()))
        .suite(SuiteSpec::subset("gap", vec![1, 2])) // crc32, dijkstra
}

#[test]
fn sweep_cells_match_the_sequential_suite_path() {
    // Whatever a sweep task does for a cell — run it, record its tape,
    // replay it or fall back — each cell must equal a plain
    // run_suite_with_options on the same inputs, byte for byte, and the
    // observed registry must equal the per-cell path's.
    for plan in [mini_plan(), gap_plan()] {
        let (runs, registry) = run_sweep_observed(&plan, 4).expect("sweep runs");
        let (reference, reference_registry) = per_cell(&plan);
        let reference = reference.expect("sequential suites run");
        let json = |runs: &Vec<SuiteRun>| serde_json::to_string_pretty(runs).expect("serialize");
        assert_eq!(json(&runs), json(&reference), "cells diverged");
        assert_eq!(registry, reference_registry, "registries diverged");
    }
    // A baseline on a dead origin without the GPP fallback dies: the sweep
    // returns the error of the lowest-indexed failing cell, as the
    // per-cell path does.
    let be = SystemConfig::new(Fabric::be());
    let mut dead_origin = FaultMask::healthy(&be.fabric);
    dead_origin.mark_dead(0, 0);
    let plan = gap_plan().config(SystemConfig { faults: Some(dead_origin), ..be });
    let err = run_sweep(&plan, 4).expect_err("the dead origin kills the baseline");
    assert!(matches!(err, SystemError::AllocationExhausted { .. }), "{err:?}");
    assert_eq!(Err(err), per_cell(&plan).0);
}

#[test]
fn sweep_with_probes_is_identical_across_worker_counts() {
    // Telemetry rides the plan as data (fresh observers per cell), so the
    // probe-bearing output must stay byte-identical for every worker
    // count, exactly like the counters.
    let plan = mini_plan()
        .probe(ProbeSpec::util_trace(10_000))
        .probe(ProbeSpec::QueueDepth { every: 10_000 });
    let sequential = run_sweep(&plan, 1).expect("jobs=1 sweep runs");
    let parallel = run_sweep(&plan, 4).expect("jobs=4 sweep runs");
    let a = serde_json::to_string_pretty(&sequential).expect("serialize");
    let b = serde_json::to_string_pretty(&parallel).expect("serialize");
    assert_eq!(a, b, "probed sweeps must produce byte-identical JSON");
    // Every benchmark of every cell carries both probe reports, in order.
    for run in &sequential {
        for bench in &run.benchmarks {
            assert_eq!(bench.probes.len(), 2, "{}/{}", run.policy, bench.name);
            assert!(matches!(bench.probes[0], ProbeReport::UtilTrace(_)));
            assert!(matches!(bench.probes[1], ProbeReport::QueueDepth(_)));
            let trace = bench.probes[0].as_util_trace().unwrap();
            assert_eq!(trace.total_cycles(), bench.stats.total_cycles());
        }
    }
}

#[test]
fn default_jobs_zero_resolves_to_all_cores() {
    // jobs = 0 must behave like any other worker count: same bytes.
    let plan = SweepPlan::new(0xDAC2020)
        .config(SystemConfig::new(Fabric::be()))
        .policy(PolicySpec::HealthAware)
        .suite(SuiteSpec::subset("one", vec![1]));
    let auto = run_sweep(&plan, 0).expect("auto-sized sweep runs");
    let one = run_sweep(&plan, 1).expect("sequential sweep runs");
    assert_eq!(serde_json::to_string(&auto).unwrap(), serde_json::to_string(&one).unwrap());
}
