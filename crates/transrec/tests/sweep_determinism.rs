//! The sweep engine's determinism contract: results must be byte-identical
//! regardless of worker count, and identical to the sequential
//! [`run_suite_with_options`] path cell by cell.

use cgra::Fabric;
use transrec::telemetry::{ProbeReport, ProbeSpec};
use transrec::{
    run_suite_with_options, run_sweep, SuiteOptions, SuiteSpec, SweepPlan, SystemConfig,
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
        .suites(vec![SuiteSpec::subset("mini", vec![0, 1])]) // bitcount, crc32
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

#[test]
fn sweep_cells_match_the_sequential_suite_path() {
    // The sweep's memoized GPP baseline and derived lane-0 seed must not
    // change what a cell computes: each cell equals a plain
    // run_suite_with_options on the same inputs.
    let plan = mini_plan();
    let runs = run_sweep(&plan, 4).expect("sweep runs");
    let workloads = plan.suites[0].workloads(plan.suite_seed(0));
    for (ci, config) in plan.configs.iter().enumerate() {
        for (pi, spec) in plan.policies.iter().enumerate() {
            let options = SuiteOptions::new(*spec);
            let reference = run_suite_with_options(config, &workloads, &plan.energy, options)
                .expect("sequential suite runs");
            let cell = &runs[plan.index_of(ci, 0, pi)];
            assert_eq!(cell, &reference, "cell ({ci}, 0, {pi}) diverged");
        }
    }
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
        .suites(vec![SuiteSpec::subset("one", vec![1])]);
    let auto = run_sweep(&plan, 0).expect("auto-sized sweep runs");
    let one = run_sweep(&plan, 1).expect("sequential sweep runs");
    assert_eq!(serde_json::to_string(&auto).unwrap(), serde_json::to_string(&one).unwrap());
}
