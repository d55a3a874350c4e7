//! Cross-crate integration of the telemetry layer (DESIGN.md §10): probes
//! ride a sweep plan as data, epoch traces compose across a suite exactly
//! like the merged tracker, and sessions pause/resume around real
//! workloads.

use cgra::Fabric;
use transrec::telemetry::{ProbeSpec, UtilTrace};
use transrec::{run_sweep, SuiteSpec, SweepPlan, System, SystemConfig};
use uaware::PolicySpec;

#[test]
fn suite_trace_composition_matches_the_merged_tracker() {
    // Chain the per-benchmark epoch traces of a sweep cell and compare the
    // final composite sample against the cell's merged tracker: the
    // integer-count composition must reproduce the aggregate exactly.
    let plan = SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("mini", vec![0, 1, 6])) // bitcount, crc32, stringsearch
        .probe(ProbeSpec::util_trace(25_000));
    let runs = run_sweep(&plan, 2).expect("sweep runs");
    let run = &runs[0];
    assert!(run.all_verified());

    let trace = UtilTrace::concat(
        run.benchmarks
            .iter()
            .map(|b| b.probes.iter().find_map(|p| p.as_util_trace()).expect("probe attached")),
    );
    let last = trace.samples.last().expect("non-empty trace");
    assert_eq!(last.executions, run.tracker.executions());
    assert_eq!(last.exec_counts, run.tracker.exec_counts());
    assert_eq!(
        last.grid(trace.rows, trace.cols),
        run.tracker.utilization(),
        "composite snapshot equals the merged utilization grid"
    );
    let total: u64 = run.benchmarks.iter().map(|b| b.stats.total_cycles()).sum();
    assert_eq!(trace.total_cycles(), total, "cycle axis spans the whole suite");
}

#[test]
fn rotation_converges_faster_than_it_finishes() {
    // The convergence story behind the fig8 report: under rotation the
    // cumulative worst-FU stress settles to within 5% of its final value
    // well before the end of the run, while the baseline is pinned at
    // 100% from the first offload.
    let plan = SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("mini", vec![7])) // susan_corners (longest run)
        .probe(ProbeSpec::util_trace(5_000));
    let runs = run_sweep(&plan, 0).expect("sweep runs");
    let worst_of = |i: usize| {
        runs[i].benchmarks[0].probes[0].as_util_trace().expect("probe attached").worst_series()
    };
    let baseline = worst_of(0);
    assert!(baseline.len() > 10, "many epochs sampled, got {}", baseline.len());
    assert!(baseline.iter().all(|(_, w)| *w > 0.9), "corner bias from the first epoch on");
    let rotation = worst_of(1);
    let (_, final_worst) = *rotation.last().unwrap();
    assert!(final_worst < 0.7, "rotation flattens stress, got {final_worst}");
    // Find the first sample already inside the 5% band; it must come well
    // before the end of the run.
    let settle =
        rotation.iter().find(|(_, w)| (w - final_worst).abs() <= 0.05 * final_worst).unwrap().0;
    let total = rotation.last().unwrap().0;
    assert!(settle < total, "stress flattens before the run ends ({settle}/{total})");
}

#[test]
fn session_pauses_and_resumes_around_a_real_workload() {
    let suite = mibench::suite(0xDAC2020);
    let w = &suite[1]; // crc32
    let mut reference =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
    reference.run(w.program()).unwrap();
    let total = reference.cpu().cycles();

    let mut sys =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
    let mut session = sys.session(w.program()).unwrap();
    let mut pauses = 0;
    while session.run_for(total / 8).unwrap().is_running() {
        pauses += 1;
        assert!(pauses < 64, "must terminate");
    }
    assert!(pauses >= 4, "several mid-run pauses, got {pauses}");
    w.verify(sys.cpu()).expect("oracle passes on the stepped run");
    assert_eq!(sys.stats(), reference.stats(), "pausing never changes the simulation");
    assert_eq!(sys.cpu().cycles(), total);
}
