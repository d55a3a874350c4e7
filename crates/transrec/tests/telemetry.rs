//! The telemetry layer's core contracts (DESIGN.md §10):
//!
//! * `SystemStats` is the one fold over the event stream — the registry's
//!   `system.*` counters, mirrored from that fold, must agree with the
//!   typed counters across the full mibench suite and every evaluated
//!   policy class;
//! * sessions are step-equivalent to `run()` and resumable;
//! * epoch snapshots end on the run's exact final state.

use cgra::Fabric;
use transrec::telemetry::{ProbeReport, ProbeSpec};
use transrec::{SessionStatus, System};
use uaware::PolicySpec;

/// The four policy classes of the acceptance matrix.
fn policy_matrix() -> [PolicySpec; 4] {
    [
        PolicySpec::Baseline,
        PolicySpec::rotation(),
        PolicySpec::Random { seed: uaware::DEFAULT_RANDOM_SEED },
        PolicySpec::HealthAware,
    ]
}

/// Runs `program` under `spec` with a metrics collector installed and
/// returns the finished system and the registry it filled.
fn collected_run(spec: PolicySpec, program: &rv32::Program) -> (System, obs::Registry) {
    obs::collect(|| {
        let mut sys = System::builder(Fabric::be()).policy(spec).build().unwrap();
        sys.run(program).unwrap();
        sys
    })
}

#[test]
fn stats_stream_equivalence_across_the_full_suite() {
    // The registry's `system.*` counters are mirrored by the same fold
    // that produces `SystemStats`, so they agree exactly on every mibench
    // workload × {baseline, rotation, random, health-aware}.
    for spec in policy_matrix() {
        for workload in &mibench::suite(0xDAC2020) {
            let (sys, reg) = collected_run(spec, workload.program());
            workload.verify(sys.cpu()).unwrap();
            let stats = sys.stats();
            let name = workload.name();
            assert_eq!(reg.counter("system.gpp_retired"), stats.gpp_retired, "{spec} on {name}");
            assert_eq!(reg.counter("system.offloads"), stats.offloads, "{spec} on {name}");
            assert_eq!(reg.counter("system.offloads_completed"), stats.offloads);
            assert_eq!(reg.counter("system.offloads_skipped"), stats.offloads_skipped);
            assert_eq!(reg.counter("system.offloads_starved"), stats.offloads_starved);
            // And the fold accounts for every cycle the CPU saw.
            assert_eq!(stats.total_cycles(), sys.cpu().cycles(), "{spec} on {name}");
        }
    }
}

fn toy_program() -> rv32::Program {
    rv32::asm::assemble(
        "
        li   a0, 0
        li   a1, 0
    loop:
        addi t0, a1, 3
        slli t1, t0, 2
        xor  t2, t1, a1
        and  t3, t2, t0
        add  a0, a0, t3
        addi a1, a1, 1
        li   t4, 400
        blt  a1, t4, loop
        ebreak
    ",
    )
    .unwrap()
}

#[test]
fn stepped_session_is_equivalent_to_run() {
    let program = toy_program();
    let mut whole = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
    whole.run(&program).unwrap();

    let mut stepped = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
    let mut session = stepped.session(&program).unwrap();
    let mut steps = 0u64;
    while session.step().unwrap().is_running() {
        steps += 1;
    }
    assert!(steps > 400, "one step per scheduling decision, got {steps}");

    assert_eq!(whole.stats(), stepped.stats());
    assert_eq!(whole.cpu().cycles(), stepped.cpu().cycles());
    assert_eq!(whole.cpu().reg(rv32::Reg::A0), stepped.cpu().reg(rv32::Reg::A0));
    assert_eq!(whole.tracker().utilization(), stepped.tracker().utilization());
}

#[test]
fn run_for_advances_by_cycle_budget_and_resumes() {
    let program = toy_program();
    let mut reference = System::builder(Fabric::be()).build().unwrap();
    reference.run(&program).unwrap();
    let total = reference.cpu().cycles();

    let mut sys = System::builder(Fabric::be()).build().unwrap();
    let mut session = sys.session(&program).unwrap();
    let status = session.run_for(total / 4).unwrap();
    assert!(status.is_running());
    let mid = session.system().cpu().cycles();
    assert!(mid >= total / 4 && mid < total, "paused mid-run at {mid}/{total}");
    // run_for(0) is a no-op.
    assert_eq!(session.run_for(0).unwrap(), SessionStatus::Running);
    assert_eq!(session.system().cpu().cycles(), mid);

    // Let the handle go, inspect the system, resume where it left off.
    assert!(sys.stats().offloads > 0);
    let exit = sys.session_resume().finish().unwrap();
    assert!(matches!(exit, rv32::cpu::Exit::Break { .. }));
    assert_eq!(sys.cpu().cycles(), total);
    assert_eq!(sys.stats(), reference.stats());
}

#[test]
fn finished_session_stays_exited() {
    let program = toy_program();
    let mut sys = System::builder(Fabric::be()).build().unwrap();
    let mut session = sys.session(&program).unwrap();
    let exit = session.finish().unwrap();
    // Stepping a halted program is a no-op reporting the same exit — even
    // for a zero cycle budget (so status polling can never spin).
    assert_eq!(session.step().unwrap(), SessionStatus::Exited(exit));
    assert_eq!(session.run_for(1_000).unwrap(), SessionStatus::Exited(exit));
    assert_eq!(session.run_for(0).unwrap(), SessionStatus::Exited(exit));
}

#[test]
fn new_session_flushes_stale_translations() {
    // A different program at overlapping addresses must never hit the
    // previous program's PC-indexed configurations: session() flushes the
    // DBT state like a context switch (DESIGN.md §10).
    let second = rv32::asm::assemble(
        "
        li   a0, 0
        li   a1, 0
    loop:
        addi t0, a1, 7
        or   t1, t0, a1
        sub  t2, t1, t0
        add  a0, a0, t2
        addi a1, a1, 1
        li   t4, 300
        blt  a1, t4, loop
        ebreak
    ",
    )
    .unwrap();
    let mut fresh = System::builder(Fabric::be()).build().unwrap();
    fresh.run(&second).unwrap();
    let expected = fresh.cpu().reg(rv32::Reg::A0);

    let mut sys = System::builder(Fabric::be()).build().unwrap();
    sys.run(&toy_program()).unwrap();
    sys.run(&second).unwrap();
    assert_eq!(sys.cpu().reg(rv32::Reg::A0), expected, "stale configuration executed");
    // Wear state kept accumulating across the switch.
    assert_eq!(sys.tracker().executions(), sys.stats().offloads);
    assert!(sys.stats().offloads > fresh.stats().offloads);
}

#[test]
fn epoch_trace_ends_on_the_final_tracker_state() {
    let program = toy_program();
    let mut sys = System::builder(Fabric::be())
        .policy(PolicySpec::rotation())
        .probe(ProbeSpec::util_trace(500))
        .build()
        .unwrap();
    sys.run(&program).unwrap();
    let reports = sys.probe_reports();
    let [ProbeReport::UtilTrace(trace)] = reports.as_slice() else {
        panic!("util-trace probe must report");
    };
    assert!(trace.samples.len() > 2, "several epochs sampled");
    assert!(trace.samples.windows(2).all(|w| w[0].cycle < w[1].cycle), "cycles strictly increase");
    let last = trace.samples.last().unwrap();
    assert_eq!(last.cycle, sys.cpu().cycles(), "final sample taken at the exit");
    assert_eq!(last.executions, sys.tracker().executions());
    assert_eq!(last.exec_counts, sys.tracker().exec_counts());
    assert_eq!((trace.rows, trace.cols), (2, 16));
    // Rotation flattens: cumulative worst utilization decays over the run.
    let worst = trace.worst_series();
    assert!(worst.first().unwrap().1 > worst.last().unwrap().1);
}

#[test]
fn event_counts_agree_with_stats() {
    let (sys, reg) = collected_run(PolicySpec::rotation(), &toy_program());
    let stats = sys.stats();
    assert_eq!(reg.counter("system.gpp_retired"), stats.gpp_retired);
    assert_eq!(reg.counter("system.offloads"), stats.offloads);
    assert_eq!(reg.counter("system.offloads_completed"), stats.offloads);
    assert_eq!(reg.counter("system.offloads_skipped"), stats.offloads_skipped);
    assert_eq!(reg.counter("system.cache_inserted"), reg.counter("dbt.cache.insert"));
    assert_eq!(reg.counter("system.cache_evicted"), reg.counter("dbt.cache.evict"));
    // The derived lookup identity behind `cache_lookups` (DESIGN.md §10).
    assert_eq!(stats.cache_lookups, stats.offloads + stats.gpp_retired);
    assert_eq!(reg.counter("dbt.cache.hit") + reg.counter("dbt.cache.miss"), stats.cache_lookups);
    // Rotation at per-exec granularity actually rotates the resident
    // configuration.
    assert!(reg.counter("system.rotations") > 0);
    assert!(reg.counter("system.config_loads") > 0);
}

#[test]
fn probes_accumulate_across_sessions() {
    // Telemetry follows the system, not the session: two programs on one
    // system produce one continuous stream.
    let program = toy_program();
    let mut sys = System::builder(Fabric::be()).probe(ProbeSpec::util_trace(500)).build().unwrap();
    sys.run(&program).unwrap();
    let after_first = *sys.stats();
    sys.run(&program).unwrap();
    let reports = sys.probe_reports();
    let [ProbeReport::UtilTrace(trace)] = reports.as_slice() else {
        panic!("util-trace probe must report");
    };
    let last = trace.samples.last().expect("trace sampled");
    assert_eq!(last.executions, sys.stats().offloads, "one trace across both sessions");
    assert!(sys.stats().offloads > after_first.offloads, "second session extends the stream");
}
