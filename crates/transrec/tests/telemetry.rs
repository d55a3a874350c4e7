//! The telemetry layer's core contracts (DESIGN.md §10, §16):
//!
//! * the event stream is complete: a reference observer that folds it
//!   into `SystemStats` equals the session's own counts across the full
//!   mibench suite and every evaluated policy class, and so do the
//!   registry's `system.*` counters;
//! * a session publishes the same counters however it is driven, and a
//!   session that dies publishes what it counted;
//! * collection fires per session call, per tape replay, per served day
//!   and per fleet trajectory, never per decision, request or mission;
//! * sessions are step-equivalent to `run()` and resumable;
//! * epoch snapshots end on the run's exact final state.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cgra::{Fabric, FaultMask};
use mibench::Workload;
use tracing::{Dispatch, Metadata, SpanId, Subscriber};
use transrec::fleet::{run_fleet, FleetPlan};
use transrec::tape::TapeStore;
use transrec::telemetry::{EventCtx, ProbeReport, ProbeSpec};
use transrec::{
    probe_service_day, Observer, ServePlan, SessionStatus, SimEvent, SuiteSpec, System,
    SystemConfig, SystemError, SystemStats, TrafficSpec,
};
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
        let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), spec).unwrap();
        sys.run(program).unwrap();
        sys
    })
}

/// The event stream folded into `SystemStats`, as an observer: the
/// reference the session's counts must equal. A run that reaches its exit
/// looks the cache up once per offload and once per retired instruction.
struct StatsFold(Rc<Cell<SystemStats>>);

impl Observer for StatsFold {
    fn on_event(&mut self, _: &EventCtx<'_>, event: &SimEvent) {
        let mut s = self.0.get();
        match *event {
            SimEvent::GppRetired { cycles, .. } => {
                s.gpp_cycles += cycles;
                s.gpp_retired += 1;
                s.cache_lookups += 1;
            }
            SimEvent::OffloadCompleted {
                instr_count,
                exec_cycles,
                overheads,
                loads,
                stores,
                active_fus,
                cols_used,
                ..
            } => {
                s.cgra_exec_cycles += exec_cycles;
                s.reconfig_cycles += overheads.reconfig_extra;
                s.rotate_cycles += overheads.rotate;
                s.transfer_cycles += overheads.input + overheads.out_drain;
                s.offloads += 1;
                s.offloaded_instrs += instr_count as u64;
                s.cgra_loads += loads;
                s.cgra_stores += stores;
                s.cgra_active_fu_slots += active_fus;
                s.cgra_columns += cols_used as u64;
                s.cache_lookups += 1;
            }
            SimEvent::OffloadSkipped { .. } => s.offloads_skipped += 1,
            SimEvent::AllocationStarved { .. } => s.offloads_starved += 1,
            _ => {}
        }
        self.0.set(s);
    }
}

#[test]
fn stats_stream_equivalence_across_the_full_suite() {
    // The session counts each fact where it happens and builds events only
    // for observers; folding the stream must give back exactly its counts,
    // and the registry's `system.*` counters, on every mibench workload ×
    // {baseline, rotation, random, health-aware}.
    for spec in policy_matrix() {
        for workload in &mibench::suite(0xDAC2020) {
            let fold = Rc::new(Cell::new(SystemStats::default()));
            let (sys, reg) = obs::collect(|| {
                let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), spec).unwrap();
                sys.attach_observer(Box::new(StatsFold(Rc::clone(&fold))));
                sys.run(workload.program()).unwrap();
                sys
            });
            workload.verify(sys.cpu()).unwrap();
            let stats = sys.stats();
            let name = workload.name();
            assert_eq!(&fold.get(), stats, "the stream of {spec} on {name}");
            assert_eq!(reg.counter("system.gpp_retired"), stats.gpp_retired, "{spec} on {name}");
            assert_eq!(reg.counter("system.offloads"), stats.offloads, "{spec} on {name}");
            assert_eq!(reg.counter("tracker.executions"), stats.offloads);
            assert_eq!(reg.counter("system.offloads_skipped"), stats.offloads_skipped);
            assert_eq!(reg.counter("system.offloads_starved"), stats.offloads_starved);
            // And the fold accounts for every cycle the CPU saw.
            assert_eq!(stats.total_cycles(), sys.cpu().cycles(), "{spec} on {name}");
        }
    }
}

#[test]
fn a_session_publishes_the_same_counters_however_it_is_driven() {
    let workload = &mibench::suite(0xDAC2020)[0];
    let program = workload.program();
    // A small cache, so the session evicts as well as inserts.
    let build = || {
        let config = SystemConfig { cache_capacity: 4, ..SystemConfig::new(Fabric::be()) };
        System::with_spec(config, PolicySpec::rotation()).unwrap()
    };
    let (finished, by_finish) = obs::collect(|| {
        let mut sys = build();
        sys.run(program).unwrap();
        *sys.stats()
    });
    let (sliced, by_slices) = obs::collect(|| {
        let mut sys = build();
        let mut session = sys.session(program).unwrap();
        for _ in 0..3 {
            assert!(session.run_for(finished.total_cycles() / 4).unwrap().is_running());
        }
        sys.session_resume().finish().unwrap();
        *sys.stats()
    });
    let (stepped, by_step) = obs::collect(|| {
        let mut sys = build();
        let mut session = sys.session(program).unwrap();
        while session.step().unwrap().is_running() {}
        *sys.stats()
    });
    assert_eq!((sliced, stepped), (finished, finished));
    assert_eq!(by_slices, by_finish, "run_for slices and finish");
    assert_eq!(by_step, by_finish, "step and finish");
    for counter in ["system.rotations", "dbt.cache.evict", "dbt.translate.rejected"] {
        assert!(by_finish.counter(counter) > 0, "{counter}");
    }
    assert_eq!(by_finish.counter("tracker.executions"), finished.offloads);
}

#[test]
fn a_session_that_dies_publishes_what_it_counted() {
    // The baseline's origin is dead: its first offload ends the run, on a
    // decision that hit the cache but never executed.
    let mut mask = FaultMask::healthy(&Fabric::be());
    mask.mark_dead(0, 0);
    let (sys, reg) = obs::collect(|| {
        let config = SystemConfig { faults: Some(mask), ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::Baseline).unwrap();
        let err = sys.run(&toy_program()).unwrap_err();
        assert!(matches!(err, SystemError::AllocationExhausted { .. }), "{err}");
        sys
    });
    let stats = sys.stats();
    assert!(stats.gpp_retired > 0);
    assert_eq!(reg.counter("system.gpp_retired"), stats.gpp_retired);
    assert_eq!(reg.counter("system.offloads"), 0);
    assert!(reg.counter("dbt.cache.insert") > 0);
    assert_eq!(reg.counter("dbt.cache.hit") + reg.counter("dbt.cache.miss"), stats.cache_lookups);
}

/// A subscriber that names the spans opened under it.
#[derive(Default)]
struct SpanNames(RefCell<Vec<String>>);

impl Subscriber for SpanNames {
    fn new_span(&self, metadata: &Metadata<'_>) -> SpanId {
        self.0.borrow_mut().push(metadata.name.to_string());
        SpanId(0)
    }

    fn enter(&self, _: SpanId) {}

    fn exit(&self, _: SpanId) {}
}

/// What `f` returns inside a collection, the publish calls it makes and
/// the spans it opens.
fn fired<T>(f: impl FnOnce() -> T) -> (T, u64, Vec<String>) {
    let names = Rc::new(SpanNames::default());
    let before = obs::published();
    let (out, _) = tracing::with_default(Dispatch::from_rc(names.clone()), || obs::collect(f));
    (out, obs::published() - before, names.0.take())
}

/// A hot loop of `iterations` passes.
fn loop_program(iterations: u32) -> rv32::Program {
    rv32::asm::assemble(&format!(
        "
        li   a0, 0
        li   a1, {iterations}
    loop:
        addi t0, a1, 3
        slli t1, t0, 2
        xor  t2, t1, a1
        add  a0, a0, t2
        addi a1, a1, -1
        bnez a1, loop
        ebreak
    "
    ))
    .unwrap()
}

#[test]
fn collection_fires_per_session_call_and_replay_not_per_decision() {
    let config = SystemConfig::new(Fabric::be());
    for spec in policy_matrix().into_iter().chain([PolicySpec::Exact { every: 1 }]) {
        let sessions = [100, 10_000].map(|iterations| {
            let program = loop_program(iterations);
            let (offloads, publishes, _) = fired(|| {
                let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), spec).unwrap();
                sys.run(&program).unwrap();
                sys.stats().offloads
            });
            assert!(offloads >= iterations as u64 / 2, "{spec} offloads the loop");
            publishes
        });
        assert_eq!(sessions, [1, 1], "{spec}: a session run publishes once");
        let replays = [100, 10_000].map(|iterations| {
            let program = loop_program(iterations);
            let workloads = [Workload::from_program("loop", program, 10_000_000, Vec::new())];
            let mut store = TapeStore::new(&workloads);
            store.run(&config, &PolicySpec::Baseline, 0).unwrap();
            let (run, publishes, spans) = fired(|| store.run(&config, &spec, 0).unwrap());
            assert!(run.verified);
            let phases: Vec<_> = spans.iter().filter(|s| s.starts_with("tape.")).collect();
            assert_eq!(phases, ["tape.replay"], "{spec} replays the baseline's tape");
            publishes
        });
        assert_eq!(replays, [1, 1], "{spec}: a replay publishes once");
    }
}

#[test]
fn a_served_day_fires_per_day_not_per_request() {
    let plan = ServePlan::new(0xDAC2020, Fabric::be()).suite(SuiteSpec::subset("crc", vec![1]));
    let days = [10, 100].map(|per_hour| {
        let traffic = TrafficSpec::Steady { per_hour };
        let ((day, _), publishes, _) = fired(|| {
            probe_service_day(&plan, &PolicySpec::rotation(), &traffic, 0, 0, &[]).unwrap()
        });
        assert!(day.requests > per_hour * 20, "{} requests at {per_hour}/h", day.requests);
        publishes
    });
    assert_eq!(days[0], days[1], "a day at 10x the request rate");
}

#[test]
fn a_fleet_trajectory_fires_per_trajectory_not_per_mission() {
    // Both horizons end before the first FU failure, so the trajectory
    // runs its suite once under one fault mask either way.
    let runs = [1.0, 3.0].map(|horizon_years| {
        let plan = FleetPlan::new(0xDAC2020, Fabric::be())
            .policy(PolicySpec::rotation())
            .devices(1)
            .lanes(1)
            .suite(SuiteSpec::subset("crc", vec![1]))
            .mission_years(0.5)
            .horizon_years(horizon_years);
        let before = obs::published();
        let (report, reg) = obs::collect(|| run_fleet(&plan, 1).unwrap());
        let first_failure = report.policies[0].devices.iter().find_map(|d| d.first_failure_years);
        assert_eq!(first_failure, None, "no FU fails within {horizon_years} years");
        (reg.counter("wear.missions"), obs::published() - before)
    });
    assert_eq!([runs[0].0, runs[1].0], [2, 6], "the trajectories live 2 and 6 missions");
    assert_eq!(runs[0].1, runs[1].1, "a trajectory's publishes at three times the missions");
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
    let mut whole =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
    whole.run(&program).unwrap();

    let mut stepped =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
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
    let mut reference =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
    reference.run(&program).unwrap();
    let total = reference.cpu().cycles();

    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
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
    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
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
    let mut fresh =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
    fresh.run(&second).unwrap();
    let expected = fresh.cpu().reg(rv32::Reg::A0);

    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
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
    let mut sys =
        System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
    sys.attach_observer(ProbeSpec::util_trace(500).build());
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
    assert_eq!(reg.counter("tracker.executions"), stats.offloads);
    assert_eq!(reg.counter("system.offloads_skipped"), stats.offloads_skipped);
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
    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
    sys.attach_observer(ProbeSpec::util_trace(500).build());
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
