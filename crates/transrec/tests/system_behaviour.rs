//! System-level behavioural tests: fabric-resolved exits, warm-context
//! accounting, energy invariants and DSE plumbing.

use std::cell::RefCell;
use std::rc::Rc;

use cgra::{Fabric, FaultMask, Offset, RESIDENT_ROTATE_CYCLES};
use rv32::asm::assemble;
use rv32::Reg;
use transrec::telemetry::EventCtx;
use transrec::{
    gpp_only_energy, run_gpp_only, system_energy, EnergyParams, Observer, SimEvent, System,
    SystemConfig, SystemError,
};
use uaware::{BaselinePolicy, PolicySpec, RotationPolicy, Snake};

fn run_sys(src: &str) -> System {
    let p = assemble(src).unwrap();
    let mut sys = System::new(SystemConfig::new(Fabric::be()), Box::new(BaselinePolicy));
    sys.run(&p).unwrap();
    sys
}

#[test]
fn branch_exit_takes_both_paths() {
    // A loop whose body branches each way; both sides must compute right.
    let sys = run_sys(
        "
        li   s0, 100
        li   s1, 0          # even counter
        li   s2, 0          # odd sum
    loop:
        andi t0, s0, 1
        slli t1, s0, 1
        xor  t2, t1, s0
        bnez t0, odd
        addi s1, s1, 1
        and  s4, t2, t1
        j    next
    odd:
        add  s2, s2, s0
        or   s5, t2, t1
    next:
        addi s0, s0, -1
        bnez s0, loop
        ebreak
    ",
    );
    assert_eq!(sys.cpu().reg(Reg::from_name("s1").unwrap()), 50);
    // sum of odd numbers 1..=99 = 50^2 = 2500
    assert_eq!(sys.cpu().reg(Reg::from_name("s2").unwrap()), 2500);
    assert!(sys.stats().offloads > 50, "loop body should offload");
}

#[test]
fn jump_exit_links_the_return_address() {
    // `call` terminating a trace: the link register must still be written.
    let sys = run_sys(
        "
    main:
        li   a0, 5
        li   a1, 7
        add  a2, a0, a1
        call helper
        add  a0, a0, a2
        ebreak
    helper:
        addi a0, a0, 100
        ret
    ",
    );
    assert_eq!(sys.cpu().reg(Reg::A0), 5 + 100 + 12);
}

#[test]
fn warm_context_skips_input_transfers() {
    // A tight fabric-resident loop: after warm-up, iterations transfer no
    // inputs, so transfer cycles stay far below one per iteration.
    let sys = run_sys(
        "
        li   s0, 2000
        li   s1, 0
    loop:
        addi s1, s1, 3
        xor  s2, s1, s0
        and  s3, s2, s1
        addi s0, s0, -1
        bnez s0, loop
        ebreak
    ",
    );
    let s = sys.stats();
    assert!(s.offloads >= 1990, "nearly every iteration offloads, got {}", s.offloads);
    assert!(
        s.transfer_cycles < s.offloads / 4,
        "warm context should suppress transfers: {} transfers for {} offloads",
        s.transfer_cycles,
        s.offloads
    );
}

#[test]
fn division_runs_on_the_gpp() {
    let sys = run_sys(
        "
        li   s0, 30
        li   s1, 0
    loop:
        li   t0, 7
        div  t1, s0, t0      # not a fabric op
        add  s1, s1, t1
        addi s0, s0, -1
        bnez s0, loop
        ebreak
    ",
    );
    // Correct result despite the unsupported instruction in the hot loop.
    let expect: u32 = (1..=30).map(|v: i32| (v / 7) as u32).sum();
    assert_eq!(sys.cpu().reg(Reg::from_name("s1").unwrap()), expect);
    assert!(sys.stats().gpp_retired > 30, "div must retire on the GPP");
}

/// Every event of a session, in order.
struct Events(Rc<RefCell<Vec<SimEvent>>>);

impl Observer for Events {
    fn on_event(&mut self, _: &EventCtx<'_>, event: &SimEvent) {
        self.0.borrow_mut().push(*event);
    }
}

#[test]
fn a_resident_rotate_is_exposed_only_after_gpp_activity() {
    // The inner loop offloads back to back; the outer loop's division runs
    // on the GPP between two of its offloads. Rotation moves the pivot at
    // every execution, so both kinds of resident rotate occur (DESIGN.md
    // §4.4).
    let program = assemble(
        "
        li   s0, 40
        li   a0, 0
    outer:
        li   s1, 12
    inner:
        addi t0, s1, 3
        slli t1, t0, 2
        xor  t2, t1, s1
        add  a0, a0, t2
        addi s1, s1, -1
        bnez s1, inner
        div  t3, a0, s0      # not a fabric op
        addi s0, s0, -1
        bnez s0, outer
        ebreak
    ",
    )
    .unwrap();
    let events = Rc::new(RefCell::new(Vec::new()));
    let mut sys = System::builder(Fabric::be()).policy(PolicySpec::rotation()).build().unwrap();
    sys.attach_observer(Box::new(Events(Rc::clone(&events))));
    sys.run(&program).unwrap();
    // The oracle, from the stream alone: the resident pivot is the last
    // offload's, and the GPP ran if it retired anything since.
    let (mut resident, mut gpp_ran) = (None::<Offset>, true);
    let (mut started, mut rotated, mut loaded) = (None, None, false);
    let (mut exposed, mut hidden, mut rotate_cycles) = (0, 0, 0);
    for event in events.borrow().iter() {
        match *event {
            SimEvent::GppRetired { .. } => gpp_ran = true,
            SimEvent::OffloadStarted { offset, config_switch, .. } => {
                started = Some((offset, config_switch))
            }
            SimEvent::Rotated { from, to, cycles, .. } => rotated = Some((from, to, cycles)),
            SimEvent::ConfigLoaded { .. } => loaded = true,
            SimEvent::OffloadCompleted { offset, .. } => {
                let (at, config_switch) = started.take().expect("the offload started");
                assert_eq!(at, offset);
                assert_eq!(loaded, config_switch, "exactly a switch loads");
                let expected = match resident {
                    Some(from) if !config_switch && from != offset => {
                        let cycles = if gpp_ran { RESIDENT_ROTATE_CYCLES } else { 0 };
                        Some((from, offset, cycles))
                    }
                    _ => None,
                };
                let rotated = rotated.take();
                assert_eq!(rotated, expected, "at offload {}", exposed + hidden);
                if let Some((_, _, cycles)) = rotated {
                    rotate_cycles += cycles;
                    if cycles > 0 {
                        exposed += 1;
                    } else {
                        hidden += 1;
                    }
                }
                (resident, gpp_ran, loaded) = (Some(offset), false, false);
            }
            _ => {}
        }
    }
    assert!(exposed > 0 && hidden > 0, "{exposed} exposed, {hidden} hidden rotates");
    assert_eq!(sys.stats().rotate_cycles, rotate_cycles);
}

#[test]
fn energy_accounting_is_internally_consistent() {
    let w = &mibench::suite(9)[0];
    let cfg = SystemConfig::new(Fabric::be());
    let mut sys = System::new(cfg.clone(), Box::new(RotationPolicy::new(Snake)));
    sys.run(w.program()).unwrap();
    let params = EnergyParams::default();
    let b = system_energy(&params, &cfg.fabric, sys.stats());
    assert!(b.gpp_active > 0.0 && b.cgra_dynamic > 0.0 && b.cgra_leakage > 0.0);
    let total = b.total();
    // Doubling leakage strictly increases the total.
    let mut leaky = params;
    leaky.fu_leak *= 2.0;
    assert!(system_energy(&leaky, &cfg.fabric, sys.stats()).total() > total);
    // GPP-only energy is proportional to cycles.
    assert_eq!(gpp_only_energy(&params, 100), 100.0);
}

#[test]
fn dse_grid_matches_paper() {
    let grid = transrec::dse_grid();
    assert_eq!(grid.len(), 12);
    for l in [8, 16, 24, 32] {
        for w in [2, 4, 8] {
            assert!(grid.contains(&(l, w)), "missing (L{l},W{w})");
        }
    }
}

#[test]
fn speedup_reported_against_gpp_reference() {
    let w = &mibench::suite(4)[1]; // crc32
    let cfg = SystemConfig::new(Fabric::bp());
    let gpp = run_gpp_only(w.program(), cfg.mem_size, cfg.timing, cfg.max_steps).unwrap();
    let mut sys = System::new(cfg, Box::new(BaselinePolicy));
    sys.run(w.program()).unwrap();
    let speedup = gpp.cycles() as f64 / sys.cpu().cycles() as f64;
    assert!(speedup > 1.5, "crc32 on BP should beat the GPP clearly, got {speedup}");
}

#[test]
fn rotation_visits_many_distinct_offsets() {
    let w = &mibench::suite(4)[1];
    let mut sys =
        System::new(SystemConfig::new(Fabric::be()), Box::new(RotationPolicy::new(Snake)));
    sys.run(w.program()).unwrap();
    let grid = sys.tracker().utilization();
    // With per-execution snake movement over a 32-FU fabric and hundreds of
    // executions, every FU must have been touched.
    assert!(grid.min() > 0.0, "rotation should reach every FU");
}

#[test]
fn unchecked_system_surfaces_movement_unsupported_at_offload_time() {
    // The System::new escape hatch skips the builder's spec/hardware
    // validation, so a movement policy on a movement-less configuration
    // must still be caught by the runtime guard — at the first non-origin
    // offload, not before. Driving the session step by step pins *when*
    // the error surfaces: translation and GPP execution proceed normally
    // until the policy first asks for a non-origin pivot.
    let w = &mibench::suite(4)[1]; // crc32
    let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
    let mut sys = System::new(config, Box::new(RotationPolicy::new(Snake)));
    let mut session = sys.session(w.program()).unwrap();
    let err = loop {
        match session.step() {
            Ok(status) => assert!(status.is_running(), "must fault before completing"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, SystemError::MovementUnsupported { .. }), "got {err}");
    // The run made real progress on the GPP before the guard fired…
    assert!(sys.stats().gpp_retired > 0, "GPP ran before the first offload");
    // …and the snake's first move away from the origin is what tripped it:
    // at most one (origin-anchored) offload can have completed.
    assert!(sys.stats().offloads <= 1, "faulted on the first non-origin pivot");
}

#[test]
fn config_faults_apply_at_construction_and_fallback_degrades_gracefully() {
    let w = &mibench::suite(4)[1]; // crc32
    let mut mask = FaultMask::healthy(&Fabric::be());
    mask.mark_dead(0, 0); // the immobile baseline's only pivot
    let fatal = SystemConfig { faults: Some(mask), ..SystemConfig::new(Fabric::be()) };
    // Without the fallback, exhaustion on the config-injected mask is fatal
    // (the device's end of life, DESIGN.md §11).
    let mut sys = System::new(fatal.clone(), Box::new(BaselinePolicy));
    let err = sys.run(w.program()).unwrap_err();
    assert!(matches!(err, SystemError::AllocationExhausted { .. }), "got {err}");
    // With it, the GPP absorbs the unplaceable configurations: the run
    // completes, offloads nothing, and accounts the starvation.
    let degraded = SystemConfig { fault_fallback: true, ..fatal };
    let mut sys = System::new(degraded.clone(), Box::new(BaselinePolicy));
    sys.run(w.program()).unwrap();
    assert_eq!(sys.stats().offloads, 0, "the dead origin never hosts an execution");
    assert!(sys.stats().offloads_starved > 0, "give-ups are accounted, not fatal");
    // A movable policy routes around the same mask and still offloads.
    let mut sys = System::new(degraded, Box::new(RotationPolicy::new(Snake)));
    sys.run(w.program()).unwrap();
    assert!(sys.stats().offloads > 0, "rotation dodges the dead corner");
    assert_eq!(sys.tracker().exec_count(0, 0), 0, "nothing ran on the dead FU");
}

#[test]
fn builder_fault_mask_overrides_config_faults() {
    let mut origin_dead = FaultMask::healthy(&Fabric::be());
    origin_dead.mark_dead(0, 0);
    let config = SystemConfig {
        faults: Some(origin_dead),
        fault_fallback: true,
        ..SystemConfig::new(Fabric::be())
    };
    // The builder keeps the config's mask when it has none of its own…
    let sys = System::builder(config.fabric).policy(uaware::PolicySpec::Baseline).build().unwrap();
    assert!(sys.fault_mask().is_none(), "builder default injects no mask");
    // …and a builder-supplied mask wins over the config's.
    let healthy = FaultMask::healthy(&config.fabric);
    let mut builder = System::builder(config.fabric).fault_mask(healthy.clone());
    builder = builder.policy(uaware::PolicySpec::Baseline);
    let sys = builder.build().unwrap();
    assert_eq!(sys.fault_mask(), Some(&healthy));
    // Constructing directly from the config applies its mask.
    let sys = System::new(config.clone(), Box::new(BaselinePolicy));
    assert_eq!(sys.fault_mask(), config.faults.as_ref());
}

#[test]
fn stats_instruction_conservation() {
    // GPP-retired + offloaded = the dynamic instruction count of the
    // equivalent GPP-only run.
    let w = &mibench::suite(21)[6]; // stringsearch
    let cfg = SystemConfig::new(Fabric::be());
    let gpp = run_gpp_only(w.program(), cfg.mem_size, cfg.timing, cfg.max_steps).unwrap();
    let mut sys = System::new(cfg, Box::new(BaselinePolicy));
    sys.run(w.program()).unwrap();
    assert_eq!(sys.stats().total_instrs(), gpp.retired());
}

#[test]
fn a_mask_swap_between_session_slices_reaches_cached_configurations() {
    // Cached configurations keep their legal pivots across
    // `session_resume`, so a mask installed between slices must rebuild
    // them: rotation may never walk a cached footprint onto a freshly
    // dead FU (DESIGN.md §11).
    let program = assemble(
        "
        li   a0, 0
        li   a1, 4000
    loop:
        addi t0, a1, 3
        slli t1, t0, 2
        xor  t2, t1, a1
        add  a0, a0, t2
        addi a1, a1, -1
        bnez a1, loop
        ebreak
    ",
    )
    .unwrap();
    let fabric = Fabric::be();
    let mut mask = FaultMask::healthy(&fabric);
    mask.mark_dead(1, 15);
    let builder =
        System::builder(fabric).policy(uaware::PolicySpec::rotation()).fault_mask(mask.clone());
    let mut sys = builder.build().unwrap();
    let mut session = sys.session(&program).unwrap();
    while session.system().stats().offloads < 200 {
        assert!(session.run_for(500).unwrap().is_running(), "the loop outlives the first slice");
    }
    // Kill FUs the cached loop body has already run on.
    let tracker = sys.tracker();
    let victims: Vec<(u32, u32)> = [(0, 4), (0, 9), (1, 2)]
        .into_iter()
        .filter(|&(r, c)| tracker.exec_count(r, c) > 0)
        .collect();
    assert_eq!(victims.len(), 3, "rotation has visited every victim before the swap");
    let before: Vec<u64> = victims.iter().map(|&(r, c)| tracker.exec_count(r, c)).collect();
    let offloads_before = sys.stats().offloads;
    for &(r, c) in &victims {
        mask.mark_dead(r, c);
    }
    sys.set_fault_mask(Some(mask));
    sys.session_resume().finish().unwrap();
    assert!(sys.stats().offloads > offloads_before + 200, "the cached loop kept offloading");
    let after: Vec<u64> = victims.iter().map(|&(r, c)| sys.tracker().exec_count(r, c)).collect();
    assert_eq!(after, before, "a freshly dead FU hosted an execution after the swap");
}
