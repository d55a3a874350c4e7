//! Offload-tape differential (DESIGN.md §17): whatever a [`TapeStore`]
//! does for a run — record it, replay the tape, or fall back to a full
//! session — must report exactly what a full [`System`] session reports:
//! the statistics, the tracker (duty bits included), the total cycles, the
//! exhaustion outcome, and every counter of the collected registry.
//!
//! Each fabric is run by two stores that order the policies and fault
//! masks differently, so tapes are recorded by the immobile baseline and
//! by a mobile policy, on the pristine fabric and on the faulted one, and
//! replayed across both: capability starvation that only the baseline
//! hits (`het-checker`), a dead origin with and without the GPP fallback,
//! a run that dies (which keeps no tape), and legal pivots that must be
//! rebuilt for the replaying mask.

mod common;

use std::collections::BTreeMap;

use cgra::{FabricSpec, FaultMask};
use common::{any_step, program, DATA_BASE, DATA_BYTES};
use mibench::Workload;
use obs::Registry;
use proptest::prelude::*;
use transrec::tape::{TapeRun, TapeStore};
use transrec::{run_gpp_only, System, SystemConfig, SystemError};
use uaware::PolicySpec;

const POLICIES: [&str; 6] =
    ["baseline", "rotation", "rotation:snake@per-load", "random", "health-aware", "exact"];

/// The fabrics, each with the fault mask its faulted pass runs under.
fn fabrics() -> Vec<(&'static str, SystemConfig, FaultMask)> {
    let config =
        |spec: &str| SystemConfig::new(spec.parse::<FabricSpec>().unwrap().build().unwrap());
    let pristine = |config: &SystemConfig| FaultMask::healthy(&config.fabric);
    let mut fallback = config("2x8");
    fallback.fault_fallback = true;
    let mut two_dead = pristine(&fallback);
    two_dead.mark_dead(0, 0);
    two_dead.mark_dead(1, 5);
    let dead_origin_config = SystemConfig::new(cgra::Fabric::be());
    let mut dead_origin = pristine(&dead_origin_config);
    dead_origin.mark_dead(0, 0);
    let uniform = config("4x8");
    let het = config("4x8:het-checker");
    let bw = config("4x8+bw-2");
    vec![
        ("4x8", uniform.clone(), pristine(&uniform)),
        ("4x8:het-checker", het.clone(), pristine(&het)),
        ("4x8+bw-2", bw.clone(), pristine(&bw)),
        ("2x8, 2 dead, fallback", fallback, two_dead),
        ("be, dead origin", dead_origin_config, dead_origin),
    ]
}

/// A full session's outcome (`None`: exhausted) and registry.
type Reference = (Option<TapeRun>, Registry);

/// The full session the store must stand for, with its registry.
fn full_session(
    config: &SystemConfig,
    spec: &PolicySpec,
    mask: &FaultMask,
    workload: &Workload,
) -> Reference {
    let (run, registry) = obs::collect(|| {
        let mut system = System::new(config.clone(), spec.build());
        system.set_fault_mask(Some(mask.clone()));
        match system.run(workload.program()) {
            Ok(_) => {}
            Err(SystemError::AllocationExhausted { .. }) => return Ok(None),
            Err(e) => return Err(e),
        }
        workload.verify(system.cpu()).expect("the full session passes the oracle");
        Ok(Some(TapeRun { stats: *system.stats(), tracker: system.tracker().clone() }))
    });
    (run.expect("no error"), registry)
}

/// Runs every (mask, policy) of `order` through one store and checks each
/// run against its full session, computed once per (mask, policy,
/// workload) into `references`. Returns the policies of the runs that
/// ended exhausted.
fn check_store(
    label: &str,
    config: &SystemConfig,
    workloads: &[Workload],
    order: &[(&FaultMask, &'static str)],
    references: &mut BTreeMap<(u32, &'static str, usize), Reference>,
) -> Result<Vec<&'static str>, TestCaseError> {
    let mut store = TapeStore::new(config, workloads);
    let mut exhausted = Vec::new();
    for &(mask, policy) in order {
        let spec: PolicySpec = policy.parse().unwrap();
        for (i, workload) in workloads.iter().enumerate() {
            let at =
                format!("{label}: {policy} with {} dead, {}", mask.dead_count(), workload.name());
            let (taped, taped_metrics) = obs::collect(|| store.run(&spec, mask, i));
            let taped = taped.expect("no error");
            let (full, full_metrics) = references
                .entry((mask.dead_count(), policy, i))
                .or_insert_with(|| full_session(config, &spec, mask, workload));
            prop_assert_eq!(taped.is_none(), full.is_none(), "{}: exhaustion", at);
            if let (Some(taped), Some(full)) = (taped, full) {
                prop_assert_eq!(taped.stats, full.stats, "{}: stats", at);
                prop_assert_eq!(
                    taped.stats.total_cycles(),
                    full.stats.total_cycles(),
                    "{}: cycles",
                    at
                );
                prop_assert_eq!(&taped.tracker, &full.tracker, "{}: tracker", at);
                let bits = |run: &TapeRun| {
                    let duty = run.tracker.duty_cycles(run.stats.total_cycles());
                    duty.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&taped), bits(full), "{}: duty", at);
            } else {
                exhausted.push(policy);
            }
            prop_assert_eq!(&taped_metrics, &*full_metrics, "{}: metrics", at);
        }
    }
    Ok(exhausted)
}

/// Every policy of `policies` under each of `masks`, mask-major.
fn order<'m>(
    masks: &[&'m FaultMask],
    policies: &[&'static str],
) -> Vec<(&'m FaultMask, &'static str)> {
    masks.iter().flat_map(|&mask| policies.iter().map(move |&p| (mask, p))).collect()
}

/// Checks `workloads` on every fabric: one store records under the
/// fabric's mask with the baseline first and then replays on the pristine
/// fabric; the other records on the pristine fabric with health-aware
/// first and replays under the mask (a pristine fabric has one pass each).
/// Returns the policies of the runs that ended exhausted, per fabric.
fn check_all(workloads: &[Workload]) -> Result<Vec<Vec<&'static str>>, TestCaseError> {
    let mut exhausted = Vec::new();
    for (label, config, mask) in fabrics() {
        let pristine = FaultMask::healthy(&config.fabric);
        let (faulted_first, pristine_first) = if mask.is_pristine() {
            (vec![&pristine], vec![&pristine])
        } else {
            (vec![&mask, &pristine], vec![&pristine, &mask])
        };
        let baseline_first = POLICIES.to_vec();
        // Health-aware, then the rest; `exact`, the slowest policy by far,
        // replays the baseline's tapes only.
        let mut mobile_first = POLICIES[..5].to_vec();
        mobile_first.rotate_left(4);
        let mut references = BTreeMap::new();
        let mut check = |masks: &[&FaultMask], policies: &[&'static str]| {
            check_store(label, &config, workloads, &order(masks, policies), &mut references)
        };
        let mut died = check(&faulted_first, &baseline_first)?;
        died.extend(check(&pristine_first, &mobile_first)?);
        exhausted.push(died);
    }
    Ok(exhausted)
}

#[test]
fn the_mibench_suite_replays_like_full_sessions() {
    let exhausted = check_all(&mibench::suite(0xDAC2020)).unwrap();
    // Runs die only on the dead origin without fallback: the baseline's on
    // every benchmark, and every policy's on the one benchmark with a
    // configuration that no pivot keeps off the dead FU — once per store
    // that runs it.
    let (dead_origin, others) = exhausted.split_last().unwrap();
    assert!(others.iter().all(Vec::is_empty), "{exhausted:?}");
    for policy in POLICIES {
        let deaths = dead_origin.iter().filter(|&&p| p == policy).count();
        let expected = match policy {
            "baseline" => 2 * mibench::NAMES.len(),
            "exact" => 1,
            _ => 2,
        };
        assert_eq!(deaths, expected, "{policy}: {dead_origin:?}");
    }
}

#[test]
fn a_tape_recorded_without_a_subscriber_is_recorded_again_under_one() {
    // The baseline records crc32 with nobody counting; every later run is
    // collected and must count what its full session counts.
    let config = SystemConfig::new(cgra::Fabric::be());
    let workloads = transrec::SuiteSpec::subset("crc", vec![1]).workloads(7);
    let pristine = FaultMask::healthy(&config.fabric);
    let mut store = TapeStore::new(&config, &workloads);
    store.run(&PolicySpec::Baseline, &pristine, 0).expect("no error");
    for spec in [PolicySpec::rotation(), PolicySpec::HealthAware] {
        let (taped, taped_metrics) = obs::collect(|| store.run(&spec, &pristine, 0));
        let (full, full_metrics) = full_session(&config, &spec, &pristine, &workloads[0]);
        let stats = |run: Option<TapeRun>| run.expect("alive").stats;
        assert_eq!(stats(taped.expect("no error")), stats(full), "{spec}: stats");
        assert_eq!(taped_metrics, full_metrics, "{spec}: metrics");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_loop_programs_replay_like_full_sessions(
        body in proptest::collection::vec(any_step(), 1..24),
        iterations in 8u32..40,
        seed in any::<u32>(),
    ) {
        let mut program = program(&body, iterations, seed);
        program.symbols.insert("data".to_string(), DATA_BASE);
        let config = SystemConfig::new(cgra::Fabric::be());
        let gpp = run_gpp_only(&program, config.mem_size, config.timing, config.max_steps)
            .expect("the GPP runs the program");
        let data = gpp.mem.read_bytes(DATA_BASE, DATA_BYTES).expect("the data buffer");
        let workload = Workload::from_program(
            "loop",
            program,
            config.max_steps,
            vec![("data".to_string(), data.to_vec())],
        );
        check_all(std::slice::from_ref(&workload))?;
    }
}
