//! Acceptance regression tests for the closed-loop lifetime engine
//! (DESIGN.md §11):
//!
//! 1. open loop (faults disabled): the wear-state lifetime of the worst FU
//!    on the **full mibench suite** matches the analytic
//!    `CalibratedAging::lifetime_years(worst_u)` within 1e-6;
//! 2. closed loop (faults injected): health-aware reallocation outlives
//!    the corner-pinned baseline's MTTF;
//! 3. `run_fleet` is byte-identical for every worker count;
//! 4. equivalence classes (DESIGN.md §12): a fleet of identical devices
//!    shares exactly one simulation per policy, and seeded defects fork
//!    classes without changing any per-device result versus a solo run;
//! 5. the report and metrics bytes of a small defective fleet are pinned.
//! 6. shard splits that cut through defective lanes change no byte.
//! 7. the report and metrics bytes of a heterogeneous fleet, where the
//!    baseline starves configurations the mobile policies offload, are
//!    pinned too.

use cgra::{Fabric, FabricSpec};
use lifetime::DeviceLifetime;
use nbti::CalibratedAging;
use transrec::fleet::{run_fleet, run_fleet_campaign, CampaignOptions, CampaignStatus, FleetPlan};
use transrec::sweep::SuiteSpec;
use transrec::{System, SystemConfig};
use uaware::{PolicySpec, UtilizationTracker};

/// Runs the full ten-benchmark suite once and returns the merged tracker
/// plus the total system cycles — one "mission" of the fleet engine.
fn full_suite_mission(config: &SystemConfig, spec: &PolicySpec) -> (UtilizationTracker, u64) {
    let mut merged = UtilizationTracker::new(&config.fabric);
    let mut cycles = 0u64;
    for w in mibench::suite(0xDAC2020) {
        let mut system = System::new(config.clone(), spec.build());
        system.run(w.program()).expect("suite runs");
        w.verify(system.cpu()).expect("oracle");
        cycles += system.stats().total_cycles();
        merged.merge(system.tracker());
    }
    (merged, cycles)
}

#[test]
fn open_loop_wear_lifetime_matches_the_analytic_projection() {
    // Acceptance criterion: with faults disabled, the wear-state lifetime
    // of the worst FU equals CalibratedAging::lifetime_years(worst_u)
    // within 1e-6 on the full mibench suite.
    let config = SystemConfig::new(Fabric::be());
    let aging = CalibratedAging::default();
    let spec = PolicySpec::rotation();
    let (tracker, cycles) = full_suite_mission(&config, &spec);
    let duty = tracker.duty_cycles(cycles);
    let worst_u = duty.max();
    assert!(worst_u > 0.3, "rotation's worst duty on BE should be ~0.42, got {worst_u}");
    assert_eq!(duty, tracker.utilization(), "duty is the paper's utilization metric");

    // Drive the wear state through unevenly sized missions; composition
    // must land exactly on the analytic curve.
    let mut device = DeviceLifetime::new(&config.fabric, aging, false);
    for dt in [0.25, 1.0, 0.125, 2.0, 0.5] {
        device.advance_mission(&duty, dt);
    }
    let analytic = aging.lifetime_years(worst_u);
    let wear_state = device.projected_first_failure(&duty);
    assert!(
        (wear_state - analytic).abs() < 1e-6,
        "wear-state lifetime {wear_state} vs analytic {analytic}"
    );

    // And the interpolated FuFailed event of the worst FU lands on the
    // same instant when the missions actually cross it.
    let mut device = DeviceLifetime::new(&config.fabric, aging, false);
    let mut first = None;
    while first.is_none() && device.elapsed_years() < 2.0 * analytic {
        first = device.advance_mission(&duty, 0.5).first().map(|f| f.at_years);
    }
    let first = first.expect("worst FU must cross EOL within twice its lifetime");
    assert!((first - analytic).abs() < 1e-6, "event at {first} vs analytic {analytic}");
}

#[test]
fn closed_loop_health_aware_outlives_baseline_mttf() {
    // Acceptance criterion: a fault-injected run shows health-aware
    // outliving baseline MTTF. bitcount's small footprints let the oracle
    // spread stress (worst duty ~0.22 vs the baseline's pinned 1.0).
    let plan = FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::HealthAware)
        .devices(2)
        .suite(SuiteSpec::subset("bitcount", vec![0]))
        .mission_years(0.5)
        .horizon_years(16.0);
    let report = run_fleet(&plan, 1).expect("fleet runs");
    assert!(report.inject_faults);
    let base = report.policy("baseline").expect("baseline fleet");
    let oracle = report.policy("health-aware").expect("health-aware fleet");
    // Every baseline device dies with its corner, shortly after 3 years.
    assert_eq!(base.stats.deaths, plan.devices);
    for device in &base.devices {
        let death = device.death_years.expect("baseline corner death");
        assert!((2.9..=4.0).contains(&death), "baseline died at {death}");
    }
    assert!(
        oracle.stats.mttf_years > base.stats.mttf_years,
        "health-aware MTTF {} must exceed baseline {}",
        oracle.stats.mttf_years,
        base.stats.mttf_years
    );
    // The oracle's first failures land far beyond the baseline's.
    for device in &oracle.devices {
        if let Some(first) = device.first_failure_years {
            assert!(first > 10.0, "health-aware first failure at {first}");
        }
    }
    // Survival: at 5 years the baseline fleet is gone, the oracle's is not.
    assert_eq!(base.survival.alive_at(5.0), 0.0);
    assert_eq!(oracle.survival.alive_at(5.0), 1.0);
}

#[test]
fn fleet_reports_are_identical_for_every_worker_count() {
    let plan = FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .devices(3)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .mission_years(1.0)
        .horizon_years(12.0);
    let sequential = run_fleet(&plan, 1).expect("sequential fleet");
    let sharded = run_fleet(&plan, 4).expect("sharded fleet");
    let inline = run_fleet(&plan, 0).expect("default-pool fleet");
    assert_eq!(sequential, sharded);
    assert_eq!(sequential, inline);
    // Byte-identical all the way into the serialized artefact.
    let a = serde_json::to_string(&sequential).unwrap();
    let b = serde_json::to_string(&sharded).unwrap();
    assert_eq!(a, b);
}

/// The solo fleet the class tests compare against: one device on one lane,
/// optionally with one seeded manufacturing defect.
fn solo_plan(defect: Option<(u32, u32)>) -> FleetPlan {
    let plan = FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .devices(1)
        .lanes(1)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .mission_years(1.0)
        .horizon_years(12.0);
    match defect {
        Some((row, col)) => plan.defect(0, row, col),
        None => plan,
    }
}

#[test]
fn identical_devices_share_exactly_one_simulation_per_policy() {
    // 40 identical devices on one workload lane collapse into one
    // equivalence class: one reference simulation per policy, with the
    // simulation count pinned *exactly* — not "at most" — in the report,
    // and every member device landing where the solo device lands.
    let solo = run_fleet(&solo_plan(None), 1).expect("solo fleet");
    let fleet_plan = solo_plan(None).devices(40).detail_devices(40);
    let fleet = run_fleet(&fleet_plan, 4).expect("shared-class fleet");
    for (shared, alone) in fleet.policies.iter().zip(&solo.policies) {
        assert_eq!(shared.classes, 1, "{}: one lane, no defects, one class", shared.policy);
        let reference = &alone.devices[0];
        assert_eq!(
            shared.simulated_missions, reference.simulated_missions,
            "{}: the class re-simulates exactly as often as the solo device",
            shared.policy
        );
        assert_eq!(shared.total_missions, 40 * reference.missions);
        assert_eq!(shared.devices.len(), 40);
        for device in &shared.devices {
            assert_eq!(device.seed, reference.seed, "one lane, one workload seed");
            assert_eq!(device.death_years, reference.death_years);
            assert_eq!(device.first_failure_years, reference.first_failure_years);
            assert_eq!(device.missions, reference.missions);
            assert_eq!(device.failures, reference.failures);
            // Only the class representative (device 0) carries the
            // simulation count; every other member reports zero.
            let expected = if device.device == 0 { reference.simulated_missions } else { 0 };
            assert_eq!(device.simulated_missions, expected);
        }
        assert_eq!(shared.stats.devices, 40);
        assert_eq!(shared.survival.alive_at(0.0), 1.0);
    }
}

#[test]
fn seeded_defects_fork_classes_without_changing_per_device_results() {
    // Device 1 of three otherwise identical devices ships with a dead
    // corner FU. The fleet must fork it into its own class — and both
    // classes must reproduce their solo-simulated twins exactly.
    let healthy = run_fleet(&solo_plan(None), 1).expect("healthy solo");
    let defective = run_fleet(&solo_plan(Some((0, 0))), 1).expect("defective solo");
    let fleet_plan = solo_plan(None).devices(3).defect(1, 0, 0);
    let fleet = run_fleet(&fleet_plan, 1).expect("forked fleet");
    for ((forked, clean), broken) in
        fleet.policies.iter().zip(&healthy.policies).zip(&defective.policies)
    {
        assert_eq!(forked.classes, 2, "{}: the defect forks one extra class", forked.policy);
        assert_eq!(
            forked.simulated_missions,
            clean.simulated_missions + broken.simulated_missions,
            "{}: one simulation per class, nothing more",
            forked.policy
        );
        let outcomes = &forked.devices;
        assert_eq!(outcomes.len(), 3);
        for (device, reference) in
            [(&outcomes[0], clean), (&outcomes[1], broken), (&outcomes[2], clean)]
        {
            let reference = &reference.devices[0];
            assert_eq!(device.death_years, reference.death_years);
            assert_eq!(device.first_failure_years, reference.first_failure_years);
            assert_eq!(device.missions, reference.missions);
            assert_eq!(device.failures, reference.failures);
        }
        // The defect actually mattered: the corner-dead device diverges
        // from its healthy siblings under the corner-pinned baseline.
        if forked.policy == "baseline" {
            assert_ne!(
                outcomes[1].death_years, outcomes[0].death_years,
                "a dead corner must change the baseline's fate"
            );
        }
    }
}

/// FNV-1a 64 of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, b| (hash ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A fleet over two lanes with one defective device, fast enough wear
/// that devices die before the horizon, and shards that split the lanes.
fn pinned_plan() -> FleetPlan {
    FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(5)
        .lanes(2)
        .shard_devices(2)
        .defect(1, 0, 1)
        .mission_years(1.0)
        .horizon_years(12.0)
}

/// FNV-1a of the pinned plan's report JSON, captured before the campaign
/// kinds' shared steps moved into the engine.
const PINNED_REPORT_FNV: u64 = 0x17c5_a75a_5fba_6f54;
/// FNV-1a of the pinned plan's metrics registry JSON, re-captured when
/// phase 2 stopped replaying wear and with it the `wear.class.advances`
/// counter (the earlier capture is this registry plus
/// `"wear.class.advances":40`), and again when the `system.*` twins of
/// `tracker.executions` and `dbt.cache.insert` went (the earlier registry
/// also had `"system.cache_inserted":27` and
/// `"system.offloads_completed":2550`).
const PINNED_METRICS_FNV: u64 = 0x34d7_7e91_09ed_1578;

/// The fleet report and its metrics registry are pinned byte for byte:
/// any refactor of the mission runner, the lane/shard split or the
/// campaign engine must reproduce the capture exactly.
#[test]
fn fleet_bytes_match_the_pinned_capture() {
    let dir = std::env::temp_dir().join("uaware-fleet-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("pinned-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = CampaignOptions {
        checkpoint: Some(path.clone()),
        collect_metrics: true,
        ..CampaignOptions::default()
    };
    let status = run_fleet_campaign(&pinned_plan(), 2, &options).expect("fleet runs");
    let text = std::fs::read_to_string(&path).expect("checkpoint readable");
    std::fs::remove_file(&path).ok();
    let CampaignStatus::Complete(report) = status else { panic!("no stop was requested") };
    assert_eq!(report.lanes, 2);
    assert!(report.policies.iter().all(|p| p.classes == 3), "the defect forks one class");
    assert!(report.policies.iter().all(|p| p.stats.deaths > 0), "no device died");
    let checkpoint: serde::Value = serde_json::from_str(&text).expect("checkpoint parses");
    let metrics = checkpoint.get("metrics").expect("the checkpoint carries the registry");
    let metrics = serde_json::to_string(metrics).unwrap();
    assert!(metrics.contains("system.offloads"));
    let report = serde_json::to_string(&*report).unwrap();
    assert_eq!(fnv1a(&report), PINNED_REPORT_FNV, "fleet report bytes changed:\n{report}");
    assert_eq!(fnv1a(&metrics), PINNED_METRICS_FNV, "metrics registry bytes changed:\n{metrics}");
}

/// Every shard split and worker count of a fleet whose class counts mix
/// lane residues with defective devices: devices 1 and 4 share lane 1 and
/// one defect (so lane 1 keeps no defect-free member), device 5 forks lane
/// 2 on another cell, and lane 0 stays whole. The detail count only
/// trims the per-device list the report reads off the class trajectories.
#[test]
fn defective_lanes_give_the_same_bytes_for_every_shard_split() {
    let plan = FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(7)
        .lanes(3)
        .defect(1, 0, 1)
        .defect(4, 0, 1)
        .defect(5, 1, 3)
        .mission_years(1.0)
        .horizon_years(12.0);
    let reference = run_fleet(&plan, 1).expect("fleet runs");
    for fleet in &reference.policies {
        assert_eq!(fleet.classes, 4, "{}: lanes 0 and 2, plus two defect keys", fleet.policy);
        let devices = &fleet.devices;
        assert_eq!(devices.len(), 7);
        assert_eq!(devices[4].failures, devices[1].failures, "devices 1 and 4 share a class");
        assert_eq!(devices[4].simulated_missions, 0, "device 1 represents the class");
        assert_eq!(fleet.total_missions, devices.iter().map(|d| d.missions).sum::<u64>());
    }
    for detail in [0, 3, 100] {
        let report = run_fleet(&plan.clone().detail_devices(detail), 2).expect("fleet runs");
        for (fleet, full) in report.policies.iter().zip(&reference.policies) {
            assert_eq!(fleet.stats, full.stats, "detail_devices {detail}");
            assert_eq!(fleet.survival, full.survival, "detail_devices {detail}");
            assert_eq!(fleet.total_missions, full.total_missions, "detail_devices {detail}");
            assert_eq!(fleet.devices[..], full.devices[..detail.min(7)], "detail_devices {detail}");
        }
    }
    let reference = serde_json::to_string(&reference).unwrap();
    for shard in 1..=7 {
        for jobs in [1, 2] {
            let report = run_fleet(&plan.clone().shard_devices(shard), jobs).expect("fleet runs");
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                reference,
                "shard_devices {shard}, jobs {jobs}"
            );
        }
    }
}

/// A fleet on the heterogeneous checkerboard under the whole policy
/// series, two lanes and one defect, with wear fast enough that devices
/// die before the horizon. The immobile baseline starves configurations
/// whose origin anchor lacks the capability the mobile policies find
/// elsewhere, so its missions diverge from theirs.
fn pinned_het_plan() -> FleetPlan {
    let fabric = "4x8:het-checker".parse::<FabricSpec>().unwrap().build().unwrap();
    FleetPlan::new(0xDAC2020, fabric)
        .policies(pinned_series())
        .suite(SuiteSpec::subset("crc+dijkstra", vec![1, 2]))
        .devices(5)
        .lanes(2)
        .shard_devices(2)
        .defect(1, 0, 1)
        .mission_years(1.0)
        .horizon_years(30.0)
}

/// Baseline followed by the experiments' default policy series.
fn pinned_series() -> Vec<PolicySpec> {
    ["baseline", "rotation", "rotation:snake@per-load", "random", "health-aware"]
        .iter()
        .map(|spec| spec.parse().unwrap())
        .collect()
}

/// FNV-1a of the heterogeneous pinned plan's report JSON.
const PINNED_HET_REPORT_FNV: u64 = 0x18a3_f4be_ea6f_3d9e;
/// FNV-1a of the heterogeneous pinned plan's metrics registry JSON,
/// re-captured when the `system.*` twins of `tracker.executions` and
/// `dbt.cache.insert` went (the earlier registry also had
/// `"system.cache_inserted":458` and `"system.offloads_completed":43303`).
const PINNED_HET_METRICS_FNV: u64 = 0xaaae_b88f_43ae_b5ae;

/// The heterogeneous fleet's report and metrics registry are pinned byte
/// for byte, captured while every mission still ran as its own session.
#[test]
fn fleet_het_bytes_match_the_pinned_capture() {
    let plan = pinned_het_plan();
    // The premise: on this fabric the baseline keeps configurations on
    // the GPP that rotation places (dijkstra's; crc32 starves under
    // neither).
    let workload = &plan.suite.workloads(plan.base_seed)[1];
    let starved = |spec: PolicySpec| {
        let mut system = System::new(plan.config.clone(), spec.build());
        system.run(workload.program()).expect("the workload runs");
        system.stats().offloads_starved
    };
    assert!(starved(PolicySpec::Baseline) > starved(PolicySpec::rotation()));
    let dir = std::env::temp_dir().join("uaware-fleet-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("pinned-het-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = CampaignOptions {
        checkpoint: Some(path.clone()),
        collect_metrics: true,
        ..CampaignOptions::default()
    };
    let status = run_fleet_campaign(&plan, 2, &options).expect("fleet runs");
    let text = std::fs::read_to_string(&path).expect("checkpoint readable");
    std::fs::remove_file(&path).ok();
    let CampaignStatus::Complete(report) = status else { panic!("no stop was requested") };
    assert!(report.policies.iter().all(|p| p.classes == 3), "the defect forks one class");
    assert!(report.policies.iter().all(|p| p.stats.deaths > 0), "no device died");
    let checkpoint: serde::Value = serde_json::from_str(&text).expect("checkpoint parses");
    let metrics = checkpoint.get("metrics").expect("the checkpoint carries the registry");
    let metrics = serde_json::to_string(metrics).unwrap();
    assert!(metrics.contains("system.offloads_starved"));
    let report = serde_json::to_string(&*report).unwrap();
    assert_eq!(fnv1a(&report), PINNED_HET_REPORT_FNV, "fleet report bytes changed:\n{report}");
    assert_eq!(
        fnv1a(&metrics),
        PINNED_HET_METRICS_FNV,
        "metrics registry bytes changed:\n{metrics}"
    );
}
