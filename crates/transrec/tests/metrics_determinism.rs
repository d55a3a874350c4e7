//! The flight recorder's determinism contract (DESIGN.md §16): with
//! collection enabled, the folded metrics registry is byte-identical
//! across worker counts, shard splits, kill/resume points and attached
//! probes, and its counters agree exactly with the typed counters of the
//! one event fold.
//! These are the facts CI's `results/metrics.json` byte-identity gate
//! rides on.

use std::path::{Path, PathBuf};

use cgra::Fabric;
use transrec::fleet::{run_fleet_campaign, CampaignOptions, CampaignStatus, FleetPlan};
use transrec::sweep::{run_sweep, run_sweep_observed, SuiteSpec, SweepPlan};
use transrec::telemetry::ProbeSpec;
use transrec::traffic::{run_serving_campaign, ServePlan, ServeStatus, TrafficSpec};
use transrec::SystemStats;
use uaware::PolicySpec;

/// A 2-policy × 2-workload × 2-fabric plan, mirroring the sweep
/// determinism tests.
fn sweep_plan() -> SweepPlan {
    SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .fabric(Fabric::bp())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .suite(SuiteSpec::subset("mini", vec![0, 1])) // bitcount, crc32
}

/// The shared small fleet campaign from the kill/resume tests.
fn fleet_plan() -> FleetPlan {
    FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .devices(10)
        .lanes(2)
        .shard_devices(2)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .mission_years(1.0)
        .horizon_years(12.0)
}

/// The shared tiny serving campaign from the traffic tests.
fn serve_plan() -> ServePlan {
    ServePlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::HealthAware)
        .traffic(TrafficSpec::Diurnal { per_hour: 40, swing_pct: 60 })
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(5)
        .lanes(2)
        .shard_devices(2)
        .clock_hz(1_000)
        .horizon_days(2)
        .pattern_days(2)
}

/// A fresh per-test checkpoint path (removed up front so reruns of a
/// failed test never resume stale state).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("uaware-metrics-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The `metrics` registry a completed campaign left in its final
/// checkpoint, as canonical JSON. Campaigns fold their registry into
/// `obs::global` only on completion, but the checkpoint carries the same
/// registry — reading it here keeps these tests independent of the
/// process-global sink (which other tests in this binary share).
fn checkpoint_metrics(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    let value: serde::Value = serde_json::from_str(&text).expect("checkpoint parses");
    let metrics = value.get("metrics").expect("checkpoint v2 carries a metrics registry");
    serde_json::to_string(metrics).expect("registry serializes")
}

#[test]
fn sweep_registry_is_invariant_under_worker_count_and_observation() {
    let plan = sweep_plan();
    let (runs1, reg1) = run_sweep_observed(&plan, 1).expect("jobs=1 sweep runs");
    let (runs4, reg4) = run_sweep_observed(&plan, 4).expect("jobs=4 sweep runs");
    assert!(!reg1.is_empty(), "an observed sweep must record metrics");
    assert_eq!(
        serde_json::to_string(&reg1).unwrap(),
        serde_json::to_string(&reg4).unwrap(),
        "jobs=1 and jobs=4 must fold byte-identical registries"
    );
    // Observation must not perturb the experiment itself: the observed
    // runs equal the plain run_sweep output byte for byte.
    let plain = run_sweep(&plan, 4).expect("plain sweep runs");
    assert_eq!(
        serde_json::to_string(&runs1).unwrap(),
        serde_json::to_string(&plain).unwrap(),
        "collection must not change what the sweep computes"
    );
    assert_eq!(serde_json::to_string(&runs4).unwrap(), serde_json::to_string(&plain).unwrap());
}

#[test]
fn registry_counters_match_the_typed_event_stream() {
    // Every policy family under one observed sweep: the registry's
    // `system.*` counters must agree *exactly* with the typed counters the
    // runs report, because both come out of the same tally (DESIGN.md
    // §10, §16).
    let plan = SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .policy(PolicySpec::Random { seed: 7 })
        .policy(PolicySpec::HealthAware)
        .policy(PolicySpec::Exact { every: 1 })
        .suite(SuiteSpec::full());
    let (runs, reg) = run_sweep_observed(&plan, 4).expect("observed sweep runs");

    let mut total = SystemStats::default();
    for stats in runs.iter().flat_map(|run| run.benchmarks.iter().map(|b| &b.stats)) {
        total.gpp_retired += stats.gpp_retired;
        total.offloads += stats.offloads;
        total.offloads_skipped += stats.offloads_skipped;
        total.offloads_starved += stats.offloads_starved;
        total.cache_lookups += stats.cache_lookups;
    }
    assert_eq!(reg.counter("system.gpp_retired"), total.gpp_retired);
    assert_eq!(reg.counter("system.offloads"), total.offloads);
    assert_eq!(reg.counter("system.offloads_skipped"), total.offloads_skipped);
    assert_eq!(reg.counter("system.offloads_starved"), total.offloads_starved);
    assert!(reg.counter("system.config_loads") > 0);
    assert!(reg.counter("system.rotations") > 0, "rotation must move resident configs");

    // Every started offload completes and is recorded by the tracker, and
    // the sessions fill the DBT cache.
    assert_eq!(reg.counter("tracker.executions"), total.offloads);
    assert!(reg.counter("dbt.cache.insert") > 0);
    // Every scheduling decision begins with exactly one cache lookup.
    assert_eq!(total.cache_lookups, total.gpp_retired + total.offloads);
    assert_eq!(reg.counter("dbt.cache.hit") + reg.counter("dbt.cache.miss"), total.cache_lookups);

    // Each policy fires exactly one decision event per next_offset call,
    // and the system calls next_offset once per offload attempt.
    let decisions: u64 = ["baseline", "rotation", "random", "health-aware", "exact"]
        .iter()
        .map(|p| reg.counter(&format!("alloc.{p}.decisions")))
        .sum();
    assert_eq!(decisions, total.offloads + total.offloads_starved);
    for policy in ["baseline", "rotation", "random", "health-aware", "exact"] {
        assert!(
            reg.counter(&format!("alloc.{policy}.decisions")) > 0,
            "policy {policy} made no decisions"
        );
    }
    // The exact oracle's solver leaves its search statistics behind.
    assert!(reg.counter("solve.calls") > 0, "exact policy must invoke the solver");
    assert!(reg.counter("solve.expanded") > 0);
    assert!(reg.counter("dbt.translate.calls") > 0);
}

#[test]
fn probes_never_count_into_the_registry() {
    // Counting happens only in the built-in fold, never per observer: the
    // same plan with and without probes attached must fold byte-identical
    // registries.
    let plain = sweep_plan();
    let probed = sweep_plan().probe(ProbeSpec::util_trace(1_000)).probe(ProbeSpec::util_trace(7));
    let (_, reg_plain) = run_sweep_observed(&plain, 2).expect("plain sweep runs");
    let (runs, reg_probed) = run_sweep_observed(&probed, 2).expect("probed sweep runs");
    assert!(runs.iter().all(|r| r.benchmarks.iter().all(|b| b.probes.len() == 2)));
    assert_eq!(
        serde_json::to_string(&reg_plain).unwrap(),
        serde_json::to_string(&reg_probed).unwrap(),
        "attaching probes changed the registry"
    );
}

#[test]
fn fleet_campaign_metrics_survive_jobs_shards_and_resume() {
    let options = |path: &Path, stop: Option<usize>| CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every_shards: 1,
        stop_after_shards: stop,
        collect_metrics: true,
    };

    // Straight run, one worker.
    let straight = scratch("fleet-straight");
    let status = run_fleet_campaign(&fleet_plan(), 1, &options(&straight, None));
    assert!(matches!(status, Ok(CampaignStatus::Complete(_))));
    let reference = checkpoint_metrics(&straight);
    assert_ne!(reference, "{}", "fleet metrics must not be empty");
    assert!(reference.contains("wear.missions"));
    assert!(reference.contains("system.gpp_retired"));

    // Different worker count AND a different shard split: only phase 1
    // emits metrics (DESIGN.md §16), so the registry stays byte-identical.
    let split = scratch("fleet-split");
    let status = run_fleet_campaign(&fleet_plan().shard_devices(3), 4, &options(&split, None));
    assert!(matches!(status, Ok(CampaignStatus::Complete(_))));
    assert_eq!(checkpoint_metrics(&split), reference, "shard split changed the registry");

    // Kill after 2 shards, resume under another worker count.
    let resumed = scratch("fleet-resume");
    let status = run_fleet_campaign(&fleet_plan(), 2, &options(&resumed, Some(2)));
    assert!(matches!(status, Ok(CampaignStatus::Paused { .. })));
    let status = run_fleet_campaign(&fleet_plan(), 3, &options(&resumed, None));
    assert!(matches!(status, Ok(CampaignStatus::Complete(_))));
    assert_eq!(checkpoint_metrics(&resumed), reference, "kill/resume changed the registry");

    for path in [straight, split, resumed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn serve_campaign_metrics_survive_jobs_shards_and_resume() {
    let options = |path: &Path, stop: Option<usize>| CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every_shards: 1,
        stop_after_shards: stop,
        collect_metrics: true,
    };

    let straight = scratch("serve-straight");
    let status = run_serving_campaign(&serve_plan(), 1, &options(&straight, None));
    assert!(matches!(status, Ok(ServeStatus::Complete(_))));
    let reference = checkpoint_metrics(&straight);
    assert_ne!(reference, "{}", "serving metrics must not be empty");
    assert!(reference.contains("traffic.requests.arrived"));
    assert!(reference.contains("traffic.latency.cycles"));

    let split = scratch("serve-split");
    let status = run_serving_campaign(&serve_plan().shard_devices(3), 4, &options(&split, None));
    assert!(matches!(status, Ok(ServeStatus::Complete(_))));
    assert_eq!(checkpoint_metrics(&split), reference, "shard split changed the registry");

    let resumed = scratch("serve-resume");
    let status = run_serving_campaign(&serve_plan(), 2, &options(&resumed, Some(1)));
    assert!(matches!(status, Ok(ServeStatus::Paused { .. })));
    let status = run_serving_campaign(&serve_plan(), 3, &options(&resumed, None));
    assert!(matches!(status, Ok(ServeStatus::Complete(_))));
    assert_eq!(checkpoint_metrics(&resumed), reference, "kill/resume changed the registry");

    for path in [straight, split, resumed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn collection_off_leaves_no_trace() {
    // The default (collection off) must leave the campaign registry empty
    // — a publish outside a collection does not run, and nothing
    // downstream should see phantom metrics.
    let path = scratch("fleet-dark");
    let status = run_fleet_campaign(
        &fleet_plan(),
        2,
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every_shards: 2,
            stop_after_shards: None,
            ..CampaignOptions::default()
        },
    );
    assert!(matches!(status, Ok(CampaignStatus::Complete(_))));
    let metrics = checkpoint_metrics(&path);
    std::fs::remove_file(&path).ok();
    let value: serde::Value = serde_json::from_str(&metrics).unwrap();
    let empty =
        value.get("counters").and_then(|c| c.as_object()).is_some_and(|entries| entries.is_empty());
    assert!(empty, "collection off must record nothing, got {metrics}");
}
