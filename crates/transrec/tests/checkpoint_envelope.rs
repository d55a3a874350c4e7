//! The shared checkpoint envelope (DESIGN.md §12): fleet and serving
//! campaigns write the same envelope under distinct magics, so a
//! checkpoint of one kind must be refused by the other, and a checkpoint
//! of another format version must be refused by both — before any payload
//! is decoded. A plan that could never report is refused before it
//! writes a checkpoint at all.

use std::path::{Path, PathBuf};

use cgra::Fabric;
use transrec::fleet::{run_fleet_campaign, CampaignOptions, CampaignStatus, FleetPlan};
use transrec::sweep::SuiteSpec;
use transrec::traffic::{run_serving_campaign, ServePlan, ServeStatus, TrafficSpec};
use uaware::PolicySpec;

fn fleet_plan() -> FleetPlan {
    FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .devices(4)
        .lanes(1)
        .shard_devices(2)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .mission_years(1.0)
        .horizon_years(6.0)
}

fn serve_plan() -> ServePlan {
    ServePlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .traffic(TrafficSpec::Steady { per_hour: 40 })
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(4)
        .lanes(1)
        .shard_devices(2)
        .clock_hz(1_000)
        .horizon_days(1)
        .pattern_days(1)
}

/// A fresh per-test checkpoint path (removed up front so reruns of a
/// failed test never resume stale state).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("uaware-envelope-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Options that write a checkpoint to `path` and pause right after
/// phase 1.
fn pause_after_phase1(path: &Path) -> CampaignOptions {
    CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every_shards: 1,
        stop_after_shards: Some(0),
        ..CampaignOptions::default()
    }
}

fn write_fleet_checkpoint(path: &Path) {
    let status = run_fleet_campaign(&fleet_plan(), 1, &pause_after_phase1(path));
    assert!(matches!(status, Ok(CampaignStatus::Paused { .. })));
    assert!(path.exists(), "a paused campaign leaves its checkpoint behind");
}

fn write_serve_checkpoint(path: &Path) {
    let status = run_serving_campaign(&serve_plan(), 1, &pause_after_phase1(path));
    assert!(matches!(status, Ok(ServeStatus::Paused { .. })));
    assert!(path.exists(), "a paused campaign leaves its checkpoint behind");
}

#[test]
#[should_panic(expected = "not a serving checkpoint")]
fn serving_refuses_a_fleet_checkpoint() {
    let path = scratch("fleet-as-serve");
    write_fleet_checkpoint(&path);
    let _ = run_serving_campaign(&serve_plan(), 1, &pause_after_phase1(&path));
}

#[test]
#[should_panic(expected = "not a fleet checkpoint")]
fn fleet_refuses_a_serving_checkpoint() {
    let path = scratch("serve-as-fleet");
    write_serve_checkpoint(&path);
    let _ = run_fleet_campaign(&fleet_plan(), 1, &pause_after_phase1(&path));
}

#[test]
#[should_panic(expected = "unsupported version")]
fn a_checkpoint_of_another_version_is_refused() {
    let path = scratch("old-version");
    write_fleet_checkpoint(&path);
    let json = std::fs::read_to_string(&path).expect("read checkpoint");
    let current = "\"version\":4";
    assert!(json.contains(current), "checkpoint must carry format version 4");
    std::fs::write(&path, json.replacen(current, "\"version\":2", 1)).expect("rewrite checkpoint");
    let _ = run_fleet_campaign(&fleet_plan(), 1, &pause_after_phase1(&path));
}

/// Runs `run`, which must panic, and returns its panic message.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the plan must be refused");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(String::new, |m| m.to_string()),
    }
}

/// Zero histogram bins fail only when the report is built, so a campaign
/// that ran first would leave a completed checkpoint behind that panics on
/// every resume: both kinds must refuse the plan at entry instead.
#[test]
fn zero_histogram_bins_are_refused_before_a_checkpoint_is_written() {
    let options = |path: &Path| CampaignOptions {
        checkpoint: Some(path.to_path_buf()),
        ..CampaignOptions::default()
    };
    let fleet = scratch("fleet-no-bins");
    let mut plan = fleet_plan();
    plan.histogram_bins = 0;
    let message = panic_message(|| drop(run_fleet_campaign(&plan, 1, &options(&fleet))));
    assert!(message.contains("histogram_bins"), "fleet panicked with {message:?}");
    assert!(!fleet.exists(), "a refused fleet plan left a checkpoint behind");

    let serve = scratch("serve-no-bins");
    let plan = serve_plan().histogram_bins(0);
    let message = panic_message(|| drop(run_serving_campaign(&plan, 1, &options(&serve))));
    assert!(message.contains("histogram_bins"), "serving panicked with {message:?}");
    assert!(!serve.exists(), "a refused serving plan left a checkpoint behind");
}
