//! Property tests for the serving engine's determinism contract
//! (DESIGN.md §13): arrival streams are pure functions of their seed,
//! serving reports are invariant under worker counts and shard splits,
//! and a campaign checkpointed, stopped and resumed at any shard boundary
//! reproduces the straight run byte for byte. These are the facts
//! `results/serving.json`'s byte-identity gate in CI rides on.

use std::path::PathBuf;

use cgra::Fabric;
use proptest::prelude::*;
use transrec::fleet::CampaignOptions;
use transrec::sweep::SuiteSpec;
use transrec::traffic::{
    day_traffic, run_serving, run_serving_campaign, BackpressureSpec, ServePlan, ServeStatus,
    TrafficSpec,
};
use uaware::PolicySpec;

/// The shared tiny-but-real serving campaign: 5 devices over 2 lanes,
/// 2-device shards (3 shards), two policies, a slow clock so each day
/// carries a handful of requests.
fn plan() -> ServePlan {
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
    let dir = std::env::temp_dir().join("uaware-serve-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A small arbitrary traffic spec with bounded-but-varied parameters.
fn any_traffic() -> impl Strategy<Value = TrafficSpec> {
    (0u32..3, 1u64..200, 0u32..=100, 1_001u32..3_000).prop_map(
        |(kind, per_hour, swing_pct, alpha_milli)| match kind {
            0 => TrafficSpec::Steady { per_hour },
            1 => TrafficSpec::Diurnal { per_hour, swing_pct },
            _ => TrafficSpec::Heavy { per_hour, alpha_milli },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An arrival stream is a pure function of `(spec, seed, day)`: the
    /// same triple reproduces it exactly, and it survives a round trip
    /// through the spec's string grammar.
    #[test]
    fn arrival_streams_reproduce_from_their_seed(
        spec in any_traffic(),
        seed in any::<u64>(),
        day in 0u64..5,
    ) {
        let reparsed: TrafficSpec = spec.to_string().parse().expect("grammar round-trips");
        prop_assert_eq!(reparsed, spec);
        let a = day_traffic(&spec, seed, day, 500, 3);
        let b = day_traffic(&reparsed, seed, day, 500, 3);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        prop_assert!(a.iter().all(|r| r.workload < 3 && r.cycle < 500 * 86_400));
    }
}

proptest! {
    // Full campaigns per case: keep the case count low, the plans tiny.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The serving report is invariant under the worker count and the
    /// shard split — both change only scheduling, never bytes.
    #[test]
    fn report_is_invariant_under_jobs_and_shards(
        shard in 1usize..6,
        jobs in 1usize..4,
    ) {
        let reference = run_serving(&plan(), 1).expect("serving runs");
        let split = run_serving(&plan().shard_devices(shard), jobs).expect("serving runs");
        prop_assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&split).unwrap()
        );
    }

    /// A campaign checkpointed and stopped after any number of shards,
    /// then resumed (under a different worker count), emits the byte-
    /// identical report of a straight run — the queue/backpressure state
    /// round-trips through the checkpoint exactly.
    #[test]
    fn stop_and_resume_reproduces_the_straight_run(stop in 0usize..4, jobs in 1usize..4) {
        let straight = run_serving(&plan(), 1).expect("serving runs");
        let path = scratch(&format!("resume-{stop}-{jobs}"));
        let paused = run_serving_campaign(
            &plan(),
            jobs,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every_shards: 1,
                stop_after_shards: Some(stop),
                ..CampaignOptions::default()
            },
        )
        .expect("serving runs");
        match paused {
            ServeStatus::Paused { completed_shards, total_shards } => {
                prop_assert_eq!(completed_shards, stop.min(total_shards));
            }
            ServeStatus::Complete(_) => prop_assert!(false, "stop_after must pause"),
        }
        let resumed = run_serving_campaign(
            &plan(),
            4 - jobs,
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every_shards: 2,
                stop_after_shards: None,
                ..CampaignOptions::default()
            },
        )
        .expect("serving runs");
        let ServeStatus::Complete(report) = resumed else {
            std::fs::remove_file(&path).ok();
            panic!("resume without a stop must complete");
        };
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(
            serde_json::to_string(&straight).unwrap(),
            serde_json::to_string(&*report).unwrap()
        );
    }
}

/// A checkpoint written under one plan must refuse to resume under a
/// materially different one (the fingerprint covers every plan knob).
#[test]
#[should_panic(expected = "different plan")]
fn checkpoint_rejects_a_different_plan() {
    let path = scratch("fingerprint");
    let options = CampaignOptions {
        checkpoint: Some(path.clone()),
        checkpoint_every_shards: 1,
        stop_after_shards: Some(1),
        ..CampaignOptions::default()
    };
    run_serving_campaign(&plan(), 1, &options).expect("serving runs");
    // Same file, different traffic axis: the fingerprint must not match.
    let other = plan().traffic(TrafficSpec::Steady { per_hour: 41 });
    let result = run_serving_campaign(&other, 1, &options);
    std::fs::remove_file(&path).ok();
    drop(result);
}

/// FNV-1a 64 over `text`'s bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, b| (hash ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A two-traffic plan that exercises every branch of the day fold: fast
/// wear kills baseline devices mid-day (so replacements and death-day
/// sheds happen), and tight backpressure both sheds on depth and defers
/// hot requests to the GPP.
fn pinned_plan() -> ServePlan {
    ServePlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .policy(PolicySpec::rotation())
        .traffic_mix([
            TrafficSpec::Diurnal { per_hour: 300, swing_pct: 60 },
            TrafficSpec::Heavy { per_hour: 300, alpha_milli: 1_200 },
        ])
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(5)
        .lanes(2)
        .shard_devices(2)
        .clock_hz(1_000)
        .horizon_days(12)
        .pattern_days(2)
        .years_per_day(8.0)
        .backpressure(BackpressureSpec {
            shed_depth: 6,
            defer_depth: 2,
            hot_share_pct: 40,
            warmup_requests: 4,
        })
}

/// FNV-1a of the pinned plan's report JSON, captured before the service
/// day fold and the phase-1 grouping were rewritten.
const PINNED_REPORT_FNV: u64 = 0x4ab5_ecce_f28e_a34a;
/// FNV-1a of the pinned plan's metrics registry JSON, same capture.
const PINNED_METRICS_FNV: u64 = 0x8e0c_a635_9006_5e27;

/// The serving report and its metrics registry are pinned byte for byte:
/// any refactor of arrival generation, the day fold or the campaign's
/// phase-1 scheduling must reproduce the capture exactly.
#[test]
fn serving_bytes_match_the_pinned_capture() {
    let path = scratch("pinned");
    let options = CampaignOptions {
        checkpoint: Some(path.clone()),
        collect_metrics: true,
        ..CampaignOptions::default()
    };
    let status = run_serving_campaign(&pinned_plan(), 2, &options).expect("serving runs");
    let text = std::fs::read_to_string(&path).expect("checkpoint readable");
    std::fs::remove_file(&path).ok();
    let ServeStatus::Complete(report) = status else { panic!("no stop was requested") };
    assert!(report.cells.iter().all(|c| c.replacements > 0), "no device died");
    assert!(report.cells.iter().all(|c| c.served_gpp > 0), "nothing was deferred");
    assert!(report.cells.iter().all(|c| c.shed > 0), "nothing was shed");
    let checkpoint: serde::Value = serde_json::from_str(&text).expect("checkpoint parses");
    let metrics = checkpoint.get("metrics").expect("the checkpoint carries the registry");
    let metrics = serde_json::to_string(metrics).unwrap();
    assert!(metrics.contains("traffic.requests.served_gpp"));
    let report = serde_json::to_string(&*report).unwrap();
    assert_eq!(fnv1a(&report), PINNED_REPORT_FNV, "serving report bytes changed:\n{report}");
    assert_eq!(fnv1a(&metrics), PINNED_METRICS_FNV, "metrics registry bytes changed:\n{metrics}");
}
