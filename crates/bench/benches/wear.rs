//! Hot paths of the closed-loop lifetime engine (DESIGN.md §11, §12, §17):
//! the per-mission wear update (equivalent-age composition across every
//! FU), the columnar batch advance, a whole 100k-device fleet campaign
//! under one policy and under the five-policy series, recording and
//! replaying a suite lane's offload tapes, and the fault-masked allocation
//! decision policies pay once dead FUs constrain placement.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cgra::{Fabric, FaultMask};
use lifetime::{WearBatch, WearGrid};
use nbti::CalibratedAging;
use transrec::fleet::{run_fleet, FleetPlan};
use transrec::sweep::SuiteSpec;
use transrec::tape::TapeStore;
use transrec::SystemConfig;
use uaware::{
    AllocRequest, AllocationPolicy, HealthAwarePolicy, LegalPivots, PatternSpec, PolicySpec,
    RotationPolicy, UtilizationGrid, UtilizationTracker,
};

fn bench_wear_update(c: &mut Criterion) {
    let fabric = Fabric::bu(); // 256 FUs: the largest paper scenario
    let aging = CalibratedAging::default();
    let n = fabric.fu_count() as usize;
    let duty = UtilizationGrid::from_values(
        fabric.rows,
        fabric.cols,
        (0..n).map(|i| (i % 97) as f64 / 96.0).collect(),
    );
    let mut group = c.benchmark_group("wear_update");
    group.bench_function("advance_256fu_mission", |b| {
        let mut grid = WearGrid::new(&fabric, aging);
        b.iter(|| {
            grid.advance(black_box(&duty), 0.25);
            black_box(grid.worst_delay_frac())
        })
    });
    // The columnar batch (DESIGN.md §12): one mission folded into a
    // 256-device class on the contiguous slab, the per-device cost of
    // advancing wear lane by lane.
    group.bench_function("batch_advance_256dev_class", |b| {
        let mut batch = WearBatch::new(&fabric, aging, 256);
        let lanes: Vec<usize> = (0..256).collect();
        b.iter(|| black_box(batch.advance_class(black_box(&lanes), &duty, 0.25)))
    });
    group.finish();
}

fn bench_fleet_campaign(c: &mut Criterion) {
    // 100k devices on two lanes over a horizon too short for any failure:
    // phase 1 is two crc simulations and phase 2 weighs two classes per
    // shard, so the time is the campaign's fixed cost at fleet scale.
    let plan = FleetPlan::new(0xDAC2020, Fabric::be())
        .policy(PolicySpec::Baseline)
        .suite(SuiteSpec::subset("crc", vec![1]))
        .devices(100_000)
        .lanes(2)
        .mission_years(0.25)
        .horizon_years(2.0);
    // The same fleet under the experiments' five-policy series: the first
    // policy records each lane's tape and the other four replay it.
    let series = ["baseline", "rotation", "rotation:snake@per-load", "random", "health-aware"];
    let series_plan =
        plan.clone().policies(series.iter().map(|s| s.parse::<PolicySpec>().expect("spec")));
    let mut group = c.benchmark_group("fleet_campaign");
    group.sample_size(10);
    group.bench_function("crc_100k_devices", |b| {
        b.iter(|| run_fleet(black_box(&plan), 1).expect("fleet runs"))
    });
    group.bench_function("crc_100k_devices_5_policies", |b| {
        b.iter(|| run_fleet(black_box(&series_plan), 1).expect("fleet runs"))
    });
    group.finish();
}

fn bench_tape(c: &mut Criterion) {
    // One fleet lane's mission on the pristine BE fabric: the full suite
    // at the experiments' seed. Recording runs every workload as a full
    // session; a replay allocates the recorded offloads under a policy.
    let config = SystemConfig::new(Fabric::be());
    let config = SystemConfig { faults: Some(FaultMask::healthy(&config.fabric)), ..config };
    let workloads = SuiteSpec::full().workloads(0xDAC2020);
    let suite = |store: &mut TapeStore, spec: &PolicySpec| {
        (0..workloads.len())
            .map(|w| store.run(&config, spec, w).expect("alive").run.stats.offloads)
            .sum::<u64>()
    };
    let mut group = c.benchmark_group("tape");
    group.sample_size(10);
    group.bench_function("record_be_suite_lane", |b| {
        b.iter(|| suite(&mut TapeStore::new(&workloads), &PolicySpec::Baseline))
    });
    let mut store = TapeStore::new(&workloads);
    let offloads = suite(&mut store, &PolicySpec::Baseline);
    println!("tape: {offloads} offloads per BE suite lane");
    for (name, spec) in
        [("rotation", PolicySpec::rotation()), ("health_aware", PolicySpec::HealthAware)]
    {
        group.bench_function(format!("replay_be_suite_lane_{name}").as_str(), |b| {
            b.iter(|| suite(&mut store, &spec))
        });
    }
    group.finish();
}

fn bench_fault_masked_allocation(c: &mut Criterion) {
    let fabric = Fabric::bu();
    let mut tracker = UtilizationTracker::new(&fabric);
    let footprint: Vec<(u32, u32)> = (0..16u32).map(|i| (i % 8, i)).collect();
    for i in 0..1000u32 {
        tracker.record_execution(&[(i % 8, i % 32)], 4);
    }
    // A part-worn fabric: every thirteenth FU has failed, which leaves 70
    // of the 256 pivots legal, so both policies time a decision rather
    // than a refusal.
    let mut mask = FaultMask::healthy(&fabric);
    for i in (0..fabric.fu_count()).step_by(13) {
        mask.mark_dead(i / fabric.cols, i % fabric.cols);
    }

    let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
    assert!(legal.count().is_some_and(|n| n > 0), "the mask must leave legal pivots");

    let mut group = c.benchmark_group("fault_masked_allocation");
    let mut bench_one = |name: &str, policy: &mut dyn AllocationPolicy| {
        group.bench_function(name, |b| {
            b.iter(|| {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: false,
                    footprint: black_box(&footprint),
                    tracker: &tracker,
                    legal: &legal,
                };
                policy.next_offset(&req)
            })
        });
    };
    bench_one("rotation_snake_masked", &mut RotationPolicy::new(PatternSpec::Snake));
    bench_one("health_aware_masked", &mut HealthAwarePolicy::default());
    group.finish();
}

criterion_group!(
    benches,
    bench_wear_update,
    bench_fleet_campaign,
    bench_tape,
    bench_fault_masked_allocation
);
criterion_main!(benches);
