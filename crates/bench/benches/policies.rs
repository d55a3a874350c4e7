//! Per-decision cost of each allocation policy — the "lightweight yet
//! effective" argument of paper §III quantified: the rotation policy is a
//! counter plus index math, while the health-aware oracle scores every legal
//! pivot from a padded copy of the stress counts until one is free.
//!
//! Each group builds the configuration's [`LegalPivots`] once, outside the
//! timed loop, exactly as `transrec::System` does at insertion.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cgra::op::{MulFunc, OpKind};
use cgra::{CellClass, ClassMap, Fabric, FabricSpec, FaultMask};
use uaware::{
    AllocRequest, AllocationPolicy, BaselinePolicy, ExactPolicy, HealthAwarePolicy, LegalPivots,
    PatternSpec, RandomPolicy, RotationPolicy, UtilizationTracker,
};

fn bench_policies(c: &mut Criterion) {
    let fabric = Fabric::bu(); // worst case for the oracle scan
    let mut tracker = UtilizationTracker::new(&fabric);
    let footprint: Vec<(u32, u32)> = (0..16u32).map(|i| (i % 8, i)).collect();
    for i in 0..1000u32 {
        tracker.record_execution(&[(i % 8, i % 32)], 4);
    }
    let legal = LegalPivots::new(&fabric, &footprint, &[], None);

    let mut group = c.benchmark_group("policy_decision");
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
    bench_one("baseline", &mut BaselinePolicy);
    bench_one("rotation_snake", &mut RotationPolicy::new(PatternSpec::Snake));
    bench_one("random", &mut RandomPolicy::seeded(3));
    bench_one("health_aware_oracle", &mut HealthAwarePolicy::default());
    // The oracle above stops at a zero-stress pivot; on a worn tracker no
    // pivot is free, so every decision scans them all.
    for (name, fabric) in
        [("health_aware_worn_be", Fabric::be()), ("health_aware_worn_bu", Fabric::bu())]
    {
        let footprint: Vec<(u32, u32)> = (0..16u32).map(|i| (i % fabric.rows, i)).collect();
        let tracker = worn(&fabric, &footprint);
        let legal = LegalPivots::new(&fabric, &footprint, &[], None);
        let mut policy = HealthAwarePolicy::default();
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
    }
    group.finish();
}

/// A tracker worn by health-aware allocation itself: 1,000 decisions in a
/// closed loop, each pick recorded, leave every FU used at least once.
fn worn(fabric: &Fabric, footprint: &[(u32, u32)]) -> UtilizationTracker {
    let mut tracker = UtilizationTracker::new(fabric);
    let legal = LegalPivots::new(fabric, footprint, &[], None);
    let mut policy = HealthAwarePolicy::default();
    for _ in 0..1000 {
        let req = AllocRequest {
            fabric,
            config_switch: false,
            footprint,
            tracker: &tracker,
            legal: &legal,
        };
        let o = policy.next_offset(&req).unwrap();
        let placed: Vec<(u32, u32)> =
            footprint.iter().map(|&(r, c)| o.apply(fabric, r, c)).collect();
        tracker.record_execution(&placed, 1);
    }
    assert!(tracker.exec_counts().iter().all(|&n| n > 0), "a free FU is left");
    tracker
}

/// Per-decision cost on a heterogeneous fabric (DESIGN.md §14): the class
/// checker halves the capable anchors, so every policy draws from or scans
/// the legal-pivot table instead of the whole fabric.
fn bench_policies_heterogeneous(c: &mut Criterion) {
    let mut fabric = Fabric::bu();
    fabric.classes = ClassMap::Checker;
    assert!(!fabric.is_uniform());
    assert_eq!(fabric.class_of(0, 0), CellClass::Full);
    let mut tracker = UtilizationTracker::new(&fabric);
    let footprint: Vec<(u32, u32)> = (0..16u32).map(|i| (i % 8, i)).collect();
    let demands = [(0u32, 0u32, OpKind::Mul(MulFunc::Mul))];
    for i in 0..1000u32 {
        tracker.record_execution(&[(i % 8, i % 32)], 4);
    }
    let legal = LegalPivots::new(&fabric, &footprint, &demands, None);

    let mut group = c.benchmark_group("policy_decision_het");
    let mut bench_one = |name: &str, policy: &mut dyn AllocationPolicy| {
        group.bench_function(name, |b| {
            b.iter(|| {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: false,
                    footprint: black_box(&footprint),
                    tracker: &tracker,
                    legal: black_box(&legal),
                };
                policy.next_offset(&req)
            })
        });
    };
    bench_one("baseline_het_checker", &mut BaselinePolicy);
    bench_one("rotation_snake_het_checker", &mut RotationPolicy::new(PatternSpec::Snake));
    bench_one("random_het_checker", &mut RandomPolicy::seeded(3));
    bench_one("health_aware_het_checker", &mut HealthAwarePolicy::default());
    group.finish();
}

/// Per-decision cost on a faulted, bandwidth-budgeted `gap` cell
/// (`4x8+bw-2`, 4 of 32 FUs dead — the 12.5% density): every policy,
/// the exact oracle included, routes a multi-cell footprint around the
/// dead FUs through the legal-pivot table.
fn bench_policies_faulted(c: &mut Criterion) {
    let fabric = "4x8+bw-2".parse::<FabricSpec>().unwrap().build().unwrap();
    let mut mask = FaultMask::healthy(&fabric);
    for (r, c) in [(0, 3), (1, 6), (2, 1), (3, 4)] {
        mask.mark_dead(r, c);
    }
    let footprint = [(0u32, 0u32), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)];
    let mut tracker = UtilizationTracker::new(&fabric);
    for i in 0..1000u32 {
        tracker.record_execution(&[(i % 4, i % 8)], 3);
    }
    let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
    assert!(legal.count().is_some_and(|n| n > 0 && n < 32));

    let mut group = c.benchmark_group("policy_decision_faulted");
    let mut bench_one = |name: &str, policy: &mut dyn AllocationPolicy| {
        group.bench_function(name, |b| {
            b.iter(|| {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: false,
                    footprint: black_box(&footprint),
                    tracker: &tracker,
                    legal: black_box(&legal),
                };
                policy.next_offset(&req)
            })
        });
    };
    bench_one("baseline_faulted", &mut BaselinePolicy);
    bench_one("rotation_snake_faulted", &mut RotationPolicy::new(PatternSpec::Snake));
    bench_one("random_faulted", &mut RandomPolicy::seeded(3));
    bench_one("health_aware_faulted", &mut HealthAwarePolicy::default());
    bench_one("exact_faulted", &mut ExactPolicy::default());
    group.finish();
}

criterion_group!(benches, bench_policies, bench_policies_heterogeneous, bench_policies_faulted);
criterion_main!(benches);
