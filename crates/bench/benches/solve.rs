//! Cost of the exact-mapping oracle (DESIGN.md §15): a single-slot
//! re-solve per decision (what `exact` pays on every allocation), a joint
//! multi-slot epoch solve, and the raw branch-and-bound core on the
//! classic makespan instance the greedy incumbent cannot close.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cgra::Fabric;
use solve::{OffsetProblem, TableProblem};
use uaware::{AllocRequest, AllocationPolicy, ExactPolicy, LegalPivots, UtilizationTracker};

fn bench_solve(c: &mut Criterion) {
    let fabric = Fabric::fig1();
    let mut tracker = UtilizationTracker::new(&fabric);
    let footprint: Vec<(u32, u32)> = (0..6u32).map(|i| (i % 2, i % 8)).collect();
    for i in 0..1000u32 {
        tracker.record_execution(&[(i % 4, i % 8)], 2);
    }

    let mut group = c.benchmark_group("exact_solve");
    group.bench_function("offset_single_slot", |b| {
        b.iter(|| {
            let problem = OffsetProblem::new(
                &fabric,
                black_box(&footprint),
                tracker.stress_counts(),
                1,
                |_| true,
            );
            solve::solve(&problem)
        })
    });
    group.bench_function("offset_epoch_of_4", |b| {
        b.iter(|| {
            let problem = OffsetProblem::new(
                &fabric,
                black_box(&footprint),
                tracker.stress_counts(),
                4,
                |_| true,
            );
            solve::solve(&problem)
        })
    });
    group.bench_function("policy_decision_exact", |b| {
        let mut policy = ExactPolicy::new(1);
        let legal = LegalPivots::new(&fabric, &footprint, &[], None);
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
    group.bench_function("makespan_5_jobs_2_machines", |b| {
        let problem = TableProblem::machines(black_box(&[3, 3, 2, 2, 2]), 2);
        b.iter(|| solve::solve(black_box(&problem)))
    });
    group.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
