//! Cost of the exact-mapping oracle (DESIGN.md §15): a single-slot
//! re-solve per decision (what `exact` pays on every allocation), the
//! oracle's repeated decision for one footprint on a balanced 4×8 fabric
//! (the gap sweep's steady state), its decisions for six footprints taking
//! turns there (the sweep's refill pattern), a joint multi-slot epoch
//! solve, and the branch-and-bound search on a cold epoch the greedy
//! incumbent cannot close.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cgra::Fabric;
use solve::OffsetProblem;
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
    group.bench_function("policy_decision_exact_4x8_repeat", |b| {
        // The gap sweep's steady state: the same footprint again and again
        // on a 4×8 fabric whose stress the oracle itself has balanced to a
        // narrow spread, so the problem is reloaded, not rebuilt, and many
        // pivots tie on their hottest touched FU.
        let wide = Fabric::new(4, 8);
        let mut warm = UtilizationTracker::new(&wide);
        let legal = LegalPivots::new(&wide, &footprint, &[], None);
        let mut policy = ExactPolicy::new(1);
        let mut decide = |tracker: &UtilizationTracker| {
            let req = AllocRequest {
                fabric: &wide,
                config_switch: false,
                footprint: black_box(&footprint),
                tracker,
                legal: &legal,
            };
            policy.next_offset(&req)
        };
        for _ in 0..200 {
            let off = decide(&warm).expect("a pristine fabric always allocates");
            let cells: Vec<(u32, u32)> =
                footprint.iter().map(|&(r, c)| off.apply(&wide, r, c)).collect();
            warm.record_execution(&cells, 6);
        }
        b.iter(|| decide(&warm))
    });
    group.bench_function("policy_decision_exact_4x8_footprints_in_turn", |b| {
        // The gap sweep's refill pattern: a session's configurations take
        // turns, so consecutive decisions rarely share a footprint. Six
        // footprints decided in turn on a 4×8 fabric the oracle has
        // balanced; one iteration is one decision.
        let wide = Fabric::new(4, 8);
        let mut warm = UtilizationTracker::new(&wide);
        let footprints: Vec<(Vec<(u32, u32)>, LegalPivots)> = (0..6u32)
            .map(|k| {
                let cells: Vec<(u32, u32)> =
                    (0..3 + k).map(|i| ((i * (k + 1)) % 4, (i + k) % 8)).collect();
                let legal = LegalPivots::new(&wide, &cells, &[], None);
                (cells, legal)
            })
            .collect();
        let mut policy = ExactPolicy::new(1);
        let mut decide = |tracker: &UtilizationTracker, turn: usize| {
            let (footprint, legal) = &footprints[turn % footprints.len()];
            let req = AllocRequest {
                fabric: &wide,
                config_switch: false,
                footprint: black_box(footprint),
                tracker,
                legal,
            };
            (policy.next_offset(&req), footprint)
        };
        for turn in 0..240 {
            let (off, footprint) = decide(&warm, turn);
            let off = off.expect("a pristine fabric always allocates");
            let cells: Vec<(u32, u32)> =
                footprint.iter().map(|&(r, c)| off.apply(&wide, r, c)).collect();
            warm.record_execution(&cells, 6);
        }
        let mut turn = 0;
        b.iter(|| {
            turn += 1;
            decide(&warm, turn).0
        })
    });
    group.bench_function("offset_epoch_greedy_gap", |b| {
        // Three L-shaped executions on a cold 3×4 fabric: greedy stacks two
        // (stress 2), the search proves three disjoint placements (1).
        let gap_fabric = Fabric::new(3, 4);
        let problem =
            OffsetProblem::new(&gap_fabric, &[(0, 0), (0, 1), (1, 1)], &[0; 12], 3, |_| true);
        b.iter(|| solve::solve(black_box(&problem)))
    });
    group.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
