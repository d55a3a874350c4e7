//! Sweep-engine throughput, with byte-identical results at every worker
//! count. `sweep/jobs/{1,4}`: an 8-cell policy × fabric plan at one worker
//! vs four. The plan runs as 4 tasks, one per (fabric, workload), each
//! recording the workload's offload tape under its first policy and
//! replaying it for the other three (DESIGN.md §9, §17), so four workers
//! can take at most 4 tasks at once. `sweep/gap_cell_6_policies`: one
//! `gap` cell, the six `gap` policies (the `exact` oracle among them) on a
//! faulted heterogeneous fabric that degrades to the GPP, where the
//! baseline's tapes starve and the mobile policies fall back and record
//! again, at one worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgra::{Fabric, FabricSpec, FaultMask};
use transrec::{run_sweep, SuiteSpec, SweepPlan, SystemConfig};
use uaware::PolicySpec;

/// 2 fabrics × 4 policies on one two-benchmark suite = 8 cells.
fn mini_plan() -> SweepPlan {
    SweepPlan::new(0xDAC2020)
        .fabric(Fabric::be())
        .fabric(Fabric::bp())
        .policies([
            PolicySpec::Baseline,
            PolicySpec::rotation(),
            PolicySpec::Random { seed: uaware::DEFAULT_RANDOM_SEED },
            PolicySpec::HealthAware,
        ])
        .suite(SuiteSpec::subset("mini", vec![0, 1])) // bitcount, crc32
}

/// `4x8:het-checker` with 4 of its 32 FUs (12.5%) dead and the GPP
/// fallback on, under the `gap` policies, on crc32 + dijkstra.
fn gap_cell_plan() -> SweepPlan {
    let fabric = "4x8:het-checker".parse::<FabricSpec>().unwrap().build().unwrap();
    let mut mask = FaultMask::healthy(&fabric);
    for (row, col) in [(0, 0), (1, 3), (2, 5), (3, 6)] {
        mask.mark_dead(row, col);
    }
    let mut config = SystemConfig::new(fabric);
    config.faults = Some(mask);
    config.fault_fallback = true;
    let policies =
        ["baseline", "rotation", "rotation:snake@per-load", "random", "health-aware", "exact"];
    SweepPlan::new(0xDAC2020)
        .config(config)
        .policies(policies.iter().map(|p| p.parse::<PolicySpec>().unwrap()))
        .suite(SuiteSpec::subset("gap", vec![1, 2])) // crc32, dijkstra
}

fn bench_sweep(c: &mut Criterion) {
    let plan = mini_plan();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for jobs in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let runs = run_sweep(&plan, jobs).expect("sweep runs");
                assert_eq!(runs.len(), 8);
                runs.len()
            })
        });
    }
    let plan = gap_cell_plan();
    group.bench_function("gap_cell_6_policies", |b| {
        b.iter(|| {
            let runs = run_sweep(&plan, 1).expect("sweep runs");
            assert!(runs.iter().all(|r| r.all_verified()));
            runs.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
