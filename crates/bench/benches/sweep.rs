//! Sweep-engine throughput: the same 8-cell policy × fabric plan at one
//! worker vs four. Cells are independent full-system simulations, so the
//! 4-worker run should approach 4× and must clear the 1.5× acceptance bar
//! on any ≥4-core machine — with byte-identical results either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgra::Fabric;
use transrec::{run_sweep, SuiteSpec, SweepPlan};
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
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
