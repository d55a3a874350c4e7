//! Ablation (DESIGN.md §7): movement patterns compared — snake (the
//! paper's Fig. 3b), raster, column-major, and uniform random, plus the
//! health-aware oracle as the balancing upper bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgra::Fabric;
use transrec::{System, SystemConfig};
use uaware::PolicySpec;

fn run_once(spec: &PolicySpec) -> (f64, f64) {
    let w = &mibench::suite(0xDAC2020)[1];
    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), *spec).unwrap();
    sys.run(w.program()).unwrap();
    w.verify(sys.cpu()).unwrap();
    let grid = sys.tracker().utilization();
    (grid.max(), grid.cov())
}

fn bench_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_patterns");
    group.sample_size(10);
    let entries: Vec<PolicySpec> =
        ["rotation:snake", "rotation:raster", "rotation:column-major", "random:17", "health-aware"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
    for spec in &entries {
        let name = spec.to_string();
        let (worst, cov) = run_once(spec);
        eprintln!("[ablation_patterns] {name}: worst-FU {:.1}%, CoV {:.3}", 100.0 * worst, cov);
        group.bench_with_input(BenchmarkId::from_parameter(&name), spec, |b, spec| {
            b.iter(|| run_once(spec))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_patterns);
criterion_main!(benches);
