//! Ablation (DESIGN.md §4.4): how the movement granularity trades balancing
//! quality against rotation overhead. Reported as simulated worst-FU
//! utilization via a custom Criterion measurement of the run, plus wall
//! time of the simulation itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgra::Fabric;
use transrec::{System, SystemConfig};
use uaware::{AllocationPolicy, MovementGranularity, PatternSpec, RotationPolicy};

fn run_once(granularity: MovementGranularity) -> (f64, u64) {
    let w = &mibench::suite(0xDAC2020)[1]; // crc32
    let policy: Box<dyn AllocationPolicy> =
        Box::new(RotationPolicy::with_granularity(PatternSpec::Snake, granularity));
    let mut sys = System::new(SystemConfig::new(Fabric::be()), policy);
    sys.run(w.program()).unwrap();
    w.verify(sys.cpu()).unwrap();
    (sys.tracker().utilization().max(), sys.cpu().cycles())
}

fn bench_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_granularity");
    group.sample_size(10);
    for (name, g) in [
        ("per_execution", MovementGranularity::PerExecution),
        ("periodic_8", MovementGranularity::Periodic(8)),
        ("periodic_64", MovementGranularity::Periodic(64)),
        ("per_load", MovementGranularity::PerLoad),
    ] {
        // Print the quality metrics once per configuration so the ablation
        // result appears alongside the timing.
        let (worst, cycles) = run_once(g);
        eprintln!("[ablation_granularity] {name}: worst-FU {:.1}%, {cycles} cycles", 100.0 * worst);
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| run_once(*g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);
