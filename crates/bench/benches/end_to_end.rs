//! Whole-system simulation throughput: one benchmark through the full
//! GPP + DBT + CGRA pipeline, and the GPP-only reference — this bounds how
//! fast the paper's experiments regenerate.

use criterion::{criterion_group, criterion_main, Criterion};

use cgra::Fabric;
use transrec::{run_gpp_only, System, SystemConfig};
use uaware::PolicySpec;

fn bench_end_to_end(c: &mut Criterion) {
    let workloads = mibench::suite(0xDAC2020);
    let crc = &workloads[1];
    let cfg = SystemConfig::new(Fabric::be());

    let mut group = c.benchmark_group("end_to_end_crc32");
    group.sample_size(20);
    group.bench_function("gpp_only", |b| {
        b.iter(|| run_gpp_only(crc.program(), cfg.mem_size, cfg.timing, cfg.max_steps).unwrap())
    });
    group.bench_function("system_baseline", |b| {
        b.iter(|| {
            let mut sys =
                System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
            sys.run(crc.program()).unwrap();
            sys.cpu().cycles()
        })
    });
    group.bench_function("system_rotation", |b| {
        b.iter(|| {
            let mut sys =
                System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::rotation()).unwrap();
            sys.run(crc.program()).unwrap();
            sys.cpu().cycles()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
