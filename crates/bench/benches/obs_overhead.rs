//! Flight-recorder overhead (DESIGN.md §16): the same crc32 system run
//! outside any collection (the shipping default — every span site
//! collapses to one relaxed atomic load, and a session call takes no
//! tally) and inside `obs::collect`, plus `obs::publish` outside any
//! collection in isolation.
//! The untraced/collected pair pins the acceptance bound: the disabled
//! recorder must stay within noise (<2%) of the uninstrumented trajectory
//! the committed baseline records.

use criterion::{criterion_group, criterion_main, Criterion};

use cgra::Fabric;
use transrec::{System, SystemConfig};
use uaware::PolicySpec;

fn run_crc(program: &rv32::Program) -> u64 {
    let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
    sys.run(program).unwrap();
    sys.cpu().cycles()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let workloads = mibench::suite(0xDAC2020);
    let crc = &workloads[1];

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    group.bench_function("crc32_run_untraced", |b| b.iter(|| run_crc(crc.program())));
    group.bench_function("crc32_run_collected", |b| {
        b.iter(|| {
            let (cycles, registry) = obs::collect(|| run_crc(crc.program()));
            assert!(!registry.is_empty(), "the collector must see the run");
            cycles
        })
    });
    // The disabled path in isolation: 1,000 publish calls outside any
    // collection, each a thread-local check whose closure never runs.
    group.bench_function("disabled_record", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                obs::publish(|reg| reg.counter_add("bench.noop", 1));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
