//! Flight-recorder overhead (DESIGN.md §16): the same crc32 system run
//! with tracing disabled (the shipping default — every instrumentation
//! site collapses to one relaxed atomic load) and with a metrics
//! collector attached, plus the disabled `event!` check in isolation.
//! The untraced/collected pair pins the acceptance bound: the disabled
//! recorder must stay within noise (<2%) of the uninstrumented trajectory
//! the committed baseline records.

use criterion::{criterion_group, criterion_main, Criterion};

use cgra::Fabric;
use tracing::{event, Level};
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
    // The disabled fast path in isolation: one relaxed atomic load and a
    // branch — the cost every `event!` site pays when nobody listens.
    group.bench_function("disabled_event", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                event!(Level::TRACE, "bench.noop", "add" = 1);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
