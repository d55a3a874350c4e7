//! One live-serving device-day (DESIGN.md §13) through the public
//! `probe_service_day`: measure the pristine fabric's service costs,
//! generate lane 0's diurnal arrival stream for day 0, and run the queue
//! with utilization-aware backpressure over it. `probe_day_unobserved` is
//! the campaign's path (no observers, so no day tracker);
//! `probe_day_baseline_unobserved` is the same day under the baseline
//! policy, whose hot fabric makes backpressure fold the day's per-FU
//! counts and defer requests to the GPP; `probe_day_queue_depth` attaches
//! a queue-depth probe, which also builds the day tracker observers read.
//! `lane_task_2_traffic_5_policies`
//! is one campaign phase-1 task through the public `run_serving`: one
//! device on one lane, so one task serves the diurnal and heavy profiles
//! under the experiments' five-policy series from one tape store.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cgra::Fabric;
use transrec::telemetry::ProbeSpec;
use transrec::traffic::{probe_service_day, run_serving, ServePlan, TrafficSpec};
use uaware::PolicySpec;

fn bench_serving_day(c: &mut Criterion) {
    let plan = ServePlan::new(0xDAC2020, Fabric::be());
    let policy = PolicySpec::rotation();
    let traffic = TrafficSpec::diurnal();
    let queue_depth: ProbeSpec = "queue-depth@every-1000000".parse().expect("valid probe spec");

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("probe_day_unobserved", |b| {
        b.iter(|| {
            let (day, _) = probe_service_day(&plan, &policy, &traffic, 0, 0, &[]).unwrap();
            black_box(day.served_cgra)
        })
    });
    group.bench_function("probe_day_baseline_unobserved", |b| {
        b.iter(|| {
            let (day, _) =
                probe_service_day(&plan, &PolicySpec::Baseline, &traffic, 0, 0, &[]).unwrap();
            black_box(day.served_gpp)
        })
    });
    group.bench_function("probe_day_queue_depth", |b| {
        b.iter(|| {
            let probes = std::slice::from_ref(&queue_depth);
            let (day, reports) = probe_service_day(&plan, &policy, &traffic, 0, 0, probes).unwrap();
            black_box((day.served_cgra, reports.len()))
        })
    });
    let series = ["baseline", "rotation", "rotation:snake@per-load", "random", "health-aware"];
    let lane = ServePlan::new(0xDAC2020, Fabric::be())
        .policies(series.iter().map(|s| s.parse::<PolicySpec>().expect("spec")))
        .traffic_mix([TrafficSpec::diurnal(), TrafficSpec::heavy()])
        .devices(1)
        .lanes(1)
        .horizon_days(3);
    group.bench_function("lane_task_2_traffic_5_policies", |b| {
        b.iter(|| black_box(run_serving(&lane, 1).unwrap().cells.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_serving_day);
criterion_main!(benches);
