//! The benchmark's own checks, at a one-second run length: every metric
//! `BENCHMARK.json` names is emitted with its unit, model metrics and
//! report hashes repeat across runs and across `--jobs 1`/`--jobs 2`, and
//! the traced run's registry equals an untraced collected run's.
//!
//! Each test runs whole workloads, and the traced run folds into the
//! process-global `obs` registry, so the tests take one lock and run one at
//! a time.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::run::context;
use perfbench::{traced, untraced, workloads, Report, Workload, DEFAULT_SEED};
use serde_json::Value;

static SERIAL: Mutex<()> = Mutex::new(());

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn declared(key: &str) -> Vec<(String, String)> {
    spec()
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

/// The final line parses as JSON and carries exactly the emitted metrics.
fn check_json_line(report: &Report) {
    let line: Value = serde_json::from_str(&report.json_line()).expect("the JSON line parses");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = line.get("metrics").and_then(Value::as_object).expect("metrics object");
    assert_eq!(metrics.len(), report.metrics.len());
    for (m, (name, value)) in report.metrics.iter().zip(metrics) {
        assert_eq!(&m.name, name);
        assert_eq!(value.get("value").and_then(Value::as_f64), Some(m.value), "{name}");
        assert_eq!(value.get("unit").and_then(Value::as_str), Some(m.unit), "{name}");
    }
}

fn check(workload: Workload) {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{workload}"));
    std::fs::create_dir_all(&scratch).unwrap();

    let jobs2 = untraced(workload, DEFAULT_SEED, 1, 2, &scratch);
    let jobs1 = untraced(workload, DEFAULT_SEED, 1, 1, &scratch);
    for report in [&jobs2, &jobs1] {
        assert!(report.correct(), "{workload}: {:?}", report.lines);
        assert_eq!(emitted(report), declared("end_to_end"), "{workload}: end-to-end metrics");
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{workload}: no metric reads 0");
        check_json_line(report);
    }
    assert!(!jobs2.model.is_empty(), "{workload} reports model metrics");
    assert_eq!(jobs2.hash, jobs1.hash, "{workload}: report hash across --jobs");
    assert_eq!(jobs2.model, jobs1.model, "{workload}: model metrics across --jobs");

    let trace = traced(workload, DEFAULT_SEED, &scratch);
    assert!(trace.correct(), "{workload}: {:?}", trace.lines);
    assert_eq!(emitted(&trace), declared("per_layer"), "{workload}: per-layer metrics");
    check_json_line(&trace);
    assert_eq!(trace.hash, jobs2.hash, "{workload}: traced report hash");
    assert_eq!(trace.model, jobs2.model, "{workload}: traced model metrics");

    // The traced run collected at --jobs 1; an untraced collected run at
    // --jobs 2 must fold to the identical registry.
    let collected_ctx =
        bench::ExperimentContext { collect_metrics: true, ..context(DEFAULT_SEED, 2) };
    obs::global::reset();
    let outcome = workloads::run(workload, &collected_ctx, &scratch).expect("collected run");
    assert_eq!(Some(outcome.hash), jobs2.hash, "{workload}: collected report hash");
    assert!(!trace.registry.is_empty(), "{workload}: the traced run collected counters");
    assert_eq!(obs::global::snapshot(), trace.registry, "{workload}: registry traced vs untraced");
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn paper_contract() {
    check(Workload::Paper);
}

#[test]
fn constrained_contract() {
    check(Workload::Constrained);
}

#[test]
fn serving_contract() {
    check(Workload::Serving);
}

#[test]
fn fleet_contract() {
    check(Workload::Fleet);
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = spec()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
    for name in &names {
        assert_eq!(Workload::parse(name).map(Workload::name), Some(name.as_str()));
    }
    assert_eq!(Workload::parse("nope"), None);
}
