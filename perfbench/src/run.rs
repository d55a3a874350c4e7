//! The two run modes: untraced host measurement and the traced per-layer
//! run, and the report both print.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use bench::ExperimentContext;

use crate::host::{
    cpu_time, host_scale, median, peak_rss_mb, reference_pass_s, reset_peak_rss, REFERENCE_PASS_S,
};
use crate::workloads::{self, ModelMetric, Outcome, Workload, PAPER_LIFETIME_X};
use crate::{layers, setup};

/// Set-up passes before each timed repetition; `setup_s` is the fastest of
/// all of them, the estimate least moved by the host's other tenants.
const SETUP_PASSES_PER_REP: usize = 5;
/// Reference passes after each timed repetition: a repetition is scaled
/// by the passes on either side of it.
const REFERENCE_PASSES_PER_REP: usize = 2;
/// Set-up passes of a traced run.
const TRACED_SETUP_PASSES: usize = 9;
/// Timed repetitions an untraced run makes even when they overrun
/// `--seconds`, so `wall_s` is always a median of several.
const MIN_REPS: usize = 3;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// What one benchmark invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload runs attempted.
    pub attempted: u64,
    /// Runs that panicked, failed an oracle, did not complete, or hashed
    /// differently from the invocation's first run.
    pub failed: u64,
    /// Report hash of the first successful run.
    pub hash: Option<u64>,
    /// The workload's model metrics (from the first successful run).
    pub model: Vec<ModelMetric>,
    /// The metrics the final JSON line carries.
    pub metrics: Vec<Metric>,
    /// The traced run's metrics registry (empty for untraced runs).
    pub registry: obs::Registry,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// `true` when something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Folds one workload run in: a failure, or a hash or model metric
    /// that differs from the first run, counts as a failed operation.
    fn record(&mut self, label: &str, result: Result<Outcome, String>) {
        self.attempted += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                self.failed += 1;
                self.lines.push(format!("FAILED {label}: {e}"));
                return;
            }
        };
        if let Some(e) = check_model(&outcome.model) {
            self.failed += 1;
            self.lines.push(format!("FAILED {label}: {e}"));
        }
        match self.hash {
            None => {
                self.hash = Some(outcome.hash);
                self.model = outcome.model;
            }
            Some(first) if first != outcome.hash || self.model != outcome.model => {
                self.failed += 1;
                self.lines.push(format!(
                    "FAILED {label}: report hash {:016x} differs from the first run's {first:016x}",
                    outcome.hash
                ));
            }
            Some(_) => {}
        }
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        // Metric names and units are fixed ASCII identifiers; a value that
        // is not finite has no JSON form and makes the run incorrect.
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A model metric outside its domain (a non-finite or negative value)
/// means the simulation went wrong.
fn check_model(model: &[ModelMetric]) -> Option<String> {
    model
        .iter()
        .find(|m| !m.value.is_finite() || (m.name != "perf_overhead_pct" && m.value < 0.0))
        .map(|m| format!("model metric {} = {} is out of range", m.name, m.value))
}

/// The experiment context of one benchmark run: the defaults `bench --bin
/// all` uses, with the workload seed and worker count applied.
pub fn context(seed: u64, jobs: usize) -> ExperimentContext {
    ExperimentContext { seed, jobs, ..ExperimentContext::default() }
}

/// One timed workload run: its result, wall and CPU seconds. A panic (an
/// oracle assertion inside an experiment) becomes an error.
fn timed_run(
    workload: Workload,
    ctx: &ExperimentContext,
    scratch: &Path,
) -> (Result<Outcome, String>, f64, f64) {
    let (t, c) = (Instant::now(), cpu_time());
    let result = catch_unwind(AssertUnwindSafe(|| workloads::run(workload, ctx, scratch)))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            Err(format!("panicked: {msg}"))
        });
    (result, t.elapsed().as_secs_f64(), (cpu_time() - c).as_secs_f64())
}

/// Prints each model metric, and the one paper reference check.
fn model_lines(report: &mut Report) {
    for m in &report.model {
        report.lines.push(format!("model {:<18} {:>12.6} {}", m.name, m.value, m.unit));
    }
    if let Some(m) = report.model.iter().find(|m| m.name == "lifetime_x") {
        report.lines.push(format!(
            "reference lifetime_x {:.4}x vs paper {PAPER_LIFETIME_X}x: relative error {:+.1}% \
             (the only figure checked against the paper; nothing is validated against hardware)",
            m.value,
            (m.value / PAPER_LIFETIME_X - 1.0) * 100.0
        ));
    }
}

/// Runs `workload` untraced at `jobs` workers, repeating it until
/// `seconds` are spent (at least [`MIN_REPS`] times), and reports the
/// end-to-end host metrics at the reference host speed: each repetition's
/// times, and the set-up passes just before it, are scaled by the
/// [`host_scale`] of the reference passes on either side of it.
pub fn untraced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    jobs: usize,
    scratch: &Path,
) -> Report {
    let ctx = context(seed, jobs);
    let mut report = Report::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut walls, mut cpus, mut setups, mut refs, mut peaks) =
        (Vec::new(), Vec::new(), Vec::<Vec<f64>>::new(), Vec::<Vec<f64>>::new(), Vec::new());
    // The reference passes' tables would dominate the process's peak RSS,
    // so the peak is read before them and reset after them; where the
    // reset fails, only the first repetition's peak is kept.
    let mut peak_valid = true;
    loop {
        setups.push(
            (0..SETUP_PASSES_PER_REP).map(|_| setup::measure(workload, &ctx).total_s()).collect(),
        );
        let (result, wall, cpu) = timed_run(workload, &ctx, scratch);
        report.record(&format!("rep {}", walls.len()), result);
        walls.push(wall);
        cpus.push(cpu);
        if peak_valid {
            peaks.push(peak_rss_mb());
        }
        refs.push((0..REFERENCE_PASSES_PER_REP).map(|_| reference_pass_s()).collect());
        peak_valid = reset_peak_rss().is_ok();
        let spent = start.elapsed() + Duration::from_secs_f64(wall);
        if walls.len() >= MIN_REPS && spent > budget {
            break;
        }
    }
    // Repetition i ran between the reference passes after repetitions i - 1
    // and i.
    let scales: Vec<f64> =
        (0..walls.len()).map(|i| host_scale(&refs[i.saturating_sub(1)..=i].concat())).collect();
    let scaled = |v: &[f64]| v.iter().zip(&scales).map(|(x, s)| x * s).collect::<Vec<f64>>();
    let setup_s = setups
        .iter()
        .zip(&scales)
        .flat_map(|(passes, s)| passes.iter().map(move |x| x * s))
        .fold(f64::INFINITY, f64::min);
    report.metrics = vec![
        Metric::new("wall_s", "s", median(&scaled(&walls))),
        Metric::new("cpu_s", "s", median(&scaled(&cpus))),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peaks.iter().copied().fold(0.0, f64::max)),
    ];
    let (setups, refs) = (setups.concat(), refs.concat());
    report.lines.push(format!(
        "workload {workload} seed {seed:#x} jobs {jobs}: {} reps, {} set-up passes",
        walls.len(),
        setups.len()
    ));
    report.lines.push(format!(
        "host speed: reference pass median {:.3} ms over {} passes (reference {:.1} ms)",
        median(&refs) * 1e3,
        refs.len(),
        REFERENCE_PASS_S * 1e3
    ));
    report.lines.push(format!(
        "measured: wall median {:.4} s, cpu median {:.4} s, set-up best {:.4} ms",
        median(&walls),
        median(&cpus),
        setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3
    ));
    let ms = |v: &[f64]| v.iter().map(|x| format!("{:.3}", x * 1e3)).collect::<Vec<_>>().join(" ");
    report.lines.push(format!("rep wall_ms {}", ms(&walls)));
    report.lines.push(format!("rep cpu_ms {}", ms(&cpus)));
    let list = scales.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    report.lines.push(format!("rep scale {list}"));
    report.lines.push(format!("pass setup_ms {}", ms(&setups)));
    report.lines.push(format!("pass reference_ms {}", ms(&refs)));
    model_lines(&mut report);
    if let Some(hash) = report.hash {
        report.lines.push(format!("report hash {hash:016x}"));
    }
    report
}

/// The traced run: the workload untraced at `--jobs 2` and `--jobs 1`,
/// then at `--jobs 1` with the span profiler and the metrics registry on,
/// then the per-layer probes on the workload's own inputs. All three
/// workload runs must hash the same.
pub fn traced(workload: Workload, seed: u64, scratch: &Path) -> Report {
    let mut report = Report::default();
    let ctx2 = context(seed, 2);
    let ctx1 = context(seed, 1);
    let setups: Vec<setup::SetupTimes> =
        (0..TRACED_SETUP_PASSES).map(|_| setup::measure(workload, &ctx1)).collect();

    let (result, wall2, _) = timed_run(workload, &ctx2, scratch);
    report.record("untraced --jobs 2", result);
    let (result, wall1, _) = timed_run(workload, &ctx1, scratch);
    report.record("untraced --jobs 1", result);

    let traced_ctx = ExperimentContext { collect_metrics: true, ..ctx1.clone() };
    obs::global::reset();
    let profiler = obs::Profiler::new();
    let (result, traced_wall, _) =
        tracing::with_default(profiler.dispatch(), || timed_run(workload, &traced_ctx, scratch));
    report.record("traced --jobs 1", result);
    report.registry = obs::global::snapshot();

    let walls = layers::Walls { jobs2: wall2, jobs1: wall1, traced: traced_wall };
    let probed = catch_unwind(AssertUnwindSafe(|| {
        layers::measure(
            workload,
            &ctx1,
            &report.model,
            &report.registry,
            &profiler.report(),
            walls,
            &setups,
        )
    }))
    .unwrap_or_else(|_| Err("a layer probe panicked".to_string()));
    report.attempted += 1;
    let table = match probed {
        Ok((metrics, table)) => {
            report.metrics = metrics;
            table
        }
        Err(e) => {
            report.failed += 1;
            vec![format!("FAILED layer probes: {e}")]
        }
    };
    report.lines.push(format!(
        "workload {workload} seed {seed:#x}: untraced --jobs 2 {wall2:.3} s, \
         --jobs 1 {wall1:.3} s, traced --jobs 1 {traced_wall:.3} s"
    ));
    model_lines(&mut report);
    if let Some(hash) = report.hash {
        report.lines.push(format!("report hash {hash:016x}"));
    }
    report.lines.extend(table);
    report
}
