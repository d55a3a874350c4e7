//! The four benchmark workloads, driven through the `bench` experiment
//! functions and `transrec::run_sweep` exactly as `bench --bin all` drives
//! them, plus the model metrics each one guards.

use std::fmt;
use std::path::Path;

use bench::{
    fig1, fig6, fig7, fig8, fig_lifetime_campaign, fleet_serve_campaign, gap, layout, table1,
    ExperimentContext,
};
use cgra::Fabric;
use transrec::fleet::{CampaignOptions, CampaignStatus};
use transrec::traffic::{ServeStatus, TrafficSpec};
use transrec::{run_sweep, run_sweep_observed, SweepPlan};
use uaware::PolicySpec;

/// Devices per policy in the `serving` workload.
pub const SERVE_DEVICES: usize = 100_000;
/// Serving horizon of the `serving` workload, in days.
pub const SERVE_DAYS: u64 = 30;
/// Devices per policy in the `fleet` workload.
pub const FLEET_DEVICES: usize = 1_000_000;
/// Workload lanes of the `fleet` workload.
pub const FLEET_LANES: usize = 8;
/// Shards per checkpoint wave of the `fleet` workload.
pub const FLEET_CHECKPOINT_EVERY: usize = 4;
/// The paper's headline lifetime gain (Table I, BE, snake rotation).
pub const PAPER_LIFETIME_X: f64 = 2.2;

/// One named benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `fig1`, `fig6`, `fig7`, `fig8` and `table1` on pristine uniform
    /// fabrics: the session loop with cheap allocation and no solver.
    Paper,
    /// `layout` and `gap`: heterogeneous, bandwidth-budgeted and faulted
    /// fabrics with the exact oracle beside the heuristics.
    Constrained,
    /// `fleet_serve` at 100,000 devices over 30 days.
    Serving,
    /// `fig_lifetime_campaign` at 1,000,000 devices over 8 lanes, with
    /// checkpoints.
    Fleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Paper, Workload::Constrained, Workload::Serving, Workload::Fleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Constrained => "constrained",
            Workload::Serving => "serving",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `run_sweep` calls one run of the workload makes (each computes one
    /// GPP-only reference block per suite lane).
    pub fn sweeps(self) -> u32 {
        match self {
            Workload::Paper => 6,
            Workload::Constrained => 2,
            Workload::Serving | Workload::Fleet => 0,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic model output: it must repeat exactly for one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What one run of a workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// FNV-1a hash of the pretty-printed report JSON, the bytes
    /// `bench --bin all` writes into `results/`.
    pub hash: u64,
    /// The workload's model metrics.
    pub model: Vec<ModelMetric>,
}

/// 64-bit FNV-1a over the concatenated report JSON.
#[derive(Clone, Debug)]
struct ReportHasher(u64);

impl ReportHasher {
    fn new() -> ReportHasher {
        ReportHasher(0xcbf2_9ce4_8422_2325)
    }

    fn add<T: serde::Serialize>(&mut self, report: &T) {
        let json = serde_json::to_string_pretty(report).expect("reports serialize");
        for byte in json.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs one workload under `ctx` (seed, `--jobs`, metrics collection).
/// `scratch` is a directory the `fleet` workload may write checkpoints to.
///
/// # Errors
///
/// A failed oracle, a campaign that did not complete, or a model metric
/// that cannot be read from the reports.
pub fn run(workload: Workload, ctx: &ExperimentContext, scratch: &Path) -> Result<Outcome, String> {
    let mut hasher = ReportHasher::new();
    let model = match workload {
        Workload::Paper => paper(ctx, &mut hasher)?,
        Workload::Constrained => constrained(ctx, &mut hasher)?,
        Workload::Serving => serving(ctx, &mut hasher)?,
        Workload::Fleet => fleet(ctx, &mut hasher, scratch)?,
    };
    Ok(Outcome { hash: hasher.0, model })
}

fn paper(ctx: &ExperimentContext, hasher: &mut ReportHasher) -> Result<Vec<ModelMetric>, String> {
    let phase = |name: &'static str| tracing::span!(tracing::Level::INFO, name).entered();
    {
        let _p = phase("bench.fig1");
        hasher.add(&fig1(ctx));
    }
    {
        let _p = phase("bench.fig6");
        let f6 = fig6(ctx);
        if !f6.points.iter().all(|p| p.verified) {
            return Err("fig6: an oracle failed".into());
        }
        hasher.add(&f6);
    }
    {
        let _p = phase("bench.fig7");
        hasher.add(&fig7(ctx));
    }
    {
        let _p = phase("bench.fig8");
        hasher.add(&fig8(ctx));
    }
    let t1 = {
        let _p = phase("bench.table1");
        table1(ctx)
    };
    hasher.add(&t1);
    // Suite cycles are not part of any paper report, so one extra BE sweep
    // (baseline + the paper's rotation) yields the performance overhead and
    // the simulated speedup.
    let runs = {
        let _p = phase("bench.be_sweep");
        let plan = SweepPlan::new(ctx.seed)
            .energy(ctx.energy)
            .fabric(Fabric::be())
            .policies([PolicySpec::Baseline, PolicySpec::rotation()]);
        let runs = if ctx.collect_metrics {
            run_sweep_observed(&plan, ctx.jobs).map(|r| r.0)
        } else {
            run_sweep(&plan, ctx.jobs)
        };
        runs.map_err(|e| format!("BE sweep: {e}"))?
    };
    if !runs.iter().all(|r| r.all_verified()) {
        return Err("BE sweep: an oracle failed".into());
    }
    hasher.add(&runs);
    let rotation = PolicySpec::rotation().to_string();
    let lifetime_x = t1
        .rows
        .iter()
        .find(|r| r.scenario == "BE" && r.policy == rotation)
        .map(|r| r.lifetime_improvement)
        .ok_or("table1 has no BE rotation row")?;
    let cycles = |i: usize| runs[i].benchmarks.iter().map(|b| b.system_cycles).sum::<u64>() as f64;
    Ok(vec![
        ModelMetric { name: "lifetime_x", unit: "x", value: lifetime_x },
        ModelMetric {
            name: "perf_overhead_pct",
            unit: "%",
            value: (cycles(1) / cycles(0) - 1.0) * 100.0,
        },
        ModelMetric { name: "sim_speedup", unit: "x", value: runs[0].speedup() },
    ])
}

fn constrained(
    ctx: &ExperimentContext,
    hasher: &mut ReportHasher,
) -> Result<Vec<ModelMetric>, String> {
    {
        let _p = tracing::span!(tracing::Level::INFO, "bench.layout").entered();
        let report = layout(ctx);
        if !report.rows.iter().all(|r| r.verified) {
            return Err("layout: an oracle failed".into());
        }
        hasher.add(&report);
    }
    let report = {
        let _p = tracing::span!(tracing::Level::INFO, "bench.gap").entered();
        gap(ctx)
    };
    if !report.rows.iter().all(|r| r.verified) {
        return Err("gap: an oracle failed".into());
    }
    hasher.add(&report);
    let exact: Vec<f64> = report
        .rows
        .iter()
        .filter(|r| r.policy == report.exact_policy)
        .map(|r| r.worst_utilization)
        .collect();
    if exact.is_empty() {
        return Err("gap has no exact rows".into());
    }
    let oracle_duty = exact.iter().sum::<f64>() / exact.len() as f64;
    Ok(vec![ModelMetric { name: "oracle_duty", unit: "fraction", value: oracle_duty }])
}

fn serving(ctx: &ExperimentContext, hasher: &mut ReportHasher) -> Result<Vec<ModelMetric>, String> {
    let options =
        CampaignOptions { collect_metrics: ctx.collect_metrics, ..CampaignOptions::default() };
    let status = {
        let _p = tracing::span!(tracing::Level::INFO, "bench.serving").entered();
        fleet_serve_campaign(
            ctx,
            SERVE_DEVICES,
            bench::default_serve_lanes(SERVE_DEVICES),
            SERVE_DAYS,
            None,
            None,
            &options,
        )
    };
    let ServeStatus::Complete(report) = status else {
        return Err("serving campaign paused".into());
    };
    hasher.add(&report);
    let p99 = report
        .cell(&TrafficSpec::diurnal().to_string(), &PolicySpec::rotation().to_string())
        .map(|c| c.p99_ms)
        .ok_or("serving has no diurnal rotation cell")?;
    let shed: u64 = report.cells.iter().map(|c| c.shed).sum();
    let arrived: u64 = report.cells.iter().map(|c| c.total_requests).sum();
    if arrived == 0 {
        return Err("serving: no request arrived".into());
    }
    Ok(vec![
        ModelMetric { name: "serve_p99_ms", unit: "ms", value: p99 },
        ModelMetric { name: "shed_rate", unit: "fraction", value: shed as f64 / arrived as f64 },
    ])
}

fn fleet(
    ctx: &ExperimentContext,
    hasher: &mut ReportHasher,
    scratch: &Path,
) -> Result<Vec<ModelMetric>, String> {
    let checkpoint = scratch.join("fleet.ckpt");
    // A checkpoint left behind would make the campaign resume, not run.
    let _ = std::fs::remove_file(&checkpoint);
    let options = CampaignOptions {
        checkpoint: Some(checkpoint.clone()),
        checkpoint_every_shards: FLEET_CHECKPOINT_EVERY,
        collect_metrics: ctx.collect_metrics,
        ..CampaignOptions::default()
    };
    let status = {
        let _p = tracing::span!(tracing::Level::INFO, "bench.fleet").entered();
        fig_lifetime_campaign(ctx, FLEET_DEVICES, FLEET_LANES, None, &options)
    };
    let _ = std::fs::remove_file(&checkpoint);
    let CampaignStatus::Complete(report) = status else {
        return Err("fleet campaign paused".into());
    };
    hasher.add(&report);
    let mttf = |policy: &str| {
        report
            .policy(policy)
            .map(|p| p.stats.mttf_years)
            .ok_or_else(|| format!("fleet has no {policy} row"))
    };
    let base = mttf(&PolicySpec::Baseline.to_string())?;
    let rotation = mttf(&PolicySpec::rotation().to_string())?;
    let missions: u64 = report.policies.iter().map(|p| p.total_missions).sum();
    Ok(vec![
        ModelMetric { name: "mttf_x", unit: "x", value: rotation / base },
        ModelMetric { name: "device_missions", unit: "count", value: missions as f64 },
    ])
}
