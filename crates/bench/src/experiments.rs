//! The experiment implementations.
//!
//! Every runner is driven by [`PolicySpec`] values: the baseline is always
//! the reference, and [`ExperimentContext::policies`] is the list of
//! non-baseline series the ablation figures iterate. Adding a scenario to a
//! figure means adding a spec to that list (or passing `--policy` to the
//! binary) — never a new closure or flag.

use cgra::{AreaModel, Fabric, FabricSpec, FaultMask};
use mibench::Workload;
use nbti::CalibratedAging;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transrec::fleet::{
    run_fleet_campaign, CampaignOptions, CampaignStatus, FleetPlan, DEFAULT_SHARD_DEVICES,
};
use transrec::telemetry::{settle_cycle, ProbeSpec, UtilTrace, DEFAULT_EPOCH_CYCLES};
use transrec::traffic::{run_serving_campaign, ServePlan, ServeStatus, TrafficSpec};
use transrec::{run_sweep, run_sweep_observed, EnergyParams, SuiteRun, SweepPlan, SystemConfig};
use uaware::{derive_cell_seed, MovementGranularity, PatternSpec, PolicySpec};

use crate::reports::*;

/// Shared experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Workload-input seed.
    pub seed: u64,
    /// Energy model coefficients.
    pub energy: EnergyParams,
    /// Aging model (end-of-life calibration).
    pub aging: CalibratedAging,
    /// Fig. 8 time horizon in years.
    pub horizon_years: f64,
    /// The non-baseline policy series evaluated by [`fig7`], [`fig8`] and
    /// [`table1`]; the first entry is the headline "proposed" policy.
    pub policies: Vec<PolicySpec>,
    /// Fabric-layout overrides (the repeatable `--fabric` CLI flag,
    /// DESIGN.md §14). Empty means every figure keeps its hard-coded
    /// default fabrics; non-empty replaces them — [`fig1`] and [`fig7`]
    /// use the first spec, [`fig6`], [`fig8`], [`table1`] and [`layout`]
    /// iterate them all, keyed by the canonical spec string.
    pub fabrics: Vec<FabricSpec>,
    /// Sweep worker count (`0` = all cores, `1` = sequential; the
    /// `--jobs` CLI flag). Results are byte-identical for every value.
    pub jobs: usize,
    /// Epoch length (system cycles) of the utilization-trace probe behind
    /// [`fig8`]'s in-run series (DESIGN.md §10).
    pub epoch_cycles: u64,
    /// Fold the flight recorder's counter registry into the process-global
    /// sink while sweeps and campaigns run (the `--metrics` CLI flag;
    /// DESIGN.md §16). Off by default, so that an uncollected session call
    /// skips taking and publishing its tally. Binaries that emit
    /// `results/metrics.json` snapshot [`obs::global`] after their
    /// experiments complete.
    pub collect_metrics: bool,
}

impl Default for ExperimentContext {
    fn default() -> ExperimentContext {
        ExperimentContext {
            seed: 0xDAC2020,
            energy: EnergyParams::default(),
            aging: CalibratedAging::default(),
            horizon_years: 10.0,
            policies: vec![
                PolicySpec::rotation(),
                PolicySpec::Rotation {
                    pattern: PatternSpec::Snake,
                    granularity: MovementGranularity::PerLoad,
                },
                PolicySpec::Random { seed: uaware::DEFAULT_RANDOM_SEED },
                PolicySpec::HealthAware,
            ],
            fabrics: Vec::new(),
            jobs: 0,
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
            collect_metrics: false,
        }
    }
}

impl ExperimentContext {
    /// The benchmark suite for this context's seed.
    pub fn suite(&self) -> Vec<Workload> {
        mibench::suite(self.seed)
    }

    /// The headline "proposed" policy (the first entry of
    /// [`Self::policies`]), falling back to the paper's snake rotation.
    pub fn proposed(&self) -> PolicySpec {
        self.policies.first().copied().unwrap_or_else(PolicySpec::rotation)
    }

    /// The policy series every multi-policy experiment runs: the baseline
    /// reference followed by [`Self::policies`].
    pub fn series(&self) -> Vec<PolicySpec> {
        std::iter::once(PolicySpec::Baseline).chain(self.policies.iter().copied()).collect()
    }

    /// The scenario lineup the multi-fabric figures ([`fig8`], [`table1`])
    /// iterate: the paper's BE/BP/BU design points by default, or the
    /// `--fabric` overrides labeled by their canonical spec strings
    /// (DESIGN.md §14).
    pub fn scenario_fabrics(&self) -> Vec<(String, Fabric)> {
        if self.fabrics.is_empty() {
            transrec::SCENARIOS.iter().map(|s| (s.name.to_string(), s.fabric())).collect()
        } else {
            self.fabrics.iter().map(|s| (s.to_string(), build_spec(s))).collect()
        }
    }
}

/// Builds a [`FabricSpec`]; contexts only carry specs that were validated
/// at parse time, so a failure here is a programming error.
fn build_spec(spec: &FabricSpec) -> Fabric {
    spec.build().unwrap_or_else(|e| panic!("fabric spec {spec} does not build: {e}"))
}

/// Runs `plan` with the context's worker count, observed (folding the
/// flight recorder's counters into [`obs::global`]) when the context opts
/// in — the observed path returns byte-identical runs (DESIGN.md §16).
fn ctx_sweep(ctx: &ExperimentContext, plan: &SweepPlan) -> Vec<SuiteRun> {
    if ctx.collect_metrics {
        run_sweep_observed(plan, ctx.jobs).expect("sweep runs").0
    } else {
        run_sweep(plan, ctx.jobs).expect("sweep runs")
    }
}

/// Runs the fabrics × policies cross product through the parallel sweep
/// engine with the context's `--jobs` setting, asserting every cell's
/// oracle. Cells come back in [`SweepPlan::cells`] order: fabric-major,
/// then policy (one workload-suite lane). Probes ride the plan as data,
/// so the output stays byte-identical for every worker count.
fn sweep_on(
    ctx: &ExperimentContext,
    fabrics: impl IntoIterator<Item = Fabric>,
    policies: Vec<PolicySpec>,
    probes: &[ProbeSpec],
) -> Vec<SuiteRun> {
    let mut plan = SweepPlan::new(ctx.seed)
        .energy(ctx.energy)
        .policies(policies)
        .probes(probes.iter().copied());
    for fabric in fabrics {
        plan = plan.fabric(fabric);
    }
    let runs = ctx_sweep(ctx, &plan);
    for run in &runs {
        assert!(
            run.all_verified(),
            "an oracle failed on {}x{} under {}",
            run.rows,
            run.cols,
            run.policy
        );
    }
    runs
}

/// Fig. 1 — FU utilization of a 4×8 fabric (or the first `--fabric`
/// override) under traditional (baseline) mapping, aggregated over the
/// ten benchmarks.
pub fn fig1(ctx: &ExperimentContext) -> Fig1Report {
    let fabric = ctx.fabrics.first().map_or_else(Fabric::fig1, build_spec);
    let runs = sweep_on(ctx, [fabric], vec![PolicySpec::Baseline], &[]);
    let grid = runs[0].tracker.utilization();
    Fig1Report {
        fabric: runs[0].fabric_spec.clone(),
        rows: grid.rows(),
        cols: grid.cols(),
        utilization: grid.values().to_vec(),
        max: grid.max(),
        min: grid.min(),
        heatmap: grid.render_heatmap(),
    }
}

/// Fig. 6 — the design-space exploration under the baseline policy: the
/// paper's L×W grid by default, or the `--fabric` override layouts.
pub fn fig6(ctx: &ExperimentContext) -> Fig6Report {
    let fabrics: Vec<Fabric> = if ctx.fabrics.is_empty() {
        transrec::dse_grid().iter().map(|&(l, w)| Fabric::new(w, l)).collect()
    } else {
        ctx.fabrics.iter().map(build_spec).collect()
    };
    let runs = sweep_on(ctx, fabrics, vec![PolicySpec::Baseline], &[]);
    let points = runs
        .iter()
        .map(|run| Fig6Point {
            fabric: run.fabric_spec.clone(),
            l: run.cols,
            w: run.rows,
            rel_time: run.relative_time(),
            rel_energy: run.relative_energy(),
            occupation: run.avg_occupation(),
            speedup: run.speedup(),
            verified: run.all_verified(),
        })
        .collect();
    Fig6Report { points }
}

/// Fig. 7 — BE (16×2, or the first `--fabric` override) utilization
/// heatmaps: baseline vs the proposed policy
/// ([`ExperimentContext::proposed`]).
pub fn fig7(ctx: &ExperimentContext) -> Fig7Report {
    let proposed = ctx.proposed();
    let fabric = ctx.fabrics.first().map_or_else(Fabric::be, build_spec);
    let runs = sweep_on(ctx, [fabric], vec![PolicySpec::Baseline, proposed], &[]);
    let bg = runs[0].tracker.utilization();
    let pg = runs[1].tracker.utilization();
    Fig7Report {
        fabric: runs[0].fabric_spec.clone(),
        rows: bg.rows(),
        cols: bg.cols(),
        proposed_policy: proposed.to_string(),
        baseline: bg.values().to_vec(),
        proposed: pg.values().to_vec(),
        baseline_max: bg.max(),
        proposed_max: pg.max(),
        baseline_heatmap: bg.render_heatmap(),
        proposed_heatmap: pg.render_heatmap(),
    }
}

/// Builds Fig. 8's delay-over-time curve from an in-run epoch series:
/// deployment time `t` (the workload mix repeating for years) corresponds
/// to the cumulative worst-FU utilization observed after the matching
/// fraction `t / horizon` of the run, so early samples reflect the
/// not-yet-flattened stress distribution and the curve converges to the
/// analytic (final-utilization) one as the epochs do (DESIGN.md §10).
fn epoch_delay_curve(
    aging: &CalibratedAging,
    trace: &UtilTrace,
    horizon_years: f64,
    points: usize,
) -> Vec<(f64, f64)> {
    let total = trace.total_cycles();
    (0..points)
        .map(|i| {
            let frac = i as f64 / (points - 1) as f64;
            let t = horizon_years * frac;
            let target = (frac * total as f64).round() as u64;
            let worst = trace.at_cycle(target).map_or(0.0, |s| s.worst());
            (t, aging.delay_increase(t, worst))
        })
        .collect()
}

/// Fig. 8 — per-scenario utilization PDFs and worst-FU NBTI delay curves,
/// one series per scenario × policy (baseline plus every context policy).
/// The delay curves are built from true in-run epoch snapshots
/// (`util-trace` probes riding the sweep); the analytic extrapolation
/// from the final utilization is kept per series as a cross-check.
pub fn fig8(ctx: &ExperimentContext) -> Fig8Report {
    let specs = ctx.series();
    let probes = [ProbeSpec::util_trace(ctx.epoch_cycles)];
    let scenarios = ctx.scenario_fabrics();
    let runs = sweep_on(ctx, scenarios.iter().map(|(_, f)| *f), specs.clone(), &probes);
    let mut series = Vec::new();
    let mut runs = runs.iter();
    for (name, _) in &scenarios {
        for spec in &specs {
            let run = runs.next().expect("one run per scenario x policy");
            let grid = run.tracker.utilization();
            let eval = uaware::evaluate_aging(&ctx.aging, &grid, ctx.horizon_years, 101);
            let trace = run.util_trace().expect("fig8 sweep cells carry a util-trace probe");
            series.push(Fig8Series {
                scenario: name.clone(),
                policy: spec.to_string(),
                pdf: grid.histogram(20).series(),
                delay_curve: epoch_delay_curve(&ctx.aging, &trace, ctx.horizon_years, 101),
                analytic_delay_curve: eval.delay_curve.samples.clone(),
                epoch_worst: trace.worst_series(),
                worst_utilization: eval.worst_utilization,
            });
        }
    }
    Fig8Report { series, eol_delay_frac: ctx.aging.eol_delay_frac, epoch_cycles: ctx.epoch_cycles }
}

/// Relative tolerance around the final worst utilization that counts as
/// "settled" in [`convergence`].
pub const CONVERGENCE_TOLERANCE: f64 = 0.05;

/// Derives the utilization-convergence report from [`fig8`]'s epoch
/// series: per scenario × policy, the first sampled cycle from which the
/// cumulative worst-FU utilization stays within
/// [`CONVERGENCE_TOLERANCE`] (relative) of its final value — how fast
/// each policy flattens stress (DESIGN.md §10).
pub fn convergence(report: &Fig8Report) -> ConvergenceReport {
    let rows = report
        .series
        .iter()
        .map(|s| {
            let total_cycles = s.epoch_worst.last().map_or(0, |(c, _)| *c);
            let final_worst = s.epoch_worst.last().map_or(0.0, |(_, w)| *w);
            let settle_cycle = settle_cycle(&s.epoch_worst, CONVERGENCE_TOLERANCE);
            ConvergenceRow {
                scenario: s.scenario.clone(),
                policy: s.policy.clone(),
                total_cycles,
                final_worst,
                settle_cycle,
                settle_fraction: if total_cycles == 0 {
                    0.0
                } else {
                    settle_cycle as f64 / total_cycles as f64
                },
            }
        })
        .collect();
    ConvergenceReport { tolerance: CONVERGENCE_TOLERANCE, rows }
}

/// Table I — utilization and lifetime improvements for BE/BP/BU, one row
/// per scenario × context policy (each against the scenario's baseline).
pub fn table1(ctx: &ExperimentContext) -> Table1Report {
    let specs = ctx.series();
    let scenarios = ctx.scenario_fabrics();
    let runs = sweep_on(ctx, scenarios.iter().map(|(_, f)| *f), specs.clone(), &[]);
    let per_scenario = specs.len();
    let mut rows = Vec::new();
    for (ci, (scenario, _)) in scenarios.iter().enumerate() {
        let base = &runs[ci * per_scenario];
        let bg = base.tracker.utilization();
        let base_eval = uaware::evaluate_aging(&ctx.aging, &bg, ctx.horizon_years, 11);
        for (pi, spec) in ctx.policies.iter().enumerate() {
            let run = &runs[ci * per_scenario + 1 + pi];
            let pg = run.tracker.utilization();
            let eval = uaware::evaluate_aging(&ctx.aging, &pg, ctx.horizon_years, 11);
            rows.push(Table1Row {
                scenario: scenario.clone(),
                policy: spec.to_string(),
                avg_util: bg.mean(),
                baseline_worst: bg.max(),
                policy_worst: pg.max(),
                lifetime_improvement: uaware::lifetime_improvement(&base_eval, &eval),
                baseline_lifetime_years: base_eval.lifetime_years,
                policy_lifetime_years: eval.lifetime_years,
            });
        }
    }
    Table1Report { rows }
}

/// The layout mixes [`layout`] explores when `--fabric` is absent: the
/// uniform Fig. 1 geometry plus its heterogeneous class mixes and
/// bandwidth-budgeted variants (DESIGN.md §14).
pub fn default_layouts() -> Vec<FabricSpec> {
    ["4x8", "4x8:het-checker", "4x8:het-rows", "4x8:het-cols", "4x8+bw-2", "4x8:het-checker+bw-2"]
        .iter()
        .map(|s| s.parse().expect("default layout specs parse"))
        .collect()
}

/// The layout explorer behind `results/layout.json` (DESIGN.md §14):
/// every layout mix ([`default_layouts`], or the `--fabric` overrides) ×
/// (baseline + every context policy), reporting per-layout suite speedup,
/// worst-FU effective duty (what NBTI sees once column-bandwidth stress is
/// folded in), projected wear at the horizon, lifetime, and how many
/// configurations starved back to the GPP. Like every sweep it is
/// byte-identical for every `--jobs` value.
pub fn layout(ctx: &ExperimentContext) -> LayoutReport {
    let layouts = if ctx.fabrics.is_empty() { default_layouts() } else { ctx.fabrics.clone() };
    let runs = sweep_on(ctx, layouts.iter().map(build_spec), ctx.series(), &[]);
    let rows = runs
        .iter()
        .map(|run| {
            let cycles: u64 = run.benchmarks.iter().map(|b| b.system_cycles).sum();
            let duty = run.tracker.duty_cycles(cycles);
            let eval = uaware::evaluate_aging(&ctx.aging, &duty, ctx.horizon_years, 11);
            LayoutRow {
                fabric: run.fabric_spec.clone(),
                policy: run.policy.clone(),
                speedup: run.speedup(),
                worst_utilization: duty.max(),
                mean_utilization: duty.mean(),
                worst_wear: ctx.aging.delay_increase(ctx.horizon_years, duty.max()),
                lifetime_years: eval.lifetime_years,
                offloads_starved: run.benchmarks.iter().map(|b| b.stats.offloads_starved).sum(),
                verified: run.all_verified(),
            }
        })
        .collect();
    LayoutReport { proposed_policy: ctx.proposed().to_string(), rows }
}

/// The layouts [`gap`] sweeps when `--fabric` is absent: two uniform
/// geometries plus a heterogeneous mix and a bandwidth-budgeted variant,
/// small enough that the exact oracle's per-allocation solves stay cheap.
pub fn default_gap_layouts() -> Vec<FabricSpec> {
    ["2x8", "4x8", "4x8:het-checker", "4x8+bw-2"]
        .iter()
        .map(|s| s.parse().expect("default gap layout specs parse"))
        .collect()
}

/// The injected permanent-fault densities [`gap`] sweeps (dead FUs /
/// total FUs; `0.0` is the pristine control).
pub fn default_gap_densities() -> Vec<f64> {
    vec![0.0, 0.125, 0.25]
}

/// A deterministic fault mask killing `round(density × FUs)` distinct
/// cells, drawn by partial Fisher–Yates from a seed derived per sweep
/// cell — byte-identical for every worker count because masks are built
/// on the planning thread (DESIGN.md §15).
fn seeded_fault_mask(fabric: &Fabric, density: f64, seed: u64, cell: u64) -> (FaultMask, u32) {
    let total = fabric.fu_count();
    let dead = ((total as f64) * density).round() as u32;
    assert!(dead < total, "a gap cell must keep at least one live FU");
    let mut rng = SmallRng::seed_from_u64(derive_cell_seed(seed, 0xFA01_7000 ^ cell));
    let mut cells: Vec<u32> = (0..total).collect();
    let mut mask = FaultMask::healthy(fabric);
    for i in 0..dead {
        let j = i + rng.random_range(0..total - i);
        cells.swap(i as usize, j as usize);
        mask.mark_dead(cells[i as usize] / fabric.cols, cells[i as usize] % fabric.cols);
    }
    (mask, dead)
}

/// The optimality-gap experiment behind `results/gap.json` (DESIGN.md
/// §15): every heuristic (baseline + the context policies) and the exact
/// branch-and-bound oracle run the suite on each layout × fault-density
/// cell, with the seeded dead FUs injected through
/// [`transrec::SystemConfig::faults`] and exhaustion degrading to the GPP
/// (`fault_fallback`) instead of killing the run. Each row reports the
/// policy's worst-FU effective duty and projected lifetime next to its
/// gap ratios against the oracle on the same cell. Like every sweep it is
/// byte-identical for every `--jobs` value.
pub fn gap(ctx: &ExperimentContext) -> GapReport {
    let layouts = if ctx.fabrics.is_empty() { default_gap_layouts() } else { ctx.fabrics.clone() };
    let densities = default_gap_densities();
    let exact = PolicySpec::Exact { every: 1 };
    let specs: Vec<PolicySpec> = ctx
        .series()
        .into_iter()
        .filter(|s| !matches!(s, PolicySpec::Exact { .. }))
        .chain(std::iter::once(exact))
        .collect();
    let mut plan = SweepPlan::new(ctx.seed).energy(ctx.energy).policies(specs.iter().copied());
    let mut cells: Vec<(String, f64, u32)> = Vec::new();
    for layout in &layouts {
        let fabric = build_spec(layout);
        for &density in &densities {
            let (mask, dead) = seeded_fault_mask(&fabric, density, ctx.seed, cells.len() as u64);
            let mut config = SystemConfig::new(fabric);
            config.faults = (dead > 0).then_some(mask);
            config.fault_fallback = true;
            plan = plan.config(config);
            cells.push((layout.to_string(), density, dead));
        }
    }
    let runs = ctx_sweep(ctx, &plan);
    for run in &runs {
        assert!(run.all_verified(), "an oracle failed on {} under {}", run.fabric_spec, run.policy);
    }
    let per = specs.len();
    let mut rows = Vec::with_capacity(runs.len());
    for (ci, (fabric, density, dead)) in cells.iter().enumerate() {
        let duty_of = |run: &SuiteRun| {
            let cycles: u64 = run.benchmarks.iter().map(|b| b.system_cycles).sum();
            run.tracker.duty_cycles(cycles)
        };
        let exact_run = &runs[ci * per + (per - 1)];
        let exact_duty = duty_of(exact_run);
        let exact_life = ctx.aging.lifetime_years(exact_duty.max());
        for pi in 0..per {
            let run = &runs[ci * per + pi];
            let duty = duty_of(run);
            let life = ctx.aging.lifetime_years(duty.max());
            rows.push(GapRow {
                fabric: fabric.clone(),
                fault_density: *density,
                dead_fus: *dead,
                policy: run.policy.clone(),
                speedup: run.speedup(),
                worst_utilization: duty.max(),
                mean_utilization: duty.mean(),
                lifetime_years: life,
                duty_gap: if exact_duty.max() > 0.0 {
                    duty.max() / exact_duty.max()
                } else if duty.max() > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                },
                lifetime_gap: if exact_life.is_infinite() && life.is_infinite() {
                    1.0
                } else {
                    exact_life / life
                },
                offloads: run.benchmarks.iter().map(|b| b.stats.offloads).sum(),
                offloads_starved: run.benchmarks.iter().map(|b| b.stats.offloads_starved).sum(),
                verified: run.all_verified(),
            });
        }
    }
    GapReport { exact_policy: exact.to_string(), rows }
}

/// The workload lanes `fig_lifetime` uses when `--lanes` is absent: one
/// lane per device up to 8 devices (the legacy per-device-seed population),
/// 8 shared lanes beyond — so `--devices 100000` costs ~8 reference
/// trajectories per policy plus a weighted fold per class and shard, not
/// 100 000 suite simulations (DESIGN.md §12).
pub fn default_lanes(devices: usize) -> usize {
    devices.min(8)
}

/// The closed-loop fleet lifetime experiment behind
/// `results/survival.json` (DESIGN.md §11): `devices` instances of the BE
/// scenario per policy (baseline plus every context policy) over `lanes`
/// workload lanes, each running its seed-derived mibench mix mission
/// after mission while per-FU wear accumulates, end-of-life FUs drop out
/// of the allocatable fabric, and the device dies when no legal placement
/// remains. The report carries per-policy survival curves,
/// (horizon-censored) MTTF and first-failure histograms; like every sweep
/// it is byte-identical for every `--jobs` value. `shard_devices`
/// overrides the shard size and `options` controls checkpointing and
/// early stop (the `fig_lifetime` binary's flags).
pub fn fig_lifetime_campaign(
    ctx: &ExperimentContext,
    devices: usize,
    lanes: usize,
    shard_devices: Option<usize>,
    options: &CampaignOptions,
) -> CampaignStatus {
    let plan = FleetPlan::new(ctx.seed, Fabric::be())
        .policies(ctx.series())
        .devices(devices)
        .aging(ctx.aging)
        .lanes(lanes)
        .shard_devices(shard_devices.unwrap_or(DEFAULT_SHARD_DEVICES));
    run_fleet_campaign(&plan, ctx.jobs, options).expect("fleet runs")
}

/// The workload/traffic lanes `fleet_serve` uses when `--lanes` is
/// absent: one lane per device up to 4 — serving trajectories are heavier
/// than mission trajectories (every distinct fault mask re-measures the
/// whole suite), so the default reference pool is half the fleet one's
/// (DESIGN.md §13).
pub fn default_serve_lanes(devices: usize) -> usize {
    devices.min(4)
}

/// The live-serving fleet experiment behind `results/serving.json`
/// (DESIGN.md §13): baseline plus the context's policy series, `devices`
/// per cell over `lanes` lanes, each serving the same seeded request
/// streams (the `traffic` mix, or diurnal and heavy-tailed by default)
/// over `horizon_days` days with utilization-aware backpressure,
/// death-triggered replacement and cost accounting. `shard_devices`
/// overrides the shard size and `options` controls checkpointing and
/// early stop (the `fleet_serve` binary's flags).
pub fn fleet_serve_campaign(
    ctx: &ExperimentContext,
    devices: usize,
    lanes: usize,
    horizon_days: u64,
    traffic: Option<Vec<TrafficSpec>>,
    shard_devices: Option<usize>,
    options: &CampaignOptions,
) -> ServeStatus {
    let mut plan = ServePlan::new(ctx.seed, Fabric::be())
        .policies(ctx.series())
        .devices(devices)
        .aging(ctx.aging)
        .lanes(lanes)
        .horizon_days(horizon_days)
        .shard_devices(shard_devices.unwrap_or(DEFAULT_SHARD_DEVICES));
    if let Some(traffic) = traffic {
        plan = plan.traffic_mix(traffic);
    }
    run_serving_campaign(&plan, ctx.jobs, options).expect("serving runs")
}

/// Table II — area/cells of the BE fabric, baseline vs modified, plus the
/// unchanged column latency.
pub fn table2(_ctx: &ExperimentContext) -> Table2Report {
    let model = AreaModel::default();
    let fabric = Fabric::be();
    let base = model.report(&fabric, false);
    let ext = model.report(&fabric, true);
    let (cell_overhead, area_overhead) = ext.overhead_vs(&base);
    let other_fabrics =
        [("fig1(4x8)", Fabric::fig1()), ("BP(32x4)", Fabric::bp()), ("BU(32x8)", Fabric::bu())]
            .iter()
            .map(|(name, f)| {
                let b = model.report(f, false);
                let e = model.report(f, true);
                let (c, a) = e.overhead_vs(&b);
                (name.to_string(), c, a)
            })
            .collect();
    // The configuration cache, sized like the system default (FinCACTI
    // substitute, DESIGN.md §3).
    let cache = cgra::config_cache_macro(&cgra::SramTech::default(), &fabric, 256);
    Table2Report {
        baseline_area_um2: base.area_um2,
        modified_area_um2: ext.area_um2,
        baseline_cells: base.cells,
        modified_cells: ext.cells,
        area_overhead,
        cell_overhead,
        baseline_delay_ps: model.column_delay_ps(&fabric, false),
        modified_delay_ps: model.column_delay_ps(&fabric, true),
        other_fabrics,
        cfg_cache_kib: cache.bits as f64 / 8.0 / 1024.0,
        cfg_cache_area_um2: cache.area_um2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transrec::run_suite;

    /// Sequential single-cell helper for reduced-suite tests (the figure
    /// runners themselves go through [`sweep_on`]).
    fn suite_on(
        fabric: Fabric,
        ctx: &ExperimentContext,
        workloads: &[Workload],
        spec: &PolicySpec,
    ) -> SuiteRun {
        let run = run_suite(fabric, workloads, &ctx.energy, spec).expect("suite runs");
        assert!(
            run.all_verified(),
            "an oracle failed on {}x{} under {spec}",
            fabric.rows,
            fabric.cols
        );
        run
    }

    #[test]
    fn convergence_rides_the_shared_settle_scan() {
        // Regression guard for the telemetry/bench consolidation: the
        // convergence report must produce exactly what the shared
        // `telemetry::settle_cycle` scan says — no ad-hoc reimplementation
        // may creep back in here.
        let series = vec![
            (0, 1.00),
            (100, 0.80),
            (200, 0.70),
            (300, 0.61),
            (400, 0.60), // settled since cycle 300: 0.70 is outside 5% of 0.60
        ];
        let report = Fig8Report {
            series: vec![Fig8Series {
                scenario: "BE".into(),
                policy: "rotation".into(),
                pdf: Vec::new(),
                delay_curve: Vec::new(),
                analytic_delay_curve: Vec::new(),
                epoch_worst: series.clone(),
                worst_utilization: 0.6,
            }],
            eol_delay_frac: 0.10,
            epoch_cycles: 100,
        };
        let conv = convergence(&report);
        assert_eq!(conv.rows.len(), 1);
        let row = &conv.rows[0];
        assert_eq!(row.settle_cycle, settle_cycle(&series, CONVERGENCE_TOLERANCE));
        assert_eq!(row.settle_cycle, 300, "0.61 is within 5% of 0.60, 0.70 is not");
        assert_eq!(row.total_cycles, 400);
        assert!((row.settle_fraction - 0.75).abs() < 1e-12);
        assert!((row.final_worst - 0.60).abs() < 1e-12);
    }

    #[test]
    fn table2_matches_paper_bands() {
        let r = table2(&ExperimentContext::default());
        // Paper: 79,540 cells / 28,995 um2 baseline; +4.45% / +4.15%.
        assert!((65_000..=95_000).contains(&r.baseline_cells), "{}", r.baseline_cells);
        assert!(r.cell_overhead > 0.0 && r.cell_overhead < 0.10);
        assert!(r.area_overhead > 0.0 && r.area_overhead < 0.10);
        assert_eq!(r.baseline_delay_ps, r.modified_delay_ps);
        assert_eq!(r.other_fabrics.len(), 3);
    }

    #[test]
    fn context_default_is_seeded_and_calibrated() {
        let ctx = ExperimentContext::default();
        assert_eq!(ctx.suite().len(), 10);
        assert_eq!(ctx.aging.anchor_years, 3.0);
        assert_eq!(ctx.aging.eol_delay_frac, 0.10);
        assert!(ctx.horizon_years >= 10.0);
        assert_eq!(ctx.proposed(), PolicySpec::rotation());
        // The default ablation set covers the three required extra series.
        let names: Vec<String> = ctx.policies.iter().map(PolicySpec::to_string).collect();
        assert!(names.contains(&"rotation:snake@per-load".to_string()), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("random:")), "{names:?}");
        assert!(names.contains(&"health-aware".to_string()), "{names:?}");
    }

    #[test]
    fn fig1_runs_on_a_reduced_suite() {
        // Full fig1 is exercised by the binary; here: the pipeline with a
        // single benchmark, checking report invariants.
        let ctx = ExperimentContext::default();
        let workloads = vec![mibench::kernels::crc32::workload(1)];
        let run = suite_on(cgra::Fabric::fig1(), &ctx, &workloads, &PolicySpec::Baseline);
        let grid = run.tracker.utilization();
        assert_eq!((grid.rows(), grid.cols()), (4, 8));
        assert!(grid.value(0, 0) > 0.9, "corner bias");
        assert!(grid.max() <= 1.0 && grid.min() >= 0.0);
    }

    #[test]
    fn default_layouts_build_and_start_uniform() {
        let layouts = default_layouts();
        assert!(layouts.len() >= 4);
        let first = layouts[0].build().expect("uniform layout builds");
        assert!(first.is_uniform(), "the first layout is the uniform reference");
        for spec in &layouts {
            let fabric = spec.build().expect("every default layout builds");
            assert_eq!((fabric.rows, fabric.cols), (4, 8));
        }
    }

    #[test]
    fn a_heterogeneous_layout_shifts_worst_fu_wear() {
        // bitcount carries `mul` anchors, so a row-striped class mix pins
        // them to capable rows: the stress distribution — and with it the
        // worst FU — must move relative to the uniform fabric (the
        // layout.json acceptance property, DESIGN.md §14).
        let ctx = ExperimentContext::default();
        let workloads = vec![mibench::kernels::bitcount::workload(1)];
        let spec = PolicySpec::rotation();
        let uniform_fabric = "4x8".parse::<FabricSpec>().unwrap().build().unwrap();
        let het_fabric = "4x8:het-rows".parse::<FabricSpec>().unwrap().build().unwrap();
        let uniform = suite_on(uniform_fabric, &ctx, &workloads, &spec);
        let het = suite_on(het_fabric, &ctx, &workloads, &spec);
        let ug = uniform.tracker.utilization();
        let hg = het.tracker.utilization();
        assert_ne!(ug.values(), hg.values(), "the class mix must reshape the stress distribution");
    }

    #[test]
    fn table1_reports_every_context_policy_per_scenario() {
        // A reduced context (one benchmark, two policies) keeps this fast
        // while pinning the row structure the acceptance criteria rely on.
        let ctx = ExperimentContext {
            policies: vec![PolicySpec::rotation(), PolicySpec::HealthAware],
            ..ExperimentContext::default()
        };
        let workloads = vec![mibench::kernels::crc32::workload(1)];
        let mut rows = Vec::new();
        for scenario in transrec::SCENARIOS.iter().take(1) {
            let base = suite_on(scenario.fabric(), &ctx, &workloads, &PolicySpec::Baseline);
            for spec in &ctx.policies {
                let run = suite_on(scenario.fabric(), &ctx, &workloads, spec);
                rows.push((
                    spec.to_string(),
                    base.tracker.utilization().max(),
                    run.tracker.utilization().max(),
                ));
            }
        }
        assert_eq!(rows.len(), 2);
        for (policy, base_worst, policy_worst) in rows {
            assert!(policy_worst <= base_worst + 1e-9, "{policy} must not worsen the corner");
        }
    }
}
