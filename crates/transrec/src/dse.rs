//! Design-space exploration (paper §IV.B / Fig. 6) and whole-suite
//! evaluation runs.

use serde::{Deserialize, Serialize};

use cgra::{Fabric, FabricSpec};
use mibench::Workload;
use uaware::{PolicySpec, UtilizationTracker};

use crate::energy::{gpp_only_energy, system_energy, EnergyParams};
use crate::system::{check_movement, run_gpp_only, SystemConfig, SystemError, SystemStats};
use crate::tape::{session, TapeRun, WorkloadRun};
use crate::telemetry::{ProbeReport, ProbeSpec, UtilTrace};

/// The paper's exploration grid: length L ∈ {8,16,24,32} columns ×
/// width W ∈ {2,4,8} rows.
pub fn dse_grid() -> Vec<(u32, u32)> {
    let mut grid = Vec::new();
    for l in [8u32, 16, 24, 32] {
        for w in [2u32, 4, 8] {
            grid.push((l, w));
        }
    }
    grid
}

/// One benchmark's outcome on one system configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: String,
    /// System cycles.
    pub system_cycles: u64,
    /// Stand-alone GPP cycles (the 1× reference).
    pub gpp_cycles: u64,
    /// System energy (GPP-cycle-energy units).
    pub system_energy: f64,
    /// GPP-only energy.
    pub gpp_energy: f64,
    /// Full stats.
    pub stats: SystemStats,
    /// Whether the workload's oracle verified the run.
    pub verified: bool,
    /// Telemetry-probe reports, in probe-spec order (empty when the run
    /// carried no probes).
    pub probes: Vec<ProbeReport>,
}

impl BenchmarkRun {
    /// Speedup over the stand-alone GPP.
    pub fn speedup(&self) -> f64 {
        self.gpp_cycles as f64 / self.system_cycles as f64
    }

    /// Relative energy (system / GPP-only).
    pub fn relative_energy(&self) -> f64 {
        self.system_energy / self.gpp_energy
    }
}

/// A whole-suite evaluation on one fabric with one policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuiteRun {
    /// Fabric columns (L).
    pub cols: u32,
    /// Fabric rows (W).
    pub rows: u32,
    /// The fabric as a canonical [`FabricSpec`] string (geometry plus
    /// class mix, context lines and bandwidth budget — DESIGN.md §14),
    /// the key heterogeneous sweeps report under.
    pub fabric_spec: String,
    /// Policy name.
    pub policy: String,
    /// Per-benchmark results.
    pub benchmarks: Vec<BenchmarkRun>,
    /// Merged per-FU utilization across the suite.
    pub tracker: UtilizationTracker,
}

impl SuiteRun {
    /// Geometric-mean speedup across benchmarks (paper-style ×GPP).
    pub fn speedup(&self) -> f64 {
        geo_mean(self.benchmarks.iter().map(BenchmarkRun::speedup))
    }

    /// Geometric-mean relative energy.
    pub fn relative_energy(&self) -> f64 {
        geo_mean(self.benchmarks.iter().map(BenchmarkRun::relative_energy))
    }

    /// Relative execution time (1 / speedup), the x-axis of Fig. 6.
    pub fn relative_time(&self) -> f64 {
        1.0 / self.speedup()
    }

    /// Mean per-FU utilization ("occupation" in Fig. 6).
    pub fn avg_occupation(&self) -> f64 {
        self.tracker.utilization().mean()
    }

    /// `true` if every benchmark verified.
    pub fn all_verified(&self) -> bool {
        self.benchmarks.iter().all(|b| b.verified)
    }

    /// The suite-level utilization trace: every benchmark's `util-trace`
    /// probe report chained with [`UtilTrace::concat`] into the series a
    /// suite-shared tracker would have produced (DESIGN.md §10). `None`
    /// if any benchmark lacks a trace (no such probe attached).
    pub fn util_trace(&self) -> Option<UtilTrace> {
        let traces: Option<Vec<&UtilTrace>> = self
            .benchmarks
            .iter()
            .map(|b| b.probes.iter().find_map(|p| p.as_util_trace()))
            .collect();
        Some(UtilTrace::concat(traces?))
    }
}

fn geo_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The policy-and-telemetry half of a suite evaluation, as one value —
/// what varies between cells of a sweep while the [`SystemConfig`] and
/// workloads stay fixed. [`run_suite_with_options`] is the single suite
/// entrypoint; [`run_suite`] is a thin positional wrapper over it.
#[derive(Copy, Clone, Debug)]
pub struct SuiteOptions<'a> {
    /// The allocation policy (one fresh instance per benchmark).
    pub policy: PolicySpec,
    /// Telemetry probes, instantiated fresh for every benchmark
    /// (DESIGN.md §10); each probe's report lands in the corresponding
    /// [`BenchmarkRun::probes`] slot, in spec order.
    pub probes: &'a [ProbeSpec],
    /// Precomputed [`gpp_reference`] cycles, one per workload, for a
    /// caller that runs several policies on one configuration and must
    /// not recompute the policy-independent GPP baseline per policy (the
    /// sweep shares it the same way, DESIGN.md §9). `None` computes it
    /// inline.
    pub gpp_reference: Option<&'a [u64]>,
}

impl SuiteOptions<'_> {
    /// Options for a plain policy run: no probes, GPP reference computed
    /// inline.
    pub fn new(policy: PolicySpec) -> SuiteOptions<'static> {
        SuiteOptions { policy, probes: &[], gpp_reference: None }
    }
}

/// Runs the full suite on `base_config` under `options` (one fresh policy
/// instance per benchmark; the utilization trackers are merged across the
/// suite like the paper's aggregated utilization).
///
/// # Errors
///
/// Propagates the first [`SystemError`]; rejects a movement spec on a
/// movement-less configuration before anything runs.
///
/// # Panics
///
/// Panics if a precomputed `options.gpp_reference` and `workloads` have
/// different lengths.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use transrec::{run_suite_with_options, EnergyParams, SuiteOptions, SystemConfig};
///
/// let workloads = &mibench::suite(7)[..1];
/// let options = SuiteOptions::new("rotation:snake@per-load".parse().unwrap());
/// let config = SystemConfig::new(Fabric::be());
/// let run = run_suite_with_options(&config, workloads, &EnergyParams::default(), options)
///     .unwrap();
/// assert!(run.all_verified());
/// assert_eq!(run.policy, "rotation:snake@per-load");
/// assert_eq!(run.fabric_spec, "2x16");
/// ```
pub fn run_suite_with_options(
    base_config: &SystemConfig,
    workloads: &[Workload],
    energy: &EnergyParams,
    options: SuiteOptions<'_>,
) -> Result<SuiteRun, SystemError> {
    let spec = options.policy;
    // Fail fast on an invalid spec/hardware pairing before spending time on
    // the GPP reference simulations.
    check_movement([&spec], base_config.movement_hardware)?;
    let computed;
    let gpp_cycles: &[u64] = match options.gpp_reference {
        Some(cycles) => cycles,
        None => {
            computed = gpp_reference(base_config, workloads)?;
            &computed
        }
    };
    let runs = workloads.iter().map(|w| session(base_config, &spec, options.probes, w, false).0);
    fold_suite(base_config, &spec, workloads, gpp_cycles, energy, runs)
}

/// Folds the runs of `workloads` under `spec` on `config`, in workload
/// order, into their [`SuiteRun`] (the utilization trackers merged across
/// the suite like the paper's aggregated utilization). The one place a
/// [`BenchmarkRun`] is built, for [`run_suite_with_options`] and for the
/// sweep (DESIGN.md §9). `runs` is consumed lazily and the first error
/// wins.
///
/// # Panics
///
/// Panics if `gpp_cycles` and `workloads` have different lengths.
pub(crate) fn fold_suite(
    config: &SystemConfig,
    spec: &PolicySpec,
    workloads: &[Workload],
    gpp_cycles: &[u64],
    energy: &EnergyParams,
    runs: impl IntoIterator<Item = Result<WorkloadRun, SystemError>>,
) -> Result<SuiteRun, SystemError> {
    assert_eq!(gpp_cycles.len(), workloads.len(), "one GPP reference per workload");
    let fabric = config.fabric;
    let mut merged = UtilizationTracker::new(&fabric);
    let mut benchmarks = Vec::with_capacity(workloads.len());
    for ((w, &gpp_cycles), run) in workloads.iter().zip(gpp_cycles).zip(runs) {
        let WorkloadRun { run: TapeRun { stats, tracker }, verified, probes } = run?;
        benchmarks.push(BenchmarkRun {
            name: w.name().to_string(),
            system_cycles: stats.total_cycles(),
            gpp_cycles,
            system_energy: system_energy(energy, &fabric, &stats).total(),
            gpp_energy: gpp_only_energy(energy, gpp_cycles),
            stats,
            verified,
            probes,
        });
        merged.merge(&tracker);
    }
    Ok(SuiteRun {
        cols: fabric.cols,
        rows: fabric.rows,
        fabric_spec: FabricSpec::from_fabric(&fabric).to_string(),
        policy: spec.to_string(),
        benchmarks,
        tracker: merged,
    })
}

/// Runs the full suite on `fabric` with the policy described by `spec` —
/// the historical positional wrapper over [`run_suite_with_options`].
///
/// # Errors
///
/// Propagates the first [`SystemError`]; rejects a movement spec on a
/// movement-less configuration before anything runs.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use transrec::{run_suite, EnergyParams};
/// use uaware::PolicySpec;
///
/// let workloads = &mibench::suite(7)[..1];
/// let spec: PolicySpec = "rotation:snake@per-load".parse().unwrap();
/// let run = run_suite(Fabric::be(), workloads, &EnergyParams::default(), &spec).unwrap();
/// assert!(run.all_verified());
/// assert_eq!(run.policy, "rotation:snake@per-load");
/// ```
pub fn run_suite(
    fabric: Fabric,
    workloads: &[Workload],
    energy: &EnergyParams,
    spec: &PolicySpec,
) -> Result<SuiteRun, SystemError> {
    run_suite_with_options(&SystemConfig::new(fabric), workloads, energy, SuiteOptions::new(*spec))
}

/// The stand-alone GPP reference cycles for `workloads` under `config`'s
/// memory/timing/step parameters — the policy-independent half of a suite
/// run, computed once per (GPP parameters × workloads) and reused across
/// every policy of a sweep (DESIGN.md §9).
///
/// # Errors
///
/// Propagates the first CPU fault as [`SystemError::Cpu`].
pub fn gpp_reference(
    config: &SystemConfig,
    workloads: &[Workload],
) -> Result<Vec<u64>, SystemError> {
    workloads
        .iter()
        .map(|w| {
            run_gpp_only(w.program(), config.mem_size, config.timing, config.max_steps)
                .map(|cpu| cpu.cycles())
                .map_err(SystemError::Cpu)
        })
        .collect()
}
