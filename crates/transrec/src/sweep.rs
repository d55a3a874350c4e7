//! The parallel sweep engine (DESIGN.md §9).
//!
//! The paper's evaluation — and every scaling experiment on top of it — is
//! a grid: system configurations × policy specs, each cell running one
//! workload suite into one [`SuiteRun`]. The engine runs one task per
//! (configuration, workload) on a vendored [`threadpool::ThreadPool`]: the
//! task runs the workload under every policy of the plan, the first
//! recording its offload tape and the rest replaying it through the
//! task's [`TapeStore`] (DESIGN.md §17). The per-workload runs then fold
//! into the cells **in deterministic cell order**, making the output
//! byte-identical no matter how many workers ran it (`--jobs 1` vs
//! `--jobs N` is enforced by CI).
//!
//! Determinism comes from three rules:
//!
//! 1. the suite's workloads are built once from the plan's base seed —
//!    never from scheduling order — and shared immutably by every task;
//! 2. no state is shared between in-flight tasks (each builds its own
//!    [`System`](crate::System)s, policy instances and tapes);
//! 3. results are collected by input index, not completion order.
//!
//! The policy-independent GPP-only reference is hoisted out of the tasks:
//! it is computed once per distinct GPP parameter set (memory size, timing,
//! step limit) and reused by every configuration and policy that shares
//! it, so an N-policy sweep does not redo it N times. Both the reference
//! and the tasks run through one observed parallel fold
//! (`par_map_observed`), which the campaign engine's phase 1 shares.

use cgra::Fabric;
use mibench::Workload;
use obs::Registry;
use serde::{Deserialize, Serialize};
use threadpool::ThreadPool;
use uaware::PolicySpec;

use crate::dse::{fold_suite, gpp_reference, SuiteRun};
use crate::energy::EnergyParams;
use crate::system::{check_movement, SystemConfig, SystemError};
use crate::tape::{session, TapeStore, WorkloadRun};
use crate::telemetry::ProbeSpec;

/// A named selection of the mibench workload suite — what every cell of a
/// sweep, and every mission or serving day of a campaign, runs.
///
/// `members` are indices into the full [`mibench::suite`] (see
/// [`mibench::NAMES`] for the ordering); the workloads themselves are
/// rebuilt from a seed at run time, so a `SuiteSpec` is pure data and can
/// be sent across threads or serialized into a report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteSpec {
    /// Label for reports (`mibench` for the full suite).
    pub name: String,
    /// Indices into the full suite, in run order (must be unique and in
    /// range).
    pub members: Vec<usize>,
}

impl SuiteSpec {
    /// The full ten-benchmark mibench suite.
    pub fn full() -> SuiteSpec {
        SuiteSpec { name: "mibench".to_string(), members: (0..mibench::NAMES.len()).collect() }
    }

    /// A named subset of the suite by index into [`mibench::NAMES`].
    pub fn subset(name: impl Into<String>, members: Vec<usize>) -> SuiteSpec {
        SuiteSpec { name: name.into(), members }
    }

    /// Builds this selection's workloads with input `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of range or repeated — both are
    /// plan-construction bugs, not runtime conditions.
    pub fn workloads(&self, seed: u64) -> Vec<Workload> {
        let mut all: Vec<Option<Workload>> = mibench::suite(seed).into_iter().map(Some).collect();
        self.members
            .iter()
            .map(|&i| {
                all.get_mut(i)
                    .unwrap_or_else(|| panic!("suite `{}`: member {i} out of range", self.name))
                    .take()
                    .unwrap_or_else(|| panic!("suite `{}`: member {i} repeated", self.name))
            })
            .collect()
    }
}

/// One cell of a sweep: indices into the plan's two axes plus the cell's
/// flat index (the deterministic merge order).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Flat cell index (the order [`run_sweep`] returns results in).
    pub index: usize,
    /// Index into [`SweepPlan::configs`].
    pub config: usize,
    /// Index into [`SweepPlan::policies`].
    pub policy: usize,
}

/// The cross product of system configurations × policy specs, every cell
/// running one workload suite — everything [`run_sweep`] needs, as plain
/// data.
///
/// Cells are enumerated configuration-major, then policy (see
/// [`SweepPlan::cells`]); [`SweepPlan::index_of`] maps axis indices back
/// to the flat result index.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use transrec::sweep::{run_sweep, SuiteSpec, SweepPlan};
/// use uaware::PolicySpec;
///
/// let plan = SweepPlan::new(0xDAC2020)
///     .fabric(Fabric::be())
///     .policy(PolicySpec::Baseline)
///     .policy(PolicySpec::rotation())
///     .suite(SuiteSpec::subset("mini", vec![1])); // crc32 only
/// let runs = run_sweep(&plan, 2).unwrap();
/// assert_eq!(runs.len(), 2);
/// assert!(runs.iter().all(|r| r.all_verified()));
/// assert_eq!(runs[plan.index_of(0, 1)].policy, "rotation:snake@per-exec");
/// ```
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Base experiment seed, from which the suite builds its workloads.
    pub base_seed: u64,
    /// Energy model shared by every cell.
    pub energy: EnergyParams,
    /// The system-configuration axis.
    pub configs: Vec<SystemConfig>,
    /// The policy axis.
    pub policies: Vec<PolicySpec>,
    /// The workload suite every cell runs (defaults to the full suite).
    pub suite: SuiteSpec,
    /// Telemetry probes attached to every cell (fresh observer instances
    /// per benchmark, DESIGN.md §10). Probes are data, so the plan stays
    /// `Send` and the results stay byte-identical for every worker count.
    pub probes: Vec<ProbeSpec>,
}

impl SweepPlan {
    /// An empty plan over the full mibench suite with default energy
    /// parameters. Add configurations and policies with the chainable
    /// builders.
    pub fn new(base_seed: u64) -> SweepPlan {
        SweepPlan {
            base_seed,
            energy: EnergyParams::default(),
            configs: Vec::new(),
            policies: Vec::new(),
            suite: SuiteSpec::full(),
            probes: Vec::new(),
        }
    }

    /// Adds a system configuration to the configuration axis.
    pub fn config(mut self, config: SystemConfig) -> SweepPlan {
        self.configs.push(config);
        self
    }

    /// Adds [`SystemConfig::new`]`(fabric)` to the configuration axis.
    pub fn fabric(self, fabric: Fabric) -> SweepPlan {
        self.config(SystemConfig::new(fabric))
    }

    /// Adds a policy to the policy axis.
    pub fn policy(mut self, spec: PolicySpec) -> SweepPlan {
        self.policies.push(spec);
        self
    }

    /// Adds several policies to the policy axis.
    pub fn policies(mut self, specs: impl IntoIterator<Item = PolicySpec>) -> SweepPlan {
        self.policies.extend(specs);
        self
    }

    /// Replaces the workload suite (the default is the full suite).
    pub fn suite(mut self, suite: SuiteSpec) -> SweepPlan {
        self.suite = suite;
        self
    }

    /// Replaces the energy model.
    pub fn energy(mut self, energy: EnergyParams) -> SweepPlan {
        self.energy = energy;
        self
    }

    /// Attaches a telemetry probe to every cell (repeatable).
    pub fn probe(mut self, spec: ProbeSpec) -> SweepPlan {
        self.probes.push(spec);
        self
    }

    /// Attaches several telemetry probes to every cell.
    pub fn probes(mut self, specs: impl IntoIterator<Item = ProbeSpec>) -> SweepPlan {
        self.probes.extend(specs);
        self
    }

    /// The number of cells in the cross product.
    pub fn len(&self) -> usize {
        self.configs.len() * self.policies.len()
    }

    /// `true` if any axis is empty (nothing to run).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell, in deterministic order: configuration-major, then
    /// policy.
    pub fn cells(&self) -> Vec<SweepCell> {
        (0..self.configs.len())
            .flat_map(|config| (0..self.policies.len()).map(move |policy| (config, policy)))
            .enumerate()
            .map(|(index, (config, policy))| SweepCell { index, config, policy })
            .collect()
    }

    /// The flat result index of cell (`config`, `policy`).
    pub fn index_of(&self, config: usize, policy: usize) -> usize {
        config * self.policies.len() + policy
    }
}

/// Runs every cell of `plan`, as one task per (configuration, workload)
/// sharded across `jobs` workers, and returns the [`SuiteRun`]s in
/// [`SweepPlan::cells`] order. Each cell equals a
/// [`run_suite_with_options`](crate::run_suite_with_options) of its
/// configuration and policy.
///
/// `jobs = 0` sizes the pool with [`threadpool::default_workers`] (all
/// cores, overridable via [`threadpool::NUM_THREADS_ENV`]); `jobs = 1`
/// runs everything inline on the calling thread — the old sequential
/// behaviour. The results are byte-identical for every worker count.
///
/// # Errors
///
/// If any cell fails, the error of the *lowest-indexed* failing cell is
/// returned (so error reporting is as deterministic as success): the one
/// a full session of its first failing workload returns. A movement spec
/// on a movement-less configuration is rejected before anything runs.
pub fn run_sweep(plan: &SweepPlan, jobs: usize) -> Result<Vec<SuiteRun>, SystemError> {
    Ok(run_sweep_inner(plan, jobs, false)?.0)
}

/// [`run_sweep`] with the flight recorder on: every GPP-reference block
/// and every task runs under its own [`obs::collect`], and the finished
/// registries fold in deterministic block/task order into one
/// [`Registry`] (returned alongside the runs, and also folded into
/// [`obs::global`]). Because the fold is a commutative monoid over
/// integer state, the registry is byte-identical for every worker count
/// (DESIGN.md §16), and a replayed tape counts what its full session
/// would (DESIGN.md §17).
///
/// # Errors
///
/// See [`run_sweep`].
pub fn run_sweep_observed(
    plan: &SweepPlan,
    jobs: usize,
) -> Result<(Vec<SuiteRun>, Registry), SystemError> {
    let out = run_sweep_inner(plan, jobs, true)?;
    obs::global::fold(&out.1);
    Ok(out)
}

/// The pool a `jobs` count asks for: `jobs` workers, or with `0`
/// [`threadpool::default_workers`].
pub(crate) fn worker_pool(jobs: usize) -> ThreadPool {
    ThreadPool::new(if jobs == 0 { threadpool::default_workers() } else { jobs })
}

/// Applies `work` to every item on `pool`, each under its own
/// [`obs::collect`] when `collect_metrics` is set, and returns the results
/// in item order with the registries folded in that order (DESIGN.md §16).
/// The fold never depends on scheduling, so neither do the bytes; callers
/// that collect `Result`s see the lowest-indexed error first.
pub(crate) fn par_map_observed<T: Send, U: Send>(
    pool: &ThreadPool,
    items: Vec<T>,
    collect_metrics: bool,
    work: impl Fn(T) -> U + Sync,
) -> (Vec<U>, Registry) {
    let outcomes = pool.par_map(items, |_, item| {
        if collect_metrics {
            obs::collect(|| work(item))
        } else {
            (work(item), Registry::new())
        }
    });
    let mut metrics = Registry::new();
    let results = outcomes
        .into_iter()
        .map(|(result, registry)| {
            metrics.merge(&registry);
            result
        })
        .collect();
    (results, metrics)
}

/// Shared body of [`run_sweep`]/[`run_sweep_observed`]. `collect_metrics`
/// is a knob (not always-on) because collection still costs a registry
/// per task and a publish per session call and replay (DESIGN.md §16).
fn run_sweep_inner(
    plan: &SweepPlan,
    jobs: usize,
    collect_metrics: bool,
) -> Result<(Vec<SuiteRun>, Registry), SystemError> {
    // Validate the whole grid up front: cheap, and it keeps the "rejected
    // before anything runs" contract of the sequential path.
    check_movement(&plan.policies, plan.configs.iter().all(|c| c.movement_hardware))?;
    if plan.is_empty() {
        return Ok((Vec::new(), Registry::new()));
    }
    let pool = worker_pool(jobs);
    // The suite's workloads, built once and shared immutably by every cell.
    let workloads = plan.suite.workloads(plan.base_seed);

    // The GPP-only reference is policy-independent *and*
    // fabric-independent — it only depends on a configuration's memory,
    // timing and step parameters — so compute it once per distinct
    // parameter set, in order of first appearance, and let every cell look
    // it up.
    let mut gpp_configs: Vec<&SystemConfig> = Vec::new();
    let gpp_of: Vec<usize> = plan
        .configs
        .iter()
        .map(|c| {
            let same = |p: &&SystemConfig| {
                p.mem_size == c.mem_size && p.timing == c.timing && p.max_steps == c.max_steps
            };
            gpp_configs.iter().position(same).unwrap_or_else(|| {
                gpp_configs.push(c);
                gpp_configs.len() - 1
            })
        })
        .collect();
    let (gpp, mut metrics) = par_map_observed(&pool, gpp_configs, collect_metrics, |config| {
        gpp_reference(config, &workloads)
    });
    let gpp = gpp.into_iter().collect::<Result<Vec<_>, _>>()?;

    // One task per (configuration, workload), configuration-major: every
    // policy runs the workload there, in plan order.
    let tasks: Vec<(usize, usize)> = (0..plan.configs.len())
        .flat_map(|config| (0..workloads.len()).map(move |workload| (config, workload)))
        .collect();
    let (outcomes, task_metrics) = par_map_observed(&pool, tasks, collect_metrics, |(c, w)| {
        run_policies(&plan.configs[c], &workloads[w], &plan.policies, &plan.probes)
    });
    metrics.merge(&task_metrics);

    // Each cell folds its policy's run of every workload of its
    // configuration; cells go in index order, so each task's runs are
    // taken in policy order.
    let mut outcomes: Vec<_> = outcomes.into_iter().map(Vec::into_iter).collect();
    let runs = plan
        .cells()
        .into_iter()
        .map(|cell| {
            let first = cell.config * workloads.len();
            let runs: Vec<_> = outcomes[first..first + workloads.len()]
                .iter_mut()
                .map(|task| task.next().expect("one run per policy"))
                .collect();
            let config = &plan.configs[cell.config];
            let gpp = &gpp[gpp_of[cell.config]];
            fold_suite(config, &plan.policies[cell.policy], &workloads, gpp, &plan.energy, runs)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((runs, metrics))
}

/// Runs `workload` on `config` under every policy of `policies`, in order:
/// one sweep task (DESIGN.md §9). Several policies without probes share
/// one [`TapeStore`], so the first records the workload's offload tape and
/// the rest replay it (DESIGN.md §17); a lone policy, whose tape nothing
/// would replay, and probed cells run plain full sessions.
fn run_policies(
    config: &SystemConfig,
    workload: &Workload,
    policies: &[PolicySpec],
    probes: &[ProbeSpec],
) -> Vec<Result<WorkloadRun, SystemError>> {
    if policies.len() > 1 && probes.is_empty() {
        let mut store = TapeStore::new(std::slice::from_ref(workload));
        policies.iter().map(|spec| store.run(config, spec, 0)).collect()
    } else {
        policies.iter().map(|spec| session(config, spec, probes, workload, false).0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BuildError;

    #[test]
    fn cells_enumerate_config_major_and_index_of_agrees() {
        let plan = SweepPlan::new(7)
            .fabric(Fabric::be())
            .fabric(Fabric::bp())
            .policy(PolicySpec::Baseline)
            .policy(PolicySpec::rotation())
            .policy(PolicySpec::HealthAware)
            .suite(SuiteSpec::subset("a", vec![0]));
        assert_eq!(plan.len(), 6);
        let cells = plan.cells();
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            assert_eq!(plan.index_of(cell.config, cell.policy), cell.index);
        }
        assert_eq!((cells[0].config, cells[0].policy), (0, 0));
        assert_eq!((cells[1].config, cells[1].policy), (0, 1));
        assert_eq!((cells[3].config, cells[3].policy), (1, 0));
        assert_eq!((cells[5].config, cells[5].policy), (1, 2));
    }

    #[test]
    fn full_suite_spec_selects_everything_in_order() {
        let spec = SuiteSpec::full();
        assert_eq!(spec.members.len(), mibench::NAMES.len());
        let workloads = spec.workloads(7);
        let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
        assert_eq!(names, mibench::NAMES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn suite_spec_rejects_bad_member() {
        SuiteSpec::subset("bad", vec![99]).workloads(7);
    }

    #[test]
    fn empty_plan_runs_no_cells() {
        let runs = run_sweep(&SweepPlan::new(7), 4).unwrap();
        assert!(runs.is_empty());
    }

    #[test]
    fn movement_spec_rejected_before_anything_runs() {
        let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
        let plan = SweepPlan::new(7).config(config).policy(PolicySpec::rotation());
        let err = run_sweep(&plan, 4).unwrap_err();
        assert!(matches!(err, SystemError::Build(BuildError::MovementHardwareAbsent { .. })));
    }
}
