//! Fleet-scale closed-loop lifetime simulation (DESIGN.md §11, §12).
//!
//! One *device* is a [`System`](crate::System) deployed for years: its workload mix runs
//! as a sequence of *missions* (one pass of the suite, modeling
//! [`FleetPlan::mission_years`] of deployment), each mission's per-FU
//! stress folds into persistent wear, FUs that cross end of life flip dead
//! in the [`cgra::FaultMask`] the next mission's allocation must route
//! around, and the device retires when the policy reports
//! [`SystemError::AllocationExhausted`]. A *fleet* fans N such devices
//! × M policies across the same thread pool the sweep engine uses, with
//! the same guarantee: [`run_fleet`]'s report is byte-identical for every
//! `jobs` value — and, at fleet scale, for every shard split and every
//! kill/resume point of a checkpointed campaign.
//!
//! The engine runs in two phases (DESIGN.md §12):
//!
//! 1. **Trajectories.** Missions are deterministic given (configuration,
//!    policy, workloads, fault mask), so devices in the same *equivalence
//!    class* — same workload-seed lane ([`FleetPlan::lanes`]), same
//!    manufacturing [`Defect`]s — share one closed-loop simulation. One
//!    task per class simulates it under every policy on the reference
//!    [`lifetime::DeviceLifetime`] path, re-running the suite only when
//!    the fault mask changes: a homogeneous fleet costs one suite run per
//!    distinct failure trajectory, not per device. A mission runs on one
//!    [`SystemConfig`] that carries its fault mask, through the tape store
//!    the engine builds for the task ([`crate::tape`], DESIGN.md §17): the
//!    first mission that needs a workload runs it as a full session and
//!    records the tape, and every later policy and fault mask replays it
//!    through the allocator alone. Each (policy × class)
//!    trajectory records what that device lived through — death and
//!    first-failure times, missions and failure events — which is the
//!    outcome of every member of its class.
//! 2. **Weighting.** Devices stream through contiguous shards of
//!    [`FleetPlan::shard_devices`]. Each shard counts its members per
//!    class arithmetically (a lane's residues minus its defective
//!    devices) and folds each class's death and first-failure times,
//!    weighted by its member count, into a per-policy
//!    [`lifetime::FleetAccum`] — a merge monoid, so the aggregate is exact
//!    regardless of the split. Phase 2 costs O(classes) per shard and
//!    simulates nothing; memory is O(classes + defects), never
//!    O(devices). The report lists the first [`FleetPlan::detail_devices`]
//!    devices one by one, each read off its class's trajectory.
//!
//! Both phases run on the shared [`campaign`] engine: with a checkpoint
//! path ([`CampaignOptions`]) it persists a versioned checkpoint after
//! phase 1 and after every wave of shards, so a killed run resumes where
//! it stopped and still produces byte-identical `results/survival.json`.
//!
//! # Examples
//!
//! ```
//! use cgra::Fabric;
//! use transrec::fleet::{run_fleet, FleetPlan};
//! use transrec::sweep::SuiteSpec;
//! use uaware::PolicySpec;
//!
//! let plan = FleetPlan::new(0xDAC2020, Fabric::be())
//!     .policy(PolicySpec::Baseline)
//!     .policy(PolicySpec::HealthAware)
//!     .devices(2)
//!     .suite(SuiteSpec::subset("bitcount", vec![0]))
//!     .mission_years(0.5)
//!     .horizon_years(20.0);
//! let report = run_fleet(&plan, 1).unwrap();
//! let base = report.policy("baseline").unwrap();
//! let oracle = report.policy("health-aware").unwrap();
//! // Reallocation around failures outlives the corner-pinned baseline.
//! assert!(oracle.stats.mttf_years > base.stats.mttf_years);
//! ```

use lifetime::{DeviceLifetime, FleetAccum, FleetStats, FuFailed, SurvivalCurve};
use nbti::CalibratedAging;
use serde::{Deserialize, Serialize};
use uaware::{derive_cell_seed, PolicySpec, UtilizationGrid, UtilizationTracker};

use crate::campaign::{self, Campaign, ClassKey, ClassMap, Kind, Population, Status};
use crate::sweep::SuiteSpec;
use crate::system::{SystemConfig, SystemError};
use crate::tape::TapeStore;

pub use crate::campaign::CampaignOptions;

/// Default deployment time one mission (one pass of the suite) models.
pub const DEFAULT_MISSION_YEARS: f64 = 0.5;

/// Default fleet observation horizon in years (long enough that every
/// policy's cascade completes on the paper's BE scenario).
pub const DEFAULT_HORIZON_YEARS: f64 = 40.0;

/// Default devices per streaming shard: the unit of phase-2 parallel work
/// and checkpoint progress.
pub const DEFAULT_SHARD_DEVICES: usize = 4096;

/// Default number of leading devices whose full per-device histories are
/// retained in the report (the rest only enter the aggregates).
pub const DEFAULT_DETAIL_DEVICES: usize = 32;

/// A manufacturing defect: one FU of one device is dead from the first
/// mission on (DESIGN.md §12). Defects fork a device out of its workload
/// lane's equivalence class into its own failure trajectory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Defect {
    /// The affected device index.
    pub device: usize,
    /// Fabric row of the dead FU.
    pub row: u32,
    /// Fabric column of the dead FU.
    pub col: u32,
}

/// A fleet experiment as data: N device instances × M policies, each
/// device running its seed lane's workload mix mission after mission until
/// death or the horizon (DESIGN.md §11, §12).
#[derive(Clone, Debug)]
pub struct FleetPlan {
    /// Base experiment seed; device `d` builds its workloads from
    /// [`derive_cell_seed`]`(base_seed, lane_of(d))` (lane 0 keeps the
    /// base seed).
    pub base_seed: u64,
    /// The system configuration every device ships with.
    pub config: SystemConfig,
    /// The policy axis (each policy sees the same device population).
    pub policies: Vec<PolicySpec>,
    /// Device instances per policy.
    pub devices: usize,
    /// The workload mix of one mission.
    pub suite: SuiteSpec,
    /// Deployment years one mission models.
    pub mission_years: f64,
    /// Observation horizon: devices alive at this time are censored.
    pub horizon_years: f64,
    /// The aging calibration wear accumulates under.
    pub aging: CalibratedAging,
    /// `true` (the closed loop): end-of-life FUs go dead in the fault mask
    /// and allocation must route around them. `false` (open loop): wear
    /// accumulates and failures are recorded, but placement never changes
    /// — the mode the analytic cross-check runs in.
    pub inject_faults: bool,
    /// First-failure histogram bins over `[0, horizon_years]`.
    pub histogram_bins: usize,
    /// Distinct workload-seed lanes. Device `d` runs lane `d % lanes`, so
    /// a fleet of 1M devices over 8 lanes shares 8 equivalence classes per
    /// policy. `None` (the default) gives every device its own lane — the
    /// legacy per-device-seed population.
    pub lanes: Option<usize>,
    /// Devices per streaming shard of the weighting phase. Never
    /// affects results (pinned by tests) — only scheduling and checkpoint
    /// granularity.
    pub shard_devices: usize,
    /// How many leading devices keep full [`DeviceOutcome`] detail.
    pub detail_devices: usize,
    /// Manufacturing defects seeded before the first mission.
    pub defects: Vec<Defect>,
}

impl FleetPlan {
    /// A fleet of 8 devices on `fabric` running the full mibench mix, with
    /// the closed loop on and the default mission/horizon. Add policies
    /// with the chainable builders.
    pub fn new(base_seed: u64, fabric: cgra::Fabric) -> FleetPlan {
        FleetPlan {
            base_seed,
            config: SystemConfig::new(fabric),
            policies: Vec::new(),
            devices: 8,
            suite: SuiteSpec::full(),
            mission_years: DEFAULT_MISSION_YEARS,
            horizon_years: DEFAULT_HORIZON_YEARS,
            aging: CalibratedAging::default(),
            inject_faults: true,
            histogram_bins: 20,
            lanes: None,
            shard_devices: DEFAULT_SHARD_DEVICES,
            detail_devices: DEFAULT_DETAIL_DEVICES,
            defects: Vec::new(),
        }
    }

    /// Replaces the system configuration.
    pub fn config(mut self, config: SystemConfig) -> FleetPlan {
        self.config = config;
        self
    }

    /// Adds a policy to the policy axis.
    pub fn policy(mut self, spec: PolicySpec) -> FleetPlan {
        self.policies.push(spec);
        self
    }

    /// Adds several policies to the policy axis.
    pub fn policies(mut self, specs: impl IntoIterator<Item = PolicySpec>) -> FleetPlan {
        self.policies.extend(specs);
        self
    }

    /// Sets the number of device instances per policy.
    pub fn devices(mut self, devices: usize) -> FleetPlan {
        self.devices = devices;
        self
    }

    /// Replaces the per-mission workload mix.
    pub fn suite(mut self, suite: SuiteSpec) -> FleetPlan {
        self.suite = suite;
        self
    }

    /// Sets the deployment years one mission models.
    pub fn mission_years(mut self, years: f64) -> FleetPlan {
        self.mission_years = years;
        self
    }

    /// Sets the observation horizon.
    pub fn horizon_years(mut self, years: f64) -> FleetPlan {
        self.horizon_years = years;
        self
    }

    /// Replaces the aging calibration.
    pub fn aging(mut self, aging: CalibratedAging) -> FleetPlan {
        self.aging = aging;
        self
    }

    /// Enables or disables the failure→allocation feedback loop.
    pub fn inject_faults(mut self, inject: bool) -> FleetPlan {
        self.inject_faults = inject;
        self
    }

    /// Sets the number of workload-seed lanes (DESIGN.md §12).
    pub fn lanes(mut self, lanes: usize) -> FleetPlan {
        self.lanes = Some(lanes);
        self
    }

    /// Sets the streaming shard size of the weighting phase.
    pub fn shard_devices(mut self, shard: usize) -> FleetPlan {
        self.shard_devices = shard;
        self
    }

    /// Sets how many leading devices keep full per-device detail.
    pub fn detail_devices(mut self, detail: usize) -> FleetPlan {
        self.detail_devices = detail;
        self
    }

    /// Seeds a manufacturing defect: `device`'s FU at `(row, col)` is dead
    /// from the first mission on.
    pub fn defect(mut self, device: usize, row: u32, col: u32) -> FleetPlan {
        self.defects.push(Defect { device, row, col });
        self
    }

    /// The number of distinct workload lanes the plan resolves to:
    /// [`FleetPlan::lanes`] clamped to the device count, or one lane per
    /// device when unset.
    pub fn effective_lanes(&self) -> usize {
        self.lanes.unwrap_or(self.devices).min(self.devices)
    }

    /// The workload lane of device `device`.
    pub fn lane_of(&self, device: usize) -> usize {
        device % self.effective_lanes().max(1)
    }

    /// The derived workload seed of device `device` (its lane's seed).
    pub fn device_seed(&self, device: usize) -> u64 {
        derive_cell_seed(self.base_seed, self.lane_of(device) as u64)
    }

    /// The population's `(lane, defects)` equivalence classes.
    fn classes(&self) -> ClassMap {
        let defects = self.defects.iter().map(|d| (d.device, (d.row, d.col)));
        ClassMap::build(self.devices, self.effective_lanes(), defects)
    }
}

/// One device's full deployment history inside a fleet report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceOutcome {
    /// Device index inside the fleet.
    pub device: usize,
    /// The workload-input seed the device ran (its lane's seed).
    pub seed: u64,
    /// Deployment time of death, `None` if alive at the horizon.
    pub death_years: Option<f64>,
    /// Deployment time of the first FU failure, if any FU failed.
    pub first_failure_years: Option<f64>,
    /// Missions completed before death/horizon.
    pub missions: u64,
    /// Suite evaluations this device's equivalence class charged to it,
    /// each recorded as a full session or replayed from an offload tape:
    /// the class representative (its lowest device index) carries the
    /// class's full count, every other member reports 0 — missions beyond
    /// those reused a cached duty grid (DESIGN.md §12, §17).
    pub simulated_missions: u64,
    /// Every end-of-life crossing, in event order.
    pub failures: Vec<FuFailed>,
}

/// One policy's aggregated fleet results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyFleet {
    /// Policy spec string.
    pub policy: String,
    /// MTTF, death counts and the first-failure histogram.
    pub stats: FleetStats,
    /// The fleet survival curve.
    pub survival: SurvivalCurve,
    /// Distinct equivalence classes the population collapsed into.
    pub classes: usize,
    /// Suite evaluations actually run across all classes, recorded or
    /// replayed (the cost the class sharing amortizes over the whole
    /// fleet).
    pub simulated_missions: u64,
    /// Missions lived across the whole fleet (simulated or reused).
    pub total_missions: u64,
    /// Per-device histories of the first
    /// [`FleetReport::detail_devices`] devices, in device order.
    pub devices: Vec<DeviceOutcome>,
}

/// The serializable result of [`run_fleet`] (`results/survival.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Base experiment seed.
    pub base_seed: u64,
    /// Fabric rows.
    pub rows: u32,
    /// Fabric columns.
    pub cols: u32,
    /// Workload-suite label.
    pub suite: String,
    /// Devices per policy.
    pub devices: usize,
    /// Distinct workload lanes the population was drawn from.
    pub lanes: usize,
    /// How many leading devices carry full per-device detail.
    pub detail_devices: usize,
    /// Deployment years one mission models.
    pub mission_years: f64,
    /// Observation horizon in years.
    pub horizon_years: f64,
    /// Whether failures fed back into allocation.
    pub inject_faults: bool,
    /// Per-policy aggregates, in plan order.
    pub policies: Vec<PolicyFleet>,
}

impl FleetReport {
    /// The aggregate for the policy whose spec string is `policy`.
    pub fn policy(&self, policy: &str) -> Option<&PolicyFleet> {
        self.policies.iter().find(|p| p.policy == policy)
    }
}

/// One equivalence class's deployment, simulated once on the reference
/// [`DeviceLifetime`] path: the outcome every member of the class shares
/// (DESIGN.md §12).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct ClassTrajectory {
    /// Deployment time of death, `None` if alive at the horizon.
    death_years: Option<f64>,
    /// Deployment time of the first FU failure, if any FU failed.
    first_failure_years: Option<f64>,
    /// Missions completed before death/horizon.
    missions: u64,
    /// Every end-of-life crossing, in event order.
    failures: Vec<FuFailed>,
    /// Suite evaluations actually run for this class, recorded or
    /// replayed.
    simulated_missions: u64,
}

/// Simulates one class's whole deployment under `spec` on the reference
/// path: run a mission (one suite pass against the current fault mask),
/// fold its duty into the wear state, inject failures, repeat —
/// re-simulating only when the fault mask changed — until the horizon
/// (DESIGN.md §11, §12). The device dies at the first workload that finds
/// no legal placement.
fn simulate_trajectory(
    plan: &FleetPlan,
    spec: &PolicySpec,
    store: &mut TapeStore<'_>,
    defects: &[(u32, u32)],
) -> Result<ClassTrajectory, SystemError> {
    let mut life = DeviceLifetime::new(&plan.config.fabric, plan.aging, plan.inject_faults);
    for &(row, col) in defects {
        life.seed_fault(row, col);
    }
    let mut cached: Option<(u32, UtilizationGrid)> = None;
    let mut simulated = 0u64;
    'life: while life.elapsed_years() < plan.horizon_years {
        // The mask is monotone, so its dead count keys the cached mission.
        let key = life.fault_mask().dead_count();
        if cached.as_ref().is_none_or(|(k, _)| *k != key) {
            simulated += 1;
            let mut merged = UtilizationTracker::new(&plan.config.fabric);
            let mut cycles = 0u64;
            let config =
                SystemConfig { faults: Some(life.fault_mask().clone()), ..plan.config.clone() };
            for workload in 0..plan.suite.members.len() {
                let Some(run) = campaign::device_run(store, &config, spec, workload)? else {
                    life.retire();
                    break 'life;
                };
                cycles += run.stats.total_cycles();
                merged.merge(&run.tracker);
            }
            cached = Some((key, merged.duty_cycles(cycles)));
        }
        let (_, duty) = cached.as_ref().expect("mission cached above");
        life.advance_mission(duty, plan.mission_years);
    }
    publish_missions(life.missions());
    Ok(ClassTrajectory {
        death_years: life.death_years(),
        first_failure_years: life.first_failure_years(),
        missions: life.missions(),
        failures: life.failures().to_vec(),
        simulated_missions: simulated,
    })
}

/// Publishes the missions one fleet or serving trajectory lived, once per
/// trajectory however long it ran (DESIGN.md §16).
pub(crate) fn publish_missions(missions: u64) {
    if missions > 0 {
        obs::publish(|reg| reg.counter_add("wear.missions", missions));
    }
}

/// One policy's streaming aggregate over the completed shards: a
/// canonical monoid, so it folds exactly regardless of the split.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PolicyAccum {
    /// Death and first-failure observations.
    fleet: FleetAccum,
    /// Missions lived across the folded devices (simulated or reused).
    total_missions: u64,
}

/// The fleet engine's physics on the shared [`campaign`] driver.
impl Campaign for FleetPlan {
    /// One per (policy × class).
    type Trajectory = ClassTrajectory;
    /// One cell per policy.
    type Accum = PolicyAccum;
    type Report = FleetReport;

    const KIND: Kind = Kind {
        magic: "uaware-fleet-checkpoint",
        noun: "fleet",
        trajectories_span: "fleet.trajectories",
        shards_span: "fleet.shards",
        checkpoint_span: "fleet.checkpoint",
    };

    /// One class's deployment under every policy: a cell per policy. The
    /// policies share the task's tape store, so each workload is recorded
    /// once and replayed for every later policy and fault mask (DESIGN.md
    /// §17).
    fn simulate(
        &self,
        (_, defects): &ClassKey,
        store: &mut TapeStore<'_>,
    ) -> Vec<Result<ClassTrajectory, SystemError>> {
        self.policies.iter().map(|spec| simulate_trajectory(self, spec, store, defects)).collect()
    }

    /// Weights one class's outcome by its member count (DESIGN.md §12).
    fn observe(accum: &mut PolicyAccum, t: &ClassTrajectory, members: u64) {
        accum.fleet.observe_weighted(t.death_years, t.first_failure_years, members);
        accum.total_missions += t.missions * members;
    }

    /// Aggregates every policy and reads the detail devices off their
    /// classes' trajectories.
    fn report(
        &self,
        classes: &ClassMap,
        cells: Vec<(PolicyAccum, &[ClassTrajectory])>,
    ) -> FleetReport {
        let outcome = |trajectories: &[ClassTrajectory], device: usize| {
            let class = classes.class_of(device) as usize;
            let t = &trajectories[class];
            DeviceOutcome {
                device,
                seed: self.device_seed(device),
                death_years: t.death_years,
                first_failure_years: t.first_failure_years,
                missions: t.missions,
                simulated_missions: if classes.representatives[class] == device {
                    t.simulated_missions
                } else {
                    0
                },
                failures: t.failures.clone(),
            }
        };
        let detail = 0..self.detail_devices.min(self.devices);
        let policies = self
            .policies
            .iter()
            .zip(cells)
            .map(|(spec, (accum, trajectories))| PolicyFleet {
                policy: spec.to_string(),
                stats: accum.fleet.stats(self.horizon_years, self.histogram_bins),
                survival: accum.fleet.survival(self.horizon_years),
                classes: classes.count(),
                simulated_missions: trajectories.iter().map(|t| t.simulated_missions).sum(),
                total_missions: accum.total_missions,
                devices: detail.clone().map(|device| outcome(trajectories, device)).collect(),
            })
            .collect();
        FleetReport {
            base_seed: self.base_seed,
            rows: self.config.fabric.rows,
            cols: self.config.fabric.cols,
            suite: self.suite.name.clone(),
            devices: self.devices,
            lanes: self.effective_lanes(),
            detail_devices: self.detail_devices,
            mission_years: self.mission_years,
            horizon_years: self.horizon_years,
            inject_faults: self.inject_faults,
            policies,
        }
    }
}

/// What [`run_fleet_campaign`] came back with.
pub type CampaignStatus = Status<FleetReport>;

/// Runs every (policy × device) cell of `plan` — [`run_fleet`] with
/// checkpoint/resume and early-stop control on the shared [`campaign`]
/// engine. Sharded across `jobs` workers (`0` = all cores, `1` =
/// sequential); the report is **byte-identical for every worker count,
/// every shard split, and every kill/resume point**: trajectories are
/// deterministic per class, a shard's member counts are a pure function
/// of the plan, and the per-policy aggregates fold through
/// [`FleetAccum`]'s canonical monoid.
///
/// # Errors
///
/// A movement policy on a movement-less configuration is rejected before
/// anything runs; otherwise the error of the lowest-indexed failing
/// (policy × class) cell is returned.
/// ([`SystemError::AllocationExhausted`] is *not* an error here — it is a
/// device death, part of the result.)
///
/// # Panics
///
/// Panics on a non-positive (or non-finite) `mission_years` or
/// `horizon_years`, a zero `histogram_bins`, `shard_devices` or `lanes`,
/// an out-of-range [`Defect`] — plan-construction bugs — and on
/// checkpoint IO failures or a checkpoint that does not match the plan.
pub fn run_fleet_campaign(
    plan: &FleetPlan,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<CampaignStatus, SystemError> {
    assert!(
        plan.mission_years > 0.0 && plan.mission_years.is_finite(),
        "mission_years must be positive and finite, got {}",
        plan.mission_years
    );
    assert!(
        plan.horizon_years > 0.0 && plan.horizon_years.is_finite(),
        "horizon_years must be positive and finite, got {}",
        plan.horizon_years
    );
    assert!(plan.histogram_bins > 0, "histogram_bins must be positive");
    for d in &plan.defects {
        assert!(
            d.device < plan.devices
                && d.row < plan.config.fabric.rows
                && d.col < plan.config.fabric.cols,
            "defect {d:?} outside the fleet"
        );
    }
    let population = Population {
        base_seed: plan.base_seed,
        config: &plan.config,
        policies: &plan.policies,
        suite: &plan.suite,
        devices: plan.devices,
        shard_devices: plan.shard_devices,
        classes: plan.classes(),
        cells: plan.policies.len(),
    };
    campaign::run(plan, population, jobs, options)
}

/// Runs every (policy × device) cell of `plan`, sharded across `jobs`
/// workers (`0` = all cores, `1` = sequential), and aggregates per-policy
/// survival curves, MTTF and first-failure histograms. Like
/// [`run_sweep`](crate::sweep::run_sweep), the report is **byte-identical
/// for every worker count** (and every shard split — see
/// [`run_fleet_campaign`] for checkpoint/resume control).
///
/// # Errors
///
/// See [`run_fleet_campaign`].
///
/// # Panics
///
/// See [`run_fleet_campaign`].
pub fn run_fleet(plan: &FleetPlan, jobs: usize) -> Result<FleetReport, SystemError> {
    run_fleet_campaign(plan, jobs, &CampaignOptions::default()).map(Status::unwrap_complete)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::system::BuildError;
    use cgra::Fabric;

    /// A one-benchmark mix keeps the closed loop fast in debug builds.
    fn mini_plan() -> FleetPlan {
        FleetPlan::new(7, Fabric::be())
            .suite(SuiteSpec::subset("crc", vec![1]))
            .devices(2)
            .mission_years(1.0)
            .horizon_years(30.0)
    }

    #[test]
    fn baseline_dies_at_its_analytic_lifetime() {
        let plan = mini_plan().policy(PolicySpec::Baseline);
        let report = run_fleet(&plan, 1).unwrap();
        let fleet = report.policy("baseline").unwrap();
        assert_eq!(fleet.devices.len(), 2);
        for device in &fleet.devices {
            // The corner FU runs in ~every execution, so the first failure
            // lands near the 3-year anchor and death follows within one
            // mission (the baseline has no second placement).
            let first = device.first_failure_years.expect("corner FU must fail");
            let death = device.death_years.expect("baseline cannot survive its corner");
            assert!((2.9..=3.5).contains(&first), "first failure at {first}");
            assert!(death >= first && death <= first + plan.mission_years + 1e-9);
            assert!(!device.failures.is_empty());
            assert!(
                device.simulated_missions < device.missions,
                "unchanged-mask missions must reuse their duty, not re-simulate"
            );
        }
        assert_eq!(fleet.stats.deaths, 2);
        assert_eq!(fleet.survival.points.last().unwrap().1, 0.0);
        assert_eq!(fleet.classes, 2, "per-device lanes mean per-device classes");
    }

    #[test]
    fn open_loop_never_retires_anyone() {
        let plan = mini_plan().policy(PolicySpec::Baseline).inject_faults(false);
        let report = run_fleet(&plan, 1).unwrap();
        let fleet = report.policy("baseline").unwrap();
        for device in &fleet.devices {
            assert_eq!(device.death_years, None, "open loop records failures only");
            assert!(device.first_failure_years.is_some());
        }
        assert_eq!(fleet.stats.deaths, 0);
        assert_eq!(fleet.stats.mttf_years, plan.horizon_years, "all censored at the horizon");
    }

    #[test]
    fn fleet_rejects_movement_specs_without_hardware() {
        let mut plan = mini_plan().policy(PolicySpec::rotation());
        plan.config.movement_hardware = false;
        let err = run_fleet(&plan, 1).unwrap_err();
        assert!(matches!(err, SystemError::Build(BuildError::MovementHardwareAbsent { .. })));
    }

    #[test]
    fn device_seeds_vary_but_device_zero_keeps_the_base() {
        let plan = mini_plan();
        assert_eq!(plan.device_seed(0), 7);
        assert_ne!(plan.device_seed(1), plan.device_seed(0));
    }

    #[test]
    fn shard_splits_never_change_the_report() {
        let plan = mini_plan().policy(PolicySpec::Baseline);
        let whole = run_fleet(&plan.clone().shard_devices(64), 1).unwrap();
        let singles = run_fleet(&plan.clone().shard_devices(1), 1).unwrap();
        // The split is not part of the artefact, so compare the bytes.
        assert_eq!(
            serde_json::to_string(&whole).unwrap(),
            serde_json::to_string(&singles).unwrap()
        );
    }

    #[test]
    fn lanes_collapse_devices_into_shared_classes() {
        let plan = mini_plan().policy(PolicySpec::Baseline).devices(4).lanes(1);
        let report = run_fleet(&plan, 1).unwrap();
        let fleet = report.policy("baseline").unwrap();
        assert_eq!(report.lanes, 1);
        assert_eq!(fleet.classes, 1);
        // One trajectory serves all four devices: only the representative
        // carries the simulation bill …
        assert!(fleet.devices[0].simulated_missions > 0);
        for device in &fleet.devices[1..] {
            assert_eq!(device.simulated_missions, 0);
            // … and every member reproduces its history exactly.
            assert_eq!(device.death_years, fleet.devices[0].death_years);
            assert_eq!(device.failures, fleet.devices[0].failures);
            assert_eq!(device.seed, fleet.devices[0].seed);
        }
        assert_eq!(fleet.simulated_missions, fleet.devices[0].simulated_missions);
    }

    #[test]
    fn class_map_forks_on_defects() {
        let plan = mini_plan().devices(4).lanes(1).defect(2, 0, 0).defect(2, 0, 0);
        let classes = plan.classes();
        assert_eq!(classes.count(), 2);
        assert_eq!((0..4).map(|d| classes.class_of(d)).collect::<Vec<_>>(), vec![0, 0, 1, 0]);
        assert_eq!(classes.representatives, vec![0, 2]);
        assert_eq!(classes.keys[1].1, vec![(0, 0)], "duplicate defects deduplicate");
    }

    /// The per-device partition: every device's class, numbered by first
    /// appearance, with each class's key and representative. The oracle
    /// for [`ClassMap`]'s per-lane form.
    fn enumerated_classes(plan: &FleetPlan) -> (Vec<u32>, Vec<ClassKey>, Vec<usize>) {
        let lanes = plan.effective_lanes().max(1);
        let (mut class_of, mut keys, mut representatives) = (Vec::new(), Vec::new(), Vec::new());
        for device in 0..plan.devices {
            let mut cells: Vec<(u32, u32)> = plan
                .defects
                .iter()
                .filter(|d| d.device == device)
                .map(|d| (d.row, d.col))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            let key = (device % lanes, cells);
            let class = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                representatives.push(device);
                keys.len() - 1
            });
            class_of.push(class as u32);
        }
        (class_of, keys, representatives)
    }

    proptest::proptest! {
        /// The class map and its per-shard member counts agree with a
        /// device-by-device enumeration on every population and range.
        #[test]
        fn class_members_match_a_per_device_enumeration(
            devices in 0usize..=40,
            lanes in 1usize..=5,
            defects in proptest::collection::vec((0usize..40, 0u32..2, 0u32..2), 0..8),
            (a, b) in (0usize..=40, 0usize..=40),
        ) {
            let mut plan = mini_plan().devices(devices).lanes(lanes);
            for &(device, row, col) in &defects {
                if devices > 0 {
                    plan = plan.defect(device % devices, row, col);
                }
            }
            let (class_of, keys, representatives) = enumerated_classes(&plan);
            let classes = plan.classes();
            proptest::prop_assert_eq!(&classes.keys, &keys);
            proptest::prop_assert_eq!(&classes.representatives, &representatives);
            for (device, &class) in class_of.iter().enumerate() {
                proptest::prop_assert_eq!(classes.class_of(device), class);
            }
            let range = a.min(b).min(devices)..a.max(b).min(devices);
            let mut expected: BTreeMap<u32, u64> = BTreeMap::new();
            for device in range.clone() {
                *expected.entry(class_of[device]).or_default() += 1;
            }
            proptest::prop_assert_eq!(classes.members(range), expected.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn fingerprint_tracks_every_plan_knob() {
        let plan = mini_plan();
        let fingerprint = |plan: &FleetPlan| campaign::fingerprint(plan);
        assert_eq!(fingerprint(&plan), fingerprint(&plan.clone()));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().devices(3)));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().shard_devices(1)));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().defect(0, 0, 0)));
    }
}
