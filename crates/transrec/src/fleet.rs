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
//!    manufacturing [`Defect`]s — share one closed-loop simulation. Each
//!    (policy × class) cell is simulated once on the reference
//!    [`lifetime::DeviceLifetime`] path, re-running the suite only when
//!    the fault mask changes and recording a replay script of (duty grid,
//!    mission count) segments: a homogeneous fleet costs one suite run per
//!    distinct failure trajectory, not per device.
//! 2. **Class replay.** Devices stream through contiguous shards of
//!    [`FleetPlan::shard_devices`]. Each shard counts its members per
//!    class arithmetically (a lane's residues minus its defective
//!    devices), replays each present class's script once on a one-lane
//!    [`lifetime::WearBatch`] (advanced by the tight `age += dt·u` loop,
//!    bit-identical to the per-device path), and folds that class's death
//!    and first-failure times, weighted by its member count, into a
//!    per-policy [`lifetime::FleetAccum`] — a merge monoid, so shard
//!    partials aggregate exactly regardless of the split. Phase 2 costs
//!    O(classes) per shard, and memory is O(classes + defects), never
//!    O(devices): only the first [`FleetPlan::detail_devices`] devices are
//!    visited one by one.
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

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

use lifetime::{DeviceLifetime, FleetAccum, FleetStats, FuFailed, SurvivalCurve, WearBatch};
use mibench::Workload;
use nbti::CalibratedAging;
use obs::Registry;
use serde::{Deserialize, Serialize};
use uaware::{derive_cell_seed, PolicySpec, UtilizationGrid, UtilizationTracker};

use crate::campaign::{self, run_masked, Campaign, Kind, Population, Status};
use crate::sweep::SuiteSpec;
use crate::system::{SystemConfig, SystemError};

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
    /// Devices per streaming shard of the class-replay phase. Never
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

    /// Sets the streaming shard size of the class-replay phase.
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
    /// Suite simulations this device's equivalence class charged to it:
    /// the class representative (its lowest device index) carries the
    /// class's full count, every other member reports 0 — missions beyond
    /// those replayed a recorded duty grid (DESIGN.md §12).
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
    /// Suite simulations actually run across all classes (the cost the
    /// class sharing amortizes over the whole fleet).
    pub simulated_missions: u64,
    /// Missions lived across the whole fleet (simulated or replayed).
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

/// One equivalence class's recorded deployment: the closed loop as a
/// replay script of `(duty grid, missions)` segments, simulated once on
/// the reference [`DeviceLifetime`] path and replayed once per shard on a
/// one-lane [`WearBatch`] that stands for every class member in the shard
/// (DESIGN.md §12).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ClassTrajectory {
    /// Each segment replays one simulated mission's duty grid for `count`
    /// consecutive missions (until the fault mask changed).
    segments: Vec<(UtilizationGrid, u64)>,
    /// The device retired (allocation exhausted) after the last segment.
    died: bool,
    /// Suite simulations actually run for this class.
    simulated_missions: u64,
}

/// An equivalence class's key: the workload lane and the sorted,
/// deduplicated defect cells its members share (DESIGN.md §12).
type ClassKey = (usize, Vec<(u32, u32)>);

/// The fleet's partition into `(lane, defects)` equivalence classes —
/// identical for every policy, built once per campaign in O(lanes +
/// defects): the defect-free majority of each lane is one class, and only
/// defective devices are stored one by one.
struct ClassMap {
    /// Workload lanes the devices are spread over round-robin.
    lanes: usize,
    /// Per lane: the class of its defect-free devices, `None` when every
    /// device of the lane is defective.
    lane_class: Vec<Option<u32>>,
    /// The class of every defective device.
    defective: BTreeMap<usize, u32>,
    /// Per class: its key.
    keys: Vec<ClassKey>,
    /// Per class: its representative — the lowest member device index,
    /// which carries the class's `simulated_missions` in the report.
    representatives: Vec<usize>,
}

impl ClassMap {
    /// Partitions `plan`'s population. Classes are numbered in order of
    /// first appearance (by device index), so the map is deterministic.
    fn build(plan: &FleetPlan) -> ClassMap {
        let lanes = plan.effective_lanes().max(1);
        let mut defects: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
        for d in &plan.defects {
            defects.entry(d.device).or_default().push((d.row, d.col));
        }
        for cells in defects.values_mut() {
            cells.sort_unstable();
            cells.dedup();
        }
        // Every class keyed by its first member, so the map iterates in
        // class order: a lane's first defect-free device (found by skipping
        // only that lane's defective devices), and the lowest device of
        // each defect key.
        let mut firsts: BTreeMap<usize, ClassKey> = BTreeMap::new();
        for lane in 0..lanes.min(plan.devices) {
            let mut members = (lane..plan.devices).step_by(lanes);
            if let Some(first) = members.find(|device| !defects.contains_key(device)) {
                firsts.insert(first, (lane, Vec::new()));
            }
        }
        let mut keyed: BTreeMap<ClassKey, usize> = BTreeMap::new();
        for (&device, cells) in &defects {
            keyed.entry((device % lanes, cells.clone())).or_insert(device);
        }
        firsts.extend(keyed.into_iter().map(|(key, first)| (first, key)));
        let class_of: BTreeMap<&ClassKey, u32> =
            firsts.values().enumerate().map(|(class, key)| (key, class as u32)).collect();
        let lane_class =
            (0..lanes).map(|lane| class_of.get(&(lane, Vec::new())).copied()).collect();
        let defective = defects
            .iter()
            .map(|(&device, cells)| (device, class_of[&(device % lanes, cells.clone())]))
            .collect();
        let (representatives, keys) = firsts.into_iter().unzip();
        ClassMap { lanes, lane_class, defective, keys, representatives }
    }

    /// Number of distinct classes.
    fn count(&self) -> usize {
        self.keys.len()
    }

    /// The class of device `device`.
    fn class_of(&self, device: usize) -> u32 {
        match self.defective.get(&device) {
            Some(&class) => class,
            None => self.lane_class[device % self.lanes].expect("a defect-free lane has a class"),
        }
    }

    /// How many devices of `devices` each class holds, in class order,
    /// omitting empty classes. Counted per lane and per defective device,
    /// never per device: a lane's members in the range are its residue
    /// count minus the defective ones.
    fn members(&self, devices: Range<usize>) -> Vec<(u32, u64)> {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        // Every lane with members in the range has one among its first
        // `lanes` devices.
        for first in devices.start..devices.end.min(devices.start + self.lanes) {
            if let Some(class) = self.lane_class[first % self.lanes] {
                *counts.entry(class).or_default() +=
                    (devices.end - first).div_ceil(self.lanes) as u64;
            }
        }
        for (&device, &class) in self.defective.range(devices) {
            if let Some(lane_class) = self.lane_class[device % self.lanes] {
                *counts.get_mut(&lane_class).expect("the defective device's lane was counted") -= 1;
            }
            *counts.entry(class).or_default() += 1;
        }
        counts.into_iter().filter(|&(_, members)| members > 0).collect()
    }
}

/// What one class member lived through: its trajectory replayed once on
/// a one-lane [`WearBatch`], shared by every member (DESIGN.md §12).
struct ClassReplay {
    /// Deployment time of death, `None` if alive at the horizon.
    death_years: Option<f64>,
    /// Deployment time of the first FU failure, if any FU failed.
    first_failure_years: Option<f64>,
    /// Missions completed before death/horizon.
    missions: u64,
    /// Every end-of-life crossing, in event order.
    failures: Vec<FuFailed>,
}

/// Replays `trajectory`'s script on a one-lane [`WearBatch`]: bit-identical
/// to advancing each member's own lane, and it emits one
/// `wear.class.advances` per mission whatever the member count.
fn replay_class(plan: &FleetPlan, trajectory: &ClassTrajectory) -> ClassReplay {
    let mut batch = WearBatch::new(&plan.config.fabric, plan.aging, 1);
    let mut failures = Vec::new();
    for (duty, count) in &trajectory.segments {
        for _ in 0..*count {
            failures.extend(batch.advance_class(&[0], duty, plan.mission_years));
        }
    }
    ClassReplay {
        death_years: trajectory.died.then(|| batch.elapsed_years(0)),
        first_failure_years: failures.first().map(|f| f.at_years),
        missions: batch.missions(0),
        failures,
    }
}

/// Simulates one (policy × class) cell's whole deployment on the reference
/// path: run a mission (one suite pass against the current fault mask),
/// fold its duty into the wear state, inject failures, repeat —
/// re-simulating only when the fault mask changed — and record the replay
/// script (DESIGN.md §11, §12). The device dies at the first workload
/// that finds no legal placement.
fn simulate_trajectory(
    plan: &FleetPlan,
    spec: &PolicySpec,
    workloads: &[Workload],
    defects: &[(u32, u32)],
) -> Result<ClassTrajectory, SystemError> {
    let mut life = DeviceLifetime::new(&plan.config.fabric, plan.aging, plan.inject_faults);
    for &(row, col) in defects {
        life.seed_fault(row, col);
    }
    let mut cached: Option<(u32, UtilizationGrid)> = None;
    let mut segments: Vec<(UtilizationGrid, u64)> = Vec::new();
    let mut simulated = 0u64;
    while life.elapsed_years() < plan.horizon_years {
        // The mask is monotone, so its dead count keys the cached mission.
        let key = life.fault_mask().dead_count();
        if cached.as_ref().is_none_or(|(k, _)| *k != key) {
            simulated += 1;
            let mut merged = UtilizationTracker::new(&plan.config.fabric);
            let mut cycles = 0u64;
            for run in run_masked(&plan.config, spec, life.fault_mask(), workloads) {
                let Some(system) = run? else {
                    return Ok(ClassTrajectory {
                        segments,
                        died: true,
                        simulated_missions: simulated,
                    });
                };
                cycles += system.stats().total_cycles();
                merged.merge(system.tracker());
            }
            let duty = merged.duty_cycles(cycles);
            segments.push((duty.clone(), 0));
            cached = Some((key, duty));
        }
        let (_, duty) = cached.as_ref().expect("mission cached above");
        life.advance_mission(duty, plan.mission_years);
        segments.last_mut().expect("segment pushed above").1 += 1;
    }
    Ok(ClassTrajectory { segments, died: false, simulated_missions: simulated })
}

/// One policy's streaming aggregate over the completed shards: a merge
/// monoid, so shard partials fold exactly regardless of the split.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct PolicyAccum {
    /// Death and first-failure observations.
    fleet: FleetAccum,
    /// Missions lived across the folded devices (simulated or replayed).
    total_missions: u64,
    /// Detailed outcomes of the folded devices below
    /// [`FleetPlan::detail_devices`], in device order.
    devices: Vec<DeviceOutcome>,
}

/// The fleet engine's plug-in to the shared [`campaign`] driver: the plan
/// plus its class partition.
struct FleetCampaign<'a> {
    plan: &'a FleetPlan,
    classes: ClassMap,
}

impl Campaign for FleetCampaign<'_> {
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

    fn plan(&self) -> &dyn Debug {
        self.plan
    }

    fn population(&self) -> Population<'_> {
        let plan = self.plan;
        Population {
            base_seed: plan.base_seed,
            config: &plan.config,
            policies: &plan.policies,
            suite: &plan.suite,
            devices: plan.devices,
            lanes: plan.effective_lanes(),
            shard_devices: plan.shard_devices,
        }
    }

    fn lanes(&self) -> usize {
        self.plan.effective_lanes()
    }

    fn cell_count(&self) -> usize {
        self.plan.policies.len()
    }

    fn classes(&self) -> usize {
        self.classes.count()
    }

    /// One trajectory per task.
    fn tasks(&self) -> usize {
        self.plan.policies.len() * self.classes.count()
    }

    fn simulate(
        &self,
        task: usize,
        workloads: &[Vec<Workload>],
    ) -> Vec<(usize, Result<ClassTrajectory, SystemError>)> {
        let (policy, class) = (task / self.classes.count(), task % self.classes.count());
        let (lane, defects) = &self.classes.keys[class];
        let spec = &self.plan.policies[policy];
        vec![(task, simulate_trajectory(self.plan, spec, &workloads[*lane], defects))]
    }

    /// Replays one shard of devices for one policy (DESIGN.md §12): count
    /// the shard's members per class, replay each present class once with
    /// [`replay_class`], and fold its observations weighted by its member
    /// count into a shard-local accumulator. Only devices below
    /// [`FleetPlan::detail_devices`] are visited one by one.
    fn run_shard(
        &self,
        trajectories: &[ClassTrajectory],
        devices: Range<usize>,
        collect_metrics: bool,
    ) -> (PolicyAccum, Registry) {
        let (plan, classes) = (self.plan, &self.classes);
        let mut accum = PolicyAccum::default();
        let mut metrics = Registry::new();
        let mut replays: BTreeMap<u32, ClassReplay> = BTreeMap::new();
        for (class, members) in classes.members(devices.clone()) {
            let trajectory = &trajectories[class as usize];
            // One replay stands for `members` devices, so its registry
            // folds in weight-scaled — the same equivalence-class fast
            // path as `FleetAccum::observe_weighted`. Class replays emit
            // member-count-independent events only, which is what makes
            // the scaled fold shard-split invariant (DESIGN.md §16).
            let replay = if collect_metrics {
                let (replay, reg) = obs::collect(|| replay_class(plan, trajectory));
                metrics.add_scaled(&reg, members);
                replay
            } else {
                replay_class(plan, trajectory)
            };
            accum.fleet.observe_weighted(replay.death_years, replay.first_failure_years, members);
            accum.total_missions += replay.missions * members;
            replays.insert(class, replay);
        }
        for device in devices.start..devices.end.min(plan.detail_devices) {
            let class = classes.class_of(device);
            let replay = &replays[&class];
            accum.devices.push(DeviceOutcome {
                device,
                seed: plan.device_seed(device),
                death_years: replay.death_years,
                first_failure_years: replay.first_failure_years,
                missions: replay.missions,
                simulated_missions: if classes.representatives[class as usize] == device {
                    trajectories[class as usize].simulated_missions
                } else {
                    0
                },
                failures: replay.failures.clone(),
            });
        }
        (accum, metrics)
    }

    fn merge(accum: &mut PolicyAccum, partial: PolicyAccum) {
        accum.fleet.merge(&partial.fleet);
        accum.total_missions += partial.total_missions;
        accum.devices.extend(partial.devices);
    }

    fn report(&self, cells: Vec<(PolicyAccum, &[ClassTrajectory])>) -> FleetReport {
        let plan = self.plan;
        let policies = plan
            .policies
            .iter()
            .zip(cells)
            .map(|(spec, (accum, trajectories))| PolicyFleet {
                policy: spec.to_string(),
                stats: accum.fleet.stats(plan.horizon_years, plan.histogram_bins),
                survival: accum.fleet.survival(plan.horizon_years),
                classes: self.classes.count(),
                simulated_missions: trajectories.iter().map(|t| t.simulated_missions).sum(),
                total_missions: accum.total_missions,
                devices: accum.devices,
            })
            .collect();
        FleetReport {
            base_seed: plan.base_seed,
            rows: plan.config.fabric.rows,
            cols: plan.config.fabric.cols,
            suite: plan.suite.name.clone(),
            devices: plan.devices,
            lanes: plan.effective_lanes(),
            detail_devices: plan.detail_devices,
            mission_years: plan.mission_years,
            horizon_years: plan.horizon_years,
            inject_faults: plan.inject_faults,
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
/// deterministic per class, shard replay is a pure function of (plan,
/// trajectories), and the per-policy aggregates merge through
/// [`FleetAccum`]'s canonical monoid in shard order.
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
/// `horizon_years`, a zero `shard_devices` or `lanes`, an out-of-range
/// [`Defect`] — plan-construction bugs — and on checkpoint IO failures or
/// a checkpoint that does not match the plan.
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
    for d in &plan.defects {
        assert!(
            d.device < plan.devices
                && d.row < plan.config.fabric.rows
                && d.col < plan.config.fabric.cols,
            "defect {d:?} outside the fleet"
        );
    }
    campaign::run(&FleetCampaign { plan, classes: ClassMap::build(plan) }, jobs, options)
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
                "unchanged-mask missions must replay, not re-simulate"
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
        let classes = ClassMap::build(&plan);
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
            let classes = ClassMap::build(&plan);
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
