//! The one campaign engine behind [`fleet`](crate::fleet) and
//! [`traffic`](crate::traffic) (DESIGN.md §12). Phase 1 runs one task per
//! equivalence class, which simulates that class in every cell (fleet's
//! cells are its policies, serving's its traffic profiles × policies);
//! each trajectory *is* its class's outcome in its cell. Phase 2 is pure
//! arithmetic: device shards stream through in waves, and each shard
//! weights every class's trajectory by its member count into per-cell
//! monoid accumulators. An optional checkpoint — one versioned envelope
//! for every kind — makes the campaign kill-safe. A kind plugs in through
//! the crate-private `Campaign` trait and keeps only its physics
//! (simulate, observe, report); the engine owns everything else: the
//! entry checks, the class partition (`ClassMap`), each lane's workload
//! mix, the task's [`TapeStore`], the trajectory slots and the shard
//! split. A task runs its suite passes through that store, each on the
//! configuration of the fault mask it faces: each workload is recorded
//! once per task and replayed for every other policy and fault mask
//! (DESIGN.md §17).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;
use std::path::{Path, PathBuf};

use mibench::Workload;
use obs::Registry;
use serde::{Deserialize, Serialize, Value};
use threadpool::ThreadPool;
use tracing::{span, Level};
use uaware::{derive_cell_seed, PolicySpec};

use crate::sweep::{par_map_observed, SuiteSpec};
use crate::system::{check_movement, SystemConfig, SystemError};
use crate::tape::{TapeRun, TapeStore, WorkloadRun};

/// Checkpoint format version of every campaign kind; bumped on any layout
/// change so stale files are rejected instead of misread. v2 added the
/// metrics registry (DESIGN.md §16); v3 moved fleet and serving onto this
/// module's shared envelope; v4 made a fleet trajectory its class outcome
/// and dropped the per-device detail from the fleet accumulator.
const CHECKPOINT_VERSION: u32 = 4;

/// Campaign-level controls: checkpointing and cooperative early stop
/// (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Persist progress to this path (and resume from it if it exists).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint after every wave of this many shards (`0` acts as `1`).
    /// Only meaningful with a checkpoint path.
    pub checkpoint_every_shards: usize,
    /// Stop (with a checkpoint, if configured) once this many shards have
    /// completed, returning [`Status::Paused`] — the hook the kill/resume
    /// regression tests and the CI resume leg drive.
    pub stop_after_shards: Option<usize>,
    /// Collect the deterministic metrics registry while the campaign runs
    /// and fold it into [`obs::global`] on completion (DESIGN.md §16). Off
    /// by default: sessions and replays publish their counters once per
    /// call and serving days once per day, which is cheap but not free,
    /// and most callers (tests, benches) do not read the registry.
    pub collect_metrics: bool,
}

/// What a campaign came back with.
#[derive(Clone, Debug, PartialEq)]
pub enum Status<R> {
    /// The campaign ran to the horizon; here is the full report.
    Complete(Box<R>),
    /// The campaign stopped early at a shard boundary
    /// ([`CampaignOptions::stop_after_shards`]); re-run with the same
    /// checkpoint path to continue.
    Paused {
        /// Shards completed so far (also the resume point).
        completed_shards: usize,
        /// Total shards in the campaign.
        total_shards: usize,
    },
}

impl<R> Status<R> {
    /// The report of a campaign that was run without a stop request.
    ///
    /// # Panics
    ///
    /// Panics if the campaign paused.
    pub fn unwrap_complete(self) -> R {
        match self {
            Status::Complete(report) => *report,
            Status::Paused { .. } => unreachable!("no stop was requested"),
        }
    }
}

/// Everything [`run`] needs besides a kind's physics: the device
/// population both kinds' plans describe the same way — the policy axis on
/// one system configuration, `devices` per cell streamed in shards of
/// `shard_devices` — its equivalence classes, and its cell count
/// (DESIGN.md §12).
pub(crate) struct Population<'a> {
    /// Base experiment seed; lane `l` draws its workloads from
    /// [`derive_cell_seed`]`(base_seed, l)`.
    pub base_seed: u64,
    /// The system configuration every device ships with.
    pub config: &'a SystemConfig,
    /// The policy axis.
    pub policies: &'a [PolicySpec],
    /// The workload mix each lane draws from.
    pub suite: &'a SuiteSpec,
    /// Devices per cell.
    pub devices: usize,
    /// Devices per streaming shard.
    pub shard_devices: usize,
    /// The population's equivalence classes, the same in every cell.
    pub classes: ClassMap,
    /// Cells, each simulated by every class: fleet has one per policy,
    /// serving one per (traffic profile × policy).
    pub cells: usize,
}

impl Population<'_> {
    /// Lane `lane`'s workload mix (lane 0 keeps the base seed).
    fn workloads(&self, lane: usize) -> Vec<Workload> {
        self.suite.workloads(derive_cell_seed(self.base_seed, lane as u64))
    }

    /// The devices of shard `shard`.
    fn shard(&self, shard: usize) -> Range<usize> {
        shard * self.shard_devices..((shard + 1) * self.shard_devices).min(self.devices)
    }
}

/// An equivalence class's key: the workload lane and the sorted,
/// deduplicated defect cells its members share (DESIGN.md §12).
pub(crate) type ClassKey = (usize, Vec<(u32, u32)>);

/// A population's partition into `(lane, defects)` equivalence classes,
/// identical for every cell and built once per campaign in O(lanes +
/// defects): devices spread round-robin over the lanes, the defect-free
/// majority of each lane is one class, and only defective devices are
/// stored one by one (DESIGN.md §12). Serving has no defects, so its
/// classes are its lanes.
pub(crate) struct ClassMap {
    /// Workload lanes the devices are spread over round-robin.
    lanes: usize,
    /// Per lane: the class of its defect-free devices, `None` when every
    /// device of the lane is defective.
    lane_class: Vec<Option<u32>>,
    /// The class of every defective device.
    defective: BTreeMap<usize, u32>,
    /// Per class: its key.
    pub keys: Vec<ClassKey>,
    /// Per class: its representative — the lowest member device index,
    /// which carries the class's simulation bill in a fleet report.
    pub representatives: Vec<usize>,
}

impl ClassMap {
    /// Partitions `devices` devices over `lanes` workload lanes, forking
    /// every device listed in `defects` (`(device, cell)` pairs) into the
    /// class of its lane and defect cells. Classes are numbered in order
    /// of first appearance (by device index), so the map is deterministic.
    /// A lane without any device still gets a class, represented by its
    /// own index: an empty serving fleet simulates one lane.
    ///
    /// # Panics
    ///
    /// Panics on a populated fleet without lanes.
    pub fn build(
        devices: usize,
        lanes: usize,
        defects: impl IntoIterator<Item = (usize, (u32, u32))>,
    ) -> ClassMap {
        assert!(devices == 0 || lanes > 0, "a populated fleet needs at least one workload lane");
        let mut cells_of: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
        for (device, cell) in defects {
            cells_of.entry(device).or_default().push(cell);
        }
        for cells in cells_of.values_mut() {
            cells.sort_unstable();
            cells.dedup();
        }
        // Every class keyed by its first member, so the map iterates in
        // class order: a lane's first defect-free device (found by skipping
        // only that lane's defective devices), and the lowest device of
        // each defect key.
        let mut firsts: BTreeMap<usize, ClassKey> = BTreeMap::new();
        for lane in 0..lanes {
            let first = if lane < devices {
                (lane..devices).step_by(lanes).find(|device| !cells_of.contains_key(device))
            } else {
                Some(lane)
            };
            if let Some(first) = first {
                firsts.insert(first, (lane, Vec::new()));
            }
        }
        let mut keyed: BTreeMap<ClassKey, usize> = BTreeMap::new();
        for (&device, cells) in &cells_of {
            keyed.entry((device % lanes, cells.clone())).or_insert(device);
        }
        firsts.extend(keyed.into_iter().map(|(key, first)| (first, key)));
        let class_of: BTreeMap<&ClassKey, u32> =
            firsts.values().enumerate().map(|(class, key)| (key, class as u32)).collect();
        let lane_class =
            (0..lanes).map(|lane| class_of.get(&(lane, Vec::new())).copied()).collect();
        let defective = cells_of
            .iter()
            .map(|(&device, cells)| (device, class_of[&(device % lanes, cells.clone())]))
            .collect();
        let (representatives, keys) = firsts.into_iter().unzip();
        ClassMap { lanes, lane_class, defective, keys, representatives }
    }

    /// Workload lanes: phase 1 builds one workload mix per lane.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of distinct classes.
    pub fn count(&self) -> usize {
        self.keys.len()
    }

    /// The class of device `device`.
    pub fn class_of(&self, device: usize) -> u32 {
        match self.defective.get(&device) {
            Some(&class) => class,
            None => self.lane_class[device % self.lanes].expect("a defect-free lane has a class"),
        }
    }

    /// How many devices of `devices` each class holds, in class order,
    /// omitting empty classes. Counted per lane and per defective device,
    /// never per device: a lane's members in the range are its residue
    /// count minus the defective ones.
    pub fn members(&self, devices: Range<usize>) -> Vec<(u32, u64)> {
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

/// The names one campaign kind goes by: its checkpoint magic and its
/// profiler spans.
pub(crate) struct Kind {
    /// Checkpoint file magic; a file of another kind is refused on load.
    pub magic: &'static str,
    /// The kind in the wrong-kind panic ("not a `noun` checkpoint").
    pub noun: &'static str,
    /// Span around phase 1.
    pub trajectories_span: &'static str,
    /// Span around each phase-2 wave.
    pub shards_span: &'static str,
    /// Span around each checkpoint write.
    pub checkpoint_span: &'static str,
}

/// What a campaign kind supplies to [`run`]: its plan (fingerprinted
/// through its `Debug` form) and its physics — everything the fleet and
/// serving engines do differently.
pub(crate) trait Campaign: Debug + Sync {
    /// One equivalence class's phase-1 simulation under one policy: the
    /// outcome every member of the class shares.
    type Trajectory: Serialize + Deserialize + Send + Sync;
    /// One cell's streaming aggregate over completed shards, starting
    /// from `Default`. Its observations must fold to the same value in
    /// any order, so the report is invariant under the shard split.
    type Accum: Default + Serialize + Deserialize;
    /// The finished report.
    type Report;

    /// The kind's checkpoint magic and span names.
    const KIND: Kind;

    /// Phase-1 task `class`: simulates the class whose key is `class` in
    /// every cell, in cell order, running its lane's workloads through
    /// `store`. A task covers every cell so they can share work such as
    /// recorded tapes and measured references.
    fn simulate(
        &self,
        class: &ClassKey,
        store: &mut TapeStore<'_>,
    ) -> Vec<Result<Self::Trajectory, SystemError>>;
    /// Folds `members` devices that share `trajectory` into a cell's
    /// aggregate: the whole of phase 2's per-class work.
    fn observe(accum: &mut Self::Accum, trajectory: &Self::Trajectory, members: u64);
    /// Assembles the report from every cell's aggregate and per-class
    /// trajectories.
    fn report(
        &self,
        classes: &ClassMap,
        cells: Vec<(Self::Accum, &[Self::Trajectory])>,
    ) -> Self::Report;
}

/// Runs workload `workload` under `spec` on a device of `config` through
/// the task's `store`: `Ok(None)` when the allocation is exhausted (the
/// device is dead), else the session's statistics and tracker.
///
/// # Errors
///
/// The session's error other than exhaustion.
///
/// # Panics
///
/// Panics when the workload's oracle rejects the run.
pub(crate) fn device_run(
    store: &mut TapeStore<'_>,
    config: &SystemConfig,
    spec: &PolicySpec,
    workload: usize,
) -> Result<Option<TapeRun>, SystemError> {
    match store.run(config, spec, workload) {
        Ok(WorkloadRun { run, verified, .. }) => {
            let dead = config.faults.as_ref().map_or(0, |mask| mask.dead_count());
            assert!(verified, "oracle failure under {spec} with {dead} dead FUs");
            Ok(Some(run))
        }
        Err(SystemError::AllocationExhausted { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The plan fingerprint a checkpoint is bound to: FNV-1a 64 over the
/// plan's `Debug` form. `f64` debug formatting is shortest-roundtrip, so
/// two plans fingerprint equal iff every knob (including the shard split)
/// is bit-identical.
pub(crate) fn fingerprint(plan: &dyn Debug) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("v{CHECKPOINT_VERSION}:{plan:?}").bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A campaign's live state, which is also its checkpoint: the kind's
/// envelope (magic, version, plan fingerprint) around the phase-1
/// trajectories and the per-cell aggregates of every *completed* shard.
/// Interrupted shards simply re-run on resume, which is what makes resume
/// byte-identical.
struct Checkpoint<T, A> {
    /// The kind's file magic ([`Kind::magic`]).
    magic: &'static str,
    /// The plan's [`fingerprint`].
    fingerprint: u64,
    /// Phase-1 trajectories, cell-major: `cell * classes + class`.
    trajectories: Vec<T>,
    /// Shards `0..completed` are folded into `accums`.
    completed: usize,
    /// Per-cell aggregates over the completed shards.
    accums: Vec<A>,
    /// The registry folded over phase 1 (empty unless
    /// [`CampaignOptions::collect_metrics`]; phase 2 emits no metrics).
    /// Persisting it keeps `results/metrics.json` byte-identical across
    /// kill/resume points (DESIGN.md §16).
    metrics: Registry,
}

impl<T: Serialize, A: Serialize> Serialize for Checkpoint<T, A> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("magic".to_string(), self.magic.to_value()),
            ("version".to_string(), CHECKPOINT_VERSION.to_value()),
            ("fingerprint".to_string(), self.fingerprint.to_value()),
            ("trajectories".to_string(), self.trajectories.to_value()),
            ("completed_shards".to_string(), self.completed.to_value()),
            ("accums".to_string(), self.accums.to_value()),
            ("metrics".to_string(), self.metrics.to_value()),
        ])
    }
}

/// Atomically persists `checkpoint` (write-then-rename, so a kill mid-save
/// leaves the previous checkpoint intact), serialized in place. The
/// temporary file appends `.tmp` to the whole file name, so it is never
/// the checkpoint itself (`run.tmp`) nor shared by two checkpoints that
/// differ only in extension (`a.json`, `a.ckpt`).
///
/// # Panics
///
/// Panics on IO failure — checkpoints exist to make kills safe; silently
/// losing one would defeat them.
fn save<T: Serialize, A: Serialize>(path: &Path, checkpoint: &Checkpoint<T, A>) {
    let json = serde_json::to_string(checkpoint).expect("checkpoint serializes");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, json).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename to {}: {e}", path.display()));
}

/// Loads and validates a checkpoint of `C`'s kind, if one exists at
/// `path`. The envelope is checked — magic, then version, then
/// fingerprint — before any payload is decoded.
///
/// # Panics
///
/// Panics on unreadable or corrupt files, another kind's magic, a version
/// mismatch, or a fingerprint that does not match the plan — resuming
/// someone else's campaign must fail loudly, not produce silently
/// different numbers.
fn load<C: Campaign>(path: &Path, fingerprint: u64) -> Option<Checkpoint<C::Trajectory, C::Accum>> {
    if !path.exists() {
        return None;
    }
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read checkpoint {}: {e}", path.display()));
    let envelope: Value = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("corrupt checkpoint {}: {e:?}", path.display()));
    let fields = envelope
        .as_object()
        .unwrap_or_else(|| panic!("corrupt checkpoint {}: not an object", path.display()));
    let magic: String = field(path, fields, "magic");
    assert_eq!(magic, C::KIND.magic, "not a {} checkpoint: {}", C::KIND.noun, path.display());
    let version: u32 = field(path, fields, "version");
    assert_eq!(
        version,
        CHECKPOINT_VERSION,
        "checkpoint {} has unsupported version",
        path.display()
    );
    let stored: u64 = field(path, fields, "fingerprint");
    assert_eq!(stored, fingerprint, "checkpoint {} belongs to a different plan", path.display());
    Some(Checkpoint {
        magic: C::KIND.magic,
        fingerprint,
        trajectories: field(path, fields, "trajectories"),
        completed: field(path, fields, "completed_shards"),
        accums: field(path, fields, "accums"),
        metrics: field(path, fields, "metrics"),
    })
}

/// Decodes the checkpoint field `key`, panicking if the file is corrupt.
fn field<T: Deserialize>(path: &Path, fields: &[(String, Value)], key: &str) -> T {
    serde::de_field(fields, key)
        .unwrap_or_else(|e| panic!("corrupt checkpoint {}: {e:?}", path.display()))
}

/// Runs `campaign` over `population` to completion (or to
/// [`CampaignOptions::stop_after_shards`]) on `jobs` workers (`0` = all
/// cores, `1` = sequential), resuming from and checkpointing to
/// [`CampaignOptions::checkpoint`] if set (DESIGN.md §12). The report is
/// byte-identical for every worker count, shard split and kill/resume
/// point.
///
/// # Errors
///
/// A movement policy on a movement-less configuration is rejected before
/// anything runs; otherwise the error of the lowest-indexed failing
/// trajectory.
///
/// # Panics
///
/// Panics on a zero `shard_devices`, checkpoint IO failures or a
/// checkpoint that does not belong to this plan.
pub(crate) fn run<C: Campaign>(
    campaign: &C,
    population: Population<'_>,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<Status<C::Report>, SystemError> {
    assert!(population.shard_devices > 0, "shard_devices must be positive");
    check_movement(population.policies, population.config.movement_hardware)?;
    let kind = &C::KIND;
    let pool = if jobs == 0 { ThreadPool::with_default_workers() } else { ThreadPool::new(jobs) };
    let fingerprint = fingerprint(campaign);
    let class_map = &population.classes;
    let (cells, classes) = (population.cells, class_map.count());
    let path = options.checkpoint.as_deref();
    let persist = |state: &Checkpoint<C::Trajectory, C::Accum>| {
        if let Some(path) = path {
            let _save = span!(Level::INFO, kind.checkpoint_span).entered();
            save(path, state);
        }
    };

    // Phase 1 (or resume): one reference simulation per trajectory.
    let mut state = match path.and_then(|path| load::<C>(path, fingerprint)) {
        Some(state) => state,
        None => {
            let _phase = span!(Level::INFO, kind.trajectories_span).entered();
            // Each lane's workload mix is built once and shared across
            // cells, so every policy faces the identical population.
            let workloads: Vec<Vec<Workload>> = pool
                .par_map((0..class_map.lanes()).collect(), |_, lane| population.workloads(lane));
            let tasks = (0..classes).collect();
            let (simulated, metrics) =
                par_map_observed(&pool, tasks, options.collect_metrics, |class| {
                    let key = &class_map.keys[class];
                    campaign.simulate(key, &mut TapeStore::new(&workloads[key.0]))
                });
            // Lay the trajectories out cell-major, `cell * classes + class`:
            // task `class` yields its trajectories in cell order.
            let mut simulated: Vec<_> = simulated.into_iter().map(Vec::into_iter).collect();
            let trajectories = (0..cells * classes)
                .map(|slot| {
                    let task = &mut simulated[slot % classes];
                    task.next().expect("a phase-1 task simulates every cell")
                })
                .collect::<Result<Vec<_>, _>>()?;
            let accums = (0..cells).map(|_| C::Accum::default()).collect();
            let state = Checkpoint {
                magic: kind.magic,
                fingerprint,
                trajectories,
                completed: 0,
                accums,
                metrics,
            };
            persist(&state);
            state
        }
    };

    // Phase 2: stream device shards in waves. Each shard weights every
    // class it holds by its member count — pure arithmetic over the
    // trajectories, so it runs in place and emits no metrics.
    let total_shards = population.devices.div_ceil(population.shard_devices);
    let wave_shards =
        if path.is_some() { options.checkpoint_every_shards.max(1) } else { usize::MAX };
    while state.completed < total_shards {
        let completed = state.completed;
        if options.stop_after_shards.is_some_and(|stop| completed >= stop) {
            return Ok(Status::Paused { completed_shards: completed, total_shards });
        }
        let mut wave_end = completed.saturating_add(wave_shards).min(total_shards);
        if let Some(stop) = options.stop_after_shards {
            wave_end = wave_end.min(stop.max(completed + 1));
        }
        let _wave = span!(Level::INFO, kind.shards_span).entered();
        for shard in completed..wave_end {
            for (class, members) in class_map.members(population.shard(shard)) {
                for (cell, accum) in state.accums.iter_mut().enumerate() {
                    let trajectory = &state.trajectories[cell * classes + class as usize];
                    C::observe(accum, trajectory, members);
                }
            }
        }
        state.completed = wave_end;
        persist(&state);
    }

    // The registry reaches the global accumulator only on completion: a
    // paused campaign must emit no metrics at all, so a stop/resume pair
    // folds exactly once — like the report itself (DESIGN.md §16).
    if options.collect_metrics {
        obs::global::fold(&state.metrics);
    }
    let per_cell = (0..cells).map(|cell| &state.trajectories[cell * classes..(cell + 1) * classes]);
    Ok(Status::Complete(Box::new(
        campaign.report(class_map, state.accums.into_iter().zip(per_cell).collect()),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint(completed: usize) -> Checkpoint<u32, u32> {
        Checkpoint {
            magic: "test-checkpoint",
            fingerprint: 7,
            trajectories: vec![1, 2],
            completed,
            accums: vec![3],
            metrics: Registry::new(),
        }
    }

    #[test]
    fn save_never_clobbers_a_file_that_shares_the_stem() {
        let dir = std::env::temp_dir().join(format!("uaware-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        // A checkpoint named `a.tmp` sits beside `a.json`: saving the
        // latter must neither overwrite nor move the former.
        let (json, ckpt, tmp) = (dir.join("a.json"), dir.join("a.ckpt"), dir.join("a.tmp"));
        save(&tmp, &checkpoint(1));
        let before = std::fs::read_to_string(&tmp).expect("a.tmp saved");
        save(&json, &checkpoint(2));
        save(&ckpt, &checkpoint(3));
        assert_eq!(std::fs::read_to_string(&tmp).ok(), Some(before), "a.tmp was clobbered");
        let text = std::fs::read_to_string(&json).expect("a.json saved");
        assert!(text.contains(r#""completed_shards":2"#), "{text}");
        let text = std::fs::read_to_string(&ckpt).expect("a.ckpt saved");
        assert!(text.contains(r#""completed_shards":3"#), "{text}");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["a.ckpt", "a.json", "a.tmp"], "no temporary file is left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
