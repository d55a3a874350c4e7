//! The one campaign engine behind [`fleet`](crate::fleet) and
//! [`traffic`](crate::traffic) (DESIGN.md §12): phase 1 simulates one
//! trajectory per (cell × equivalence class) in tasks that may each cover
//! several trajectories, phase 2 folds device shards into
//! per-cell monoid accumulators in waves, and an optional checkpoint —
//! one versioned envelope for every kind — makes the campaign kill-safe.
//! A kind plugs in through the crate-private `Campaign` trait and keeps
//! only its physics; the engine owns what both kinds do the same way: the
//! entry checks, each lane's workload mix, the shard split, and the suite
//! pass on a faulted fabric (`run_masked`).

use std::fmt::Debug;
use std::ops::Range;
use std::path::{Path, PathBuf};

use cgra::FaultMask;
use mibench::Workload;
use obs::Registry;
use serde::{Deserialize, Serialize, Value};
use threadpool::ThreadPool;
use tracing::{span, Level};
use uaware::{derive_cell_seed, PolicySpec};

use crate::sweep::SuiteSpec;
use crate::system::{check_movement, System, SystemConfig, SystemError};

/// Checkpoint format version of every campaign kind; bumped on any layout
/// change so stale files are rejected instead of misread. v2 added the
/// metrics registry (DESIGN.md §16); v3 moved fleet and serving onto this
/// module's shared envelope.
const CHECKPOINT_VERSION: u32 = 3;

/// Campaign-level controls: checkpointing and cooperative early stop
/// (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Persist progress to this path (and resume from it if it exists).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint after every wave of this many shards (`0` acts as `1`).
    /// Only meaningful with a checkpoint path; also the parallel wave
    /// width, so raise it to at least the worker count on big campaigns.
    pub checkpoint_every_shards: usize,
    /// Stop (with a checkpoint, if configured) once this many shards have
    /// completed, returning [`Status::Paused`] — the hook the kill/resume
    /// regression tests and the CI resume leg drive.
    pub stop_after_shards: Option<usize>,
    /// Collect the deterministic metrics registry while the campaign runs
    /// and fold it into [`obs::global`] on completion (DESIGN.md §16). Off
    /// by default: per-event collection has a real cost on the phase-1
    /// simulation hot paths, and most callers (tests, benches) do not read
    /// the registry.
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

/// The device population both kinds' plans describe the same way,
/// borrowed from the plan: the policy axis on one system configuration,
/// and `devices` per cell spread round-robin over workload lanes and
/// streamed in shards of `shard_devices` (DESIGN.md §12).
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
    /// Distinct workload lanes: the plan's setting clamped to `devices`.
    pub lanes: usize,
    /// Devices per streaming shard.
    pub shard_devices: usize,
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

/// Runs each of `workloads` to exit on a fresh system of `config` whose
/// fabric carries `mask`: the suite pass both kinds simulate against a
/// worn device. Lazy, so fleet stops at the first dead workload while
/// serving measures every one. An item is `Ok(None)` when the allocation
/// is exhausted (the device is dead), else the finished system.
///
/// # Panics
///
/// Panics when a workload's oracle rejects the run.
pub(crate) fn run_masked<'a>(
    config: &'a SystemConfig,
    spec: &'a PolicySpec,
    mask: &'a FaultMask,
    workloads: &'a [Workload],
) -> impl Iterator<Item = Result<Option<System>, SystemError>> + 'a {
    workloads.iter().map(move |w| {
        let mut system = System::new(config.clone(), spec.build());
        system.set_fault_mask(Some(mask.clone()));
        match system.run(w.program()) {
            Ok(_) => {}
            Err(SystemError::AllocationExhausted { .. }) => return Ok(None),
            Err(e) => return Err(e),
        }
        assert!(
            w.verify(system.cpu()).is_ok(),
            "oracle failure under {spec} with {} dead FUs",
            mask.dead_count()
        );
        Ok(Some(system))
    })
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

/// What a campaign kind supplies to [`run`]: everything the fleet and
/// serving engines do differently.
pub(crate) trait Campaign: Sync {
    /// One equivalence class's phase-1 simulation.
    type Trajectory: Serialize + Deserialize + Send + Sync;
    /// One cell's streaming aggregate over completed shards; a shard's
    /// partial has the same type, and `Default` is the merge identity.
    type Accum: Default + Serialize + Deserialize + Send;
    /// The finished report.
    type Report;

    /// The kind's checkpoint magic and span names.
    const KIND: Kind;

    /// The plan, fingerprinted through its `Debug` form.
    fn plan(&self) -> &dyn Debug;
    /// The plan's device population.
    fn population(&self) -> Population<'_>;
    /// Workload lanes phase 1 builds: the population's, except that an
    /// empty serving fleet still simulates one.
    fn lanes(&self) -> usize;
    /// Accumulator cells each shard folds into.
    fn cell_count(&self) -> usize;
    /// Equivalence classes per cell: phase 1 simulates one trajectory per
    /// (cell × class).
    fn classes(&self) -> usize;
    /// Phase-1 tasks. Together they simulate every trajectory exactly
    /// once; a task that covers several lets them share work such as
    /// generated inputs.
    fn tasks(&self) -> usize;
    /// Runs phase-1 task `task` against the per-lane workload mixes: each
    /// of its trajectories with its cell-major index
    /// `cell * classes + class`.
    fn simulate(
        &self,
        task: usize,
        workloads: &[Vec<Workload>],
    ) -> Vec<(usize, Result<Self::Trajectory, SystemError>)>;
    /// Folds one shard's `devices` into one cell's partial, given that
    /// cell's trajectories (one per class), plus the shard's metrics
    /// (empty unless `collect_metrics`).
    fn run_shard(
        &self,
        trajectories: &[Self::Trajectory],
        devices: Range<usize>,
        collect_metrics: bool,
    ) -> (Self::Accum, Registry);
    /// Absorbs a shard partial into a cell's aggregate.
    fn merge(accum: &mut Self::Accum, partial: Self::Accum);
    /// Assembles the report from every cell's aggregate and trajectories.
    fn report(&self, cells: Vec<(Self::Accum, &[Self::Trajectory])>) -> Self::Report;
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
/// trajectories and the merged partials of every *completed* shard.
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
    /// The registry folded over phase 1 and the completed shards (empty
    /// unless [`CampaignOptions::collect_metrics`]). Persisting it keeps
    /// `results/metrics.json` byte-identical across kill/resume points
    /// (DESIGN.md §16).
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

/// Runs `campaign` to completion (or to
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
/// Panics on a zero `shard_devices`, a populated fleet without lanes,
/// checkpoint IO failures or a checkpoint that does not belong to this
/// plan.
pub(crate) fn run<C: Campaign>(
    campaign: &C,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<Status<C::Report>, SystemError> {
    let population = campaign.population();
    assert!(population.shard_devices > 0, "shard_devices must be positive");
    assert!(
        population.devices == 0 || population.lanes > 0,
        "a populated fleet needs at least one workload lane"
    );
    check_movement(population.policies, population.config.movement_hardware)?;
    let kind = &C::KIND;
    let pool = if jobs == 0 { ThreadPool::with_default_workers() } else { ThreadPool::new(jobs) };
    let fingerprint = fingerprint(campaign.plan());
    let (cells, classes) = (campaign.cell_count(), campaign.classes());
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
            let workloads: Vec<Vec<Workload>> =
                pool.par_map((0..campaign.lanes()).collect(), |_, lane| population.workloads(lane));
            let outcomes = pool.par_map((0..campaign.tasks()).collect(), |_, task| {
                let work = || campaign.simulate(task, &workloads);
                if options.collect_metrics {
                    obs::collect(work)
                } else {
                    (work(), Registry::new())
                }
            });
            // Scatter the tasks' trajectories back into cell-major order.
            // Registries are monoids, so folding them per task instead of
            // per trajectory leaves the metrics unchanged.
            let mut slots: Vec<Option<Result<C::Trajectory, SystemError>>> =
                (0..cells * classes).map(|_| None).collect();
            let mut metrics = Registry::new();
            for (simulated, registry) in outcomes {
                for (index, outcome) in simulated {
                    slots[index] = Some(outcome);
                }
                metrics.merge(&registry);
            }
            let trajectories = slots
                .into_iter()
                .map(|slot| slot.expect("phase-1 tasks cover every trajectory"))
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

    // Phase 2: stream device shards in waves, merging each wave's
    // partials in (shard, cell) order.
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
        let work: Vec<(usize, usize)> =
            (completed..wave_end).flat_map(|s| (0..cells).map(move |c| (s, c))).collect();
        let partials = pool.par_map(work, |_, (shard, cell)| {
            let trajectories = &state.trajectories[cell * classes..(cell + 1) * classes];
            campaign.run_shard(trajectories, population.shard(shard), options.collect_metrics)
        });
        for (cell, (partial, registry)) in
            (completed..wave_end).flat_map(|_| 0..cells).zip(partials)
        {
            C::merge(&mut state.accums[cell], partial);
            state.metrics.merge(&registry);
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
        campaign.report(state.accums.into_iter().zip(per_cell).collect()),
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
