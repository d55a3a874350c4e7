//! The one campaign engine behind [`fleet`](crate::fleet) and
//! [`traffic`](crate::traffic) (DESIGN.md §12): phase 1 simulates one
//! trajectory per equivalence class, phase 2 folds device shards into
//! per-cell monoid accumulators in waves, and an optional checkpoint —
//! one versioned envelope for every kind — makes the campaign kill-safe.
//! A kind plugs in through the crate-private `Campaign` trait.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use mibench::Workload;
use obs::Registry;
use serde::{Deserialize, Serialize, Value};
use threadpool::ThreadPool;
use tracing::{span, Level};

use crate::system::SystemError;

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
    /// Workload lanes phase 1 builds.
    fn lanes(&self) -> usize;
    /// The workload mix of `lane`.
    fn workloads(&self, lane: usize) -> Vec<Workload>;
    /// Accumulator cells each shard folds into.
    fn cell_count(&self) -> usize;
    /// Equivalence classes per cell: phase 1 simulates one trajectory per
    /// (cell × class).
    fn classes(&self) -> usize;
    /// Simulates `cell`'s class `class` against the per-lane workload
    /// mixes.
    fn simulate(
        &self,
        cell: usize,
        class: usize,
        workloads: &[Vec<Workload>],
    ) -> Result<Self::Trajectory, SystemError>;
    /// Device shards phase 2 streams.
    fn shard_count(&self) -> usize;
    /// Folds `shard`'s devices into one cell's partial, given that cell's
    /// trajectories (one per class), plus the shard's metrics (empty
    /// unless `collect_metrics`).
    fn run_shard(
        &self,
        trajectories: &[Self::Trajectory],
        shard: usize,
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
/// leaves the previous checkpoint intact), serialized in place.
///
/// # Panics
///
/// Panics on IO failure — checkpoints exist to make kills safe; silently
/// losing one would defeat them.
fn save<T: Serialize, A: Serialize>(path: &Path, checkpoint: &Checkpoint<T, A>) {
    let json = serde_json::to_string(checkpoint).expect("checkpoint serializes");
    let tmp = path.with_extension("tmp");
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
/// The error of the lowest-indexed failing trajectory.
///
/// # Panics
///
/// Panics on checkpoint IO failures or a checkpoint that does not belong
/// to this plan.
pub(crate) fn run<C: Campaign>(
    campaign: &C,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<Status<C::Report>, SystemError> {
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
                pool.par_map((0..campaign.lanes()).collect(), |_, lane| campaign.workloads(lane));
            let outcomes = pool.par_map((0..cells * classes).collect(), |_, index| {
                let work = || campaign.simulate(index / classes, index % classes, &workloads);
                if options.collect_metrics {
                    obs::collect(work)
                } else {
                    (work(), Registry::new())
                }
            });
            let mut trajectories = Vec::with_capacity(outcomes.len());
            let mut metrics = Registry::new();
            for (outcome, registry) in outcomes {
                trajectories.push(outcome?);
                metrics.merge(&registry);
            }
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
    let total_shards = campaign.shard_count();
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
            campaign.run_shard(trajectories, shard, options.collect_metrics)
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
