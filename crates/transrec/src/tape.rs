//! Offload tapes: record a workload's offload stream once, allocate it
//! under any policy and fault mask (DESIGN.md §17).
//!
//! In the paper the DBT builds every configuration and the allocator only
//! picks its pivot (steps 5–7). Translation, the configuration cache, the
//! offload heuristic and the functional result of an execution never look
//! at the pivot, so a workload's stream of cache hits is the same under
//! every policy: the pivot changes only the utilization tracker and the
//! 1-cycle resident rotate (DESIGN.md §4.4). A *tape* is that stream,
//! recorded by one real [`System`] session: the ordered decisions that
//! reached the policy — which configuration, whether it was a
//! configuration switch, whether the GPP ran since the last offload, and
//! whether the decision offloaded or starved — plus the session's
//! policy-independent statistics and counters, and one execution sample
//! per configuration. A *replay* drives only the policy, the tracker and
//! the rotate accounting over the tape, and yields the statistics and
//! tracker a full session would.
//!
//! [`TapeStore`] is the masked-suite runner the campaigns' phase-1 tasks
//! use: the first policy that needs a workload runs it as a full session
//! and records its tape; every later policy and fault mask replays it, and
//! falls back to a full session where the replay cannot stand for one.

use std::collections::HashMap;
use std::iter;
use std::sync::Arc;

use cgra::op::{LoadFunc, OpKind, StoreFunc};
use cgra::{ExecScratch, Executor, Fabric, FaultMask, MemBus, MemFault, Offset};
use dbt::membus::MemoryBus;
use mibench::Workload;
use obs::Registry;
use rv32::cpu::Exit;
use rv32::Program;
use tracing::{span, Level};
use uaware::{AllocRequest, AllocationPolicy, LegalPivots, PolicySpec, UtilizationTracker};

use crate::system::{starves, Decoded, System, SystemConfig, SystemError, SystemStats};

/// One memory access of a sampled execution, in issue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemAccess {
    /// A load and the (width-extended) value it returned.
    Load { addr: u32, func: LoadFunc, value: u32 },
    /// A store and the value it wrote.
    Store { addr: u32, func: StoreFunc, value: u32 },
}

/// What one recorded execution of a configuration consumed and produced:
/// the input context, its memory accesses and its output context.
#[derive(Clone, Debug)]
pub(crate) struct Sample {
    pub(crate) inputs: Vec<u32>,
    pub(crate) mem: Vec<MemAccess>,
    pub(crate) outputs: Vec<u32>,
}

/// A [`MemBus`] that logs every access of one execution.
pub(crate) struct LoggingBus<'a> {
    inner: MemoryBus<'a>,
    log: Vec<MemAccess>,
}

impl<'a> LoggingBus<'a> {
    pub(crate) fn new(inner: MemoryBus<'a>) -> LoggingBus<'a> {
        LoggingBus { inner, log: Vec::new() }
    }

    pub(crate) fn into_log(self) -> Vec<MemAccess> {
        self.log
    }
}

impl MemBus for LoggingBus<'_> {
    fn load(&mut self, addr: u32, func: LoadFunc) -> Result<u32, MemFault> {
        let value = self.inner.load(addr, func)?;
        self.log.push(MemAccess::Load { addr, func, value });
        Ok(value)
    }

    fn store(&mut self, addr: u32, func: StoreFunc, value: u32) -> Result<(), MemFault> {
        self.inner.store(addr, func, value)?;
        self.log.push(MemAccess::Store { addr, func, value });
        Ok(())
    }
}

/// A [`MemBus`] that serves a sample's logged accesses back in order and
/// faults on the first access that differs from the log.
struct ReplayBus<'a> {
    log: &'a [MemAccess],
    next: usize,
}

impl ReplayBus<'_> {
    /// Consumes the next logged access if it is `access`.
    fn take(&mut self, addr: u32, access: MemAccess) -> Result<(), MemFault> {
        if self.log.get(self.next) != Some(&access) {
            return Err(MemFault { addr });
        }
        self.next += 1;
        Ok(())
    }
}

impl MemBus for ReplayBus<'_> {
    fn load(&mut self, addr: u32, func: LoadFunc) -> Result<u32, MemFault> {
        let value = match self.log.get(self.next) {
            Some(&MemAccess::Load { value, .. }) => value,
            _ => 0,
        };
        self.take(addr, MemAccess::Load { addr, func, value })?;
        Ok(value)
    }

    fn store(&mut self, addr: u32, func: StoreFunc, value: u32) -> Result<(), MemFault> {
        self.take(addr, MemAccess::Store { addr, func, value })
    }
}

/// One recorded decision that reached the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Step {
    /// Index into the tape's configurations.
    config: u32,
    /// The configuration differed from the resident one.
    config_switch: bool,
    /// The GPP retired instructions since the last offload.
    gpp_dirty: bool,
    /// The decision offloaded (`false`: the configuration starved).
    offloaded: bool,
}

/// A configuration a recording refers to, with the sample of its first
/// offloaded execution (`None` while it has only starved).
struct Recorded {
    decoded: Arc<Decoded>,
    sample: Option<Sample>,
}

/// The decisions of a session being recorded; [`System`] fills it in at
/// every allocation decision.
#[derive(Default)]
pub(crate) struct Recorder {
    /// Tape index of every configuration seen, by record identity.
    index: HashMap<*const Decoded, u32>,
    configs: Vec<Recorded>,
    /// The decisions, run-length encoded: a hot loop repeats one decision.
    steps: Vec<(Step, u32)>,
}

impl Recorder {
    /// Records one decision on `decoded` and returns its tape index.
    pub(crate) fn decision(
        &mut self,
        decoded: &Arc<Decoded>,
        config_switch: bool,
        gpp_dirty: bool,
        offloaded: bool,
    ) -> u32 {
        let next = self.configs.len() as u32;
        let config = *self.index.entry(Arc::as_ptr(decoded)).or_insert(next);
        if config == next {
            self.configs.push(Recorded { decoded: Arc::clone(decoded), sample: None });
        }
        let step = Step { config, config_switch, gpp_dirty, offloaded };
        match self.steps.last_mut() {
            Some((last, repeats)) if *last == step => *repeats += 1,
            _ => self.steps.push((step, 1)),
        }
        config
    }

    /// Whether configuration `config` still lacks its sample.
    pub(crate) fn needs_sample(&self, config: u32) -> bool {
        self.configs[config as usize].sample.is_none()
    }

    /// Stores the sample of configuration `config`.
    pub(crate) fn set_sample(&mut self, config: u32, sample: Sample) {
        self.configs[config as usize].sample = Some(sample);
    }
}

/// A finished recording: the session's decisions, samples, statistics and
/// counters, not yet verified.
pub(crate) struct Recording {
    recorder: Recorder,
    /// The session's statistics without its rotate cycles: the fields
    /// every policy that agrees with the tape shares.
    stats: SystemStats,
    /// The session's `dbt.*` counters and its `system.*` counters other
    /// than `system.rotations` (empty when it ran without a subscriber).
    counters: Registry,
    /// The session ran to exit. A run that died leaves a partial tape.
    complete: bool,
}

/// What a replay needs of one configuration.
struct TapeConfig {
    /// Its virtual cells: `Tape::cells[footprint.0..footprint.1]`.
    footprint: (u32, u32),
    /// Its anchor demands: `Tape::demands[demands.0..demands.1]`.
    demands: (u32, u32),
    /// Fabric columns it occupies.
    cols_used: u32,
}

/// A workload's verified offload stream (DESIGN.md §17). Its
/// configurations are stored flat, in three allocations, so a task that
/// keeps a tape per workload holds a few small blocks, not one per
/// configuration.
pub(crate) struct Tape {
    configs: Vec<TapeConfig>,
    cells: Vec<(u32, u32)>,
    demands: Vec<(u32, u32, OpKind)>,
    /// The decisions, each with its repeat count, in order.
    steps: Vec<(Step, u32)>,
    /// [`Recording::stats`].
    stats: SystemStats,
    /// [`Recording::counters`].
    counters: Registry,
    /// [`Recording::complete`].
    complete: bool,
}

/// How a replay ended.
pub(crate) enum Replay {
    /// The policy agreed with the tape to its end: what the full session
    /// would have reported.
    Done(TapeRun),
    /// The policy found no pivot where the full session dies.
    Exhausted,
    /// The policy disagreed with the tape on offload vs. starve, picked a
    /// pivot the hardware cannot reach, or ran past a partial tape.
    Diverged,
}

/// Whether the current thread has a subscriber that would see events.
fn subscribed() -> bool {
    tracing::with_current(|_| ()).is_some()
}

impl Recording {
    /// Runs `program` to exit on `system` (a fresh system) and records its
    /// decisions. With a subscriber installed the session's events are
    /// collected and re-fired, so the subscriber sees them unchanged and
    /// the recording keeps the policy-independent ones.
    pub(crate) fn record(
        system: &mut System,
        program: &Program,
    ) -> (Result<Exit, SystemError>, Recording) {
        system.start_recording();
        let run = |system: &mut System| system.session(program).and_then(|mut s| s.finish());
        let (result, counters) = if subscribed() {
            let (result, registry) = obs::collect(|| run(system));
            registry.emit();
            let mut counters = Registry::new();
            for (name, value) in registry.counters() {
                if name.starts_with("dbt.")
                    || (name.starts_with("system.") && name != "system.rotations")
                {
                    counters.counter_add(name, value);
                }
            }
            (result, counters)
        } else {
            (run(system), Registry::new())
        };
        let recording = Recording {
            recorder: system.take_recording().expect("recording started above"),
            stats: SystemStats { rotate_cycles: 0, ..*system.stats() },
            counters,
            complete: result.is_ok(),
        };
        (result, recording)
    }

    /// Verifies the recording and keeps what a replay needs. Every
    /// executed configuration runs once at every pivot of `fabric` on its
    /// sample and must reproduce it: the same memory accesses in the same
    /// order, and the same outputs. `None` if one does not, so no replay
    /// ever uses a (configuration, pivot) pair that was not executed.
    pub(crate) fn into_tape(self, fabric: &Fabric) -> Option<Tape> {
        let executor = Executor::new(fabric);
        let mut scratch = ExecScratch::new();
        let pivots =
            || (0..fabric.rows).flat_map(|row| (0..fabric.cols).map(move |col| (row, col)));
        for Recorded { decoded, sample } in &self.recorder.configs {
            let Some(sample) = sample else { continue };
            for (row, col) in pivots() {
                let mut bus = ReplayBus { log: &sample.mem, next: 0 };
                let run = executor.run(
                    &decoded.cc.config,
                    Offset::new(row, col),
                    &sample.inputs,
                    &mut bus,
                    &mut scratch,
                );
                let reproduced = run.is_ok()
                    && bus.next == sample.mem.len()
                    && scratch.outputs() == sample.outputs;
                if !reproduced {
                    return None;
                }
            }
        }
        let recorded = &self.recorder.configs;
        let mut tape = Tape {
            configs: Vec::with_capacity(recorded.len()),
            cells: Vec::with_capacity(recorded.iter().map(|r| r.decoded.footprint.len()).sum()),
            demands: Vec::with_capacity(recorded.iter().map(|r| r.decoded.demands.len()).sum()),
            steps: self.recorder.steps.clone(),
            stats: self.stats,
            counters: self.counters,
            complete: self.complete,
        };
        for Recorded { decoded, .. } in recorded {
            let (cells, demands) = (tape.cells.len() as u32, tape.demands.len() as u32);
            tape.cells.extend_from_slice(&decoded.footprint);
            tape.demands.extend_from_slice(&decoded.demands);
            tape.configs.push(TapeConfig {
                footprint: (cells, tape.cells.len() as u32),
                demands: (demands, tape.demands.len() as u32),
                cols_used: decoded.cc.config.cols_used(),
            });
        }
        Some(tape)
    }
}

impl Tape {
    /// Replays the tape under `policy` on `config`'s fabric and fault mask.
    /// Each configuration's legal pivots are rebuilt for that mask. The
    /// policy and the tracker fire their events as in a full session, and
    /// every rotate fires `system.rotations`; the tape's own counters are
    /// left to the caller.
    pub(crate) fn replay(
        &self,
        config: &SystemConfig,
        policy: &mut dyn AllocationPolicy,
    ) -> Replay {
        let fabric = &config.fabric;
        let faults = config.faults.as_ref();
        let configs: Vec<_> = self
            .configs
            .iter()
            .map(|c| {
                let footprint = &self.cells[c.footprint.0 as usize..c.footprint.1 as usize];
                let demands = &self.demands[c.demands.0 as usize..c.demands.1 as usize];
                let legal = LegalPivots::new(fabric, footprint, demands, faults);
                let starves = starves(config, footprint, demands);
                (footprint, legal, starves, c.cols_used)
            })
            .collect();
        let mut tracker = UtilizationTracker::new(fabric);
        let mut cells = Vec::new();
        let mut resident = Offset::ORIGIN;
        let mut rotate_cycles = 0u64;
        let steps =
            self.steps.iter().flat_map(|&(step, repeats)| iter::repeat_n(step, repeats as usize));
        for step in steps {
            let (footprint, legal, starves, cols_used) = &configs[step.config as usize];
            let offset = policy.next_offset(&AllocRequest {
                fabric,
                config_switch: step.config_switch,
                footprint,
                tracker: &tracker,
                legal,
            });
            let offset = match (offset, step.offloaded) {
                (Some(offset), true) => offset,
                (None, false) if *starves => continue,
                (None, _) if !*starves => return Replay::Exhausted,
                _ => return Replay::Diverged,
            };
            if offset != Offset::ORIGIN && !config.movement_hardware {
                return Replay::Diverged;
            }
            // The resident-configuration transitions of a full session: a
            // switch streams the configuration in (its cost is on the
            // tape), and a move of the resident one rotates it, exposed
            // only after GPP activity (DESIGN.md §4.4).
            if !step.config_switch && offset != resident {
                if step.gpp_dirty {
                    rotate_cycles += cgra::RESIDENT_ROTATE_CYCLES;
                }
                tracing::event!(Level::TRACE, "system.rotations", "add" = 1);
            }
            resident = offset;
            cells.clear();
            cells.extend(footprint.iter().map(|&(r, c)| offset.apply(fabric, r, c)));
            tracker.record_execution(&cells, *cols_used);
        }
        if !self.complete {
            return Replay::Diverged;
        }
        Replay::Done(TapeRun { stats: SystemStats { rotate_cycles, ..self.stats }, tracker })
    }
}

/// What a masked suite pass reports per workload: the statistics and the
/// per-FU utilization of its session, recorded or replayed.
#[derive(Clone, Debug)]
pub struct TapeRun {
    /// The session's cycle and event counters.
    pub stats: SystemStats,
    /// The session's per-FU utilization.
    pub tracker: UtilizationTracker,
}

/// The masked-suite runner of one campaign phase-1 task (DESIGN.md §17):
/// one recorded tape per workload, replayed for every later policy and
/// fault mask. A store lives inside one task and is dropped with it, so
/// nothing it caches can reach a report, a checkpoint or another task.
///
/// # Examples
///
/// ```
/// use cgra::{Fabric, FaultMask};
/// use transrec::tape::TapeStore;
/// use transrec::SystemConfig;
/// use uaware::PolicySpec;
///
/// let config = SystemConfig::new(Fabric::be());
/// let workloads = transrec::sweep::SuiteSpec::subset("crc", vec![1]).workloads(7);
/// let mut store = TapeStore::new(&config, &workloads);
/// let pristine = FaultMask::healthy(&config.fabric);
/// // The first policy records the workload; rotation replays it.
/// let base = store.run(&PolicySpec::Baseline, &pristine, 0).unwrap().unwrap();
/// let rot = store.run(&PolicySpec::rotation(), &pristine, 0).unwrap().unwrap();
/// assert_eq!(base.stats.offloads, rot.stats.offloads);
/// assert!(rot.tracker.utilization().max() < base.tracker.utilization().max());
/// ```
pub struct TapeStore<'a> {
    config: &'a SystemConfig,
    workloads: &'a [Workload],
    tapes: Vec<Option<Tape>>,
}

impl<'a> TapeStore<'a> {
    /// An empty store for `workloads` on systems of `config` (whose own
    /// fault mask each run replaces).
    pub fn new(config: &'a SystemConfig, workloads: &'a [Workload]) -> TapeStore<'a> {
        TapeStore { config, workloads, tapes: workloads.iter().map(|_| None).collect() }
    }

    /// The number of workloads.
    pub(crate) fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Runs workload `workload` under `spec` on a fresh system whose fabric
    /// carries `mask`, as [`System::run`] would: `Ok(None)` when the
    /// allocation is exhausted (the device is dead), else the session's
    /// statistics and tracker. The first run of a workload records its
    /// tape; later runs replay it, or fall back to a full session where
    /// the policy disagrees with the tape.
    ///
    /// # Errors
    ///
    /// The full session's error other than exhaustion.
    ///
    /// # Panics
    ///
    /// Panics when the workload's oracle rejects a full session, or a
    /// recorded configuration does not reproduce its sample.
    pub fn run(
        &mut self,
        spec: &PolicySpec,
        mask: &FaultMask,
        workload: usize,
    ) -> Result<Option<TapeRun>, SystemError> {
        let config = SystemConfig { faults: Some(mask.clone()), ..self.config.clone() };
        let Some(tape) = &self.tapes[workload] else {
            let _record = span!(Level::INFO, "tape.record").entered();
            return self.session(&config, spec, workload);
        };
        let mut policy = spec.build();
        let replay = {
            let _replay = span!(Level::INFO, "tape.replay").entered();
            // The policy's and the tracker's events count only if the
            // replay stands for the session, so they are held back until
            // it has.
            if subscribed() {
                let (replay, events) = obs::collect(|| tape.replay(&config, &mut *policy));
                if matches!(replay, Replay::Done(_)) {
                    events.emit();
                }
                replay
            } else {
                tape.replay(&config, &mut *policy)
            }
        };
        let Replay::Done(run) = replay else {
            let _fallback = span!(Level::INFO, "tape.fallback").entered();
            return self.session(&config, spec, workload);
        };
        tape.counters.emit();
        Ok(Some(run))
    }

    /// Runs workload `workload` as a full session and checks it with the
    /// workload's oracle. Unless a complete tape is already stored, the
    /// session is recorded and, once verified, its recording becomes the
    /// workload's tape.
    fn session(
        &mut self,
        config: &SystemConfig,
        spec: &PolicySpec,
        workload: usize,
    ) -> Result<Option<TapeRun>, SystemError> {
        let w = &self.workloads[workload];
        let dead = || config.faults.as_ref().map_or(0, FaultMask::dead_count);
        let mut system = System::new(config.clone(), spec.build());
        let stored = self.tapes[workload].as_ref();
        let (result, recording) = if stored.is_none_or(|tape| !tape.complete) {
            let (result, recording) = Recording::record(&mut system, w.program());
            (result, Some(recording))
        } else {
            (system.run(w.program()), None)
        };
        let run = match result {
            Ok(_) => {
                assert!(
                    w.verify(system.cpu()).is_ok(),
                    "oracle failure under {spec} with {} dead FUs",
                    dead()
                );
                Ok(Some(TapeRun { stats: *system.stats(), tracker: system.tracker().clone() }))
            }
            Err(SystemError::AllocationExhausted { .. }) => Ok(None),
            Err(e) => Err(e),
        };
        drop(system);
        let stored = &mut self.tapes[workload];
        if let Some(recording) = recording.filter(|r| stored.is_none() || r.complete) {
            let _verify = span!(Level::INFO, "tape.verify").entered();
            let tape = recording.into_tape(&config.fabric);
            *stored =
                Some(tape.unwrap_or_else(|| {
                    panic!("oracle failure under {spec} with {} dead FUs", dead())
                }));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use cgra::Fabric;

    use super::*;
    use crate::sweep::SuiteSpec;

    /// A baseline recording of crc32 on BE.
    fn recording() -> Recording {
        let config = SystemConfig::new(Fabric::be());
        let workload = &SuiteSpec::subset("crc", vec![1]).workloads(7)[0];
        let mut system = System::new(config, PolicySpec::Baseline.build());
        let (result, recording) = Recording::record(&mut system, workload.program());
        result.expect("crc32 runs");
        recording
    }

    /// The first recorded sample `pick` selects, mutably.
    fn sample_where(recording: &mut Recording, pick: impl Fn(&Sample) -> bool) -> &mut Sample {
        recording
            .recorder
            .configs
            .iter_mut()
            .find_map(|c| c.sample.as_mut().filter(|s| pick(s)))
            .expect("a matching sample")
    }

    #[test]
    fn a_faithful_recording_becomes_a_tape() {
        let tape = recording().into_tape(&Fabric::be()).expect("it reproduces its samples");
        assert!(tape.complete);
        assert!(tape.stats.offloads > 0);
    }

    #[test]
    fn a_recording_whose_output_does_not_reproduce_is_refused() {
        let mut recording = recording();
        sample_where(&mut recording, |s| !s.outputs.is_empty()).outputs[0] ^= 1;
        assert!(recording.into_tape(&Fabric::be()).is_none());
    }

    #[test]
    fn a_recording_whose_memory_trace_does_not_reproduce_is_refused() {
        let mut recording = recording();
        let sample = sample_where(&mut recording, |s| !s.mem.is_empty());
        let (MemAccess::Load { value, .. } | MemAccess::Store { value, .. }) = &mut sample.mem[0];
        *value ^= 1;
        assert!(recording.into_tape(&Fabric::be()).is_none());
    }
}
