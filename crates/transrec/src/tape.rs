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
//! policy-independent statistics and counts, and one execution sample per
//! configuration. A session that dies leaves no tape. A *replay*
//! walks the tape through the session's own allocation step
//! (`system::Allocator`: the policy, the tracker and the resident
//! rotate), and yields the statistics and tracker a full session would.
//!
//! [`TapeStore`] is the runner of the campaigns' phase-1 tasks (the
//! campaign engine builds one per task over its class's workloads) and of
//! the sweep's (configuration, workload) tasks. It holds only workloads
//! and tapes, and runs whatever configuration it is handed, fault mask
//! included: the first policy that needs a workload runs it as a full
//! session and records its tape; every later policy and fault mask
//! replays it, and falls back to a full session wherever the replay
//! cannot stand for one. A full session that runs to exit, a fallback
//! included, records the workload's tape again. A replay fires nothing
//! while it runs; once it stands, it publishes the tape's counts and its
//! own as its session would have (DESIGN.md §16), so a tape serves
//! whoever is listening.

use std::collections::HashMap;
use std::iter;
use std::sync::Arc;

use cgra::op::{LoadFunc, OpKind, StoreFunc};
use cgra::{ExecScratch, Executor, Fabric, MemBus, MemFault, Offset};
use dbt::membus::MemoryBus;
use mibench::Workload;
use rv32::cpu::Exit;
use rv32::Program;
use tracing::{span, Level};
use uaware::{AllocationPolicy, PolicySpec, UtilizationTracker};

use crate::system::{
    publish, Allocator, Decoded, Legality, System, SystemConfig, SystemError, SystemStats, Tally,
};
use crate::telemetry::{ProbeReport, ProbeSpec};

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

/// Flag bits of a packed decision word (DESIGN.md §17): the configuration
/// differed from the resident one.
const SWITCH: u32 = 1;
/// The GPP retired instructions since the last offload.
const DIRTY: u32 = 1 << 1;
/// The decision offloaded (clear: the configuration starved).
const OFFLOADED: u32 = 1 << 2;
/// The configuration's tape index sits above the flags.
const CONFIG_SHIFT: u32 = 3;
/// Set on a decision word that is followed by its repeat count.
const REPEATED: u32 = 1 << 31;

/// The decisions that reached the policy, in order, packed one `u32` word
/// each: the configuration's tape index above three flag bits. A hot loop
/// repeats one decision, so a decision that repeats carries
/// [`REPEATED`] and one more word, its count.
#[derive(Default)]
struct Decisions {
    words: Vec<u32>,
    /// Index of the last decision word.
    last: usize,
}

impl Decisions {
    /// Appends one decision word (without [`REPEATED`]).
    fn push(&mut self, step: u32) {
        match self.words.get(self.last) {
            Some(&word) if word & !REPEATED == step => {
                if word & REPEATED == 0 {
                    self.words[self.last] |= REPEATED;
                    self.words.push(2);
                    return;
                }
                if let Some(count) = self.words[self.last + 1].checked_add(1) {
                    self.words[self.last + 1] = count;
                    return;
                }
            }
            _ => {}
        }
        self.last = self.words.len();
        self.words.push(step);
    }

    /// Every decision word (without [`REPEATED`]) with its repeat count,
    /// in order.
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut words = self.words.iter();
        iter::from_fn(move || {
            let &word = words.next()?;
            if word & REPEATED == 0 {
                return Some((word, 1));
            }
            Some((word & !REPEATED, *words.next().expect("a repeat count follows")))
        })
    }
}

/// Packs one decision into its word.
fn pack(config: u32, config_switch: bool, gpp_dirty: bool, offloaded: bool) -> u32 {
    assert!(config < REPEATED >> CONFIG_SHIFT, "a tape holds at most 2^28 configurations");
    config << CONFIG_SHIFT
        | if config_switch { SWITCH } else { 0 }
        | if gpp_dirty { DIRTY } else { 0 }
        | if offloaded { OFFLOADED } else { 0 }
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
    decisions: Decisions,
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
        self.decisions.push(pack(config, config_switch, gpp_dirty, offloaded));
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

/// The recording of a session that ran to exit: its decisions, samples
/// and counts, not yet verified.
pub(crate) struct Recording {
    recorder: Recorder,
    /// The session's counts without its rotations, rotate cycles and
    /// allocation-step counts: the ones every policy that agrees with the
    /// tape shares.
    tally: Tally,
}

/// What a replay needs of one configuration.
struct TapeConfig {
    /// Its start PC.
    pc: u32,
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
    decisions: Decisions,
    /// [`Recording::tally`].
    tally: Tally,
}

impl Recording {
    /// Runs `program` to exit on `system` (a fresh system) and records its
    /// decisions; `None` for a session that did not run to exit.
    pub(crate) fn record(
        system: &mut System,
        program: &Program,
    ) -> (Result<Exit, SystemError>, Option<Recording>) {
        system.start_recording();
        let result = system.session(program).and_then(|mut session| session.finish());
        let recorder = system.take_recording().expect("recording started above");
        let recording = result.is_ok().then(|| {
            let mut tally = system.tally();
            (tally.rotations, tally.stats.rotate_cycles) = (0, 0);
            tally.alloc = Default::default();
            Recording { recorder, tally }
        });
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
        let Recording { recorder: Recorder { configs, mut decisions, .. }, tally } = self;
        decisions.words.shrink_to_fit();
        let mut tape = Tape {
            configs: Vec::with_capacity(configs.len()),
            cells: Vec::with_capacity(configs.iter().map(|r| r.decoded.footprint.len()).sum()),
            demands: Vec::with_capacity(configs.iter().map(|r| r.decoded.demands.len()).sum()),
            decisions,
            tally,
        };
        for Recorded { decoded, .. } in &configs {
            let (cells, demands) = (tape.cells.len() as u32, tape.demands.len() as u32);
            tape.cells.extend_from_slice(&decoded.footprint);
            tape.demands.extend_from_slice(&decoded.demands);
            tape.configs.push(TapeConfig {
                pc: decoded.cc.start_pc,
                footprint: (cells, tape.cells.len() as u32),
                demands: (demands, tape.demands.len() as u32),
                cols_used: decoded.cc.config.cols_used(),
            });
        }
        Some(tape)
    }
}

impl Tape {
    /// Replays the tape under `policy` on `config`'s fabric and fault mask,
    /// through the session's own allocation step with each
    /// configuration's [`Legality`] built for that mask. `None` as soon as
    /// the step disagrees with the tape on offload vs. starve, or fails
    /// where the session would end (a dead device, or a pivot the
    /// hardware cannot reach): only a full session reports those. It fires
    /// nothing: its counts, the tape's plus its own rotations and
    /// allocation-step counts, are left to the caller to publish.
    pub(crate) fn replay(
        &self,
        config: &SystemConfig,
        policy: Box<dyn AllocationPolicy>,
    ) -> Option<(Tally, UtilizationTracker)> {
        let fabric = &config.fabric;
        let configs: Vec<_> = self
            .configs
            .iter()
            .map(|c| {
                let footprint = &self.cells[c.footprint.0 as usize..c.footprint.1 as usize];
                let demands = &self.demands[c.demands.0 as usize..c.demands.1 as usize];
                (c, footprint, Legality::new(config, footprint, demands))
            })
            .collect();
        let mut alloc = Allocator::new(fabric, policy);
        let mut tally = self.tally;
        for (step, repeats) in self.decisions.iter() {
            let (c, footprint, legality) = &configs[(step >> CONFIG_SHIFT) as usize];
            let (config_switch, gpp_dirty) = (step & SWITCH != 0, step & DIRTY != 0);
            for _ in 0..repeats {
                let pivot = alloc
                    .choose(config, c.pc, footprint, legality, config_switch, gpp_dirty)
                    .ok()?;
                match (pivot, step & OFFLOADED != 0) {
                    (Some(pivot), true) => {
                        if let Some((_, cycles)) = pivot.rotated {
                            tally.rotations += 1;
                            tally.stats.rotate_cycles += cycles;
                        }
                        alloc.record(fabric, footprint, c.cols_used);
                    }
                    (None, false) => {}
                    _ => return None,
                }
            }
        }
        tally.alloc = alloc.counts();
        Some((tally, alloc.tracker))
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

/// One workload's run under one policy, as a suite folds it: the session's
/// statistics and tracker, recorded, replayed or run in full.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The session's statistics and per-FU utilization.
    pub run: TapeRun,
    /// A full session: the workload's oracle accepted its memory image. A
    /// replay: its tape was kept, which needs both that and the per-pivot
    /// check of `Recording::into_tape` (DESIGN.md §17).
    pub verified: bool,
    /// The reports of the probes a full session carried.
    pub probes: Vec<ProbeReport>,
}

/// Runs `workload` under `spec` as a full session on a fresh system of
/// `config` with `probes` attached, and checks it with the workload's
/// oracle. With `record`, a session that runs to exit is also recorded.
pub(crate) fn session(
    config: &SystemConfig,
    spec: &PolicySpec,
    probes: &[ProbeSpec],
    workload: &Workload,
    record: bool,
) -> (Result<WorkloadRun, SystemError>, Option<Recording>) {
    let mut system = System::new(config.clone(), spec.build());
    for probe in probes {
        system.attach_observer(probe.build());
    }
    let (result, recording) = if record {
        Recording::record(&mut system, workload.program())
    } else {
        (system.run(workload.program()), None)
    };
    let run = result.map(|_| WorkloadRun {
        verified: workload.verify(system.cpu()).is_ok(),
        probes: system.probe_reports(),
        run: TapeRun { stats: *system.stats(), tracker: system.tracker().clone() },
    });
    (run, recording)
}

/// The suite runner of one task (DESIGN.md §9, §17): one recorded tape
/// per workload, replayed for every later policy and fault mask. A
/// campaign phase-1 task and a sweep task each own one; a store is dropped
/// with its task, so nothing it caches can reach a report, a checkpoint or
/// another task. A tape depends on everything in a configuration but its
/// fault mask, so the configurations one store is handed may differ only
/// in [`SystemConfig::faults`].
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use transrec::tape::TapeStore;
/// use transrec::SystemConfig;
/// use uaware::PolicySpec;
///
/// let config = SystemConfig::new(Fabric::be());
/// let workloads = transrec::sweep::SuiteSpec::subset("crc", vec![1]).workloads(7);
/// let mut store = TapeStore::new(&workloads);
/// // The first policy records the workload; rotation replays it.
/// let base = store.run(&config, &PolicySpec::Baseline, 0).unwrap();
/// let rot = store.run(&config, &PolicySpec::rotation(), 0).unwrap();
/// assert!(base.verified && rot.verified);
/// assert_eq!(base.run.stats.offloads, rot.run.stats.offloads);
/// assert!(rot.run.tracker.utilization().max() < base.run.tracker.utilization().max());
/// ```
pub struct TapeStore<'a> {
    workloads: &'a [Workload],
    tapes: Vec<Option<Tape>>,
}

impl<'a> TapeStore<'a> {
    /// An empty store for `workloads`.
    pub fn new(workloads: &'a [Workload]) -> TapeStore<'a> {
        TapeStore { workloads, tapes: workloads.iter().map(|_| None).collect() }
    }

    /// The workloads the store runs.
    pub fn workloads(&self) -> &'a [Workload] {
        self.workloads
    }

    /// Runs workload `workload` under `spec` on a fresh system of `config`,
    /// as a full session would, with the workload's oracle verdict in
    /// [`WorkloadRun::verified`]. The first run of a workload to reach its
    /// exit records its tape; later runs replay it, or fall back to a full
    /// session where the policy disagrees with the tape, and a fallback
    /// that reaches its exit records the tape again. A replay fires
    /// nothing until it stands; then it publishes the counters its full
    /// session would have, whoever listened when the tape was recorded.
    ///
    /// # Errors
    ///
    /// The full session's error, [`SystemError::AllocationExhausted`]
    /// included.
    pub fn run(
        &mut self,
        config: &SystemConfig,
        spec: &PolicySpec,
        workload: usize,
    ) -> Result<WorkloadRun, SystemError> {
        let Some(tape) = &self.tapes[workload] else {
            let _record = span!(Level::INFO, "tape.record").entered();
            return self.session(config, spec, workload);
        };
        let replay = {
            let _replay = span!(Level::INFO, "tape.replay").entered();
            tape.replay(config, spec.build())
        };
        let Some((tally, tracker)) = replay else {
            let _fallback = span!(Level::INFO, "tape.fallback").entered();
            return self.session(config, spec, workload);
        };
        publish(&spec.to_string(), &tally, &Tally::default());
        Ok(WorkloadRun {
            run: TapeRun { stats: tally.stats, tracker },
            verified: true,
            probes: Vec::new(),
        })
    }

    /// Runs workload `workload` as a full, recorded session. One that runs
    /// to exit replaces the workload's tape with its own.
    fn session(
        &mut self,
        config: &SystemConfig,
        spec: &PolicySpec,
        workload: usize,
    ) -> Result<WorkloadRun, SystemError> {
        let (run, recording) = session(config, spec, &[], &self.workloads[workload], true);
        if let (Ok(WorkloadRun { verified, .. }), Some(recording)) = (&run, recording) {
            self.keep(workload, &config.fabric, *verified, recording);
        }
        run
    }

    /// Makes `recording` the tape of workload `workload`, if its session
    /// passed the oracle (`verified`) and it passes
    /// [`Recording::into_tape`] on `fabric`; else the workload keeps no
    /// tape.
    fn keep(&mut self, workload: usize, fabric: &Fabric, verified: bool, recording: Recording) {
        let _verify = span!(Level::INFO, "tape.verify").entered();
        self.tapes[workload] = if verified { recording.into_tape(fabric) } else { None };
    }
}

#[cfg(test)]
mod tests {
    use cgra::{Fabric, FaultMask};
    use proptest::prelude::*;

    use super::*;
    use crate::sweep::SuiteSpec;

    /// A baseline recording of crc32 on BE.
    fn recording() -> Recording {
        let config = SystemConfig::new(Fabric::be());
        let workload = &SuiteSpec::subset("crc", vec![1]).workloads(7)[0];
        let mut system = System::new(config, PolicySpec::Baseline.build());
        let (result, recording) = Recording::record(&mut system, workload.program());
        result.expect("crc32 runs");
        recording.expect("a session that ran to exit is recorded")
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
        assert!(tape.tally.stats.offloads > 0);
    }

    #[test]
    fn a_dying_first_recording_keeps_no_tape() {
        let mut config = dead_origin_with_fallback();
        config.fault_fallback = false;
        let workloads = SuiteSpec::subset("crc", vec![1]).workloads(7);
        let mut store = TapeStore::new(&workloads);
        let base = store.run(&config, &PolicySpec::Baseline, 0);
        assert!(
            matches!(base, Err(SystemError::AllocationExhausted { .. })),
            "the baseline's origin is dead"
        );
        assert!(store.tapes[0].is_none(), "a session that died leaves no tape");
        let rot = store.run(&config, &PolicySpec::rotation(), 0).expect("no error");
        assert!(rot.verified, "rotation routes around the dead origin");
        assert!(store.tapes[0].is_some(), "a session that ran to exit is recorded");
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

    proptest! {
        #[test]
        fn packed_decisions_decode_to_what_was_pushed(
            runs in proptest::collection::vec((0u32..6, 0u32..8, 1u32..5), 0..40),
        ) {
            let mut decisions = Decisions::default();
            let mut pushed = Vec::new();
            for &(config, flags, repeats) in &runs {
                let step = pack(config, flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                for _ in 0..repeats {
                    decisions.push(step);
                    pushed.push(step);
                }
            }
            let decoded: Vec<u32> = decisions
                .iter()
                .flat_map(|(step, repeats)| iter::repeat_n(step, repeats as usize))
                .collect();
            prop_assert_eq!(decoded, pushed);
            // A decision word only where the decision changes, plus a count
            // word where it repeats.
            let changes = (0..pushed.len()).filter(|&i| i == 0 || pushed[i] != pushed[i - 1]);
            let repeated = decisions.iter().filter(|&(_, n)| n > 1).count();
            prop_assert_eq!(decisions.words.len(), changes.count() + repeated);
        }
    }

    #[test]
    fn a_repeat_count_that_would_overflow_starts_a_new_word() {
        let step = pack(3, true, false, true);
        let mut decisions = Decisions::default();
        decisions.push(step);
        decisions.push(step);
        decisions.words[1] = u32::MAX;
        decisions.push(step);
        assert_eq!(decisions.iter().collect::<Vec<_>>(), [(step, u32::MAX), (step, 1)]);
    }

    /// BE with its origin dead and the GPP fallback on: the baseline's
    /// tape starves every configuration, so a mobile policy falls back.
    fn dead_origin_with_fallback() -> SystemConfig {
        let mut config = SystemConfig::new(Fabric::be());
        let mut mask = FaultMask::healthy(&config.fabric);
        mask.mark_dead(0, 0);
        config.faults = Some(mask);
        config.fault_fallback = true;
        config
    }

    #[test]
    fn a_fallback_the_oracle_rejects_keeps_no_tape() {
        let config = dead_origin_with_fallback();
        let good = SuiteSpec::subset("crc", vec![1]).workloads(7);
        let mut expected = good[0].expected().to_vec();
        expected[0].1[0] ^= 1;
        let program = good[0].program().clone();
        let bad = [Workload::from_program("crc32", program, good[0].max_steps(), expected)];
        // The baseline's tape of the program, recorded where the oracle
        // holds, in a store whose oracle rejects every full session.
        let mut recorded = TapeStore::new(&good);
        assert!(recorded.run(&config, &PolicySpec::Baseline, 0).expect("no error").verified);
        let mut store = TapeStore::new(&bad);
        store.tapes[0] = recorded.tapes[0].take();
        let rot = store.run(&config, &PolicySpec::rotation(), 0).expect("no error");
        assert!(!rot.verified, "the fallback is a full session the oracle rejects");
        assert!(store.tapes[0].is_none(), "it replaces the tape with none");
        let ha = store.run(&config, &PolicySpec::HealthAware, 0).expect("no error");
        assert!(!ha.verified, "with no tape, health-aware runs a full session too");
    }

    #[test]
    fn a_refused_recording_leaves_no_tape_to_replay() {
        let config = SystemConfig::new(Fabric::be());
        let workloads = SuiteSpec::subset("crc", vec![1]).workloads(7);
        let mut recording = recording();
        sample_where(&mut recording, |s| !s.outputs.is_empty()).outputs[0] ^= 1;
        let mut store = TapeStore::new(&workloads);
        store.keep(0, &config.fabric, true, recording);
        assert!(store.tapes[0].is_none(), "a refused recording is no tape");
        let rot = store.run(&config, &PolicySpec::rotation(), 0).expect("no error");
        assert!(rot.verified, "the oracle accepts the full session");
        assert!(store.tapes[0].is_some(), "which records the tape again");
    }

    #[test]
    fn a_sweep_cell_reports_exhaustion_as_the_sessions_error() {
        let mut config = dead_origin_with_fallback();
        config.fault_fallback = false;
        let workloads = SuiteSpec::subset("crc", vec![1]).workloads(7);
        let mut store = TapeStore::new(&workloads);
        assert!(store.run(&config, &PolicySpec::rotation(), 0).expect("alive").verified);
        let err = store.run(&config, &PolicySpec::Baseline, 0).expect_err("the origin is dead");
        let session = System::new(config.clone(), PolicySpec::Baseline.build())
            .run(workloads[0].program())
            .expect_err("the origin is dead");
        assert!(matches!(err, SystemError::AllocationExhausted { .. }));
        assert_eq!(err, session);
    }
}
