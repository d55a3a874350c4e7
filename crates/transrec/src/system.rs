//! The full TransRec machine (paper Fig. 2): GPP core + DBT + configuration
//! cache + CGRA reconfigurable unit, wired to an allocation policy.
//!
//! Execution loop per the paper's steps: the application runs on the GPP
//! (1); retired instructions stream into the DBT (2), which builds
//! configurations into the PC-indexed cache (3); every fetch checks the
//! cache (4); on a hit the input context is transferred (5), the CGRA
//! executes the configuration at the pivot the policy chose (6), and the
//! outputs commit back to the register file (7).
//!
//! Execution is organized as observable, resumable [`Session`]s
//! (DESIGN.md §10): [`System::session`] loads a program and hands back a
//! handle that advances the machine one scheduling decision at a time
//! ([`Session::step`]), by cycle budget ([`Session::run_for`]) or to
//! completion ([`Session::finish`]); [`System::run`] is the run-to-exit
//! convenience wrapper. Every decision is published to the attached
//! [`Observer`]s as [`SimEvent`]s and counted exactly once, in the
//! session's typed tally; each session call publishes what the tally gained
//! to the metrics registry as it returns (DESIGN.md §16).

use std::fmt;
use std::sync::Arc;

use cgra::op::OpKind;
use cgra::{
    ExecError, ExecScratch, Executor, Fabric, FabricError, FaultMask, Offset, ReconfigUnit,
    RESIDENT_ROTATE_CYCLES,
};
use dbt::membus::MemoryBus;
use dbt::{CachedConfig, ConfigCache, TranslateCounts, Translator, TranslatorParams};
use rv32::cpu::{Cpu, CpuError, Exit, TimingModel};
use rv32::mem::MemError;
use rv32::Program;
use serde::{Deserialize, Serialize};
use uaware::{AllocRequest, AllocationPolicy, LegalPivots, PolicySpec, UtilizationTracker};

use crate::tape::{LoggingBus, Recorder, Sample};
use crate::telemetry::{EventCtx, Observer, OffloadOverheads, ProbeReport, SimEvent};

/// Static system parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The CGRA fabric.
    pub fabric: Fabric,
    /// Configuration-cache capacity (entries).
    pub cache_capacity: usize,
    /// DBT parameters.
    pub translator: TranslatorParams,
    /// GPP memory size in bytes.
    pub mem_size: usize,
    /// GPP timing model.
    pub timing: TimingModel,
    /// Whether the movement hardware extensions (§III.B) are present.
    /// Without them, only origin-anchored policies can run.
    pub movement_hardware: bool,
    /// Register words transferred to/from the context per cycle (steps 5/7).
    pub transfer_words_per_cycle: u32,
    /// Skip offloading when the fabric would be slower than the GPP.
    pub offload_heuristic: bool,
    /// Safety valve for run lengths.
    pub max_steps: u64,
    /// Permanent fault mask applied at construction (DESIGN.md §15). Putting
    /// faults in the *config* lets sweep harnesses — which clone one
    /// [`SystemConfig`] per cell — run every policy against the same damaged
    /// fabric. This is the only way a mask reaches a system.
    pub faults: Option<FaultMask>,
    /// Treat allocation exhaustion on a faulty fabric as starvation (the
    /// configuration stays on the GPP, `offloads_starved` counts it) instead
    /// of a fatal [`SystemError::AllocationExhausted`]. Off by default: the
    /// closed-loop wear engine relies on exhaustion to detect device death,
    /// while gap experiments want degraded-but-operational behavior.
    pub fault_fallback: bool,
}

impl SystemConfig {
    /// Defaults for a given fabric: 256-entry cache, default DBT and timing,
    /// movement hardware present, 2 words/cycle context transfer.
    pub fn new(fabric: Fabric) -> SystemConfig {
        SystemConfig {
            fabric,
            cache_capacity: 256,
            translator: TranslatorParams::default(),
            mem_size: 1 << 20,
            timing: TimingModel::default(),
            movement_hardware: true,
            transfer_words_per_cycle: 2,
            offload_heuristic: true,
            max_steps: 50_000_000,
            faults: None,
            fault_fallback: false,
        }
    }
}

/// Cycle and event counters for one run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Cycles spent executing instructions on the GPP.
    pub gpp_cycles: u64,
    /// Cycles the CGRA spent computing.
    pub cgra_exec_cycles: u64,
    /// Cycles spent streaming configurations into the fabric.
    pub reconfig_cycles: u64,
    /// Cycles rotating a resident configuration to a new pivot.
    pub rotate_cycles: u64,
    /// Cycles transferring the input/output contexts.
    pub transfer_cycles: u64,
    /// Configuration executions on the fabric.
    pub offloads: u64,
    /// Instructions covered by those executions.
    pub offloaded_instrs: u64,
    /// Instructions retired by the GPP itself.
    pub gpp_retired: u64,
    /// Offloads skipped by the profitability heuristic.
    pub offloads_skipped: u64,
    /// Cached configurations kept on the GPP because no pivot satisfied
    /// their capability demands on this fabric's class mix (DESIGN.md §14).
    pub offloads_starved: u64,
    /// Loads performed by the fabric.
    pub cgra_loads: u64,
    /// Stores performed by the fabric.
    pub cgra_stores: u64,
    /// Active FU column-slots (Σ occupied cells over all executions).
    pub cgra_active_fu_slots: u64,
    /// Executed fabric columns (Σ cols_used over all executions).
    pub cgra_columns: u64,
    /// Configuration-cache lookups (one per fetch-check).
    pub cache_lookups: u64,
}

impl SystemStats {
    /// Total system cycles (GPP + all offload components).
    pub fn total_cycles(&self) -> u64 {
        self.gpp_cycles
            + self.cgra_exec_cycles
            + self.reconfig_cycles
            + self.rotate_cycles
            + self.transfer_cycles
    }

    /// Dynamic instructions (GPP-retired + offloaded).
    pub fn total_instrs(&self) -> u64 {
        self.gpp_retired + self.offloaded_instrs
    }
}

/// Every count a session publishes (DESIGN.md §16): its [`SystemStats`]
/// and the counts they do not keep, each counted once where it happens.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Tally {
    pub(crate) stats: SystemStats,
    /// Offloads started, one whose execution faulted included.
    offloads_started: u64,
    config_loads: u64,
    /// Resident configurations rotated to a new pivot.
    pub(crate) rotations: u64,
    cache_hits: u64,
    cache_inserted: u64,
    cache_evicted: u64,
    /// The DBT's counts; [`System::tally`] reads them from the translator.
    translate: TranslateCounts,
    /// The allocation step's counts; [`System::tally`] reads them from it.
    pub(crate) alloc: AllocCounts,
}

/// What the allocation step counted (DESIGN.md §16).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct AllocCounts {
    /// Decisions asked of the policy.
    decisions: u64,
    /// Cells stressed past their column's bandwidth budget (DESIGN.md §14).
    oversubscribed: u64,
    /// The policy's own counts.
    policy: uaware::PolicyCounts,
}

/// Publishes what each session counter gained from `before` to `now` in
/// one [`obs::publish`], and nothing for a counter that gained nothing,
/// except that a solver call adds to all five of its counters: the one
/// place the session's counters are named (DESIGN.md §16). `alloc.<kind>.*`
/// takes the head of `policy`, the policy's canonical name.
pub(crate) fn publish(policy: &str, now: &Tally, before: &Tally) {
    obs::publish(|reg| {
        let kind = policy.split([':', '@']).next().unwrap_or(policy);
        let (decisions, replayed) =
            (format!("alloc.{kind}.decisions"), format!("alloc.{kind}.replayed"));
        let counters = |t: &Tally| {
            let (s, dbt, alloc) = (&t.stats, &t.translate, &t.alloc);
            [
                ("system.gpp_retired", s.gpp_retired),
                ("system.offloads", t.offloads_started),
                ("tracker.executions", s.offloads),
                ("system.offloads_skipped", s.offloads_skipped),
                ("system.offloads_starved", s.offloads_starved),
                ("system.config_loads", t.config_loads),
                ("system.rotations", t.rotations),
                ("dbt.cache.hit", t.cache_hits),
                ("dbt.cache.miss", s.cache_lookups - t.cache_hits),
                ("dbt.cache.insert", t.cache_inserted),
                ("dbt.cache.evict", t.cache_evicted),
                ("dbt.translate.calls", dbt.calls),
                ("dbt.translate.rejected", dbt.rejected),
                ("dbt.translate.placed_instrs", dbt.placed_instrs),
                (decisions.as_str(), alloc.decisions),
                (replayed.as_str(), alloc.policy.replayed),
                ("cgra.bandwidth.oversub", alloc.oversubscribed),
                ("solve.infeasible", alloc.policy.solve_infeasible),
            ]
        };
        for ((name, now), (_, before)) in counters(now).into_iter().zip(counters(before)) {
            if now != before {
                reg.counter_add(name, now - before);
            }
        }
        let (now, before) = (&now.alloc.policy, &before.alloc.policy);
        if now.solve_calls != before.solve_calls {
            let (n, b) = (now.solve, before.solve);
            for (name, gain) in [
                ("solve.calls", now.solve_calls - before.solve_calls),
                ("solve.expanded", n.expanded - b.expanded),
                ("solve.generated", n.generated - b.generated),
                ("solve.bound_cutoffs", n.pruned_bound - b.pruned_bound),
                ("solve.nogoods", n.pruned_nogood - b.pruned_nogood),
            ] {
                reg.counter_add(name, gain);
            }
        }
    });
}

/// A [`SystemConfig`] and policy spec that cannot make a runnable system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The policy spec moves configurations away from the origin, but the
    /// movement hardware extensions (paper §III.B) are disabled — the run
    /// would fault on its first non-origin pivot.
    MovementHardwareAbsent {
        /// The offending policy spec (canonical string form).
        policy: String,
    },
    /// The fabric itself is invalid — empty, or too narrow for its memory
    /// latency (the former [`Fabric::new`] panics, typed; DESIGN.md §14).
    Fabric(FabricError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MovementHardwareAbsent { policy } => write!(
                f,
                "policy `{policy}` needs the movement hardware extensions, \
                 but movement_hardware is false"
            ),
            BuildError::Fabric(e) => write!(f, "invalid fabric: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<FabricError> for BuildError {
    fn from(e: FabricError) -> BuildError {
        BuildError::Fabric(e)
    }
}

/// The spec-vs-hardware check every entry point runs before simulating:
/// the first of `specs` that needs the movement extensions is rejected
/// when `movement_hardware` is false.
pub(crate) fn check_movement<'a>(
    specs: impl IntoIterator<Item = &'a PolicySpec>,
    movement_hardware: bool,
) -> Result<(), BuildError> {
    match specs.into_iter().find(|spec| !movement_hardware && spec.needs_movement()) {
        Some(spec) => Err(BuildError::MovementHardwareAbsent { policy: spec.to_string() }),
        None => Ok(()),
    }
}

/// Errors from a system run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// GPP fault.
    Cpu(CpuError),
    /// Fabric fault.
    Exec(ExecError),
    /// Program image problem.
    Mem(MemError),
    /// A policy asked for movement without the hardware extensions.
    MovementUnsupported {
        /// The offending offset.
        offset: Offset,
    },
    /// The allocation policy found no placement avoiding the fault mask's
    /// dead FUs — the device's end of life (DESIGN.md §11). Capability
    /// starvation on a heterogeneous fabric is *not* this error: when a
    /// fault-free placement still exists but no pivot satisfies the
    /// configuration's capability demands, the configuration stays on the
    /// GPP instead (DESIGN.md §14). With
    /// [`SystemConfig::fault_fallback`] enabled, fault exhaustion also
    /// falls back to the GPP rather than raising this error (DESIGN.md
    /// §15).
    AllocationExhausted {
        /// Start PC of the configuration that could not be placed.
        pc: u32,
    },
    /// The run exceeded `max_steps`.
    StepLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// The system could not be constructed in the first place.
    Build(BuildError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Cpu(e) => write!(f, "{e}"),
            SystemError::Exec(e) => write!(f, "{e}"),
            SystemError::Mem(e) => write!(f, "{e}"),
            SystemError::MovementUnsupported { offset } => {
                write!(f, "policy requested offset {offset} but the movement extensions are absent")
            }
            SystemError::AllocationExhausted { pc } => {
                write!(f, "no fault-free placement remains for configuration at pc {pc:#x}")
            }
            SystemError::StepLimit { limit } => write!(f, "system step limit {limit} exceeded"),
            SystemError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<BuildError> for SystemError {
    fn from(e: BuildError) -> SystemError {
        SystemError::Build(e)
    }
}

impl From<CpuError> for SystemError {
    fn from(e: CpuError) -> SystemError {
        SystemError::Cpu(e)
    }
}

impl From<ExecError> for SystemError {
    fn from(e: ExecError) -> SystemError {
        SystemError::Exec(e)
    }
}

impl From<MemError> for SystemError {
    fn from(e: MemError) -> SystemError {
        SystemError::Mem(e)
    }
}

/// What every offload of a cached configuration needs, derived once when
/// the DBT installs it (DESIGN.md §10): the hardware decodes a trace into
/// the configuration cache once and executes it many times, and so does
/// the simulator — the cache stores this record itself. Only its
/// [`Legality`] depends on the fault mask, which a session never changes.
pub(crate) struct Decoded {
    /// The translated configuration.
    pub(crate) cc: CachedConfig,
    /// What the covered instructions would cost on the GPP.
    gpp_estimate: u64,
    /// Virtual cells the configuration occupies (`Configuration::cells`).
    pub(crate) footprint: Vec<(u32, u32)>,
    /// Anchor-capability demands (`Configuration::demands`).
    pub(crate) demands: Vec<(u32, u32, OpKind)>,
    /// Its allocation facts under the installed fault mask.
    legality: Legality,
}

/// What allocating one configuration depends on under one fault mask and
/// class mix: built at decode and per configuration of a replayed offload
/// tape (DESIGN.md §17).
pub(crate) struct Legality {
    /// The pivots its footprint may take (DESIGN.md §11, §14).
    legal: LegalPivots,
    /// Whether the configuration stays on the GPP when the policy finds no
    /// pivot, instead of ending the run with
    /// [`SystemError::AllocationExhausted`]. Fault exhaustion — no offset
    /// fits the footprint on the live FUs — is the device's end of life
    /// (DESIGN.md §11); anything else is the class mix's fault, and the
    /// configuration starves (DESIGN.md §14). In degraded-but-operational
    /// mode (DESIGN.md §15) the GPP absorbs whatever the policy cannot
    /// place on a faulted fabric, the baseline's dead origin included.
    starves: bool,
}

impl Legality {
    /// The facts of a configuration with `footprint` and anchor `demands`
    /// on `config`'s fabric and fault mask.
    pub(crate) fn new(
        config: &SystemConfig,
        footprint: &[(u32, u32)],
        demands: &[(u32, u32, OpKind)],
    ) -> Legality {
        let (fabric, faults) = (&config.fabric, config.faults.as_ref());
        let demanding = !fabric.is_uniform() && !demands.is_empty();
        let starves = (config.fault_fallback && faults.is_some())
            || (demanding && faults.is_none_or(|m| m.any_placement(fabric, footprint)));
        Legality { legal: LegalPivots::new(fabric, footprint, demands, faults), starves }
    }
}

/// The policy-dependent half of an offload (DESIGN.md §17): the policy,
/// the utilization tracker and the resident pivot. A [`System`] session
/// and an offload-tape replay both drive this one step. Choosing the pivot
/// and recording the execution are two calls, so a session's observers
/// see [`SimEvent::OffloadStarted`] before the tracker changes.
pub(crate) struct Allocator {
    policy: Box<dyn AllocationPolicy>,
    pub(crate) tracker: UtilizationTracker,
    /// The pivot of the last offload: the resident configuration's.
    resident: Offset,
    /// The physical cells handed to the tracker, reused.
    cells: Vec<(u32, u32)>,
    /// Its decisions and oversubscribed cells; the policy keeps its own.
    counts: AllocCounts,
}

/// Where [`Allocator::choose`] placed an offload.
pub(crate) struct Pivot {
    pub(crate) offset: Offset,
    /// The resident configuration rotated here from this pivot, exposing
    /// these cycles.
    pub(crate) rotated: Option<(Offset, u64)>,
}

// Inlined: a tape replay calls both steps per decision (~20% faster).
impl Allocator {
    /// A fresh step on `fabric` under `policy`.
    pub(crate) fn new(fabric: &Fabric, policy: Box<dyn AllocationPolicy>) -> Allocator {
        Allocator {
            policy,
            tracker: UtilizationTracker::new(fabric),
            resident: Offset::ORIGIN,
            cells: Vec::new(),
            counts: AllocCounts::default(),
        }
    }

    /// What the step and its policy counted so far.
    pub(crate) fn counts(&self) -> AllocCounts {
        AllocCounts { policy: self.policy.counts(), ..self.counts }
    }

    /// Asks the policy for the pivot of the configuration at `pc` with
    /// `footprint` and `legality` on `config`'s fabric. `config_switch`:
    /// it is not the resident configuration; `gpp_dirty`: the GPP retired
    /// instructions since the last offload. `Ok(None)` when the
    /// configuration starves and stays on the GPP.
    ///
    /// # Errors
    ///
    /// [`SystemError::AllocationExhausted`] when the policy found no pivot
    /// and the configuration does not starve;
    /// [`SystemError::MovementUnsupported`] for a pivot off the origin
    /// without the movement hardware.
    #[inline]
    pub(crate) fn choose(
        &mut self,
        config: &SystemConfig,
        pc: u32,
        footprint: &[(u32, u32)],
        legality: &Legality,
        config_switch: bool,
        gpp_dirty: bool,
    ) -> Result<Option<Pivot>, SystemError> {
        self.counts.decisions += 1;
        let offset = self.policy.next_offset(&AllocRequest {
            fabric: &config.fabric,
            config_switch,
            footprint,
            tracker: &self.tracker,
            legal: &legality.legal,
        });
        let Some(offset) = offset else {
            let exhausted = SystemError::AllocationExhausted { pc };
            return if legality.starves { Ok(None) } else { Err(exhausted) };
        };
        if offset != Offset::ORIGIN && !config.movement_hardware {
            return Err(SystemError::MovementUnsupported { offset });
        }
        // Moving the resident configuration rotates it (DESIGN.md §4.4): the
        // per-column barrel shift proceeds behind the previous execution's
        // left-to-right wave, so back-to-back executions hide it completely
        // (the paper's "no significant performance overhead"). It is only
        // exposed after GPP activity.
        let rotated = (!config_switch && offset != self.resident)
            .then_some((self.resident, if gpp_dirty { RESIDENT_ROTATE_CYCLES } else { 0 }));
        self.resident = offset;
        Ok(Some(Pivot { offset, rotated }))
    }

    /// Records one execution of `footprint`, using `cols_used` columns, at
    /// the pivot [`choose`](Allocator::choose) last returned.
    #[inline]
    pub(crate) fn record(&mut self, fabric: &Fabric, footprint: &[(u32, u32)], cols_used: u32) {
        // The tracker's accounting is order-independent, so the physical
        // cells go in footprint order, unsorted.
        let offset = self.resident;
        self.cells.clear();
        self.cells.extend(footprint.iter().map(|&(r, c)| offset.apply(fabric, r, c)));
        self.counts.oversubscribed += self.tracker.record_execution(&self.cells, cols_used);
    }
}

/// The TransRec system simulator.
pub struct System {
    config: SystemConfig,
    cpu: Cpu,
    translator: Translator,
    /// One decoded record per cached start PC, kept in step with the
    /// fault mask.
    cache: ConfigCache<Arc<Decoded>>,
    /// The policy, the tracker and the resident pivot.
    alloc: Allocator,
    reconfig_unit: ReconfigUnit,
    /// Start PC of the resident configuration.
    resident: Option<u32>,
    /// Whether the GPP has retired anything since the last offload (if not,
    /// a re-execution of the resident configuration finds its input context
    /// still valid and skips the transfer).
    gpp_dirty: bool,
    /// Offload buffers, reused so an offload allocates nothing: the input
    /// context and the executor's working memory.
    inputs: Vec<u32>,
    scratch: ExecScratch,
    /// The session counts (DESIGN.md §10, §16).
    tally: Tally,
    /// Attached telemetry probes; each sees the identical stream.
    probes: Vec<Box<dyn Observer>>,
    /// Ensures `on_finish` fires exactly once per session.
    finish_notified: bool,
    /// The offload tape being recorded, if any (DESIGN.md §17).
    recorder: Option<Recorder>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("fabric", &self.config.fabric)
            .field("policy", &self.alloc.policy.name())
            .field("stats", &self.tally.stats)
            .finish()
    }
}

impl System {
    /// Builds a system from a configuration and a policy given as data,
    /// after checking that the two agree (DESIGN.md §8). Construction fails
    /// with a typed [`BuildError`] instead of the run faulting later at the
    /// first non-origin pivot.
    ///
    /// # Errors
    ///
    /// [`BuildError::Fabric`] when the fabric value itself is invalid
    /// (hand-built or deserialized — [`Fabric::new`] rejects these at
    /// construction, but `Fabric` fields are public);
    /// [`BuildError::MovementHardwareAbsent`] when the policy needs the
    /// movement extensions but [`SystemConfig::movement_hardware`] is false.
    ///
    /// # Panics
    ///
    /// As [`System::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cgra::Fabric;
    /// use transrec::{BuildError, System, SystemConfig};
    /// use uaware::PolicySpec;
    ///
    /// let config = SystemConfig { cache_capacity: 128, ..SystemConfig::new(Fabric::be()) };
    /// let sys = System::with_spec(config, PolicySpec::rotation()).unwrap();
    /// assert_eq!(sys.policy_name(), "rotation:snake@per-exec");
    ///
    /// // Rotation without the movement extensions is rejected up front.
    /// let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
    /// let err = System::with_spec(config, PolicySpec::rotation()).unwrap_err();
    /// assert!(matches!(err, BuildError::MovementHardwareAbsent { .. }));
    /// ```
    pub fn with_spec(config: SystemConfig, spec: PolicySpec) -> Result<System, BuildError> {
        config.fabric.validate()?;
        check_movement([&spec], config.movement_hardware)?;
        Ok(System::new(config, spec.build()))
    }

    /// Builds a system from a configuration and an already-instantiated
    /// allocation policy — the unchecked escape hatch for policies that are
    /// not expressible as a [`PolicySpec`]. Prefer [`System::with_spec`],
    /// which validates the spec against the hardware configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's fault mask geometry does not match
    /// its fabric.
    pub fn new(config: SystemConfig, policy: Box<dyn AllocationPolicy>) -> System {
        if let Some(mask) = &config.faults {
            assert_eq!(
                (mask.rows(), mask.cols()),
                (config.fabric.rows, config.fabric.cols),
                "fault mask geometry must match the fabric"
            );
        }
        let reconfig_unit = if config.movement_hardware {
            ReconfigUnit::with_movement()
        } else {
            ReconfigUnit::baseline()
        };
        System {
            cpu: Cpu::with_timing(config.mem_size, config.timing),
            translator: Translator::with_params(config.fabric, config.translator),
            cache: ConfigCache::new(config.cache_capacity),
            alloc: Allocator::new(&config.fabric, policy),
            reconfig_unit,
            resident: None,
            gpp_dirty: true,
            inputs: Vec::new(),
            scratch: ExecScratch::new(),
            tally: Tally::default(),
            probes: Vec::new(),
            finish_notified: false,
            recorder: None,
            config,
        }
    }

    /// Attaches an observer to the event stream: a built-in probe from its
    /// [`ProbeSpec`](crate::ProbeSpec) as `attach_observer(spec.build())`,
    /// or custom instrumentation.
    pub fn attach_observer(&mut self, observer: Box<dyn Observer>) {
        self.probes.push(observer);
    }

    /// Collects the serializable reports of every attached probe, in
    /// attachment order (observers without a report are skipped).
    pub fn probe_reports(&self) -> Vec<ProbeReport> {
        self.probes.iter().filter_map(|p| p.report()).collect()
    }

    /// The GPP (for inspecting architectural state after a run).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Run statistics so far, counted where each fact happens.
    pub fn stats(&self) -> &SystemStats {
        &self.tally.stats
    }

    /// Every count of the system so far.
    pub(crate) fn tally(&self) -> Tally {
        Tally { translate: self.translator.counts(), alloc: self.alloc.counts(), ..self.tally }
    }

    /// The utilization tracker (per-FU stress observations).
    pub fn tracker(&self) -> &UtilizationTracker {
        &self.alloc.tracker
    }

    /// The permanent-failure map of the system's configuration, if any.
    pub fn fault_mask(&self) -> Option<&FaultMask> {
        self.config.faults.as_ref()
    }

    /// Starts recording every allocation decision into an offload tape
    /// (DESIGN.md §17), replacing any recording in progress.
    pub(crate) fn start_recording(&mut self) {
        self.recorder = Some(Recorder::default());
    }

    /// Stops recording and hands the recorded decisions back.
    pub(crate) fn take_recording(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// The allocation policy's instance-level name (pattern, granularity
    /// and seed included, e.g. `rotation:snake@per-load`).
    pub fn policy_name(&self) -> String {
        self.alloc.policy.name()
    }

    /// What the covered instructions would cost on the GPP.
    fn estimate_gpp_cycles(&self, cc: &CachedConfig) -> u64 {
        let t = &self.config.timing;
        let exit = match cc.exit {
            dbt::TraceExit::Branch { .. } => t.branch + t.taken_extra,
            dbt::TraceExit::Jump { .. } => t.jump,
            dbt::TraceExit::Sequential => 0,
        };
        exit + cc
            .config
            .ops()
            .iter()
            .map(|op| match op.kind {
                OpKind::Alu(_) => t.alu,
                OpKind::Mul(_) => t.mul,
                OpKind::Load { .. } => t.load,
                OpKind::Store { .. } => t.store,
            })
            .sum::<u64>()
    }

    /// Derives the per-offload record of a freshly built configuration.
    fn decode(&self, cc: CachedConfig) -> Decoded {
        let footprint: Vec<(u32, u32)> = cc.config.cells().collect();
        let demands: Vec<(u32, u32, OpKind)> = cc.config.demands().collect();
        let legality = Legality::new(&self.config, &footprint, &demands);
        Decoded { gpp_estimate: self.estimate_gpp_cycles(&cc), footprint, demands, legality, cc }
    }

    /// Publishes the event `event` builds to every attached probe
    /// (identical stream, attachment order); with none, builds nothing.
    fn emit(&mut self, event: impl FnOnce() -> SimEvent) {
        if self.probes.is_empty() {
            return;
        }
        let event = event();
        let ctx = EventCtx { cycle: self.cpu.cycles(), tracker: &self.alloc.tracker };
        for probe in &mut self.probes {
            probe.on_event(&ctx, &event);
        }
    }

    /// Fires `on_finish` exactly once per session, the first time the
    /// program's exit is observed.
    fn notify_finish(&mut self) {
        if self.finish_notified {
            return;
        }
        self.finish_notified = true;
        let ctx = EventCtx { cycle: self.cpu.cycles(), tracker: &self.alloc.tracker };
        for probe in &mut self.probes {
            probe.on_finish(&ctx);
        }
    }

    /// Offload cost components for `cc` at the current resident state,
    /// with `rotate` exposed rotate cycles, plus the raw cycles of
    /// streaming it in on a `config_switch`.
    ///
    /// Overlap model (DESIGN.md §4): the input-context transfer overlaps
    /// with configuration streaming (both happen before execution, on
    /// independent paths), and outputs drain through the ROB *during*
    /// execution — only the residual beyond the execution time stalls the
    /// commit (paper Fig. 4, "To ROB").
    fn offload_overheads(
        &self,
        cc: &CachedConfig,
        config_switch: bool,
        rotate: u64,
    ) -> (OffloadOverheads, u64) {
        let wpc = self.config.transfer_words_per_cycle as u64;
        // A back-to-back re-execution of the resident configuration with no
        // intervening GPP activity finds the input context still valid
        // (loop-carried values feed back, invariants were already loaded).
        let input = if !config_switch && !self.gpp_dirty {
            0
        } else {
            (cc.input_regs.len() as u64).div_ceil(wpc)
        };
        let exec = self.config.fabric.exec_cycles(cc.config.cols_used());
        let out_drain = (cc.output_regs.len() as u64).div_ceil(wpc).saturating_sub(exec);
        let stream = if config_switch {
            self.reconfig_unit.load_cycles(&self.config.fabric, cc.config.cols_used())
        } else {
            0
        };
        let reconfig_extra = stream.saturating_sub(input);
        (OffloadOverheads { input, out_drain, reconfig_extra, rotate }, stream)
    }

    /// Executes one offload (paper steps 5–7) at the pivot the
    /// [`Allocator`] chose. Returns `false` — without executing anything —
    /// when the configuration starves: the policy found no pivot, but the
    /// device is not dead, so the configuration must stay on the GPP
    /// (DESIGN.md §14, §15).
    fn offload(&mut self, decoded: &Arc<Decoded>) -> Result<bool, SystemError> {
        let Decoded { cc, footprint, legality, .. } = &**decoded;
        let fabric = self.config.fabric;
        let (pc, cols_used) = (cc.start_pc, cc.config.cols_used());
        let config_switch = self.resident != Some(pc);
        let gpp_dirty = self.gpp_dirty;
        let pivot =
            self.alloc.choose(&self.config, pc, footprint, legality, config_switch, gpp_dirty)?;
        // A recording logs every decision, and the first execution of each
        // configuration as the sample its tape is verified against
        // (DESIGN.md §17).
        let sampled = self.recorder.as_mut().and_then(|recorder| {
            let config = recorder.decision(decoded, config_switch, gpp_dirty, pivot.is_some());
            recorder.needs_sample(config).then_some(config)
        });
        let Some(Pivot { offset, rotated }) = pivot else {
            self.tally.stats.offloads_starved += 1;
            self.emit(|| SimEvent::AllocationStarved { pc });
            return Ok(false);
        };
        let rotate = rotated.map_or(0, |(_, cycles)| cycles);
        let (ov, stream_cycles) = self.offload_overheads(cc, config_switch, rotate);
        self.tally.offloads_started += 1;
        self.emit(|| SimEvent::OffloadStarted { pc, offset, config_switch });

        self.inputs.clear();
        self.inputs.extend(cc.input_regs.iter().map(|r| self.cpu.reg(*r)));
        let executor = Executor::new(&fabric);
        let mut bus = MemoryBus::new(&mut self.cpu.mem);
        let mem_ops = match (sampled, &mut self.recorder) {
            (Some(config), Some(recorder)) => {
                let mut logging = LoggingBus::new(bus);
                let mem_ops = executor.run(
                    &cc.config,
                    offset,
                    &self.inputs,
                    &mut logging,
                    &mut self.scratch,
                )?;
                let (inputs, outputs) = (self.inputs.clone(), self.scratch.outputs().to_vec());
                recorder.set_sample(config, Sample { inputs, mem: logging.into_log(), outputs });
                mem_ops
            }
            _ => executor.run(&cc.config, offset, &self.inputs, &mut bus, &mut self.scratch)?,
        };
        let outputs = self.scratch.outputs();
        for (reg, value) in cc.output_regs.iter().zip(outputs) {
            self.cpu.set_reg(*reg, *value);
        }
        let next_pc = match cc.exit {
            dbt::TraceExit::Branch { taken, not_taken } => {
                let idx = cc.cond_output_index.expect("branch exit carries a condition");
                if outputs[idx] != 0 {
                    taken
                } else {
                    not_taken
                }
            }
            _ => cc.next_pc(),
        };
        self.cpu.set_pc(next_pc);
        self.resident = Some(pc);

        self.alloc.record(&fabric, footprint, cols_used);
        let exec_cycles = fabric.exec_cycles(cols_used);
        self.cpu.add_cycles(exec_cycles + ov.total());
        if let Some((from, cycles)) = rotated {
            self.tally.rotations += 1;
            self.emit(|| SimEvent::Rotated { pc, from, to: offset, cycles });
        }
        if config_switch {
            self.tally.config_loads += 1;
            let exposed_cycles = ov.reconfig_extra;
            self.emit(|| SimEvent::ConfigLoaded { pc, cols_used, stream_cycles, exposed_cycles });
        }
        let stats = &mut self.tally.stats;
        stats.cgra_exec_cycles += exec_cycles;
        stats.reconfig_cycles += ov.reconfig_extra;
        stats.rotate_cycles += ov.rotate;
        stats.transfer_cycles += ov.input + ov.out_drain;
        stats.offloads += 1;
        stats.offloaded_instrs += cc.instr_count as u64;
        stats.cgra_loads += mem_ops.loads as u64;
        stats.cgra_stores += mem_ops.stores as u64;
        stats.cgra_active_fu_slots += footprint.len() as u64;
        stats.cgra_columns += cols_used as u64;
        self.emit(|| SimEvent::OffloadCompleted {
            pc,
            offset,
            instr_count: cc.instr_count,
            exec_cycles,
            overheads: ov,
            loads: mem_ops.loads as u64,
            stores: mem_ops.stores as u64,
            active_fus: footprint.len() as u64,
            cols_used,
        });
        self.gpp_dirty = false;
        Ok(true)
    }

    /// Loads `program` and returns a resumable [`Session`] over it with a
    /// fresh step budget.
    ///
    /// Loading a program is a context switch for the DBT: the PC-indexed
    /// configuration cache (with its decoded offload records) and the
    /// in-flight trace are flushed (translations of a previous program at
    /// overlapping addresses must never execute against the new one), and
    /// the fabric's resident configuration is dropped. *Wear* state —
    /// statistics, per-FU utilization and attached probes — persists
    /// across sessions on the same system (it accumulates, like the
    /// hardware's counters and the silicon's stress would).
    ///
    /// # Errors
    ///
    /// [`SystemError::Mem`] if the program image does not fit.
    pub fn session(&mut self, program: &Program) -> Result<Session<'_>, SystemError> {
        self.cpu.load_program(program)?;
        self.cache.clear();
        self.translator.discard();
        self.resident = None;
        self.gpp_dirty = true;
        self.finish_notified = false;
        Ok(Session { steps_left: self.config.max_steps, system: self })
    }

    /// Re-opens a session on the already-loaded program *without*
    /// resetting architectural state: the execution resumes exactly where
    /// the previous session handle left off (the handle can be dropped at
    /// any pause point and the system inspected in between). Only the
    /// step budget is fresh.
    pub fn session_resume(&mut self) -> Session<'_> {
        Session { steps_left: self.config.max_steps, system: self }
    }

    /// Loads and runs `program` to completion — the thin convenience
    /// wrapper over [`System::session`] + [`Session::finish`].
    ///
    /// # Errors
    ///
    /// Propagates GPP/fabric faults; returns [`SystemError::StepLimit`] if
    /// the program does not halt within the configured budget.
    pub fn run(&mut self, program: &Program) -> Result<Exit, SystemError> {
        self.session(program)?.finish()
    }
}

/// Outcome of advancing a [`Session`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// The program has not halted yet; the session can keep stepping.
    Running,
    /// The program halted with this exit.
    Exited(Exit),
}

impl SessionStatus {
    /// `true` while the program has not halted.
    pub fn is_running(&self) -> bool {
        matches!(self, SessionStatus::Running)
    }
}

/// A resumable execution of one program on a [`System`] (DESIGN.md §10).
///
/// A session advances the machine one *scheduling decision* at a time —
/// either one offloaded configuration execution or one GPP instruction —
/// and can pause between decisions: step with [`step`](Session::step),
/// advance a cycle budget with [`run_for`](Session::run_for), inspect the
/// system through [`system`](Session::system), resume, and
/// [`finish`](Session::finish) when done. Attached observers see the
/// event stream live, whichever way the session is driven.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use transrec::{SessionStatus, System, SystemConfig};
/// use uaware::PolicySpec;
///
/// let program = rv32::asm::assemble(
///     "
///     li   a0, 0
///     li   a1, 200
/// loop:
///     addi t0, a1, 3
///     slli t1, t0, 2
///     xor  t2, t1, a1
///     add  a0, a0, t2
///     addi a1, a1, -1
///     bnez a1, loop
///     ebreak
/// ",
/// )
/// .unwrap();
/// let mut sys = System::with_spec(SystemConfig::new(Fabric::be()), PolicySpec::Baseline).unwrap();
/// let mut session = sys.session(&program).unwrap();
/// // Pause mid-run, look at the machine, resume.
/// while session.system().stats().offloads < 5 {
///     assert!(session.step().unwrap().is_running());
/// }
/// assert!(sys.cpu().reg(rv32::Reg::A1) > 0, "paused mid-loop");
/// let mut session = sys.session_resume();
/// let exit = session.finish().unwrap();
/// assert!(matches!(exit, rv32::cpu::Exit::Break { .. }));
/// assert_eq!(sys.cpu().reg(rv32::Reg::A1), 0);
/// ```
pub struct Session<'a> {
    system: &'a mut System,
    steps_left: u64,
}

impl Session<'_> {
    /// The underlying system (live statistics, tracker, CPU state).
    pub fn system(&self) -> &System {
        self.system
    }

    /// Remaining step budget (dynamic instructions, offloaded or retired).
    pub fn steps_left(&self) -> u64 {
        self.steps_left
    }

    /// Advances one scheduling decision: checks the configuration cache at
    /// the current PC (step 4) and either executes one offload (steps
    /// 5–7) or retires one GPP instruction and feeds the DBT (steps 1–3).
    /// Calling `step` on a halted program is a no-op returning
    /// [`SessionStatus::Exited`].
    ///
    /// Like [`run_for`](Session::run_for) and [`finish`](Session::finish),
    /// it publishes what it counted as it returns, errors included
    /// (DESIGN.md §16).
    ///
    /// # Errors
    ///
    /// Propagates GPP/fabric faults; returns [`SystemError::StepLimit`]
    /// once the session's budget is exhausted.
    pub fn step(&mut self) -> Result<SessionStatus, SystemError> {
        self.published(Session::decide)
    }

    /// Runs `drive` and publishes what the system counted in it. Counts
    /// change only inside a session call, so the tally at its start is the
    /// one the last call left; outside a collection, nothing is taken.
    fn published<T>(
        &mut self,
        drive: impl FnOnce(&mut Self) -> Result<T, SystemError>,
    ) -> Result<T, SystemError> {
        let before = obs::collecting().then(|| self.system.tally());
        let out = drive(self);
        if let Some(before) = before {
            publish(&self.system.policy_name(), &self.system.tally(), &before);
        }
        out
    }

    /// [`step`](Session::step) without publishing.
    fn decide(&mut self) -> Result<SessionStatus, SystemError> {
        let sys = &mut *self.system;
        if let Some(exit) = sys.cpu.exit() {
            sys.notify_finish();
            return Ok(SessionStatus::Exited(exit));
        }
        if self.steps_left == 0 {
            return Err(SystemError::StepLimit { limit: sys.config.max_steps });
        }
        let pc = sys.cpu.pc();
        // Step 4: check the configuration cache for this PC. A hit shares
        // the record decoded at insertion; nothing is copied.
        sys.tally.stats.cache_lookups += 1;
        if let Some(decoded) = sys.cache.lookup(pc).cloned() {
            sys.tally.cache_hits += 1;
            let cc = &decoded.cc;
            // Steady-state estimate (resident configuration with a warm
            // input context): the regime that matters for hot code.
            let mut skip = None;
            if sys.config.offload_heuristic {
                let gpp_est = decoded.gpp_estimate;
                let wpc = sys.config.transfer_words_per_cycle as u64;
                let exec = sys.config.fabric.exec_cycles(cc.config.cols_used());
                let out_drain = (cc.output_regs.len() as u64).div_ceil(wpc).saturating_sub(exec);
                if exec + out_drain > gpp_est {
                    skip = Some((gpp_est, exec + out_drain));
                }
            }
            match skip {
                None => {
                    if sys.offload(&decoded)? {
                        self.steps_left = self.steps_left.saturating_sub(cc.instr_count as u64);
                        return Ok(self.status());
                    }
                    // Capability-starved (DESIGN.md §14): fall through to
                    // the GPP path below, like a heuristic skip.
                }
                Some((gpp_cycles, cgra_cycles)) => {
                    sys.tally.stats.offloads_skipped += 1;
                    sys.emit(|| SimEvent::OffloadSkipped { pc, gpp_cycles, cgra_cycles });
                }
            }
        }
        // Step 1/2: execute on the GPP, feed the DBT.
        let before = sys.cpu.cycles();
        let retired = sys.cpu.step()?;
        let cycles = sys.cpu.cycles() - before;
        self.steps_left -= 1;
        sys.gpp_dirty = true;
        sys.tally.stats.gpp_cycles += cycles;
        sys.tally.stats.gpp_retired += 1;
        sys.emit(|| SimEvent::GppRetired { pc: retired.pc, cycles });
        let cached = sys.cache.contains(retired.pc);
        for built in sys.translator.observe(&retired, cached) {
            // Step 3: install into the configuration cache, decoded once.
            let (insert_pc, instr_count) = (built.start_pc, built.instr_count);
            let decoded = Arc::new(sys.decode(built));
            if let Some(evicted) = sys.cache.insert(insert_pc, decoded) {
                sys.tally.cache_evicted += 1;
                sys.emit(|| SimEvent::CacheEvicted { pc: evicted });
            }
            sys.tally.cache_inserted += 1;
            sys.emit(|| SimEvent::CacheInserted { pc: insert_pc, instr_count });
        }
        Ok(self.status())
    }

    /// Runs until at least `cycles` more system cycles have elapsed (or
    /// the program halts). Simulation time advances in whole scheduling
    /// decisions, so the session may overshoot the target by one
    /// decision's cycle cost; `run_for(0)` reports the current status
    /// without advancing.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Session::step).
    pub fn run_for(&mut self, cycles: u64) -> Result<SessionStatus, SystemError> {
        let _loop_span = tracing::span!(tracing::Level::INFO, "system.session").entered();
        self.published(|session| {
            let target = session.system.cpu.cycles().saturating_add(cycles);
            while session.system.cpu.cycles() < target {
                if let SessionStatus::Exited(exit) = session.decide()? {
                    return Ok(SessionStatus::Exited(exit));
                }
            }
            // A halted program reports Exited even when the cycle target
            // is already met (`run_for(0)`), so status polling can never
            // spin.
            Ok(session.status())
        })
    }

    /// Runs to completion and returns the program's exit.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Session::step).
    pub fn finish(&mut self) -> Result<Exit, SystemError> {
        let _loop_span = tracing::span!(tracing::Level::INFO, "system.session").entered();
        self.published(|session| loop {
            if let SessionStatus::Exited(exit) = session.decide()? {
                return Ok(exit);
            }
        })
    }

    /// Current status without advancing, notifying observers if the halt
    /// is being observed for the first time.
    fn status(&mut self) -> SessionStatus {
        match self.system.cpu.exit() {
            Some(exit) => {
                self.system.notify_finish();
                SessionStatus::Exited(exit)
            }
            None => SessionStatus::Running,
        }
    }
}

/// Runs `program` on a plain GPP (no CGRA) — the 1× reference of Fig. 6.
///
/// # Errors
///
/// Propagates CPU faults and the step limit.
pub fn run_gpp_only(
    program: &Program,
    mem_size: usize,
    timing: TimingModel,
    max_steps: u64,
) -> Result<Cpu, CpuError> {
    let mut cpu = Cpu::with_timing(mem_size, timing);
    cpu.load_program(program).map_err(CpuError::Mem)?;
    cpu.run(max_steps)?;
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaware::{PatternSpec, RotationPolicy};

    fn sys_with(spec: PolicySpec) -> System {
        System::with_spec(SystemConfig::new(Fabric::be()), spec).expect("valid spec/config")
    }

    fn toy_program() -> Program {
        rv32::asm::assemble(
            "
            li   a0, 0
            li   a1, 0
        loop:
            addi t0, a1, 3
            slli t1, t0, 2
            xor  t2, t1, a1
            and  t3, t2, t0
            add  a0, a0, t3
            addi a1, a1, 1
            li   t4, 400
            blt  a1, t4, loop
            ebreak
        ",
        )
        .unwrap()
    }

    fn reference_result() -> u32 {
        let mut a0 = 0u32;
        for a1 in 0..400u32 {
            let t0 = a1.wrapping_add(3);
            let t1 = t0 << 2;
            let t2 = t1 ^ a1;
            let t3 = t2 & t0;
            a0 = a0.wrapping_add(t3);
        }
        a0
    }

    #[test]
    fn system_produces_architectural_results() {
        let mut sys = sys_with(PolicySpec::Baseline);
        sys.run(&toy_program()).unwrap();
        assert_eq!(sys.cpu().reg(rv32::Reg::A0), reference_result());
        assert!(sys.stats().offloads > 300, "hot loop must offload");
    }

    #[test]
    fn rotation_gives_same_results_as_baseline() {
        let mut base = sys_with(PolicySpec::Baseline);
        base.run(&toy_program()).unwrap();
        let mut rot = sys_with(PolicySpec::rotation());
        rot.run(&toy_program()).unwrap();
        assert_eq!(base.cpu().reg(rv32::Reg::A0), rot.cpu().reg(rv32::Reg::A0));
        // And it actually moved work around.
        assert!(rot.tracker().utilization().max() < base.tracker().utilization().max());
    }

    #[test]
    fn builder_rejects_movement_spec_without_hardware() {
        // `with_spec`, the checked builder, must refuse every movement spec
        // at construction time, before any instruction runs.
        let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
        for spec in uaware::PolicySpec::all_specs(&Fabric::be()) {
            match System::with_spec(config.clone(), spec) {
                Err(BuildError::MovementHardwareAbsent { policy }) => {
                    assert!(spec.needs_movement(), "{spec} rejected but needs no movement");
                    assert_eq!(policy, spec.to_string());
                }
                Err(e) => panic!("{spec}: unexpected build error {e}"),
                Ok(_) => assert!(!spec.needs_movement(), "{spec} must be rejected"),
            }
        }
    }

    #[test]
    fn movement_without_hardware_still_faults_at_runtime() {
        // The unchecked System::new escape hatch keeps the runtime guard.
        let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::new(config, Box::new(RotationPolicy::new(PatternSpec::Snake)));
        let err = sys.run(&toy_program()).unwrap_err();
        assert!(matches!(err, SystemError::MovementUnsupported { .. }));
    }

    #[test]
    fn baseline_runs_without_movement_hardware() {
        let config = SystemConfig { movement_hardware: false, ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::Baseline).unwrap();
        sys.run(&toy_program()).unwrap();
        assert_eq!(sys.cpu().reg(rv32::Reg::A0), reference_result());
    }

    fn mul_program() -> Program {
        // The hot loop carries a multiply, so its configuration demands an
        // `alu+mul`-capable anchor (DESIGN.md §14).
        rv32::asm::assemble(
            "
            li   a0, 0
            li   a1, 1
        loop:
            addi t0, a1, 3
            mul  t1, t0, a1
            xor  t2, t1, a1
            add  a0, a0, t2
            addi a1, a1, 1
            li   t4, 400
            blt  a1, t4, loop
            ebreak
        ",
        )
        .unwrap()
    }

    fn mul_reference() -> u32 {
        let mut a0 = 0u32;
        for a1 in 1..400u32 {
            let t0 = a1.wrapping_add(3);
            let t1 = t0.wrapping_mul(a1);
            let t2 = t1 ^ a1;
            a0 = a0.wrapping_add(t2);
        }
        a0
    }

    #[test]
    fn capability_starvation_falls_back_to_the_gpp() {
        // An ALU-only fabric can never anchor the loop's multiply: the run
        // must complete correctly on the GPP instead of dying with
        // AllocationExhausted (DESIGN.md §14).
        let mut fabric = Fabric::be();
        fabric.classes = cgra::ClassMap::Uniform(cgra::CellClass::Alu);
        let mut sys = System::with_spec(SystemConfig::new(fabric), PolicySpec::rotation()).unwrap();
        sys.run(&mul_program()).unwrap();
        assert_eq!(sys.cpu().reg(rv32::Reg::A0), mul_reference());
        assert!(sys.stats().offloads_starved > 0, "the mul config must starve");
    }

    #[test]
    fn heterogeneous_fabric_places_demanding_configs_on_capable_cells() {
        // Row 0 is fully capable, row 1 ALU-only: the mul configuration
        // still offloads, and its anchors never land on row-1 cells.
        let mut fabric = Fabric::be();
        fabric.classes = cgra::ClassMap::RowStripes;
        let mut sys = System::with_spec(SystemConfig::new(fabric), PolicySpec::rotation()).unwrap();
        sys.run(&mul_program()).unwrap();
        assert_eq!(sys.cpu().reg(rv32::Reg::A0), mul_reference());
        assert!(sys.stats().offloads > 300, "capable rows must keep offloading");
        assert_eq!(sys.stats().offloads_starved, 0);
    }

    #[test]
    fn builder_types_an_invalid_fabric() {
        // `Fabric` fields are public, so a hand-built (or deserialized)
        // value can be invalid; `with_spec` rejects it with the typed
        // error instead of a downstream panic.
        let mut fabric = Fabric::be();
        fabric.cols = 0;
        let err = System::with_spec(SystemConfig::new(fabric), PolicySpec::Baseline).unwrap_err();
        assert!(matches!(err, BuildError::Fabric(FabricError::EmptyFabric)), "{err}");
    }

    #[test]
    fn corner_failure_kills_a_baseline_run() {
        let mut mask = FaultMask::healthy(&Fabric::be());
        mask.mark_dead(0, 0);
        let config = SystemConfig { faults: Some(mask), ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::Baseline).unwrap();
        let err = sys.run(&toy_program()).unwrap_err();
        assert!(matches!(err, SystemError::AllocationExhausted { .. }), "{err}");
    }

    #[test]
    fn rotation_routes_around_a_dead_corner() {
        let mut mask = FaultMask::healthy(&Fabric::be());
        mask.mark_dead(0, 0);
        let config = SystemConfig { faults: Some(mask.clone()), ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::rotation()).unwrap();
        sys.run(&toy_program()).unwrap();
        assert_eq!(sys.cpu().reg(rv32::Reg::A0), reference_result());
        assert_eq!(sys.fault_mask(), Some(&mask));
        // No execution ever touched the dead FU.
        assert_eq!(sys.tracker().exec_count(0, 0), 0, "dead corner must stay idle");
        assert!(sys.stats().offloads > 0);
    }

    #[test]
    #[should_panic(expected = "geometry must match")]
    fn builder_fault_mask_geometry_is_validated() {
        let faults = Some(FaultMask::healthy(&Fabric::bp()));
        let _ = System::with_spec(
            SystemConfig { faults, ..SystemConfig::new(Fabric::be()) },
            PolicySpec::Baseline,
        );
    }

    #[test]
    fn offloading_beats_gpp_on_the_hot_loop() {
        let gpp =
            run_gpp_only(&toy_program(), 1 << 20, TimingModel::default(), 10_000_000).unwrap();
        let mut sys = sys_with(PolicySpec::Baseline);
        sys.run(&toy_program()).unwrap();
        assert!(
            sys.cpu().cycles() < gpp.cycles(),
            "system {} vs gpp {}",
            sys.cpu().cycles(),
            gpp.cycles()
        );
    }

    #[test]
    fn stats_account_all_cycles() {
        let mut sys = sys_with(PolicySpec::Baseline);
        sys.run(&toy_program()).unwrap();
        assert_eq!(sys.stats().total_cycles(), sys.cpu().cycles());
    }

    #[test]
    fn step_limit_detected() {
        let config = SystemConfig { max_steps: 100, ..SystemConfig::new(Fabric::be()) };
        let mut sys = System::with_spec(config, PolicySpec::Baseline).unwrap();
        let err = sys.run(&toy_program()).unwrap_err();
        assert!(matches!(err, SystemError::StepLimit { .. }));
    }
}
