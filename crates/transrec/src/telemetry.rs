//! Typed event-stream telemetry for observable sessions (DESIGN.md §10).
//!
//! The paper's core evidence is *temporal* — Fig. 8 plots worst-FU delay
//! over time, Table I projects lifetime from stress accumulation — so the
//! simulator's execution loop publishes everything it does as a stream of
//! [`SimEvent`]s that [`Observer`]s consume, so third parties can
//! instrument a run without forking the loop: attach an observer and every
//! scheduling decision, offload, rotation and cache movement arrives as
//! data.
//!
//! Counting is not an observer's job. A [`System`](crate::System) counts
//! each fact once, where it happens, into its
//! [`SystemStats`](crate::SystemStats) and publishes its counters when a
//! session call returns; it builds events only for attached observers
//! (DESIGN.md §10, §16). Probes only *sample* the stream.
//!
//! Probes mirror the policy-as-data design (DESIGN.md §8): a [`ProbeSpec`]
//! is a serde-able value with a compact string form (`util-trace@every-50000`)
//! that [`build`](ProbeSpec::build)s the corresponding observer, so the
//! parallel sweep engine carries telemetry across threads without closures
//! and every probe's output lands in the report JSON as a [`ProbeReport`].
//!
//! # Examples
//!
//! Trace how rotation flattens the stress map *during* a run:
//!
//! ```
//! use cgra::Fabric;
//! use transrec::telemetry::{ProbeReport, ProbeSpec};
//! use transrec::{System, SystemConfig};
//! use uaware::PolicySpec;
//!
//! let program = rv32::asm::assemble(
//!     "
//!     li   a0, 0
//!     li   a1, 800
//! loop:
//!     addi a0, a0, 3
//!     xor  a2, a0, a1
//!     and  a3, a2, a0
//!     addi a1, a1, -1
//!     bnez a1, loop
//!     ebreak
//! ",
//! )
//! .unwrap();
//!
//! let spec: ProbeSpec = "util-trace@every-500".parse().unwrap();
//! let config = SystemConfig::new(Fabric::be());
//! let mut sys = System::with_spec(config, PolicySpec::rotation()).unwrap();
//! sys.attach_observer(spec.build());
//! sys.run(&program).unwrap();
//! let reports = sys.probe_reports();
//! let [ProbeReport::UtilTrace(trace)] = reports.as_slice() else { unreachable!() };
//! // Cumulative worst-FU utilization decays towards the flat final map.
//! let worst = trace.worst_series();
//! assert!(worst.first().unwrap().1 > worst.last().unwrap().1);
//! ```

use std::fmt;
use std::str::FromStr;

use cgra::Offset;
use serde::{Deserialize, Serialize};
use uaware::{ParseSpecError, UtilizationGrid, UtilizationTracker};

/// Default epoch length (system cycles) for [`ProbeSpec::UtilTrace`]:
/// fine enough that every mibench workload (3.6k–93k cycles on BE)
/// contributes interior samples, coarse enough that a full-suite trace
/// stays a few dozen snapshots.
pub const DEFAULT_EPOCH_CYCLES: u64 = 10_000;

/// Cycle components of one offload after overlap (DESIGN.md §4.5), as
/// carried by [`SimEvent::OffloadCompleted`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadOverheads {
    /// Input-context transfer cycles.
    pub input: u64,
    /// Output drain cycles not hidden behind execution.
    pub out_drain: u64,
    /// Configuration-load cycles not hidden behind the input transfer.
    pub reconfig_extra: u64,
    /// Resident-rotation cycles.
    pub rotate: u64,
}

impl OffloadOverheads {
    /// Total overhead cycles charged on top of the execution itself.
    pub fn total(&self) -> u64 {
        self.input + self.out_drain + self.reconfig_extra + self.rotate
    }
}

/// One observable step of the execution loop (paper Fig. 2 / its steps
/// 1–7). Every event of one scheduling decision is emitted in the loop's
/// own deterministic order, so the stream — and anything folded over it —
/// is a pure function of (system configuration, policy, program).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// The GPP retired one instruction (steps 1/2); `cycles` is that
    /// step's cycle cost.
    GppRetired {
        /// PC of the retired instruction.
        pc: u32,
        /// GPP cycles charged for the step.
        cycles: u64,
    },
    /// A cached configuration passed the profitability check and is about
    /// to execute at the policy-chosen pivot (start of steps 5–7).
    OffloadStarted {
        /// Start PC of the configuration.
        pc: u32,
        /// The pivot the allocation policy chose.
        offset: Offset,
        /// `true` if a different configuration was resident (or none).
        config_switch: bool,
    },
    /// A non-resident configuration was streamed into the fabric.
    ConfigLoaded {
        /// Start PC of the configuration.
        pc: u32,
        /// Columns occupied by the configuration.
        cols_used: u32,
        /// Raw streaming cost over the configuration-bus lines.
        stream_cycles: u64,
        /// The residual not hidden behind the input transfer (what the run
        /// actually paid; equals the `reconfig_extra` overhead component).
        exposed_cycles: u64,
    },
    /// The resident configuration was rotated to a new pivot (§III.B
    /// movement hardware).
    Rotated {
        /// Start PC of the resident configuration.
        pc: u32,
        /// Previous pivot.
        from: Offset,
        /// New pivot.
        to: Offset,
        /// Exposed rotate cycles (0 when hidden behind the previous
        /// execution's drain, DESIGN.md §4.4).
        cycles: u64,
    },
    /// An offload finished: outputs committed, tracker updated, cycles
    /// charged (end of steps 5–7).
    OffloadCompleted {
        /// Start PC of the configuration.
        pc: u32,
        /// The pivot it executed at.
        offset: Offset,
        /// Instructions the configuration covers.
        instr_count: u32,
        /// Fabric execution cycles.
        exec_cycles: u64,
        /// Overhead breakdown after overlap.
        overheads: OffloadOverheads,
        /// Loads performed by the fabric.
        loads: u64,
        /// Stores performed by the fabric.
        stores: u64,
        /// Occupied FU cells (anchor cells) of this execution.
        active_fus: u64,
        /// Columns the configuration spans.
        cols_used: u32,
    },
    /// The profitability heuristic kept a cached configuration on the GPP.
    OffloadSkipped {
        /// Start PC of the configuration.
        pc: u32,
        /// Estimated GPP cost of the covered instructions.
        gpp_cycles: u64,
        /// Estimated steady-state fabric cost it lost to.
        cgra_cycles: u64,
    },
    /// No pivot satisfied a cached configuration's capability demands on
    /// this fabric's class mix (although a fault-free placement exists);
    /// the configuration stays on the GPP (DESIGN.md §14).
    AllocationStarved {
        /// Start PC of the starved configuration.
        pc: u32,
    },
    /// The DBT installed a configuration into the cache (step 3).
    CacheInserted {
        /// Start PC of the new entry.
        pc: u32,
        /// Instructions the configuration covers.
        instr_count: u32,
    },
    /// The cache evicted its LRU entry to make room.
    CacheEvicted {
        /// Start PC of the displaced entry.
        pc: u32,
    },
    /// A service request entered a device's queue (traffic subsystem,
    /// DESIGN.md §13).
    RequestArrived {
        /// Request index within the serving day.
        request: u64,
        /// Index of the requested workload in the device's suite.
        workload: u32,
        /// Queue depth after the request was admitted (the request
        /// itself included).
        queue_depth: u32,
    },
    /// A queued request finished service (on the fabric, or on the GPP
    /// when backpressure deferred it — DESIGN.md §13).
    RequestServed {
        /// Request index within the serving day.
        request: u64,
        /// Cycles the request waited in the queue before service began.
        wait_cycles: u64,
        /// Cycles the service itself took.
        service_cycles: u64,
        /// `true` when utilization-aware backpressure deferred the
        /// request to the GPP instead of offloading it.
        deferred: bool,
    },
    /// Backpressure dropped a request at arrival: the queue was already
    /// at its shedding threshold (DESIGN.md §13).
    RequestShed {
        /// Request index within the serving day.
        request: u64,
        /// Queue depth that triggered the shed.
        queue_depth: u32,
    },
}

/// Context handed to observers with every hook call: where the run is
/// (total system cycles so far) and the live per-FU stress observations.
pub struct EventCtx<'a> {
    /// Total system cycles elapsed (GPP + offload components).
    pub cycle: u64,
    /// The system's utilization tracker at the time of the event.
    pub tracker: &'a UtilizationTracker,
}

/// A consumer of the simulation event stream. All hooks default to no-ops,
/// so an observer implements only what it cares about.
///
/// Observers attach to a [`System`](crate::System) through
/// [`System::attach_observer`](crate::System::attach_observer): a built-in
/// one as a [`ProbeSpec`]'s [`build`](ProbeSpec::build), or any
/// implementation. Hooks run synchronously inside the execution
/// loop; they must not assume anything about wall-clock time, only about
/// `ctx.cycle` — that keeps every derived measurement byte-identical
/// under the parallel sweep engine (DESIGN.md §10).
pub trait Observer {
    /// Called for every emitted event.
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        let _ = (ctx, event);
    }

    /// Called exactly once per session, when the program's exit is first
    /// observed (after the final event of the run).
    fn on_finish(&mut self, ctx: &EventCtx<'_>) {
        let _ = ctx;
    }

    /// The probe's serializable result, if it produces one. Collected by
    /// [`System::probe_reports`](crate::System::probe_reports) and carried
    /// into [`BenchmarkRun`](crate::BenchmarkRun)s by the suite runners.
    fn report(&self) -> Option<ProbeReport> {
        None
    }
}

/// One epoch sample: the tracker's raw integer state at a known cycle.
///
/// Samples store the execution-count *numerators* rather than derived
/// `f64` utilizations so that sequential runs compose exactly
/// ([`UtilTrace::concat`]) — integer addition commutes with nothing and
/// rounds nowhere (DESIGN.md §10).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochSnapshot {
    /// System cycle the sample was taken at.
    pub cycle: u64,
    /// Configuration executions recorded so far.
    pub executions: u64,
    /// Per-FU execution counts, row-major.
    pub exec_counts: Vec<u64>,
}

impl EpochSnapshot {
    /// Cumulative worst per-FU utilization at this sample (0 before the
    /// first execution).
    pub fn worst(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.exec_counts.iter().copied().max().unwrap_or(0) as f64 / self.executions as f64
        }
    }

    /// The sample as an execution-weighted [`UtilizationGrid`].
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` does not match the stored count vector.
    pub fn grid(&self, rows: u32, cols: u32) -> UtilizationGrid {
        UtilizationGrid::from_counts(rows, cols, &self.exec_counts, self.executions)
    }
}

/// A utilization-over-time series: the tracker grid sampled every `every`
/// cycles plus a final end-of-run sample (the [`EpochSnapshots`] probe's
/// report payload).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilTrace {
    /// Sampling interval in system cycles.
    pub every: u64,
    /// Tracked fabric rows.
    pub rows: u32,
    /// Tracked fabric columns.
    pub cols: u32,
    /// Samples in strictly increasing cycle order; the last sample is the
    /// run's final state.
    pub samples: Vec<EpochSnapshot>,
}

impl UtilTrace {
    /// The cycle of the final sample (0 for an empty trace).
    pub fn total_cycles(&self) -> u64 {
        self.samples.last().map_or(0, |s| s.cycle)
    }

    /// The latest sample at or before `cycle`, falling back to the first
    /// sample for cycles before the first epoch boundary.
    pub fn at_cycle(&self, cycle: u64) -> Option<&EpochSnapshot> {
        match self.samples.iter().rposition(|s| s.cycle <= cycle) {
            Some(i) => Some(&self.samples[i]),
            None => self.samples.first(),
        }
    }

    /// `(cycle, cumulative worst-FU utilization)` per sample — the series
    /// Fig. 8's in-run delay curves are built from.
    pub fn worst_series(&self) -> Vec<(u64, f64)> {
        self.samples.iter().map(|s| (s.cycle, s.worst())).collect()
    }

    /// First sampled cycle from which the worst-FU utilization stays
    /// within `tolerance` (relative) of its final value — see
    /// [`settle_cycle`]. 0 for an empty trace.
    pub fn settle_cycle(&self, tolerance: f64) -> u64 {
        settle_cycle(&self.worst_series(), tolerance)
    }

    /// Composes traces of *sequential* runs on the same fabric geometry
    /// into one suite-level trace, exactly as if the runs had shared a
    /// tracker: each trace's samples are offset by the cycles and counts
    /// accumulated by the runs before it (DESIGN.md §10).
    ///
    /// Returns an empty trace for an empty input.
    ///
    /// # Panics
    ///
    /// Panics on a geometry or sampling-interval mismatch between traces.
    pub fn concat<'a>(traces: impl IntoIterator<Item = &'a UtilTrace>) -> UtilTrace {
        let mut out: Option<UtilTrace> = None;
        let mut base_cycle = 0u64;
        let mut base_execs = 0u64;
        let mut base_counts: Vec<u64> = Vec::new();
        for t in traces {
            let merged = out.get_or_insert_with(|| UtilTrace {
                every: t.every,
                rows: t.rows,
                cols: t.cols,
                samples: Vec::new(),
            });
            assert_eq!((merged.rows, merged.cols), (t.rows, t.cols), "geometry mismatch");
            assert_eq!(merged.every, t.every, "sampling-interval mismatch");
            for s in &t.samples {
                merged.samples.push(EpochSnapshot {
                    cycle: base_cycle + s.cycle,
                    executions: base_execs + s.executions,
                    exec_counts: s
                        .exec_counts
                        .iter()
                        .enumerate()
                        .map(|(i, c)| base_counts.get(i).copied().unwrap_or(0) + c)
                        .collect(),
                });
            }
            if let Some(last) = merged.samples.last() {
                base_cycle = last.cycle;
                base_execs = last.executions;
                base_counts = last.exec_counts.clone();
            }
        }
        out.unwrap_or(UtilTrace { every: 0, rows: 0, cols: 0, samples: Vec::new() })
    }
}

/// The convergence scan shared by the `bench` convergence report and the
/// `aging_forecast` example: the first sampled cycle of a `(cycle,
/// worst-FU utilization)` series from which every later sample stays
/// within `tolerance` (relative) of the final value — how fast a policy
/// flattens stress (DESIGN.md §10). 0 for an empty series.
pub fn settle_cycle(worst_series: &[(u64, f64)], tolerance: f64) -> u64 {
    let final_worst = worst_series.last().map_or(0.0, |(_, w)| *w);
    let tol = tolerance * final_worst;
    let mut settle = 0;
    for &(cycle, worst) in worst_series.iter().rev() {
        if (worst - final_worst).abs() > tol {
            break;
        }
        settle = cycle;
    }
    settle
}

/// The utilization-snapshot observer: samples the tracker grid every `N`
/// cycles (quantized to event boundaries — simulation time advances in
/// jumps, so a sample is taken at the first event whose cycle reaches the
/// epoch boundary) and once more at the end of the run.
#[derive(Clone, Debug)]
pub struct EpochSnapshots {
    next: u64,
    trace: UtilTrace,
}

impl EpochSnapshots {
    /// A snapshot observer sampling every `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> EpochSnapshots {
        assert!(every > 0, "epoch length must be positive");
        EpochSnapshots {
            next: every,
            trace: UtilTrace { every, rows: 0, cols: 0, samples: Vec::new() },
        }
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &UtilTrace {
        &self.trace
    }

    fn push(&mut self, ctx: &EventCtx<'_>) {
        self.trace.rows = ctx.tracker.rows();
        self.trace.cols = ctx.tracker.cols();
        self.trace.samples.push(EpochSnapshot {
            cycle: ctx.cycle,
            executions: ctx.tracker.executions(),
            exec_counts: ctx.tracker.exec_counts().to_vec(),
        });
    }
}

impl Observer for EpochSnapshots {
    fn on_event(&mut self, ctx: &EventCtx<'_>, _event: &SimEvent) {
        if ctx.cycle >= self.next {
            // One sample per event even when a single decision jumps over
            // several epoch boundaries (time advances in whole decisions),
            // keeping the sample cycles strictly increasing.
            self.push(ctx);
            while self.next <= ctx.cycle {
                self.next += self.trace.every;
            }
        }
    }

    fn on_finish(&mut self, ctx: &EventCtx<'_>) {
        // Cycles are monotone, so the final sample is missing exactly when
        // the last epoch boundary predates the end of the run.
        if self.trace.samples.last().map(|s| s.cycle) != Some(ctx.cycle) {
            self.push(ctx);
        }
    }

    fn report(&self) -> Option<ProbeReport> {
        Some(ProbeReport::UtilTrace(self.trace.clone()))
    }
}

/// Default sampling interval of the [`ProbeSpec::QueueDepth`] probe: one
/// minute of serving time at the traffic subsystem's default device clock
/// (DESIGN.md §13).
pub const DEFAULT_QUEUE_EPOCH_CYCLES: u64 = 6_000_000;

/// A queue-depth-over-time series (the `queue-depth` probe's report
/// payload): the device queue sampled every `every` cycles, plus the
/// observed depth maximum and shed total (DESIGN.md §13).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDepthSeries {
    /// Sampling interval in system cycles.
    pub every: u64,
    /// `(cycle, queue depth)` samples in strictly increasing cycle order;
    /// the last sample is the end-of-run state.
    pub samples: Vec<(u64, u32)>,
    /// Deepest queue observed at any event.
    pub max_depth: u32,
    /// Requests shed by backpressure.
    pub sheds: u64,
}

/// Observer tracking device-queue depth from the request events
/// ([`SimEvent::RequestArrived`] / [`SimEvent::RequestServed`] /
/// [`SimEvent::RequestShed`]), sampled on the same epoch scheme as
/// [`EpochSnapshots`].
#[derive(Clone, Debug)]
pub struct QueueDepthTrace {
    next: u64,
    depth: u32,
    series: QueueDepthSeries,
}

impl QueueDepthTrace {
    /// A queue-depth observer sampling every `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> QueueDepthTrace {
        assert!(every > 0, "epoch length must be positive");
        QueueDepthTrace {
            next: every,
            depth: 0,
            series: QueueDepthSeries { every, ..QueueDepthSeries::default() },
        }
    }

    /// The series collected so far.
    pub fn series(&self) -> &QueueDepthSeries {
        &self.series
    }

    fn push(&mut self, cycle: u64) {
        self.series.samples.push((cycle, self.depth));
    }
}

impl Observer for QueueDepthTrace {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::RequestArrived { queue_depth, .. } => {
                self.depth = queue_depth;
                self.series.max_depth = self.series.max_depth.max(queue_depth);
            }
            SimEvent::RequestServed { .. } => self.depth = self.depth.saturating_sub(1),
            SimEvent::RequestShed { .. } => self.series.sheds += 1,
            _ => return,
        }
        if ctx.cycle >= self.next {
            self.push(ctx.cycle);
            while self.next <= ctx.cycle {
                self.next += self.series.every;
            }
        }
    }

    fn on_finish(&mut self, ctx: &EventCtx<'_>) {
        if self.series.samples.last().map(|(c, _)| *c) != Some(ctx.cycle) {
            self.push(ctx.cycle);
        }
    }

    fn report(&self) -> Option<ProbeReport> {
        Some(ProbeReport::QueueDepth(self.series.clone()))
    }
}

/// A probe as data: the serializable, parseable selector for the built-in
/// observers, mirroring the [`PolicySpec`](uaware::PolicySpec) grammar
/// (DESIGN.md §10). Sweep plans carry `ProbeSpec` values —
/// never observer instances — so telemetry crosses threads as plain data
/// and each sweep cell instantiates its own observers.
///
/// | String | Meaning |
/// |---|---|
/// | `util-trace` | [`EpochSnapshots`] at the default 10 000-cycle epoch |
/// | `util-trace@every-50000` | explicit epoch length |
/// | `queue-depth[@every-<n>]` | device-queue depth series ([`QueueDepthTrace`]) |
///
/// # Examples
///
/// ```
/// use transrec::telemetry::ProbeSpec;
///
/// let p: ProbeSpec = "util-trace@every-500".parse().unwrap();
/// assert_eq!(p, ProbeSpec::UtilTrace { every: 500 });
/// assert_eq!(p.to_string(), "util-trace@every-500");
/// assert_eq!("util-trace".parse::<ProbeSpec>().unwrap().to_string(), "util-trace@every-10000");
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeSpec {
    /// An [`EpochSnapshots`] observer sampling every `every` cycles.
    UtilTrace {
        /// Sampling interval in system cycles.
        every: u64,
    },
    /// A [`QueueDepthTrace`] observer sampling every `every` cycles
    /// (DESIGN.md §13).
    QueueDepth {
        /// Sampling interval in system cycles.
        every: u64,
    },
}

impl ProbeSpec {
    /// A utilization trace sampled every `every` cycles.
    pub fn util_trace(every: u64) -> ProbeSpec {
        ProbeSpec::UtilTrace { every }
    }

    /// Instantiates a fresh observer for this spec.
    ///
    /// # Panics
    ///
    /// Panics on `UtilTrace { every: 0 }` (an unconstructable spec via the
    /// string grammar; reachable only by literal).
    pub fn build(&self) -> Box<dyn Observer> {
        match *self {
            ProbeSpec::UtilTrace { every } => Box::new(EpochSnapshots::new(every)),
            ProbeSpec::QueueDepth { every } => Box::new(QueueDepthTrace::new(every)),
        }
    }
}

impl fmt::Display for ProbeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeSpec::UtilTrace { every } => write!(f, "util-trace@every-{every}"),
            ProbeSpec::QueueDepth { every } => write!(f, "queue-depth@every-{every}"),
        }
    }
}

impl FromStr for ProbeSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<ProbeSpec, ParseSpecError> {
        let (head, tail) = match s.split_once('@') {
            Some((h, t)) => (h, Some(t)),
            None => (s, None),
        };
        match (head, tail) {
            ("util-trace", None) => Ok(ProbeSpec::UtilTrace { every: DEFAULT_EPOCH_CYCLES }),
            ("queue-depth", None) => {
                Ok(ProbeSpec::QueueDepth { every: DEFAULT_QUEUE_EPOCH_CYCLES })
            }
            ("util-trace" | "queue-depth", Some(tail)) => {
                let every = tail
                    .strip_prefix("every-")
                    .and_then(|n| n.parse::<u64>().ok())
                    .filter(|n| *n > 0)
                    .ok_or_else(|| {
                        ParseSpecError::new(format!(
                            "invalid epoch `{tail}` in `{s}` (expected every-<cycles>)"
                        ))
                    })?;
                if head == "util-trace" {
                    Ok(ProbeSpec::UtilTrace { every })
                } else {
                    Ok(ProbeSpec::QueueDepth { every })
                }
            }
            _ => Err(ParseSpecError::new(format!(
                "unknown probe spec `{s}` (expected util-trace[@every-<n>] or \
                 queue-depth[@every-<n>])"
            ))),
        }
    }
}

/// The serializable result of one probe on one run, carried by
/// [`BenchmarkRun`](crate::BenchmarkRun) so sweep output stays pure data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProbeReport {
    /// A [`UtilTrace`] from an [`EpochSnapshots`] probe.
    UtilTrace(UtilTrace),
    /// A depth series from a [`QueueDepthTrace`] probe (DESIGN.md §13).
    QueueDepth(QueueDepthSeries),
}

impl ProbeReport {
    /// The utilization trace, if this report carries one.
    pub fn as_util_trace(&self) -> Option<&UtilTrace> {
        match self {
            ProbeReport::UtilTrace(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_specs_round_trip_their_canonical_strings() {
        let cases = [
            ("util-trace@every-50000", ProbeSpec::UtilTrace { every: 50_000 }),
            ("util-trace@every-7", ProbeSpec::UtilTrace { every: 7 }),
            ("queue-depth@every-9000", ProbeSpec::QueueDepth { every: 9_000 }),
        ];
        for (s, spec) in cases {
            assert_eq!(s.parse::<ProbeSpec>().unwrap(), spec, "{s}");
            assert_eq!(spec.to_string(), s, "{spec:?}");
        }
        assert_eq!(
            "util-trace".parse::<ProbeSpec>().unwrap(),
            ProbeSpec::UtilTrace { every: DEFAULT_EPOCH_CYCLES }
        );
        assert_eq!(
            "queue-depth".parse::<ProbeSpec>().unwrap(),
            ProbeSpec::QueueDepth { every: DEFAULT_QUEUE_EPOCH_CYCLES }
        );
    }

    #[test]
    fn malformed_probe_specs_are_rejected() {
        for s in [
            "",
            "util",
            "util-trace@",
            "util-trace@every-",
            "util-trace@every-0",
            "util-trace@every-x",
            "util-trace@sometimes",
            "queue-depth@every-0",
            "queue-depth@sometimes",
            "stats",
            "event-counts",
        ] {
            assert!(s.parse::<ProbeSpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn probe_specs_survive_json() {
        for spec in [ProbeSpec::UtilTrace { every: 123 }, ProbeSpec::QueueDepth { every: 77 }] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ProbeSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn concat_offsets_sequential_traces_exactly() {
        let a = UtilTrace {
            every: 10,
            rows: 1,
            cols: 2,
            samples: vec![
                EpochSnapshot { cycle: 10, executions: 2, exec_counts: vec![2, 0] },
                EpochSnapshot { cycle: 25, executions: 5, exec_counts: vec![3, 2] },
            ],
        };
        let b = UtilTrace {
            every: 10,
            rows: 1,
            cols: 2,
            samples: vec![EpochSnapshot { cycle: 12, executions: 3, exec_counts: vec![0, 3] }],
        };
        let merged = UtilTrace::concat([&a, &b]);
        assert_eq!(merged.samples.len(), 3);
        let last = merged.samples.last().unwrap();
        assert_eq!(last.cycle, 25 + 12);
        assert_eq!(last.executions, 8);
        assert_eq!(last.exec_counts, vec![3, 5]);
        assert_eq!(merged.total_cycles(), 37);
        // worst utilization of the merged final state: 5/8.
        assert!((last.worst() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn concat_of_nothing_is_empty() {
        let t = UtilTrace::concat([]);
        assert!(t.samples.is_empty());
        assert_eq!(t.total_cycles(), 0);
    }

    #[test]
    fn at_cycle_picks_latest_at_or_before() {
        let t = UtilTrace {
            every: 10,
            rows: 1,
            cols: 1,
            samples: vec![
                EpochSnapshot { cycle: 10, executions: 1, exec_counts: vec![1] },
                EpochSnapshot { cycle: 20, executions: 4, exec_counts: vec![4] },
            ],
        };
        assert_eq!(t.at_cycle(5).unwrap().cycle, 10, "pre-epoch falls back to first");
        assert_eq!(t.at_cycle(10).unwrap().cycle, 10);
        assert_eq!(t.at_cycle(19).unwrap().cycle, 10);
        assert_eq!(t.at_cycle(1000).unwrap().cycle, 20);
    }

    #[test]
    fn snapshot_worst_handles_zero_executions() {
        let s = EpochSnapshot { cycle: 0, executions: 0, exec_counts: vec![0, 0] };
        assert_eq!(s.worst(), 0.0);
    }

    #[test]
    fn one_event_crossing_many_boundaries_samples_once() {
        // A single scheduling decision can jump several epoch boundaries
        // (time advances in whole decisions); the trace must still keep
        // strictly increasing sample cycles with no duplicates.
        let tracker = uaware::UtilizationTracker::new(&cgra::Fabric::be());
        let mut obs = EpochSnapshots::new(10);
        let ev = SimEvent::GppRetired { pc: 0, cycles: 1 };
        obs.on_event(&EventCtx { cycle: 55, tracker: &tracker }, &ev);
        assert_eq!(obs.trace().samples.len(), 1, "five boundaries, one sample");
        obs.on_event(&EventCtx { cycle: 57, tracker: &tracker }, &ev);
        assert_eq!(obs.trace().samples.len(), 1, "no new boundary, no new sample");
        obs.on_event(&EventCtx { cycle: 60, tracker: &tracker }, &ev);
        let samples = &obs.trace().samples;
        assert_eq!(samples.len(), 2);
        assert!(samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn queue_depth_trace_follows_request_events() {
        let tracker = uaware::UtilizationTracker::new(&cgra::Fabric::be());
        let mut obs = QueueDepthTrace::new(100);
        let ctx = |cycle| EventCtx { cycle, tracker: &tracker };
        obs.on_event(
            &ctx(10),
            &SimEvent::RequestArrived { request: 0, workload: 0, queue_depth: 1 },
        );
        obs.on_event(
            &ctx(50),
            &SimEvent::RequestArrived { request: 1, workload: 1, queue_depth: 2 },
        );
        obs.on_event(&ctx(120), &SimEvent::RequestShed { request: 2, queue_depth: 2 });
        obs.on_event(
            &ctx(130),
            &SimEvent::RequestServed {
                request: 0,
                wait_cycles: 0,
                service_cycles: 120,
                deferred: false,
            },
        );
        obs.on_finish(&ctx(300));
        let series = obs.series();
        assert_eq!(series.max_depth, 2);
        assert_eq!(series.sheds, 1);
        // First epoch boundary crossed by the shed at cycle 120, plus the
        // end-of-run sample after the serve brought the depth back to 1.
        assert_eq!(series.samples, vec![(120, 2), (300, 1)]);
    }

    #[test]
    fn settle_cycle_finds_the_stable_suffix() {
        let series = [(10, 1.0), (20, 0.6), (30, 0.52), (40, 0.49), (50, 0.5)];
        assert_eq!(settle_cycle(&series, 0.05), 30, "0.52 is inside the 5% band, 0.6 is not");
        assert_eq!(settle_cycle(&series, 0.5), 20, "a loose band settles early");
        assert_eq!(settle_cycle(&[], 0.05), 0);
        // A series that leaves the band late settles only at its end.
        let late = [(10, 0.5), (20, 1.0), (30, 0.5)];
        assert_eq!(settle_cycle(&late, 0.05), 30);
    }
}
