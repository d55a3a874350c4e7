//! Live fleet serving: seeded arrival streams, per-device request queues
//! with utilization-aware backpressure, and replacement economics
//! (DESIGN.md §13).
//!
//! Where [`fleet`](crate::fleet) drives devices with back-to-back mission
//! suites, this module models a *serving* fleet: each device receives a
//! deterministic stream of offload requests drawn from a [`TrafficSpec`]
//! arrival process (steady Poisson, diurnal via thinning, heavy-tailed via
//! Pareto inter-arrivals), queues them FIFO, and serves them on the fabric
//! — unless utilization-aware backpressure sheds the request or defers it
//! to the slower GPP because the tracker shows hot FUs. Per-FU stress from
//! served requests folds into [`DeviceLifetime`] wear day by day; a device
//! whose allocation is exhausted dies mid-day and is replaced at the next
//! day boundary ([`ReplacementSpec`]), so campaigns model a living fleet
//! with retirement, replacement and cost accounting rather than a fixed
//! cohort.
//!
//! The engine runs on the same [`campaign`] driver as
//! [`run_fleet_campaign`](crate::fleet::run_fleet_campaign): phase 1
//! simulates one serving trajectory per (traffic × policy × lane)
//! equivalence class — one task per (traffic × lane) generates that
//! lane's arrival streams once and serves every policy from them, and
//! measures each request shape's fabric cost by replaying one offload tape
//! per workload ([`crate::tape`], DESIGN.md §17) — phase
//! 2 streams device shards through a weighted merge of class outcomes,
//! and a checkpointed campaign resumes byte-identically after any kill —
//! `results/serving.json` is identical for every `--jobs` value, shard
//! split, and stop/resume point.
//!
//! # Examples
//!
//! ```
//! use cgra::Fabric;
//! use transrec::sweep::SuiteSpec;
//! use transrec::traffic::{run_serving, ServePlan, TrafficSpec};
//! use uaware::PolicySpec;
//!
//! let plan = ServePlan::new(0xDAC2020, Fabric::be())
//!     .policy(PolicySpec::Baseline)
//!     .suite(SuiteSpec::subset("crc", vec![1]))
//!     .traffic(TrafficSpec::Steady { per_hour: 60 })
//!     .devices(2)
//!     .lanes(1)
//!     .clock_hz(2_000)
//!     .horizon_days(1);
//! let report = run_serving(&plan, 1).unwrap();
//! let cell = report.cell("steady@rph-60", "baseline").unwrap();
//! assert_eq!(cell.served_cgra + cell.served_gpp + cell.shed, cell.total_requests);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::str::FromStr;

use cgra::{Fabric, FaultMask};
use lifetime::{DeviceLifetime, FleetAccum, FleetStats};
use mibench::Workload;
use nbti::CalibratedAging;
use obs::{log_bucket, LogHistogram, LOG_BUCKETS};
use rand::distr::{Distribution, Exp, Pareto};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use uaware::{derive_cell_seed, PolicySpec, UtilizationGrid, UtilizationTracker};

use crate::campaign::{
    self, Campaign, CampaignOptions, ClassKey, ClassMap, Kind, Population, Status,
};
use crate::dse::gpp_reference;
use crate::fleet::DEFAULT_SHARD_DEVICES;
use crate::sweep::SuiteSpec;
use crate::system::{SystemConfig, SystemError};
use crate::tape::{TapeRun, TapeStore};
use crate::telemetry::{EventCtx, Observer, ProbeReport, ProbeSpec, SimEvent};

/// Seconds in one serving day.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// Default device clock in Hz. The serving model measures latency in
/// device cycles and converts through this clock, so it sets both the
/// cycles-per-day budget and the absolute load one request exerts.
pub const DEFAULT_CLOCK_HZ: u64 = 100_000;

/// Default mean request rate (requests per hour).
pub const DEFAULT_PER_HOUR: u64 = 6_000;

/// Default diurnal swing: the arrival rate peaks at `1 + swing` and dips
/// to `1 - swing` times the mean over one day (percent of the mean).
pub const DEFAULT_SWING_PCT: u32 = 80;

/// Default Pareto shape for heavy-tailed traffic, in thousandths
/// (`1500` = α 1.5: finite mean, infinite variance).
pub const DEFAULT_ALPHA_MILLI: u32 = 1_500;

/// Default deployment years one serving day models (DESIGN.md §13): the
/// wear clock runs faster than the request clock so a 30-day campaign
/// spans 15 deployment years.
pub const DEFAULT_YEARS_PER_DAY: f64 = 0.5;

/// Default traffic period in days: arrivals repeat after this many days,
/// which bounds the distinct day simulations per trajectory.
pub const DEFAULT_PATTERN_DAYS: u64 = 3;

/// Default serving horizon in days.
pub const DEFAULT_HORIZON_DAYS: u64 = 30;

/// Salt mixed into the per-lane seed before deriving per-day arrival
/// streams, so traffic draws never alias the workload-construction
/// streams built from the same lane seed.
const TRAFFIC_STREAM_SALT: u64 = 0x5452_4146_4649_4343;

/// An arrival process as data: the shape of one device's request stream
/// (DESIGN.md §13). The compact grammar mirrors
/// [`PolicySpec`]/[`ProbeSpec`]: `steady@rph-6000`,
/// `diurnal@rph-6000+swing-80`, `heavy@rph-6000+alpha-1500`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// Homogeneous Poisson arrivals: exponential inter-arrival times at a
    /// constant mean rate.
    Steady {
        /// Mean request rate in requests per hour.
        per_hour: u64,
    },
    /// Diurnal non-homogeneous Poisson arrivals via thinning: the rate
    /// follows `1 - swing·cos(2πt/day)` around the mean — a midnight
    /// trough and a midday peak.
    Diurnal {
        /// Mean request rate in requests per hour.
        per_hour: u64,
        /// Peak-to-mean swing in percent of the mean rate (`0..=100`).
        swing_pct: u32,
    },
    /// Bursty, heavy-tailed arrivals: Pareto inter-arrival times with
    /// shape α and the scale chosen so the mean rate matches `per_hour`.
    Heavy {
        /// Mean request rate in requests per hour.
        per_hour: u64,
        /// Pareto shape α in thousandths (`> 1000` so the mean exists).
        alpha_milli: u32,
    },
}

impl TrafficSpec {
    /// The default steady profile (`steady@rph-6000`).
    pub fn steady() -> TrafficSpec {
        TrafficSpec::Steady { per_hour: DEFAULT_PER_HOUR }
    }

    /// The default diurnal profile (`diurnal@rph-6000+swing-80`).
    pub fn diurnal() -> TrafficSpec {
        TrafficSpec::Diurnal { per_hour: DEFAULT_PER_HOUR, swing_pct: DEFAULT_SWING_PCT }
    }

    /// The default heavy-tailed profile (`heavy@rph-6000+alpha-1500`).
    pub fn heavy() -> TrafficSpec {
        TrafficSpec::Heavy { per_hour: DEFAULT_PER_HOUR, alpha_milli: DEFAULT_ALPHA_MILLI }
    }

    /// The mean request rate in requests per hour.
    pub fn per_hour(&self) -> u64 {
        match *self {
            TrafficSpec::Steady { per_hour }
            | TrafficSpec::Diurnal { per_hour, .. }
            | TrafficSpec::Heavy { per_hour, .. } => per_hour,
        }
    }

    /// Checks the spec's parameters: a positive rate, a swing within
    /// `0..=100`%, a Pareto shape above 1 (finite mean).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.per_hour() == 0 {
            return Err("request rate must be positive".into());
        }
        match *self {
            TrafficSpec::Steady { .. } => Ok(()),
            TrafficSpec::Diurnal { swing_pct, .. } if swing_pct > 100 => {
                Err(format!("swing must be 0..=100 percent, got {swing_pct}"))
            }
            TrafficSpec::Diurnal { .. } => Ok(()),
            TrafficSpec::Heavy { alpha_milli, .. } if alpha_milli <= 1000 => {
                Err(format!("alpha must exceed 1000 milli (a finite mean), got {alpha_milli}"))
            }
            TrafficSpec::Heavy { .. } => Ok(()),
        }
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficSpec::Steady { per_hour } => write!(f, "steady@rph-{per_hour}"),
            TrafficSpec::Diurnal { per_hour, swing_pct } => {
                write!(f, "diurnal@rph-{per_hour}+swing-{swing_pct}")
            }
            TrafficSpec::Heavy { per_hour, alpha_milli } => {
                write!(f, "heavy@rph-{per_hour}+alpha-{alpha_milli}")
            }
        }
    }
}

impl FromStr for TrafficSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<TrafficSpec, String> {
        let (kind, tail) = match s.split_once('@') {
            Some((kind, tail)) => (kind, Some(tail)),
            None => (s, None),
        };
        let mut per_hour = DEFAULT_PER_HOUR;
        let mut swing_pct = None;
        let mut alpha_milli = None;
        for part in tail.into_iter().flat_map(|t| t.split('+')) {
            let (key, value) = part
                .split_once('-')
                .ok_or_else(|| format!("malformed traffic parameter {part:?} (want key-value)"))?;
            let value: u64 =
                value.parse().map_err(|_| format!("malformed traffic value {value:?}"))?;
            match key {
                "rph" => per_hour = value,
                "swing" => swing_pct = Some(value as u32),
                "alpha" => alpha_milli = Some(value as u32),
                _ => return Err(format!("unknown traffic parameter {key:?}")),
            }
        }
        let spec = match kind {
            "steady" if swing_pct.is_none() && alpha_milli.is_none() => {
                TrafficSpec::Steady { per_hour }
            }
            "diurnal" if alpha_milli.is_none() => {
                TrafficSpec::Diurnal { per_hour, swing_pct: swing_pct.unwrap_or(DEFAULT_SWING_PCT) }
            }
            "heavy" if swing_pct.is_none() => TrafficSpec::Heavy {
                per_hour,
                alpha_milli: alpha_milli.unwrap_or(DEFAULT_ALPHA_MILLI),
            },
            "steady" | "diurnal" | "heavy" => {
                return Err(format!("traffic spec {s:?} mixes parameters of another profile"));
            }
            _ => {
                return Err(format!(
                    "unknown traffic spec {s:?} (want steady[@rph-N], \
                     diurnal[@rph-N+swing-P], or heavy[@rph-N+alpha-M])"
                ));
            }
        };
        spec.validate().map_err(|e| format!("invalid traffic spec {s:?}: {e}"))?;
        Ok(spec)
    }
}

/// One request in a device's daily arrival stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in device cycles since midnight.
    pub cycle: u64,
    /// Index of the requested workload in the device's suite.
    pub workload: u32,
}

/// Generates the deterministic arrival stream of one serving day
/// (DESIGN.md §13): inter-arrival times drawn from `spec`'s process —
/// exponential for [`TrafficSpec::Steady`], exponential candidates
/// thinned against the diurnal rate curve for [`TrafficSpec::Diurnal`],
/// Pareto for [`TrafficSpec::Heavy`] — with each arrival's workload drawn
/// uniformly from the suite. The stream is a pure function of
/// `(spec, stream_seed, day)`: the same inputs reproduce it bit for bit.
///
/// # Panics
///
/// Panics on an invalid `spec` ([`TrafficSpec::validate`]), a zero
/// `clock_hz`, or a zero `workloads` count — plan-construction bugs.
pub fn day_traffic(
    spec: &TrafficSpec,
    stream_seed: u64,
    day: u64,
    clock_hz: u64,
    workloads: u32,
) -> Vec<Arrival> {
    spec.validate().unwrap_or_else(|e| panic!("invalid traffic spec {spec}: {e}"));
    assert!(clock_hz > 0, "clock_hz must be positive");
    assert!(workloads > 0, "a serving day needs at least one workload to request");
    let mut rng = SmallRng::seed_from_u64(derive_cell_seed(stream_seed ^ TRAFFIC_STREAM_SALT, day));
    let day_cycles = (clock_hz * SECONDS_PER_DAY) as f64;
    // Mean inter-arrival gap in cycles; per_hour > 0 keeps it finite.
    let mean_gap = (clock_hz * 3_600) as f64 / spec.per_hour() as f64;
    // Reserve the expected count (`per_hour × 24`) plus slack, so the
    // pattern buffer is allocated once instead of doubling into up to
    // twice the space it needs. A sixteenth covers the default profiles'
    // day-to-day spread (within 4% of the expectation); the cap keeps an
    // absurd rate from reserving gigabytes up front.
    let expected = spec.per_hour().saturating_mul(24);
    let reserve = expected.saturating_add(expected / 16 + 64).min(1 << 24);
    let mut arrivals = Vec::with_capacity(reserve as usize);
    let mut push = |rng: &mut SmallRng, t: f64| {
        arrivals.push(Arrival { cycle: t as u64, workload: rng.random_range(0..workloads) });
    };
    match *spec {
        TrafficSpec::Steady { .. } => {
            let gap = Exp::new(1.0 / mean_gap).expect("positive rate");
            let mut t = gap.sample(&mut rng);
            while t < day_cycles {
                push(&mut rng, t);
                t += gap.sample(&mut rng);
            }
        }
        TrafficSpec::Diurnal { swing_pct, .. } => {
            // Thinning (Lewis & Shedler): candidates at the peak rate
            // `(1+s)/mean_gap`, each kept with probability `λ(t)/λ_max`
            // where `λ(t) = (1 - s·cos(2πt/day))/mean_gap`.
            let s = swing_pct as f64 / 100.0;
            let gap = Exp::new((1.0 + s) / mean_gap).expect("positive rate");
            let mut t = gap.sample(&mut rng);
            while t < day_cycles {
                let rate = 1.0 - s * (std::f64::consts::TAU * t / day_cycles).cos();
                if rng.random_range(0.0..1.0) * (1.0 + s) <= rate {
                    push(&mut rng, t);
                }
                t += gap.sample(&mut rng);
            }
        }
        TrafficSpec::Heavy { alpha_milli, .. } => {
            // Pareto gaps with mean `scale·α/(α-1)` pinned to `mean_gap`.
            let alpha = alpha_milli as f64 / 1000.0;
            let scale = mean_gap * (alpha - 1.0) / alpha;
            let gap = Pareto::new(scale, alpha).expect("validated shape");
            let mut t = gap.sample(&mut rng);
            while t < day_cycles {
                push(&mut rng, t);
                t += gap.sample(&mut rng);
            }
        }
    }
    arrivals
}

/// Utilization-aware backpressure knobs (DESIGN.md §13). The queue sheds
/// on depth alone; it defers a request to the GPP when the day's tracker
/// shows a hot FU *and* the queue is already backed up — trading latency
/// (the GPP is slower) against stress on the worn cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackpressureSpec {
    /// Arrivals finding this many requests in flight are dropped
    /// (`0` disables shedding).
    pub shed_depth: u32,
    /// Minimum in-flight depth before a hot fabric defers to the GPP.
    pub defer_depth: u32,
    /// The fabric counts as *hot* when the busiest FU's share of the
    /// day's executions reaches this percentage.
    pub hot_share_pct: u32,
    /// Served requests before the day's share estimate is trusted.
    pub warmup_requests: u64,
}

impl Default for BackpressureSpec {
    fn default() -> BackpressureSpec {
        BackpressureSpec { shed_depth: 64, defer_depth: 8, hot_share_pct: 60, warmup_requests: 32 }
    }
}

/// What replaces a dead device (DESIGN.md §13).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// A factory-fresh device: zero wear.
    Pristine,
    /// A refurbished device with uniform pre-aging: every FU starts at
    /// `age_pct` percent of the calibration anchor (`0..100`).
    Refurbished {
        /// Pre-age as a percentage of [`CalibratedAging::anchor_years`].
        age_pct: u32,
    },
}

/// Replacement economics: what a dead device is swapped for, and what the
/// swap costs (DESIGN.md §13). A death mid-day sheds the rest of that
/// day's requests; the replacement enters service at the next midnight.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplacementSpec {
    /// What the dead device is replaced with.
    pub policy: ReplacementPolicy,
    /// Cost of one replacement in cents.
    pub unit_cost_cents: u64,
}

impl Default for ReplacementSpec {
    fn default() -> ReplacementSpec {
        ReplacementSpec { policy: ReplacementPolicy::Pristine, unit_cost_cents: 10_000 }
    }
}

/// A serving campaign as data: N devices × M policies × T traffic
/// profiles, each device queueing and serving its lane's request stream
/// day after day until the horizon (DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct ServePlan {
    /// Base experiment seed; device `d` draws its workloads *and* its
    /// arrival streams from [`derive_cell_seed`]`(base_seed, lane_of(d))`.
    pub base_seed: u64,
    /// The system configuration every device ships with.
    pub config: SystemConfig,
    /// The policy axis (each policy sees the same devices and traffic).
    pub policies: Vec<PolicySpec>,
    /// The traffic axis (each profile sees the same devices and policies).
    pub traffic: Vec<TrafficSpec>,
    /// Device instances per (traffic × policy) cell.
    pub devices: usize,
    /// The workload catalogue requests are drawn from.
    pub suite: SuiteSpec,
    /// Serving horizon in days.
    pub horizon_days: u64,
    /// Traffic period: arrival streams repeat after this many days.
    pub pattern_days: u64,
    /// Device clock in Hz (sets the cycles-per-day budget).
    pub clock_hz: u64,
    /// Deployment years one serving day's wear models (DESIGN.md §13).
    pub years_per_day: f64,
    /// The aging calibration wear accumulates under.
    pub aging: CalibratedAging,
    /// Queue shedding/deferral thresholds.
    pub backpressure: BackpressureSpec,
    /// Replacement policy and cost for dead devices.
    pub replacement: ReplacementSpec,
    /// First-failure histogram bins over the horizon.
    pub histogram_bins: usize,
    /// Distinct workload/traffic lanes; device `d` serves lane
    /// `d % lanes`. `None` gives every device its own lane.
    pub lanes: Option<usize>,
    /// Devices per streaming shard of the weighting phase. Never affects
    /// results — only memory and scheduling.
    pub shard_devices: usize,
}

impl ServePlan {
    /// A serving fleet of 8 devices on `fabric` with the full mibench
    /// catalogue, the default diurnal + heavy-tailed traffic mix, and the
    /// default day/clock/backpressure/replacement model. Add policies
    /// with the chainable builders.
    pub fn new(base_seed: u64, fabric: Fabric) -> ServePlan {
        ServePlan {
            base_seed,
            config: SystemConfig::new(fabric),
            policies: Vec::new(),
            traffic: vec![TrafficSpec::diurnal(), TrafficSpec::heavy()],
            devices: 8,
            suite: SuiteSpec::full(),
            horizon_days: DEFAULT_HORIZON_DAYS,
            pattern_days: DEFAULT_PATTERN_DAYS,
            clock_hz: DEFAULT_CLOCK_HZ,
            years_per_day: DEFAULT_YEARS_PER_DAY,
            aging: CalibratedAging::default(),
            backpressure: BackpressureSpec::default(),
            replacement: ReplacementSpec::default(),
            histogram_bins: 20,
            lanes: None,
            shard_devices: DEFAULT_SHARD_DEVICES,
        }
    }

    /// Replaces the system configuration.
    pub fn config(mut self, config: SystemConfig) -> ServePlan {
        self.config = config;
        self
    }

    /// Adds a policy to the policy axis.
    pub fn policy(mut self, spec: PolicySpec) -> ServePlan {
        self.policies.push(spec);
        self
    }

    /// Adds several policies to the policy axis.
    pub fn policies(mut self, specs: impl IntoIterator<Item = PolicySpec>) -> ServePlan {
        self.policies.extend(specs);
        self
    }

    /// Replaces the traffic axis with a single profile.
    pub fn traffic(mut self, spec: TrafficSpec) -> ServePlan {
        self.traffic = vec![spec];
        self
    }

    /// Replaces the traffic axis.
    pub fn traffic_mix(mut self, specs: impl IntoIterator<Item = TrafficSpec>) -> ServePlan {
        self.traffic = specs.into_iter().collect();
        self
    }

    /// Sets the number of device instances per cell.
    pub fn devices(mut self, devices: usize) -> ServePlan {
        self.devices = devices;
        self
    }

    /// Replaces the workload catalogue.
    pub fn suite(mut self, suite: SuiteSpec) -> ServePlan {
        self.suite = suite;
        self
    }

    /// Sets the serving horizon in days.
    pub fn horizon_days(mut self, days: u64) -> ServePlan {
        self.horizon_days = days;
        self
    }

    /// Sets the traffic period in days.
    pub fn pattern_days(mut self, days: u64) -> ServePlan {
        self.pattern_days = days;
        self
    }

    /// Sets the device clock in Hz.
    pub fn clock_hz(mut self, hz: u64) -> ServePlan {
        self.clock_hz = hz;
        self
    }

    /// Sets the deployment years one serving day models.
    pub fn years_per_day(mut self, years: f64) -> ServePlan {
        self.years_per_day = years;
        self
    }

    /// Replaces the aging calibration.
    pub fn aging(mut self, aging: CalibratedAging) -> ServePlan {
        self.aging = aging;
        self
    }

    /// Replaces the backpressure thresholds.
    pub fn backpressure(mut self, spec: BackpressureSpec) -> ServePlan {
        self.backpressure = spec;
        self
    }

    /// Replaces the replacement policy and cost.
    pub fn replacement(mut self, spec: ReplacementSpec) -> ServePlan {
        self.replacement = spec;
        self
    }

    /// Sets the first-failure histogram resolution.
    pub fn histogram_bins(mut self, bins: usize) -> ServePlan {
        self.histogram_bins = bins;
        self
    }

    /// Sets the number of workload/traffic lanes.
    pub fn lanes(mut self, lanes: usize) -> ServePlan {
        self.lanes = Some(lanes);
        self
    }

    /// Sets the streaming shard size of the weighting phase.
    pub fn shard_devices(mut self, shard: usize) -> ServePlan {
        self.shard_devices = shard;
        self
    }

    /// The number of distinct lanes the plan resolves to.
    pub fn effective_lanes(&self) -> usize {
        self.lanes.unwrap_or(self.devices).min(self.devices)
    }

    /// The deployment years the serving horizon models
    /// (`horizon_days × years_per_day`).
    pub fn horizon_years(&self) -> f64 {
        self.horizon_days as f64 * self.years_per_day
    }

    /// Cycles in one serving day under the plan's clock.
    pub fn day_cycles(&self) -> u64 {
        self.clock_hz * SECONDS_PER_DAY
    }
}

/// Measured service costs of one workload on the fabric under one fault
/// mask: the request's cycle count and the per-FU stress it exerts.
#[derive(Clone, Debug)]
struct CgraCost {
    /// End-to-end service cycles (GPP phases + offloads).
    cycles: u64,
    /// Busy cycles one service adds to each FU: its execution-weighted
    /// utilization times `cycles`, precomputed so the day fold adds one
    /// float per FU.
    busy: Vec<f64>,
    /// The raw tracker of one service: its per-FU execution counts feed
    /// the backpressure rule, and observers see it merged into the day
    /// tracker.
    tracker: UtilizationTracker,
}

impl CgraCost {
    /// The cost of a service that ran `cycles` and recorded `tracker`.
    fn new(cycles: u64, tracker: UtilizationTracker) -> CgraCost {
        let util = tracker.duty_cycles(cycles);
        let busy = util.values().iter().map(|u| u * cycles as f64).collect();
        CgraCost { cycles, busy, tracker }
    }
}

/// Lazy fabric service-cost cache of one trajectory simulation: per fault
/// mask, each workload's [`CgraCost`], or `None` when no placement avoids
/// the mask's dead FUs (a request for it kills the device). The fault
/// mask is monotone within a generation and replacement generations
/// repeat the same mask sequence (same duty history from a uniform wear
/// offset), so the dead-FU count keys each distinct mask exactly
/// (DESIGN.md §13).
struct ServiceTable<'a> {
    spec: &'a PolicySpec,
    masks: BTreeMap<u32, Vec<Option<CgraCost>>>,
    simulated_services: u64,
}

impl<'a> ServiceTable<'a> {
    fn new(spec: &'a PolicySpec) -> Self {
        ServiceTable { spec, masks: BTreeMap::new(), simulated_services: 0 }
    }

    /// The fabric costs of the store's workloads `0..workloads` under
    /// `mask`, measuring every workload on first use: each request shape
    /// run to exit on a fresh system, or replayed from the task's offload
    /// tape (DESIGN.md §13, §17).
    fn costs(
        &mut self,
        store: &mut TapeStore<'_>,
        workloads: usize,
        mask: &FaultMask,
    ) -> Result<&[Option<CgraCost>], SystemError> {
        let key = mask.dead_count();
        if !self.masks.contains_key(&key) {
            let cost = |run: TapeRun| CgraCost::new(run.stats.total_cycles(), run.tracker);
            let cgra = (0..workloads)
                .map(|workload| Ok(store.run(self.spec, mask, workload)?.map(cost)))
                .collect::<Result<Vec<_>, SystemError>>()?;
            self.simulated_services += cgra.len() as u64;
            self.masks.insert(key, cgra);
        }
        Ok(self.masks.get(&key).expect("inserted above"))
    }
}

/// One simulated serving day's outcome, cacheable per
/// `(dead FU count, pattern day)` because backpressure state is day-local
/// (DESIGN.md §13).
#[derive(Clone, Debug)]
struct DayOutcome {
    served_cgra: u64,
    served_gpp: u64,
    shed: u64,
    latency: LogHistogram,
    /// The day's per-FU stress duty: busy cycles over day cycles.
    duty: UtilizationGrid,
    /// A request hit a workload with no placement: the device died.
    died: bool,
    /// Fraction of the day elapsed at death (valid when `died`).
    fatal_fraction: f64,
}

/// A request in flight: admitted, waiting for (or in) service.
struct Pending {
    finish: u64,
    request: u64,
    wait: u64,
    service: u64,
    deferred: bool,
}

/// Delivers `event` to every observer with the day tracker as context.
fn emit(
    observers: &mut [Box<dyn Observer>],
    tracker: &UtilizationTracker,
    cycle: u64,
    event: &SimEvent,
) {
    let ctx = EventCtx { cycle, tracker };
    for observer in observers.iter_mut() {
        observer.on_event(&ctx, event);
    }
}

/// Simulates one device-day: a FIFO single-server queue over `arrivals`
/// with utilization-aware backpressure (DESIGN.md §13). `cgra` and `gpp`
/// are the per-workload fabric and GPP service costs. Pure function of
/// its inputs — the day cache and the class sharing both rely on that.
///
/// Served requests stress the fabric for their service window at the
/// workload's execution-weighted utilization; deferred (GPP) services and
/// idle time exert none. Service tails past midnight are charged to the
/// day that admitted them; the queue drains at the day boundary.
///
/// Each request pays only for what it needs: backpressure reads per-FU
/// execution counts, and scans them for the busiest FU only when the
/// queue is deep enough for the answer to matter; latencies are tallied
/// densely and folded into the histogram at midnight; the day tracker
/// exists only while observers are attached.
fn run_service_day(
    arrivals: &[Arrival],
    cgra: &[Option<CgraCost>],
    gpp: &[u64],
    bp: &BackpressureSpec,
    day_cycles: u64,
    fabric: &Fabric,
    observers: &mut [Box<dyn Observer>],
) -> DayOutcome {
    let fu_count = fabric.fu_count() as usize;
    let mut day_tracker = (!observers.is_empty()).then(|| UtilizationTracker::new(fabric));
    let mut day_counts = vec![0u64; fu_count];
    let mut day_executions = 0u64;
    let mut busy = vec![0.0f64; fu_count];
    let mut latency_tally = [0u64; LOG_BUCKETS];
    let mut in_flight: VecDeque<Pending> = VecDeque::new();
    let mut free_at = 0u64;
    let mut served_cgra = 0u64;
    let mut served_gpp = 0u64;
    let mut shed = 0u64;
    let mut died = false;
    let mut fatal_fraction = 1.0;
    for (i, arrival) in arrivals.iter().enumerate() {
        while in_flight.front().is_some_and(|p| p.finish <= arrival.cycle) {
            let done = in_flight.pop_front().expect("front exists");
            if let Some(tracker) = &day_tracker {
                let event = SimEvent::RequestServed {
                    request: done.request,
                    wait_cycles: done.wait,
                    service_cycles: done.service,
                    deferred: done.deferred,
                };
                emit(observers, tracker, done.finish, &event);
            }
        }
        let depth = in_flight.len() as u32;
        // Queue decisions are metered unconditionally (not gated on
        // observers): metrics must not depend on probe attachment
        // (DESIGN.md §16). Disabled, each is one relaxed atomic load.
        tracing::event!(tracing::Level::TRACE, "traffic.requests.arrived", "add" = 1);
        let Some(cost) = &cgra[arrival.workload as usize] else {
            // The request needs a workload with no placement left: the
            // device is dead; the rest of the day's requests go unserved.
            died = true;
            fatal_fraction = arrival.cycle as f64 / day_cycles as f64;
            shed += (arrivals.len() - i) as u64;
            tracing::event!(
                tracing::Level::TRACE,
                "traffic.requests.shed",
                "add" = arrivals.len() - i,
            );
            if let Some(tracker) = &day_tracker {
                let event = SimEvent::RequestShed { request: i as u64, queue_depth: depth };
                emit(observers, tracker, arrival.cycle, &event);
            }
            break;
        };
        if bp.shed_depth > 0 && depth >= bp.shed_depth {
            shed += 1;
            tracing::event!(tracing::Level::TRACE, "traffic.requests.shed", "add" = 1);
            if let Some(tracker) = &day_tracker {
                let event = SimEvent::RequestShed { request: i as u64, queue_depth: depth };
                emit(observers, tracker, arrival.cycle, &event);
            }
            continue;
        }
        // A hot fabric (the busiest FU holds at least `hot_share_pct`% of
        // the day's executions; integer math, exact) defers to the GPP,
        // but only once the queue is backed up and the estimate warm.
        let deferred = depth >= bp.defer_depth
            && served_cgra + served_gpp >= bp.warmup_requests
            && day_executions > 0
            && day_counts
                .iter()
                .max()
                .is_some_and(|&worst| worst * 100 >= day_executions * bp.hot_share_pct as u64);
        let service = if deferred { gpp[arrival.workload as usize] } else { cost.cycles };
        let start = free_at.max(arrival.cycle);
        let wait = start - arrival.cycle;
        let finish = start + service;
        free_at = finish;
        latency_tally[log_bucket(wait + service) as usize] += 1;
        tracing::event!(tracing::Level::TRACE, "traffic.latency.cycles", "record" = wait + service);
        tracing::event!(tracing::Level::TRACE, "traffic.queue.depth", "set" = depth + 1);
        if deferred {
            served_gpp += 1;
            tracing::event!(tracing::Level::TRACE, "traffic.requests.served_gpp", "add" = 1);
        } else {
            served_cgra += 1;
            tracing::event!(tracing::Level::TRACE, "traffic.requests.served_cgra", "add" = 1);
            for (b, &add) in busy.iter_mut().zip(&cost.busy) {
                *b += add;
            }
            for (n, &add) in day_counts.iter_mut().zip(cost.tracker.exec_counts()) {
                *n += add;
            }
            day_executions += cost.tracker.executions();
            if let Some(tracker) = &mut day_tracker {
                tracker.merge(&cost.tracker);
            }
        }
        if let Some(tracker) = &day_tracker {
            let event = SimEvent::RequestArrived {
                request: i as u64,
                workload: arrival.workload,
                queue_depth: depth + 1,
            };
            emit(observers, tracker, arrival.cycle, &event);
        }
        in_flight.push_back(Pending { finish, request: i as u64, wait, service, deferred });
    }
    let mut end_cycle = day_cycles;
    while let Some(done) = in_flight.pop_front() {
        end_cycle = end_cycle.max(done.finish);
        if let Some(tracker) = &day_tracker {
            let event = SimEvent::RequestServed {
                request: done.request,
                wait_cycles: done.wait,
                service_cycles: done.service,
                deferred: done.deferred,
            };
            emit(observers, tracker, done.finish, &event);
        }
    }
    if let Some(tracker) = &day_tracker {
        let ctx = EventCtx { cycle: end_cycle, tracker };
        for observer in observers.iter_mut() {
            observer.on_finish(&ctx);
        }
    }
    let mut latency = LogHistogram::new();
    latency.add_dense(&latency_tally);
    let denom = day_cycles as f64;
    let values: Vec<f64> = busy.iter().map(|b| (b / denom).min(1.0)).collect();
    DayOutcome {
        served_cgra,
        served_gpp,
        shed,
        latency,
        duty: UtilizationGrid::from_values(fabric.rows, fabric.cols, values),
        died,
        fatal_fraction,
    }
}

/// One device generation inside a serving trajectory, in service years
/// relative to its own deployment (pre-aging excluded).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Generation {
    /// Service years until death, `None` if alive at the horizon.
    death_years: Option<f64>,
    /// Service years until the first FU failure, if any failed.
    first_failure_years: Option<f64>,
}

/// One (traffic × policy × lane) equivalence class's full serving
/// history: every class member reproduces it exactly, so phase 2 only
/// weights it by the member count (DESIGN.md §13).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct ServeTrajectory {
    /// Device generations in deployment order (the last is censored).
    generations: Vec<Generation>,
    /// End-to-end latency of every served request.
    latency: LogHistogram,
    /// Requests served on the fabric.
    served_cgra: u64,
    /// Requests deferred to the GPP by backpressure.
    served_gpp: u64,
    /// Requests shed (queue full, or death-day remainder).
    shed: u64,
    /// Requests that arrived over the horizon.
    total_requests: u64,
    /// Devices replaced after dying.
    replacements: u64,
    /// Distinct device-days actually simulated (the rest replayed the
    /// day cache).
    simulated_days: u64,
    /// Fabric service measurements actually run, recorded or replayed.
    simulated_services: u64,
}

/// A replacement device per the plan's [`ReplacementPolicy`], plus its
/// pre-age offset in years.
///
/// # Panics
///
/// Panics when refurbished pre-aging alone crosses end of life — a
/// plan-construction bug ([`ReplacementPolicy::Refurbished`] documents
/// the `0..100` bound).
fn replacement_device(plan: &ServePlan) -> (DeviceLifetime, f64) {
    let mut life = DeviceLifetime::new(&plan.config.fabric, plan.aging, true);
    match plan.replacement.policy {
        ReplacementPolicy::Pristine => (life, 0.0),
        ReplacementPolicy::Refurbished { age_pct } => {
            let years = plan.aging.anchor_years * age_pct as f64 / 100.0;
            let fabric = &plan.config.fabric;
            let uniform = UtilizationGrid::from_values(
                fabric.rows,
                fabric.cols,
                vec![1.0; (fabric.rows * fabric.cols) as usize],
            );
            let failures = life.advance_mission(&uniform, years);
            assert!(
                failures.is_empty(),
                "refurbished pre-age of {age_pct}% crosses end of life before deployment"
            );
            (life, years)
        }
    }
}

/// Simulates one (traffic × policy × lane) class's serving deployment on
/// the reference path: replay the pattern day's arrivals, run the queue
/// against the current mask's measured costs, fold the day's duty into
/// wear, inject failures, replace the device when it dies (DESIGN.md
/// §13). Day outcomes are cached per `(dead FU count, pattern day)`, so
/// the cost is bounded by distinct mask states — not by the horizon.
fn serve_policy(
    plan: &ServePlan,
    spec: &PolicySpec,
    store: &mut TapeStore<'_>,
    pattern: &[Vec<Arrival>],
    gpp: &[u64],
) -> Result<ServeTrajectory, SystemError> {
    let day_cycles = plan.day_cycles();
    let mut table = ServiceTable::new(spec);
    let mut day_cache: BTreeMap<(u32, u64), DayOutcome> = BTreeMap::new();
    let mut life = DeviceLifetime::new(&plan.config.fabric, plan.aging, true);
    let mut pre_age = 0.0f64;
    let mut generation_start = 0u64;
    let mut out = ServeTrajectory::default();
    for day in 0..plan.horizon_days {
        let pattern_day = day % plan.pattern_days;
        let arrivals = &pattern[pattern_day as usize];
        let key = (life.fault_mask().dead_count(), pattern_day);
        let outcome = match day_cache.get(&key) {
            Some(outcome) => outcome.clone(),
            None => {
                let cgra = table.costs(store, plan.suite.members.len(), life.fault_mask())?;
                let outcome = run_service_day(
                    arrivals,
                    cgra,
                    gpp,
                    &plan.backpressure,
                    day_cycles,
                    &plan.config.fabric,
                    &mut [],
                );
                out.simulated_days += 1;
                day_cache.insert(key, outcome.clone());
                outcome
            }
        };
        out.total_requests += arrivals.len() as u64;
        out.served_cgra += outcome.served_cgra;
        out.served_gpp += outcome.served_gpp;
        out.shed += outcome.shed;
        out.latency.merge(&outcome.latency);
        if outcome.died {
            let days_alive = (day - generation_start) as f64 + outcome.fatal_fraction;
            out.generations.push(Generation {
                death_years: Some(days_alive * plan.years_per_day),
                first_failure_years: life.first_failure_years().map(|t| (t - pre_age).max(0.0)),
            });
            out.replacements += 1;
            (life, pre_age) = replacement_device(plan);
            generation_start = day + 1;
            continue;
        }
        life.advance_mission(&outcome.duty, plan.years_per_day);
    }
    out.generations.push(Generation {
        death_years: None,
        first_failure_years: life.first_failure_years().map(|t| (t - pre_age).max(0.0)),
    });
    out.simulated_services = table.simulated_services;
    Ok(out)
}

/// One (traffic × policy) cell's streaming aggregate: a canonical monoid,
/// so it folds exactly regardless of the split (DESIGN.md §13).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct ServeAccum {
    fleet: FleetAccum,
    latency: LogHistogram,
    served_cgra: u64,
    served_gpp: u64,
    shed: u64,
    total_requests: u64,
    replacements: u64,
}

/// One (traffic × policy) cell of a serving report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeCell {
    /// Traffic spec string.
    pub traffic: String,
    /// Policy spec string.
    pub policy: String,
    /// Fleet lifetime statistics over device *generations* (replacements
    /// included), censored at the campaign horizon.
    pub stats: FleetStats,
    /// Median end-to-end request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end request latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile end-to-end request latency in milliseconds.
    pub p99_ms: f64,
    /// Requests served on the fabric.
    pub served_cgra: u64,
    /// Requests deferred to the GPP by backpressure.
    pub served_gpp: u64,
    /// Requests shed (queue full, or death-day remainder).
    pub shed: u64,
    /// Requests that arrived over the horizon.
    pub total_requests: u64,
    /// `shed / total_requests` (`0` when no requests arrived).
    pub shed_rate: f64,
    /// Devices replaced after dying, across the whole cell.
    pub replacements: u64,
    /// Replacement spend in cents (`replacements × unit cost`).
    pub replacement_cost_cents: u64,
    /// Distinct device-days actually simulated across the cell's lanes.
    pub simulated_days: u64,
    /// Fabric service measurements actually run across the cell's lanes,
    /// each recorded as a full session or replayed from an offload tape
    /// (DESIGN.md §17).
    pub simulated_services: u64,
}

/// The serializable result of [`run_serving`] (`results/serving.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Base experiment seed.
    pub base_seed: u64,
    /// Fabric rows.
    pub rows: u32,
    /// Fabric columns.
    pub cols: u32,
    /// Workload-suite label.
    pub suite: String,
    /// Devices per cell.
    pub devices: usize,
    /// Distinct workload/traffic lanes.
    pub lanes: usize,
    /// Serving horizon in days.
    pub horizon_days: u64,
    /// Traffic period in days.
    pub pattern_days: u64,
    /// Device clock in Hz.
    pub clock_hz: u64,
    /// Deployment years one serving day models.
    pub years_per_day: f64,
    /// Deployment years the horizon models.
    pub horizon_years: f64,
    /// Per-cell aggregates, traffic-major then policy, in plan order.
    pub cells: Vec<ServeCell>,
}

impl ServeReport {
    /// The cell for `traffic` × `policy` (their spec strings).
    pub fn cell(&self, traffic: &str, policy: &str) -> Option<&ServeCell> {
        self.cells.iter().find(|c| c.traffic == traffic && c.policy == policy)
    }
}

/// What [`run_serving_campaign`] came back with.
pub type ServeStatus = Status<ServeReport>;

/// The serving engine's physics on the shared [`campaign`] driver.
impl Campaign for ServePlan {
    /// One per (traffic × policy × lane): the lanes are the classes.
    type Trajectory = ServeTrajectory;
    /// One cell per (traffic × policy).
    type Accum = ServeAccum;
    type Report = ServeReport;

    const KIND: Kind = Kind {
        magic: "uaware-serve-checkpoint",
        noun: "serving",
        trajectories_span: "serve.trajectories",
        shards_span: "serve.shards",
        checkpoint_span: "serve.checkpoint",
    };

    /// One (traffic × lane) pair's serving deployment under every policy,
    /// in plan order. The pair's pattern-day arrival streams are generated
    /// once and its GPP-only service cycles measured once; every policy
    /// then serves the same streams, and both are dropped when the pair is
    /// done (DESIGN.md §13).
    fn simulate(
        &self,
        traffic: usize,
        &(lane, _): &ClassKey,
        workloads: &[Workload],
    ) -> Vec<Result<ServeTrajectory, SystemError>> {
        let stream_seed = derive_cell_seed(self.base_seed, lane as u64);
        let requests = workloads.len() as u32;
        let pattern: Vec<Vec<Arrival>> = (0..self.pattern_days.min(self.horizon_days))
            .map(|day| {
                day_traffic(&self.traffic[traffic], stream_seed, day, self.clock_hz, requests)
            })
            .collect();
        // GPP-only service cycles, the deferral path: they depend on neither
        // the policy nor the fault mask.
        let gpp = gpp_reference(&self.config, workloads);
        let mut store = TapeStore::new(&self.config, workloads);
        self.policies
            .iter()
            .map(|spec| {
                let gpp = gpp.as_ref().map_err(Clone::clone)?;
                serve_policy(self, spec, &mut store, &pattern, gpp)
            })
            .collect()
    }

    /// Class members are byte-identical, so phase 2 is a weighted fold of
    /// the class trajectory (DESIGN.md §13). Every device generation
    /// enters the fleet accumulator as one observation, censored at the
    /// campaign horizon.
    fn observe(accum: &mut ServeAccum, trajectory: &ServeTrajectory, members: u64) {
        for g in &trajectory.generations {
            accum.fleet.observe_weighted(g.death_years, g.first_failure_years, members);
        }
        accum.latency.add_scaled(&trajectory.latency, members);
        accum.served_cgra += trajectory.served_cgra * members;
        accum.served_gpp += trajectory.served_gpp * members;
        accum.shed += trajectory.shed * members;
        accum.total_requests += trajectory.total_requests * members;
        accum.replacements += trajectory.replacements * members;
    }

    fn report(
        &self,
        classes: &ClassMap,
        cells: Vec<(ServeAccum, &[ServeTrajectory])>,
    ) -> ServeReport {
        let to_ms = |cycles: u64| cycles as f64 * 1_000.0 / self.clock_hz as f64;
        let axes = self.traffic.iter().flat_map(|t| self.policies.iter().map(move |p| (t, p)));
        let cells = axes
            .zip(cells)
            .map(|((traffic, policy), (accum, lanes))| ServeCell {
                traffic: traffic.to_string(),
                policy: policy.to_string(),
                stats: accum.fleet.stats(self.horizon_years(), self.histogram_bins),
                p50_ms: to_ms(accum.latency.percentile(0.50)),
                p95_ms: to_ms(accum.latency.percentile(0.95)),
                p99_ms: to_ms(accum.latency.percentile(0.99)),
                served_cgra: accum.served_cgra,
                served_gpp: accum.served_gpp,
                shed: accum.shed,
                total_requests: accum.total_requests,
                shed_rate: if accum.total_requests == 0 {
                    0.0
                } else {
                    accum.shed as f64 / accum.total_requests as f64
                },
                replacements: accum.replacements,
                replacement_cost_cents: accum.replacements * self.replacement.unit_cost_cents,
                simulated_days: lanes.iter().map(|t| t.simulated_days).sum(),
                simulated_services: lanes.iter().map(|t| t.simulated_services).sum(),
            })
            .collect();
        ServeReport {
            base_seed: self.base_seed,
            rows: self.config.fabric.rows,
            cols: self.config.fabric.cols,
            suite: self.suite.name.clone(),
            devices: self.devices,
            lanes: classes.lanes(),
            horizon_days: self.horizon_days,
            pattern_days: self.pattern_days,
            clock_hz: self.clock_hz,
            years_per_day: self.years_per_day,
            horizon_years: self.horizon_years(),
            cells,
        }
    }
}

/// Runs every (traffic × policy × device) cell of `plan` with
/// checkpoint/resume and early-stop control on the shared [`campaign`]
/// engine, sharded across `jobs` workers (`0` = all cores, `1` =
/// sequential). Like
/// [`run_fleet_campaign`](crate::fleet::run_fleet_campaign), the report
/// is **byte-identical for every worker count, every shard split, and
/// every kill/resume point**: trajectories are deterministic per class,
/// shard weighting is a pure function of (plan, trajectories), and the
/// per-cell aggregates fold through exact integer/multiset monoids.
///
/// # Errors
///
/// A movement policy on a movement-less configuration is rejected before
/// anything runs; otherwise the error of the lowest-indexed failing cell
/// is returned. ([`SystemError::AllocationExhausted`] is *not* an error
/// here — it is a device death, part of the result.)
///
/// # Panics
///
/// Panics on plan-construction bugs — an empty traffic axis, an invalid
/// [`TrafficSpec`], a zero `horizon_days`/`pattern_days`/`clock_hz`/
/// `histogram_bins`/`shard_devices`/`lanes`, a non-positive
/// `years_per_day`, a refurbished `age_pct` outside `0..100` — and on
/// checkpoint IO failures or a checkpoint that does not match the plan.
pub fn run_serving_campaign(
    plan: &ServePlan,
    jobs: usize,
    options: &CampaignOptions,
) -> Result<ServeStatus, SystemError> {
    assert!(!plan.traffic.is_empty(), "a serving campaign needs at least one traffic profile");
    for spec in &plan.traffic {
        spec.validate().unwrap_or_else(|e| panic!("invalid traffic spec {spec}: {e}"));
    }
    assert!(plan.horizon_days > 0, "horizon_days must be positive");
    assert!(plan.pattern_days > 0, "pattern_days must be positive");
    assert!(plan.clock_hz > 0, "clock_hz must be positive");
    assert!(plan.histogram_bins > 0, "histogram_bins must be positive");
    assert!(
        plan.years_per_day > 0.0 && plan.years_per_day.is_finite(),
        "years_per_day must be positive and finite, got {}",
        plan.years_per_day
    );
    if let ReplacementPolicy::Refurbished { age_pct } = plan.replacement.policy {
        assert!(age_pct < 100, "refurbished age_pct must be below 100, got {age_pct}");
    }
    // An empty fleet still simulates one lane.
    let lanes = if plan.devices == 0 { 1 } else { plan.effective_lanes() };
    let population = Population {
        base_seed: plan.base_seed,
        config: &plan.config,
        policies: &plan.policies,
        suite: &plan.suite,
        devices: plan.devices,
        shard_devices: plan.shard_devices,
        classes: ClassMap::build(plan.devices, lanes, []),
        groups: plan.traffic.len(),
    };
    campaign::run(plan, population, jobs, options)
}

/// Runs every (traffic × policy × device) cell of `plan`, sharded across
/// `jobs` workers (`0` = all cores, `1` = sequential), without
/// checkpointing. The report is byte-identical for every worker count and
/// shard split — see [`run_serving_campaign`].
///
/// # Errors
///
/// See [`run_serving_campaign`].
///
/// # Panics
///
/// See [`run_serving_campaign`].
pub fn run_serving(plan: &ServePlan, jobs: usize) -> Result<ServeReport, SystemError> {
    run_serving_campaign(plan, jobs, &CampaignOptions::default()).map(Status::unwrap_complete)
}

/// A one-day serving summary, the scalar half of what
/// [`probe_service_day`] returns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DayServeReport {
    /// Requests that arrived over the day.
    pub requests: u64,
    /// Requests served on the fabric.
    pub served_cgra: u64,
    /// Requests deferred to the GPP by backpressure.
    pub served_gpp: u64,
    /// Requests shed.
    pub shed: u64,
    /// Median end-to-end latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile end-to-end latency in milliseconds.
    pub p99_ms: f64,
}

/// Runs one pristine device-day of `plan` under observation: `lane`'s
/// arrival stream for `day` flows through the queue with the requested
/// [`ProbeSpec`] observers attached — the request-level
/// [`SimEvent`] stream (`RequestArrived`/`RequestServed`/`RequestShed`)
/// plus queue-depth probes, exactly as the campaign path simulates it
/// (DESIGN.md §13).
///
/// # Errors
///
/// Propagates simulation errors from the service-cost measurements.
///
/// # Panics
///
/// Panics on the same plan-construction bugs as [`run_serving_campaign`]
/// and on a `lane` outside the plan's lanes.
pub fn probe_service_day(
    plan: &ServePlan,
    policy: &PolicySpec,
    traffic: &TrafficSpec,
    lane: usize,
    day: u64,
    probes: &[ProbeSpec],
) -> Result<(DayServeReport, Vec<ProbeReport>), SystemError> {
    assert!(lane < plan.effective_lanes().max(1), "lane {lane} outside the plan's lanes");
    assert!(plan.pattern_days > 0, "pattern_days must be positive");
    let workloads = plan.suite.workloads(derive_cell_seed(plan.base_seed, lane as u64));
    let gpp = gpp_reference(&plan.config, &workloads)?;
    let mut store = TapeStore::new(&plan.config, &workloads);
    let mut table = ServiceTable::new(policy);
    let cgra =
        table.costs(&mut store, workloads.len(), &FaultMask::healthy(&plan.config.fabric))?;
    let arrivals = day_traffic(
        traffic,
        derive_cell_seed(plan.base_seed, lane as u64),
        day % plan.pattern_days,
        plan.clock_hz,
        workloads.len() as u32,
    );
    let mut observers: Vec<Box<dyn Observer>> = probes.iter().map(|p| p.build()).collect();
    let outcome = run_service_day(
        &arrivals,
        cgra,
        &gpp,
        &plan.backpressure,
        plan.day_cycles(),
        &plan.config.fabric,
        &mut observers,
    );
    let to_ms = |cycles: u64| cycles as f64 * 1_000.0 / plan.clock_hz as f64;
    let report = DayServeReport {
        requests: arrivals.len() as u64,
        served_cgra: outcome.served_cgra,
        served_gpp: outcome.served_gpp,
        shed: outcome.shed,
        p50_ms: to_ms(outcome.latency.percentile(0.50)),
        p95_ms: to_ms(outcome.latency.percentile(0.95)),
        p99_ms: to_ms(outcome.latency.percentile(0.99)),
    };
    Ok((report, observers.iter().filter_map(|o| o.report()).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `true` when the day tracker's busiest FU holds at least
    /// `hot_share_pct` percent of all executions — the reference fold's
    /// per-admission scan.
    fn fabric_is_hot(tracker: &UtilizationTracker, hot_share_pct: u32) -> bool {
        let executions = tracker.executions();
        if executions == 0 {
            return false;
        }
        let worst = tracker.exec_counts().iter().copied().max().unwrap_or(0);
        worst * 100 >= executions * hot_share_pct as u64
    }

    /// The day fold as it was before per-FU counts: every served request
    /// merges its tracker into a day tracker and folds its utilization
    /// times its cycles into `busy`, every admission scans the tracker
    /// with [`fabric_is_hot`], and latencies are recorded one by one. The
    /// differential oracle for [`run_service_day`].
    fn reference_service_day(
        arrivals: &[Arrival],
        cgra: &[Option<CgraCost>],
        gpp: &[u64],
        bp: &BackpressureSpec,
        day_cycles: u64,
        fabric: &Fabric,
        observers: &mut [Box<dyn Observer>],
    ) -> DayOutcome {
        let fu_count = (fabric.rows * fabric.cols) as usize;
        let mut day_tracker = UtilizationTracker::new(fabric);
        let mut busy = vec![0.0f64; fu_count];
        let mut in_flight: VecDeque<Pending> = VecDeque::new();
        let mut free_at = 0u64;
        let (mut served_cgra, mut served_gpp, mut shed) = (0u64, 0u64, 0u64);
        let mut latency = LogHistogram::new();
        let mut died = false;
        let mut fatal_fraction = 1.0;
        let watched = !observers.is_empty();
        let served = |done: &Pending| SimEvent::RequestServed {
            request: done.request,
            wait_cycles: done.wait,
            service_cycles: done.service,
            deferred: done.deferred,
        };
        for (i, arrival) in arrivals.iter().enumerate() {
            while in_flight.front().is_some_and(|p| p.finish <= arrival.cycle) {
                let done = in_flight.pop_front().expect("front exists");
                if watched {
                    emit(observers, &day_tracker, done.finish, &served(&done));
                }
            }
            let depth = in_flight.len() as u32;
            let Some(cost) = &cgra[arrival.workload as usize] else {
                died = true;
                fatal_fraction = arrival.cycle as f64 / day_cycles as f64;
                shed += (arrivals.len() - i) as u64;
                if watched {
                    let event = SimEvent::RequestShed { request: i as u64, queue_depth: depth };
                    emit(observers, &day_tracker, arrival.cycle, &event);
                }
                break;
            };
            if bp.shed_depth > 0 && depth >= bp.shed_depth {
                shed += 1;
                if watched {
                    let event = SimEvent::RequestShed { request: i as u64, queue_depth: depth };
                    emit(observers, &day_tracker, arrival.cycle, &event);
                }
                continue;
            }
            let hot = served_cgra + served_gpp >= bp.warmup_requests
                && fabric_is_hot(&day_tracker, bp.hot_share_pct);
            let deferred = hot && depth >= bp.defer_depth;
            let service = if deferred { gpp[arrival.workload as usize] } else { cost.cycles };
            let start = free_at.max(arrival.cycle);
            let wait = start - arrival.cycle;
            let finish = start + service;
            free_at = finish;
            latency.record(wait + service);
            if deferred {
                served_gpp += 1;
            } else {
                served_cgra += 1;
                let util = cost.tracker.duty_cycles(cost.cycles);
                for (b, &u) in busy.iter_mut().zip(util.values()) {
                    *b += u * cost.cycles as f64;
                }
                day_tracker.merge(&cost.tracker);
            }
            if watched {
                let event = SimEvent::RequestArrived {
                    request: i as u64,
                    workload: arrival.workload,
                    queue_depth: depth + 1,
                };
                emit(observers, &day_tracker, arrival.cycle, &event);
            }
            in_flight.push_back(Pending { finish, request: i as u64, wait, service, deferred });
        }
        let mut end_cycle = day_cycles;
        while let Some(done) = in_flight.pop_front() {
            end_cycle = end_cycle.max(done.finish);
            if watched {
                emit(observers, &day_tracker, done.finish, &served(&done));
            }
        }
        if watched {
            let ctx = EventCtx { cycle: end_cycle, tracker: &day_tracker };
            for observer in observers.iter_mut() {
                observer.on_finish(&ctx);
            }
        }
        let values: Vec<f64> = busy.iter().map(|b| (b / day_cycles as f64).min(1.0)).collect();
        DayOutcome {
            served_cgra,
            served_gpp,
            shed,
            latency,
            duty: UtilizationGrid::from_values(fabric.rows, fabric.cols, values),
            died,
            fatal_fraction,
        }
    }

    /// One workload's random service on the BE fabric: `None` (dead), or
    /// a cost whose executions touch a sparse (1–3) or dense (18–32) set
    /// of FUs, shifted a column per execution so counts differ per FU.
    fn any_cost() -> impl Strategy<Value = Option<CgraCost>> {
        let cells = proptest::collection::vec((0u32..2, 0u32..16), 1..64);
        (0u32..3, 1u64..20_000, cells, 1u32..6, 0usize..3, 18usize..33).prop_map(
            |(kind, cycles, mut cells, executions, sparse, dense)| {
                if kind == 0 {
                    return None;
                }
                let fabric = Fabric::be();
                cells.sort_unstable();
                cells.dedup();
                let mut all: Vec<(u32, u32)> =
                    (0..2).flat_map(|r| (0..16).map(move |c| (r, c))).collect();
                all.retain(|cell| !cells.contains(cell));
                cells.extend(all);
                cells.truncate(if kind == 1 { 1 + sparse } else { dense });
                let mut tracker = UtilizationTracker::new(&fabric);
                for shift in 0..executions {
                    let shifted: Vec<(u32, u32)> =
                        cells.iter().map(|&(r, c)| (r, (c + shift) % 16)).collect();
                    tracker.record_execution(&shifted, 16);
                }
                Some(CgraCost::new(cycles, tracker))
            },
        )
    }

    /// Backpressure thresholds over their edge values: shedding off
    /// (`shed_depth` 0), no warm-up, and a hot share of 0 or 100%.
    fn any_backpressure() -> impl Strategy<Value = BackpressureSpec> {
        (
            prop_oneof![Just(0u32), 1u32..12],
            0u32..8,
            prop_oneof![Just(0u32), Just(100u32), 0u32..=100],
            prop_oneof![Just(0u64), 1u64..40],
        )
            .prop_map(|(shed_depth, defer_depth, hot_share_pct, warmup_requests)| {
                BackpressureSpec { shed_depth, defer_depth, hot_share_pct, warmup_requests }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The per-FU-count fold reproduces the tracker-merging fold on
        /// every field, bit for bit, with and without observers attached.
        #[test]
        fn day_fold_matches_the_tracker_merging_reference(
            costs in proptest::collection::vec(any_cost(), 1..5),
            raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..300),
            day_cycles in 20_000u64..2_000_000,
            bp in any_backpressure(),
            watched in any::<bool>(),
        ) {
            let fabric = Fabric::be();
            let gpp: Vec<u64> = (0..costs.len() as u64).map(|w| 500 + 3_000 * w).collect();
            let mut arrivals: Vec<Arrival> = raw
                .iter()
                .map(|&(t, w)| Arrival {
                    cycle: t % day_cycles,
                    workload: (w % costs.len() as u64) as u32,
                })
                .collect();
            arrivals.sort_by_key(|a| a.cycle);
            let probes = || -> Vec<Box<dyn Observer>> {
                if watched {
                    vec!["queue-depth@every-5000".parse::<ProbeSpec>().unwrap().build()]
                } else {
                    Vec::new()
                }
            };
            let (mut new_obs, mut ref_obs) = (probes(), probes());
            let new =
                run_service_day(&arrivals, &costs, &gpp, &bp, day_cycles, &fabric, &mut new_obs);
            let old = reference_service_day(
                &arrivals, &costs, &gpp, &bp, day_cycles, &fabric, &mut ref_obs,
            );
            prop_assert_eq!(new.served_cgra, old.served_cgra);
            prop_assert_eq!(new.served_gpp, old.served_gpp);
            prop_assert_eq!(new.shed, old.shed);
            prop_assert_eq!(&new.latency, &old.latency);
            let bits = |d: &UtilizationGrid| {
                d.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&new.duty), bits(&old.duty));
            prop_assert_eq!(new.died, old.died);
            prop_assert_eq!(new.fatal_fraction.to_bits(), old.fatal_fraction.to_bits());
            let reports = |obs: &[Box<dyn Observer>]| {
                obs.iter().filter_map(|o| o.report()).collect::<Vec<_>>()
            };
            prop_assert_eq!(reports(&new_obs), reports(&ref_obs));
        }
    }

    #[test]
    fn traffic_specs_round_trip_and_validate() {
        for spec in [
            TrafficSpec::steady(),
            TrafficSpec::diurnal(),
            TrafficSpec::heavy(),
            TrafficSpec::Steady { per_hour: 42 },
            TrafficSpec::Diurnal { per_hour: 10, swing_pct: 100 },
            TrafficSpec::Heavy { per_hour: 7, alpha_milli: 1001 },
        ] {
            let parsed: TrafficSpec = spec.to_string().parse().expect("round trip");
            assert_eq!(parsed, spec);
        }
        assert_eq!("steady".parse::<TrafficSpec>().unwrap(), TrafficSpec::steady());
        assert_eq!("diurnal".parse::<TrafficSpec>().unwrap(), TrafficSpec::diurnal());
        assert_eq!("heavy".parse::<TrafficSpec>().unwrap(), TrafficSpec::heavy());
        assert_eq!(
            "diurnal@swing-50".parse::<TrafficSpec>().unwrap(),
            TrafficSpec::Diurnal { per_hour: DEFAULT_PER_HOUR, swing_pct: 50 }
        );
        for bad in [
            "surge",
            "steady@rph-0",
            "steady@swing-10",
            "diurnal@rph-5+swing-101",
            "heavy@alpha-1000",
            "heavy@swing-10",
            "steady@rph",
            "steady@rph-x",
            "diurnal@tide-3",
        ] {
            assert!(bad.parse::<TrafficSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn arrival_streams_are_deterministic_and_rate_matched() {
        let spec = TrafficSpec::Steady { per_hour: 3_600 };
        let a = day_traffic(&spec, 0xDAC2020, 0, 1_000, 4);
        let b = day_traffic(&spec, 0xDAC2020, 0, 1_000, 4);
        assert_eq!(a, b, "same (spec, seed, day) must reproduce the stream");
        let c = day_traffic(&spec, 0xDAC2020, 1, 1_000, 4);
        assert_ne!(a, c, "different days draw different streams");
        // 3 600/h over a day is 86 400 expected arrivals.
        assert!((80_000..93_000).contains(&a.len()), "got {} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].cycle <= w[1].cycle), "arrivals are ordered");
        assert!(a.iter().all(|r| r.workload < 4));
        let day_cycles = 1_000 * SECONDS_PER_DAY;
        assert!(a.iter().all(|r| r.cycle < day_cycles));
    }

    #[test]
    fn diurnal_arrivals_peak_at_midday() {
        let spec = TrafficSpec::Diurnal { per_hour: 1_200, swing_pct: 80 };
        let arrivals = day_traffic(&spec, 7, 0, 1_000, 1);
        let day_cycles = 1_000 * SECONDS_PER_DAY;
        let sixth = day_cycles / 6;
        let night: usize = arrivals.iter().filter(|r| r.cycle < sixth).count();
        let midday = arrivals
            .iter()
            .filter(|r| r.cycle >= 2 * sixth + sixth / 2 && r.cycle < 3 * sixth + sixth / 2)
            .count();
        assert!(
            midday as f64 > 2.0 * night as f64,
            "midday sixth ({midday}) must dwarf the midnight sixth ({night})"
        );
    }

    #[test]
    fn heavy_tailed_arrivals_have_giant_gaps() {
        let spec = TrafficSpec::Heavy { per_hour: 1_200, alpha_milli: 1_200 };
        let arrivals = day_traffic(&spec, 7, 0, 1_000, 1);
        let mean_gap = 3_600.0 * 1_000.0 / 1_200.0;
        let max_gap = arrivals.windows(2).map(|w| w[1].cycle - w[0].cycle).max().unwrap();
        assert!(
            max_gap as f64 > 20.0 * mean_gap,
            "α=1.2 must produce gaps far beyond the mean ({max_gap} vs {mean_gap})"
        );
    }

    #[test]
    fn histogram_buckets_are_exact_then_logarithmic() {
        use obs::{log_bucket, log_bucket_floor};
        for v in 0..8u64 {
            assert_eq!(log_bucket_floor(log_bucket(v)), v, "small values are exact");
        }
        for v in [8u64, 100, 1_000, 65_535, 1 << 40] {
            let floor = log_bucket_floor(log_bucket(v));
            assert!(floor <= v, "floor {floor} must not exceed {v}");
            assert!(v - floor <= v / 8, "bucket of {v} is wider than 12.5% ({floor})");
        }
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 200, 100_000] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), log_bucket_floor(log_bucket(100_000)));
        assert_eq!(LogHistogram::new().percentile(0.99), 0);
    }

    #[test]
    fn histogram_merge_equals_scaled_add() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [5u64, 50, 500] {
            a.record(v);
            b.record(v * 3);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut tripled = LogHistogram::new();
        tripled.add_scaled(&merged, 3);
        assert_eq!(tripled.total(), 3 * merged.total());
        assert_eq!(tripled.percentile(0.5), merged.percentile(0.5), "scaling preserves quantiles");
    }

    /// A deliberately tiny serving plan that stays fast in debug builds:
    /// one short workload, a slow clock (few arrivals per day), two days.
    fn mini_plan() -> ServePlan {
        ServePlan::new(7, Fabric::be())
            .policy(PolicySpec::Baseline)
            .suite(SuiteSpec::subset("crc", vec![1]))
            .traffic(TrafficSpec::Steady { per_hour: 40 })
            .devices(3)
            .lanes(1)
            .clock_hz(1_000)
            .horizon_days(2)
            .pattern_days(1)
    }

    #[test]
    fn serving_conserves_requests_and_weights_lanes() {
        let report = run_serving(&mini_plan(), 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.traffic, "steady@rph-40");
        assert_eq!(cell.policy, "baseline");
        assert_eq!(cell.served_cgra + cell.served_gpp + cell.shed, cell.total_requests);
        assert!(cell.total_requests > 0, "two days of traffic must produce requests");
        // 3 devices share 1 lane: totals are 3× the class trajectory.
        assert_eq!(cell.total_requests % 3, 0);
        assert_eq!(cell.stats.devices as u64, 3 * (cell.replacements / 3 + 1));
        assert!(cell.p50_ms > 0.0);
        assert!(cell.p99_ms >= cell.p95_ms && cell.p95_ms >= cell.p50_ms);
    }

    #[test]
    fn serving_is_invariant_under_jobs_and_shards() {
        let reference = run_serving(&mini_plan(), 1).unwrap();
        let sharded = run_serving(&mini_plan().shard_devices(1), 2).unwrap();
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&sharded).unwrap(),
            "jobs and shard splits must not change a byte"
        );
    }

    #[test]
    fn probe_service_day_reports_queue_depth() {
        let plan = mini_plan();
        let probes = vec!["queue-depth@every-1000000".parse::<ProbeSpec>().unwrap()];
        let (day, reports) = probe_service_day(
            &plan,
            &PolicySpec::Baseline,
            &TrafficSpec::Steady { per_hour: 40 },
            0,
            0,
            &probes,
        )
        .unwrap();
        assert_eq!(day.requests, day.served_cgra + day.served_gpp + day.shed);
        assert_eq!(reports.len(), 1);
        match &reports[0] {
            ProbeReport::QueueDepth(series) => {
                assert!(!series.samples.is_empty(), "the day must sample the queue");
            }
            other => panic!("expected a queue-depth report, got {other:?}"),
        }
    }

    #[test]
    fn refurbished_replacements_predate_wear() {
        let plan = mini_plan().replacement(ReplacementSpec {
            policy: ReplacementPolicy::Refurbished { age_pct: 50 },
            unit_cost_cents: 4_000,
        });
        let (life, pre_age) = replacement_device(&plan);
        assert!(pre_age > 0.0);
        assert!(!life.is_dead());
        assert!(life.elapsed_years() > 0.0);
    }

    #[test]
    fn serve_fingerprint_tracks_every_plan_knob() {
        let plan = mini_plan();
        let fingerprint = |plan: &ServePlan| campaign::fingerprint(plan);
        assert_eq!(fingerprint(&plan), fingerprint(&plan.clone()));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().devices(4)));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().clock_hz(999)));
        assert_ne!(fingerprint(&plan), fingerprint(&plan.clone().traffic(TrafficSpec::heavy())));
    }
}
