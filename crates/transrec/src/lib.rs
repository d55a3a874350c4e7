//! # transrec — the full TransRec system simulator
//!
//! Ties every substrate of the `uaware-cgra` workspace together into the
//! machine the paper evaluates on (its Fig. 2): an RV32IM GPP, the hardware
//! DBT with its PC-indexed configuration cache, the CGRA reconfigurable
//! unit with (or without) the aging-mitigation movement extensions, an
//! allocation policy, per-FU utilization tracking, and the system-level
//! timing and energy models used for the design-space exploration.
//!
//! * [`system`] — the execution loop as observable, resumable sessions
//!   ([`System`], [`Session`], [`SystemConfig`], [`SystemStats`],
//!   [`run_gpp_only`]).
//! * [`telemetry`] — the typed event stream ([`telemetry::SimEvent`]),
//!   observers ([`telemetry::Observer`]) and probes-as-data
//!   ([`telemetry::ProbeSpec`], e.g. `util-trace@every-50000`).
//! * [`energy`] — the component energy model behind Fig. 6.
//! * [`dse`] — suite runs and the L×W design-space sweep.
//! * [`sweep`] — the parallel sweep engine ([`SweepPlan`], [`run_sweep`]):
//!   configuration × policy × suite grids sharded across a thread pool
//!   with byte-identical, worker-count-independent results.
//! * [`fleet`] — the closed-loop lifetime engine's driver
//!   ([`FleetPlan`], [`run_fleet`]): multi-year mission sequences with
//!   wear accumulation, end-of-life fault injection and failure-aware
//!   reallocation, fanned out over N-device fleets (DESIGN.md §11).
//! * [`traffic`] — live serving on top of the lifetime engine
//!   ([`ServePlan`], [`run_serving`]): seeded arrival processes (steady /
//!   diurnal / heavy-tailed), per-device request queues with
//!   utilization-aware backpressure, and replacement economics
//!   (DESIGN.md §13).
//! * [`campaign`] — the one two-phase campaign engine both drive:
//!   trajectories, sharded waves, kill-safe checkpoints
//!   ([`campaign::CampaignOptions`], [`campaign::Status`]) (DESIGN.md §12).
//! * [`tape`] — offload tapes: a workload's offload stream recorded by one
//!   session and replayed under every other policy and fault mask
//!   ([`tape::TapeStore`], DESIGN.md §17).
//! * [`scenario`] — the paper's BE/BP/BU design points.
//!
//! # Examples
//!
//! Accelerate one benchmark and compare allocation policies — specs in,
//! validated systems out:
//!
//! ```
//! use cgra::Fabric;
//! use transrec::{System, SystemConfig};
//! use uaware::PolicySpec;
//!
//! let workload = &mibench::suite(7)[0]; // bitcount
//! let config = SystemConfig::new(Fabric::be());
//! let mut baseline = System::with_spec(config.clone(), PolicySpec::Baseline).unwrap();
//! baseline.run(workload.program()).unwrap();
//! workload.verify(baseline.cpu()).unwrap();
//!
//! let mut rotated = System::with_spec(config, PolicySpec::rotation()).unwrap();
//! rotated.run(workload.program()).unwrap();
//! workload.verify(rotated.cpu()).unwrap();
//!
//! // Same architectural results, flatter stress distribution.
//! let base_util = baseline.tracker().utilization();
//! let rot_util = rotated.tracker().utilization();
//! assert!(rot_util.max() < base_util.max());
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod dse;
pub mod energy;
pub mod fleet;
pub mod scenario;
pub mod sweep;
pub mod system;
pub mod tape;
pub mod telemetry;
pub mod traffic;

pub use dse::{
    dse_grid, gpp_reference, run_suite, run_suite_with_options, BenchmarkRun, SuiteOptions,
    SuiteRun,
};
pub use energy::{gpp_only_energy, system_energy, EnergyBreakdown, EnergyParams};
pub use fleet::{
    run_fleet, run_fleet_campaign, CampaignOptions, CampaignStatus, Defect, DeviceOutcome,
    FleetPlan, FleetReport, PolicyFleet,
};
pub use scenario::{Scenario, ALL as SCENARIOS, BE, BP, BU};
pub use sweep::{run_sweep, run_sweep_observed, SuiteSpec, SweepCell, SweepPlan};
pub use system::{
    run_gpp_only, BuildError, Session, SessionStatus, System, SystemConfig, SystemError,
    SystemStats,
};
pub use telemetry::{Observer, ProbeReport, ProbeSpec, SimEvent};
pub use traffic::{
    probe_service_day, run_serving, run_serving_campaign, BackpressureSpec, DayServeReport,
    ReplacementPolicy, ReplacementSpec, ServeCell, ServePlan, ServeReport, ServeStatus,
    TrafficSpec,
};
