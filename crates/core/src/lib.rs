//! # uaware — utilization-aware configuration allocation for CGRAs
//!
//! The primary contribution of *"Proactive Aging Mitigation in CGRAs through
//! Utilization-Aware Allocation"* (Brandalero et al., DAC 2020) as a
//! library. Traditional greedy mappers anchor every configuration at the
//! fabric's top-left corner, so those FUs accumulate NBTI stress and define
//! the system's end of life. This crate moves each new execution's
//! *pivot* along a fabric-covering pattern (with wrap-around), flattening
//! per-FU utilization towards the mean and stretching lifetime by the ratio
//! of worst-case utilizations.
//!
//! * [`pattern`] — the movement patterns of paper Fig. 3b, each a
//!   [`PatternSpec`] value: `Snake` (default), `Raster` and `ColumnMajor`.
//! * [`policy`] — allocation policies: [`BaselinePolicy`],
//!   [`RotationPolicy`] (the contribution), [`RandomPolicy`] and the
//!   future-work [`HealthAwarePolicy`].
//! * [`exact`] — the exact-mapping oracle [`ExactPolicy`]: per
//!   allocation, the leximin argmin (the [`solve`] crate) of the
//!   wear-optimal placement, the yardstick of every heuristic's
//!   optimality gap (DESIGN.md §15).
//! * [`spec`] — policies as data: [`PolicySpec`]/[`PatternSpec`] are the
//!   serializable, parseable sweep points experiment harnesses iterate
//!   (`"rotation:snake@per-load".parse()`, [`PolicySpec::all_specs`]).
//! * [`stats`] — per-FU utilization tracking and distribution statistics
//!   ([`UtilizationTracker`], [`UtilizationGrid`], [`Histogram`]).
//! * [`lifetime`] — NBTI lifetime evaluation of utilization maps.
//! * [`seed`] — deterministic per-cell seed derivation for parallel sweeps
//!   ([`derive_cell_seed`]).
//!
//! # Examples
//!
//! Rotate a two-cell configuration around a BE-sized fabric and watch the
//! utilization flatten:
//!
//! ```
//! use cgra::Fabric;
//! use uaware::{
//!     AllocationPolicy, AllocRequest, BaselinePolicy, LegalPivots, PatternSpec, RotationPolicy,
//!     UtilizationTracker,
//! };
//!
//! let fabric = Fabric::be();
//! let footprint = [(0, 0), (0, 1)];
//! let legal = LegalPivots::new(&fabric, &footprint, &[], None); // pristine: every pivot
//!
//! let run = |policy: &mut dyn AllocationPolicy| {
//!     let mut tracker = UtilizationTracker::new(&fabric);
//!     for _ in 0..3200 {
//!         let req = AllocRequest {
//!             fabric: &fabric,
//!             config_switch: false,
//!             footprint: &footprint,
//!             tracker: &tracker,
//!             legal: &legal,
//!         };
//!         let off = policy.next_offset(&req).expect("pristine fabric always allocates");
//!         let cells: Vec<_> =
//!             footprint.iter().map(|&(r, c)| off.apply(&fabric, r, c)).collect();
//!         tracker.record_execution(&cells, 2);
//!     }
//!     tracker.utilization()
//! };
//!
//! let baseline = run(&mut BaselinePolicy);
//! let rotated = run(&mut RotationPolicy::new(PatternSpec::Snake));
//! assert_eq!(baseline.max(), 1.0);            // corner FUs always active
//! assert!(rotated.max() < 0.10);              // stress spread over 32 FUs
//! ```

#![warn(missing_docs)]

pub mod exact;
pub mod lifetime;
pub mod pattern;
pub mod policy;
pub mod seed;
pub mod spec;
pub mod stats;

pub use exact::ExactPolicy;
pub use lifetime::{evaluate_aging, lifetime_improvement, AgingEvaluation};
pub use policy::{
    AllocRequest, AllocationPolicy, BaselinePolicy, HealthAwarePolicy, LegalPivots,
    MovementGranularity, PolicyCounts, RandomPolicy, RotationPolicy,
};
pub use seed::derive_cell_seed;
pub use spec::{ParseSpecError, PatternSpec, PolicySpec, DEFAULT_RANDOM_SEED};
pub use stats::{Histogram, UtilizationGrid, UtilizationTracker};
