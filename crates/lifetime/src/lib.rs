//! # lifetime — the closed-loop lifetime engine (DESIGN.md §11)
//!
//! The paper's payoff metric is *lifetime*, but a one-shot analytic
//! projection ([`uaware::evaluate_aging`]) assumes the stress distribution
//! of a pristine fabric holds forever. This crate models what actually
//! happens over a deployment: per-FU wear accumulates mission by mission
//! ([`WearGrid`], built on [`nbti::WearState`]'s equivalent-age
//! composition), FUs that cross the end-of-life delay limit emit typed
//! [`FuFailed`] events, failures feed back into allocation through a
//! [`cgra::FaultMask`], and the device dies when no legal placement
//! remains. Fleet-level statistics ([`SurvivalCurve`], [`FleetStats`])
//! turn many such device histories into survival curves, MTTF and
//! first-failure histograms.
//!
//! The crate is deliberately simulator-agnostic: a *mission* arrives here
//! as the per-FU duty-cycle grid it exerted
//! ([`uaware::UtilizationTracker::duty_cycles`]) plus the deployment time
//! it models. The `transrec::fleet` module drives [`DeviceLifetime`] with
//! duty grids produced by full-system runs (re-run only when the fault
//! mask changes); anything else that can produce a [`uaware::UtilizationGrid`]
//! can drive it too.
//!
//! # Examples
//!
//! A device whose workload hammers one FU: the hot cell fails at exactly
//! the analytic lifetime, the fault feeds back into the mask, and the
//! device retires when its only placement is gone.
//!
//! ```
//! use cgra::Fabric;
//! use lifetime::DeviceLifetime;
//! use nbti::CalibratedAging;
//! use uaware::UtilizationGrid;
//!
//! let fabric = Fabric::new(1, 4);
//! let aging = CalibratedAging::default(); // EOL after 3 years at u = 1
//! let mut device = DeviceLifetime::new(&fabric, aging, true);
//! let duty = UtilizationGrid::from_values(1, 4, vec![0.9, 0.3, 0.1, 0.0]);
//!
//! let mut failures = Vec::new();
//! for _ in 0..8 {
//!     failures.extend(device.advance_mission(&duty, 0.5));
//! }
//! // The 90%-duty FU dies at 3/0.9 ≈ 3.33 years, inside mission 7.
//! assert_eq!(failures.len(), 1);
//! assert_eq!((failures[0].row, failures[0].col), (0, 0));
//! assert!((failures[0].at_years - 3.0 / 0.9).abs() < 1e-9);
//! assert!(device.fault_mask().is_dead(0, 0));
//! assert!(!device.is_dead(), "other FUs still allocate");
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod device;
pub mod survival;
pub mod wear;

pub use batch::WearBatch;
pub use device::{DeviceLifetime, FuFailed};
pub use survival::{FleetAccum, FleetStats, SurvivalCurve};
pub use wear::WearGrid;
