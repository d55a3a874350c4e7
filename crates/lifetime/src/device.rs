//! One device's closed-loop lifetime state machine (DESIGN.md §11).

use cgra::{Fabric, FaultMask};
use nbti::CalibratedAging;
use serde::{Deserialize, Serialize};
use uaware::UtilizationGrid;

use crate::wear::WearGrid;

/// A functional unit crossed its end-of-life delay degradation — the typed
/// failure event the lifetime engine emits (DESIGN.md §11).
///
/// `at_years` is the *exact* crossing time, interpolated inside the mission
/// whose stress pushed the unit over the limit (at constant duty the time
/// to end of life is closed-form, so no mission-boundary quantization error
/// enters the failure record).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FuFailed {
    /// Fabric row of the failed FU.
    pub row: u32,
    /// Fabric column of the failed FU.
    pub col: u32,
    /// Deployment time of the crossing, in years.
    pub at_years: f64,
    /// The mission (1-based) during which the unit crossed the limit.
    pub mission: u64,
}

/// The per-device closed loop: wear accumulates mission by mission, FUs
/// that cross end of life emit [`FuFailed`] events and (with fault
/// injection enabled) flip dead in the [`FaultMask`] the next mission's
/// allocation must route around; the driver retires the device when no
/// legal allocation remains.
///
/// The engine is driven with per-mission duty grids
/// ([`DeviceLifetime::advance_mission`]); producing those grids — by
/// running a workload suite on a simulator or replaying a recorded trace —
/// is the driver's job (`transrec::fleet`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceLifetime {
    wear: WearGrid,
    mask: FaultMask,
    inject_faults: bool,
    elapsed_years: f64,
    missions: u64,
    death_years: Option<f64>,
    failures: Vec<FuFailed>,
}

impl DeviceLifetime {
    /// A fresh device on `fabric`, aging under `aging`. With
    /// `inject_faults` disabled the wear still accumulates and failures
    /// are still *reported*, but dead FUs stay allocatable — the
    /// open-loop mode the analytic cross-check runs in.
    pub fn new(fabric: &Fabric, aging: CalibratedAging, inject_faults: bool) -> DeviceLifetime {
        DeviceLifetime {
            wear: WearGrid::new(fabric, aging),
            mask: FaultMask::healthy(fabric),
            inject_faults,
            elapsed_years: 0.0,
            missions: 0,
            death_years: None,
            failures: Vec::new(),
        }
    }

    /// The accumulated per-FU wear.
    pub fn wear(&self) -> &WearGrid {
        &self.wear
    }

    /// The health map allocation must respect next mission. Pristine until
    /// the first injected failure.
    pub fn fault_mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Deployment time simulated so far, in years.
    pub fn elapsed_years(&self) -> f64 {
        self.elapsed_years
    }

    /// Missions completed so far.
    pub fn missions(&self) -> u64 {
        self.missions
    }

    /// Every end-of-life crossing so far, in event order.
    pub fn failures(&self) -> &[FuFailed] {
        &self.failures
    }

    /// Deployment time of the first FU failure, if any failed yet.
    pub fn first_failure_years(&self) -> Option<f64> {
        self.failures.first().map(|f| f.at_years)
    }

    /// `true` once the device has been [retired](DeviceLifetime::retire).
    pub fn is_dead(&self) -> bool {
        self.death_years.is_some()
    }

    /// Deployment time of death, once retired.
    pub fn death_years(&self) -> Option<f64> {
        self.death_years
    }

    /// Folds one mission's stress into the wear state: every FU advances
    /// by `years` at its duty from `duty` (equivalent-age composition),
    /// and each unit whose delay degradation crosses the end-of-life limit
    /// *during this mission* is reported as a [`FuFailed`] event with the
    /// exact (interpolated) crossing time. With fault injection enabled
    /// the failed units also flip dead in the fault mask.
    ///
    /// # Panics
    ///
    /// Panics if the device is already retired, on a geometry mismatch, or
    /// on a negative mission length.
    pub fn advance_mission(&mut self, duty: &UtilizationGrid, years: f64) -> Vec<FuFailed> {
        assert!(!self.is_dead(), "cannot advance a retired device");
        assert!(years >= 0.0, "negative mission length {years}");
        assert_eq!(
            (self.wear.rows(), self.wear.cols()),
            (duty.rows(), duty.cols()),
            "geometry mismatch"
        );
        self.missions += 1;
        let mut new_failures = Vec::new();
        for row in 0..self.wear.rows() {
            for col in 0..self.wear.cols() {
                let u = duty.value(row, col);
                let state = self.wear.state(row, col);
                if state.is_end_of_life() {
                    continue; // already failed in an earlier mission
                }
                let remaining = state.remaining_years(u);
                if remaining <= years {
                    new_failures.push(FuFailed {
                        row,
                        col,
                        at_years: self.elapsed_years + remaining,
                        mission: self.missions,
                    });
                }
            }
        }
        // Chronological event order: several FUs can cross inside the same
        // mission, and "first failure" must mean first in *time*, not in
        // row-major scan order (stable sort keeps row-major for ties).
        new_failures.sort_by(|a, b| {
            a.at_years.partial_cmp(&b.at_years).expect("crossing times are never NaN")
        });
        self.wear.advance(duty, years);
        self.elapsed_years += years;
        if self.inject_faults {
            for f in &new_failures {
                self.mask.mark_dead(f.row, f.col);
            }
        }
        self.failures.extend_from_slice(&new_failures);
        new_failures
    }

    /// Marks the FU at `(row, col)` dead before it ever fails from aging —
    /// a manufacturing defect (DESIGN.md §12). Unlike an aging failure this
    /// emits no [`FuFailed`] event and leaves the wear state untouched: the
    /// unit simply never receives work, because allocation routes around
    /// the fault mask from the first mission on. The fleet engine uses
    /// seeded faults to fork equivalence classes of otherwise identical
    /// devices.
    ///
    /// # Panics
    ///
    /// Panics if the cell lies outside the fabric or the device is already
    /// retired.
    pub fn seed_fault(&mut self, row: u32, col: u32) {
        assert!(!self.is_dead(), "cannot seed a fault into a retired device");
        self.mask.mark_dead(row, col);
    }

    /// Retires the device at the current deployment time — called by the
    /// driver when the allocation policy reports that no legal placement
    /// remains (DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Panics if the device was already retired.
    pub fn retire(&mut self) {
        assert!(!self.is_dead(), "device retired twice");
        self.death_years = Some(self.elapsed_years);
    }

    /// The deployment time at which the first FU *would* cross end of life
    /// if every future mission repeated `duty` — the open-loop projection
    /// the analytic cross-check compares against
    /// [`CalibratedAging::lifetime_years`].
    ///
    /// Returns `f64::INFINITY` for an all-idle duty grid.
    pub fn projected_first_failure(&self, duty: &UtilizationGrid) -> f64 {
        assert_eq!(
            (self.wear.rows(), self.wear.cols()),
            (duty.rows(), duty.cols()),
            "geometry mismatch"
        );
        let remaining = self
            .wear
            .states()
            .iter()
            .zip(duty.values())
            .map(|(s, &u)| s.remaining_years(u))
            .fold(f64::INFINITY, f64::min);
        self.elapsed_years + remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duty(values: Vec<f64>) -> UtilizationGrid {
        UtilizationGrid::from_values(1, values.len() as u32, values)
    }

    #[test]
    fn failure_times_are_interpolated_exactly() {
        let fabric = Fabric::new(1, 4);
        let aging = CalibratedAging::default();
        let mut device = DeviceLifetime::new(&fabric, aging, true);
        let d = duty(vec![1.0, 0.5, 0.25, 0.0]);
        let mut all = Vec::new();
        for _ in 0..20 {
            all.extend(device.advance_mission(&d, 0.7));
        }
        // u = 1 dies at 3.0, u = 0.5 at 6.0, u = 0.25 at 12.0, u = 0 never.
        assert_eq!(all.len(), 3);
        assert!((all[0].at_years - 3.0).abs() < 1e-9);
        assert_eq!((all[0].row, all[0].col), (0, 0));
        assert_eq!(all[0].mission, 5, "3.0 years falls in the fifth 0.7-year mission");
        assert!((all[1].at_years - 6.0).abs() < 1e-9);
        assert!((all[2].at_years - 12.0).abs() < 1e-9);
        assert_eq!(device.failures().len(), 3);
        assert_eq!(device.first_failure_years(), Some(all[0].at_years));
        assert!(device.fault_mask().is_dead(0, 0));
        assert!(!device.fault_mask().is_dead(0, 3));
        assert_eq!(device.missions(), 20);
        assert!((device.elapsed_years() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_mode_reports_but_does_not_inject() {
        let fabric = Fabric::new(1, 4);
        let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), false);
        let d = duty(vec![1.0, 0.1, 0.1, 0.1]);
        let failures: Vec<FuFailed> =
            (0..8).flat_map(|_| device.advance_mission(&d, 0.5)).collect();
        assert_eq!(failures.len(), 1, "the hot FU still crosses EOL");
        assert!(device.fault_mask().is_pristine(), "but the mask stays clean");
    }

    #[test]
    fn each_fu_fails_at_most_once() {
        let fabric = Fabric::new(1, 4);
        let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), true);
        let d = duty(vec![1.0, 0.0, 0.0, 0.0]);
        let mut all = Vec::new();
        for _ in 0..10 {
            all.extend(device.advance_mission(&d, 1.0));
        }
        assert_eq!(all.len(), 1, "the crossing is reported exactly once");
    }

    #[test]
    fn projection_matches_the_analytic_lifetime() {
        let fabric = Fabric::new(1, 4);
        let aging = CalibratedAging::default();
        let mut device = DeviceLifetime::new(&fabric, aging, false);
        let d = duty(vec![0.6, 0.3, 0.05, 0.0]);
        // From fresh, the projection is the analytic worst-FU lifetime …
        assert!((device.projected_first_failure(&d) - aging.lifetime_years(0.6)).abs() < 1e-12);
        // … and it is invariant under partial progress at the same duty.
        device.advance_mission(&d, 1.25);
        device.advance_mission(&d, 0.5);
        assert!((device.projected_first_failure(&d) - aging.lifetime_years(0.6)).abs() < 1e-9);
        // An all-idle future never fails.
        assert_eq!(device.projected_first_failure(&duty(vec![0.0; 4])), f64::INFINITY);
    }

    #[test]
    fn seeded_faults_mask_without_failing() {
        let fabric = Fabric::new(1, 4);
        let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), true);
        device.seed_fault(0, 2);
        assert!(device.fault_mask().is_dead(0, 2));
        assert!(device.failures().is_empty(), "a defect is not an aging failure");
        // The defective FU never gets work, so it never emits a crossing.
        let failures = device.advance_mission(&duty(vec![1.0, 0.0, 0.0, 0.0]), 4.0);
        assert_eq!(failures.len(), 1);
        assert_eq!((failures[0].row, failures[0].col), (0, 0));
        assert_eq!(device.wear().state(0, 2).effective_age(), 0.0);
    }

    #[test]
    fn retirement_freezes_the_clock() {
        let fabric = Fabric::new(1, 4);
        let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), true);
        device.advance_mission(&duty(vec![1.0, 1.0, 1.0, 1.0]), 4.0);
        assert!(!device.is_dead());
        device.retire();
        assert!(device.is_dead());
        assert_eq!(device.death_years(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn advancing_a_dead_device_panics() {
        let fabric = Fabric::new(1, 4);
        let mut device = DeviceLifetime::new(&fabric, CalibratedAging::default(), true);
        device.retire();
        device.advance_mission(&duty(vec![0.0; 4]), 1.0);
    }
}
