//! Columnar wear state: one contiguous slab for many devices
//! (DESIGN.md §12).
//!
//! [`crate::DeviceLifetime`] is the reference path: one device, one
//! [`crate::WearGrid`] object graph, typed failure events. [`WearBatch`]
//! is its differential twin: a struct-of-arrays batch whose per-FU
//! effective ages live in **one contiguous `f64` slab** (`lanes ×
//! fu_count`, lane-major), advanced by a tight `age += dt·u` loop per lane
//! — the closed form of [`nbti::WearState::advance`]'s equivalent-age
//! transform. It is the wear kernel the benches time (`benches/wear.rs`
//! and the benchmark's wear probe), not the fleet engine's path: a fleet
//! reads every equivalence class's outcome straight off the
//! [`crate::DeviceLifetime`] its phase 1 advanced.
//!
//! The hard contract, pinned by the differential property tests
//! (`crates/lifetime/tests/batch_differential.rs`): a lane advanced through
//! any mission sequence is **bit-identical** — ages, elapsed time, failure
//! events and their interpolated crossing times — to a
//! [`crate::DeviceLifetime`] advanced through the same sequence. The batch
//! performs the same floating-point operations in the same order; it never
//! re-derives them through a different formula.

use cgra::Fabric;
use nbti::{CalibratedAging, WearState};
use serde::{Deserialize, Serialize};
use uaware::UtilizationGrid;

use crate::device::FuFailed;

/// Struct-of-arrays wear state of many devices ("lanes") on one fabric
/// geometry (DESIGN.md §12).
///
/// Each lane mirrors one [`crate::DeviceLifetime`]'s wear, elapsed-time
/// and mission counters; the per-FU effective ages of all lanes share one
/// contiguous slab, so many devices advance with streaming memory access
/// instead of pointer-chasing N object graphs.
///
/// # Examples
///
/// A two-lane batch advanced like two devices:
///
/// ```
/// use cgra::Fabric;
/// use lifetime::WearBatch;
/// use nbti::CalibratedAging;
/// use uaware::UtilizationGrid;
///
/// let fabric = Fabric::new(1, 4);
/// let mut batch = WearBatch::new(&fabric, CalibratedAging::default(), 2);
/// let duty = UtilizationGrid::from_values(1, 4, vec![1.0, 0.5, 0.0, 0.0]);
/// for _ in 0..4 {
///     batch.advance(0, &duty, 1.0); // lane 0 runs, lane 1 stays idle
/// }
/// // The fully stressed FU of lane 0 crossed its 3-year end of life …
/// assert!(batch.state(0, 0, 0).is_end_of_life());
/// assert_eq!(batch.elapsed_years(0), 4.0);
/// // … while lane 1 never advanced.
/// assert_eq!(batch.elapsed_years(1), 0.0);
/// assert_eq!(batch.missions(1), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WearBatch {
    rows: u32,
    cols: u32,
    aging: CalibratedAging,
    /// Per-FU effective ages, lane-major: lane `l` owns
    /// `ages[l*fus .. (l+1)*fus]` (row-major inside the lane).
    ages: Vec<f64>,
    /// Deployment years simulated so far, per lane.
    elapsed: Vec<f64>,
    /// Missions completed so far, per lane.
    missions: Vec<u64>,
}

impl WearBatch {
    /// A pristine batch of `lanes` devices on `fabric`'s geometry, aging
    /// under `aging`.
    pub fn new(fabric: &Fabric, aging: CalibratedAging, lanes: usize) -> WearBatch {
        WearBatch {
            rows: fabric.rows,
            cols: fabric.cols,
            aging,
            ages: vec![0.0; lanes * fabric.fu_count() as usize],
            elapsed: vec![0.0; lanes],
            missions: vec![0; lanes],
        }
    }

    /// Number of device lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.elapsed.len()
    }

    /// FUs per lane (the fabric's `rows × cols`).
    pub fn fus(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// Fabric rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Fabric columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The aging calibration every lane accumulates under.
    pub fn aging(&self) -> &CalibratedAging {
        &self.aging
    }

    /// Lane `lane`'s slice of the effective-age slab, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_ages(&self, lane: usize) -> &[f64] {
        let fus = self.fus();
        &self.ages[lane * fus..(lane + 1) * fus]
    }

    /// The wear of lane `lane`'s FU at `(row, col)`, as a typed state.
    ///
    /// # Panics
    ///
    /// Panics if the lane or cell is out of range.
    pub fn state(&self, lane: usize, row: u32, col: u32) -> WearState {
        assert!(row < self.rows && col < self.cols, "cell ({row},{col}) outside grid");
        WearState::from_effective_age(
            self.aging,
            self.lane_ages(lane)[(row * self.cols + col) as usize],
        )
    }

    /// Deployment years lane `lane` has simulated so far.
    pub fn elapsed_years(&self, lane: usize) -> f64 {
        self.elapsed[lane]
    }

    /// Missions lane `lane` has completed so far.
    pub fn missions(&self, lane: usize) -> u64 {
        self.missions[lane]
    }

    /// Folds one mission into lane `lane`: bit-identical twin of
    /// [`crate::DeviceLifetime::advance_mission`] (same scan order, same
    /// arithmetic, same chronological sort of the reported crossings) minus
    /// the fault-mask bookkeeping, which belongs to the caller.
    ///
    /// # Panics
    ///
    /// Panics on a geometry mismatch, a negative mission length, or an
    /// out-of-range lane.
    pub fn advance(&mut self, lane: usize, duty: &UtilizationGrid, years: f64) -> Vec<FuFailed> {
        let failures = self.scan_failures(lane, duty, years);
        self.advance_ages(lane, duty, years);
        failures
    }

    /// Folds one mission into every lane of `members` at once — the
    /// columnar fast path for an equivalence class of wear-identical
    /// devices (DESIGN.md §12). The end-of-life crossings are computed once
    /// on `members[0]` and shared; the per-lane age update is the tight
    /// contiguous loop. With an empty `members` this is a no-op.
    ///
    /// Every member lane must be in the same wear state (same ages, same
    /// elapsed time, same mission count) — the caller's class invariant,
    /// checked in debug builds.
    ///
    /// # Panics
    ///
    /// Panics like [`WearBatch::advance`]; additionally (debug builds only)
    /// if the member lanes have diverged.
    pub fn advance_class(
        &mut self,
        members: &[usize],
        duty: &UtilizationGrid,
        years: f64,
    ) -> Vec<FuFailed> {
        let Some(&first) = members.first() else {
            return Vec::new();
        };
        debug_assert!(
            members.iter().all(|&m| {
                self.lane_ages(m) == self.lane_ages(first)
                    && self.elapsed[m].to_bits() == self.elapsed[first].to_bits()
                    && self.missions[m] == self.missions[first]
            }),
            "advance_class members must be wear-identical"
        );
        let failures = self.scan_failures(first, duty, years);
        for &m in members {
            self.advance_ages(m, duty, years);
        }
        failures
    }

    /// The end-of-life crossings mission `missions[lane] + 1` would report,
    /// against the lane's *pre-advance* ages — the exact computation of
    /// [`crate::DeviceLifetime::advance_mission`]'s failure scan.
    fn scan_failures(&self, lane: usize, duty: &UtilizationGrid, years: f64) -> Vec<FuFailed> {
        assert!(years >= 0.0, "negative mission length {years}");
        assert_eq!((self.rows, self.cols), (duty.rows(), duty.cols()), "geometry mismatch");
        let anchor = self.aging.anchor_years;
        let elapsed = self.elapsed[lane];
        let mission = self.missions[lane] + 1;
        let mut new_failures = Vec::new();
        for (i, (&age, &u)) in self.lane_ages(lane).iter().zip(duty.values()).enumerate() {
            if age >= anchor {
                continue; // already failed in an earlier mission
            }
            // WearState::remaining_years, inlined on the raw age: after the
            // end-of-life gate the headroom is strictly positive.
            let headroom = (anchor - age).max(0.0);
            let remaining = if headroom == 0.0 {
                0.0
            } else if u == 0.0 {
                f64::INFINITY
            } else {
                headroom / u
            };
            if remaining <= years {
                new_failures.push(FuFailed {
                    row: i as u32 / self.cols,
                    col: i as u32 % self.cols,
                    at_years: elapsed + remaining,
                    mission,
                });
            }
        }
        // Chronological event order, stable for row-major ties — the same
        // sort DeviceLifetime::advance_mission applies.
        new_failures.sort_by(|a, b| {
            a.at_years.partial_cmp(&b.at_years).expect("crossing times are never NaN")
        });
        new_failures
    }

    /// The tight columnar age update: `age += years·u` per FU — the closed
    /// form [`nbti::WearState::advance`] applies per cell, over one
    /// contiguous slab slice.
    fn advance_ages(&mut self, lane: usize, duty: &UtilizationGrid, years: f64) {
        let fus = self.fus();
        let row = &mut self.ages[lane * fus..(lane + 1) * fus];
        for (age, &u) in row.iter_mut().zip(duty.values()) {
            *age += years * u;
        }
        self.elapsed[lane] += years;
        self.missions[lane] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceLifetime;

    fn duty(values: Vec<f64>) -> UtilizationGrid {
        UtilizationGrid::from_values(1, values.len() as u32, values)
    }

    #[test]
    fn lane_advance_is_bit_identical_to_device_lifetime() {
        let fabric = Fabric::new(1, 4);
        let aging = CalibratedAging::default();
        let mut device = DeviceLifetime::new(&fabric, aging, false);
        let mut batch = WearBatch::new(&fabric, aging, 1);
        let d = duty(vec![1.0, 0.55, 0.3, 0.0]);
        for dt in [0.7, 0.25, 1.5, 0.7, 2.0, 0.1] {
            let reference = device.advance_mission(&d, dt);
            let batched = batch.advance(0, &d, dt);
            assert_eq!(reference, batched);
        }
        assert_eq!(device.elapsed_years().to_bits(), batch.elapsed_years(0).to_bits());
        assert_eq!(device.missions(), batch.missions(0));
        for (i, s) in device.wear().states().iter().enumerate() {
            assert_eq!(s.effective_age().to_bits(), batch.lane_ages(0)[i].to_bits());
        }
    }

    #[test]
    fn class_advance_keeps_members_in_lockstep() {
        let fabric = Fabric::new(2, 4);
        let mut batch = WearBatch::new(&fabric, CalibratedAging::default(), 3);
        let d = UtilizationGrid::from_values(2, 4, vec![0.9, 0.4, 0.1, 0.0, 0.7, 0.2, 0.05, 1.0]);
        let mut solo = WearBatch::new(&fabric, CalibratedAging::default(), 1);
        for _ in 0..6 {
            let shared = batch.advance_class(&[0, 1, 2], &d, 0.8);
            let reference = solo.advance(0, &d, 0.8);
            assert_eq!(shared, reference);
        }
        for lane in 0..3 {
            assert_eq!(batch.lane_ages(lane), solo.lane_ages(0));
            assert_eq!(batch.missions(lane), 6);
            assert_eq!(batch.elapsed_years(lane).to_bits(), solo.elapsed_years(0).to_bits());
        }
    }

    #[test]
    fn empty_class_is_a_no_op() {
        let fabric = Fabric::new(1, 4);
        let mut batch = WearBatch::new(&fabric, CalibratedAging::default(), 2);
        let before = batch.clone();
        let failures = batch.advance_class(&[], &duty(vec![1.0, 1.0, 1.0, 1.0]), 5.0);
        assert!(failures.is_empty());
        assert_eq!(batch, before);
    }

    #[test]
    fn batch_survives_json() {
        let fabric = Fabric::new(1, 4);
        let mut batch = WearBatch::new(&fabric, CalibratedAging::default(), 2);
        batch.advance(1, &duty(vec![0.9, 0.2, 0.0, 0.35]), 1.25);
        let json = serde_json::to_string(&batch).unwrap();
        let back: WearBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.lane_ages(1)[0].to_bits(), batch.lane_ages(1)[0].to_bits());
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn geometry_mismatch_rejected() {
        let mut batch = WearBatch::new(&Fabric::new(2, 4), CalibratedAging::default(), 1);
        batch.advance(0, &duty(vec![0.0; 4]), 1.0);
    }
}
