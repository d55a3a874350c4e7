//! The pivot-epoch problem the branch-and-bound core solves (DESIGN.md §15).
//!
//! Slots are the next `slots` configuration executions of one footprint;
//! choices are the *legal* pivot offsets (legality — fault mask plus
//! capability demands — is injected as a predicate so the caller reuses the
//! shared `placement_ok`); resources are the fabric's FUs, loaded with
//! their live stress counters. A choice's deltas replicate
//! `UtilizationTracker::record_execution`'s bandwidth-aware stress rule
//! exactly, so the solved objective *is* the post-epoch worst-FU stress.

use cgra::{Fabric, Offset};

/// The wear-optimal pivot-selection problem for one footprint on one
/// fabric: minimize the maximum post-epoch per-FU stress count over all
/// assignments of the next `slots` executions to legal offsets.
///
/// A problem can be [`refill`](OffsetProblem::refill)ed in place, so a
/// caller that re-solves on every allocation (the exact oracle) keeps a few
/// and reuses their buffers instead of building a new one per solve; when
/// only the live stress has changed since, [`reload`](OffsetProblem::reload)
/// swaps in the new counters and keeps the pivots and deltas.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use solve::{solve, OffsetProblem};
///
/// let fabric = Fabric::be();
/// let initial = vec![0u64; fabric.fu_count() as usize];
/// let p = OffsetProblem::new(&fabric, &[(0, 0), (0, 1)], &initial, 1, |_| true);
/// let s = solve(&p).unwrap();
/// assert_eq!(s.objective, 1); // one execution, one stress on a cold FU
/// ```
#[derive(Clone, Debug, Default)]
pub struct OffsetProblem {
    slots: usize,
    initial: Vec<u64>,
    offsets: Vec<Offset>,
    /// Every choice's deltas, back to back, one pair per distinct cell of
    /// `cells`: choice `k` owns the `k`-th run of `cells.len()` pairs.
    deltas: Vec<(u32, u64)>,
    /// The footprint reduced into the fabric, repeated cells merged, with
    /// each cell's stress weight; its length is every choice's delta count.
    cells: Vec<(u32, u32, u64)>,
    /// The summed stress weights of `cells`: the stress every pivot adds.
    mass: u64,
    /// Refill scratch: the per-column occupancy behind the stress weights.
    occupancy: Vec<u64>,
}

impl OffsetProblem {
    /// Builds the problem: an empty problem [`refill`](Self::refill)ed
    /// with these arguments.
    ///
    /// # Panics
    ///
    /// Panics if `initial_loads` does not match the fabric's FU count.
    pub fn new(
        fabric: &Fabric,
        footprint: &[(u32, u32)],
        initial_loads: &[u64],
        slots: usize,
        legal: impl FnMut(Offset) -> bool,
    ) -> OffsetProblem {
        let mut problem = OffsetProblem::default();
        problem.refill(fabric, footprint, initial_loads, slots, legal);
        problem
    }

    /// Replaces the problem in place, reusing its buffers: enumerate pivots
    /// in row-major order, keep those `legal` accepts (pass the request's
    /// `placement_ok`), and precompute each survivor's per-FU stress deltas
    /// — `ceil(occupancy / bandwidth)` per covered cell on budgeted
    /// fabrics, 1 otherwise, matching the tracker's accounting
    /// (DESIGN.md §14).
    ///
    /// `initial_loads` are the live row-major stress counters
    /// (`UtilizationTracker::stress_counts`); `slots` is the epoch length
    /// being planned.
    ///
    /// # Panics
    ///
    /// Panics if `initial_loads` does not match the fabric's FU count.
    pub fn refill(
        &mut self,
        fabric: &Fabric,
        footprint: &[(u32, u32)],
        initial_loads: &[u64],
        slots: usize,
        mut legal: impl FnMut(Offset) -> bool,
    ) {
        assert_eq!(
            initial_loads.len(),
            fabric.fu_count() as usize,
            "initial loads must be row-major per-FU counters"
        );
        let (rows, cols) = (fabric.rows, fabric.cols);
        self.slots = slots;
        self.initial.clear();
        self.initial.extend_from_slice(initial_loads);
        self.offsets.clear();
        self.deltas.clear();
        self.cells.clear();
        self.mass = 0;
        if rows == 0 || cols == 0 {
            return; // no pivot at all
        }

        // A pivot shifts every cell by the same amount, so two cells share
        // a physical column exactly when they share one modulo `cols`: the
        // column occupancy, and with it each cell's stress, is the same at
        // every pivot.
        self.occupancy.clear();
        self.occupancy.resize(cols as usize, 0);
        for &(_, c) in footprint {
            self.occupancy[(c % cols) as usize] += 1;
        }
        self.cells.extend(footprint.iter().map(|&(r, c)| {
            let (r, c) = (r % rows, c % cols);
            let stress = match fabric.col_bandwidth {
                0 => 1,
                bw => self.occupancy[c as usize].div_ceil(bw as u64),
            };
            (r, c, stress)
        }));
        // Merge repeated cells (overlapping ops) so each FU appears once
        // per pivot; the summed delta matches the tracker's per-occurrence
        // accrual. A pivot maps cells to FUs one to one, so cells merged
        // once stay distinct under every pivot.
        self.cells.sort_unstable();
        self.cells.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 += later.2;
            }
            same
        });
        self.mass = self.cells.iter().map(|&(.., stress)| stress).sum();

        for row in 0..rows {
            for col in 0..cols {
                let o = Offset::new(row, col);
                if !legal(o) {
                    continue;
                }
                self.deltas.extend(self.cells.iter().map(|&(r, c, stress)| {
                    // Both coordinates are already reduced, so one
                    // subtraction wraps them.
                    let pr = if r + row >= rows { r + row - rows } else { r + row };
                    let pc = if c + col >= cols { c + col - cols } else { c + col };
                    (pr * cols + pc, stress)
                }));
                self.offsets.push(o);
            }
        }
    }

    /// Replaces only the live stress counters, keeping the pivots and their
    /// deltas: what a [`refill`](Self::refill) with the same fabric
    /// geometry and bandwidth, footprint, legality and slots would rebuild,
    /// for the cost of one copy.
    ///
    /// # Panics
    ///
    /// Panics if `initial_loads` does not match the problem's FU count.
    pub fn reload(&mut self, initial_loads: &[u64]) {
        self.initial.copy_from_slice(initial_loads);
    }

    /// Maps a solver choice index back to its pivot offset.
    pub fn offset(&self, choice: usize) -> Offset {
        self.offsets[choice]
    }

    /// Number of executions planned jointly (the epoch length).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of legal pivots; every slot may take any of them. With none,
    /// solving a non-empty epoch reports infeasibility (the policy's
    /// `None`).
    pub fn choices(&self) -> usize {
        self.offsets.len()
    }

    /// The live row-major per-FU stress counters the epoch starts from.
    pub fn initial_loads(&self) -> &[u64] {
        &self.initial
    }

    /// The stress mass one execution adds, whichever pivot it takes: the
    /// sum of every choice's deltas. A pivot shifts every cell alike, so
    /// the column occupancy behind each cell's weight, and with it the
    /// sum, is the same at every pivot.
    pub fn mass(&self) -> u64 {
        self.mass
    }

    /// The stress pivot `choice` adds, as `(fu, delta)` pairs: one pair per
    /// FU, every delta at least 1, in the same footprint-cell order for
    /// every choice.
    pub fn deltas(&self, choice: usize) -> &[(u32, u64)] {
        let m = self.cells.len();
        &self.deltas[choice * m..(choice + 1) * m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::solve;

    #[test]
    fn enumerates_legal_offsets_row_major() {
        let fabric = Fabric::new(2, 4);
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| true);
        assert_eq!(p.choices(), 8);
        assert_eq!(p.offset(0), Offset::new(0, 0));
        assert_eq!(p.offset(7), Offset::new(1, 3));
        let filtered = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |o| o.row == 1);
        assert_eq!(filtered.choices(), 4);
        assert_eq!(filtered.offset(0), Offset::new(1, 0));
        let none = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| false);
        assert_eq!(none.choices(), 0);
        assert!(solve(&none).is_none());
    }

    #[test]
    fn deltas_wrap_and_weight_by_bandwidth() {
        // Two cells in one column on a bandwidth-1 fabric serialize:
        // stress 2 per cell, exactly the tracker's rule.
        let mut fabric = Fabric::new(2, 4);
        fabric.col_bandwidth = 1;
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0), (1, 0)], &initial, 1, |_| true);
        assert_eq!(p.deltas(0), &[(0, 2), (4, 2)]);
        // The last pivot wraps the footprint's second cell into column 0.
        let wrap = OffsetProblem::new(&fabric, &[(0, 0), (0, 1)], &initial, 1, |_| true);
        let last = wrap.choices() - 1; // pivot (1, 3): cells (1,3) and (1,0)
        assert_eq!(wrap.deltas(last), &[(7, 1), (4, 1)]);
    }

    #[test]
    fn every_choice_adds_the_mass() {
        // Repeated cells, a footprint wider than the fabric (wrapping onto
        // columns it already occupies) and every bandwidth.
        let footprint = [(0, 0), (1, 0), (0, 1), (0, 1), (2, 5), (1, 4), (3, 0)];
        for bw in 0..=3 {
            let mut fabric = Fabric::new(3, 4);
            fabric.col_bandwidth = bw;
            let p = OffsetProblem::new(&fabric, &footprint, &[0; 12], 1, |o| o.col != 2);
            assert_eq!(p.choices(), 9);
            if bw == 0 {
                assert_eq!(p.mass(), footprint.len() as u64, "one stress per occurrence");
            }
            for c in 0..p.choices() {
                let sum: u64 = p.deltas(c).iter().map(|&(_, d)| d).sum();
                assert_eq!(sum, p.mass(), "bandwidth {bw}, pivot {:?}", p.offset(c));
            }
        }
    }

    #[test]
    fn reload_matches_a_refill_with_the_new_loads() {
        let mut fabric = Fabric::new(2, 4);
        fabric.col_bandwidth = 1;
        let footprint = [(0, 0), (1, 0), (0, 1)];
        let legal = |o: Offset| o != Offset::new(0, 2);
        let mut p = OffsetProblem::new(&fabric, &footprint, &[0; 8], 1, legal);
        let hot = [4, 0, 1, 3, 0, 2, 2, 0];
        p.reload(&hot);
        let fresh = OffsetProblem::new(&fabric, &footprint, &hot, 1, legal);
        assert_eq!(p.initial_loads(), fresh.initial_loads());
        assert_eq!(p.choices(), fresh.choices());
        for c in 0..p.choices() {
            assert_eq!((p.offset(c), p.deltas(c)), (fresh.offset(c), fresh.deltas(c)));
        }
        assert_eq!(solve(&p), solve(&fresh));
    }

    #[test]
    fn one_slot_dodges_the_hot_corner() {
        let fabric = Fabric::new(2, 4);
        let mut initial = vec![0u64; 8];
        initial[0] = 10; // (0,0) is hot
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 1, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 10, "the hot FU still dominates");
        assert_ne!(p.offset(s.choices[0]), Offset::ORIGIN, "but the pivot moved off it");
    }

    #[test]
    fn joint_epoch_plan_spreads_stress() {
        // Eight single-cell executions on a 2x4 fabric: the optimum covers
        // every FU exactly once.
        let fabric = Fabric::new(2, 4);
        let initial = vec![0u64; 8];
        let p = OffsetProblem::new(&fabric, &[(0, 0)], &initial, 8, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 1);
    }
}
