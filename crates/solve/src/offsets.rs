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
/// caller that re-solves on every allocation (the exact oracle) keeps one
/// and reuses its buffers instead of building a new one per solve.
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
    /// Every choice's merged deltas, back to back; choice `k` owns
    /// `deltas[starts[k]..starts[k + 1]]`.
    deltas: Vec<(u32, u64)>,
    starts: Vec<usize>,
    /// Refill scratch: the footprint reduced into the fabric with each
    /// cell's stress weight, and the per-column occupancy behind it.
    cells: Vec<(u32, u32, u64)>,
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
        self.starts.clear();
        self.starts.push(0);
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
        self.cells.clear();
        self.cells.extend(footprint.iter().map(|&(r, c)| {
            let (r, c) = (r % rows, c % cols);
            let stress = match fabric.col_bandwidth {
                0 => 1,
                bw => self.occupancy[c as usize].div_ceil(bw as u64),
            };
            (r, c, stress)
        }));

        for row in 0..rows {
            for col in 0..cols {
                let o = Offset::new(row, col);
                if !legal(o) {
                    continue;
                }
                let start = self.deltas.len();
                self.deltas.extend(self.cells.iter().map(|&(r, c, stress)| {
                    // Both coordinates are already reduced, so one
                    // subtraction wraps them.
                    let pr = if r + row >= rows { r + row - rows } else { r + row };
                    let pc = if c + col >= cols { c + col - cols } else { c + col };
                    (pr * cols + pc, stress)
                }));
                // Merge repeated cells (overlapping ops) so each resource
                // appears once; the summed delta matches the tracker's
                // per-occurrence accrual.
                let choice = &mut self.deltas[start..];
                choice.sort_unstable();
                let mut kept = 0;
                for i in 0..choice.len() {
                    if kept > 0 && choice[kept - 1].0 == choice[i].0 {
                        choice[kept - 1].1 += choice[i].1;
                    } else {
                        choice[kept] = choice[i];
                        kept += 1;
                    }
                }
                self.deltas.truncate(start + kept);
                self.offsets.push(o);
                self.starts.push(self.deltas.len());
            }
        }
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

    /// The stress pivot `choice` adds, as `(fu, delta)` pairs sorted by FU,
    /// one pair per FU.
    pub fn deltas(&self, choice: usize) -> &[(u32, u64)] {
        &self.deltas[self.starts[choice]..self.starts[choice + 1]]
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
        // The last column pivot wraps the footprint's second row cell.
        let wrap = OffsetProblem::new(&fabric, &[(0, 0), (0, 1)], &initial, 1, |_| true);
        let last = wrap.choices() - 1; // pivot (1, 3): cells (1,3) and (1,0)
        assert_eq!(wrap.deltas(last), &[(4, 1), (7, 1)]);
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
