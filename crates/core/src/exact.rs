//! The exact-mapping oracle policy (DESIGN.md §15).
//!
//! Every heuristic in [`crate::policy`] approximates the same question —
//! where should the next execution land so the fabric wears out as late as
//! possible? [`ExactPolicy`] answers it *optimally for one epoch at a
//! time*: at each epoch boundary it hands the live per-FU stress counters
//! to the vendored branch-and-bound core ([`solve`]) and plays back the
//! proven-optimal pivot sequence for that epoch. `exact` (one execution
//! per epoch) is therefore the per-decision leximin argmin against live
//! wear — a myopic oracle, not a whole-run optimum. It is far too slow for
//! hardware; it is the yardstick `results/gap.json` measures the paper's
//! rotation (and the health-aware scan) against, per fabric size, fault
//! density and layout.

use std::collections::VecDeque;

use cgra::Offset;
use solve::OffsetProblem;
use tracing::{span, Level};

use crate::policy::{AllocRequest, AllocationPolicy, PolicyCounts};

/// The exact-mapping oracle: per allocation epoch, a deterministic
/// branch-and-bound solve of the wear-optimal placement — minimize the
/// maximum post-epoch per-FU stress count over all assignments of the
/// epoch's executions to legal pivots (fault mask and capability demands
/// via the request's [`LegalPivots`](crate::LegalPivots) table, column
/// bandwidth via the tracker's stress rule). The oracle keeps one
/// [`OffsetProblem`] and refills it on every re-solve.
///
/// With `every == 1` the oracle re-solves on every allocation (a greedy
/// optimal step against the live counters); larger epochs plan that many
/// upcoming executions of the requesting footprint *jointly*, which can
/// deliberately unbalance early to win later (DESIGN.md §15). Planned
/// pivots are re-validated against the live request when played back; a
/// request with a different footprint, or a pivot invalidated by a fresh
/// fault (or changed demands), drops the rest of the plan and re-solves.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use uaware::{AllocationPolicy, AllocRequest, ExactPolicy, LegalPivots, UtilizationTracker};
///
/// let fabric = Fabric::be();
/// let mut tracker = UtilizationTracker::new(&fabric);
/// tracker.record_execution(&[(0, 0)], 1); // the corner is warm
/// let mut oracle = ExactPolicy::new(1);
/// let req = AllocRequest {
///     fabric: &fabric,
///     config_switch: false,
///     footprint: &[(0, 0)],
///     tracker: &tracker,
///     legal: &LegalPivots::default(),
/// };
/// let off = oracle.next_offset(&req).unwrap();
/// assert_ne!(off, cgra::Offset::ORIGIN, "the oracle dodges the warm corner");
/// assert_eq!(oracle.name(), "exact");
/// ```
#[derive(Clone, Debug)]
pub struct ExactPolicy {
    every: u32,
    plan: VecDeque<Offset>,
    /// The footprint `plan` was solved for, refilled by each re-solve.
    footprint: Vec<(u32, u32)>,
    /// The problem of the latest re-solve, refilled in place by the next.
    problem: OffsetProblem,
    counts: PolicyCounts,
}

impl ExactPolicy {
    /// Creates the oracle with an epoch of `every` jointly-planned
    /// executions (clamped to at least 1).
    pub fn new(every: u32) -> ExactPolicy {
        ExactPolicy {
            every: every.max(1),
            plan: VecDeque::new(),
            footprint: Vec::new(),
            problem: OffsetProblem::default(),
            counts: PolicyCounts::default(),
        }
    }

    /// The configured epoch length.
    pub fn every(&self) -> u32 {
        self.every
    }
}

impl AllocationPolicy for ExactPolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        if let Some(&planned) = self.plan.front() {
            if self.footprint == req.footprint && req.placement_ok(planned) {
                self.plan.pop_front();
                self.counts.replayed += 1;
                return Some(planned);
            }
            // Another footprint, or a planned pivot became illegal (fresh
            // fault, different demands): the remaining plan was optimized
            // for a world that no longer exists — drop it and re-solve.
            self.plan.clear();
        }
        self.footprint.clear();
        self.footprint.extend_from_slice(req.footprint);
        self.problem.refill(
            req.fabric,
            req.footprint,
            req.tracker.stress_counts(),
            self.every as usize,
            |o| req.placement_ok(o),
        );
        let _solve_span = span!(Level::DEBUG, "solve.bnb").entered();
        let Some(solution) = solve::solve(&self.problem) else {
            self.counts.solve_infeasible += 1;
            return None;
        };
        let (counts, stats) = (&mut self.counts, solution.stats);
        counts.solve_calls += 1;
        counts.solve.expanded += stats.expanded;
        counts.solve.generated += stats.generated;
        counts.solve.pruned_bound += stats.pruned_bound;
        counts.solve.pruned_nogood += stats.pruned_nogood;
        self.plan.extend(solution.choices.iter().map(|&c| self.problem.offset(c)));
        Some(self.plan.pop_front().expect("an epoch plans at least one slot"))
    }

    fn name(&self) -> String {
        if self.every == 1 {
            "exact".to_string()
        } else {
            format!("exact@every-{}", self.every)
        }
    }

    fn counts(&self) -> PolicyCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::op::{MulFunc, OpKind};
    use cgra::{ClassMap, Fabric, FaultMask};

    use crate::policy::LegalPivots;
    use crate::stats::UtilizationTracker;

    fn req<'a>(
        fabric: &'a Fabric,
        tracker: &'a UtilizationTracker,
        footprint: &'a [(u32, u32)],
    ) -> AllocRequest<'a> {
        AllocRequest { fabric, config_switch: false, footprint, tracker, legal: &ANYWHERE }
    }

    static ANYWHERE: LegalPivots = LegalPivots::ANYWHERE;

    #[test]
    fn epoch_one_matches_single_slot_optimum() {
        let fabric = Fabric::new(2, 4);
        let mut tracker = UtilizationTracker::new(&fabric);
        for _ in 0..5 {
            tracker.record_execution(&[(0, 0), (0, 1)], 2);
        }
        let footprint = [(0u32, 0u32), (0, 1)];
        let mut p = ExactPolicy::new(1);
        let o = p.next_offset(&req(&fabric, &tracker, &footprint)).unwrap();
        // Any pivot avoiding the two hot cells achieves the optimum (5);
        // ties break to the smallest such offset, which is (0, 2).
        assert_eq!(o, Offset::new(0, 2));
    }

    #[test]
    fn planned_epochs_are_replayed_then_resolved() {
        let fabric = Fabric::new(2, 4);
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut p = ExactPolicy::new(4);
        let r = req(&fabric, &tracker, &footprint);
        let first = p.next_offset(&r).unwrap();
        assert_eq!(p.plan.len(), 3, "the rest of the epoch is queued");
        let mut seen = vec![first];
        for _ in 0..3 {
            seen.push(p.next_offset(&r).unwrap());
        }
        assert!(p.plan.is_empty());
        // Four single-cell executions on a cold 8-FU fabric: the optimal
        // epoch touches four distinct cells.
        seen.sort_unstable_by_key(|o| (o.row, o.col));
        seen.dedup();
        assert_eq!(seen.len(), 4, "a jointly-planned epoch never doubles up needlessly");
    }

    #[test]
    fn a_fresh_fault_invalidates_the_plan() {
        let fabric = Fabric::new(2, 4);
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut p = ExactPolicy::new(8);
        let bare = req(&fabric, &tracker, &footprint);
        let first = p.next_offset(&bare).unwrap();
        assert_eq!(first, Offset::new(0, 0));
        // Kill the next planned pivot: the replay must skip it and re-solve.
        let next_planned = *p.plan.front().unwrap();
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(next_planned.row, next_planned.col);
        let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
        let masked = AllocRequest { legal: &legal, ..bare };
        let moved = p.next_offset(&masked).unwrap();
        assert_ne!(moved, next_planned, "the dead pivot is never played back");
    }

    #[test]
    fn another_footprint_drops_the_plan() {
        // Stress [2,2,0,0 | 1,1,0,0] on a 2×4 fabric.
        let fabric = Fabric::new(2, 4);
        let mut tracker = UtilizationTracker::new(&fabric);
        tracker.record_execution(&[(0, 0), (0, 1), (1, 0), (1, 1)], 2);
        tracker.record_execution(&[(0, 0), (0, 1)], 2);
        let single = [(0u32, 0u32)];
        let l_shape = [(0u32, 0u32), (0, 1), (1, 0)];
        let mut p = ExactPolicy::new(4);
        p.next_offset(&req(&fabric, &tracker, &single)).unwrap();
        assert!(!p.plan.is_empty(), "the single-cell epoch left a plan");
        // The plan was solved for one cell; the L-shape must get the pivot
        // a fresh oracle picks for it, not the single-cell plan's next one.
        let replayed = p.next_offset(&req(&fabric, &tracker, &l_shape)).unwrap();
        let fresh = ExactPolicy::new(4).next_offset(&req(&fabric, &tracker, &l_shape)).unwrap();
        assert_eq!(fresh, Offset::new(0, 2));
        assert_eq!(replayed, fresh);
    }

    #[test]
    fn exhaustion_and_starvation_report_none() {
        let fabric = Fabric::new(2, 4);
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut all_dead = FaultMask::healthy(&fabric);
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                all_dead.mark_dead(row, col);
            }
        }
        let r = req(&fabric, &tracker, &footprint);
        let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&all_dead));
        let dead = AllocRequest { legal: &legal, ..r };
        assert_eq!(ExactPolicy::new(1).next_offset(&dead), None);
        // Capability starvation: no mul-capable cell on an all-ALU fabric.
        let mut bare_alu = Fabric::fig1();
        bare_alu.classes = ClassMap::Uniform(cgra::CellClass::Alu);
        let t2 = UtilizationTracker::new(&bare_alu);
        let demands = [(0u32, 0u32, OpKind::Mul(MulFunc::Mul))];
        let legal = LegalPivots::new(&bare_alu, &footprint, &demands, None);
        let starved = AllocRequest {
            fabric: &bare_alu,
            config_switch: false,
            footprint: &footprint,
            tracker: &t2,
            legal: &legal,
        };
        assert_eq!(ExactPolicy::new(1).next_offset(&starved), None);
    }

    #[test]
    fn names_are_canonical() {
        assert_eq!(ExactPolicy::new(1).name(), "exact");
        assert_eq!(ExactPolicy::new(6).name(), "exact@every-6");
        assert_eq!(ExactPolicy::new(0).every(), 1, "epochs clamp to at least one slot");
        assert!(ExactPolicy::new(1).needs_movement());
    }
}
