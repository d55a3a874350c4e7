//! The exact-mapping oracle policy (DESIGN.md §15).
//!
//! Every heuristic in [`crate::policy`] approximates the same question —
//! where should the next execution land so the fabric wears out as late as
//! possible? [`ExactPolicy`] answers it *optimally for one epoch at a
//! time*: at each epoch boundary it hands the live per-FU stress counters
//! to the vendored branch-and-bound core ([`solve`]) and plays back the
//! proven-optimal pivot sequence for that epoch. `exact` (one execution
//! per epoch) is therefore the per-decision leximin argmin against live
//! wear — a myopic oracle, not a whole-run optimum — which `solve` computes
//! directly, without a search. It is far too slow for hardware; it is the
//! yardstick `results/gap.json` measures the paper's rotation (and the
//! health-aware scan) against, per fabric size, fault density and layout.
//!
//! The pivots and their stress deltas depend only on the footprint, the
//! legal pivots and the fabric's geometry and bandwidth. While all of
//! those repeat — the steady state of a sweep cell — a re-solve copies
//! only the live stress counters into the kept [`OffsetProblem`].

use std::collections::VecDeque;

use cgra::Offset;
use solve::OffsetProblem;
use tracing::{span, Level};

use crate::policy::{AllocRequest, AllocationPolicy, LegalPivots, PolicyCounts};

/// The exact-mapping oracle: per allocation epoch, a deterministic
/// branch-and-bound solve of the wear-optimal placement — minimize the
/// maximum post-epoch per-FU stress count over all assignments of the
/// epoch's executions to legal pivots (fault mask and capability demands
/// via the request's [`LegalPivots`] table, column
/// bandwidth via the tracker's stress rule). The oracle keeps one
/// [`OffsetProblem`]: a re-solve reloads its stress counters when the
/// footprint, legal pivots and fabric geometry and bandwidth match the
/// last re-solve's, and refills it otherwise.
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
    /// The footprint, legal pivots and fabric `(rows, cols,
    /// col_bandwidth)` the latest re-solve built `problem` (and `plan`)
    /// for; `geometry` is `None` before the first.
    footprint: Vec<(u32, u32)>,
    legal: LegalPivots,
    geometry: Option<(u32, u32, u32)>,
    /// The problem of the latest re-solve, reloaded or refilled by the next.
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
            legal: LegalPivots::default(),
            geometry: None,
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
        let geometry = Some((req.fabric.rows, req.fabric.cols, req.fabric.col_bandwidth));
        if self.geometry == geometry && self.footprint == req.footprint && self.legal == *req.legal
        {
            self.problem.reload(req.tracker.stress_counts());
        } else {
            self.geometry = geometry;
            self.footprint.clear();
            self.footprint.extend_from_slice(req.footprint);
            self.legal.clone_from(req.legal);
            self.problem.refill(
                req.fabric,
                req.footprint,
                req.tracker.stress_counts(),
                self.every as usize,
                |o| req.placement_ok(o),
            );
        }
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
    fn a_reused_problem_decides_like_a_rebuilt_one() {
        // Every request is answered by an oracle that reloads its problem
        // while footprint, legality and geometry repeat, and by one forced
        // to rebuild it on every re-solve (for `exact`, also by a fresh
        // oracle). Stress moves between requests, so a reload that kept
        // stale loads, or a reuse across a changed key, would show.
        let fabric = Fabric::new(4, 8);
        let budgeted = Fabric { col_bandwidth: 1, ..fabric };
        let narrow = Fabric::new(2, 8);
        let a = [(0u32, 0u32), (0, 1), (1, 1)];
        let b = [(0u32, 0u32), (1, 0), (2, 0), (2, 1)];
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(0, 3);
        mask.mark_dead(2, 6);
        let masked = LegalPivots::new(&fabric, &a, &[], Some(&mask));
        // (fabric, footprint, legal pivots, requests): footprint A, B, A
        // again (B lands mid-way through an `exact@every-4` plan for A), a
        // fresh fault mask, another bandwidth, another geometry, and back.
        let sequence = [
            (&fabric, &a[..], &ANYWHERE, 6),
            (&fabric, &b[..], &ANYWHERE, 3),
            (&fabric, &a[..], &ANYWHERE, 3),
            (&fabric, &a[..], &masked, 3),
            (&budgeted, &a[..], &masked, 3),
            (&narrow, &a[..], &ANYWHERE, 3),
            (&fabric, &a[..], &ANYWHERE, 3),
        ];
        for every in [1, 4] {
            let mut reused = ExactPolicy::new(every);
            let mut rebuilt = ExactPolicy::new(every);
            let mut wide_tracker = UtilizationTracker::new(&fabric);
            let mut narrow_tracker = UtilizationTracker::new(&narrow);
            for (step, &(fabric, footprint, legal, requests)) in sequence.iter().enumerate() {
                let tracker = if fabric.rows == narrow.rows {
                    &mut narrow_tracker
                } else {
                    &mut wide_tracker
                };
                for _ in 0..requests {
                    let req =
                        AllocRequest { fabric, config_switch: false, footprint, tracker, legal };
                    rebuilt.geometry = None;
                    let want = rebuilt.next_offset(&req);
                    if every == 1 {
                        assert_eq!(ExactPolicy::new(1).next_offset(&req), want, "step {step}");
                    }
                    let got = reused.next_offset(&req).expect("every request has a legal pivot");
                    assert_eq!(Some(got), want, "exact@every-{every}, step {step}");
                    let cells: Vec<(u32, u32)> =
                        footprint.iter().map(|&(r, c)| got.apply(fabric, r, c)).collect();
                    tracker.record_execution(&cells, 2);
                }
            }
            assert_eq!(reused.counts(), rebuilt.counts(), "exact@every-{every}");
        }
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
