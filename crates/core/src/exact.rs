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
//! legal pivots and the fabric's geometry and bandwidth. A session's
//! configurations take turns, so the oracle keeps the problems of its
//! last few keys, most recent first: a re-solve for a kept key copies only
//! the live stress counters in, and any other key refills the least recent
//! problem's buffers.

use std::collections::VecDeque;

use cgra::{Fabric, Offset};
use solve::OffsetProblem;
use tracing::{span, Level};

use crate::policy::{AllocRequest, AllocationPolicy, LegalPivots, PolicyCounts};

/// How many problems [`ExactPolicy`] keeps: enough for the configurations
/// a session's loop takes turns among.
const KEPT: usize = 8;

/// The exact-mapping oracle: per allocation epoch, a deterministic
/// branch-and-bound solve of the wear-optimal placement — minimize the
/// maximum post-epoch per-FU stress count over all assignments of the
/// epoch's executions to legal pivots (fault mask and capability demands
/// via the request's [`LegalPivots`] table, column
/// bandwidth via the tracker's stress rule). The oracle keeps the
/// [`OffsetProblem`]s of its last eight re-solve keys — footprint, legal
/// pivots, fabric geometry and bandwidth — most recent first: a re-solve
/// reloads a kept problem's stress counters, or refills the least recent
/// one for a key it does not keep.
///
/// With `every == 1` the oracle re-solves on every allocation (a greedy
/// optimal step against the live counters); larger epochs plan that many
/// upcoming executions of the requesting footprint *jointly*, which can
/// deliberately unbalance early to win later (DESIGN.md §15). A plan is
/// played back only to requests with the key it was solved for; any other
/// footprint, fabric or legal-pivot table (a fresh fault, changed
/// demands) drops the rest of the plan and re-solves.
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
    /// The rest of the latest re-solve's epoch, solved for `kept[0]`.
    plan: VecDeque<Offset>,
    /// The problems of the latest re-solves, most recent first, one per
    /// key, at most [`KEPT`].
    kept: Vec<Kept>,
    counts: PolicyCounts,
}

/// A kept problem and the key it was built for.
#[derive(Clone, Debug, Default)]
struct Kept {
    /// The fabric's `(rows, cols, col_bandwidth)`.
    geometry: (u32, u32, u32),
    footprint: Vec<(u32, u32)>,
    legal: LegalPivots,
    problem: OffsetProblem,
}

/// What a problem's pivots and deltas depend on of the fabric, beyond the
/// legal-pivot table: its `(rows, cols, col_bandwidth)`.
fn geometry(fabric: &Fabric) -> (u32, u32, u32) {
    (fabric.rows, fabric.cols, fabric.col_bandwidth)
}

impl Kept {
    /// Whether the problem holds `req`'s pivots and deltas.
    fn serves(&self, req: &AllocRequest<'_>) -> bool {
        self.geometry == geometry(req.fabric)
            && self.footprint == req.footprint
            && self.legal == *req.legal
    }
}

impl ExactPolicy {
    /// Creates the oracle with an epoch of `every` jointly-planned
    /// executions (clamped to at least 1).
    pub fn new(every: u32) -> ExactPolicy {
        ExactPolicy {
            every: every.max(1),
            plan: VecDeque::new(),
            kept: Vec::new(),
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
        if !self.plan.is_empty() {
            // Under the key it was solved for, every planned pivot is
            // legal and on the fabric.
            if self.kept[0].serves(req) {
                self.counts.replayed += 1;
                return self.plan.pop_front();
            }
            // Another footprint, fabric or legal table (fresh fault,
            // different demands): the remaining plan was optimized for a
            // world that no longer exists — drop it and re-solve.
            self.plan.clear();
        }
        match self.kept.iter().position(|kept| kept.serves(req)) {
            Some(hit) => {
                self.kept[..=hit].rotate_right(1);
                self.kept[0].problem.reload(req.tracker.stress_counts());
            }
            None => {
                if self.kept.len() < KEPT {
                    self.kept.push(Kept::default());
                }
                self.kept.rotate_right(1);
                let kept = &mut self.kept[0];
                kept.geometry = geometry(req.fabric);
                kept.footprint.clear();
                kept.footprint.extend_from_slice(req.footprint);
                kept.legal.clone_from(req.legal);
                kept.problem.refill(
                    req.fabric,
                    req.footprint,
                    req.tracker.stress_counts(),
                    self.every as usize,
                    |o| req.placement_ok(o),
                );
            }
        }
        let problem = &self.kept[0].problem;
        let _solve_span = span!(Level::DEBUG, "solve.bnb").entered();
        let Some(solution) = solve::solve(problem) else {
            self.counts.solve_infeasible += 1;
            return None;
        };
        let (counts, stats) = (&mut self.counts, solution.stats);
        counts.solve_calls += 1;
        counts.solve.expanded += stats.expanded;
        counts.solve.generated += stats.generated;
        counts.solve.pruned_bound += stats.pruned_bound;
        counts.solve.pruned_nogood += stats.pruned_nogood;
        self.plan.extend(solution.choices.iter().map(|&c| problem.offset(c)));
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
                    // Keep only the problem a pending plan plays back from.
                    rebuilt.kept.truncate(usize::from(!rebuilt.plan.is_empty()));
                    let want = rebuilt.next_offset(&req);
                    if every == 1 {
                        assert_eq!(ExactPolicy::new(1).next_offset(&req), want, "step {step}");
                    }
                    let got = reused.next_offset(&req).expect("every request has a legal pivot");
                    assert_eq!(Some(got), want, "exact@every-{every}, step {step}");
                    assert!(got.row < fabric.rows && got.col < fabric.cols, "step {step}: {got:?}");
                    let cells: Vec<(u32, u32)> =
                        footprint.iter().map(|&(r, c)| got.apply(fabric, r, c)).collect();
                    tracker.record_execution(&cells, 2);
                }
            }
            assert_eq!(reused.counts(), rebuilt.counts(), "exact@every-{every}");
        }
    }

    #[test]
    fn a_plan_plays_back_only_under_the_key_it_was_solved_for() {
        // Rows 0–1 of a 4×8 fabric are hot, so an `exact@every-4` plan for
        // one cell lands on rows 2–3.
        let wide = Fabric::new(4, 8);
        let narrow = Fabric::new(2, 8);
        let mut hot = UtilizationTracker::new(&wide);
        for col in 0..8 {
            hot.record_execution(&[(0, col), (1, col)], 1);
        }
        let footprint = [(0u32, 0u32)];
        let mut p = ExactPolicy::new(4);
        let first = p.next_offset(&req(&wide, &hot, &footprint)).unwrap();
        assert!(first.row >= 2 && !p.plan.is_empty(), "{first:?} opens a plan on rows 2–3");
        // The same footprint, every pivot legal, but a 2×8 fabric: the plan
        // does not apply there.
        let cold = UtilizationTracker::new(&narrow);
        let on_narrow = req(&narrow, &cold, &footprint);
        let next = p.next_offset(&on_narrow).unwrap();
        assert!(next.row < narrow.rows, "{next:?} lies off the 2×8 fabric");
        assert_eq!(Some(next), ExactPolicy::new(4).next_offset(&on_narrow));
        // Nor does it under another legal table, even one allowing every
        // planned pivot.
        let mut mask = FaultMask::healthy(&narrow);
        mask.mark_dead(0, 0);
        let legal = LegalPivots::new(&narrow, &footprint, &[], Some(&mask));
        assert!(p.plan.iter().all(|&o| legal.allows(o)), "{:?}", p.plan);
        let replayed = p.counts().replayed;
        let masked = AllocRequest { legal: &legal, ..on_narrow };
        assert_eq!(p.next_offset(&masked), ExactPolicy::new(4).next_offset(&masked));
        assert_eq!(p.counts().replayed, replayed, "the plan was dropped, not replayed");
    }

    #[test]
    fn kept_problems_are_bounded_and_evicted_least_recent_first() {
        // Ten two-cell footprints in turn, then the last two again: the
        // oracle keeps the eight most recent, and a revisited key reloads.
        let fabric = Fabric::new(4, 8);
        let mut tracker = UtilizationTracker::new(&fabric);
        let footprints: Vec<[(u32, u32); 2]> =
            (0..10).map(|i| [(0, 0), (1 + i / 8, i % 8)]).collect();
        let mut p = ExactPolicy::new(1);
        for footprint in footprints.iter().chain(&footprints[8..]) {
            let req = req(&fabric, &tracker, footprint);
            let got = p.next_offset(&req).unwrap();
            assert_eq!(Some(got), ExactPolicy::new(1).next_offset(&req));
            assert!(p.kept.len() <= KEPT);
            assert_eq!(p.kept[0].footprint, *footprint, "the latest key comes first");
            let cells: Vec<(u32, u32)> =
                footprint.iter().map(|&(r, c)| got.apply(&fabric, r, c)).collect();
            tracker.record_execution(&cells, 1);
        }
        let kept: Vec<usize> = (p.kept.iter())
            .map(|k| footprints.iter().position(|f| k.footprint == f).unwrap())
            .collect();
        assert_eq!(kept, [9, 8, 7, 6, 5, 4, 3, 2], "the two least recent were evicted");
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
