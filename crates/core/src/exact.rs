//! The exact-mapping oracle policy (DESIGN.md §15).
//!
//! Every heuristic in [`crate::policy`] approximates the same question —
//! where should the next execution land so the fabric wears out as late as
//! possible? [`ExactPolicy`] answers it *optimally for one execution at a
//! time*: on every allocation it hands the live per-FU stress counters to
//! [`solve`], which returns the leximin argmin over the legal pivots. That
//! is a myopic oracle, not a whole-run optimum. It is far too slow for
//! hardware; it is the yardstick `results/gap.json` measures the paper's
//! rotation (and the health-aware scan) against, per fabric size, fault
//! density and layout.
//!
//! The pivots and their stress deltas depend only on the footprint, the
//! legal pivots and the fabric's geometry and bandwidth. A session's
//! configurations take turns, so the oracle keeps the problems of its
//! last few keys, most recent first: a re-solve for a kept key copies only
//! the live stress counters in, and any other key refills the least recent
//! problem's buffers.

use cgra::{Fabric, Offset};
use solve::OffsetProblem;
use tracing::{span, Level};

use crate::policy::{AllocRequest, AllocationPolicy, LegalPivots, PolicyCounts};

/// How many problems [`ExactPolicy`] keeps: enough for the configurations
/// a session's loop takes turns among.
const KEPT: usize = 8;

/// The exact-mapping oracle: per allocation, the wear-optimal placement of
/// that one execution — the legal pivot (fault mask and capability demands
/// via the request's [`LegalPivots`] table) whose post-placement per-FU
/// stress (column bandwidth via the tracker's stress rule), sorted
/// descending, is lexicographically smallest. The oracle keeps the
/// [`OffsetProblem`]s of its last eight re-solve keys — footprint, legal
/// pivots, fabric geometry and bandwidth — most recent first: a re-solve
/// reloads a kept problem's stress counters, or refills the least recent
/// one for a key it does not keep.
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
/// let mut oracle = ExactPolicy::default();
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
#[derive(Clone, Debug, Default)]
pub struct ExactPolicy {
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

impl AllocationPolicy for ExactPolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
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
                kept.problem.refill(req.fabric, req.footprint, req.tracker.stress_counts(), |o| {
                    req.placement_ok(o)
                });
            }
        }
        let problem = &self.kept[0].problem;
        let _solve_span = span!(Level::DEBUG, "solve.bnb").entered();
        let Some((choice, _)) = solve::solve(problem) else {
            self.counts.solve_infeasible += 1;
            return None;
        };
        self.counts.solve_calls += 1;
        Some(problem.offset(choice))
    }

    fn name(&self) -> String {
        "exact".to_string()
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
        let mut p = ExactPolicy::default();
        let o = p.next_offset(&req(&fabric, &tracker, &footprint)).unwrap();
        // Any pivot avoiding the two hot cells achieves the optimum (5);
        // ties break to the smallest such offset, which is (0, 2).
        assert_eq!(o, Offset::new(0, 2));
    }

    #[test]
    fn a_reused_problem_decides_like_a_rebuilt_one() {
        // Every request is answered by an oracle that reloads its problem
        // while footprint, legality and geometry repeat, by one forced to
        // rebuild it on every request, and by a fresh oracle. Stress moves
        // between requests, so a reload that kept stale loads, or a reuse
        // across a changed key, would show.
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
        // again, a fresh fault mask, another bandwidth, another geometry,
        // and back.
        let sequence = [
            (&fabric, &a[..], &ANYWHERE, 6),
            (&fabric, &b[..], &ANYWHERE, 3),
            (&fabric, &a[..], &ANYWHERE, 3),
            (&fabric, &a[..], &masked, 3),
            (&budgeted, &a[..], &masked, 3),
            (&narrow, &a[..], &ANYWHERE, 3),
            (&fabric, &a[..], &ANYWHERE, 3),
        ];
        let mut reused = ExactPolicy::default();
        let mut rebuilt = ExactPolicy::default();
        let mut wide_tracker = UtilizationTracker::new(&fabric);
        let mut narrow_tracker = UtilizationTracker::new(&narrow);
        for (step, &(fabric, footprint, legal, requests)) in sequence.iter().enumerate() {
            let tracker =
                if fabric.rows == narrow.rows { &mut narrow_tracker } else { &mut wide_tracker };
            for _ in 0..requests {
                let req = AllocRequest { fabric, config_switch: false, footprint, tracker, legal };
                rebuilt.kept.clear();
                let want = rebuilt.next_offset(&req);
                assert_eq!(ExactPolicy::default().next_offset(&req), want, "step {step}");
                let got = reused.next_offset(&req).expect("every request has a legal pivot");
                assert_eq!(Some(got), want, "step {step}");
                assert!(got.row < fabric.rows && got.col < fabric.cols, "step {step}: {got:?}");
                let cells: Vec<(u32, u32)> =
                    footprint.iter().map(|&(r, c)| got.apply(fabric, r, c)).collect();
                tracker.record_execution(&cells, 2);
            }
        }
        assert_eq!(reused.counts(), rebuilt.counts());
    }

    #[test]
    fn kept_problems_are_bounded_and_evicted_least_recent_first() {
        // Ten two-cell footprints in turn, then the last two again: the
        // oracle keeps the eight most recent, and a revisited key reloads.
        let fabric = Fabric::new(4, 8);
        let mut tracker = UtilizationTracker::new(&fabric);
        let footprints: Vec<[(u32, u32); 2]> =
            (0..10).map(|i| [(0, 0), (1 + i / 8, i % 8)]).collect();
        let mut p = ExactPolicy::default();
        for footprint in footprints.iter().chain(&footprints[8..]) {
            let req = req(&fabric, &tracker, footprint);
            let got = p.next_offset(&req).unwrap();
            assert_eq!(Some(got), ExactPolicy::default().next_offset(&req));
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
        assert_eq!(ExactPolicy::default().next_offset(&dead), None);
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
        assert_eq!(ExactPolicy::default().next_offset(&starved), None);
    }

    #[test]
    fn names_are_canonical() {
        assert_eq!(ExactPolicy::default().name(), "exact");
        assert!(ExactPolicy::default().needs_movement());
    }
}
