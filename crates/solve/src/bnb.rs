//! The exact oracle's decision (DESIGN.md §15): the leximin
//! argmin over the legal pivots.
//!
//! It never sorts a load vector: FUs two pivots leave alike cancel out of
//! a sorted-descending comparison, so pivots are ranked by their hottest
//! touched FU in O(footprint), and only pivots tied on it are compared
//! further: by a fixed-size histogram of the load levels their footprints
//! move just below that FU, and only past it by a walk down the remaining
//! levels. Ties go to the smallest choice index, so the answer is
//! bit-reproducible.

use std::cmp::Ordering;

use crate::OffsetProblem;

/// The pivot the next execution should take: the choice index whose
/// post-placement load vector, sorted descending, is lexicographically
/// smallest (leximin: smallest maximum first, then smallest second-highest,
/// …), the smallest index among equals, with its hottest new load.
///
/// The leximin argmin has the lowest maximum of all pivots, so the
/// larger of the initial maximum and the returned load is the optimal
/// worst-FU stress after this one execution. Returns `None` when the
/// problem has no legal pivot (it is infeasible).
pub fn solve(p: &OffsetProblem) -> Option<(usize, u64)> {
    (p.choices() > 0).then(|| leximin_argmin(p, p.initial_loads()))
}

/// The pivot whose post-placement load vector `loads + deltas(c)`, sorted
/// descending, is lexicographically smallest (leximin: smallest maximum
/// first, then smallest second-highest, …), the smallest choice index among
/// equals, with its hottest new load. The problem must have a pivot.
///
/// Nothing is sorted. Two sorted-descending vectors of equal length compare
/// by the largest value whose multiplicity differs — the vector holding
/// fewer copies of it is smaller — so every FU both candidates leave at
/// the same load cancels out. Placing `c` moves each touched FU from its
/// old load to its new one, so the multiplicity difference of a value `v`
/// between the vectors of `c` and `b` is
///
/// `net(v) = #new_c(v) − #old_c(v) − #new_b(v) + #old_b(v)`,
///
/// counted over the two footprints only. Every delta is at least 1, so a
/// candidate's touched FUs all end at or below its hottest new load `m`
/// and none of them sat at `m` or above before: the `(m, count)` key —
/// `count` touched FUs reaching `m` — settles `net` at the top value, and
/// the smaller key is the strictly smaller vector, in O(footprint): two
/// branch-free passes, the maximum and then the count equal to it.
///
/// Candidates tied on the key compare by their [`Window`]s, the first
/// differing level from the top deciding; the best candidate's window is
/// built once per best. Only when the whole window ties, and a touched FU
/// sat below it, does the comparison walk further down ([`cmp_below`]).
fn leximin_argmin(p: &OffsetProblem, loads: &[u64]) -> (usize, u64) {
    let key = |c: usize| {
        let deltas = p.deltas(c);
        let hot = deltas.iter().map(|&(res, d)| loads[res as usize] + d).max().unwrap_or(0);
        let count: u32 =
            deltas.iter().map(|&(res, d)| u32::from(loads[res as usize] + d == hot)).sum();
        (hot, count)
    };
    let mut best = 0;
    let mut best_key = key(0);
    // `best`'s window at `best_key.0`, once a tie has needed it.
    let mut best_window: Option<Window> = None;
    for c in 1..p.choices() {
        let c_key = key(c);
        match c_key.cmp(&best_key) {
            Ordering::Greater => continue,
            Ordering::Less => best_window = None,
            Ordering::Equal => {
                let hot = c_key.0;
                let b = *best_window.get_or_insert_with(|| Window::of(p, loads, best, hot));
                let w = Window::of(p, loads, c, hot);
                let order = w.levels.cmp(&b.levels).then_with(|| {
                    if w.deep || b.deep {
                        cmp_below(p, loads, c, best, (hot + 1).saturating_sub(WINDOW as u64))
                    } else {
                        Ordering::Equal
                    }
                });
                debug_assert_eq!(order, cmp_below(p, loads, c, best, hot), "pivots {c} and {best}");
                if order != Ordering::Less {
                    continue;
                }
                best_window = Some(w);
            }
        }
        best = c;
        best_key = c_key;
    }
    (best, best_key.0)
}

/// How many load levels, from a tied hottest load down, two candidates
/// compare by [`Window`] before [`leximin_argmin`] falls back to
/// [`cmp_below`]. Keys tie where spreads are narrow; a wider window barely
/// changes how often the walk runs in the gap sweep (DESIGN.md §15).
const WINDOW: usize = 16;

/// A candidate's signed level histogram below a hot load `hot`.
#[derive(Clone, Copy)]
struct Window {
    /// Slot `i` counts the touched FUs whose new load is `hot − i` minus
    /// those whose old load was, for the `WINDOW` levels at and below
    /// `hot`. Slot-wise, two candidates' windows differ by `net` (see
    /// [`leximin_argmin`]).
    levels: [i32; WINDOW],
    /// Whether a touched FU's old load lies below the window.
    deep: bool,
}

impl Window {
    /// Candidate `c`'s window below `hot`, which must be at least its
    /// hottest new load.
    fn of(p: &OffsetProblem, loads: &[u64], c: usize, hot: u64) -> Window {
        let mut window = Window { levels: [0; WINDOW], deep: false };
        for &(res, d) in p.deltas(c) {
            let old = loads[res as usize];
            let (new_at, old_at) = (hot - old - d, hot - old);
            if new_at < WINDOW as u64 {
                window.levels[new_at as usize] += 1;
            }
            if old_at < WINDOW as u64 {
                window.levels[old_at as usize] -= 1;
            } else {
                window.deep = true;
            }
        }
        window
    }
}

/// Compares candidates `c` and `b`, known to agree on every value at or
/// above `top`, in leximin order: one pass over both footprints per
/// distinct old or new load below `top`, from the highest down, until
/// `net` (see [`leximin_argmin`]) is nonzero. [`leximin_argmin`] calls it
/// only past a tied [`Window`] that a touched FU sat below.
fn cmp_below(p: &OffsetProblem, loads: &[u64], c: usize, b: usize, mut top: u64) -> Ordering {
    loop {
        // The highest old or new load below `top`, and `net` there.
        let mut level: Option<(u64, i64)> = None;
        for (choice, sign) in [(c, 1), (b, -1)] {
            for &(res, d) in p.deltas(choice) {
                let old = loads[res as usize];
                for (v, s) in [(old + d, sign), (old, -sign)] {
                    level = match level {
                        _ if v >= top => level,
                        Some((at, net)) if v < at => Some((at, net)),
                        Some((at, net)) if v == at => Some((at, net + s)),
                        _ => Some((v, s)),
                    };
                }
            }
        }
        match level {
            None => return Ordering::Equal,
            Some((_, net)) if net != 0 => return net.cmp(&0),
            Some((at, _)) => top = at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::{Fabric, FaultMask, Offset};
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    /// The argmin before the tie window: the `(hot, count)` key, pivots
    /// tied on it compared by [`cmp_below`] from the top.
    fn walking_argmin(p: &OffsetProblem, loads: &[u64]) -> usize {
        let key = |c: usize| {
            p.deltas(c).iter().fold((0u64, 0u32), |(hot, count), &(res, d)| {
                let load = loads[res as usize] + d;
                match load.cmp(&hot) {
                    Ordering::Greater => (load, 1),
                    Ordering::Equal => (hot, count + 1),
                    Ordering::Less => (hot, count),
                }
            })
        };
        let mut best = 0;
        let mut best_key = key(0);
        for c in 1..p.choices() {
            let c_key = key(c);
            let better = match c_key.cmp(&best_key) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => cmp_below(p, loads, c, best, c_key.0) == Ordering::Less,
            };
            if better {
                best = c;
                best_key = c_key;
            }
        }
        best
    }

    /// Pivot pairs tied on their key and on their [`Window`]s that are
    /// nevertheless unequal: the ones only the walk below the window tells
    /// apart.
    fn told_apart_below_the_window(p: &OffsetProblem, loads: &[u64]) -> usize {
        let hot = |c: usize| p.deltas(c).iter().map(|&(res, d)| loads[res as usize] + d).max();
        let window = |c: usize, hot: u64| Window::of(p, loads, c, hot).levels;
        let mut pairs = 0;
        for c in 0..p.choices() {
            for b in 0..c {
                let (Some(h), true) = (hot(c), hot(c) == hot(b)) else { continue };
                let (wc, wb) = (window(c, h), window(b, h));
                if wc == wb && cmp_below(p, loads, c, b, h) != Ordering::Equal {
                    pairs += 1;
                }
            }
        }
        pairs
    }

    #[test]
    fn window_ties_fall_back_to_the_walk_below() {
        // Footprint `[(0,0), (0,1)]` on a 1×4 ring with loads [50, 1, 50, 0]:
        // every pivot reaches 51 once, and pivots 0 and 2 also move the same
        // levels inside the window (50 → 51), so only the cold FU they
        // touch, far below, tells them apart: pivot 0 leaves [51, 50, 2, 0],
        // pivot 2 the smaller [51, 50, 1, 1].
        let loads = [50, 1, 50, 0];
        let p = OffsetProblem::new(&Fabric::new(1, 4), &[(0, 0), (0, 1)], &loads, |_| true);
        assert_eq!(told_apart_below_the_window(&p, &loads), 4);
        assert_eq!(leximin_argmin(&p, &loads), (2, 51));
        assert_eq!(walking_argmin(&p, &loads), 2);
    }

    #[test]
    fn leximin_argmin_matches_the_walking_argmin() {
        let fabric = ((1u32..=4), (4u32..=8), (0u32..=2)).prop_map(|(r, c, bw)| {
            let mut fabric = Fabric::new(r, c);
            fabric.col_bandwidth = bw;
            fabric
        });
        let strategy = (
            fabric,
            proptest::collection::vec((0u32..4, 0u32..8), 0..=6),
            proptest::collection::vec((0u32..4, 0u32..8), 1..=12),
            proptest::collection::vec(0u64..1000, 32),
            0u8..3,
        );
        let mut told_apart_below = [0; 3];

        let result = TestRunner::new(ProptestConfig::with_cases(768)).run(
            &strategy,
            |(fabric, dead, footprint, loads, spread)| {
                let mut mask = FaultMask::healthy(&fabric);
                for (r, c) in dead {
                    mask.mark_dead(r % fabric.rows, c % fabric.cols);
                }
                // Narrow spreads (0–3) tie most pivots on their key;
                // stepped ones (three clusters two windows apart, a little
                // noise in each) tie pivots whose windows also tie; wide
                // ones rarely tie.
                let w = WINDOW as u64;
                let loads: Vec<u64> = loads[..fabric.fu_count() as usize]
                    .iter()
                    .map(|&l| match spread {
                        0 => l % 4,
                        1 => l % 3 * 2 * w + l / 3 % 3,
                        _ => l,
                    })
                    .collect();
                let p = OffsetProblem::new(&fabric, &footprint, &loads, |o| {
                    mask.placement_ok(&fabric, &footprint, o)
                });
                if p.choices() == 0 {
                    return Err(TestCaseError::reject("no legal pivot"));
                }
                let want = walking_argmin(&p, &loads);
                let hot = p.deltas(want).iter().map(|&(res, d)| loads[res as usize] + d).max();
                prop_assert_eq!(leximin_argmin(&p, &loads), (want, hot.unwrap_or(0)));
                told_apart_below[spread as usize] += told_apart_below_the_window(&p, &loads);
                Ok(())
            },
        );
        result.unwrap();
        assert!(told_apart_below[1] > 0, "stepped spreads reach below the window");
    }

    #[test]
    fn single_slot_picks_the_smallest_argmin() {
        // Every pivot but the hot (0,0) ties on hottest new load and
        // leximin vector; the smallest index, (0,1), wins.
        let loads = [5, 0, 0, 0, 0, 0, 0, 0];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, |_| true);
        let (choice, hot) = solve(&p).unwrap();
        assert_eq!((p.offset(choice), hot), (Offset::new(0, 1), 1));
    }

    #[test]
    fn equal_objective_ties_refine_by_leximin() {
        // Pivots (0,1), (0,2) and (0,3) all leave the maximum at 4; pure
        // minimax would call them tied and take (0,1), but (0,2) leaves
        // [4, 3, 1, 0] in row 0 instead of [4, 4, 0, 0] — the leximin
        // refinement must prefer it (and (0,3) ties it, losing on index).
        let loads = [4, 3, 0, 0, 4, 4, 4, 4];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, |_| true);
        let (choice, hot) = solve(&p).unwrap();
        assert_eq!((p.offset(choice), hot), (Offset::new(0, 2), 1));
    }

    #[test]
    fn respects_initial_loads() {
        // Row 0 starts hot; the execution must go to row 1.
        let loads = [10, 10, 10, 10, 0, 0, 0, 0];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, |_| true);
        let (choice, _) = solve(&p).unwrap();
        assert_eq!(p.offset(choice), Offset::new(1, 0));
    }

    #[test]
    fn infeasible_slot_returns_none() {
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &[0; 8], |_| false);
        assert!(solve(&p).is_none());
    }

    #[test]
    fn solutions_are_bit_reproducible() {
        // An L-shaped footprint on a warm 3×4 fabric, solved twice.
        let fabric = Fabric::new(3, 4);
        let loads = [3, 1, 0, 2, 1, 1, 0, 3, 0, 2, 1, 0];
        let p = OffsetProblem::new(&fabric, &[(0, 0), (0, 1), (1, 1)], &loads, |_| true);
        let a = solve(&p).unwrap();
        assert_eq!(a, solve(&p).unwrap(), "same problem, same pivot");
        assert_eq!(a.0, walking_argmin(&p, &loads));
    }
}
