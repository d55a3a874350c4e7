//! The branch-and-bound core (DESIGN.md §15).
//!
//! Best-first search over partial epoch plans with two admissible lower
//! bounds (current worst FU; ceil-average of the committed plus remaining
//! stress mass), a nogood table pruning re-derived states in the CDCL
//! spirit, and symmetry breaking over the epoch's identical
//! executions. All tie-breaks are resolved deterministically (leximin
//! refinement in the greedy seed, then ascending choice index, FIFO among
//! equal bounds), so solutions are bit-reproducible.
//!
//! One leximin argmin serves both the greedy seed (once per slot) and the
//! one-slot epoch, which it answers outright. It never sorts a load
//! vector: FUs two pivots leave alike cancel out of a sorted-descending
//! comparison, so pivots are ranked by their hottest touched FU in
//! O(footprint), and only pivots tied on it are compared further: by a
//! fixed-size histogram of the load levels their footprints move just
//! below that FU, and only past it by a walk down the remaining levels.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use crate::OffsetProblem;

/// Search counters of one [`solve`] call (for benches, diagnostics and the
/// caller's `solve.*` metrics; never part of the objective).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Nodes popped from the frontier and branched on.
    pub expanded: u64,
    /// Children generated across all expansions.
    pub generated: u64,
    /// Children discarded because their lower bound matched or exceeded
    /// the incumbent.
    pub pruned_bound: u64,
    /// Children discarded because an identical state (depth, symmetry
    /// floor, load vector) was already recorded in the nogood table.
    pub pruned_nogood: u64,
}

/// An optimal epoch plan returned by [`solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// The minimized maximum post-epoch per-FU stress.
    pub objective: u64,
    /// The chosen pivot (an [`OffsetProblem::offset`] index) per slot, in
    /// slot order. The improving search explores non-decreasing
    /// sequences, but the greedy incumbent may survive unsorted.
    pub choices: Vec<usize>,
    /// Search counters.
    pub stats: SolveStats,
}

/// One frontier node: a plan for the first `depth` slots.
struct Node {
    depth: usize,
    /// Smallest choice index the next slot may take (symmetry breaking).
    floor: usize,
    loads: Vec<u64>,
    sum: u64,
    choices: Vec<usize>,
}

/// Solves one pivot epoch to proven optimality.
///
/// Returns `None` when the epoch has slots but no legal pivot (the problem
/// is infeasible). Otherwise the returned [`Solution`] is optimal: the
/// best-first frontier is exhausted down to nodes whose admissible lower
/// bound matches the incumbent. Among optimal solutions, the greedy seed's
/// leximin tie-refinement is preferred when it already achieves the
/// optimum (common in balanced instances); an improving search replaces it
/// with the first strictly better leaf found. A one-slot epoch needs no
/// search: its answer is the leximin argmin itself, returned directly.
/// Deterministic by construction — ascending choice order, FIFO
/// tie-breaks on equal bounds, integer arithmetic only — so equal problems
/// yield byte-identical solutions.
pub fn solve(p: &OffsetProblem) -> Option<Solution> {
    let n = p.slots();
    let initial = p.initial_loads();
    let r = initial.len();
    let k = p.choices();
    let mut stats = SolveStats::default();
    let max0 = initial.iter().copied().max().unwrap_or(0);
    if n == 0 {
        return Some(Solution { objective: max0, choices: Vec::new(), stats });
    }
    // Every slot plans the same footprint over the same pivots, so no
    // pivot at all is the only way to be infeasible.
    if k == 0 {
        return None;
    }

    // Admissible lower bound of a partial plan: loads only grow, and the
    // final maximum is at least the ceil-average of the committed plus
    // remaining mass — every slot adds the same `mass`, whichever pivot it
    // takes — spread over all FUs (a legal pivot implies a non-empty
    // fabric, so `r >= 1`).
    let lb_of = |depth: usize, loads: &[u64], sum: u64| -> u64 {
        let cur = loads.iter().copied().max().unwrap_or(0);
        let rem = (n - depth) as u64 * p.mass();
        cur.max((sum + rem).div_ceil(r as u64))
    };
    let sum0: u64 = initial.iter().sum();
    let root_lb = max0.max((sum0 + n as u64 * p.mass()).div_ceil(r as u64));

    if n == 1 {
        // Every child of the root is a leaf, and a leaf replaces the greedy
        // incumbent only when its maximum is strictly lower — which the
        // leximin argmin's (the lowest of all) never allows. So the answer
        // is the argmin, its objective the larger of the initial maximum
        // and its hottest touched FU, and the counters are those of the
        // root expansion the search would have run: all `k` leaves scanned
        // when the root bound is below the incumbent, nothing otherwise,
        // nothing pruned.
        let (best, hot) = leximin_argmin(p, initial);
        let objective = max0.max(hot);
        if root_lb < objective {
            stats.expanded = 1;
            stats.generated = k as u64;
        }
        return Some(Solution { objective, choices: vec![best], stats });
    }

    // Greedy incumbent: per slot, the leximin argmin against the loads the
    // earlier slots left. Pure minimax would leave every pivot that avoids
    // the current maximum tied, letting the incumbent pile stress onto
    // low-index FUs; the leximin refinement keeps the returned optimum
    // balanced without changing the minimax objective (DESIGN.md §15). It
    // gives the search an upper bound to prune against.
    let mut inc_loads = initial.to_vec();
    let mut best_choices = Vec::with_capacity(n);
    for _ in 0..n {
        let (best, _) = leximin_argmin(p, &inc_loads);
        for &(res, d) in p.deltas(best) {
            inc_loads[res as usize] += d;
        }
        best_choices.push(best);
    }
    let mut ub = inc_loads.iter().copied().max().unwrap_or(0);

    // Best-first expansion: pop the open node with the smallest lower
    // bound (FIFO among equals via a monotone sequence number), branch on
    // its next slot. Once the smallest open bound reaches the incumbent,
    // the incumbent is proven optimal.
    let mut nodes: Vec<Option<Node>> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seen: HashSet<(usize, usize, Vec<u64>)> = HashSet::new();
    let mut seq: u64 = 0;
    let root = Node { depth: 0, floor: 0, loads: initial.to_vec(), sum: sum0, choices: Vec::new() };
    nodes.push(Some(root));
    heap.push(Reverse((root_lb, seq, 0)));

    while let Some(Reverse((lb, _, idx))) = heap.pop() {
        if lb >= ub {
            break; // every open node is at least as bad as the incumbent
        }
        let mut node = nodes[idx].take().expect("frontier nodes are popped once");
        stats.expanded += 1;
        let depth = node.depth + 1;
        // Loads only grow, so a leaf's objective is the larger of the
        // parent's maximum and the FUs the leaf touches: score each leaf
        // on the parent's own vector, then take its deltas back out.
        let node_max = if depth == n { node.loads.iter().copied().max().unwrap_or(0) } else { 0 };
        // The slots are identical executions, so only non-decreasing
        // choice sequences are explored: a child's floor is its choice.
        for c in node.floor..k {
            stats.generated += 1;
            let deltas = p.deltas(c);
            if depth == n {
                for &(res, d) in deltas {
                    node.loads[res as usize] += d;
                }
                let obj =
                    deltas.iter().fold(node_max, |m, &(res, _)| m.max(node.loads[res as usize]));
                for &(res, d) in deltas {
                    node.loads[res as usize] -= d;
                }
                if obj < ub {
                    ub = obj;
                    best_choices = node.choices.clone();
                    best_choices.push(c);
                }
                continue;
            }
            let mut loads = node.loads.clone();
            let mut sum = node.sum;
            for &(res, d) in deltas {
                loads[res as usize] += d;
                sum += d;
            }
            let child_lb = lb_of(depth, &loads, sum);
            if child_lb >= ub {
                stats.pruned_bound += 1;
                continue;
            }
            // Nogood table: an identical state was already enqueued via
            // another path — re-deriving it cannot improve anything.
            if !seen.insert((depth, c, loads.clone())) {
                stats.pruned_nogood += 1;
                continue;
            }
            let mut choices = node.choices.clone();
            choices.push(c);
            seq += 1;
            nodes.push(Some(Node { depth, floor: c, loads, sum, choices }));
            heap.push(Reverse((child_lb, seq, nodes.len() - 1)));
        }
    }

    Some(Solution { objective: ub, choices: best_choices, stats })
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
        let p = OffsetProblem::new(&Fabric::new(1, 4), &[(0, 0), (0, 1)], &loads, 1, |_| true);
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
                let p = OffsetProblem::new(&fabric, &footprint, &loads, 1, |o| {
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
    fn empty_problem_reports_the_initial_maximum() {
        let loads = [3, 7, 5, 0, 0, 0, 0, 0];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, 0, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 7);
        assert!(s.choices.is_empty());
    }

    #[test]
    fn single_slot_picks_the_smallest_argmin() {
        // Every pivot but the hot (0,0) ties on objective and leximin
        // vector; the smallest index, (0,1), wins.
        let loads = [5, 0, 0, 0, 0, 0, 0, 0];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, 1, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 5);
        assert_eq!(p.offset(s.choices[0]), Offset::new(0, 1));
    }

    #[test]
    fn equal_objective_ties_refine_by_leximin() {
        // Pivots (0,1), (0,2) and (0,3) all leave the maximum at 4; pure
        // minimax would call them tied and take (0,1), but (0,2) leaves
        // [4, 3, 1, 0] in row 0 instead of [4, 4, 0, 0] — the leximin
        // refinement must prefer it (and (0,3) ties it, losing on index).
        let loads = [4, 3, 0, 0, 4, 4, 4, 4];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, 1, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 4);
        assert_eq!(p.offset(s.choices[0]), Offset::new(0, 2));
    }

    #[test]
    fn respects_initial_loads() {
        // Row 0 starts hot; both executions must go to row 1.
        let loads = [10, 10, 10, 10, 0, 0, 0, 0];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &loads, 2, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 10);
        assert!(s.choices.iter().all(|&c| p.offset(c).row == 1), "{:?}", s.choices);
    }

    #[test]
    fn infeasible_slot_returns_none() {
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0)], &[0; 8], 1, |_| false);
        assert!(solve(&p).is_none());
    }

    #[test]
    fn solutions_are_bit_reproducible() {
        // Three L-shaped executions on a cold 3×4 fabric: the greedy
        // incumbent stacks two of them (2), so the search must run.
        let fabric = Fabric::new(3, 4);
        let p = OffsetProblem::new(&fabric, &[(0, 0), (0, 1), (1, 1)], &[0; 12], 3, |_| true);
        let a = solve(&p).unwrap();
        let b = solve(&p).unwrap();
        assert_eq!(a, b, "same problem, same solution, same search counters");
        assert_eq!(a.objective, 1, "three disjoint L-shapes tile nine of twelve FUs");
        assert_eq!(a.stats.expanded, 15);
    }

    #[test]
    fn nogood_table_prunes_rederived_states() {
        // A two-row column footprint covers the same two FUs from pivot
        // (0, c) and (1, c), so distinct non-decreasing plans re-derive
        // one state; the nogood table must catch the duplicate.
        let loads = [2, 3, 1, 3, 1, 0, 2, 1];
        let p = OffsetProblem::new(&Fabric::new(2, 4), &[(0, 0), (1, 0)], &loads, 3, |_| true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 4);
        assert_eq!(s.stats.pruned_nogood, 1, "the duplicate state must hit the nogood table");
    }
}
