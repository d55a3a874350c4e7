//! The generic branch-and-bound core (DESIGN.md §15).
//!
//! Best-first search over partial assignments with two admissible lower
//! bounds (current worst resource; ceil-average of the committed plus
//! minimum-remaining load mass), a nogood table pruning re-derived states
//! in the CDCL spirit, and symmetry breaking over exchangeable slots. All
//! tie-breaks are resolved deterministically (leximin refinement in the
//! greedy seed, then ascending choice index, FIFO among equal bounds), so
//! solutions are bit-reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use tracing::{event, Level};

/// Publishes a finished search's counters as `solve.*` metric events
/// (DESIGN.md §16) — a no-op branch when no subscriber is installed.
fn emit_stats(stats: &SolveStats) {
    event!(
        Level::DEBUG,
        "solve",
        "calls" = 1,
        "expanded" = stats.expanded,
        "generated" = stats.generated,
        "bound_cutoffs" = stats.pruned_bound,
        "nogoods" = stats.pruned_nogood,
    );
}

/// A minimax assignment problem: `slots()` decisions, each picking one of
/// `choices()` options, every option adding integer load to some of the
/// `resources()`; the objective is the maximum final resource load.
///
/// Implementations must be pure: repeated calls with the same arguments
/// must return the same values (the solver assumes it can re-query).
pub trait MinimaxProblem {
    /// Number of assignment decisions, taken in index order.
    fn slots(&self) -> usize;

    /// Number of options available to every slot (legality is per-slot via
    /// [`legal`](Self::legal)).
    fn choices(&self) -> usize;

    /// Number of load-accumulating resources.
    fn resources(&self) -> usize;

    /// Load resource `resource` already carries before any assignment.
    fn initial_load(&self, resource: usize) -> u64;

    /// Whether `choice` may be assigned to `slot`.
    fn legal(&self, slot: usize, choice: usize) -> bool;

    /// The load this assignment adds, as `(resource, delta)` pairs. Pairs
    /// with the same resource are summed.
    fn deltas(&self, slot: usize, choice: usize) -> &[(u32, u64)];

    /// `true` when every slot has the same legal set and deltas, letting
    /// the solver restrict its search to non-decreasing choice sequences
    /// (symmetry breaking).
    fn exchangeable(&self) -> bool {
        false
    }
}

/// Search counters of one [`solve`] call (for benches and diagnostics;
/// never part of the objective).
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

/// An optimal assignment returned by [`solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// The minimized maximum final resource load.
    pub objective: u64,
    /// The chosen option per slot, in slot order. For exchangeable
    /// problems the improving search explores non-decreasing sequences,
    /// but the greedy incumbent may survive unsorted.
    pub choices: Vec<usize>,
    /// Search counters.
    pub stats: SolveStats,
}

/// One frontier node: a partial assignment of the first `depth` slots.
struct Node {
    depth: usize,
    /// Smallest choice index the next slot may take (symmetry breaking).
    floor: usize,
    loads: Vec<u64>,
    sum: u64,
    choices: Vec<usize>,
}

/// Solves a minimax assignment problem to proven optimality.
///
/// Returns `None` when some slot has no legal choice (the problem is
/// infeasible). Otherwise the returned [`Solution`] is optimal: the
/// best-first frontier is exhausted down to nodes whose admissible lower
/// bound matches the incumbent. Among optimal solutions, the greedy seed's
/// leximin tie-refinement is preferred when it already achieves the
/// optimum (common in balanced instances); an improving search replaces it
/// with the first strictly better leaf found. Deterministic by
/// construction — ascending choice order, FIFO tie-breaks on equal bounds,
/// integer arithmetic only — so equal problems yield byte-identical
/// solutions.
pub fn solve<P: MinimaxProblem>(p: &P) -> Option<Solution> {
    let n = p.slots();
    let r = p.resources();
    let mut stats = SolveStats::default();
    let initial: Vec<u64> = (0..r).map(|i| p.initial_load(i)).collect();
    if n == 0 {
        let objective = initial.iter().copied().max().unwrap_or(0);
        emit_stats(&stats);
        return Some(Solution { objective, choices: Vec::new(), stats });
    }

    // Minimum total load mass each slot must add (over its legal choices);
    // a slot with no legal choice makes the problem infeasible.
    let total = |s: usize, c: usize| p.deltas(s, c).iter().map(|&(_, d)| d).sum::<u64>();
    let mut min_total = vec![u64::MAX; n];
    for (s, m) in min_total.iter_mut().enumerate() {
        for c in 0..p.choices() {
            if p.legal(s, c) {
                *m = (*m).min(total(s, c));
            }
        }
        if *m == u64::MAX {
            event!(Level::DEBUG, "solve.infeasible", "add" = 1);
            return None;
        }
    }
    // rem[d] = minimum load mass slots d.. will still add.
    let mut rem = vec![0u64; n + 1];
    for s in (0..n).rev() {
        rem[s] = rem[s + 1] + min_total[s];
    }

    // Admissible lower bound of a partial assignment: loads only grow, and
    // the final maximum is at least the ceil-average of the committed plus
    // minimum-remaining mass spread over all resources.
    let lb_of = |depth: usize, loads: &[u64], sum: u64| -> u64 {
        let cur = loads.iter().copied().max().unwrap_or(0);
        if r == 0 {
            return cur;
        }
        cur.max((sum + rem[depth]).div_ceil(r as u64))
    };

    // Greedy incumbent: per slot, the legal choice minimizing the resulting
    // load vector sorted descending (leximin: smallest maximum first, then
    // smallest second-highest, …), final ties to the smallest choice index.
    // Pure minimax would leave every choice that avoids the current maximum
    // tied, letting the incumbent pile load onto low-index resources; the
    // leximin refinement keeps the returned optimum balanced without
    // changing the minimax objective (DESIGN.md §15). Feasible by the check
    // above; gives the search an upper bound to prune against.
    let mut inc_loads = initial.clone();
    let mut inc_choices = Vec::with_capacity(n);
    let mut scratch: Vec<u64> = Vec::with_capacity(r);
    let mut best_sorted: Vec<u64> = Vec::with_capacity(r);
    for s in 0..n {
        let mut best = None;
        for c in 0..p.choices() {
            if !p.legal(s, c) {
                continue;
            }
            scratch.clear();
            scratch.extend_from_slice(&inc_loads);
            for &(res, d) in p.deltas(s, c) {
                scratch[res as usize] += d;
            }
            scratch.sort_unstable_by(|a, b| b.cmp(a));
            if best.is_none() || scratch < best_sorted {
                std::mem::swap(&mut scratch, &mut best_sorted);
                best = Some(c);
            }
        }
        let c = best.expect("feasibility was established per slot");
        for &(res, d) in p.deltas(s, c) {
            inc_loads[res as usize] += d;
        }
        inc_choices.push(c);
    }
    let mut ub = inc_loads.iter().copied().max().unwrap_or(0);
    let mut best_choices = inc_choices;

    // Best-first expansion: pop the open node with the smallest lower
    // bound (FIFO among equals via a monotone sequence number), branch on
    // its next slot. Once the smallest open bound reaches the incumbent,
    // the incumbent is proven optimal.
    let sum0: u64 = initial.iter().sum();
    let exchangeable = p.exchangeable();
    let mut nodes: Vec<Option<Node>> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seen: HashSet<(usize, usize, Vec<u64>)> = HashSet::new();
    let mut seq: u64 = 0;
    let root = Node { depth: 0, floor: 0, loads: initial, sum: sum0, choices: Vec::new() };
    let root_lb = lb_of(0, &root.loads, root.sum);
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
        // parent's maximum and the resources the leaf touches: score each
        // leaf on the parent's own vector, then take its deltas back out.
        let node_max = if depth == n { node.loads.iter().copied().max().unwrap_or(0) } else { 0 };
        for c in node.floor..p.choices() {
            if !p.legal(node.depth, c) {
                continue;
            }
            stats.generated += 1;
            if depth == n {
                let deltas = p.deltas(node.depth, c);
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
            for &(res, d) in p.deltas(node.depth, c) {
                loads[res as usize] += d;
                sum += d;
            }
            let child_lb = lb_of(depth, &loads, sum);
            if child_lb >= ub {
                stats.pruned_bound += 1;
                continue;
            }
            let floor = if exchangeable { c } else { 0 };
            // Nogood table: an identical state was already enqueued via
            // another path — re-deriving it cannot improve anything.
            if !seen.insert((depth, floor, loads.clone())) {
                stats.pruned_nogood += 1;
                continue;
            }
            let mut choices = node.choices.clone();
            choices.push(c);
            seq += 1;
            nodes.push(Some(Node { depth, floor, loads, sum, choices }));
            heap.push(Reverse((child_lb, seq, nodes.len() - 1)));
        }
    }

    emit_stats(&stats);
    Some(Solution { objective: ub, choices: best_choices, stats })
}

/// Per-(slot, choice) load deltas of a [`TableProblem`]: indexed
/// `[slot][choice]`, a `None` entry marks an illegal pair.
pub type DeltaTable = Vec<Vec<Option<Vec<(u32, u64)>>>>;

/// A dense in-memory [`MinimaxProblem`] — the reference instantiation used
/// by the solver's own tests and benches, and a convenient way to phrase
/// classic minimax problems (e.g. makespan scheduling).
#[derive(Clone, Debug)]
pub struct TableProblem {
    slots: usize,
    resources: usize,
    initial: Vec<u64>,
    deltas: DeltaTable,
    exchangeable: bool,
}

impl TableProblem {
    /// Builds a problem from explicit per-(slot, choice) delta tables;
    /// `None` entries are illegal assignments.
    pub fn new(initial: Vec<u64>, deltas: DeltaTable, exchangeable: bool) -> TableProblem {
        let slots = deltas.len();
        let choices = deltas.first().map_or(0, Vec::len);
        assert!(deltas.iter().all(|row| row.len() == choices), "ragged choice axis");
        TableProblem { slots, resources: initial.len(), initial, deltas, exchangeable }
    }

    /// Classic makespan scheduling: assign `jobs` (sizes) to `machines`,
    /// minimizing the largest machine load. Slots are jobs (not
    /// exchangeable — sizes differ), choices are machines.
    pub fn machines(jobs: &[u64], machines: usize) -> TableProblem {
        let deltas = jobs
            .iter()
            .map(|&size| (0..machines).map(|m| Some(vec![(m as u32, size)])).collect())
            .collect();
        TableProblem::new(vec![0; machines], deltas, false)
    }
}

impl MinimaxProblem for TableProblem {
    fn slots(&self) -> usize {
        self.slots
    }

    fn choices(&self) -> usize {
        self.deltas.first().map_or(0, Vec::len)
    }

    fn resources(&self) -> usize {
        self.resources
    }

    fn initial_load(&self, resource: usize) -> u64 {
        self.initial[resource]
    }

    fn legal(&self, slot: usize, choice: usize) -> bool {
        self.deltas[slot][choice].is_some()
    }

    fn deltas(&self, slot: usize, choice: usize) -> &[(u32, u64)] {
        self.deltas[slot][choice].as_deref().unwrap_or(&[])
    }

    fn exchangeable(&self) -> bool {
        self.exchangeable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive reference: enumerate every legal assignment.
    fn brute_force<P: MinimaxProblem>(p: &P) -> Option<u64> {
        fn rec<P: MinimaxProblem>(p: &P, slot: usize, loads: &mut Vec<u64>) -> Option<u64> {
            if slot == p.slots() {
                return Some(loads.iter().copied().max().unwrap_or(0));
            }
            let mut best = None;
            for c in 0..p.choices() {
                if !p.legal(slot, c) {
                    continue;
                }
                for &(res, d) in p.deltas(slot, c) {
                    loads[res as usize] += d;
                }
                if let Some(obj) = rec(p, slot + 1, loads) {
                    best = Some(best.map_or(obj, |b: u64| b.min(obj)));
                }
                for &(res, d) in p.deltas(slot, c) {
                    loads[res as usize] -= d;
                }
            }
            best
        }
        let mut loads: Vec<u64> = (0..p.resources()).map(|i| p.initial_load(i)).collect();
        rec(p, 0, &mut loads)
    }

    #[test]
    fn empty_problem_reports_the_initial_maximum() {
        let p = TableProblem::new(vec![3, 7, 5], Vec::new(), false);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 7);
        assert!(s.choices.is_empty());
    }

    #[test]
    fn single_slot_picks_the_smallest_argmin() {
        // Choices 1 and 2 tie on the objective; the smaller index wins.
        let deltas = vec![vec![Some(vec![(0, 5)]), Some(vec![(1, 2)]), Some(vec![(2, 2)])]];
        let p = TableProblem::new(vec![0, 0, 0], deltas, true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 2);
        assert_eq!(s.choices, vec![1]);
    }

    #[test]
    fn equal_objective_ties_refine_by_leximin() {
        // Both choices leave the maximum at 4; pure minimax would call them
        // tied and take index 0, but index 1 leaves the balanced vector
        // [4, 3, 1] instead of [4, 4, 0] — the leximin refinement must
        // prefer it despite the larger index.
        let deltas = vec![vec![Some(vec![(1, 1)]), Some(vec![(2, 1)])]];
        let p = TableProblem::new(vec![4, 3, 0], deltas, false);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 4);
        assert_eq!(s.choices, vec![1]);
    }

    #[test]
    fn beats_list_scheduling_on_the_classic_makespan_instance() {
        // Jobs 3,3,2,2,2 on two machines: greedy list scheduling yields 7,
        // the optimum is 6 (3+3 | 2+2+2).
        let p = TableProblem::machines(&[3, 3, 2, 2, 2], 2);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 6);
        assert_eq!(s.choices.len(), 5);
        // Replay the choices: they must achieve the reported objective.
        let mut loads = [0u64; 2];
        for (job, &m) in s.choices.iter().enumerate() {
            loads[m] += [3, 3, 2, 2, 2][job];
        }
        assert_eq!(loads.iter().copied().max().unwrap(), 6);
    }

    #[test]
    fn respects_initial_loads() {
        // Machine 0 starts hot; both jobs must go to machine 1.
        let mut p = TableProblem::machines(&[2, 2], 2);
        p.initial = vec![10, 0];
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 10);
        assert_eq!(s.choices, vec![1, 1]);
    }

    #[test]
    fn infeasible_slot_returns_none() {
        let deltas = vec![
            vec![Some(vec![(0, 1)]), None],
            vec![None, None], // slot 1 has no legal choice
        ];
        let p = TableProblem::new(vec![0], deltas, false);
        assert!(solve(&p).is_none());
    }

    #[test]
    fn exchangeable_search_still_finds_the_optimum() {
        // Three identical slots over choices A=(2,0), B=(0,3): optimum is
        // A,A,B with objective 4 (loads 4,3).
        let deltas: Vec<_> = (0..3).map(|_| vec![Some(vec![(0, 2)]), Some(vec![(1, 3)])]).collect();
        let p = TableProblem::new(vec![0, 0], deltas, true);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 4);
        assert_eq!(brute_force(&p), Some(4));
    }

    #[test]
    fn matches_brute_force_on_assorted_instances() {
        let instances = vec![
            TableProblem::machines(&[5, 4, 3, 3, 2, 2, 1], 3),
            TableProblem::machines(&[9, 1, 1, 1, 1, 1, 1, 1, 1], 2),
            TableProblem::new(
                vec![4, 0, 2],
                (0..4)
                    .map(|_| {
                        vec![
                            Some(vec![(0, 1), (1, 2)]),
                            Some(vec![(1, 1), (2, 1)]),
                            None,
                            Some(vec![(2, 3)]),
                        ]
                    })
                    .collect(),
                true,
            ),
        ];
        for p in instances {
            let s = solve(&p).expect("feasible instance");
            assert_eq!(Some(s.objective), brute_force(&p), "solver must match brute force");
        }
    }

    #[test]
    fn solutions_are_bit_reproducible() {
        let p = TableProblem::machines(&[3, 3, 2, 2, 2], 2);
        let a = solve(&p).unwrap();
        let b = solve(&p).unwrap();
        assert_eq!(a, b, "same problem, same solution, same search counters");
        assert!(a.stats.expanded > 0, "the greedy incumbent (7) is suboptimal, so search runs");
    }

    #[test]
    fn nogood_table_prunes_rederived_states() {
        // The makespan instance re-derives the same machine-load vector
        // along permuted job orders (3 on m0 then 3 on m1, and vice versa);
        // the nogood table must catch the duplicates.
        let p = TableProblem::machines(&[3, 3, 2, 2, 2], 2);
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 6);
        assert!(s.stats.pruned_nogood > 0, "duplicate states must hit the nogood table");
    }
}
