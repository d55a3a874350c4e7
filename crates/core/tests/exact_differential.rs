//! Differential properties for the exact-mapping oracle (DESIGN.md §15).
//!
//! Two guarantees back the optimality-gap experiment: on small fabrics the
//! branch-and-bound solve equals a brute-force enumeration of every offset
//! tuple (the oracle really is exact), and no heuristic policy's achieved
//! worst-FU stress ever undercuts the jointly-planned exact epoch (the gap
//! table's denominator really is a lower bound). The one-slot solve, which
//! `solve` answers with a direct argmin instead of a search, is pinned on
//! fabrics up to 4×8 against a brute-force leximin argmin, counters
//! included.

use proptest::prelude::*;

use cgra::op::{MulFunc, OpKind};
use cgra::{CellClass, ClassMap, Fabric, FaultMask, Offset};
use solve::{solve, OffsetProblem, SolveStats};
use uaware::{
    AllocRequest, AllocationPolicy, ExactPolicy, LegalPivots, PolicySpec, UtilizationTracker,
};

fn any_small_fabric() -> impl Strategy<Value = Fabric> {
    // Four columns is the geometry floor (memory ops span four columns).
    ((2u32..=4), Just(4u32), any_class_map(), (0u32..=2)).prop_map(|(r, c, classes, bw)| {
        let mut fabric = Fabric::new(r, c);
        fabric.classes = classes;
        fabric.col_bandwidth = bw;
        fabric
    })
}

/// Fabrics up to the gap sweep's 4×8, every class map and bandwidth.
fn any_fabric_up_to_4x8() -> impl Strategy<Value = Fabric> {
    ((1u32..=4), (4u32..=8), any_class_map(), (0u32..=2)).prop_map(|(r, c, classes, bw)| {
        let mut fabric = Fabric::new(r, c);
        fabric.classes = classes;
        fabric.col_bandwidth = bw;
        fabric
    })
}

fn any_class_map() -> impl Strategy<Value = ClassMap> {
    prop_oneof![
        Just(ClassMap::Uniform(CellClass::Full)),
        Just(ClassMap::Uniform(CellClass::Alu)),
        Just(ClassMap::Checker),
        Just(ClassMap::RowStripes),
        Just(ClassMap::ColStripes),
    ]
}

/// Legality computed from first principles, independent of
/// [`LegalPivots`]: every footprint cell on a live FU, every demand on a
/// capable cell.
fn brute_force_legal(
    fabric: &Fabric,
    mask: &FaultMask,
    footprint: &[(u32, u32)],
    demands: &[(u32, u32, OpKind)],
    o: Offset,
) -> bool {
    mask.placement_ok(fabric, footprint, o)
        && demands.iter().all(|&(r, c, kind)| {
            let (pr, pc) = o.apply(fabric, r, c);
            fabric.supports(pr, pc, kind)
        })
}

/// Evaluates every `choices^slots` assignment tuple and returns the true
/// minimax objective — exponential, which is why it only runs on ≤4×4
/// fabrics with ≤3 slots.
fn brute_force_minimax(p: &OffsetProblem) -> Option<u64> {
    let (n, k) = (p.slots(), p.choices());
    if k == 0 {
        return None;
    }
    let mut best: Option<u64> = None;
    let mut tuple = vec![0usize; n];
    loop {
        let mut loads = p.initial_loads().to_vec();
        for &c in &tuple {
            for &(res, d) in p.deltas(c) {
                loads[res as usize] += d;
            }
        }
        let objective = loads.into_iter().max().unwrap_or(0);
        best = Some(best.map_or(objective, |b| b.min(objective)));
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            tuple[i] += 1;
            if tuple[i] < k {
                break;
            }
            tuple[i] = 0;
            i += 1;
        }
    }
}

/// The one-slot answer by enumeration: the legal pivot whose post-placement
/// load vector, sorted descending, is lexicographically smallest — the
/// lowest row-major index among equals.
fn brute_force_leximin_argmin(p: &OffsetProblem) -> usize {
    let sorted_after = |c: usize| {
        let mut loads = p.initial_loads().to_vec();
        for &(res, d) in p.deltas(c) {
            loads[res as usize] += d;
        }
        loads.sort_unstable_by(|a, b| b.cmp(a));
        loads
    };
    (0..p.choices()).min_by_key(|&c| sorted_after(c)).expect("a feasible problem has a pivot")
}

/// The counters `solve` reports for a one-slot problem whose optimum is
/// `objective`: those of the root expansion the search runs — every pivot
/// generated as a leaf — when the root's lower bound (the hottest FU, or
/// the placed mass spread evenly) is below the incumbent, none otherwise;
/// nothing is ever pruned.
fn root_expansion_stats(p: &OffsetProblem, objective: u64) -> SolveStats {
    let loads = p.initial_loads();
    let min_mass =
        (0..p.choices()).map(|c| p.deltas(c).iter().map(|&(_, d)| d).sum::<u64>()).min().unwrap();
    let spread = (loads.iter().sum::<u64>() + min_mass).div_ceil(loads.len() as u64);
    let root_lb = loads.iter().copied().max().unwrap().max(spread);
    if root_lb < objective {
        SolveStats { expanded: 1, generated: p.choices() as u64, ..SolveStats::default() }
    } else {
        SolveStats::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_slot_solve_is_the_brute_force_leximin_argmin(
        fabric in any_fabric_up_to_4x8(),
        dead in proptest::collection::vec((0u32..4, 0u32..8), 0..=6),
        footprint in proptest::collection::vec((0u32..4, 0u32..8), 1..=12),
        loads in proptest::collection::vec(0u64..1000, 32),
        narrow in 0u8..=1,
        with_demand in 0u8..=1,
    ) {
        let mut mask = FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        // Narrow spreads (0–3) leave many pivots tied on their hottest
        // touched FU, so the argmin's full comparison runs; wide ones
        // settle most pivots on that key alone.
        let loads: Vec<u64> = loads[..fabric.fu_count() as usize]
            .iter()
            .map(|&l| if narrow == 1 { l % 4 } else { l })
            .collect();
        let (r0, c0) = footprint[0];
        let demands = [(r0, c0, OpKind::Mul(MulFunc::Mul))];
        let demands: &[(u32, u32, OpKind)] = if with_demand == 1 { &demands } else { &[] };
        let p = OffsetProblem::new(&fabric, &footprint, &loads, 1, |o| {
            brute_force_legal(&fabric, &mask, &footprint, demands, o)
        });
        match solve(&p) {
            None => prop_assert_eq!(p.choices(), 0, "solver gave up on a feasible instance"),
            Some(s) => {
                prop_assert_eq!(&s.choices, &vec![brute_force_leximin_argmin(&p)]);
                let mut achieved = loads.clone();
                for &(res, d) in p.deltas(s.choices[0]) {
                    achieved[res as usize] += d;
                }
                prop_assert_eq!(achieved.into_iter().max().unwrap(), s.objective);
                prop_assert_eq!(s.stats, root_expansion_stats(&p, s.objective));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bnb_equals_brute_force_enumeration(
        fabric in any_small_fabric(),
        dead in proptest::collection::vec((0u32..4, 0u32..4), 0..=5),
        initial in proptest::collection::vec(0u64..20, 16),
        slots in 1usize..=3,
        with_demand in 0u8..=1,
    ) {
        let mut mask = FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        let footprint = [(0u32, 0u32), (0, 1)];
        let demands = [(0u32, 0u32, OpKind::Mul(MulFunc::Mul))];
        let demands: &[(u32, u32, OpKind)] = if with_demand == 1 { &demands } else { &[] };
        let loads = &initial[..fabric.fu_count() as usize];
        let p = OffsetProblem::new(&fabric, &footprint, loads, slots, |o| {
            brute_force_legal(&fabric, &mask, &footprint, demands, o)
        });
        match solve(&p) {
            None => prop_assert_eq!(p.choices(), 0, "solver gave up on a feasible instance"),
            Some(s) => {
                // The returned tuple really achieves the claimed objective…
                let mut achieved: Vec<u64> = loads.to_vec();
                prop_assert_eq!(s.choices.len(), slots);
                for &c in &s.choices {
                    for &(res, d) in p.deltas(c) {
                        achieved[res as usize] += d;
                    }
                }
                prop_assert_eq!(achieved.into_iter().max().unwrap(), s.objective);
                // …and the objective is the exhaustively-verified optimum.
                prop_assert_eq!(s.objective, brute_force_minimax(&p).unwrap());
                if slots == 1 {
                    // One slot needs no search: the answer is the leximin
                    // argmin over the legal pivots, and nothing is pruned.
                    prop_assert_eq!(s.choices[0], brute_force_leximin_argmin(&p));
                    prop_assert_eq!((s.stats.pruned_bound, s.stats.pruned_nogood), (0, 0));
                }
            }
        }
    }

    #[test]
    fn exact_epoch_dominates_every_heuristic(
        fabric in any_small_fabric(),
        dead in proptest::collection::vec((0u32..4, 0u32..4), 0..=4),
        epoch in 4usize..=8,
    ) {
        // Under static legality (a fixed mask, no demand churn), any
        // heuristic's K-allocation pivot sequence is one feasible solution
        // of the same K-slot minimax problem the `exact@every-K` oracle
        // solves — so the oracle's achieved worst-FU stress can never
        // exceed the heuristic's.
        let mut mask = FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        let footprint = [(0u32, 0u32), (0, 1)];
        if !mask.any_placement(&fabric, &footprint) {
            return Ok(()); // nothing to compare: every policy must starve
        }
        let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
        let run = |policy: &mut dyn AllocationPolicy| -> Option<u64> {
            let mut tracker = UtilizationTracker::new(&fabric);
            for _ in 0..epoch {
                let off = {
                    let req = AllocRequest {
                        fabric: &fabric,
                        config_switch: true,
                        footprint: &footprint,
                        tracker: &tracker,
                        legal: &legal,
                    };
                    policy.next_offset(&req)?
                };
                let cells: Vec<(u32, u32)> =
                    footprint.iter().map(|&(r, c)| off.apply(&fabric, r, c)).collect();
                for &(r, c) in &cells {
                    assert!(!mask.is_dead(r, c), "placed on dead FU ({r},{c})");
                }
                tracker.record_execution(&cells, 2);
            }
            Some(tracker.stress_counts().iter().copied().max().unwrap())
        };
        let exact_max = run(&mut ExactPolicy::new(epoch as u32))
            .expect("a legal placement exists, the oracle must find it");
        for spec in PolicySpec::all_specs(&fabric) {
            // A heuristic may legitimately starve where movement is possible
            // (the origin-pinned baseline on a dead corner) — no sequence to
            // compare against then.
            if let Some(heuristic_max) = run(spec.build().as_mut()) {
                prop_assert!(
                    exact_max <= heuristic_max,
                    "{} beat the oracle: {} < {} on {}×{} (bw {})",
                    spec, heuristic_max, exact_max, fabric.rows, fabric.cols,
                    fabric.col_bandwidth
                );
            }
        }
        // The single-step oracle is greedy-optimal per allocation; it has no
        // joint-plan guarantee, but it must still never starve here.
        let _ = run(&mut ExactPolicy::new(1)).expect("greedy oracle starved on a live fabric");
    }
}

/// The doc-example shape, pinned: a warm corner pushes the oracle off it.
#[test]
fn oracle_dodges_warm_cells_deterministically() {
    let fabric = Fabric::new(3, 4);
    let mut tracker = UtilizationTracker::new(&fabric);
    tracker.record_execution(&[(0, 0), (0, 1)], 2);
    let mut oracle = ExactPolicy::new(1);
    let footprint = [(0, 0), (0, 1)];
    let legal = LegalPivots::new(&fabric, &footprint, &[], None);
    let req = AllocRequest {
        fabric: &fabric,
        config_switch: true,
        footprint: &footprint,
        tracker: &tracker,
        legal: &legal,
    };
    let off = oracle.next_offset(&req).expect("pristine 3×3 allocates");
    assert_ne!(off, Offset::ORIGIN);
}
