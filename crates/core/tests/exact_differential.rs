//! Differential properties for the exact-mapping oracle (DESIGN.md §15).
//!
//! The oracle's decision, which `solve` answers with a direct argmin, is
//! pinned on fabrics up to 4×8 against a brute-force leximin argmin: the
//! oracle really is the per-decision optimum the gap table measures
//! against.

use proptest::prelude::*;

use cgra::op::{MulFunc, OpKind};
use cgra::{CellClass, ClassMap, Fabric, FaultMask, Offset};
use solve::{solve, OffsetProblem};
use uaware::{AllocRequest, AllocationPolicy, ExactPolicy, LegalPivots, UtilizationTracker};

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
        let p = OffsetProblem::new(&fabric, &footprint, &loads, |o| {
            brute_force_legal(&fabric, &mask, &footprint, demands, o)
        });
        match solve(&p) {
            None => prop_assert_eq!(p.choices(), 0, "solver gave up on a feasible instance"),
            Some((choice, hot)) => {
                prop_assert_eq!(choice, brute_force_leximin_argmin(&p));
                let mut achieved = loads.clone();
                for &(res, d) in p.deltas(choice) {
                    achieved[res as usize] += d;
                }
                let before = loads.iter().copied().max().unwrap();
                prop_assert_eq!(achieved.into_iter().max().unwrap(), before.max(hot));
            }
        }
    }
}

/// The doc-example shape, pinned: a warm corner pushes the oracle off it.
#[test]
fn oracle_dodges_warm_cells_deterministically() {
    let fabric = Fabric::new(3, 4);
    let mut tracker = UtilizationTracker::new(&fabric);
    tracker.record_execution(&[(0, 0), (0, 1)], 2);
    let mut oracle = ExactPolicy::default();
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
