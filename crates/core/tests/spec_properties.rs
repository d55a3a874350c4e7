//! Property tests for the declarative spec layer (DESIGN.md §8): every
//! spec-built policy honours the offset contract on arbitrary fabrics, and
//! the compact string grammar round-trips losslessly.

use proptest::prelude::*;

use cgra::op::{AluFunc, LoadFunc, MulFunc, OpKind, StoreFunc};
use cgra::{CellClass, ClassMap, Fabric, FabricSpec, FaultMask, Offset};
use uaware::{
    AllocRequest, LegalPivots, MovementGranularity, PatternSpec, PolicySpec, UtilizationTracker,
};

fn any_fabric() -> impl Strategy<Value = Fabric> {
    ((1u32..=8), (4u32..=32)).prop_map(|(r, c)| Fabric::new(r, c))
}

fn any_class_map() -> impl Strategy<Value = ClassMap> {
    prop_oneof![
        Just(ClassMap::Uniform(CellClass::Full)),
        Just(ClassMap::Uniform(CellClass::Alu)),
        Just(ClassMap::Uniform(CellClass::AluMem)),
        Just(ClassMap::Uniform(CellClass::AluMul)),
        Just(ClassMap::Checker),
        Just(ClassMap::RowStripes),
        Just(ClassMap::ColStripes),
    ]
}

fn any_fabric_spec() -> impl Strategy<Value = FabricSpec> {
    ((1u32..=64), (1u32..=64), any_class_map(), (1u16..=64), (0u32..=8)).prop_map(
        |(rows, cols, classes, ctx_lines, col_bandwidth)| FabricSpec {
            rows,
            cols,
            classes,
            ctx_lines,
            col_bandwidth,
        },
    )
}

/// A buildable heterogeneous fabric (geometry large enough for memory ops).
fn any_het_fabric() -> impl Strategy<Value = Fabric> {
    ((1u32..=8), (4u32..=32), any_class_map(), (0u32..=4)).prop_map(|(r, c, classes, bw)| {
        let mut fabric = Fabric::new(r, c);
        fabric.classes = classes;
        fabric.col_bandwidth = bw;
        fabric
    })
}

fn any_op_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Alu(AluFunc::Add)),
        Just(OpKind::Mul(MulFunc::Mul)),
        Just(OpKind::Load { func: LoadFunc::W, offset: 0 }),
        Just(OpKind::Store { func: StoreFunc::W, offset: 0 }),
    ]
}

fn any_granularity() -> impl Strategy<Value = MovementGranularity> {
    prop_oneof![
        Just(MovementGranularity::PerExecution),
        Just(MovementGranularity::PerLoad),
        (0u32..=512).prop_map(MovementGranularity::Periodic),
    ]
}

fn any_pattern() -> impl Strategy<Value = PatternSpec> {
    prop_oneof![Just(PatternSpec::Snake), Just(PatternSpec::Raster), Just(PatternSpec::ColumnMajor),]
}

fn any_spec() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Baseline),
        Just(PolicySpec::HealthAware),
        (0u64..=u64::MAX).prop_map(|seed| PolicySpec::Random { seed }),
        (any_pattern(), any_granularity())
            .prop_map(|(pattern, granularity)| PolicySpec::Rotation { pattern, granularity }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spec_strings_round_trip(spec in any_spec()) {
        let s = spec.to_string();
        let back: PolicySpec = s.parse().unwrap_or_else(|e| panic!("`{s}`: {e}"));
        prop_assert_eq!(back, spec, "{}", s);
        // Display is canonical: re-displaying the parsed value is stable.
        prop_assert_eq!(back.to_string(), s);
    }

    #[test]
    fn spec_built_policies_stay_in_range(
        (fabric, spec) in (any_fabric(), any_spec()),
        switches in proptest::collection::vec(0u8..=1, 16..=64),
    ) {
        let mut policy = spec.build();
        prop_assert_eq!(policy.name(), spec.to_string());
        prop_assert_eq!(policy.needs_movement(), spec.needs_movement());
        let mut tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32), (0, 1 % fabric.cols), (1 % fabric.rows, 0)];
        let legal = LegalPivots::new(&fabric, &footprint, &[], None);
        for cs in switches {
            let off = {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: cs == 1,
                    footprint: &footprint,
                    tracker: &tracker,
                    legal: &legal,
                };
                policy.next_offset(&req).expect("pristine fabric always allocates")
            };
            prop_assert!(off.in_range(&fabric), "{}: offset {} out of range", spec, off);
            let cells: Vec<(u32, u32)> =
                footprint.iter().map(|&(r, c)| off.apply(&fabric, r, c)).collect();
            tracker.record_execution(&cells, 2);
        }
    }

    #[test]
    fn spec_built_policies_respect_fault_masks(
        (fabric, spec) in (any_fabric(), any_spec()),
        dead in proptest::collection::vec((0u32..8, 0u32..32), 0..=12),
        switches in proptest::collection::vec(0u8..=1, 8..=24),
    ) {
        // Whatever the mask, a policy either returns a placement that only
        // touches live FUs or reports allocation exhaustion — it never
        // silently lands work on dead silicon (DESIGN.md §11).
        let mut mask = cgra::FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        let mut policy = spec.build();
        let mut tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32), (0, 1 % fabric.cols)];
        let legal = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
        for cs in switches {
            let off = {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: cs == 1,
                    footprint: &footprint,
                    tracker: &tracker,
                    legal: &legal,
                };
                policy.next_offset(&req)
            };
            match off {
                Some(off) => {
                    prop_assert!(off.in_range(&fabric));
                    let cells: Vec<(u32, u32)> =
                        footprint.iter().map(|&(r, c)| off.apply(&fabric, r, c)).collect();
                    for &(r, c) in &cells {
                        prop_assert!(!mask.is_dead(r, c),
                            "{}: placed on dead FU ({r},{c})", spec);
                    }
                    tracker.record_execution(&cells, 2);
                }
                None => {
                    // Exhaustion must be real for movement policies: no
                    // offset anywhere fits the footprint. (The baseline is
                    // pinned to the origin, so its only option is the one
                    // that just failed.)
                    if spec.needs_movement() {
                        prop_assert!(!mask.any_placement(&fabric, &footprint),
                            "{}: gave up although a legal placement exists", spec);
                    }
                }
            }
        }
    }

    #[test]
    fn fabric_spec_strings_round_trip(spec in any_fabric_spec()) {
        // (a) `FabricSpec` ⇄ string round-trips for arbitrary geometries and
        // mixes (DESIGN.md §14), mirroring the policy-spec guarantee.
        let s = spec.to_string();
        let back: FabricSpec = s.parse().unwrap_or_else(|e| panic!("`{s}`: {e}"));
        prop_assert_eq!(back, spec, "{}", s);
        // Display is canonical: re-displaying the parsed value is stable.
        prop_assert_eq!(back.to_string(), s);
        // JSON survives too.
        let json = serde_json::to_string(&spec).unwrap();
        prop_assert_eq!(serde_json::from_str::<FabricSpec>(&json).unwrap(), spec, "{}", json);
        // And a built fabric reduces back to the very same spec.
        if let Ok(fabric) = spec.build() {
            prop_assert_eq!(FabricSpec::from_fabric(&fabric), spec);
        }
    }

    #[test]
    fn spec_built_policies_respect_capabilities_and_faults(
        (fabric, spec) in (any_het_fabric(), any_spec()),
        dead in proptest::collection::vec((0u32..8, 0u32..32), 0..=10),
        switches in proptest::collection::vec(0u8..=1, 8..=24),
    ) {
        // (b) On any heterogeneous fabric with faults, every policy-returned
        // offset satisfies both the capability and the fault `placement_ok`
        // (DESIGN.md §11 + §14); `None` must mean no offset satisfies both.
        let mut mask = cgra::FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        let footprint = [(0u32, 0u32), (0, 1 % fabric.cols), (1 % fabric.rows, 2 % fabric.cols)];
        let demands = [
            (0u32, 0u32, OpKind::Mul(MulFunc::Mul)),
            (1 % fabric.rows, 2 % fabric.cols, OpKind::Load { func: LoadFunc::W, offset: 0 }),
        ];
        let legal = |off: Offset| {
            demands.iter().all(|&(r, c, kind)| {
                let (pr, pc) = off.apply(&fabric, r, c);
                fabric.supports(pr, pc, kind)
            }) && footprint.iter().all(|&(r, c)| {
                let (pr, pc) = off.apply(&fabric, r, c);
                !mask.is_dead(pr, pc)
            })
        };
        let mut policy = spec.build();
        let mut tracker = UtilizationTracker::new(&fabric);
        let table = LegalPivots::new(&fabric, &footprint, &demands, Some(&mask));
        for cs in switches {
            let off = {
                let req = AllocRequest {
                    fabric: &fabric,
                    config_switch: cs == 1,
                    footprint: &footprint,
                    tracker: &tracker,
                    legal: &table,
                };
                policy.next_offset(&req)
            };
            match off {
                Some(off) => {
                    prop_assert!(off.in_range(&fabric));
                    prop_assert!(legal(off),
                        "{}: offset {} violates capability or fault constraints", spec, off);
                    let cells: Vec<(u32, u32)> =
                        footprint.iter().map(|&(r, c)| off.apply(&fabric, r, c)).collect();
                    tracker.record_execution(&cells, 2);
                }
                None if spec.needs_movement() => {
                    // Exhaustion must be real: no pivot anywhere satisfies
                    // both constraint families.
                    let any_legal = (0..fabric.rows)
                        .flat_map(|r| (0..fabric.cols).map(move |c| Offset::new(r, c)))
                        .any(legal);
                    prop_assert!(!any_legal,
                        "{}: gave up although a legal placement exists", spec);
                }
                None => {
                    prop_assert!(!legal(Offset::ORIGIN),
                        "{}: baseline gave up although its origin is legal", spec);
                }
            }
        }
    }

    #[test]
    fn legal_pivots_match_the_brute_force_predicate(
        fabric in any_het_fabric(),
        dead in proptest::collection::vec((0u32..8, 0u32..32), 0..=10),
        footprint in proptest::collection::vec((0u32..8, 0u32..32), 0..=6),
        demands in proptest::collection::vec((0u32..8, 0u32..32, any_op_kind()), 0..=3),
        with_mask in 0u8..=1,
    ) {
        // The table `System` builds at insertion must agree with the
        // predicate it replaces at every pivot, and walk and index exactly
        // the legal pivots in row-major order (DESIGN.md §11, §14).
        let mut mask = FaultMask::healthy(&fabric);
        for (r, c) in dead {
            mask.mark_dead(r % fabric.rows, c % fabric.cols);
        }
        let footprint: Vec<(u32, u32)> =
            footprint.into_iter().map(|(r, c)| (r % fabric.rows, c % fabric.cols)).collect();
        let demands: Vec<(u32, u32, OpKind)> = demands
            .into_iter()
            .map(|(r, c, kind)| (r % fabric.rows, c % fabric.cols, kind))
            .collect();
        let faults = (with_mask == 1).then_some(&mask);
        let brute_force = |o: Offset| {
            faults.is_none_or(|m| m.placement_ok(&fabric, &footprint, o))
                && demands.iter().all(|&(r, c, kind)| {
                    let (pr, pc) = o.apply(&fabric, r, c);
                    fabric.supports(pr, pc, kind)
                })
        };
        let legal = LegalPivots::new(&fabric, &footprint, &demands, faults);
        let expected: Vec<Offset> = (0..fabric.rows)
            .flat_map(|r| (0..fabric.cols).map(move |c| Offset::new(r, c)))
            .filter(|&o| brute_force(o))
            .collect();
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                let o = Offset::new(row, col);
                prop_assert_eq!(legal.allows(o), brute_force(o), "pivot {}", o);
            }
        }
        let walked: Option<Vec<Offset>> = legal.iter().map(Iterator::collect);
        match walked {
            Some(list) => {
                prop_assert_eq!(&list, &expected);
                prop_assert_eq!(legal.count(), Some(expected.len()));
                for (k, &o) in expected.iter().enumerate() {
                    prop_assert_eq!(legal.nth(k), Some(o), "index {}", k);
                }
                prop_assert_eq!(legal.nth(expected.len()), None);
            }
            None => prop_assert_eq!(expected.len() as u32, fabric.fu_count(),
                "an unconstrained table must mean every pivot is legal"),
        }
    }

    #[test]
    fn all_specs_are_distinct_and_round_trip(fabric in any_fabric()) {
        let specs = PolicySpec::all_specs(&fabric);
        for (i, a) in specs.iter().enumerate() {
            prop_assert_eq!(a.to_string().parse::<PolicySpec>().unwrap(), *a);
            for b in &specs[i + 1..] {
                prop_assert_ne!(a, b, "duplicate sweep point {}", a);
            }
        }
    }
}
