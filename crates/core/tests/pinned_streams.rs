//! Pinned decision streams: the exact offsets every policy produced on
//! uniform pristine fabrics *before* heterogeneous fabrics existed. The
//! literals below were captured from the pre-`FabricSpec` implementation;
//! any refactor of the allocation path must keep them bit-identical —
//! whether or not the request carries capability demands or a healthy fault
//! mask (ISSUE 8 acceptance, DESIGN.md §14).

use cgra::op::{LoadFunc, MulFunc, OpKind};
use cgra::{Fabric, FaultMask};
use uaware::{
    AllocRequest, AllocationPolicy, BaselinePolicy, ExactPolicy, HealthAwarePolicy, LegalPivots,
    RandomPolicy, RotationPolicy, Snake, UtilizationTracker,
};

/// The decision stream captured on the pre-heterogeneity implementation:
/// `RandomPolicy::seeded(0xDAC2020)` on the uniform BE fabric.
const PINNED_RANDOM: [(u32, u32); 12] = [
    (0, 4),
    (0, 8),
    (0, 4),
    (0, 2),
    (0, 10),
    (0, 9),
    (0, 13),
    (1, 4),
    (0, 13),
    (0, 12),
    (0, 11),
    (1, 3),
];

fn warmed_tracker(fabric: &Fabric) -> UtilizationTracker {
    let mut tracker = UtilizationTracker::new(fabric);
    for i in 0..6u32 {
        tracker.record_execution(&[(i % 2, i % 16), (i % 2, (i + 1) % 16)], 2);
    }
    tracker
}

fn stream(policy: &mut dyn AllocationPolicy, req: &AllocRequest<'_>, n: usize) -> Vec<(u32, u32)> {
    (0..n).map(|_| policy.next_offset(req).map(|o| (o.row, o.col)).unwrap()).collect()
}

fn assert_pinned(req: &AllocRequest<'_>, label: &str) {
    assert_eq!(
        stream(&mut BaselinePolicy, req, 4),
        vec![(0, 0); 4],
        "baseline stream changed ({label})"
    );
    assert_eq!(
        stream(&mut RotationPolicy::new(Snake), req, 12),
        (0..12).map(|c| (0, c)).collect::<Vec<_>>(),
        "rotation stream changed ({label})"
    );
    assert_eq!(
        stream(&mut RandomPolicy::seeded(0xDAC2020), req, 12),
        PINNED_RANDOM.to_vec(),
        "random stream changed ({label})"
    );
    assert_eq!(
        stream(&mut HealthAwarePolicy, req, 4),
        vec![(0, 7); 4],
        "health-aware stream changed ({label})"
    );
}

#[test]
fn uniform_pristine_streams_match_the_pre_heterogeneity_capture() {
    let fabric = Fabric::be();
    let tracker = warmed_tracker(&fabric);
    let footprint = [(0u32, 0u32), (0, 1), (1, 0)];
    let no_constraints = LegalPivots::new(&fabric, &footprint, &[], None);
    let bare = AllocRequest {
        fabric: &fabric,
        config_switch: false,
        footprint: &footprint,
        tracker: &tracker,
        legal: &no_constraints,
    };
    assert_pinned(&bare, "bare request");

    // Capability demands on a *uniform* fabric must not perturb a single
    // decision — the DESIGN.md §14 fast path.
    let demands = [
        (0u32, 0u32, OpKind::Mul(MulFunc::Mul)),
        (1, 0, OpKind::Load { func: LoadFunc::W, offset: 0 }),
    ];
    let with_demands = LegalPivots::new(&fabric, &footprint, &demands, None);
    assert_pinned(&AllocRequest { legal: &with_demands, ..bare }, "with demands");

    // Neither must a healthy fault mask (the PR-5 guarantee), alone or
    // combined with demands.
    let mask = FaultMask::healthy(&fabric);
    let with_mask = LegalPivots::new(&fabric, &footprint, &[], Some(&mask));
    assert_pinned(&AllocRequest { legal: &with_mask, ..bare }, "with healthy mask");
    let with_both = LegalPivots::new(&fabric, &footprint, &demands, Some(&mask));
    assert_pinned(&AllocRequest { legal: &with_both, ..bare }, "with healthy mask and demands");
}

/// The exact oracle's decision stream on the same warmed fixture, captured
/// when the branch-and-bound core landed (DESIGN.md §15): a jointly-planned
/// 12-slot epoch spreading the footprint leximin-optimally over the BE
/// fabric's cold cells.
const PINNED_EXACT_EPOCH: [(u32, u32); 12] = [
    (0, 7),
    (0, 9),
    (0, 11),
    (0, 13),
    (1, 15),
    (0, 5),
    (0, 8),
    (0, 10),
    (0, 12),
    (0, 14),
    (0, 0),
    (0, 2),
];

#[test]
fn exact_streams_match_the_branch_and_bound_capture() {
    let fabric = Fabric::be();
    let tracker = warmed_tracker(&fabric);
    let footprint = [(0u32, 0u32), (0, 1), (1, 0)];
    let no_constraints = LegalPivots::new(&fabric, &footprint, &[], None);
    let bare = AllocRequest {
        fabric: &fabric,
        config_switch: false,
        footprint: &footprint,
        tracker: &tracker,
        legal: &no_constraints,
    };
    let assert_exact = |req: &AllocRequest<'_>, label: &str| {
        // Re-solving against a static tracker is a fixed point: the greedy
        // oracle keeps electing the same leximin-optimal pivot.
        assert_eq!(
            stream(&mut ExactPolicy::new(1), req, 4),
            vec![(0, 7); 4],
            "exact stream changed ({label})"
        );
        assert_eq!(
            stream(&mut ExactPolicy::new(12), req, 12),
            PINNED_EXACT_EPOCH.to_vec(),
            "exact@every-12 stream changed ({label})"
        );
    };
    assert_exact(&bare, "bare request");
    // Like the heuristics, the oracle must not let uniform-fabric demands
    // or a healthy mask perturb a single decision (DESIGN.md §14).
    let demands = [
        (0u32, 0u32, OpKind::Mul(MulFunc::Mul)),
        (1, 0, OpKind::Load { func: LoadFunc::W, offset: 0 }),
    ];
    let mask = FaultMask::healthy(&fabric);
    let with_demands = LegalPivots::new(&fabric, &footprint, &demands, None);
    assert_exact(&AllocRequest { legal: &with_demands, ..bare }, "with demands");
    let with_both = LegalPivots::new(&fabric, &footprint, &demands, Some(&mask));
    assert_exact(&AllocRequest { legal: &with_both, ..bare }, "with healthy mask and demands");
}

#[test]
fn fabric_uniform_streams_match_fabric_new() {
    // `Fabric::uniform` must be indistinguishable from the historical
    // constructor all the way down to the decision streams.
    let fabric = Fabric::uniform(2, 16);
    assert_eq!(fabric, Fabric::be());
    let tracker = warmed_tracker(&fabric);
    let footprint = [(0u32, 0u32), (0, 1), (1, 0)];
    let legal = LegalPivots::new(&fabric, &footprint, &[], None);
    let req = AllocRequest {
        fabric: &fabric,
        config_switch: false,
        footprint: &footprint,
        tracker: &tracker,
        legal: &legal,
    };
    assert_pinned(&req, "Fabric::uniform");
}
