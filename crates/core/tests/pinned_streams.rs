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
    MovementGranularity, PatternSpec, PolicySpec, RandomPolicy, RotationPolicy, UtilizationTracker,
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
        stream(&mut RotationPolicy::new(PatternSpec::Snake), req, 12),
        (0..12).map(|c| (0, c)).collect::<Vec<_>>(),
        "rotation stream changed ({label})"
    );
    assert_eq!(
        stream(&mut RandomPolicy::seeded(0xDAC2020), req, 12),
        PINNED_RANDOM.to_vec(),
        "random stream changed ({label})"
    );
    assert_eq!(
        stream(&mut HealthAwarePolicy::default(), req, 4),
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
            stream(&mut ExactPolicy::default(), req, 4),
            vec![(0, 7); 4],
            "exact stream changed ({label})"
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

/// 64-bit FNV-1a over a decision stream, a dead end (`None`) hashed as
/// `u32::MAX` twice.
fn fnv(stream: &[Option<(u32, u32)>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(row, col) in stream.iter().map(|d| d.as_ref().unwrap_or(&(u32::MAX, u32::MAX))) {
        for byte in row.to_le_bytes().into_iter().chain(col.to_le_bytes()) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One fabric of a closed-loop capture: a policy decision per round, each
/// pick recorded into the fabric's own tracker.
struct Loop {
    label: &'static str,
    fabric: Fabric,
    tracker: UtilizationTracker,
    footprint: Vec<(u32, u32)>,
    legal: LegalPivots,
    stream: Vec<Option<(u32, u32)>>,
}

impl Loop {
    fn new(
        label: &'static str,
        fabric: Fabric,
        footprint: Vec<(u32, u32)>,
        demands: &[(u32, u32, OpKind)],
        mask: Option<&FaultMask>,
        warm: u32,
    ) -> Loop {
        // An uneven start: `warm` single-cell executions at LCG-drawn cells.
        let mut tracker = UtilizationTracker::new(&fabric);
        let mut x = 0x2545_f491u32;
        for _ in 0..warm {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let cell = (x >> 8) % fabric.fu_count();
            tracker.record_execution(&[(cell / fabric.cols, cell % fabric.cols)], 1);
        }
        let legal = LegalPivots::new(&fabric, &footprint, demands, mask);
        Loop { label, fabric, tracker, footprint, legal, stream: Vec::new() }
    }

    fn decide(&mut self, policy: &mut dyn AllocationPolicy, config_switch: bool) {
        let req = AllocRequest {
            fabric: &self.fabric,
            config_switch,
            footprint: &self.footprint,
            tracker: &self.tracker,
            legal: &self.legal,
        };
        let pick = policy.next_offset(&req);
        if let Some(o) = pick {
            let placed: Vec<(u32, u32)> =
                self.footprint.iter().map(|&(r, c)| o.apply(&self.fabric, r, c)).collect();
            self.tracker.record_execution(&placed, 1);
        }
        self.stream.push(pick.map(|o| (o.row, o.col)));
    }
}

/// Health-aware decision streams in a closed loop, captured before the
/// scan moved to a padded stress grid (DESIGN.md §7): 64 rounds on four
/// fabrics, one policy instance deciding for all four in turn so its
/// scratch buffers switch geometry on every decision.
///
/// Each entry is the stream's FNV-1a (`fnv`) and its first eight picks.
const PINNED_CLOSED_LOOP: [(u64, [(u32, u32); 8]); 4] = [
    (0xae42_df99_682c_0c9a, [(0, 0), (0, 1), (0, 10), (1, 12), (0, 0), (0, 2), (0, 4), (0, 6)]),
    (0x3a3c_f090_2b64_f78f, [(0, 19), (0, 26), (1, 28), (5, 18), (0, 0), (0, 1), (0, 2), (0, 3)]),
    (0x8ec5_2478_b806_7091, [(1, 5), (0, 0), (1, 5), (1, 7), (3, 3), (0, 0), (0, 2), (0, 4)]),
    (0x1483_7c35_58c6_0d62, [(0, 7), (0, 7), (0, 4), (0, 7), (1, 2), (0, 4), (0, 7), (0, 4)]),
];

/// A fabric's label, its stream's FNV-1a and its first eight picks.
type Capture = (String, u64, Vec<(u32, u32)>);

#[test]
fn health_aware_closed_loop_streams_match_the_wrapping_scan_capture() {
    let mul = OpKind::Mul(MulFunc::Mul);
    let mut dead = FaultMask::healthy(&Fabric::new(4, 8));
    for (r, c) in [(0, 3), (1, 6), (2, 1), (3, 4)] {
        dead.mark_dead(r, c);
    }
    let het = "4x8:het-checker".parse::<cgra::FabricSpec>().unwrap().build().unwrap();
    let mut loops = [
        Loop::new("be", Fabric::be(), vec![(0, 0), (0, 1), (1, 0), (1, 2), (0, 3)], &[], None, 20),
        // 16 cells reaching the last row and column: every pivot but the
        // origin wraps rows, columns or both.
        Loop::new(
            "bu",
            Fabric::bu(),
            (0..16u32).map(|i| ((i * 3) % 8, (i * 13 + 5) % 32)).collect(),
            &[],
            None,
            300,
        ),
        Loop::new(
            "4x8:het-checker",
            het,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)],
            &[(0, 0, mul)],
            None,
            40,
        ),
        Loop::new(
            "4x8, 4 dead",
            Fabric::new(4, 8),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)],
            &[],
            Some(&dead),
            40,
        ),
    ];
    assert!(loops[2].legal.count().is_some_and(|n| n > 0 && n < 32));
    assert!(loops[3].legal.count().is_some_and(|n| n > 0 && n < 32));
    let mut policy = HealthAwarePolicy::default();
    for _ in 0..64 {
        for l in &mut loops {
            l.decide(&mut policy, false);
        }
    }
    let got: Vec<Capture> = loops
        .iter()
        .map(|l| {
            (
                l.label.to_string(),
                fnv(&l.stream),
                l.stream[..8].iter().map(|d| d.unwrap()).collect(),
            )
        })
        .collect();
    let pinned: Vec<Capture> = loops
        .iter()
        .zip(&PINNED_CLOSED_LOOP)
        .map(|(l, &(hash, head))| (l.label.to_string(), hash, head.to_vec()))
        .collect();
    assert_eq!(got, pinned, "closed-loop health-aware streams changed");
}

/// The BE fabric and a 4×8 fabric with four dead FUs, each with an uneven
/// warm start: the rotation walks the first without a skip and must step
/// past dead pivots on the second.
fn rotation_loops() -> [Loop; 2] {
    let mut dead = FaultMask::healthy(&Fabric::new(4, 8));
    for (r, c) in [(0, 3), (1, 6), (2, 1), (3, 4)] {
        dead.mark_dead(r, c);
    }
    let loops = [
        Loop::new("be", Fabric::be(), vec![(0, 0), (0, 1), (1, 0), (1, 2), (0, 3)], &[], None, 20),
        Loop::new(
            "4x8, 4 dead",
            Fabric::new(4, 8),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)],
            &[],
            Some(&dead),
            40,
        ),
    ];
    assert!(loops[1].legal.count().is_some_and(|n| n > 0 && n < 32));
    loops
}

/// Rotation decision streams in a closed loop, captured while patterns were
/// still trait objects: every pattern × granularity on both
/// `rotation_loops` fabrics, two coverage periods long, with
/// `config_switch` flipping every five decisions. Rows run pattern-major
/// (snake, raster, column-major), then granularity (per-exec, per-load,
/// every-3), then fabric.
///
/// Each entry is the stream's FNV-1a (`fnv`) and its first eight picks.
const PINNED_ROTATION: [(u64, [(u32, u32); 8]); 18] = [
    (0x7398_de8a_5925_5325, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]),
    (0x5b08_6631_c459_4d63, [(0, 4), (0, 7), (1, 7), (1, 2), (2, 5), (2, 6), (3, 7), (3, 6)]),
    (0x8d53_834b_f8d0_6e99, [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (0, 2), (0, 3)]),
    (0x8f67_4fd0_4e00_3970, [(0, 4), (0, 4), (0, 4), (0, 4), (0, 4), (0, 7), (1, 7), (1, 2)]),
    (0xdb98_a207_dc1e_e3d4, [(0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (0, 2), (0, 2)]),
    (0x8b2d_9b41_f270_9e76, [(0, 4), (0, 4), (0, 4), (0, 7), (0, 7), (0, 7), (1, 7), (1, 7)]),
    (0xa9e4_cc31_269c_d325, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]),
    (0xacb6_fba1_baf1_3ee3, [(0, 4), (0, 7), (1, 2), (1, 7), (2, 5), (2, 6), (3, 0), (3, 1)]),
    (0xfffb_06cb_04c8_1566, [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (0, 2), (0, 3)]),
    (0x92d8_279c_84ec_2af0, [(0, 4), (0, 4), (0, 4), (0, 4), (0, 4), (0, 7), (1, 2), (1, 7)]),
    (0x7c4b_1b08_104c_0b54, [(0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 1), (0, 2), (0, 2)]),
    (0x8767_ce3d_8e22_7e76, [(0, 4), (0, 4), (0, 4), (0, 7), (0, 7), (0, 7), (1, 2), (1, 2)]),
    (0x7e6e_0b51_bf8e_6325, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
    (0xeb86_3ff4_9415_7c93, [(3, 0), (3, 1), (1, 2), (0, 4), (2, 5), (2, 6), (3, 6), (0, 7)]),
    (0xfd78_7093_790b_691c, [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (1, 1)]),
    (0x7afa_068a_3e10_f737, [(3, 0), (3, 0), (3, 0), (3, 0), (3, 0), (3, 1), (1, 2), (0, 4)]),
    (0x625c_a5c7_5037_1164, [(0, 0), (0, 0), (0, 0), (1, 0), (1, 0), (1, 0), (0, 1), (0, 1)]),
    (0xddcc_f2b6_f54d_9c14, [(3, 0), (3, 0), (3, 0), (3, 1), (3, 1), (3, 1), (1, 2), (1, 2)]),
];

#[test]
fn rotation_closed_loop_streams_match_the_trait_pattern_capture() {
    let granularities = [
        MovementGranularity::PerExecution,
        MovementGranularity::PerLoad,
        MovementGranularity::Periodic(3),
    ];
    let mut got: Vec<Capture> = Vec::new();
    for pattern in PatternSpec::ALL {
        for granularity in granularities {
            let spec = PolicySpec::Rotation { pattern, granularity };
            for mut l in rotation_loops() {
                let mut policy = spec.build();
                for i in 0..2 * l.fabric.fu_count() {
                    l.decide(policy.as_mut(), (i / 5) % 2 == 1);
                }
                let head = l.stream[..8].iter().map(|d| d.unwrap()).collect::<Vec<_>>();
                got.push((format!("{spec} on {}", l.label), fnv(&l.stream), head));
            }
        }
    }
    let pinned: Vec<Capture> = got
        .iter()
        .zip(&PINNED_ROTATION)
        .map(|((label, ..), &(hash, head))| (label.clone(), hash, head.to_vec()))
        .collect();
    assert_eq!(got, pinned, "closed-loop rotation streams changed");
}

/// A footprint and its legal pivots.
type Turn = (Vec<(u32, u32)>, LegalPivots);

/// A closed-loop pin: FNV-1a, first eight picks, and the policy's counts.
type ExactPin = (u64, [(u32, u32); 8], [u64; 2]);

/// The exact oracle's closed-loop fabrics: `2x8`, `4x8`, `4x8+bw-2`,
/// `4x8:het-checker` with a mul demand on every footprint's first cell,
/// and `4x8` with four dead FUs. Each fabric comes with ten footprints of
/// one to six cells (repeated cells included) and their legal pivots.
fn exact_loops() -> Vec<(Loop, Vec<Turn>)> {
    let mul = OpKind::Mul(MulFunc::Mul);
    let mut dead = FaultMask::healthy(&Fabric::new(4, 8));
    for (r, c) in [(0, 3), (1, 6), (2, 1), (3, 4)] {
        dead.mark_dead(r, c);
    }
    let fabric = |spec: &str| spec.parse::<cgra::FabricSpec>().unwrap().build().unwrap();
    let fabrics = [
        ("2x8", fabric("2x8"), false, None),
        ("4x8", fabric("4x8"), false, None),
        ("4x8+bw-2", fabric("4x8+bw-2"), false, None),
        ("4x8:het-checker", fabric("4x8:het-checker"), true, None),
        ("4x8, 4 dead", fabric("4x8"), false, Some(&dead)),
    ];
    let mut x = 0x9e37_79b9u32;
    fabrics
        .into_iter()
        .map(|(label, fabric, demand, mask)| {
            let footprints: Vec<_> = (0..10)
                .map(|i| {
                    let cells: Vec<(u32, u32)> = (0..1 + i % 6)
                        .map(|_| {
                            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                            let cell = (x >> 8) % (fabric.rows * 4);
                            (cell / 4, cell % 4)
                        })
                        .collect();
                    let demands: Vec<_> =
                        if demand { vec![(cells[0].0, cells[0].1, mul)] } else { Vec::new() };
                    let legal = LegalPivots::new(&fabric, &cells, &demands, mask);
                    assert_ne!(legal.count(), Some(0), "{label}: footprint {i} has a pivot");
                    (cells, legal)
                })
                .collect();
            let (first, legal) = footprints[0].clone();
            let mut l = Loop::new(label, fabric, first, &[], mask, 40);
            l.legal = legal;
            (l, footprints)
        })
        .collect()
}

/// Exact-oracle decision streams in a closed loop, captured while the
/// oracle kept a single `OffsetProblem`: `exact`, one policy per
/// `exact_loops` fabric, 120 decisions each. The footprints take turns in
/// LCG-drawn runs of one to four decisions, in an irregular order, so a
/// kept-problem cache smaller than ten entries must evict.
///
/// Each entry is the stream's FNV-1a (`fnv`), its first eight picks, and
/// the policy's counts: solve calls, then infeasible solves.
const PINNED_EXACT_LOOPS: [ExactPin; 5] = [
    (
        0x3218_1b4e_f167_32a1,
        [(0, 7), (1, 5), (0, 7), (0, 1), (0, 3), (0, 0), (0, 3), (1, 1)],
        [122, 0],
    ),
    (
        0xde75_1912_84b0_7ad7,
        [(0, 4), (1, 0), (1, 5), (1, 6), (2, 1), (3, 1), (0, 0), (1, 3)],
        [122, 0],
    ),
    (
        0x41cf_1267_f9cf_1bb5,
        [(2, 5), (0, 2), (0, 4), (0, 5), (1, 1), (3, 0), (0, 2), (2, 5)],
        [122, 0],
    ),
    (
        0x0780_6ca4_7f75_2135,
        [(0, 5), (1, 0), (1, 2), (2, 5), (0, 1), (1, 0), (0, 1), (0, 3)],
        [122, 0],
    ),
    (
        0x9a5e_a984_239c_cbb5,
        [(0, 6), (1, 5), (2, 0), (0, 5), (0, 1), (0, 1), (0, 3), (1, 2)],
        [122, 0],
    ),
];

#[test]
fn exact_closed_loop_streams_match_the_single_problem_capture() {
    let mut got = Vec::new();
    for (mut l, footprints) in exact_loops() {
        let mut policy = PolicySpec::Exact { every: 1 }.build();
        let mut x = 0x2f6b_1d3du32;
        while l.stream.len() < 120 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let (cells, legal) = &footprints[(x >> 8) as usize % footprints.len()];
            l.footprint.clone_from(cells);
            l.legal.clone_from(legal);
            for _ in 0..1 + (x >> 20) % 4 {
                l.decide(policy.as_mut(), false);
            }
        }
        let head: Vec<_> = l.stream[..8].iter().map(|d| d.unwrap()).collect();
        let c = policy.counts();
        let counts = [c.solve_calls, c.solve_infeasible];
        got.push((format!("exact on {}", l.label), fnv(&l.stream), head, counts));
    }
    let pinned: Vec<_> = got
        .iter()
        .zip(&PINNED_EXACT_LOOPS)
        .map(|((label, ..), &(hash, head, counts))| (label.clone(), hash, head.to_vec(), counts))
        .collect();
    assert_eq!(got, pinned, "closed-loop exact streams changed");
}
