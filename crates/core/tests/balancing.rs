//! Property tests for the contribution crate: rotation converges to
//! near-uniform utilization for arbitrary configuration footprints, and the
//! policies respect their contracts.

use proptest::prelude::*;

use cgra::{Fabric, Offset};
use uaware::{
    AllocRequest, AllocationPolicy, BaselinePolicy, HealthAwarePolicy, LegalPivots, PatternSpec,
    RotationPolicy, UtilizationTracker,
};

fn any_fabric() -> impl Strategy<Value = Fabric> {
    ((1u32..=8), (4u32..=32)).prop_map(|(r, c)| Fabric::new(r, c))
}

/// A random, connected-ish footprint of up to 8 cells inside the fabric.
fn any_footprint(fabric: Fabric) -> impl Strategy<Value = Vec<(u32, u32)>> {
    let rows = fabric.rows;
    let cols = fabric.cols;
    proptest::collection::btree_set((0u32..rows, 0u32..cols), 1..=8)
        .prop_map(|set| set.into_iter().collect())
}

fn drive(
    policy: &mut dyn AllocationPolicy,
    fabric: &Fabric,
    footprint: &[(u32, u32)],
    executions: u64,
) -> UtilizationTracker {
    let mut tracker = UtilizationTracker::new(fabric);
    let legal = LegalPivots::new(fabric, footprint, &[], None);
    for _ in 0..executions {
        let off = {
            let req = AllocRequest {
                fabric,
                config_switch: false,
                footprint,
                tracker: &tracker,
                legal: &legal,
            };
            policy.next_offset(&req).expect("pristine fabric always allocates")
        };
        assert!(off.in_range(fabric), "{}: offset out of range", policy.name());
        let cells: Vec<(u32, u32)> =
            footprint.iter().map(|&(r, c)| off.apply(fabric, r, c)).collect();
        tracker.record_execution(&cells, 4);
    }
    tracker
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rotation_converges_to_uniformity(
        fabric in any_fabric(),
        seed_footprint in (0u32..8, 0u32..32),
    ) {
        let footprint = vec![(
            seed_footprint.0 % fabric.rows,
            seed_footprint.1 % fabric.cols,
        )];
        // Whole number of pattern periods: every cell visited equally often.
        let periods = 3u64;
        let execs = periods * fabric.fu_count() as u64;
        let mut rotation = RotationPolicy::new(PatternSpec::Snake);
        let tracker = drive(&mut rotation, &fabric, &footprint, execs);
        let grid = tracker.utilization();
        // One-cell footprint + full coverage => exactly uniform utilization.
        prop_assert!((grid.max() - grid.min()).abs() < 1e-9,
            "max {} min {}", grid.max(), grid.min());
        prop_assert!((grid.mean() - 1.0 / fabric.fu_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn rotation_beats_baseline_for_any_footprint(
        (fabric, footprint) in any_fabric().prop_flat_map(|f| {
            any_footprint(f).prop_map(move |fp| (f, fp))
        }),
    ) {
        prop_assume!((footprint.len() as u32) < fabric.fu_count());
        let execs = 4 * fabric.fu_count() as u64;
        let base = drive(&mut BaselinePolicy, &fabric, &footprint, execs).utilization();
        let rot = drive(&mut RotationPolicy::new(PatternSpec::Snake), &fabric, &footprint, execs)
            .utilization();
        prop_assert!(rot.max() < base.max() + 1e-12,
            "rotation {} vs baseline {}", rot.max(), base.max());
        // Baseline concentrates all stress on the footprint.
        prop_assert!((base.max() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn patterns_have_equal_long_run_behaviour(
        fabric in any_fabric(),
    ) {
        // All full-coverage patterns give identical (uniform) long-run
        // distributions for a single-cell footprint.
        let footprint = vec![(0, 0)];
        let execs = 2 * fabric.fu_count() as u64;
        let run = |pattern| {
            drive(&mut RotationPolicy::new(pattern), &fabric, &footprint, execs).utilization()
        };
        let snake = run(PatternSpec::Snake);
        let raster = run(PatternSpec::Raster);
        let colmaj = run(PatternSpec::ColumnMajor);
        prop_assert!((snake.max() - raster.max()).abs() < 1e-12);
        prop_assert!((raster.max() - colmaj.max()).abs() < 1e-12);
        prop_assert!((snake.gini() - raster.gini()).abs() < 1e-9);
    }

    #[test]
    fn health_aware_never_picks_the_hottest_start(
        fabric in any_fabric(),
        hot in (0u32..8, 0u32..32),
    ) {
        prop_assume!(fabric.fu_count() > 1);
        let hot = (hot.0 % fabric.rows, hot.1 % fabric.cols);
        let mut tracker = UtilizationTracker::new(&fabric);
        for _ in 0..5 {
            tracker.record_execution(&[hot], 1);
        }
        let footprint = [(0u32, 0u32)];
        let legal = LegalPivots::new(&fabric, &footprint, &[], None);
        let req = AllocRequest {
            fabric: &fabric,
            config_switch: false,
            footprint: &footprint,
            tracker: &tracker,
            legal: &legal,
        };
        let off = HealthAwarePolicy::default().next_offset(&req).unwrap();
        prop_assert_ne!(off.apply(&fabric, 0, 0), hot,
            "oracle must avoid the stressed cell");
    }

    #[test]
    fn pattern_periods_cover_exactly_once(fabric in any_fabric(), start in 0u64..1000) {
        // Coverage holds from any starting step, not only step 0.
        for pattern in PatternSpec::ALL {
            let period = pattern.period(&fabric);
            let mut seen = std::collections::HashSet::new();
            for s in start..start + period {
                let o = pattern.offset_at(&fabric, s);
                seen.insert((o.row, o.col));
            }
            prop_assert_eq!(seen.len() as u64, period, "{}", pattern);
        }
    }

    #[test]
    fn baseline_is_stateless(fabric in any_fabric(), n in 1usize..50) {
        let tracker = UtilizationTracker::new(&fabric);
        let mut p = BaselinePolicy;
        let legal = LegalPivots::new(&fabric, &[], &[], None);
        for _ in 0..n {
            let req = AllocRequest {
                fabric: &fabric,
                config_switch: true,
                footprint: &[],
                tracker: &tracker,
                legal: &legal,
            };
            prop_assert_eq!(p.next_offset(&req), Some(Offset::ORIGIN));
        }
    }
}
