//! Property tests for the [`Registry`]/[`LogHistogram`] merge monoid
//! (DESIGN.md §16): `merge` must be associative and commutative with the
//! empty registry as identity, and any shard split of an event list must
//! fold to the byte-identical serialized registry. These are the algebraic
//! facts the `results/metrics.json` byte-identity gate rides on — the
//! mirror of `survival_monoid.rs` for the flight recorder.

use proptest::prelude::*;

use obs::{LogHistogram, Registry};

/// One recorded metric event: a name drawn from a small pool (so shards
/// collide on keys) and a kind-selecting tag.
#[derive(Clone, Debug)]
enum Op {
    Counter(&'static str, u64),
    Gauge(&'static str, u64),
    Histogram(&'static str, u64),
}

const NAMES: [&str; 4] = ["alloc.decisions", "dbt.cache.hit", "queue.depth", "latency.cycles"];

fn any_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(((0u32..=2), (0usize..NAMES.len()), (0u64..=1 << 40)), 0..=64)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(tag, name, v)| match tag {
                    0 => Op::Counter(NAMES[name], v),
                    1 => Op::Gauge(NAMES[name], v),
                    _ => Op::Histogram(NAMES[name], v),
                })
                .collect()
        })
}

/// Folds a slice of events into a fresh registry.
fn fold(ops: &[Op]) -> Registry {
    let mut reg = Registry::new();
    for op in ops {
        match *op {
            Op::Counter(name, v) => reg.counter_add(name, v),
            Op::Gauge(name, v) => reg.gauge_set(name, v),
            Op::Histogram(name, v) => reg.histogram_record(name, v),
        }
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_is_associative_and_commutative_with_identity(
        a in any_ops(),
        b in any_ops(),
        c in any_ops(),
    ) {
        let (a, b, c) = (fold(&a), fold(&b), fold(&c));
        // (a · b) · c == a · (b · c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // a · b == b · a (counters add, gauges take the max, histogram
        // buckets add — all commutative).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // a · e == e · a == a
        let mut with_identity = a.clone();
        with_identity.merge(&Registry::new());
        prop_assert_eq!(&with_identity, &a);
        let mut identity_first = Registry::new();
        identity_first.merge(&a);
        prop_assert_eq!(&identity_first, &a);
    }

    #[test]
    fn every_shard_split_folds_byte_identically(
        ops in any_ops(),
        cuts in proptest::collection::vec(0usize..=64, 0..=4),
    ) {
        // Fold the whole event list at once, then fold it shard by shard at
        // randomized cut points and merge in order — equal not just in
        // value but in serialized bytes (the metrics.json guarantee).
        let whole = fold(&ops);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(ops.len())).collect();
        cuts.sort_unstable();
        let mut sharded = Registry::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([ops.len()]) {
            sharded.merge(&fold(&ops[start..cut]));
            start = cut;
        }
        prop_assert_eq!(&sharded, &whole);
        prop_assert_eq!(
            serde_json::to_string(&sharded).unwrap(),
            serde_json::to_string(&whole).unwrap()
        );
    }

    #[test]
    fn histogram_merge_preserves_totals_and_percentile_bounds(
        xs in proptest::collection::vec(0u64..=1 << 48, 0..=64),
        ys in proptest::collection::vec(0u64..=1 << 48, 0..=64),
    ) {
        let mut a = LogHistogram::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = LogHistogram::new();
        for &y in &ys {
            b.record(y);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.total(), a.total() + b.total());
        // Percentiles stay within the union's bucket-floor envelope.
        let p50 = merged.percentile(0.5);
        let lo = a.percentile(0.0).min(b.percentile(0.0));
        let hi = a.percentile(1.0).max(b.percentile(1.0));
        if merged.total() > 0 {
            prop_assert!(p50 >= lo.min(hi) && p50 <= hi.max(lo), "p50 {p50} outside [{lo}, {hi}]");
        }
    }
}
