//! # obs — the workspace's flight recorder (DESIGN.md §16)
//!
//! Two recorders with opposite determinism contracts:
//!
//! * Metrics: [`collect`] opens a [`Registry`] of named counters,
//!   high-watermark gauges and log-bucketed histograms on this thread for
//!   the duration of a closure, and [`publish`] writes into the innermost
//!   open one (and does nothing outside a collection). Everything in a
//!   registry is integer state with an associative + commutative
//!   [`merge`](Registry::merge), so sharded campaigns fold per-work-item
//!   registries exactly like `FleetAccum` folds survival counts — the
//!   folded result (and its JSON, `results/metrics.json`) is
//!   byte-identical no matter the worker count, shard split or stop/resume
//!   point.
//! * [`Profiler`], a [`tracing::Subscriber`], records wall-clock
//!   self/total times per span subtree (`results/profile.json`).
//!   Wall-clock time is inherently nondeterministic, so the profile is
//!   excluded from the CI determinism diff. Collection does not touch the
//!   tracing dispatch, so a profiler sees every span whether or not
//!   metrics are collected.
//!
//! [`LogHistogram`] is the workspace's one log-bucketed histogram (exact
//! below 8, then 8 sub-buckets per power of two): registry histograms and
//! `transrec::traffic`'s request-latency distributions are both this type.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tracing::{Dispatch, Metadata, SpanId, Subscriber};

/// The logarithmic bucket index of a `u64` observation: exact below 8,
/// then 8 sub-buckets per power of two (≤ 12.5% relative error) — the
/// bucketing of [`LogHistogram`] (DESIGN.md §13, §16).
pub fn log_bucket(value: u64) -> u32 {
    if value < 8 {
        return value as u32;
    }
    let e = value.ilog2();
    8 * (e - 2) + ((value >> (e - 3)) & 7) as u32
}

/// The number of [`log_bucket`] buckets: every `u64` observation lands
/// below this index, so a dense `[u64; LOG_BUCKETS]` tally can count any
/// value without a search.
pub const LOG_BUCKETS: usize = 496;

/// The smallest value that falls in `bucket` — the value percentile
/// queries report (a conservative lower bound).
pub fn log_bucket_floor(bucket: u32) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let e = bucket / 8 + 2;
    let off = bucket % 8;
    ((8 + off) as u64) << (e - 3)
}

/// A mergeable histogram over [`log_bucket`] buckets. Counts are integers
/// keyed by bucket index, so merging and weight-scaling are exact: partial
/// histograms aggregate byte-identically regardless of the shard split.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Sorted `(bucket, count)` pairs; zero-count buckets are absent.
    buckets: Vec<(u32, u64)>,
    /// Total recorded observations (the sum of all counts).
    total: u64,
}

impl LogHistogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.add(log_bucket(value), 1);
    }

    /// Adds `count` observations to `bucket`.
    fn add(&mut self, bucket: u32, count: u64) {
        if count == 0 {
            return;
        }
        let at = self.buckets.partition_point(|&(b, _)| b < bucket);
        match self.buckets.get_mut(at) {
            Some(entry) if entry.0 == bucket => entry.1 += count,
            _ => self.buckets.insert(at, (bucket, count)),
        }
        self.total += count;
    }

    /// Absorbs a dense tally: `counts[b]` observations of bucket `b`. A
    /// hot loop can count into a `[u64; LOG_BUCKETS]` array and fold it
    /// here once; the result equals recording each observation.
    pub fn add_dense(&mut self, counts: &[u64]) {
        for (bucket, &count) in counts.iter().enumerate() {
            self.add(bucket as u32, count);
        }
    }

    /// Absorbs `other` scaled by `weight` — the equivalence-class fast
    /// path: one class histogram stands for `weight` identical devices.
    pub fn add_scaled(&mut self, other: &LogHistogram, weight: u64) {
        for &(bucket, count) in &other.buckets {
            self.add(bucket, count * weight);
        }
    }

    /// Absorbs `other`: the monoid operation (associative, commutative,
    /// [`LogHistogram::new`] as identity).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.add_scaled(other, 1);
    }

    /// The value (as the containing bucket's lower bound) at quantile
    /// `q ∈ [0, 1]`; `0` for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for &(bucket, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return log_bucket_floor(bucket);
            }
        }
        log_bucket_floor(self.buckets.last().expect("total > 0 implies buckets").0)
    }
}

/// A deterministic registry of named metrics (DESIGN.md §16).
///
/// Three instruments, one method each:
///
/// * [`counter_add`](Registry::counter_add) — a **counter** (merge: sum);
/// * [`gauge_set`](Registry::gauge_set) — a **gauge**, kept as a
///   high-watermark (merge: max) so the fold stays order-independent;
/// * [`histogram_record_n`](Registry::histogram_record_n) — `n` equal
///   **histogram** samples ([`LogHistogram`]) at once.
///
/// All maps are `BTreeMap`s and all state is integer, so two registries
/// built from the same observations in any fold order serialize to
/// identical JSON.
///
/// # Examples
///
/// ```
/// use obs::Registry;
///
/// let mut a = Registry::new();
/// a.counter_add("dbt.cache.hit", 3);
/// let mut b = Registry::new();
/// b.counter_add("dbt.cache.hit", 4);
/// a.merge(&b);
/// assert_eq!(a.counter("dbt.cache.hit"), 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registry {
    /// Monotonic sums.
    counters: BTreeMap<String, u64>,
    /// High-watermark gauges (merge takes the max).
    gauges: BTreeMap<String, u64>,
    /// Log-bucketed sample distributions.
    histograms: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// An empty registry (the merge identity).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to counter `name`. Like [`Registry::gauge_set`] and
    /// [`Registry::histogram_record`], it looks the name up by `&str` and
    /// allocates the key only on its first use.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Raises gauge `name` to at least `v` (high-watermark semantics keep
    /// the merge a monoid).
    pub fn gauge_set(&mut self, name: &str, v: u64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = (*g).max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records `v` into histogram `name`.
    pub fn histogram_record(&mut self, name: &str, v: u64) {
        self.histogram_record_n(name, v, 1);
    }

    /// Records `count` samples of `v` into histogram `name` at once, as
    /// `count` calls of [`Registry::histogram_record`] would.
    pub fn histogram_record_n(&mut self, name: &str, v: u64, count: u64) {
        if count > 0 && !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_string(), LogHistogram::default());
        }
        if let Some(h) = self.histograms.get_mut(name) {
            h.add(log_bucket(v), count);
        }
    }

    /// The value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Absorbs `other`: the monoid operation (associative, commutative,
    /// [`Registry::new`] as identity). Counters and histogram counts add,
    /// gauges take the max (a high-watermark does not add up).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders the registry as an aligned human-readable table (the `diag`
    /// binary's metrics section): counters, then gauges, then histogram
    /// totals with p50/p99, in name order.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(6)
            .max(6);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<width$}  {v:>14}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v:>14}  (high-watermark)");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>14}  (p50 {}, p99 {})",
                h.total(),
                h.percentile(0.50),
                h.percentile(0.99)
            );
        }
        out
    }
}

thread_local! {
    /// The registries of this thread's open [`collect`] calls, innermost
    /// last.
    static OPEN: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
    /// The [`publish`] calls that ran on this thread.
    static PUBLISHED: Cell<u64> = const { Cell::new(0) };
}

/// Closes the innermost collection when [`collect`] returns or unwinds.
struct Close;

impl Drop for Close {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

/// Runs `f` with a fresh [`Registry`] open on this thread, returning `f`'s
/// result and what was [`publish`]ed into it. A nested collection shadows
/// the outer one until it returns, and a panic in `f` closes it too.
///
/// # Examples
///
/// ```
/// let (sum, reg) = obs::collect(|| {
///     obs::publish(|reg| reg.counter_add("loop.iterations", 3));
///     1 + 2
/// });
/// assert_eq!(sum, 3);
/// assert_eq!(reg.counter("loop.iterations"), 3);
/// assert!(!obs::collecting());
/// ```
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Registry) {
    OPEN.with(|open| open.borrow_mut().push(Registry::new()));
    let _close = Close;
    let out = f();
    let registry = OPEN.with(|open| std::mem::take(open.borrow_mut().last_mut().expect("open")));
    (out, registry)
}

/// `true` inside a [`collect`] on this thread: whether a [`publish`] would
/// run. A publisher that must do work to know what to publish (take a
/// tally, say) checks this first.
pub fn collecting() -> bool {
    OPEN.with(|open| !open.borrow().is_empty())
}

/// Runs `f` on the innermost registry [`collect`] opened on this thread;
/// outside a collection `f` does not run. `f` must not publish or collect
/// itself.
pub fn publish(f: impl FnOnce(&mut Registry)) {
    OPEN.with(|open| {
        if let Some(registry) = open.borrow_mut().last_mut() {
            PUBLISHED.with(|n| n.set(n.get() + 1));
            f(registry);
        }
    });
}

/// How many [`publish`] calls ran on this thread so far, so a test can
/// check that work publishes once per session call, replay, served day or
/// trajectory, however long it runs.
pub fn published() -> u64 {
    PUBLISHED.with(Cell::get)
}

/// One aggregated span in a [`ProfileReport`]: all entries of the same
/// span name under the same parent share a node.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileTree {
    /// Span name.
    pub name: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Wall-clock nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Wall-clock nanoseconds minus time spent in child spans.
    pub self_ns: u64,
    /// Child spans in first-entered order.
    pub children: Vec<ProfileTree>,
}

/// The profiler's output (`results/profile.json`): one tree per root
/// span, in first-entered order. Wall-clock times are nondeterministic by
/// nature; this artefact is excluded from the CI determinism diff
/// (DESIGN.md §16).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Root span trees.
    pub roots: Vec<ProfileTree>,
}

#[derive(Clone, Debug)]
struct ProfNode {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    calls: u64,
    total: Duration,
    child_time: Duration,
}

#[derive(Default)]
struct ProfState {
    nodes: Vec<ProfNode>,
    roots: Vec<usize>,
    /// Entered spans: `(node index, entry instant)`, innermost last.
    stack: Vec<(usize, Instant)>,
}

impl ProfState {
    fn find_or_create(&mut self, name: &str) -> usize {
        let parent = self.stack.last().map(|&(i, _)| i);
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&i) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(ProfNode {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            calls: 0,
            total: Duration::ZERO,
            child_time: Duration::ZERO,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(i),
            None => self.roots.push(i),
        }
        i
    }

    fn tree(&self, i: usize) -> ProfileTree {
        let n = &self.nodes[i];
        let total_ns = n.total.as_nanos() as u64;
        ProfileTree {
            name: n.name.clone(),
            calls: n.calls,
            total_ns,
            self_ns: total_ns.saturating_sub(n.child_time.as_nanos() as u64),
            children: n.children.iter().map(|&c| self.tree(c)).collect(),
        }
    }
}

/// A [`Subscriber`] that aggregates wall-clock self/total time per span
/// subtree. Install it on the coordinating thread around campaign or
/// experiment phases; pool threads carry no profiler (DESIGN.md §16).
///
/// # Examples
///
/// ```
/// use tracing::{span, Level};
///
/// let profiler = obs::Profiler::new();
/// tracing::with_default(profiler.dispatch(), || {
///     let _phase = span!(Level::INFO, "phase.demo").entered();
/// });
/// let report = profiler.report();
/// assert_eq!(report.roots[0].name, "phase.demo");
/// assert_eq!(report.roots[0].calls, 1);
/// ```
#[derive(Clone, Default)]
pub struct Profiler {
    state: Rc<RefCell<ProfState>>,
}

impl Profiler {
    /// A profiler with no recorded spans.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// A dispatch handle for [`tracing::with_default`].
    pub fn dispatch(&self) -> Dispatch {
        Dispatch::new(self.clone())
    }

    /// The aggregated span trees recorded so far.
    pub fn report(&self) -> ProfileReport {
        let state = self.state.borrow();
        ProfileReport { roots: state.roots.iter().map(|&i| state.tree(i)).collect() }
    }
}

impl Subscriber for Profiler {
    fn new_span(&self, metadata: &Metadata<'_>) -> SpanId {
        SpanId(self.state.borrow_mut().find_or_create(metadata.name) as u64)
    }

    fn enter(&self, id: SpanId) {
        self.state.borrow_mut().stack.push((id.0 as usize, Instant::now()));
    }

    fn exit(&self, _id: SpanId) {
        let mut state = self.state.borrow_mut();
        let Some((i, start)) = state.stack.pop() else { return };
        let elapsed = start.elapsed();
        state.nodes[i].calls += 1;
        state.nodes[i].total += elapsed;
        if let Some(p) = state.nodes[i].parent {
            state.nodes[p].child_time += elapsed;
        }
    }
}

/// The process-global registry the experiment binaries snapshot into
/// `results/metrics.json` (DESIGN.md §16).
///
/// Runners (the sweep and campaign drivers in `transrec`) fold each
/// finished work-item registry here. Because every fold is a commutative monoid
/// operation over integer state, the final snapshot is identical no matter
/// which worker finished first — the binaries only need
/// [`reset`](global::reset) once at startup and
/// [`snapshot`](global::snapshot) at the end.
pub mod global {
    use super::Registry;
    use std::sync::{Mutex, OnceLock};

    fn cell() -> &'static Mutex<Registry> {
        static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Mutex::new(Registry::new()))
    }

    /// Clears the global registry (call once at binary startup).
    pub fn reset() {
        *cell().lock().expect("global registry poisoned") = Registry::new();
    }

    /// Folds `registry` into the global one.
    pub fn fold(registry: &Registry) {
        cell().lock().expect("global registry poisoned").merge(registry);
    }

    /// A copy of the global registry's current state.
    pub fn snapshot() -> Registry {
        cell().lock().expect("global registry poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracing::{span, Level};

    #[test]
    fn bucketing_matches_the_latency_scheme() {
        for v in 0..8 {
            assert_eq!(log_bucket(v), v as u32);
            assert_eq!(log_bucket_floor(log_bucket(v)), v, "small values are exact");
        }
        for v in [8u64, 9, 100, 1_000, 65_535, 1 << 40] {
            let floor = log_bucket_floor(log_bucket(v));
            assert!(floor <= v, "floor {floor} must not exceed {v}");
            assert!(v - floor <= v / 8, "≤ 12.5% relative error for {v}");
        }
        // Bucket indexes are monotone in the value.
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = log_bucket(v);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(
            log_bucket(u64::MAX) as usize,
            LOG_BUCKETS - 1,
            "the last bucket holds u64::MAX"
        );
    }

    #[test]
    fn dense_tallies_fold_like_records() {
        let values = [0u64, 3, 3, 9, 100, 100_000, 7, u64::MAX, 100];
        let mut recorded = LogHistogram::new();
        let mut dense = [0u64; LOG_BUCKETS];
        for &v in &values {
            recorded.record(v);
            dense[log_bucket(v) as usize] += 1;
        }
        let mut folded = LogHistogram::new();
        folded.add_dense(&dense);
        assert_eq!(folded, recorded);
        folded.add_dense(&dense);
        recorded.merge(&recorded.clone());
        assert_eq!(folded, recorded, "a second fold adds to the first");
    }

    #[test]
    fn log_histogram_percentiles_and_scaling() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 200, 100_000] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(0.5), 4, "rank ceil(q·total) picks the 4th sample");
        assert_eq!(h.percentile(1.0), log_bucket_floor(log_bucket(100_000)));
        assert_eq!(LogHistogram::new().percentile(0.99), 0, "empty histograms report 0");
        let mut tripled = LogHistogram::new();
        tripled.add_scaled(&h, 3);
        assert_eq!(tripled.total(), 3 * h.total());
        assert_eq!(tripled.percentile(0.5), h.percentile(0.5), "scaling preserves quantiles");
    }

    #[test]
    fn registry_instruments_and_lookups() {
        let mut r = Registry::new();
        r.counter_add("a.hits", 2);
        r.counter_add("a.hits", 3);
        r.gauge_set("a.depth", 4);
        r.gauge_set("a.depth", 2);
        r.histogram_record("a.lat", 100);
        assert_eq!(r.counter("a.hits"), 5);
        assert_eq!(r.gauge("a.depth"), 4, "gauges are high-watermarks");
        assert_eq!(r.histogram("a.lat").unwrap().total(), 1);
        assert_eq!(r.counter("absent"), 0);
        assert!(!r.is_empty());
        let table = r.render_table();
        assert!(table.contains("a.hits"), "table renders counters:\n{table}");
        assert!(table.contains("high-watermark"), "table marks gauges:\n{table}");
    }

    #[test]
    fn publish_writes_to_the_innermost_collection() {
        let before = published();
        publish(|_| unreachable!("no collection is open"));
        assert_eq!(published(), before, "a publish outside a collection does not run");
        let (((), inner), outer) = collect(|| {
            assert!(collecting());
            publish(|reg| reg.counter_add("dbt.cache.hit", 1));
            let inner = collect(|| {
                publish(|reg| reg.gauge_set("queue.depth", 9));
                publish(|reg| reg.histogram_record("step.cycles", 250));
            });
            publish(|reg| reg.counter_add("dbt.cache.hit", 1));
            inner
        });
        assert_eq!(published(), before + 4, "every publish inside a collection runs");
        assert_eq!(outer.counter("dbt.cache.hit"), 2);
        assert_eq!(outer.gauge("queue.depth"), 0, "the inner collection shadows the outer");
        assert_eq!(inner.gauge("queue.depth"), 9);
        assert_eq!(inner.histogram("step.cycles").unwrap().total(), 1);
        assert!(!collecting());
    }

    #[test]
    fn a_bulk_record_equals_repeated_records() {
        let samples = [(0u64, 1u64), (7, 4), (250, 2), (251, 1), (1 << 40, 3), (9, 0)];
        let ((), repeated) = collect(|| {
            for (v, n) in samples {
                for _ in 0..n {
                    publish(|reg| reg.histogram_record("step.cycles", v));
                }
            }
        });
        let ((), bulk) = collect(|| {
            for (v, n) in samples {
                publish(|reg| reg.histogram_record_n("step.cycles", v, n));
            }
        });
        assert_eq!(bulk, repeated);
        let ((), nothing) = collect(|| publish(|reg| reg.histogram_record_n("step.cycles", 1, 0)));
        assert!(nothing.is_empty(), "zero samples leave no histogram");
    }

    #[test]
    fn a_panic_inside_collect_closes_the_collection() {
        let unwound = std::panic::catch_unwind(|| {
            collect(|| {
                publish(|reg| reg.counter_add("work.done", 1));
                panic!("the work item failed");
            })
        });
        assert!(unwound.is_err());
        assert!(!collecting(), "the unwound collection is closed");
        let ((), reg) = collect(|| publish(|reg| reg.counter_add("work.after", 1)));
        assert_eq!(reg.counter("work.done"), 0, "nothing leaks into the next collection");
        assert_eq!(reg.counter("work.after"), 1);
    }

    /// `report` without its wall-clock times: names, nesting and calls.
    fn untimed(report: &ProfileReport) -> ProfileReport {
        fn strip(tree: &ProfileTree) -> ProfileTree {
            ProfileTree {
                total_ns: 0,
                self_ns: 0,
                children: tree.children.iter().map(strip).collect(),
                ..tree.clone()
            }
        }
        ProfileReport { roots: report.roots.iter().map(strip).collect() }
    }

    #[test]
    fn collection_leaves_the_span_tree_alone() {
        let work = || {
            let _outer = span!(Level::INFO, "outer").entered();
            for _ in 0..2 {
                let _phase = span!(Level::INFO, "phase").entered();
                let _detail = span!(Level::DEBUG, "detail").entered();
                publish(|reg| reg.counter_add("work.done", 1));
            }
        };
        let profile = |collected: bool| {
            let profiler = Profiler::new();
            tracing::with_default(profiler.dispatch(), || {
                if collected {
                    let ((), reg) = collect(work);
                    assert_eq!(reg.counter("work.done"), 2);
                } else {
                    work();
                }
            });
            profiler.report()
        };
        let (bare, collected) = (profile(false), profile(true));
        assert_eq!(collected.roots.len(), 1);
        assert_eq!(untimed(&collected), untimed(&bare));
        let phase = &collected.roots[0].children[0];
        assert_eq!((phase.name.as_str(), phase.calls), ("phase", 2));
        assert_eq!(phase.children[0].name, "detail", "debug spans reach the profiler");
    }

    #[test]
    fn profiler_builds_a_self_total_tree() {
        let profiler = Profiler::new();
        tracing::with_default(profiler.dispatch(), || {
            let _outer = span!(Level::INFO, "outer").entered();
            std::thread::sleep(Duration::from_millis(2));
            for _ in 0..2 {
                let _inner = span!(Level::INFO, "inner").entered();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let report = profiler.report();
        assert_eq!(report.roots.len(), 1);
        let outer = &report.roots[0];
        assert_eq!((outer.name.as_str(), outer.calls), ("outer", 1));
        assert_eq!(outer.children.len(), 1, "same-name spans share a node");
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.calls), ("inner", 2));
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1);
    }

    #[test]
    fn global_fold_accumulates_and_resets() {
        // Serialize access: other tests do not touch the global registry.
        let mut r = Registry::new();
        r.counter_add("global.test.counter", 2);
        global::reset();
        global::fold(&r);
        global::fold(&r);
        assert_eq!(global::snapshot().counter("global.test.counter"), 4);
        global::reset();
        assert!(global::snapshot().is_empty());
    }
}
