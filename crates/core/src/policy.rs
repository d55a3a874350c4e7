//! Allocation policies: who decides where a configuration lands.
//!
//! The paper's contribution is the *rotation* policy — move the pivot along
//! a fabric-covering pattern on every execution — implemented here next to
//! the corner-anchored baseline it replaces, a random policy (the
//! alternative the paper dismisses as interconnect-hostile; our wrap-around
//! fabric can express it, making it a useful ablation), and a health-aware
//! policy that realizes the paper's future-work item of steering allocation
//! with run-time aging information.

use std::fmt;
use std::str::FromStr;

use cgra::op::OpKind;
use cgra::{Fabric, FaultMask, Offset};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use solve::SolveStats;

use crate::spec::{ParseSpecError, PatternSpec};
use crate::stats::UtilizationTracker;

/// How often the rotation policy advances the pivot (DESIGN.md §4.4).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MovementGranularity {
    /// Advance on every execution (the paper's behaviour).
    #[default]
    PerExecution,
    /// Advance only when a different configuration is loaded into the
    /// fabric; repeated executions of a resident configuration stay put
    /// (cheaper, weaker balancing — the ablation bench quantifies it).
    PerLoad,
    /// Advance every `n` executions.
    Periodic(u32),
}

impl fmt::Display for MovementGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementGranularity::PerExecution => f.write_str("per-exec"),
            MovementGranularity::PerLoad => f.write_str("per-load"),
            MovementGranularity::Periodic(n) => write!(f, "every-{n}"),
        }
    }
}

impl FromStr for MovementGranularity {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<MovementGranularity, ParseSpecError> {
        match s {
            "per-exec" | "per-execution" => Ok(MovementGranularity::PerExecution),
            "per-load" => Ok(MovementGranularity::PerLoad),
            _ => match s.strip_prefix("every-").and_then(|n| n.parse().ok()) {
                Some(n) => Ok(MovementGranularity::Periodic(n)),
                None => Err(ParseSpecError::new(format!(
                    "unknown granularity `{s}` (expected per-exec, per-load or every-<n>)"
                ))),
            },
        }
    }
}

/// The legal pivots of one configuration on one fabric (DESIGN.md §14):
/// the offsets at which every footprint cell lands on a live FU and every
/// capability-demanding anchor lands on a capable cell.
///
/// Legality depends only on the configuration and the fault mask, so the
/// table is built once per configuration and mask (`transrec::System`
/// does it at insertion, a tape replay per replayed configuration) and
/// every allocation decision reads it.
///
/// On unconstrained inputs — a uniform pristine fabric, or no demands and
/// no dead FU — the table stores nothing and every pivot is legal, keeping
/// each policy on its historical fast path. Otherwise it stores one bit
/// per pivot, row-major, and the number of legal pivots; the row-major
/// list of legal pivots is walked from the bits, so a cached
/// configuration costs a few bytes, not a list.
///
/// # Examples
///
/// ```
/// use cgra::{Fabric, FaultMask, Offset};
/// use uaware::LegalPivots;
///
/// let fabric = Fabric::new(2, 4);
/// assert_eq!(LegalPivots::new(&fabric, &[(0, 0)], &[], None).count(), None);
/// let mut mask = FaultMask::healthy(&fabric);
/// mask.mark_dead(0, 1);
/// let legal = LegalPivots::new(&fabric, &[(0, 0)], &[], Some(&mask));
/// assert!(!legal.allows(Offset::new(0, 1)));
/// assert_eq!(legal.count(), Some(7));
/// assert_eq!(legal.nth(1), Some(Offset::new(0, 2)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LegalPivots {
    /// `None` when every pivot is legal.
    table: Option<PivotTable>,
}

/// The stored form of a constrained [`LegalPivots`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct PivotTable {
    cols: u32,
    /// Number of set bits.
    count: u32,
    /// One bit per pivot, row-major.
    bits: Box<[u64]>,
}

impl LegalPivots {
    /// Every pivot legal: what [`LegalPivots::default`] builds, as a
    /// constant tests can put in a `static`.
    #[cfg(test)]
    pub(crate) const ANYWHERE: LegalPivots = LegalPivots { table: None };

    /// Computes the legal pivots of `footprint` with capability `demands`
    /// (`Configuration::demands`) on `fabric` under the permanent-failure
    /// map `faults` (`None` for a pristine fabric, DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Panics if a non-pristine mask's geometry does not match `fabric`.
    pub fn new(
        fabric: &Fabric,
        footprint: &[(u32, u32)],
        demands: &[(u32, u32, OpKind)],
        faults: Option<&FaultMask>,
    ) -> LegalPivots {
        let faults = faults.filter(|mask| !mask.is_pristine());
        let demanding = !fabric.is_uniform() && !demands.is_empty();
        if faults.is_none() && !demanding {
            return LegalPivots::default();
        }
        let mut bits = vec![0u64; (fabric.fu_count() as usize).div_ceil(64)];
        let mut count = 0;
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                let o = Offset::new(row, col);
                let capable = !demanding
                    || demands.iter().all(|&(r, c, kind)| {
                        let (pr, pc) = o.apply(fabric, r, c);
                        fabric.supports(pr, pc, kind)
                    });
                if capable && faults.is_none_or(|mask| mask.placement_ok(fabric, footprint, o)) {
                    let bit = (row * fabric.cols + col) as usize;
                    bits[bit / 64] |= 1 << (bit % 64);
                    count += 1;
                }
            }
        }
        LegalPivots { table: Some(PivotTable { cols: fabric.cols, count, bits: bits.into() }) }
    }

    /// `true` if the footprint may be anchored at `offset`.
    pub fn allows(&self, offset: Offset) -> bool {
        self.table.as_ref().is_none_or(|t| {
            let bit = (offset.row * t.cols + offset.col) as usize;
            offset.col < t.cols
                && t.bits.get(bit / 64).is_some_and(|word| word >> (bit % 64) & 1 == 1)
        })
    }

    /// The number of legal pivots, or `None` when unconstrained: every
    /// pivot is legal and nothing is stored. `None` is the fast-path guard
    /// that keeps each policy's decision stream on uniform pristine fabrics
    /// bit-identical to the historical one (DESIGN.md §14).
    pub fn count(&self) -> Option<usize> {
        self.table.as_ref().map(|t| t.count as usize)
    }

    /// The legal pivot at index `k` of the row-major legal list, or `None`
    /// when unconstrained or `k` is past the end.
    pub fn nth(&self, mut k: usize) -> Option<Offset> {
        let t = self.table.as_ref()?;
        for (w, &word) in t.bits.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1; // drop the lowest set bit
                }
                let bit = (w * 64) as u32 + word.trailing_zeros();
                return Some(Offset::new(bit / t.cols, bit % t.cols));
            }
            k -= ones;
        }
        None
    }

    /// The legal pivots in row-major order, or `None` when unconstrained.
    pub fn iter(&self) -> Option<impl Iterator<Item = Offset> + '_> {
        let table = self.table.as_ref()?;
        Some(SetBits { table, word: 0, bits: table.bits.first().copied().unwrap_or(0) })
    }
}

/// Row-major walk over the set bits of a [`PivotTable`]: `bits` holds the
/// not yet visited bits of word `word`.
struct SetBits<'a> {
    table: &'a PivotTable,
    word: usize,
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = Offset;

    fn next(&mut self) -> Option<Offset> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.table.bits.get(self.word)?;
        }
        let bit = self.word as u32 * 64 + self.bits.trailing_zeros();
        self.bits &= self.bits - 1; // drop the lowest set bit
        Some(Offset::new(bit / self.table.cols, bit % self.table.cols))
    }
}

/// Context handed to a policy for one upcoming configuration execution.
#[derive(Clone, Copy, Debug)]
pub struct AllocRequest<'a> {
    /// The target fabric.
    pub fabric: &'a Fabric,
    /// `true` if this execution requires loading a configuration different
    /// from the resident one.
    pub config_switch: bool,
    /// Virtual cells the configuration occupies (for footprint-aware
    /// policies).
    pub footprint: &'a [(u32, u32)],
    /// Live utilization state (for health-aware policies).
    pub tracker: &'a UtilizationTracker,
    /// The configuration's legal pivots under the fabric's fault mask and
    /// class mix (DESIGN.md §11, §14); policies must never return a pivot
    /// outside it.
    pub legal: &'a LegalPivots,
}

impl AllocRequest<'_> {
    /// `true` if anchoring the request's footprint at `offset` touches only
    /// live FUs *and* lands every capability-demanding anchor on a capable
    /// cell — a lookup in [`AllocRequest::legal`].
    pub fn placement_ok(&self, offset: Offset) -> bool {
        self.legal.allows(offset)
    }
}

/// A policy's own counts (DESIGN.md §16), beyond the decisions the
/// allocation step counts for every policy. Only the exact oracle keeps
/// any.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// Decisions played back from a planned epoch.
    pub replayed: u64,
    /// Solver calls that returned a plan.
    pub solve_calls: u64,
    /// Solver calls that found no legal pivot.
    pub solve_infeasible: u64,
    /// The search counters of the calls that returned a plan, summed.
    pub solve: SolveStats,
}

/// A pivot-selection policy.
///
/// Runners that need to instantiate policies from data use
/// [`PolicySpec`](crate::PolicySpec) — a fresh instance per run via
/// [`PolicySpec::build`](crate::PolicySpec::build) — instead of passing
/// factory closures around.
pub trait AllocationPolicy: std::fmt::Debug {
    /// Chooses the pivot for the next execution, or `None` when no
    /// placement the policy can express is legal ([`AllocRequest::legal`]):
    /// every one touches a dead FU — the device's end of life (DESIGN.md
    /// §11) — or misses a capable anchor cell (DESIGN.md §14).
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset>;

    /// Instance-level name for reports: includes the configured pattern,
    /// granularity or seed, matching the policy's
    /// [`PolicySpec`](crate::PolicySpec) string (e.g.
    /// `rotation:snake@per-load`, `random:42`).
    fn name(&self) -> String;

    /// Whether the policy needs the movement hardware extensions
    /// (§III.B). The baseline runs on the unmodified reconfiguration logic.
    fn needs_movement(&self) -> bool {
        true
    }

    /// The policy's own counts so far; none by default.
    fn counts(&self) -> PolicyCounts {
        PolicyCounts::default()
    }
}

/// The aging-unaware baseline: every configuration anchors at the top-left
/// corner, exactly like traditional greedy mappers. With no movement
/// hardware the origin is also its *only* legal placement, so the first
/// corner-FU failure kills the device (DESIGN.md §11).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselinePolicy;

impl AllocationPolicy for BaselinePolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        req.placement_ok(Offset::ORIGIN).then_some(Offset::ORIGIN)
    }

    fn name(&self) -> String {
        "baseline".to_string()
    }

    fn needs_movement(&self) -> bool {
        false
    }
}

/// The paper's utilization-aware allocation: advance the pivot along a
/// movement pattern at the configured granularity.
///
/// # Examples
///
/// ```
/// use cgra::{Fabric, Offset};
/// use uaware::{
///     AllocationPolicy, AllocRequest, LegalPivots, PatternSpec, RotationPolicy,
///     UtilizationTracker,
/// };
///
/// let fabric = Fabric::be();
/// let tracker = UtilizationTracker::new(&fabric);
/// let mut policy = RotationPolicy::new(PatternSpec::Snake);
/// let req = AllocRequest {
///     fabric: &fabric,
///     config_switch: false,
///     footprint: &[],
///     tracker: &tracker,
///     legal: &LegalPivots::default(),
/// };
/// assert_eq!(policy.next_offset(&req), Some(Offset::new(0, 0)));
/// assert_eq!(policy.next_offset(&req), Some(Offset::new(0, 1)));
/// ```
#[derive(Clone, Debug)]
pub struct RotationPolicy {
    pattern: PatternSpec,
    granularity: MovementGranularity,
    step: u64,
    execs_since_move: u32,
    current: Option<Offset>,
}

impl RotationPolicy {
    /// Per-execution rotation along `pattern` (the paper's default).
    pub fn new(pattern: PatternSpec) -> RotationPolicy {
        RotationPolicy::with_granularity(pattern, MovementGranularity::PerExecution)
    }

    /// Rotation with an explicit movement granularity.
    pub fn with_granularity(
        pattern: PatternSpec,
        granularity: MovementGranularity,
    ) -> RotationPolicy {
        RotationPolicy { pattern, granularity, step: 0, execs_since_move: 0, current: None }
    }

    /// The movement pattern in use.
    pub fn pattern(&self) -> PatternSpec {
        self.pattern
    }

    /// Executions performed so far.
    pub fn step(&self) -> u64 {
        self.step
    }
}

impl AllocationPolicy for RotationPolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        // A dead FU under the resident pivot forces a move even at coarse
        // granularities — staying put would execute on failed silicon.
        let resident_ok = self.current.is_some_and(|o| req.placement_ok(o));
        let advance = match self.granularity {
            MovementGranularity::PerExecution => true,
            MovementGranularity::PerLoad => req.config_switch || !resident_ok,
            MovementGranularity::Periodic(n) => {
                self.execs_since_move += 1;
                !resident_ok || self.execs_since_move >= n.max(1)
            }
        };

        if advance {
            // Walk the pattern past any pivot whose placement straddles a
            // dead FU or an incapable anchor cell (the movement hardware
            // skips failed columns the same way it wraps edges). One full
            // period with no legal pivot means the policy is out of
            // placements.
            for _ in 0..self.pattern.period(req.fabric).max(1) {
                let o = self.pattern.offset_at(req.fabric, self.step);
                self.step += 1;
                if req.placement_ok(o) {
                    self.execs_since_move = 0;
                    self.current = Some(o);
                    return Some(o);
                }
            }
            None
        } else {
            Some(self.current.expect("resident pivot set when not advancing"))
        }
    }

    fn name(&self) -> String {
        format!("rotation:{}@{}", self.pattern, self.granularity)
    }
}

/// Uniform-random pivot per execution. Balances utilization in expectation
/// but needs the same movement hardware and gives up the pattern's
/// determinism; kept as an ablation point.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    seed: u64,
    rng: SmallRng,
}

impl RandomPolicy {
    /// Creates a random policy from a seed (deterministic experiments).
    pub fn seeded(seed: u64) -> RandomPolicy {
        RandomPolicy { seed, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The seed this policy was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl AllocationPolicy for RandomPolicy {
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        let Some(count) = req.legal.count() else {
            // Unconstrained fast path: two draws, bit-identical to the
            // historical mask-less stream.
            return Some(Offset::new(
                self.rng.random_range(0..req.fabric.rows),
                self.rng.random_range(0..req.fabric.cols),
            ));
        };
        // Constrained fabric: draw uniformly among the legal pivots —
        // complete (never misses a surviving placement) and still a pure
        // function of the seed. One draw indexes the row-major legal list;
        // with no legal pivot nothing is drawn.
        if count == 0 {
            return None;
        }
        req.legal.nth(self.rng.random_range(0..count))
    }

    fn name(&self) -> String {
        format!("random:{}", self.seed)
    }
}

/// The paper's future-work policy: use run-time aging information to adapt
/// the allocation. For each execution it scans the legal pivots
/// ([`AllocRequest::legal`]; all `rows × cols` of them on an unconstrained
/// fabric) in row-major order and picks the first one minimizing the
/// maximum execution count over the configuration's footprint.
///
/// This is the "detecting the optimal allocation at run time" option the
/// paper calls prohibitively expensive in hardware — implemented here as an
/// oracle upper bound for the rotation policy to be compared against.
///
/// The scan reads a copy of the tracker's counts tiled twice in each
/// direction, so a footprint anchored anywhere lands in range without
/// wrapping (DESIGN.md §7). The policy owns that grid and the footprint's
/// offsets into it, rewritten in full on every decision: it allocates
/// nothing once it has seen its largest fabric and footprint, and no
/// decision depends on an earlier one.
#[derive(Clone, Debug, Default)]
pub struct HealthAwarePolicy {
    /// The tracker's execution counts on a `2·rows × 2·cols` row-major
    /// grid: cell `(r, c)` holds the count of `(r % rows, c % cols)`.
    grid: Vec<u64>,
    /// The footprint's cells as offsets into `grid` from a pivot's cell.
    cells: Vec<usize>,
}

impl AllocationPolicy for HealthAwarePolicy {
    /// # Panics
    ///
    /// Panics if the tracker's geometry differs from the fabric's.
    fn next_offset(&mut self, req: &AllocRequest<'_>) -> Option<Offset> {
        let (rows, cols) = (req.fabric.rows, req.fabric.cols);
        assert_eq!(
            (req.tracker.rows(), req.tracker.cols()),
            (rows, cols),
            "tracker geometry differs from the fabric"
        );
        if req.legal.count() == Some(0) {
            return None;
        }
        let (rows, cols) = (rows as usize, cols as usize);
        let width = 2 * cols;
        self.grid.clear();
        for row in req.tracker.exec_counts().chunks_exact(cols) {
            self.grid.extend_from_slice(row);
            self.grid.extend_from_slice(row);
        }
        self.grid.extend_from_within(..);
        // Reduced exactly as `Offset::apply` reduces them, so adding a
        // pivot's `row · width + col` lands on the wrapped cell's copy.
        self.cells.clear();
        self.cells.extend(
            req.footprint.iter().map(|&(r, c)| r as usize % rows * width + c as usize % cols),
        );

        // Raw counts order pivots like the normalized utilization. A pivot
        // is dropped as soon as its partial cost matches the incumbent, and
        // the scan stops on a zero-stress pivot: nothing later can beat it.
        // Only legal pivots are scored, in row-major order (DESIGN.md §11,
        // §14).
        let mut best = None;
        let mut best_cost = u64::MAX;
        for row in 0..rows {
            for col in 0..cols {
                let off = Offset::new(row as u32, col as u32);
                if !req.legal.allows(off) {
                    continue;
                }
                let at = &self.grid[row * width + col..];
                let mut cost = 0;
                for &cell in &self.cells {
                    cost = cost.max(at[cell]);
                    if cost >= best_cost {
                        break;
                    }
                }
                if cost < best_cost || best.is_none() {
                    best = Some(off);
                    best_cost = cost;
                    if cost == 0 {
                        return best;
                    }
                }
            }
        }
        best
    }

    fn name(&self) -> String {
        "health-aware".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra::op::MulFunc;
    use cgra::{CellClass, ClassMap};
    use proptest::prelude::*;
    use PatternSpec::{Raster, Snake};

    fn req<'a>(
        fabric: &'a Fabric,
        tracker: &'a UtilizationTracker,
        footprint: &'a [(u32, u32)],
        config_switch: bool,
    ) -> AllocRequest<'a> {
        AllocRequest { fabric, config_switch, footprint, tracker, legal: &ANYWHERE }
    }

    static ANYWHERE: LegalPivots = LegalPivots::ANYWHERE;

    fn masked(base: &AllocRequest<'_>, mask: &FaultMask) -> LegalPivots {
        LegalPivots::new(base.fabric, base.footprint, &[], Some(mask))
    }

    fn demanding(base: &AllocRequest<'_>, demands: &[(u32, u32, OpKind)]) -> LegalPivots {
        LegalPivots::new(base.fabric, base.footprint, demands, None)
    }

    const MUL: OpKind = OpKind::Mul(MulFunc::Mul);

    #[test]
    fn placement_respects_capability_demands() {
        // Row stripes on fig1 (4x8): even rows full, odd rows bare ALUs.
        let mut fabric = Fabric::fig1();
        fabric.classes = ClassMap::RowStripes;
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32), (0, 1), (0, 2), (0, 3)];
        let demands = [(0u32, 0u32, MUL)];
        let base = req(&fabric, &tracker, &footprint, false);
        let legal = demanding(&base, &demands);
        let r = AllocRequest { legal: &legal, ..base };
        assert!(r.placement_ok(Offset::new(0, 0)), "anchor lands on a full row");
        assert!(!r.placement_ok(Offset::new(1, 0)), "anchor lands on a bare-ALU row");
        assert!(r.placement_ok(Offset::new(2, 3)), "wrapping keeps the anchor capable");
        // Without demands the same fabric constrains nothing.
        assert!(base.placement_ok(Offset::new(1, 0)));
    }

    #[test]
    fn rotation_and_baseline_skip_incapable_anchors() {
        let mut fabric = Fabric::fig1();
        fabric.classes = ClassMap::RowStripes;
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let demands = [(0u32, 0u32, MUL)];
        let base = req(&fabric, &tracker, &footprint, false);
        let legal = demanding(&base, &demands);
        let r = AllocRequest { legal: &legal, ..base };
        // Column-major rotation visits rows in order; odd rows are skipped.
        let mut p = RotationPolicy::new(PatternSpec::ColumnMajor);
        assert_eq!(p.next_offset(&r), Some(Offset::new(0, 0)));
        assert_eq!(p.next_offset(&r), Some(Offset::new(2, 0)), "skips the bare-ALU row 1");
        // The baseline's origin stays capable here; shift the stripes so it
        // is not and the baseline reports no placement.
        let mut shifted = fabric;
        shifted.classes = ClassMap::Checker;
        let odd_anchor = [(0u32, 1u32, MUL)];
        let stuck_legal = LegalPivots::new(&shifted, &footprint, &odd_anchor, None);
        let stuck = AllocRequest { fabric: &shifted, legal: &stuck_legal, ..base };
        assert_eq!(BaselinePolicy.next_offset(&stuck), None);
    }

    #[test]
    fn random_and_health_aware_only_pick_capable_pivots() {
        let mut fabric = Fabric::fig1();
        fabric.classes = ClassMap::ColStripes;
        let mut tracker = UtilizationTracker::new(&fabric);
        tracker.record_execution(&[(0, 0)], 1); // make (0,0) non-optimal
        let footprint = [(0u32, 0u32), (0, 1)];
        let demands = [(0u32, 0u32, MUL)];
        let base = req(&fabric, &tracker, &footprint, false);
        let legal = demanding(&base, &demands);
        let r = AllocRequest { legal: &legal, ..base };
        let mut rnd = RandomPolicy::seeded(7);
        for _ in 0..100 {
            let o = rnd.next_offset(&r).unwrap();
            assert_eq!(o.col % 2, 0, "random must only draw capable anchors, got {o}");
        }
        let o = HealthAwarePolicy::default().next_offset(&r).unwrap();
        assert_eq!(o.col % 2, 0, "health-aware must only scan capable anchors, got {o}");
        assert_ne!(o, Offset::ORIGIN, "still dodges the stressed corner");
    }

    #[test]
    fn unsatisfiable_demands_exhaust_every_policy() {
        // An all-ALU fabric can anchor no multiply anywhere.
        let mut fabric = Fabric::fig1();
        fabric.classes = ClassMap::Uniform(CellClass::Alu);
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let demands = [(0u32, 0u32, MUL)];
        let base = req(&fabric, &tracker, &footprint, false);
        let legal = demanding(&base, &demands);
        let r = AllocRequest { legal: &legal, ..base };
        assert_eq!(BaselinePolicy.next_offset(&r), None);
        assert_eq!(RotationPolicy::new(Snake).next_offset(&r), None);
        assert_eq!(RandomPolicy::seeded(7).next_offset(&r), None);
        assert_eq!(HealthAwarePolicy::default().next_offset(&r), None);
    }

    #[test]
    fn uniform_fabric_ignores_demands_bit_identically() {
        // On a uniform fabric a request with demands must be completely
        // indistinguishable from one without — including the random
        // policy's draw count (the DESIGN.md §14 fast path).
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32), (0, 1)];
        let demands =
            [(0u32, 0u32, MUL), (0, 1, OpKind::Load { func: cgra::op::LoadFunc::W, offset: 0 })];
        let bare = req(&fabric, &tracker, &footprint, false);
        let legal = demanding(&bare, &demands);
        let with_demands = AllocRequest { legal: &legal, ..bare };
        let mut a = RandomPolicy::seeded(42);
        let mut b = RandomPolicy::seeded(42);
        for _ in 0..50 {
            assert_eq!(a.next_offset(&bare), b.next_offset(&with_demands));
        }
        let mut ra = RotationPolicy::new(Snake);
        let mut rb = RotationPolicy::new(Snake);
        for _ in 0..50 {
            assert_eq!(ra.next_offset(&bare), rb.next_offset(&with_demands));
        }
    }

    #[test]
    fn baseline_is_pinned_and_needs_no_hardware() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let mut p = BaselinePolicy;
        for _ in 0..5 {
            assert_eq!(p.next_offset(&req(&fabric, &tracker, &[], false)), Some(Offset::ORIGIN));
        }
        assert!(!p.needs_movement());
    }

    #[test]
    fn rotation_follows_pattern_per_execution() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let mut p = RotationPolicy::new(Raster);
        let r = req(&fabric, &tracker, &[], false);
        assert_eq!(p.next_offset(&r), Some(Offset::new(0, 0)));
        assert_eq!(p.next_offset(&r), Some(Offset::new(0, 1)));
        assert_eq!(p.next_offset(&r), Some(Offset::new(0, 2)));
        assert!(p.needs_movement());
    }

    #[test]
    fn per_load_granularity_only_moves_on_switches() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let mut p = RotationPolicy::with_granularity(Raster, MovementGranularity::PerLoad);
        let stay = req(&fabric, &tracker, &[], false);
        let switch = req(&fabric, &tracker, &[], true);
        let first = p.next_offset(&switch);
        assert_eq!(p.next_offset(&stay), first);
        assert_eq!(p.next_offset(&stay), first);
        let second = p.next_offset(&switch);
        assert_ne!(second, first);
    }

    #[test]
    fn periodic_granularity_moves_every_n() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let mut p = RotationPolicy::with_granularity(Raster, MovementGranularity::Periodic(3));
        let r = req(&fabric, &tracker, &[], false);
        let offsets: Vec<Option<Offset>> = (0..7).map(|_| p.next_offset(&r)).collect();
        assert_eq!(offsets[0], offsets[1]);
        assert_eq!(offsets[1], offsets[2]);
        assert_ne!(offsets[2], offsets[3]);
        assert_eq!(offsets[3], offsets[4]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let fabric = Fabric::bp();
        let tracker = UtilizationTracker::new(&fabric);
        let r = req(&fabric, &tracker, &[], false);
        let mut a = RandomPolicy::seeded(42);
        let mut b = RandomPolicy::seeded(42);
        let mut c = RandomPolicy::seeded(7);
        let seq_a: Vec<Offset> = (0..50).map(|_| a.next_offset(&r).unwrap()).collect();
        let seq_b: Vec<Offset> = (0..50).map(|_| b.next_offset(&r).unwrap()).collect();
        let seq_c: Vec<Offset> = (0..50).map(|_| c.next_offset(&r).unwrap()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        assert_ne!(seq_a, seq_c, "different seed, different sequence");
        assert!(seq_a.iter().all(|o| o.in_range(&fabric)));
    }

    #[test]
    fn health_aware_avoids_hot_cells() {
        let fabric = Fabric::be();
        let mut tracker = UtilizationTracker::new(&fabric);
        // Hammer the top-left cell.
        for _ in 0..10 {
            tracker.record_execution(&[(0, 0)], 1);
        }
        let footprint = [(0u32, 0u32)];
        let mut p = HealthAwarePolicy::default();
        let o = p.next_offset(&req(&fabric, &tracker, &footprint, false)).unwrap();
        assert_ne!(o, Offset::ORIGIN, "must dodge the stressed corner");
    }

    #[test]
    fn pristine_mask_leaves_decision_streams_untouched() {
        // A mask with no dead cells must be indistinguishable from no mask
        // at all — including the random policy's draw count.
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32), (0, 1)];
        let mask = FaultMask::healthy(&fabric);
        let bare = req(&fabric, &tracker, &footprint, false);
        let legal = masked(&bare, &mask);
        let with_mask = AllocRequest { legal: &legal, ..bare };
        let mut a = RandomPolicy::seeded(42);
        let mut b = RandomPolicy::seeded(42);
        for _ in 0..50 {
            assert_eq!(a.next_offset(&bare), b.next_offset(&with_mask));
        }
        let mut ra = RotationPolicy::new(Snake);
        let mut rb = RotationPolicy::new(Snake);
        for _ in 0..50 {
            assert_eq!(ra.next_offset(&bare), rb.next_offset(&with_mask));
        }
    }

    #[test]
    fn baseline_dies_with_its_corner() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(0, 0);
        let r = req(&fabric, &tracker, &footprint, false);
        let legal = masked(&r, &mask);
        assert_eq!(BaselinePolicy.next_offset(&AllocRequest { legal: &legal, ..r }), None);
        // A failure elsewhere leaves the baseline untouched.
        let mut elsewhere = FaultMask::healthy(&fabric);
        elsewhere.mark_dead(1, 9);
        let legal = masked(&r, &elsewhere);
        let m = AllocRequest { legal: &legal, ..r };
        assert_eq!(BaselinePolicy.next_offset(&m), Some(Offset::ORIGIN));
    }

    #[test]
    fn rotation_skips_dead_pivots_and_reports_exhaustion() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(0, 1); // the raster pattern's second stop
        let mut p = RotationPolicy::new(Raster);
        let r = req(&fabric, &tracker, &footprint, false);
        let legal = masked(&r, &mask);
        let m = AllocRequest { legal: &legal, ..r };
        assert_eq!(p.next_offset(&m), Some(Offset::new(0, 0)));
        assert_eq!(p.next_offset(&m), Some(Offset::new(0, 2)), "skips the dead pivot");
        // Kill everything: the walk exhausts a full period and gives up.
        let mut all_dead = FaultMask::healthy(&fabric);
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                all_dead.mark_dead(row, col);
            }
        }
        let legal = masked(&r, &all_dead);
        assert_eq!(p.next_offset(&AllocRequest { legal: &legal, ..r }), None);
    }

    #[test]
    fn coarse_rotation_vacates_a_freshly_dead_resident_pivot() {
        let fabric = Fabric::be();
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut p = RotationPolicy::with_granularity(Raster, MovementGranularity::PerLoad);
        let stay = req(&fabric, &tracker, &footprint, false);
        let resident = p.next_offset(&stay).unwrap();
        assert_eq!(p.next_offset(&stay), Some(resident), "no switch, stays put");
        // The FU under the resident pivot fails: the next request must move
        // even without a configuration switch.
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(resident.row, resident.col);
        let legal = masked(&stay, &mask);
        let moved = p.next_offset(&AllocRequest { legal: &legal, ..stay }).unwrap();
        assert_ne!(moved, resident, "dead resident pivot forces a move");
    }

    #[test]
    fn random_only_draws_legal_placements() {
        let fabric = Fabric::new(2, 4);
        let tracker = UtilizationTracker::new(&fabric);
        let footprint = [(0u32, 0u32)];
        let mut mask = FaultMask::healthy(&fabric);
        // Leave exactly two cells alive.
        for (r, c) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] {
            mask.mark_dead(r, c);
        }
        let mut p = RandomPolicy::seeded(7);
        let r = req(&fabric, &tracker, &footprint, false);
        let legal = masked(&r, &mask);
        let m = AllocRequest { legal: &legal, ..r };
        for _ in 0..100 {
            let o = p.next_offset(&m).unwrap();
            assert!(!mask.is_dead(o.apply(&fabric, 0, 0).0, o.apply(&fabric, 0, 0).1));
        }
        mask.mark_dead(0, 3);
        mask.mark_dead(1, 3);
        let legal = masked(&r, &mask);
        let m = AllocRequest { legal: &legal, ..r };
        assert_eq!(p.next_offset(&m), None, "no legal placement left");
    }

    /// The wrapping scan the padded grid replaced, kept as the reference:
    /// the first legal pivot, row-major, whose footprint's hottest FU is
    /// coolest.
    fn least_stressed(req: &AllocRequest<'_>) -> Option<Offset> {
        let mut scan = LeastStressed { best: None, best_cost: u64::MAX };
        match req.legal.iter() {
            Some(legal) => {
                for off in legal {
                    if scan.visit(req, off) {
                        break;
                    }
                }
            }
            None => {
                'rows: for row in 0..req.fabric.rows {
                    for col in 0..req.fabric.cols {
                        if scan.visit(req, Offset::new(row, col)) {
                            break 'rows;
                        }
                    }
                }
            }
        }
        scan.best
    }

    /// The reference scan's incumbent.
    struct LeastStressed {
        best: Option<Offset>,
        best_cost: u64,
    }

    impl LeastStressed {
        /// Considers `off`; `true` once a zero-stress pivot is found, which
        /// nothing later can beat.
        fn visit(&mut self, req: &AllocRequest<'_>, off: Offset) -> bool {
            let mut cost = 0u64;
            for &(r, c) in req.footprint {
                let (pr, pc) = off.apply(req.fabric, r, c);
                cost = cost.max(req.tracker.exec_count(pr, pc));
                if cost >= self.best_cost {
                    break;
                }
            }
            if cost < self.best_cost || self.best.is_none() {
                self.best_cost = cost;
                self.best = Some(off);
                return cost == 0;
            }
            false
        }
    }

    /// One differential case: a fabric with its class map, a tracker, a
    /// footprint with demands and a fault mask.
    #[derive(Debug)]
    struct ScanCase {
        fabric: Fabric,
        counts: Vec<u64>,
        footprint: Vec<(u32, u32)>,
        demands: Vec<(u32, u32, OpKind)>,
        dead: Option<Vec<(u32, u32)>>,
    }

    fn any_scan_case() -> impl Strategy<Value = ScanCase> {
        let kinds = [
            MUL,
            OpKind::Alu(cgra::op::AluFunc::Add),
            OpKind::Load { func: cgra::op::LoadFunc::W, offset: 0 },
            OpKind::Store { func: cgra::op::StoreFunc::W, offset: 0 },
        ];
        let classes = prop_oneof![
            Just(ClassMap::Uniform(CellClass::Full)),
            Just(ClassMap::Uniform(CellClass::AluMul)),
            Just(ClassMap::Checker),
            Just(ClassMap::RowStripes),
            Just(ClassMap::ColStripes),
        ];
        ((1u32..=8), (4u32..=32), classes).prop_flat_map(move |(rows, cols, classes)| {
            let n = (rows * cols) as usize;
            // Virtual cells up to twice the geometry: `Offset::apply`
            // reduces them like wrapped ones.
            let cell = (0..2 * rows, 0..2 * cols);
            // Near-balanced trackers tie a lot; wide-spread ones rarely.
            let counts = prop_oneof![
                (0u64..4, proptest::collection::vec(0u64..=1, n..=n))
                    .prop_map(|(base, noise)| noise.iter().map(|x| base + x).collect()),
                proptest::collection::vec(0u64..=60, n..=n),
            ];
            let footprint = (proptest::collection::vec(cell.clone(), 0..=24), 0usize..=3).prop_map(
                |(mut cells, dups)| {
                    for i in 0..dups.min(cells.len()) {
                        cells.push(cells[i]);
                    }
                    cells
                },
            );
            let demands = proptest::collection::vec((cell.clone(), 0usize..kinds.len()), 0..=2)
                .prop_map(move |d| {
                    d.into_iter().map(|((r, c), k)| (r, c, kinds[k])).collect::<Vec<_>>()
                });
            let dead = prop_oneof![
                Just(None),
                proptest::collection::vec((0..rows, 0..cols), 0..=12).prop_map(Some),
                Just(Some((0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))).collect())),
            ];
            (counts, footprint, demands, dead).prop_map(
                move |(counts, footprint, demands, dead)| {
                    let mut fabric = Fabric::new(rows, cols);
                    fabric.classes = classes;
                    ScanCase { fabric, counts, footprint, demands, dead }
                },
            )
        })
    }

    #[test]
    fn padded_grid_scan_matches_the_wrapping_reference() {
        use proptest::test_runner::{Config, TestRunner};
        // One instance for every case: scratch left by a larger or
        // differently shaped fabric must never leak into a decision.
        let mut policy = HealthAwarePolicy::default();
        let mut runner = TestRunner::new(Config::with_cases(2000));
        let result = runner.run(&any_scan_case(), |case| {
            let f = &case.fabric;
            let mut tracker = UtilizationTracker::new(f);
            // Level sets: level `k` records every cell counted at least `k`.
            for k in 1..=case.counts.iter().copied().max().unwrap_or(0) {
                let level: Vec<(u32, u32)> = (0..f.fu_count())
                    .filter(|&i| case.counts[i as usize] >= k)
                    .map(|i| (i / f.cols, i % f.cols))
                    .collect();
                tracker.record_execution(&level, 1);
            }
            prop_assert_eq!(tracker.exec_counts(), &case.counts[..]);
            let mask = case.dead.as_ref().map(|dead| {
                let mut mask = FaultMask::healthy(f);
                for &(r, c) in dead {
                    mask.mark_dead(r, c);
                }
                mask
            });
            let legal = LegalPivots::new(f, &case.footprint, &case.demands, mask.as_ref());
            let r = AllocRequest { legal: &legal, ..req(f, &tracker, &case.footprint, false) };
            let want = least_stressed(&r);
            prop_assert_eq!(policy.next_offset(&r), want, "{:?}", case);
            // Deciding again on the same request repeats the pick.
            prop_assert_eq!(policy.next_offset(&r), want, "{:?}", case);
            Ok(())
        });
        if let Err(message) = result {
            panic!("{message}");
        }
    }

    #[test]
    #[should_panic(expected = "tracker geometry differs from the fabric")]
    fn health_aware_refuses_a_tracker_of_another_geometry() {
        // A 4x16 tracker holds every cell a 2x8 fabric addresses, so only
        // the geometry check stops it scoring the wrong cells.
        let fabric = Fabric::new(2, 8);
        let tracker = UtilizationTracker::new(&Fabric::new(4, 16));
        let footprint = [(0u32, 0u32)];
        HealthAwarePolicy::default().next_offset(&req(&fabric, &tracker, &footprint, false));
    }

    #[test]
    fn health_aware_skips_dead_cells() {
        let fabric = Fabric::new(2, 4);
        let mut tracker = UtilizationTracker::new(&fabric);
        // (1,3) is the coolest cell, but it is dead; (1,2) is next-coolest.
        for (cell, n) in [
            ((0, 0), 9),
            ((0, 1), 8),
            ((0, 2), 7),
            ((0, 3), 6),
            ((1, 0), 5),
            ((1, 1), 4),
            ((1, 2), 3),
        ] {
            for _ in 0..n {
                tracker.record_execution(&[cell], 1);
            }
        }
        let mut mask = FaultMask::healthy(&fabric);
        mask.mark_dead(1, 3);
        let footprint = [(0u32, 0u32)];
        let r = req(&fabric, &tracker, &footprint, false);
        let legal = masked(&r, &mask);
        let o =
            HealthAwarePolicy::default().next_offset(&AllocRequest { legal: &legal, ..r }).unwrap();
        assert_eq!(o.apply(&fabric, 0, 0), (1, 2), "coolest *live* cell wins");
        // All cells dead: even the oracle is out of options.
        let mut all_dead = FaultMask::healthy(&fabric);
        for row in 0..fabric.rows {
            for col in 0..fabric.cols {
                all_dead.mark_dead(row, col);
            }
        }
        let legal = masked(&r, &all_dead);
        assert_eq!(
            HealthAwarePolicy::default().next_offset(&AllocRequest { legal: &legal, ..r }),
            None
        );
    }
}
