//! Per-FU utilization accounting and distribution statistics.

use cgra::Fabric;
use serde::{Deserialize, Serialize};

/// Records which physical FU cells each configuration execution touched.
///
/// Two weightings are tracked (DESIGN.md §4.1):
///
/// * **execution-weighted** (the paper's headline metric, "used by X% of the
///   CGRA configurations"): the fraction of configuration executions in
///   which the FU was active;
/// * **column-time weighted**: the fraction of executed fabric column-slots
///   during which the FU was busy.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use uaware::UtilizationTracker;
///
/// let fabric = Fabric::be();
/// let mut t = UtilizationTracker::new(&fabric);
/// t.record_execution(&[(0, 0), (0, 1)], 2);
/// t.record_execution(&[(0, 0)], 1);
/// let grid = t.utilization();
/// assert_eq!(grid.value(0, 0), 1.0);  // active in both executions
/// assert_eq!(grid.value(0, 1), 0.5);  // active in one of two
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationTracker {
    rows: u32,
    cols: u32,
    col_bandwidth: u32,
    exec_counts: Vec<u64>,
    stress_counts: Vec<u64>,
    executions: u64,
    total_col_slots: u64,
}

impl UtilizationTracker {
    /// Creates a tracker matching `fabric`'s geometry, carrying the
    /// fabric's per-column interconnect budget for the bandwidth-contention
    /// stress accounting (DESIGN.md §14).
    pub fn new(fabric: &Fabric) -> UtilizationTracker {
        let n = fabric.fu_count() as usize;
        UtilizationTracker {
            rows: fabric.rows,
            cols: fabric.cols,
            col_bandwidth: fabric.col_bandwidth,
            exec_counts: vec![0; n],
            stress_counts: vec![0; n],
            executions: 0,
            total_col_slots: 0,
        }
    }

    /// Records one configuration execution: the physical cells it occupied
    /// and the number of columns it ran for.
    ///
    /// With a finite column bandwidth budget `b`, each active cell in a
    /// column occupied by `o > b` FUs accrues `ceil(o / b)` stress instead
    /// of 1 — the serialization slots an over-subscribed interconnect costs
    /// show up as extra effective NBTI duty on the winner FUs (DESIGN.md
    /// §14). With the default unlimited budget, stress equals the execution
    /// count and every downstream number is bit-identical to the
    /// pre-bandwidth model. Returns how many of the cells were
    /// over-subscribed that way (`cgra.bandwidth.oversub`, DESIGN.md §16).
    ///
    /// # Panics
    ///
    /// Panics if a cell lies outside the tracked geometry.
    pub fn record_execution(&mut self, active_cells: &[(u32, u32)], cols_used: u32) -> u64 {
        self.executions += 1;
        self.total_col_slots += cols_used as u64;
        let mut oversub_cells = 0u64;
        for &(r, c) in active_cells {
            assert!(r < self.rows && c < self.cols, "cell ({r},{c}) outside fabric");
            let i = (r * self.cols + c) as usize;
            self.exec_counts[i] += 1;
            let stress = if self.col_bandwidth == 0 {
                1
            } else {
                // Column occupancy of this execution; the scan stays
                // allocation-free and only runs on budgeted fabrics.
                let occupancy = active_cells.iter().filter(|&&(_, cc)| cc == c).count() as u64;
                occupancy.div_ceil(self.col_bandwidth as u64)
            };
            if stress > 1 {
                oversub_cells += 1;
            }
            self.stress_counts[i] += stress;
        }
        oversub_cells
    }

    /// Merges another tracker's observations (e.g. per-benchmark trackers
    /// into a suite-level one).
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatch.
    pub fn merge(&mut self, other: &UtilizationTracker) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "geometry mismatch");
        assert_eq!(self.col_bandwidth, other.col_bandwidth, "bandwidth budget mismatch");
        for (a, b) in self.exec_counts.iter_mut().zip(&other.exec_counts) {
            *a += b;
        }
        for (a, b) in self.stress_counts.iter_mut().zip(&other.stress_counts) {
            *a += b;
        }
        self.executions += other.executions;
        self.total_col_slots += other.total_col_slots;
    }

    /// Total configuration executions recorded.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Tracked fabric rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Tracked fabric columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The raw per-FU execution counters in row-major order — the
    /// numerators of [`utilization`](Self::utilization). Epoch-sampling
    /// observers snapshot this slice (integer state, exactly mergeable)
    /// instead of the derived `f64` grid (DESIGN.md §10).
    pub fn exec_counts(&self) -> &[u64] {
        &self.exec_counts
    }

    /// Raw execution count of the FU at `(row, col)` — the numerator of
    /// [`utilization`](Self::utilization), exposed so per-decision consumers
    /// (the health-aware scan) can rank cells without materializing a grid.
    ///
    /// # Panics
    ///
    /// Panics if the cell lies outside the tracked geometry.
    pub fn exec_count(&self, row: u32, col: u32) -> u64 {
        assert!(row < self.rows && col < self.cols, "cell ({row},{col}) outside fabric");
        self.exec_counts[(row * self.cols + col) as usize]
    }

    /// Execution-weighted utilization grid (the paper's metric).
    pub fn utilization(&self) -> UtilizationGrid {
        let denom = self.executions.max(1) as f64;
        UtilizationGrid {
            rows: self.rows,
            cols: self.cols,
            values: self.exec_counts.iter().map(|c| *c as f64 / denom).collect(),
        }
    }

    /// The raw per-FU stress counters in row-major order — the numerators
    /// of [`duty_cycles`](Self::duty_cycles). On an unlimited-bandwidth
    /// fabric they equal [`exec_counts`](Self::exec_counts); on a budgeted
    /// one, cells on over-subscribed columns run ahead (DESIGN.md §14).
    pub fn stress_counts(&self) -> &[u64] {
        &self.stress_counts
    }

    /// The per-FU NBTI duty cycles of a run that spanned `elapsed_cycles`
    /// system cycles (DESIGN.md §11): under the paper's model a unit's
    /// stress duty *is* its execution-weighted utilization, but a raw
    /// `exec_counts / executions` division is hazardous at the edges —
    /// an empty run (`executions == 0`) or a zero-length one
    /// (`elapsed_cycles == 0`, e.g. a mission that never got to execute)
    /// exerted no stress at all, so both must yield the all-zero grid
    /// instead of a division callers would have to guard by hand.
    ///
    /// On a fabric with a finite column bandwidth budget the numerator is
    /// the *stress* count — execution count plus the serialization surplus
    /// of over-subscribed columns — capped at a duty of 1.0, since an FU
    /// cannot be stressed for more than the full run (DESIGN.md §14). With
    /// the default unlimited budget this is bit-identical to
    /// [`utilization`](Self::utilization).
    ///
    /// # Examples
    ///
    /// ```
    /// use cgra::Fabric;
    /// use uaware::UtilizationTracker;
    ///
    /// let mut t = UtilizationTracker::new(&Fabric::be());
    /// assert_eq!(t.duty_cycles(0).max(), 0.0);      // zero-length run
    /// assert_eq!(t.duty_cycles(1_000).max(), 0.0);  // no executions yet
    /// t.record_execution(&[(0, 0)], 2);
    /// assert_eq!(t.duty_cycles(1_000).value(0, 0), 1.0);
    /// ```
    pub fn duty_cycles(&self, elapsed_cycles: u64) -> UtilizationGrid {
        if elapsed_cycles == 0 || self.executions == 0 {
            return UtilizationGrid {
                rows: self.rows,
                cols: self.cols,
                values: vec![0.0; self.exec_counts.len()],
            };
        }
        let denom = self.executions.max(1) as f64;
        UtilizationGrid {
            rows: self.rows,
            cols: self.cols,
            values: self.stress_counts.iter().map(|c| (*c as f64 / denom).min(1.0)).collect(),
        }
    }

    /// Column-time-weighted utilization grid.
    pub fn time_utilization(&self) -> UtilizationGrid {
        let denom = self.total_col_slots.max(1) as f64;
        UtilizationGrid {
            rows: self.rows,
            cols: self.cols,
            values: self.exec_counts.iter().map(|c| *c as f64 / denom).collect(),
        }
    }
}

/// A per-FU utilization map with distribution statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UtilizationGrid {
    rows: u32,
    cols: u32,
    values: Vec<f64>,
}

impl UtilizationGrid {
    /// Builds a grid from row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols` or any value is outside
    /// `[0, 1]`.
    pub fn from_values(rows: u32, cols: u32, values: Vec<f64>) -> UtilizationGrid {
        assert_eq!(values.len(), (rows * cols) as usize, "value count mismatch");
        assert!(values.iter().all(|v| (0.0..=1.0).contains(v)), "utilization outside [0, 1]");
        UtilizationGrid { rows, cols, values }
    }

    /// Builds an execution-weighted grid from raw per-FU execution counters
    /// (a [`UtilizationTracker::exec_counts`] snapshot) and the execution
    /// total they were taken at. With `executions == 0` every cell is 0.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != rows * cols` or any count exceeds
    /// `executions`.
    ///
    /// # Examples
    ///
    /// ```
    /// use uaware::UtilizationGrid;
    ///
    /// let g = UtilizationGrid::from_counts(1, 2, &[3, 1], 4);
    /// assert_eq!(g.value(0, 0), 0.75);
    /// assert_eq!(g.value(0, 1), 0.25);
    /// ```
    pub fn from_counts(rows: u32, cols: u32, counts: &[u64], executions: u64) -> UtilizationGrid {
        let denom = executions.max(1) as f64;
        UtilizationGrid::from_values(rows, cols, counts.iter().map(|c| *c as f64 / denom).collect())
    }

    /// Grid height.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Utilization of the FU at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value(&self, row: u32, col: u32) -> f64 {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.values[(row * self.cols + col) as usize]
    }

    /// Row-major values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Highest per-FU utilization — the component that dies first.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Lowest per-FU utilization.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(1.0, f64::min)
    }

    /// Mean utilization (the paper's "average occupation").
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        let m = self.mean();
        (self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Coefficient of variation (σ/µ); 0 for perfectly balanced utilization.
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Gini coefficient of the utilization distribution (0 = perfectly
    /// uniform, →1 = all stress on one FU).
    pub fn gini(&self) -> f64 {
        let n = self.values.len() as f64;
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN utilizations"));
        let total: f64 = sorted.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = sorted.iter().enumerate().map(|(i, v)| (i as f64 + 1.0) * v).sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }

    /// Histogram of per-FU utilizations over `[0, 1]` with `bins` equal bins
    /// (paper Fig. 8, top: the utilization PDF).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        let mut counts = vec![0u64; bins];
        for v in &self.values {
            let i = ((v * bins as f64) as usize).min(bins - 1);
            counts[i] += 1;
        }
        Histogram { bins, counts, total: self.values.len() as u64 }
    }

    /// Renders the grid as the percent heatmap the paper's Figs. 1 and 7
    /// print (row 1 at the bottom, like the paper's axes).
    pub fn render_heatmap(&self) -> String {
        let mut out = String::new();
        for row in (0..self.rows).rev() {
            out.push_str(&format!("row {:>2} |", row + 1));
            for col in 0..self.cols {
                out.push_str(&format!(" {:>4.0}%", 100.0 * self.value(row, col)));
            }
            out.push('\n');
        }
        out.push_str("        ");
        for col in 0..self.cols {
            out.push_str(&format!(" c{:<4}", col + 1));
        }
        out.push('\n');
        out
    }
}

/// A binned utilization distribution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of equal-width bins over `[0, 1]`.
    pub bins: usize,
    /// FU count per bin.
    pub counts: Vec<u64>,
    /// Total FUs.
    pub total: u64,
}

impl Histogram {
    /// Probability density per bin (integrates to 1 over `[0, 1]`).
    pub fn density(&self) -> Vec<f64> {
        let w = 1.0 / self.bins as f64;
        self.counts.iter().map(|c| *c as f64 / (self.total.max(1) as f64 * w)).collect()
    }

    /// `(bin_center, density)` pairs, ready for plotting.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let w = 1.0 / self.bins as f64;
        self.density().into_iter().enumerate().map(|(i, d)| ((i as f64 + 0.5) * w, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(values: Vec<f64>) -> UtilizationGrid {
        UtilizationGrid::from_values(1, values.len() as u32, values)
    }

    #[test]
    fn tracker_weightings_differ() {
        let fabric = Fabric::be();
        let mut t = UtilizationTracker::new(&fabric);
        // Execution 1: cell (0,0) active, 10 columns.
        t.record_execution(&[(0, 0)], 10);
        // Execution 2: cell (0,1) active, 2 columns.
        t.record_execution(&[(0, 1)], 2);
        let exec = t.utilization();
        assert_eq!(exec.value(0, 0), 0.5);
        assert_eq!(exec.value(0, 1), 0.5);
        let time = t.time_utilization();
        assert!((time.value(0, 0) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn duty_cycles_guard_degenerate_runs() {
        let fabric = Fabric::be();
        let mut t = UtilizationTracker::new(&fabric);
        // Zero-length and empty runs both exert zero stress.
        assert!(t.duty_cycles(0).values().iter().all(|&v| v == 0.0));
        assert!(t.duty_cycles(500).values().iter().all(|&v| v == 0.0));
        t.record_execution(&[(0, 0), (1, 1)], 2);
        t.record_execution(&[(0, 0)], 2);
        let duty = t.duty_cycles(1_000);
        assert_eq!(duty.value(0, 0), 1.0);
        assert_eq!(duty.value(1, 1), 0.5);
        assert_eq!(duty, t.utilization(), "a non-degenerate run matches the paper metric");
        // A recorded run of zero elapsed cycles is still degenerate.
        assert!(t.duty_cycles(0).values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bandwidth_budget_inflates_duty_on_oversubscribed_columns() {
        let mut fabric = Fabric::fig1(); // 4 x 8
        fabric.col_bandwidth = 2;
        let mut t = UtilizationTracker::new(&fabric);
        // Column 0 hosts 3 active FUs against a budget of 2 -> each accrues
        // ceil(3/2) = 2 stress; column 1 hosts 1 FU -> within budget.
        t.record_execution(&[(0, 0), (1, 0), (2, 0), (0, 1)], 2);
        t.record_execution(&[(0, 1)], 1);
        assert_eq!(t.exec_count(0, 0), 1, "execution counts stay the paper metric");
        assert_eq!(t.stress_counts()[0], 2);
        let duty = t.duty_cycles(1_000);
        assert_eq!(duty.value(0, 0), 1.0, "2 stress / 2 executions");
        assert_eq!(duty.value(0, 1), 1.0, "within budget: stress == executions");
        assert_eq!(t.utilization().value(0, 0), 0.5, "utilization is unaffected");
        // Heavier oversubscription saturates at a duty of 1.0.
        let mut starved = fabric;
        starved.col_bandwidth = 1;
        let mut s = UtilizationTracker::new(&starved);
        s.record_execution(&[(0, 0), (1, 0), (2, 0), (3, 0)], 1);
        s.record_execution(&[(0, 7)], 1);
        assert_eq!(s.stress_counts()[0], 4);
        assert_eq!(s.duty_cycles(10).value(0, 0), 1.0, "duty caps at the full run");
    }

    #[test]
    fn unlimited_bandwidth_keeps_duty_equal_to_utilization() {
        let fabric = Fabric::fig1();
        let mut t = UtilizationTracker::new(&fabric);
        t.record_execution(&[(0, 0), (1, 0), (2, 0), (3, 0)], 2);
        t.record_execution(&[(0, 0)], 1);
        assert_eq!(t.stress_counts(), t.exec_counts());
        assert_eq!(t.duty_cycles(100), t.utilization());
    }

    #[test]
    fn merge_adds_observations() {
        let fabric = Fabric::be();
        let mut a = UtilizationTracker::new(&fabric);
        let mut b = UtilizationTracker::new(&fabric);
        a.record_execution(&[(0, 0)], 1);
        b.record_execution(&[(1, 1)], 1);
        a.merge(&b);
        assert_eq!(a.executions(), 2);
        assert_eq!(a.utilization().value(0, 0), 0.5);
        assert_eq!(a.utilization().value(1, 1), 0.5);
    }

    #[test]
    fn statistics() {
        let g = grid(vec![0.0, 0.5, 1.0, 0.5]);
        assert_eq!(g.max(), 1.0);
        assert_eq!(g.min(), 0.0);
        assert_eq!(g.mean(), 0.5);
        assert!(g.std_dev() > 0.0);
        assert!(g.cov() > 0.0);
        let uniform = grid(vec![0.4; 8]);
        assert!(uniform.cov().abs() < 1e-12);
        assert!(uniform.gini().abs() < 1e-12);
        // All stress on one FU: Gini approaches (n-1)/n.
        let skewed = grid(vec![0.0, 0.0, 0.0, 1.0]);
        assert!((skewed.gini() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let g = grid(vec![0.05, 0.1, 0.2, 0.9, 0.97, 0.5, 0.5, 0.45]);
        let h = g.histogram(20);
        assert_eq!(h.counts.iter().sum::<u64>(), 8);
        let integral: f64 = h.density().iter().sum::<f64>() / 20.0;
        assert!((integral - 1.0).abs() < 1e-12);
        assert_eq!(h.series().len(), 20);
    }

    #[test]
    fn histogram_boundary_values() {
        let g = grid(vec![0.0, 1.0]);
        let h = g.histogram(10);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[9], 1, "u=1.0 lands in the last bin");
    }

    #[test]
    fn heatmap_renders_every_cell() {
        let g = UtilizationGrid::from_values(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let s = g.render_heatmap();
        for pct in ["10%", "20%", "30%", "40%", "50%", "60%"] {
            assert!(s.contains(pct), "missing {pct} in:\n{s}");
        }
    }

    #[test]
    #[should_panic(expected = "outside fabric")]
    fn tracker_rejects_bad_cells() {
        let mut t = UtilizationTracker::new(&Fabric::be());
        t.record_execution(&[(5, 0)], 1);
    }
}
