//! Serializable report types, one per paper artefact.

use serde::{Deserialize, Serialize};

/// Fig. 1 — motivational utilization heatmap (4×8, traditional mapping).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig1Report {
    /// Canonical fabric spec string (`FabricSpec` grammar, DESIGN.md §14).
    pub fabric: String,
    /// Fabric rows.
    pub rows: u32,
    /// Fabric cols.
    pub cols: u32,
    /// Row-major per-FU utilization.
    pub utilization: Vec<f64>,
    /// Highest / lowest per-FU utilization.
    pub max: f64,
    /// Lowest per-FU utilization.
    pub min: f64,
    /// Rendered heatmap (paper-style percent grid).
    pub heatmap: String,
}

/// One Fig. 6 design point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Point {
    /// Canonical fabric spec string (`FabricSpec` grammar, DESIGN.md §14).
    pub fabric: String,
    /// Columns (L).
    pub l: u32,
    /// Rows (W).
    pub w: u32,
    /// Execution time relative to the stand-alone GPP (1/speedup).
    pub rel_time: f64,
    /// Energy relative to the stand-alone GPP.
    pub rel_energy: f64,
    /// Mean per-FU utilization ("occupation").
    pub occupation: f64,
    /// Speedup over the GPP.
    pub speedup: f64,
    /// All benchmarks verified against their oracles.
    pub verified: bool,
}

/// Fig. 6 — the design-space exploration scatter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Report {
    /// All twelve design points.
    pub points: Vec<Fig6Point>,
}

/// Fig. 7 — BE utilization heatmaps, baseline vs proposed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig7Report {
    /// Canonical fabric spec string (`FabricSpec` grammar, DESIGN.md §14).
    pub fabric: String,
    /// Fabric rows.
    pub rows: u32,
    /// Fabric cols.
    pub cols: u32,
    /// The proposed policy's spec string (`rotation:snake@per-exec` unless
    /// overridden via `--policy`).
    pub proposed_policy: String,
    /// Baseline per-FU utilization (row-major).
    pub baseline: Vec<f64>,
    /// Proposed (rotation) per-FU utilization (row-major).
    pub proposed: Vec<f64>,
    /// Baseline worst-FU utilization.
    pub baseline_max: f64,
    /// Proposed worst-FU utilization.
    pub proposed_max: f64,
    /// Rendered baseline heatmap.
    pub baseline_heatmap: String,
    /// Rendered proposed heatmap.
    pub proposed_heatmap: String,
}

/// One scenario × policy series of Fig. 8.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Scenario tag (BE/BP/BU).
    pub scenario: String,
    /// Policy spec string (`baseline`, `rotation:snake@per-load`, …).
    pub policy: String,
    /// Utilization-PDF points `(bin_center, density)`.
    pub pdf: Vec<(f64, f64)>,
    /// Worst-FU delay-degradation curve `(years, delay_fraction)` built
    /// from the **in-run epoch series**: deployment time `t` maps to the
    /// cumulative worst-FU utilization observed after the matching
    /// fraction of the run (DESIGN.md §10).
    pub delay_curve: Vec<(f64, f64)>,
    /// The analytic curve extrapolated from the final utilization alone —
    /// kept as a cross-check series; both curves agree at the horizon.
    pub analytic_delay_curve: Vec<(f64, f64)>,
    /// The suite-level epoch series `(system_cycle, cumulative worst-FU
    /// utilization)` the in-run curve was built from.
    pub epoch_worst: Vec<(u64, f64)>,
    /// Worst-FU utilization (end of run).
    pub worst_utilization: f64,
}

/// Fig. 8 — utilization PDFs (top) and NBTI delay curves (bottom).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8Report {
    /// One series per scenario × policy (baseline plus every context
    /// policy: three scenarios × five series by default).
    pub series: Vec<Fig8Series>,
    /// End-of-life delay fraction (the 10% line).
    pub eol_delay_frac: f64,
    /// Epoch-sampling interval (system cycles) of the in-run series.
    pub epoch_cycles: u64,
}

/// One layout-explorer row: one fabric layout under one policy
/// (DESIGN.md §14).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayoutRow {
    /// Canonical fabric spec string (`FabricSpec` grammar).
    pub fabric: String,
    /// Policy spec string (`baseline`, `rotation:snake@per-exec`, …).
    pub policy: String,
    /// Suite speedup over the stand-alone GPP.
    pub speedup: f64,
    /// Worst-FU effective duty (bandwidth-stressed utilization — what
    /// NBTI sees).
    pub worst_utilization: f64,
    /// Mean per-FU effective duty.
    pub mean_utilization: f64,
    /// Projected worst-FU delay increase at the context horizon.
    pub worst_wear: f64,
    /// Projected lifetime in years (worst FU crossing end-of-life).
    pub lifetime_years: f64,
    /// Configurations that fell back to the GPP because no capable
    /// placement existed on this layout.
    pub offloads_starved: u64,
    /// All benchmarks verified against their oracles.
    pub verified: bool,
}

/// The layout explorer (`results/layout.json`) — [`cgra::FabricSpec`]
/// layout mixes × policies: per-layout speedup, worst-FU wear and
/// projected lifetime (DESIGN.md §14).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayoutReport {
    /// The proposed policy's spec string (first `--policy`, or the
    /// paper's snake rotation).
    pub proposed_policy: String,
    /// Layout-major rows: for each layout, baseline first, then every
    /// context policy.
    pub rows: Vec<LayoutRow>,
}

/// One optimality-gap row: one (fabric layout × fault density) cell under
/// one policy, measured against the per-decision (myopic) `exact` oracle
/// (DESIGN.md §15).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GapRow {
    /// Canonical fabric spec string (`FabricSpec` grammar).
    pub fabric: String,
    /// Injected permanent-fault density (dead FUs / total FUs).
    pub fault_density: f64,
    /// Dead FUs actually injected at this density.
    pub dead_fus: u32,
    /// Policy spec string (`baseline`, …, `exact`).
    pub policy: String,
    /// Suite speedup over the stand-alone GPP.
    pub speedup: f64,
    /// Worst-FU effective duty (bandwidth-stressed utilization — what
    /// NBTI sees).
    pub worst_utilization: f64,
    /// Mean per-FU effective duty.
    pub mean_utilization: f64,
    /// Projected lifetime in years (worst FU crossing end-of-life;
    /// `null` when the policy never offloaded and nothing wears).
    pub lifetime_years: f64,
    /// Worst-FU duty relative to the oracle's on the same cell (`1.0`
    /// matches the per-decision oracle, which is not a whole-run optimum;
    /// `null` when the oracle itself never offloaded).
    pub duty_gap: f64,
    /// Oracle lifetime over this policy's (`1.0` matches the per-decision
    /// oracle).
    pub lifetime_gap: f64,
    /// Configuration executions the policy actually placed on the fabric.
    pub offloads: u64,
    /// Configurations that fell back to the GPP (capability starvation or
    /// the fault-fallback path).
    pub offloads_starved: u64,
    /// All benchmarks verified against their oracles.
    pub verified: bool,
}

/// The optimality-gap experiment (`results/gap.json`) — every heuristic
/// policy measured against the per-decision (myopic) `exact` oracle over
/// fabric layouts × injected fault densities (DESIGN.md §15).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GapReport {
    /// The oracle's spec string (the yardstick policy).
    pub exact_policy: String,
    /// Cell-major rows: for each layout × density, baseline first, then
    /// every context policy, then the oracle.
    pub rows: Vec<GapRow>,
}

/// One utilization-convergence row: how fast a policy's cumulative
/// worst-FU utilization settles to its final value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConvergenceRow {
    /// Scenario tag (BE/BP/BU).
    pub scenario: String,
    /// Policy spec string.
    pub policy: String,
    /// Total suite cycles behind the series.
    pub total_cycles: u64,
    /// Final cumulative worst-FU utilization.
    pub final_worst: f64,
    /// First sampled cycle from which the worst-FU utilization stays
    /// within the report's tolerance of the final value.
    pub settle_cycle: u64,
    /// `settle_cycle / total_cycles` — how early the stress distribution
    /// flattened (lower is faster).
    pub settle_fraction: f64,
}

/// Utilization-convergence report: per scenario × policy, the speed at
/// which cumulative worst-FU stress flattens during the run — the
/// temporal complement of Table I's end-state numbers (DESIGN.md §10).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Relative tolerance around the final worst utilization that counts
    /// as "settled".
    pub tolerance: f64,
    /// Scenario × policy rows, in Fig. 8 series order.
    pub rows: Vec<ConvergenceRow>,
}

/// One Table I row: one policy on one scenario, against that scenario's
/// baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Row {
    /// Scenario tag.
    pub scenario: String,
    /// Policy spec string (`rotation:snake@per-exec`, `health-aware`, …).
    pub policy: String,
    /// Mean per-FU utilization (baseline run; policy-invariant workload
    /// property).
    pub avg_util: f64,
    /// Baseline worst-FU utilization.
    pub baseline_worst: f64,
    /// This policy's worst-FU utilization.
    pub policy_worst: f64,
    /// Lifetime improvement factor over the baseline.
    pub lifetime_improvement: f64,
    /// Baseline lifetime in years.
    pub baseline_lifetime_years: f64,
    /// This policy's lifetime in years.
    pub policy_lifetime_years: f64,
}

/// Table I — utilization and lifetime improvements per scenario × policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Report {
    /// Scenario × policy rows, scenarios in paper order (BE/BP/BU).
    pub rows: Vec<Table1Row>,
}

/// Table II — area of the BE fabric with and without the extensions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2Report {
    /// Baseline area in µm².
    pub baseline_area_um2: f64,
    /// Modified (with movement extensions) area in µm².
    pub modified_area_um2: f64,
    /// Baseline standard-cell count.
    pub baseline_cells: u64,
    /// Modified standard-cell count.
    pub modified_cells: u64,
    /// Area overhead fraction.
    pub area_overhead: f64,
    /// Cell overhead fraction.
    pub cell_overhead: f64,
    /// Column latency (ps), baseline.
    pub baseline_delay_ps: f64,
    /// Column latency (ps), modified.
    pub modified_delay_ps: f64,
    /// Overheads for the other evaluated fabrics `(name, cells, area)`.
    pub other_fabrics: Vec<(String, f64, f64)>,
    /// Configuration-cache SRAM sizing (FinCACTI substitute): capacity in
    /// KiB and macro area in µm².
    pub cfg_cache_kib: f64,
    /// Configuration-cache macro area in µm².
    pub cfg_cache_area_um2: f64,
}
