//! Fabric geometry, heterogeneity and technology parameters.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::op::OpKind;

/// Latency of each operation class in *columns* (half processor cycles).
///
/// The paper's technology point: an ALU takes half a processor cycle (one
/// column); loads and stores are constrained by the data cache and take two
/// processor cycles (four columns). We give the combinational multiplier the
/// same four-column span (assumption documented in DESIGN.md §4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// Columns for an ALU operation (paper: 1).
    pub alu: u32,
    /// Columns for a multiply (assumption: 4 = two processor cycles).
    pub mul: u32,
    /// Columns for a load or store (paper: 4 = two processor cycles).
    pub mem: u32,
}

impl Default for OpLatencies {
    fn default() -> OpLatencies {
        OpLatencies { alu: 1, mul: 4, mem: 4 }
    }
}

/// The functional-unit capability class of one fabric cell (DESIGN.md §14).
///
/// Every cell executes ALU operations; memory and multiplier capabilities
/// are per-class extras. Capability constrains only the *anchor* cell of an
/// operation — the continuation columns of a spanned op are pipeline
/// registers of the anchor FU and need no capability of their own.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellClass {
    /// Bare ALU cell: no memory port, no multiplier array.
    Alu,
    /// ALU plus a data-cache port (`alu+mem`).
    AluMem,
    /// ALU plus a multiplier array (`alu+mul`).
    AluMul,
    /// Fully equipped cell — the homogeneous paper fabric (`alu+mem+mul`).
    #[default]
    Full,
}

impl CellClass {
    /// `true` if a cell of this class can *anchor* an operation of `kind`.
    pub fn supports(&self, kind: OpKind) -> bool {
        match kind {
            OpKind::Alu(_) => true,
            OpKind::Mul(_) => matches!(self, CellClass::AluMul | CellClass::Full),
            OpKind::Load { .. } | OpKind::Store { .. } => {
                matches!(self, CellClass::AluMem | CellClass::Full)
            }
        }
    }

    /// The class's compact name (`alu`, `alu+mem`, `alu+mul`, `full`).
    pub fn name(&self) -> &'static str {
        match self {
            CellClass::Alu => "alu",
            CellClass::AluMem => "alu+mem",
            CellClass::AluMul => "alu+mul",
            CellClass::Full => "full",
        }
    }
}

/// A compact per-cell capability map: a pattern generator computing the
/// [`CellClass`] of any `(row, col)` on demand, so a heterogeneous fabric
/// stays `Copy` like the homogeneous one (DESIGN.md §14).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassMap {
    /// Every cell has the same class; `Uniform(CellClass::Full)` is the
    /// paper's homogeneous fabric and the default.
    Uniform(CellClass),
    /// Checkerboard: cells with even `row + col` are [`CellClass::Full`],
    /// the rest bare ALUs.
    Checker,
    /// Row stripes: even rows are [`CellClass::Full`], odd rows bare ALUs.
    RowStripes,
    /// Column stripes: even columns are [`CellClass::Full`], odd columns
    /// bare ALUs.
    ColStripes,
}

impl Default for ClassMap {
    fn default() -> ClassMap {
        ClassMap::Uniform(CellClass::Full)
    }
}

impl ClassMap {
    /// The class of the cell at `(row, col)`.
    pub fn class_of(&self, row: u32, col: u32) -> CellClass {
        match self {
            ClassMap::Uniform(class) => *class,
            ClassMap::Checker => {
                if (row + col).is_multiple_of(2) {
                    CellClass::Full
                } else {
                    CellClass::Alu
                }
            }
            ClassMap::RowStripes => {
                if row.is_multiple_of(2) {
                    CellClass::Full
                } else {
                    CellClass::Alu
                }
            }
            ClassMap::ColStripes => {
                if col.is_multiple_of(2) {
                    CellClass::Full
                } else {
                    CellClass::Alu
                }
            }
        }
    }

    /// `true` if every cell offers the full capability set — the fast-path
    /// predicate policies use to skip capability checks entirely.
    pub fn is_fully_capable(&self) -> bool {
        matches!(self, ClassMap::Uniform(CellClass::Full))
    }
}

/// A [`Fabric`] invariant was violated (DESIGN.md §14): the typed form of
/// what used to be construction-time panics, surfaced through
/// `System::with_spec`'s `BuildError` so spec-driven sweeps can reject a bad
/// geometry without crashing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// `rows` or `cols` is zero.
    EmptyFabric,
    /// The memory-op latency exceeds the column count: no memory operation
    /// could ever be placed.
    MemLatencyTooLong {
        /// The fabric's column count.
        cols: u32,
        /// The memory-op latency in columns.
        mem: u32,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::EmptyFabric => f.write_str("fabric must have at least one FU"),
            FabricError::MemLatencyTooLong { cols, mem } => {
                write!(f, "fabric of {cols} column(s) cannot host a {mem}-column memory op")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// A rectangular TransRec-style CGRA fabric (paper Fig. 4).
///
/// Data propagates strictly left to right over `ctx_lines` context lines;
/// each of the `rows × cols` cells hosts one FU time-slot. The fabric is
/// also the carrier for the technology parameters the executor, the
/// reconfiguration unit and the area model need, plus the per-cell
/// capability classes and the per-column interconnect bandwidth budget of a
/// heterogeneous design point (DESIGN.md §14).
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// let be = Fabric::be();            // paper's "best energy" design point
/// assert_eq!((be.rows, be.cols), (2, 16));
/// assert_eq!(be.fu_count(), 32);
/// assert!(be.is_uniform());         // presets stay homogeneous
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fabric {
    /// Number of rows `W` (parallel execution).
    pub rows: u32,
    /// Number of columns `L` (sequential execution).
    pub cols: u32,
    /// Number of context lines (inter-column value buses).
    pub ctx_lines: u16,
    /// Number of reconfiguration bus lines `n` (paper Fig. 5: column `i`
    /// listens to line `i mod n`).
    pub cfg_lines: u32,
    /// Columns traversed per processor cycle (paper: 2 — ALUs take half a
    /// cycle).
    pub cols_per_cycle: u32,
    /// Operation latencies in columns.
    pub latencies: OpLatencies,
    /// Concurrent data-cache read ports (paper: one read).
    pub mem_read_ports: u32,
    /// Concurrent data-cache write ports (paper: one write).
    pub mem_write_ports: u32,
    /// Per-cell FU capability classes (DESIGN.md §14). The default,
    /// `ClassMap::Uniform(CellClass::Full)`, is the paper's homogeneous
    /// fabric.
    pub classes: ClassMap,
    /// Interconnect bandwidth budget per column: how many active FUs a
    /// column's context lines feed at full speed. `0` means unlimited (the
    /// paper's idealized interconnect); on over-subscribed columns the
    /// surplus shows up as extra effective duty (DESIGN.md §14).
    pub col_bandwidth: u32,
}

impl Fabric {
    /// Creates a fabric with `rows × cols` FUs and default technology
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or if the memory-op latency does
    /// not fit in `cols` (no memory operation could ever be placed). Use
    /// [`Fabric::try_new`] for the non-panicking form.
    pub fn new(rows: u32, cols: u32) -> Fabric {
        Fabric::try_new(rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a fabric with `rows × cols` FUs and default technology
    /// parameters, rejecting impossible geometries as a typed
    /// [`FabricError`] instead of panicking (DESIGN.md §14).
    ///
    /// # Errors
    ///
    /// [`FabricError::EmptyFabric`] if `rows` or `cols` is zero;
    /// [`FabricError::MemLatencyTooLong`] if the memory-op latency does not
    /// fit in `cols`.
    pub fn try_new(rows: u32, cols: u32) -> Result<Fabric, FabricError> {
        let f = Fabric {
            rows,
            cols,
            ctx_lines: 16,
            cfg_lines: 4,
            cols_per_cycle: 2,
            latencies: OpLatencies::default(),
            mem_read_ports: 1,
            mem_write_ports: 1,
            classes: ClassMap::default(),
            col_bandwidth: 0,
        };
        f.validate()?;
        Ok(f)
    }

    /// Checks the fabric invariants ([`Fabric::new`]'s former panics) on an
    /// already-built value — e.g. one assembled by hand or deserialized.
    ///
    /// # Errors
    ///
    /// The same [`FabricError`]s as [`Fabric::try_new`].
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(FabricError::EmptyFabric);
        }
        if self.latencies.mem > self.cols {
            return Err(FabricError::MemLatencyTooLong {
                cols: self.cols,
                mem: self.latencies.mem,
            });
        }
        Ok(())
    }

    /// The homogeneous `rows × cols` fabric: every cell fully equipped,
    /// unlimited interconnect — exactly today's [`Fabric::new`], spelled out
    /// for call sites that contrast it with heterogeneous layouts.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Fabric::new`].
    pub fn uniform(rows: u32, cols: u32) -> Fabric {
        Fabric::new(rows, cols)
    }

    /// The motivational 4×8 fabric of paper Fig. 1.
    pub fn fig1() -> Fabric {
        Fabric::new(4, 8)
    }

    /// Paper scenario **BE** (best energy): L16, W2.
    pub fn be() -> Fabric {
        Fabric::new(2, 16)
    }

    /// Paper scenario **BP** (best performance): L32, W4.
    pub fn bp() -> Fabric {
        Fabric::new(4, 32)
    }

    /// Paper scenario **BU** (best/lowest utilization): L32, W8.
    pub fn bu() -> Fabric {
        Fabric::new(8, 32)
    }

    /// Total number of FU cells.
    pub fn fu_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// The capability class of the cell at `(row, col)` (DESIGN.md §14).
    pub fn class_of(&self, row: u32, col: u32) -> CellClass {
        self.classes.class_of(row, col)
    }

    /// `true` if the cell at `(row, col)` can *anchor* an operation of
    /// `kind` (DESIGN.md §14): continuation columns of a spanned op need no
    /// capability of their own.
    pub fn supports(&self, row: u32, col: u32, kind: OpKind) -> bool {
        self.class_of(row, col).supports(kind)
    }

    /// `true` if every cell offers the full capability set — the paper's
    /// homogeneous fabric, and the fast path that keeps allocation decision
    /// streams bit-identical to the pre-heterogeneity ones.
    pub fn is_uniform(&self) -> bool {
        self.classes.is_fully_capable()
    }

    /// Latency in columns of an operation class.
    pub fn latency(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::Alu(_) => self.latencies.alu,
            OpKind::Mul(_) => self.latencies.mul,
            OpKind::Load { .. } | OpKind::Store { .. } => self.latencies.mem,
        }
    }

    /// Processor cycles to execute `cols_used` columns of configured fabric.
    pub fn exec_cycles(&self, cols_used: u32) -> u64 {
        (cols_used as u64).div_ceil(self.cols_per_cycle as u64)
    }

    /// Cycles the reconfiguration unit needs to stream `cols_used` columns
    /// of configuration over its `cfg_lines` bus lines (paper Fig. 5a).
    pub fn reconfig_cycles(&self, cols_used: u32) -> u64 {
        (cols_used as u64).div_ceil(self.cfg_lines as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluFunc, LoadFunc, MulFunc, StoreFunc};

    #[test]
    fn presets_match_paper() {
        assert_eq!((Fabric::fig1().rows, Fabric::fig1().cols), (4, 8));
        assert_eq!((Fabric::be().rows, Fabric::be().cols), (2, 16));
        assert_eq!((Fabric::bp().rows, Fabric::bp().cols), (4, 32));
        assert_eq!((Fabric::bu().rows, Fabric::bu().cols), (8, 32));
        assert_eq!(Fabric::bu().fu_count(), 256);
    }

    #[test]
    fn latencies() {
        let f = Fabric::be();
        assert_eq!(f.latency(OpKind::Alu(AluFunc::Add)), 1);
        assert_eq!(f.latency(OpKind::Mul(MulFunc::Mul)), 4);
        assert_eq!(f.latency(OpKind::Load { func: LoadFunc::W, offset: 0 }), 4);
        assert_eq!(f.latency(OpKind::Store { func: StoreFunc::B, offset: 0 }), 4);
    }

    #[test]
    fn cycle_math() {
        let f = Fabric::be();
        assert_eq!(f.exec_cycles(1), 1);
        assert_eq!(f.exec_cycles(2), 1);
        assert_eq!(f.exec_cycles(3), 2);
        assert_eq!(f.exec_cycles(16), 8);
        assert_eq!(f.reconfig_cycles(1), 1);
        assert_eq!(f.reconfig_cycles(4), 1);
        assert_eq!(f.reconfig_cycles(5), 2);
        assert_eq!(f.reconfig_cycles(16), 4);
    }

    #[test]
    #[should_panic(expected = "at least one FU")]
    fn zero_rows_rejected() {
        Fabric::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "memory op")]
    fn too_short_for_mem_rejected() {
        Fabric::new(2, 2);
    }

    #[test]
    fn try_new_types_the_former_panics() {
        assert_eq!(Fabric::try_new(0, 8), Err(FabricError::EmptyFabric));
        assert_eq!(Fabric::try_new(2, 2), Err(FabricError::MemLatencyTooLong { cols: 2, mem: 4 }));
        assert!(Fabric::try_new(2, 16).is_ok());
        // The panic messages the legacy tests pin are the Display strings.
        assert_eq!(FabricError::EmptyFabric.to_string(), "fabric must have at least one FU");
        assert_eq!(
            FabricError::MemLatencyTooLong { cols: 2, mem: 4 }.to_string(),
            "fabric of 2 column(s) cannot host a 4-column memory op"
        );
    }

    #[test]
    fn validate_catches_hand_built_fabrics() {
        let mut f = Fabric::be();
        assert_eq!(f.validate(), Ok(()));
        f.latencies.mem = 17;
        assert_eq!(f.validate(), Err(FabricError::MemLatencyTooLong { cols: 16, mem: 17 }));
    }

    #[test]
    fn uniform_matches_new_exactly() {
        assert_eq!(Fabric::uniform(2, 16), Fabric::be());
        assert!(Fabric::uniform(4, 8).is_uniform());
        assert_eq!(Fabric::uniform(4, 8).col_bandwidth, 0);
    }

    #[test]
    fn class_maps_pattern_the_grid() {
        let mem = OpKind::Load { func: LoadFunc::W, offset: 0 };
        let mul = OpKind::Mul(MulFunc::Mul);
        let alu = OpKind::Alu(AluFunc::Add);

        let mut f = Fabric::fig1();
        f.classes = ClassMap::Checker;
        assert_eq!(f.class_of(0, 0), CellClass::Full);
        assert_eq!(f.class_of(0, 1), CellClass::Alu);
        assert_eq!(f.class_of(1, 0), CellClass::Alu);
        assert_eq!(f.class_of(1, 1), CellClass::Full);
        assert!(!f.is_uniform());
        assert!(f.supports(0, 0, mem) && f.supports(0, 0, mul));
        assert!(!f.supports(0, 1, mem) && !f.supports(0, 1, mul));
        assert!(f.supports(0, 1, alu), "every cell executes ALU ops");

        f.classes = ClassMap::RowStripes;
        assert!(f.supports(0, 3, mem) && !f.supports(1, 3, mem));
        f.classes = ClassMap::ColStripes;
        assert!(f.supports(3, 0, mem) && !f.supports(3, 1, mem));
        f.classes = ClassMap::Uniform(CellClass::AluMem);
        assert!(f.supports(2, 2, mem) && !f.supports(2, 2, mul));
        assert!(!f.is_uniform(), "uniform alu+mem still lacks multipliers");
    }
}
