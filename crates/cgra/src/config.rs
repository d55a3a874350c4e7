//! Virtual configurations (paper Fig. 3a) and their legality rules.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::fabric::Fabric;
use crate::op::{CtxLine, OpKind, Operand, PlacedOp};

/// A pivot offset: where a virtual configuration is anchored in the physical
/// fabric (paper Fig. 3b/c). Coordinates wrap around the fabric edges.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Offset {
    /// Row displacement (0 ≤ `row` < fabric rows).
    pub row: u32,
    /// Column displacement (0 ≤ `col` < fabric cols).
    pub col: u32,
}

impl Offset {
    /// The baseline anchor: top-left corner, no movement.
    pub const ORIGIN: Offset = Offset { row: 0, col: 0 };

    /// Creates an offset.
    pub fn new(row: u32, col: u32) -> Offset {
        Offset { row, col }
    }

    /// Maps a virtual cell to its physical cell with wrap-around.
    pub fn apply(&self, fabric: &Fabric, row: u32, col: u32) -> (u32, u32) {
        ((row + self.row) % fabric.rows, (col + self.col) % fabric.cols)
    }

    /// `true` if the offset addresses a valid fabric position.
    pub fn in_range(&self, fabric: &Fabric) -> bool {
        self.row < fabric.rows && self.col < fabric.cols
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(r{}, c{})", self.row, self.col)
    }
}

/// Why a set of placed operations is not a legal configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A configuration must contain at least one operation.
    Empty,
    /// Operation exceeds fabric bounds.
    OutOfBounds {
        /// Index into the op list.
        index: usize,
    },
    /// Operation span differs from the fabric latency of its class.
    WrongSpan {
        /// Index into the op list.
        index: usize,
        /// Required span for the op class.
        expected: u32,
        /// Actual span.
        got: u32,
    },
    /// Two operations occupy the same FU cell.
    Overlap {
        /// First op index.
        a: usize,
        /// Second op index.
        b: usize,
    },
    /// A context-line index exceeds the fabric's line count.
    LineOutOfRange {
        /// Offending line.
        line: CtxLine,
    },
    /// An operand reads a line no input or completed producer has defined.
    UndefinedRead {
        /// Index into the op list.
        index: usize,
        /// The undefined line.
        line: CtxLine,
    },
    /// Two producers write the same line in the same column.
    WriteConflict {
        /// First op index.
        a: usize,
        /// Second op index.
        b: usize,
        /// The doubly-written line.
        line: CtxLine,
    },
    /// More concurrent loads (stores) than data-cache read (write) ports.
    PortConflict {
        /// Column where the port is oversubscribed.
        col: u32,
        /// `true` for the read port, `false` for the write port.
        read: bool,
    },
    /// An op uses two *different* immediates, but the FU configuration word
    /// holds a single immediate field.
    TwoImmediates {
        /// Index into the op list.
        index: usize,
    },
    /// A memory op's address base (or a store's data) must come from a
    /// context line, not an immediate.
    MemOperandImm {
        /// Index into the op list.
        index: usize,
    },
    /// Input bindings must target distinct lines.
    DuplicateInput {
        /// The duplicated line.
        line: CtxLine,
    },
    /// More inputs than context lines.
    TooManyInputs {
        /// Number of requested input bindings.
        requested: usize,
        /// Available context lines.
        available: u16,
    },
    /// An output reads a line that nothing defines.
    UndefinedOutput {
        /// The undefined line.
        line: CtxLine,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Empty => write!(f, "configuration has no operations"),
            ConfigError::OutOfBounds { index } => {
                write!(f, "op #{index} exceeds fabric bounds")
            }
            ConfigError::WrongSpan { index, expected, got } => {
                write!(f, "op #{index} spans {got} column(s), class requires {expected}")
            }
            ConfigError::Overlap { a, b } => write!(f, "ops #{a} and #{b} overlap"),
            ConfigError::LineOutOfRange { line } => {
                write!(f, "context line {line} out of range")
            }
            ConfigError::UndefinedRead { index, line } => {
                write!(f, "op #{index} reads undefined line {line}")
            }
            ConfigError::WriteConflict { a, b, line } => {
                write!(f, "ops #{a} and #{b} both write {line} in the same column")
            }
            ConfigError::PortConflict { col, read } => {
                let port = if *read { "read" } else { "write" };
                write!(f, "data-cache {port} port oversubscribed at column {col}")
            }
            ConfigError::TwoImmediates { index } => {
                write!(f, "op #{index} uses two different immediates")
            }
            ConfigError::MemOperandImm { index } => {
                write!(f, "memory op #{index} needs context-line operands")
            }
            ConfigError::DuplicateInput { line } => {
                write!(f, "duplicate input binding for line {line}")
            }
            ConfigError::TooManyInputs { requested, available } => {
                write!(f, "{requested} inputs requested, {available} context lines available")
            }
            ConfigError::UndefinedOutput { line } => {
                write!(f, "output reads line {line} that nothing defines")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated virtual configuration: operations placed on a corner-anchored
/// grid plus the input/output context bindings.
///
/// Instances can only be built through [`Configuration::new`], which enforces
/// every structural legality rule of the fabric (bounds, spans, overlaps,
/// dataflow definedness, memory-port budgets, immediate-field sharing).
///
/// # Examples
///
/// ```
/// use cgra::{Configuration, Fabric};
/// use cgra::op::{AluFunc, CtxLine, OpKind, Operand, PlacedOp};
///
/// let fabric = Fabric::be();
/// // a0' = a0 + 1 (one ALU op at the top-left cell)
/// let cfg = Configuration::new(
///     &fabric,
///     vec![PlacedOp {
///         row: 0, col: 0, span: 1,
///         kind: OpKind::Alu(AluFunc::Add),
///         a: Operand::Ctx(CtxLine(0)),
///         b: Operand::Imm(1),
///         dst: Some(CtxLine(1)),
///     }],
///     vec![CtxLine(0)],
///     vec![CtxLine(1)],
/// )?;
/// assert_eq!(cfg.cols_used(), 1);
/// # Ok::<(), cgra::ConfigError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Configuration {
    rows_used: u32,
    cols_used: u32,
    ops: Vec<PlacedOp>,
    inputs: Vec<CtxLine>,
    outputs: Vec<CtxLine>,
}

impl Configuration {
    /// Validates and constructs a configuration.
    ///
    /// Operations are normalized: loads get a canonical unused `b`
    /// operand, stores a canonical `None` destination, and the ops are
    /// sorted by `(col, row)`. The sort is a guarantee every configuration
    /// built here keeps: [`Executor::run`](crate::Executor::run) walks the
    /// ops with a single column cursor that depends on it.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see the error type for the
    /// full rule list.
    pub fn new(
        fabric: &Fabric,
        mut ops: Vec<PlacedOp>,
        inputs: Vec<CtxLine>,
        outputs: Vec<CtxLine>,
    ) -> Result<Configuration, ConfigError> {
        if ops.is_empty() {
            return Err(ConfigError::Empty);
        }
        if inputs.len() > fabric.ctx_lines as usize {
            return Err(ConfigError::TooManyInputs {
                requested: inputs.len(),
                available: fabric.ctx_lines,
            });
        }
        // Normalize ops.
        for op in &mut ops {
            match op.kind {
                OpKind::Load { .. } => {
                    op.b = Operand::Imm(0);
                }
                OpKind::Store { .. } => {
                    op.dst = None;
                }
                _ => {}
            }
        }
        ops.sort_by_key(|o| (o.col, o.row));

        let line_ok = |l: CtxLine| l.0 < fabric.ctx_lines;
        for &l in inputs.iter().chain(outputs.iter()) {
            if !line_ok(l) {
                return Err(ConfigError::LineOutOfRange { line: l });
            }
        }
        let mut seen = vec![false; fabric.ctx_lines as usize];
        for &l in &inputs {
            if std::mem::replace(&mut seen[l.0 as usize], true) {
                return Err(ConfigError::DuplicateInput { line: l });
            }
        }

        // Per-op structural checks.
        for (i, op) in ops.iter().enumerate() {
            let expected = fabric.latency(op.kind);
            if op.span != expected {
                return Err(ConfigError::WrongSpan { index: i, expected, got: op.span });
            }
            if op.row >= fabric.rows || op.col >= fabric.cols || op.col + op.span > fabric.cols {
                return Err(ConfigError::OutOfBounds { index: i });
            }
            for operand in [op.a, op.b] {
                if let Operand::Ctx(l) = operand {
                    if !line_ok(l) {
                        return Err(ConfigError::LineOutOfRange { line: l });
                    }
                }
            }
            if let Some(d) = op.dst {
                if !line_ok(d) {
                    return Err(ConfigError::LineOutOfRange { line: d });
                }
            }
            match op.kind {
                OpKind::Load { .. } => {
                    if matches!(op.a, Operand::Imm(_)) {
                        return Err(ConfigError::MemOperandImm { index: i });
                    }
                }
                OpKind::Store { .. }
                    if (matches!(op.a, Operand::Imm(_)) || matches!(op.b, Operand::Imm(_))) =>
                {
                    return Err(ConfigError::MemOperandImm { index: i });
                }
                _ => {}
            }
            if let (Operand::Imm(x), Operand::Imm(y)) = (op.a, op.b) {
                if x != y {
                    return Err(ConfigError::TwoImmediates { index: i });
                }
            }
            // An op whose kind carries an offset also uses the immediate
            // field; a ctx-ctx ALU op never does, so no extra check there.
        }

        // Cell-overlap check.
        let mut cell_owner: Vec<Option<usize>> = vec![None; (fabric.rows * fabric.cols) as usize];
        for (i, op) in ops.iter().enumerate() {
            for (r, c) in op.cells() {
                let idx = (r * fabric.cols + c) as usize;
                if let Some(prev) = cell_owner[idx] {
                    return Err(ConfigError::Overlap { a: prev, b: i });
                }
                cell_owner[idx] = Some(i);
            }
        }

        // Memory-port budget: each port is pipelined and accepts one issue
        // per processor cycle (`cols_per_cycle` columns), so at most `ports`
        // ops of a direction may *start* within any issue window.
        let cols_used = ops.iter().map(|o| o.col + o.span).max().unwrap_or(0);
        let window = fabric.cols_per_cycle.max(1);
        for col in 0..cols_used {
            let starts_in_window = |mem_load: bool| {
                ops.iter()
                    .filter(|o| match o.kind {
                        OpKind::Load { .. } => mem_load,
                        OpKind::Store { .. } => !mem_load,
                        _ => false,
                    })
                    .filter(|o| o.col >= col && o.col < col + window)
                    .count() as u32
            };
            if starts_in_window(true) > fabric.mem_read_ports {
                return Err(ConfigError::PortConflict { col, read: true });
            }
            if starts_in_window(false) > fabric.mem_write_ports {
                return Err(ConfigError::PortConflict { col, read: false });
            }
        }

        // Dataflow: defined-before-use sweep, and same-column write conflicts.
        let mut defined = vec![false; fabric.ctx_lines as usize];
        for &l in &inputs {
            defined[l.0 as usize] = true;
        }
        for col in 0..cols_used {
            for (i, op) in ops.iter().enumerate() {
                if op.col != col {
                    continue;
                }
                for operand in [op.a, op.b] {
                    // Loads' b operand is normalized to Imm and ignored.
                    if let Operand::Ctx(l) = operand {
                        let uses_b = !matches!(op.kind, OpKind::Load { .. });
                        if (operand == op.a || uses_b) && !defined[l.0 as usize] {
                            return Err(ConfigError::UndefinedRead { index: i, line: l });
                        }
                    }
                }
            }
            let mut writer: Vec<Option<usize>> = vec![None; fabric.ctx_lines as usize];
            for (i, op) in ops.iter().enumerate() {
                if op.end_col() != col {
                    continue;
                }
                if let Some(d) = op.dst {
                    if let Some(prev) = writer[d.0 as usize] {
                        return Err(ConfigError::WriteConflict { a: prev, b: i, line: d });
                    }
                    writer[d.0 as usize] = Some(i);
                    defined[d.0 as usize] = true;
                }
            }
        }
        for &l in &outputs {
            if !defined[l.0 as usize] {
                return Err(ConfigError::UndefinedOutput { line: l });
            }
        }

        let rows_used = ops.iter().map(|o| o.row + 1).max().unwrap_or(0);
        Ok(Configuration { rows_used, cols_used, ops, inputs, outputs })
    }

    /// Rows of the bounding box (≥ 1).
    pub fn rows_used(&self) -> u32 {
        self.rows_used
    }

    /// Columns of the bounding box (≥ 1); this is the configuration's depth.
    pub fn cols_used(&self) -> u32 {
        self.cols_used
    }

    /// The placed operations, guaranteed sorted by `(col, row)` (see
    /// [`Configuration::new`]).
    pub fn ops(&self) -> &[PlacedOp] {
        &self.ops
    }

    /// Input bindings: the i-th input value is deposited on `inputs()[i]`.
    pub fn inputs(&self) -> &[CtxLine] {
        &self.inputs
    }

    /// Output bindings: the i-th output is read from `outputs()[i]`.
    pub fn outputs(&self) -> &[CtxLine] {
        &self.outputs
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// All virtual FU cells occupied by operations.
    pub fn cells(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ops.iter().flat_map(|o| o.cells())
    }

    /// The anchor-capability demands of this configuration: each virtual
    /// anchor cell that must land on a mem- or mul-capable FU, with the op
    /// kind it anchors (DESIGN.md §14). ALU anchors are omitted — every
    /// cell class executes ALU ops, so they constrain nothing.
    pub fn demands(&self) -> impl Iterator<Item = (u32, u32, OpKind)> + '_ {
        self.ops
            .iter()
            .filter(|o| !matches!(o.kind, OpKind::Alu(_)))
            .map(|o| (o.row, o.col, o.kind))
    }

    /// Number of occupied FU cells (`Σ span` over ops).
    pub fn cell_count(&self) -> u32 {
        self.ops.iter().map(|o| o.span).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluFunc, LoadFunc, StoreFunc};

    fn alu(row: u32, col: u32, a: Operand, b: Operand, dst: u16) -> PlacedOp {
        PlacedOp {
            row,
            col,
            span: 1,
            kind: OpKind::Alu(AluFunc::Add),
            a,
            b,
            dst: Some(CtxLine(dst)),
        }
    }

    #[test]
    fn minimal_config_is_valid() {
        let f = Fabric::be();
        let cfg = Configuration::new(
            &f,
            vec![alu(0, 0, Operand::Ctx(CtxLine(0)), Operand::Imm(1), 1)],
            vec![CtxLine(0)],
            vec![CtxLine(1)],
        )
        .unwrap();
        assert_eq!(cfg.rows_used(), 1);
        assert_eq!(cfg.cols_used(), 1);
        assert_eq!(cfg.cell_count(), 1);
    }

    #[test]
    fn empty_rejected() {
        let f = Fabric::be();
        assert_eq!(Configuration::new(&f, vec![], vec![], vec![]), Err(ConfigError::Empty));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let f = Fabric::be();
        let e = Configuration::new(
            &f,
            vec![alu(2, 0, Operand::Imm(0), Operand::Imm(0), 1)],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert_eq!(e, ConfigError::OutOfBounds { index: 0 });
    }

    #[test]
    fn wrong_span_rejected() {
        let f = Fabric::be();
        let mut op = alu(0, 0, Operand::Imm(0), Operand::Imm(0), 1);
        op.span = 2;
        let e = Configuration::new(&f, vec![op], vec![], vec![]).unwrap_err();
        assert_eq!(e, ConfigError::WrongSpan { index: 0, expected: 1, got: 2 });
    }

    #[test]
    fn overlap_rejected() {
        let f = Fabric::be();
        let a = alu(0, 0, Operand::Imm(0), Operand::Imm(0), 1);
        let b = alu(0, 0, Operand::Imm(0), Operand::Imm(0), 2);
        let e = Configuration::new(&f, vec![a, b], vec![], vec![]).unwrap_err();
        assert!(matches!(e, ConfigError::Overlap { .. }));
    }

    #[test]
    fn undefined_read_rejected() {
        let f = Fabric::be();
        let op = alu(0, 0, Operand::Ctx(CtxLine(3)), Operand::Imm(0), 1);
        let e = Configuration::new(&f, vec![op], vec![], vec![]).unwrap_err();
        assert_eq!(e, ConfigError::UndefinedRead { index: 0, line: CtxLine(3) });
    }

    #[test]
    fn chained_dataflow_ok_but_reversed_rejected() {
        let f = Fabric::be();
        let producer = alu(0, 0, Operand::Ctx(CtxLine(0)), Operand::Imm(1), 1);
        let consumer = alu(0, 1, Operand::Ctx(CtxLine(1)), Operand::Imm(2), 2);
        Configuration::new(&f, vec![producer, consumer], vec![CtxLine(0)], vec![CtxLine(2)])
            .unwrap();
        // Consumer *before* the producer completes.
        let eager = alu(1, 0, Operand::Ctx(CtxLine(1)), Operand::Imm(2), 2);
        let e =
            Configuration::new(&f, vec![producer, eager], vec![CtxLine(0)], vec![]).unwrap_err();
        assert!(matches!(e, ConfigError::UndefinedRead { .. }));
    }

    #[test]
    fn same_column_write_conflict_rejected() {
        let f = Fabric::be();
        let a = alu(0, 0, Operand::Imm(1), Operand::Imm(1), 5);
        let b = alu(1, 0, Operand::Imm(2), Operand::Imm(2), 5);
        let e = Configuration::new(&f, vec![a, b], vec![], vec![]).unwrap_err();
        assert!(matches!(e, ConfigError::WriteConflict { line: CtxLine(5), .. }));
    }

    #[test]
    fn read_port_budget() {
        let f = Fabric::be();
        let mk_load = |row: u32, col: u32| PlacedOp {
            row,
            col,
            span: 4,
            kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
            a: Operand::Ctx(CtxLine(0)),
            b: Operand::Imm(0),
            dst: Some(CtxLine(row as u16 + 1)),
        };
        // Two loads issuing in the same cycle (columns 0 and 1): the single
        // pipelined read port accepts one issue per cycle -> reject.
        let e =
            Configuration::new(&f, vec![mk_load(0, 0), mk_load(1, 1)], vec![CtxLine(0)], vec![])
                .unwrap_err();
        assert!(matches!(e, ConfigError::PortConflict { read: true, .. }));
        // One issue per cycle (columns 0 and 2) pipelines fine.
        Configuration::new(&f, vec![mk_load(0, 0), mk_load(1, 2)], vec![CtxLine(0)], vec![])
            .unwrap();
    }

    #[test]
    fn load_store_may_overlap_ports() {
        let f = Fabric::be();
        let load = PlacedOp {
            row: 0,
            col: 0,
            span: 4,
            kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
            a: Operand::Ctx(CtxLine(0)),
            b: Operand::Imm(0),
            dst: Some(CtxLine(1)),
        };
        let store = PlacedOp {
            row: 1,
            col: 0,
            span: 4,
            kind: OpKind::Store { func: StoreFunc::W, offset: 4 },
            a: Operand::Ctx(CtxLine(0)),
            b: Operand::Ctx(CtxLine(0)),
            dst: None,
        };
        // Different ports: legal.
        Configuration::new(&f, vec![load, store], vec![CtxLine(0)], vec![]).unwrap();
    }

    #[test]
    fn two_distinct_immediates_rejected() {
        let f = Fabric::be();
        let op = alu(0, 0, Operand::Imm(1), Operand::Imm(2), 1);
        let e = Configuration::new(&f, vec![op], vec![], vec![]).unwrap_err();
        assert_eq!(e, ConfigError::TwoImmediates { index: 0 });
        // Equal immediates share the field: legal (used for constant gen).
        let op = PlacedOp {
            kind: OpKind::Alu(AluFunc::Or),
            ..alu(0, 0, Operand::Imm(7), Operand::Imm(7), 1)
        };
        Configuration::new(&f, vec![op], vec![], vec![]).unwrap();
    }

    #[test]
    fn mem_base_must_be_line() {
        let f = Fabric::be();
        let bad = PlacedOp {
            row: 0,
            col: 0,
            span: 4,
            kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
            a: Operand::Imm(0x1000),
            b: Operand::Imm(0),
            dst: Some(CtxLine(1)),
        };
        let e = Configuration::new(&f, vec![bad], vec![], vec![]).unwrap_err();
        assert_eq!(e, ConfigError::MemOperandImm { index: 0 });
    }

    #[test]
    fn duplicate_inputs_rejected() {
        let f = Fabric::be();
        let op = alu(0, 0, Operand::Ctx(CtxLine(0)), Operand::Imm(0), 1);
        let e = Configuration::new(&f, vec![op], vec![CtxLine(0), CtxLine(0)], vec![]).unwrap_err();
        assert_eq!(e, ConfigError::DuplicateInput { line: CtxLine(0) });
    }

    #[test]
    fn undefined_output_rejected() {
        let f = Fabric::be();
        let op = alu(0, 0, Operand::Imm(0), Operand::Imm(0), 1);
        let e = Configuration::new(&f, vec![op], vec![], vec![CtxLine(9)]).unwrap_err();
        assert_eq!(e, ConfigError::UndefinedOutput { line: CtxLine(9) });
    }

    #[test]
    fn offset_math_wraps() {
        let f = Fabric::be(); // 2 x 16
        let o = Offset::new(1, 15);
        assert_eq!(o.apply(&f, 1, 1), (0, 0));
        assert_eq!(o.apply(&f, 0, 0), (1, 15));
        assert!(o.in_range(&f));
        assert!(!Offset::new(2, 0).in_range(&f));
    }
}
