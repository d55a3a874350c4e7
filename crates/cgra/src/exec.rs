//! Functional + timing execution of configurations.
//!
//! The executor walks the configuration column by column, mirroring the
//! hardware: an operation captures its operands from the context lines in
//! its start column and drives its result onto its destination line at the
//! end of its last column. Stores commit to the [`MemBus`] at their
//! completion column; loads read at their start column (the DBT's memory
//! serialization guarantees all program-order-earlier stores have completed
//! by then).
//!
//! Execution takes a pivot [`Offset`]: the *functional* behaviour is
//! identical for every offset (the movement-invariance property the paper's
//! hardware extensions must provide — see `tests/` and the `uaware` crate),
//! while the *physical* cells that do the work rotate with the offset, which
//! is what redistributes NBTI stress.

use std::fmt;

use crate::config::{Configuration, Offset};
use crate::fabric::Fabric;
use crate::op::{LoadFunc, OpKind, Operand, StoreFunc};

/// A data-memory fault raised by a [`MemBus`] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault at {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// The fabric's view of the data cache (paper Fig. 4, "To Memory Unit").
///
/// Implemented by the system simulator over the GPP's memory; the provided
/// [`ArrayMem`] suffices for standalone fabric use.
pub trait MemBus {
    /// Loads and width-extends a value.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if `addr` is not accessible.
    fn load(&mut self, addr: u32, func: LoadFunc) -> Result<u32, MemFault>;

    /// Stores the low bytes of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if `addr` is not accessible.
    fn store(&mut self, addr: u32, func: StoreFunc, value: u32) -> Result<(), MemFault>;
}

/// A simple byte-array [`MemBus`] for standalone use and tests.
#[derive(Clone, Debug, Default)]
pub struct ArrayMem {
    bytes: Vec<u8>,
}

impl ArrayMem {
    /// Creates a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> ArrayMem {
        ArrayMem { bytes: vec![0; size] }
    }

    /// Raw byte view.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw byte view.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl MemBus for ArrayMem {
    fn load(&mut self, addr: u32, func: LoadFunc) -> Result<u32, MemFault> {
        let n = func.bytes() as usize;
        let start = addr as usize;
        let slice = self.bytes.get(start..start + n).ok_or(MemFault { addr })?;
        let mut raw = 0u32;
        for (i, byte) in slice.iter().enumerate() {
            raw |= (*byte as u32) << (8 * i);
        }
        Ok(func.extend(raw))
    }

    fn store(&mut self, addr: u32, func: StoreFunc, value: u32) -> Result<(), MemFault> {
        let n = func.bytes() as usize;
        let start = addr as usize;
        let slice = self.bytes.get_mut(start..start + n).ok_or(MemFault { addr })?;
        for (i, byte) in slice.iter_mut().enumerate() {
            *byte = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

/// Errors from [`Executor::execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `inputs` length differs from the configuration's input bindings.
    InputCountMismatch {
        /// Bindings declared by the configuration.
        expected: usize,
        /// Values supplied by the caller.
        got: usize,
    },
    /// The pivot offset addresses a cell outside the fabric.
    OffsetOutOfRange {
        /// The offending offset.
        offset: Offset,
    },
    /// A memory operation faulted.
    Mem(MemFault),
    /// An operand line carried no value (unreachable for validated
    /// configurations; kept as a defensive error).
    UndefinedValue {
        /// The undefined line index.
        line: u16,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputCountMismatch { expected, got } => {
                write!(f, "configuration expects {expected} input value(s), got {got}")
            }
            ExecError::OffsetOutOfRange { offset } => {
                write!(f, "pivot offset {offset} outside the fabric")
            }
            ExecError::Mem(e) => write!(f, "{e}"),
            ExecError::UndefinedValue { line } => {
                write!(f, "context line c{line} undefined at read time")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemFault> for ExecError {
    fn from(e: MemFault) -> ExecError {
        ExecError::Mem(e)
    }
}

/// Result of executing a configuration once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Output values, in the order of the configuration's output bindings.
    pub outputs: Vec<u32>,
    /// Pure fabric execution cycles (`⌈cols_used / cols_per_cycle⌉`).
    pub cycles: u64,
    /// Physical `(row, col)` cells that were active, sorted.
    pub active_cells: Vec<(u32, u32)>,
    /// Number of loads performed.
    pub loads: u32,
    /// Number of stores performed.
    pub stores: u32,
}

/// Memory operations one [`Executor::run`] performed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemOps {
    /// Number of loads performed.
    pub loads: u32,
    /// Number of stores performed.
    pub stores: u32,
}

/// Reusable working memory for [`Executor::run`]: the context lines, the
/// results and stores still in flight, and the outputs.
///
/// Every run clears and refills all of it before reading any of it, so
/// nothing a run leaves behind — including a run that failed part-way,
/// e.g. on a memory fault — can reach the next one. Only the capacity is
/// reused, which is what makes a warm run allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ExecScratch {
    ctx: Vec<Option<u32>>,
    /// `(completion_col, dst_line, value)` for in-flight producers.
    in_flight: Vec<(u32, u16, u32)>,
    /// `(completion_col, addr, func, value)` for in-flight stores.
    pending_stores: Vec<(u32, u32, StoreFunc, u32)>,
    outputs: Vec<u32>,
}

impl ExecScratch {
    /// Empty scratch; the first run sizes it.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// The outputs the last run produced, in the order of the
    /// configuration's output bindings (incomplete if that run failed).
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }
}

/// Executes validated configurations on a fabric.
#[derive(Copy, Clone, Debug)]
pub struct Executor<'f> {
    fabric: &'f Fabric,
}

impl<'f> Executor<'f> {
    /// Creates an executor for `fabric`.
    pub fn new(fabric: &'f Fabric) -> Executor<'f> {
        Executor { fabric }
    }

    /// Executes `config` anchored at `offset`, with `inputs` deposited on the
    /// input context, against `mem`.
    ///
    /// The convenience form of [`run`](Executor::run): it allocates its own
    /// scratch and also reports the sorted physical cells the run occupied.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. On a memory fault the `MemBus` may have absorbed a
    /// prefix of the configuration's stores (the system model treats faults
    /// as fatal).
    pub fn execute(
        &self,
        config: &Configuration,
        offset: Offset,
        inputs: &[u32],
        mem: &mut dyn MemBus,
    ) -> Result<ExecOutcome, ExecError> {
        let mut scratch = ExecScratch::new();
        let MemOps { loads, stores } = self.run(config, offset, inputs, mem, &mut scratch)?;
        let mut active_cells: Vec<(u32, u32)> =
            config.cells().map(|(r, c)| offset.apply(self.fabric, r, c)).collect();
        active_cells.sort_unstable();
        Ok(ExecOutcome {
            outputs: scratch.outputs,
            cycles: self.fabric.exec_cycles(config.cols_used()),
            active_cells,
            loads,
            stores,
        })
    }

    /// Executes `config` anchored at `offset` like
    /// [`execute`](Executor::execute), but into `scratch`: the outputs are
    /// left in [`ExecScratch::outputs`], and a run on warm scratch
    /// allocates nothing. The cycle count is
    /// [`Fabric::exec_cycles`]`(config.cols_used())` and the physical cells
    /// are the configuration's cells under `offset`, so neither depends on
    /// the run and the caller derives them when it needs them.
    ///
    /// The ops are walked with one cursor, column by column, which relies
    /// on the `(col, row)` order [`Configuration::new`] guarantees.
    ///
    /// # Errors
    ///
    /// As [`execute`](Executor::execute).
    pub fn run(
        &self,
        config: &Configuration,
        offset: Offset,
        inputs: &[u32],
        mem: &mut dyn MemBus,
        scratch: &mut ExecScratch,
    ) -> Result<MemOps, ExecError> {
        if inputs.len() != config.inputs().len() {
            return Err(ExecError::InputCountMismatch {
                expected: config.inputs().len(),
                got: inputs.len(),
            });
        }
        if !offset.in_range(self.fabric) {
            return Err(ExecError::OffsetOutOfRange { offset });
        }

        let ExecScratch { ctx, in_flight, pending_stores, outputs } = scratch;
        ctx.clear();
        ctx.resize(self.fabric.ctx_lines as usize, None);
        in_flight.clear();
        pending_stores.clear();
        outputs.clear();
        for (line, value) in config.inputs().iter().zip(inputs) {
            ctx[line.0 as usize] = Some(*value);
        }

        let read = |ctx: &[Option<u32>], operand: Operand| -> Result<u32, ExecError> {
            match operand {
                Operand::Imm(v) => Ok(v),
                Operand::Ctx(l) => ctx[l.0 as usize].ok_or(ExecError::UndefinedValue { line: l.0 }),
            }
        };

        let mut counts = MemOps::default();
        let ops = config.ops();
        debug_assert!(ops.is_sorted_by_key(|o| (o.col, o.row)), "ops sorted by (col, row)");
        let mut next = 0;
        for col in 0..config.cols_used() {
            // Ops starting at this column capture operands and compute.
            while let Some(op) = ops.get(next).filter(|o| o.col == col) {
                next += 1;
                match op.kind {
                    OpKind::Alu(func) => {
                        let v = func.eval(read(ctx, op.a)?, read(ctx, op.b)?);
                        if let Some(dst) = op.dst {
                            in_flight.push((op.end_col(), dst.0, v));
                        }
                    }
                    OpKind::Mul(func) => {
                        let v = func.eval(read(ctx, op.a)?, read(ctx, op.b)?);
                        if let Some(dst) = op.dst {
                            in_flight.push((op.end_col(), dst.0, v));
                        }
                    }
                    OpKind::Load { func, offset: moff } => {
                        let addr = read(ctx, op.a)?.wrapping_add(moff as u32);
                        let v = mem.load(addr, func)?;
                        counts.loads += 1;
                        if let Some(dst) = op.dst {
                            in_flight.push((op.end_col(), dst.0, v));
                        }
                    }
                    OpKind::Store { func, offset: moff } => {
                        let addr = read(ctx, op.a)?.wrapping_add(moff as u32);
                        let v = read(ctx, op.b)?;
                        pending_stores.push((op.end_col(), addr, func, v));
                    }
                }
            }
            // Completions at the end of this column become visible.
            in_flight.retain(|&(end, line, v)| {
                if end == col {
                    ctx[line as usize] = Some(v);
                }
                end != col
            });
            // Every store completes at exactly one column, visited once, so
            // no completed entry needs removing before the next run.
            for &(_, addr, func, v) in pending_stores.iter().filter(|s| s.0 == col) {
                mem.store(addr, func, v)?;
                counts.stores += 1;
            }
        }

        for l in config.outputs() {
            outputs.push(ctx[l.0 as usize].ok_or(ExecError::UndefinedValue { line: l.0 })?);
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluFunc, CtxLine, PlacedOp};

    fn fabric() -> Fabric {
        Fabric::be()
    }

    /// out = (in0 + 5) ^ in1
    fn sample_config(f: &Fabric) -> Configuration {
        Configuration::new(
            f,
            vec![
                PlacedOp {
                    row: 0,
                    col: 0,
                    span: 1,
                    kind: OpKind::Alu(AluFunc::Add),
                    a: Operand::Ctx(CtxLine(0)),
                    b: Operand::Imm(5),
                    dst: Some(CtxLine(2)),
                },
                PlacedOp {
                    row: 0,
                    col: 1,
                    span: 1,
                    kind: OpKind::Alu(AluFunc::Xor),
                    a: Operand::Ctx(CtxLine(2)),
                    b: Operand::Ctx(CtxLine(1)),
                    dst: Some(CtxLine(3)),
                },
            ],
            vec![CtxLine(0), CtxLine(1)],
            vec![CtxLine(3)],
        )
        .unwrap()
    }

    #[test]
    fn dataflow_chain() {
        let f = fabric();
        let cfg = sample_config(&f);
        let mut mem = ArrayMem::new(64);
        let out = Executor::new(&f).execute(&cfg, Offset::ORIGIN, &[10, 0xff], &mut mem).unwrap();
        assert_eq!(out.outputs, vec![(10 + 5) ^ 0xff]);
        assert_eq!(out.cycles, 1, "2 columns at 2 cols/cycle");
        assert_eq!(out.active_cells, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn offset_changes_cells_not_values() {
        let f = fabric();
        let cfg = sample_config(&f);
        let base = Executor::new(&f)
            .execute(&cfg, Offset::ORIGIN, &[7, 9], &mut ArrayMem::new(64))
            .unwrap();
        let moved = Executor::new(&f)
            .execute(&cfg, Offset::new(1, 15), &[7, 9], &mut ArrayMem::new(64))
            .unwrap();
        assert_eq!(base.outputs, moved.outputs);
        assert_eq!(moved.active_cells, vec![(1, 0), (1, 15)], "wrap-around");
        assert_ne!(base.active_cells, moved.active_cells);
    }

    #[test]
    fn load_store_round_trip() {
        let f = fabric();
        // mem[in1 + 8] = load(in0) + 1
        let cfg = Configuration::new(
            &f,
            vec![
                PlacedOp {
                    row: 0,
                    col: 0,
                    span: 4,
                    kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
                    a: Operand::Ctx(CtxLine(0)),
                    b: Operand::Imm(0),
                    dst: Some(CtxLine(2)),
                },
                PlacedOp {
                    row: 0,
                    col: 4,
                    span: 1,
                    kind: OpKind::Alu(AluFunc::Add),
                    a: Operand::Ctx(CtxLine(2)),
                    b: Operand::Imm(1),
                    dst: Some(CtxLine(3)),
                },
                PlacedOp {
                    row: 0,
                    col: 5,
                    span: 4,
                    kind: OpKind::Store { func: StoreFunc::W, offset: 8 },
                    a: Operand::Ctx(CtxLine(1)),
                    b: Operand::Ctx(CtxLine(3)),
                    dst: None,
                },
            ],
            vec![CtxLine(0), CtxLine(1)],
            vec![CtxLine(3)],
        )
        .unwrap();
        let mut mem = ArrayMem::new(64);
        mem.store(0, StoreFunc::W, 41).unwrap();
        let out = Executor::new(&f).execute(&cfg, Offset::ORIGIN, &[0, 8], &mut mem).unwrap();
        assert_eq!(out.outputs, vec![42]);
        assert_eq!(out.loads, 1);
        assert_eq!(out.stores, 1);
        assert_eq!(mem.load(16, LoadFunc::W).unwrap(), 42);
        assert_eq!(out.cycles, 5, "9 columns -> ceil(9/2)");
    }

    #[test]
    fn store_to_load_ordering() {
        let f = Fabric::new(2, 16);
        // store(in0) = in1; then load(in0) -> out. Load starts after the
        // store's completion column, per the DBT serialization rule.
        let cfg = Configuration::new(
            &f,
            vec![
                PlacedOp {
                    row: 0,
                    col: 0,
                    span: 4,
                    kind: OpKind::Store { func: StoreFunc::W, offset: 0 },
                    a: Operand::Ctx(CtxLine(0)),
                    b: Operand::Ctx(CtxLine(1)),
                    dst: None,
                },
                PlacedOp {
                    row: 0,
                    col: 4,
                    span: 4,
                    kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
                    a: Operand::Ctx(CtxLine(0)),
                    b: Operand::Imm(0),
                    dst: Some(CtxLine(2)),
                },
            ],
            vec![CtxLine(0), CtxLine(1)],
            vec![CtxLine(2)],
        )
        .unwrap();
        let mut mem = ArrayMem::new(64);
        let out = Executor::new(&f).execute(&cfg, Offset::ORIGIN, &[4, 0xdead], &mut mem).unwrap();
        assert_eq!(out.outputs, vec![0xdead], "load observes earlier store");
    }

    #[test]
    fn input_count_checked() {
        let f = fabric();
        let cfg = sample_config(&f);
        let e = Executor::new(&f)
            .execute(&cfg, Offset::ORIGIN, &[1], &mut ArrayMem::new(8))
            .unwrap_err();
        assert_eq!(e, ExecError::InputCountMismatch { expected: 2, got: 1 });
    }

    #[test]
    fn offset_range_checked() {
        let f = fabric();
        let cfg = sample_config(&f);
        let e = Executor::new(&f)
            .execute(&cfg, Offset::new(5, 0), &[1, 2], &mut ArrayMem::new(8))
            .unwrap_err();
        assert!(matches!(e, ExecError::OffsetOutOfRange { .. }));
    }

    #[test]
    fn mem_fault_propagates() {
        let f = fabric();
        let cfg = Configuration::new(
            &f,
            vec![PlacedOp {
                row: 0,
                col: 0,
                span: 4,
                kind: OpKind::Load { func: LoadFunc::W, offset: 0 },
                a: Operand::Ctx(CtxLine(0)),
                b: Operand::Imm(0),
                dst: Some(CtxLine(1)),
            }],
            vec![CtxLine(0)],
            vec![CtxLine(1)],
        )
        .unwrap();
        let e = Executor::new(&f)
            .execute(&cfg, Offset::ORIGIN, &[1 << 20], &mut ArrayMem::new(8))
            .unwrap_err();
        assert_eq!(e, ExecError::Mem(MemFault { addr: 1 << 20 }));
    }

    #[test]
    fn a_faulted_run_leaves_nothing_for_the_next() {
        let f = Fabric::bp();
        let op = |row, col, kind, a, b, dst: Option<u16>| PlacedOp {
            row,
            col,
            span: f.latency(kind),
            kind,
            a,
            b,
            dst: dst.map(CtxLine),
        };
        let add = OpKind::Alu(AluFunc::Add);
        let ctx = |l| Operand::Ctx(CtxLine(l));
        // Column 0: an add in flight to line 5, a store pending until
        // column 3, then a load that faults before either lands.
        let faulting = Configuration::new(
            &f,
            vec![
                op(0, 0, add, ctx(0), Operand::Imm(1), Some(5)),
                op(1, 0, OpKind::Store { func: StoreFunc::W, offset: 0 }, ctx(0), ctx(1), None),
                op(2, 0, OpKind::Load { func: LoadFunc::W, offset: 0 }, ctx(2), ctx(2), Some(6)),
            ],
            vec![CtxLine(0), CtxLine(1), CtxLine(2)],
            vec![CtxLine(5)],
        )
        .unwrap();
        // Reads its input on line 5 after column 0 and runs past column 3.
        let next = Configuration::new(
            &f,
            vec![
                op(0, 1, add, ctx(5), Operand::Imm(1), Some(6)),
                op(0, 3, add, ctx(6), Operand::Imm(1), Some(7)),
            ],
            vec![CtxLine(5)],
            vec![CtxLine(7)],
        )
        .unwrap();
        let exec = Executor::new(&f);
        let mut scratch = ExecScratch::new();
        let mut mem = ArrayMem::new(64);
        let e = exec
            .run(&faulting, Offset::ORIGIN, &[8, 0xdead, 1 << 20], &mut mem, &mut scratch)
            .unwrap_err();
        assert_eq!(e, ExecError::Mem(MemFault { addr: 1 << 20 }));
        let ops = exec.run(&next, Offset::new(3, 30), &[40], &mut mem, &mut scratch).unwrap();
        assert_eq!(scratch.outputs(), [42]);
        assert_eq!(ops, MemOps::default());
        assert_eq!(mem.bytes(), ArrayMem::new(64).bytes(), "the pending store never lands");
    }

    #[test]
    fn byte_and_half_memory_ops() {
        let mut mem = ArrayMem::new(16);
        mem.store(3, StoreFunc::B, 0x80).unwrap();
        assert_eq!(mem.load(3, LoadFunc::B).unwrap(), 0xffff_ff80);
        assert_eq!(mem.load(3, LoadFunc::Bu).unwrap(), 0x80);
        mem.store(4, StoreFunc::H, 0xbeef).unwrap();
        assert_eq!(mem.load(4, LoadFunc::Hu).unwrap(), 0xbeef);
        assert_eq!(mem.load(4, LoadFunc::H).unwrap(), 0xffff_beef);
    }
}
