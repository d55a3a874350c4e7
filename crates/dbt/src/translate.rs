//! Binary translation: an instruction trace → a CGRA configuration.
//!
//! This models the TransRec DBT hardware's allocation behaviour (paper
//! Fig. 2/§II.B): instructions are taken in program order and greedily
//! placed at the earliest column their operands allow, in the first free row
//! from the top. That greedy "first available FU" policy is precisely what
//! biases utilization towards the top-left corner of the fabric (paper
//! Fig. 1) — the phenomenon utilization-aware allocation corrects.
//!
//! Placement rules (DESIGN.md §4):
//!
//! * every supported instruction occupies exactly one FU slot — constant
//!   operands (including `x0` reads) are re-expressed via the FU's immediate
//!   field, never elided, like DIM-family translators;
//! * a consumer starts no earlier than `producer.col + producer.span`;
//! * memory ports are pipelined: one load (store) may *issue* per processor
//!   cycle on the single read (write) port, stores commit at their last
//!   column, and any memory op after a store waits for the store's commit
//!   (conservative aliasing);
//! * `x0` and live-in registers are bound to input context lines on first
//!   use; each written register gets a fresh line, recycled once its last
//!   scheduled reader has fired.

use std::fmt;

use rv32::isa::{AluOp, Instr, LoadWidth, MulOp, Reg, StoreWidth};

use cgra::op::{AluFunc, CtxLine, LoadFunc, MulFunc, OpKind, Operand, PlacedOp, StoreFunc};
use cgra::{ConfigError, Configuration, Fabric};

use serde::{Deserialize, Serialize};

/// Translation tuning knobs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslatorParams {
    /// Minimum instructions for a configuration to be worth caching.
    pub min_instrs: usize,
    /// Hard cap on instructions per configuration.
    pub max_instrs: usize,
}

impl Default for TranslatorParams {
    fn default() -> TranslatorParams {
        TranslatorParams { min_instrs: 3, max_instrs: 256 }
    }
}

/// Why translation of a trace stopped where it did.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// All instructions of the trace were placed.
    Complete,
    /// The next op would not fit in the fabric columns.
    FabricFull,
    /// No context line was available for a new value.
    LinesExhausted,
    /// The instruction cap was reached.
    MaxInstrs,
}

/// How a configuration hands control back to the GPP.
///
/// The TransRec family resolves a trace's terminating control transfer on
/// the fabric itself: the branch condition becomes one or two ALU ops whose
/// result selects the next PC, so a hot loop re-dispatches config-to-config
/// without executing a single GPP instruction in steady state.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceExit {
    /// Fall through to the instruction after the covered region.
    Sequential,
    /// Unconditional jump resolved at translation time.
    Jump {
        /// Next PC.
        target: u32,
    },
    /// Conditional branch evaluated on the fabric; the condition value is
    /// `outputs[cond_output_index]`.
    Branch {
        /// PC if the condition is non-zero.
        taken: u32,
        /// PC if the condition is zero.
        not_taken: u32,
    },
}

/// A translated, cache-ready configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedConfig {
    /// PC of the first covered instruction.
    pub start_pc: u32,
    /// Number of instructions the configuration covers (including a
    /// fabric-resolved terminator).
    pub instr_count: u32,
    /// The validated configuration.
    pub config: Configuration,
    /// GPP registers supplying the input context, parallel to
    /// `config.inputs()`.
    pub input_regs: Vec<Reg>,
    /// GPP registers receiving the outputs, parallel to the leading entries
    /// of `config.outputs()`.
    pub output_regs: Vec<Reg>,
    /// How control continues after the configuration.
    pub exit: TraceExit,
    /// Index in the execution outputs carrying the branch condition
    /// (`Some` iff `exit` is [`TraceExit::Branch`]).
    pub cond_output_index: Option<usize>,
    /// Why translation stopped.
    pub stop: StopReason,
}

impl CachedConfig {
    /// PC after the configuration when the exit is sequential (also the
    /// fall-through PC of a fabric-resolved branch).
    pub fn next_pc(&self) -> u32 {
        match self.exit {
            TraceExit::Sequential => self.start_pc + 4 * self.instr_count,
            TraceExit::Jump { target } => target,
            TraceExit::Branch { not_taken, .. } => not_taken,
        }
    }
}

/// Classifies instructions the fabric can execute.
///
/// Control transfers, divisions, and system instructions are not fabric ops:
/// they terminate trace formation.
pub fn is_supported(instr: &Instr) -> bool {
    match instr {
        Instr::Lui { .. } | Instr::Auipc { .. } => true,
        Instr::OpImm { .. } | Instr::Op { .. } => true,
        Instr::MulDiv { op, .. } => !op.is_div(),
        Instr::Load { .. } | Instr::Store { .. } => true,
        Instr::Jal { .. }
        | Instr::Jalr { .. }
        | Instr::Branch { .. }
        | Instr::Fence
        | Instr::Ecall
        | Instr::Ebreak => false,
    }
}

/// Internal error used to stop placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlaceFail {
    FabricFull,
    LinesExhausted,
}

impl From<PlaceFail> for StopReason {
    fn from(f: PlaceFail) -> StopReason {
        match f {
            PlaceFail::FabricFull => StopReason::FabricFull,
            PlaceFail::LinesExhausted => StopReason::LinesExhausted,
        }
    }
}

/// What a DBT's translations did: the `dbt.translate.*` counters a
/// session publishes (DESIGN.md §16).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslateCounts {
    /// Traces handed to the translator.
    pub calls: u64,
    /// Traces rejected as unsupported or too short.
    pub rejected: u64,
    /// Body instructions placed by the traces that were not rejected.
    pub placed_instrs: u64,
}

/// Translation failure for a whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The trace contains an instruction the fabric cannot execute.
    Unsupported {
        /// Index of the offending instruction.
        index: usize,
    },
    /// Fewer than `min_instrs` instructions could be placed.
    TooShort {
        /// Instructions that fitted.
        placed: usize,
        /// The configured minimum.
        min: usize,
    },
    /// The produced configuration failed validation (internal bug guard).
    Invalid(ConfigError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unsupported { index } => {
                write!(f, "instruction #{index} is not a fabric operation")
            }
            TranslateError::TooShort { placed, min } => {
                write!(f, "only {placed} instruction(s) placed, minimum is {min}")
            }
            TranslateError::Invalid(e) => write!(f, "translator produced invalid config: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

#[derive(Clone, Copy)]
struct LineState {
    /// Register whose live value the line holds, if any.
    bound: Option<Reg>,
    /// Column of the latest scheduled *event* on the current value (its
    /// write or any read); −1 if the line was never used. A line can only be
    /// re-allocated to a def completing strictly later, which rules out
    /// same-column double writes and stale-value overwrites.
    last_event: i64,
    /// First column from which the current value is readable.
    avail: u32,
}

struct Snapshot {
    lines: Vec<LineState>,
    reg_line: [Option<u16>; 32],
    n_inputs: usize,
    n_ops: usize,
    grid: Vec<bool>,
    last_load_start: Option<u32>,
    last_store_start: Option<u32>,
    last_store_end: Option<u32>,
    dirty: [bool; 32],
}

struct Placer<'f> {
    fabric: &'f Fabric,
    /// Cell occupancy, row-major.
    grid: Vec<bool>,
    lines: Vec<LineState>,
    /// Where each register's live value lives (line index).
    reg_line: [Option<u16>; 32],
    /// Registers bound as inputs, in binding order.
    inputs: Vec<(CtxLine, Reg)>,
    /// Registers written by the placed ops.
    dirty: [bool; 32],
    /// Start column of the most recent load (read-port issue pipelining).
    last_load_start: Option<u32>,
    /// Start column of the most recent store (write-port issue pipelining).
    last_store_start: Option<u32>,
    /// Completion column of the most recent store (aliasing barrier).
    last_store_end: Option<u32>,
    ops: Vec<PlacedOp>,
}

impl<'f> Placer<'f> {
    fn new(fabric: &'f Fabric) -> Placer<'f> {
        Placer {
            fabric,
            grid: vec![false; (fabric.rows * fabric.cols) as usize],
            lines: vec![
                LineState { bound: None, last_event: -1, avail: 0 };
                fabric.ctx_lines as usize
            ],
            reg_line: [None; 32],
            inputs: Vec::new(),
            dirty: [false; 32],
            last_load_start: None,
            last_store_start: None,
            last_store_end: None,
            ops: Vec::new(),
        }
    }

    /// Earliest start column for a memory op of the given direction under
    /// the pipelined-port and aliasing rules.
    fn mem_earliest(&self, is_load: bool) -> u32 {
        let issue = self.fabric.cols_per_cycle;
        let mut earliest = 0;
        // RAW through memory: wait for the last store to commit.
        if let Some(end) = self.last_store_end {
            earliest = earliest.max(end + 1);
        }
        if is_load {
            if let Some(s) = self.last_load_start {
                earliest = earliest.max(s + issue);
            }
        } else {
            if let Some(s) = self.last_store_start {
                earliest = earliest.max(s + issue);
            }
            // WAR: a store must not commit before a program-order-earlier
            // load has captured its value (reads happen at start columns).
            if let Some(s) = self.last_load_start {
                earliest = earliest.max(s);
            }
        }
        earliest
    }

    /// Binds `reg` to an input line if it has no live location yet, and
    /// returns its operand + readiness column.
    fn source(&mut self, reg: Reg) -> Result<(Operand, u32), PlaceFail> {
        if let Some(l) = self.reg_line[reg.num() as usize] {
            let st = self.lines[l as usize];
            return Ok((Operand::Ctx(CtxLine(l)), st.avail));
        }
        // First use: bind an input line (x0 simply reads the GPP's zero).
        let l = self.alloc_line(0).ok_or(PlaceFail::LinesExhausted)?;
        self.lines[l as usize] = LineState { bound: Some(reg), last_event: 0, avail: 0 };
        self.reg_line[reg.num() as usize] = Some(l);
        self.inputs.push((CtxLine(l), reg));
        Ok((Operand::Ctx(CtxLine(l)), 0))
    }

    /// Finds a line whose current value is dead and whose last event falls
    /// strictly before `completion`.
    fn alloc_line(&self, completion: u32) -> Option<u16> {
        self.lines
            .iter()
            .position(|st| st.bound.is_none() && st.last_event < completion as i64)
            .map(|i| i as u16)
    }

    /// Finds the first (col, row) from `earliest` where `span` cells are free
    /// in one row, scanning rows top-down then columns left-right — the
    /// greedy corner-biased policy.
    fn find_cell(&self, earliest: u32, span: u32) -> Option<(u32, u32)> {
        let f = self.fabric;
        for col in earliest..f.cols.saturating_sub(span - 1) {
            for row in 0..f.rows {
                let free = (col..col + span).all(|c| !self.grid[(row * f.cols + c) as usize]);
                if free {
                    return Some((col, row));
                }
            }
        }
        None
    }

    fn occupy(&mut self, row: u32, col: u32, span: u32) {
        for c in col..col + span {
            self.grid[(row * self.fabric.cols + c) as usize] = true;
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            lines: self.lines.clone(),
            reg_line: self.reg_line,
            n_inputs: self.inputs.len(),
            n_ops: self.ops.len(),
            grid: self.grid.clone(),
            last_load_start: self.last_load_start,
            last_store_start: self.last_store_start,
            last_store_end: self.last_store_end,
            dirty: self.dirty,
        }
    }

    fn restore(&mut self, snap: Snapshot) {
        self.lines = snap.lines;
        self.reg_line = snap.reg_line;
        self.inputs.truncate(snap.n_inputs);
        self.ops.truncate(snap.n_ops);
        self.grid = snap.grid;
        self.last_load_start = snap.last_load_start;
        self.last_store_start = snap.last_store_start;
        self.last_store_end = snap.last_store_end;
        self.dirty = snap.dirty;
    }

    /// Resolves a branch comparison source; `x0` folds to the constant zero.
    fn source_or_zero(&mut self, reg: Reg) -> Result<(Operand, u32), PlaceFail> {
        if reg == Reg::ZERO {
            Ok((Operand::Imm(0), 0))
        } else {
            self.source(reg)
        }
    }

    /// Places an anonymous value-producing op (used for fabric-resolved
    /// branch conditions). Only legal as the *last* ops of a configuration:
    /// the produced line is unbound, so a later register def could reuse it.
    fn place_anon(
        &mut self,
        kind: OpKind,
        a: (Operand, u32),
        b: (Operand, u32),
    ) -> Result<(CtxLine, u32), PlaceFail> {
        let earliest = a.1.max(b.1);
        let span = self.fabric.latency(kind);
        let (col, row) = self.find_cell(earliest, span).ok_or(PlaceFail::FabricFull)?;
        let completion = col + span - 1;
        self.note_read(a.0, col);
        self.note_read(b.0, col);
        let l = self.alloc_line(completion).ok_or(PlaceFail::LinesExhausted)?;
        self.lines[l as usize] =
            LineState { bound: None, last_event: completion as i64, avail: col + span };
        self.occupy(row, col, span);
        self.ops.push(PlacedOp { row, col, span, kind, a: a.0, b: b.0, dst: Some(CtxLine(l)) });
        Ok((CtxLine(l), col + span))
    }

    /// Places the condition computation for a terminating branch and returns
    /// the line carrying 1 (taken) / 0 (not taken).
    fn place_branch_cond(
        &mut self,
        op: rv32::isa::BranchOp,
        rs1: Reg,
        rs2: Reg,
    ) -> Result<CtxLine, PlaceFail> {
        use rv32::isa::BranchOp as B;
        let snap = self.snapshot();
        let result = (|| {
            let a = self.source_or_zero(rs1)?;
            let b = self.source_or_zero(rs2)?;
            let line = match op {
                B::Lt => self.place_anon(OpKind::Alu(AluFunc::Slt), a, b)?.0,
                B::Ltu => self.place_anon(OpKind::Alu(AluFunc::Sltu), a, b)?.0,
                B::Ge => {
                    let (l, av) = self.place_anon(OpKind::Alu(AluFunc::Slt), a, b)?;
                    self.place_anon(
                        OpKind::Alu(AluFunc::Xor),
                        (Operand::Ctx(l), av),
                        (Operand::Imm(1), 0),
                    )?
                    .0
                }
                B::Geu => {
                    let (l, av) = self.place_anon(OpKind::Alu(AluFunc::Sltu), a, b)?;
                    self.place_anon(
                        OpKind::Alu(AluFunc::Xor),
                        (Operand::Ctx(l), av),
                        (Operand::Imm(1), 0),
                    )?
                    .0
                }
                B::Eq => {
                    let (l, av) = self.place_anon(OpKind::Alu(AluFunc::Xor), a, b)?;
                    self.place_anon(
                        OpKind::Alu(AluFunc::Sltu),
                        (Operand::Ctx(l), av),
                        (Operand::Imm(1), 0),
                    )?
                    .0
                }
                B::Ne => {
                    let (l, av) = self.place_anon(OpKind::Alu(AluFunc::Xor), a, b)?;
                    self.place_anon(
                        OpKind::Alu(AluFunc::Sltu),
                        (Operand::Imm(0), 0),
                        (Operand::Ctx(l), av),
                    )?
                    .0
                }
            };
            Ok(line)
        })();
        if result.is_err() {
            self.restore(snap);
        }
        result
    }

    /// Notes a read of `operand` at column `col` for line-lifetime tracking.
    fn note_read(&mut self, operand: Operand, col: u32) {
        if let Operand::Ctx(l) = operand {
            let st = &mut self.lines[l.0 as usize];
            st.last_event = st.last_event.max(col as i64);
        }
    }

    /// Places one instruction; returns `Err` if resources ran out (the
    /// caller finalizes with the already-placed prefix).
    fn place(&mut self, pc: u32, instr: &Instr) -> Result<(), PlaceFail> {
        debug_assert!(is_supported(instr));
        let (kind, a_src, b_src): (OpKind, SourceSpec, SourceSpec) = match *instr {
            // Constant generators: Or(v, v) = v occupies one FU, both
            // operand selects read the single shared immediate field.
            Instr::Lui { imm, .. } => {
                (OpKind::Alu(AluFunc::Or), SourceSpec::Imm(imm as u32), SourceSpec::Imm(imm as u32))
            }
            Instr::Auipc { imm, .. } => {
                let v = pc.wrapping_add(imm as u32);
                (OpKind::Alu(AluFunc::Or), SourceSpec::Imm(v), SourceSpec::Imm(v))
            }
            Instr::OpImm { op, rs1, imm, .. } => {
                (OpKind::Alu(alu_func(op)), SourceSpec::Reg(rs1), SourceSpec::Imm(imm as u32))
            }
            Instr::Op { op, rs1, rs2, .. } => {
                (OpKind::Alu(alu_func(op)), SourceSpec::Reg(rs1), SourceSpec::Reg(rs2))
            }
            Instr::MulDiv { op, rs1, rs2, .. } => {
                (OpKind::Mul(mul_func(op)), SourceSpec::Reg(rs1), SourceSpec::Reg(rs2))
            }
            Instr::Load { width, rs1, offset, .. } => (
                OpKind::Load { func: load_func(width), offset },
                SourceSpec::Reg(rs1),
                SourceSpec::Imm(0),
            ),
            Instr::Store { width, rs1, rs2, offset } => (
                OpKind::Store { func: store_func(width), offset },
                SourceSpec::Reg(rs1),
                SourceSpec::Reg(rs2),
            ),
            _ => unreachable!("caller checks is_supported"),
        };

        // `x0` reads are the constant zero: fold them into immediates rather
        // than wasting an input context line. Memory base addresses and
        // store data must stay on lines (hardware constraint), so those keep
        // the input-line fallback.
        let keep_lines = kind.is_mem();
        let fold_zero = |s: SourceSpec| match s {
            SourceSpec::Reg(r) if r == Reg::ZERO && !keep_lines => SourceSpec::Imm(0),
            other => other,
        };
        let (mut kind, mut a_src, mut b_src) = (kind, fold_zero(a_src), fold_zero(b_src));
        // An ALU/MUL op with two immediate operands is a compile-time
        // constant; the FU configuration word holds a single immediate, so
        // re-express it as the constant generator `Or(c, c) = c`.
        if let (SourceSpec::Imm(va), SourceSpec::Imm(vb)) = (a_src, b_src) {
            let folded = match kind {
                OpKind::Alu(f) => Some(f.eval(va, vb)),
                OpKind::Mul(f) => Some(f.eval(va, vb)),
                _ => None,
            };
            if let Some(c) = folded {
                kind = OpKind::Alu(AluFunc::Or);
                a_src = SourceSpec::Imm(c);
                b_src = SourceSpec::Imm(c);
            }
        }

        // Snapshot so a failed placement leaves no side effects (input
        // bindings made for an op that doesn't fit must be undone).
        let snapshot = self.snapshot();

        let resolve = |p: &mut Placer<'_>, s: SourceSpec| -> Result<(Operand, u32), PlaceFail> {
            match s {
                SourceSpec::Imm(v) => Ok((Operand::Imm(v), 0)),
                SourceSpec::Reg(r) => p.source(r),
            }
        };
        let result = (|| {
            let (a, a_ready) = resolve(self, a_src)?;
            let (b, b_ready) = resolve(self, b_src)?;
            let mut earliest = a_ready.max(b_ready);
            let is_load = matches!(kind, OpKind::Load { .. });
            if kind.is_mem() {
                earliest = earliest.max(self.mem_earliest(is_load));
            }
            let span = self.fabric.latency(kind);
            let (col, row) = self.find_cell(earliest, span).ok_or(PlaceFail::FabricFull)?;
            let completion = col + span - 1;

            // Destination line (if the instruction writes a register).
            let dst = match instr.dest() {
                Some(rd) => {
                    // Reads happen at `col`; note them before rebinding rd so
                    // an op reading and writing rd keeps the old line alive.
                    self.note_read(a, col);
                    self.note_read(b, col);
                    // Release rd's previous line for future reuse.
                    if let Some(old) = self.reg_line[rd.num() as usize] {
                        self.lines[old as usize].bound = None;
                    }
                    let l = self.alloc_line(completion).ok_or(PlaceFail::LinesExhausted)?;
                    self.lines[l as usize] = LineState {
                        bound: Some(rd),
                        last_event: completion as i64,
                        avail: col + span,
                    };
                    self.reg_line[rd.num() as usize] = Some(l);
                    self.dirty[rd.num() as usize] = true;
                    Some(CtxLine(l))
                }
                None => {
                    self.note_read(a, col);
                    self.note_read(b, col);
                    None
                }
            };

            self.occupy(row, col, span);
            if kind.is_mem() {
                if is_load {
                    self.last_load_start = Some(col);
                } else {
                    self.last_store_start = Some(col);
                    self.last_store_end = Some(col + span - 1);
                }
            }
            self.ops.push(PlacedOp { row, col, span, kind, a, b, dst });
            Ok(())
        })();

        if result.is_err() {
            self.restore(snapshot);
        }
        result
    }
}

#[derive(Copy, Clone)]
enum SourceSpec {
    Reg(Reg),
    Imm(u32),
}

fn alu_func(op: AluOp) -> AluFunc {
    match op {
        AluOp::Add => AluFunc::Add,
        AluOp::Sub => AluFunc::Sub,
        AluOp::Sll => AluFunc::Sll,
        AluOp::Slt => AluFunc::Slt,
        AluOp::Sltu => AluFunc::Sltu,
        AluOp::Xor => AluFunc::Xor,
        AluOp::Srl => AluFunc::Srl,
        AluOp::Sra => AluFunc::Sra,
        AluOp::Or => AluFunc::Or,
        AluOp::And => AluFunc::And,
    }
}

fn mul_func(op: MulOp) -> MulFunc {
    match op {
        MulOp::Mul => MulFunc::Mul,
        MulOp::Mulh => MulFunc::Mulh,
        MulOp::Mulhsu => MulFunc::Mulhsu,
        MulOp::Mulhu => MulFunc::Mulhu,
        _ => unreachable!("divisions are unsupported"),
    }
}

fn load_func(w: LoadWidth) -> LoadFunc {
    match w {
        LoadWidth::B => LoadFunc::B,
        LoadWidth::Bu => LoadFunc::Bu,
        LoadWidth::H => LoadFunc::H,
        LoadWidth::Hu => LoadFunc::Hu,
        LoadWidth::W => LoadFunc::W,
    }
}

fn store_func(w: StoreWidth) -> StoreFunc {
    match w {
        StoreWidth::B => StoreFunc::B,
        StoreWidth::H => StoreFunc::H,
        StoreWidth::W => StoreFunc::W,
    }
}

/// Translates the longest placeable prefix of `instrs` (starting at
/// `start_pc`) into a configuration.
///
/// # Errors
///
/// * [`TranslateError::Unsupported`] if the *first* instruction is not a
///   fabric op (later unsupported instructions simply end the prefix).
/// * [`TranslateError::TooShort`] if fewer than `params.min_instrs` fit.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use dbt::translate::{translate_prefix, TranslatorParams};
/// use rv32::asm::assemble;
///
/// let p = assemble("
///     addi a1, a0, 1
///     slli a2, a1, 3
///     xor  a3, a2, a0
/// ").unwrap();
/// let instrs: Vec<_> = p.text.iter().map(|w| rv32::decode(*w).unwrap()).collect();
/// let cached = translate_prefix(
///     &Fabric::be(), &TranslatorParams::default(), p.entry, &instrs,
/// ).unwrap();
/// assert_eq!(cached.instr_count, 3);
/// // Greedy allocation: the first op sits at the top-left corner.
/// assert_eq!((cached.config.ops()[0].row, cached.config.ops()[0].col), (0, 0));
/// ```
pub fn translate_prefix(
    fabric: &Fabric,
    params: &TranslatorParams,
    start_pc: u32,
    instrs: &[Instr],
) -> Result<CachedConfig, TranslateError> {
    translate_trace(fabric, params, start_pc, instrs, None)
}

/// [`translate_prefix`] with an optional trace-terminating control
/// instruction (a conditional branch or `jal`) that immediately follows
/// `instrs`. When the whole body fits, the terminator is resolved *on the
/// fabric* ([`TraceExit::Branch`]/[`TraceExit::Jump`]); if its condition ops
/// don't fit, the configuration falls back to a sequential exit and the GPP
/// executes the control instruction itself.
///
/// # Errors
///
/// Same as [`translate_prefix`].
pub fn translate_trace(
    fabric: &Fabric,
    params: &TranslatorParams,
    start_pc: u32,
    instrs: &[Instr],
    terminator: Option<&Instr>,
) -> Result<CachedConfig, TranslateError> {
    translate_counted(fabric, params, start_pc, instrs, terminator, &mut TranslateCounts::default())
}

/// [`translate_trace`], counting the call into `counts`.
pub(crate) fn translate_counted(
    fabric: &Fabric,
    params: &TranslatorParams,
    start_pc: u32,
    instrs: &[Instr],
    terminator: Option<&Instr>,
    counts: &mut TranslateCounts,
) -> Result<CachedConfig, TranslateError> {
    let _span = tracing::span!(tracing::Level::DEBUG, "dbt.translate").entered();
    counts.calls += 1;
    if instrs.first().is_none_or(|i| !is_supported(i)) {
        counts.rejected += 1;
        return Err(TranslateError::Unsupported { index: 0 });
    }
    // Placement never covers more than the supported prefix (capped at
    // `max_instrs`). When that prefix is already too short and the fabric
    // has room for all of it, the placer would cover it whole and reject
    // it: say so without building one.
    let supported = instrs.iter().take(params.max_instrs).take_while(|i| is_supported(i)).count();
    if supported < params.min_instrs && prefix_always_fits(fabric, &instrs[..supported]) {
        counts.rejected += 1;
        return Err(TranslateError::TooShort { placed: supported, min: params.min_instrs });
    }
    place_trace(fabric, params, start_pc, instrs, terminator, counts)
}

/// Whether greedy placement of the supported ops `prefix` on an empty
/// fabric cannot fail. Each op binds at most two input lines and one
/// output line, so `3 × len` context lines never run out; and each op
/// starts at most `max(cols_per_cycle, 1)` columns after the latest
/// completion before it, so the prefix ends within its summed spans plus
/// those gaps. A span is bounded by the op's own latency, or the ALU's
/// when constant folding turns it into a constant generator.
fn prefix_always_fits(fabric: &Fabric, prefix: &[Instr]) -> bool {
    let lat = &fabric.latencies;
    let spans: u64 = prefix
        .iter()
        .map(|instr| {
            let own = match instr {
                Instr::MulDiv { .. } => lat.mul,
                Instr::Load { .. } | Instr::Store { .. } => lat.mem,
                _ => lat.alu,
            };
            own.max(lat.alu) as u64
        })
        .sum();
    let gaps = prefix.len().saturating_sub(1) as u64 * fabric.cols_per_cycle.max(1) as u64;
    fabric.ctx_lines as usize >= 3 * prefix.len() && spans + gaps <= fabric.cols as u64
}

/// The placing half of [`translate_trace`], after the checks that need no
/// placer: places the longest prefix of `instrs`, rejects it when it is
/// shorter than `params.min_instrs`, and resolves `terminator` on the
/// fabric when the whole body fits.
fn place_trace(
    fabric: &Fabric,
    params: &TranslatorParams,
    start_pc: u32,
    instrs: &[Instr],
    terminator: Option<&Instr>,
    counts: &mut TranslateCounts,
) -> Result<CachedConfig, TranslateError> {
    let mut placer = Placer::new(fabric);
    let mut covered = 0usize;
    let mut stop = StopReason::Complete;
    for (i, instr) in instrs.iter().enumerate() {
        if i >= params.max_instrs {
            stop = StopReason::MaxInstrs;
            break;
        }
        if !is_supported(instr) {
            break;
        }
        match placer.place(start_pc + 4 * i as u32, instr) {
            Ok(()) => covered += 1,
            Err(fail) => {
                stop = fail.into();
                break;
            }
        }
    }
    if covered < params.min_instrs {
        counts.rejected += 1;
        return Err(TranslateError::TooShort { placed: covered, min: params.min_instrs });
    }
    counts.placed_instrs += covered as u64;

    // Try to resolve the terminator on the fabric.
    let mut exit = TraceExit::Sequential;
    let mut cond_line: Option<CtxLine> = None;
    if covered == instrs.len() && stop == StopReason::Complete {
        let term_pc = start_pc + 4 * covered as u32;
        match terminator {
            Some(&Instr::Jal { rd, offset }) => {
                let link_ok = if rd == Reg::ZERO {
                    true
                } else {
                    // The link value pc+4 is a constant generator op.
                    placer.place(term_pc, &Instr::Auipc { rd, imm: 4 }).is_ok()
                };
                if link_ok {
                    exit = TraceExit::Jump { target: term_pc.wrapping_add(offset as u32) };
                    covered += 1;
                }
            }
            Some(&Instr::Branch { op, rs1, rs2, offset }) => {
                if let Ok(line) = placer.place_branch_cond(op, rs1, rs2) {
                    exit = TraceExit::Branch {
                        taken: term_pc.wrapping_add(offset as u32),
                        not_taken: term_pc + 4,
                    };
                    cond_line = Some(line);
                    covered += 1;
                }
            }
            _ => {}
        }
    }

    let inputs: Vec<CtxLine> = placer.inputs.iter().map(|(l, _)| *l).collect();
    let input_regs: Vec<Reg> = placer.inputs.iter().map(|(_, r)| *r).collect();
    let mut output_regs: Vec<Reg> = Reg::all().filter(|r| placer.dirty[r.num() as usize]).collect();
    output_regs.sort_by_key(|r| r.num());
    let mut outputs: Vec<CtxLine> = output_regs
        .iter()
        .map(|r| CtxLine(placer.reg_line[r.num() as usize].expect("dirty reg has a line")))
        .collect();
    let cond_output_index = cond_line.map(|l| {
        outputs.push(l);
        outputs.len() - 1
    });

    let config =
        Configuration::new(fabric, placer.ops, inputs, outputs).map_err(TranslateError::Invalid)?;
    Ok(CachedConfig {
        start_pc,
        instr_count: covered as u32,
        config,
        input_regs,
        output_regs,
        exit,
        cond_output_index,
        stop,
    })
}

#[cfg(test)]
mod tests {
    use cgra::OpLatencies;
    use proptest::prelude::*;
    use rv32::isa::{AluOp, BranchOp, LoadWidth, MulOp, StoreWidth};

    use super::*;

    /// [`translate_counted`] as it was before the early rejection: every
    /// supported trace builds a placer.
    fn translate_trace_placing_all(
        fabric: &Fabric,
        params: &TranslatorParams,
        start_pc: u32,
        instrs: &[Instr],
        terminator: Option<&Instr>,
        counts: &mut TranslateCounts,
    ) -> Result<CachedConfig, TranslateError> {
        counts.calls += 1;
        if instrs.first().is_none_or(|i| !is_supported(i)) {
            counts.rejected += 1;
            return Err(TranslateError::Unsupported { index: 0 });
        }
        place_trace(fabric, params, start_pc, instrs, terminator, counts)
    }

    fn any_reg() -> impl Strategy<Value = Reg> {
        (0u8..12).prop_map(Reg::x)
    }

    /// Supported fabric ops and the control instructions that end a trace.
    fn any_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            4 => (any_reg(), any_reg(), any_reg())
                .prop_map(|(rd, rs1, rs2)| Instr::Op { op: AluOp::Xor, rd, rs1, rs2 }),
            3 => (any_reg(), any_reg(), -8i32..8)
                .prop_map(|(rd, rs1, imm)| Instr::OpImm { op: AluOp::Add, rd, rs1, imm }),
            1 => (any_reg(), 0i32..16).prop_map(|(rd, v)| Instr::Lui { rd, imm: v << 12 }),
            2 => (any_reg(), any_reg(), any_reg())
                .prop_map(|(rd, rs1, rs2)| Instr::MulDiv { op: MulOp::Mul, rd, rs1, rs2 }),
            1 => (any_reg(), any_reg(), any_reg())
                .prop_map(|(rd, rs1, rs2)| Instr::MulDiv { op: MulOp::Div, rd, rs1, rs2 }),
            2 => (any_reg(), any_reg(), 0i32..8).prop_map(|(rd, rs1, w)| {
                Instr::Load { width: LoadWidth::W, rd, rs1, offset: 4 * w }
            }),
            2 => (any_reg(), any_reg(), 0i32..8).prop_map(|(rs2, rs1, w)| {
                Instr::Store { width: StoreWidth::W, rs2, rs1, offset: 4 * w }
            }),
            1 => (any_reg(), any_reg())
                .prop_map(|(rs1, rs2)| Instr::Branch { op: BranchOp::Ne, rs1, rs2, offset: -8 }),
            1 => Just(Instr::Ebreak),
        ]
    }

    /// Fabrics from roomy to too small for two ops, with every latency,
    /// issue width and context-line count in play.
    fn any_fabric() -> impl Strategy<Value = Fabric> {
        (1u32..4, 1u32..12, 1u16..10, 0u32..3, (1u32..4, 1u32..6, 1u32..6)).prop_map(
            |(rows, cols, ctx_lines, cols_per_cycle, (alu, mul, mem))| {
                let mut fabric = Fabric::new(rows, cols.max(4));
                fabric.cols = cols;
                fabric.ctx_lines = ctx_lines;
                fabric.cols_per_cycle = cols_per_cycle;
                fabric.latencies = OpLatencies { alu, mul, mem };
                fabric
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The early rejection returns exactly what placing the whole
        /// prefix returns, `TooShort { placed, .. }` included, and counts
        /// the same `dbt.translate.*` counters.
        #[test]
        fn early_rejection_matches_placing_the_whole_prefix(
            fabric in any_fabric(),
            instrs in proptest::collection::vec(any_instr(), 0..7),
            terminator in (any::<bool>(), any_instr()),
            min_instrs in 0usize..6,
            max_instrs in 0usize..8,
        ) {
            let params = TranslatorParams { min_instrs, max_instrs };
            let terminator = terminator.0.then_some(terminator.1);
            let args = (&fabric, &params, 0x1000, &instrs[..], terminator.as_ref());
            let (mut new_n, mut old_n) = Default::default();
            let new = translate_counted(args.0, args.1, args.2, args.3, args.4, &mut new_n);
            let old =
                translate_trace_placing_all(args.0, args.1, args.2, args.3, args.4, &mut old_n);
            prop_assert_eq!(new, old);
            prop_assert_eq!(new_n, old_n);
        }
    }
}
