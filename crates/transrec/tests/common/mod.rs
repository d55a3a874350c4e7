//! Random loop programs for the whole-system differentials
//! (`system_differential.rs`, `tape_differential.rs`).
//!
//! The generator mirrors `crates/dbt/tests/equivalence.rs`: ALU and
//! multiply ops over a register pool, and loads/stores through a reserved
//! base register, here wrapped in a counted loop so the body turns hot.
//! The body also holds forward conditional branches on pool registers,
//! which split it into several traces and make a trace exit early on some
//! iterations and fall through on others.

use std::collections::HashMap;

use proptest::prelude::*;
use rv32::isa::{AluOp, BranchOp, Instr, LoadWidth, MulOp, Reg, StoreWidth};
use rv32::Program;

const TEXT_BASE: u32 = 0x1000;
pub const DATA_BASE: u32 = 0x8000;
/// The data buffer: word offsets below 64 from `BASE`, plus a word's width.
pub const DATA_BYTES: u32 = 260;

/// Registers random programs may read/write.
const POOL: [u8; 8] = [10, 11, 12, 13, 14, 5, 6, 7]; // a0-a4, t0-t2
/// The data buffer's base pointer (`s0`), never written by the body.
const BASE: Reg = Reg::x(8);
/// The loop counter (`s1`), never written by the body.
const COUNTER: Reg = Reg::x(9);

fn any_pool_reg() -> impl Strategy<Value = Reg> {
    (0usize..POOL.len()).prop_map(|i| Reg::x(POOL[i]))
}

fn any_alu() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
    ]
}

/// One loop-body instruction: the DBT equivalence test's mix.
fn any_body_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        4 => (any_alu(), any_pool_reg(), any_pool_reg(), any_pool_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Op { op, rd, rs1, rs2 }),
        4 => (any_alu().prop_filter("no subi", |o| *o != AluOp::Sub),
              any_pool_reg(), any_pool_reg(), -64i32..64)
            .prop_map(|(op, rd, rs1, imm)| {
                let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                    imm.rem_euclid(32)
                } else {
                    imm
                };
                Instr::OpImm { op, rd, rs1, imm }
            }),
        1 => (any_pool_reg(), 0i32..0x1000)
            .prop_map(|(rd, v)| Instr::Lui { rd, imm: v << 12 }),
        1 => (any_pool_reg(), any_pool_reg(), any_pool_reg(), 0usize..4)
            .prop_map(|(rd, rs1, rs2, w)| {
                let ops = [MulOp::Mul, MulOp::Mulh, MulOp::Mulhsu, MulOp::Mulhu];
                Instr::MulDiv { op: ops[w], rd, rs1, rs2 }
            }),
        2 => (any_pool_reg(), 0i32..64, 0usize..5).prop_map(|(rd, word, w)| {
            let widths = [LoadWidth::B, LoadWidth::Bu, LoadWidth::H, LoadWidth::Hu, LoadWidth::W];
            Instr::Load { width: widths[w], rd, rs1: BASE, offset: word * 4 }
        }),
        2 => (any_pool_reg(), 0i32..64, 0usize..3).prop_map(|(rs2, word, w)| {
            let widths = [StoreWidth::B, StoreWidth::H, StoreWidth::W];
            Instr::Store { width: widths[w], rs2, rs1: BASE, offset: word * 4 }
        }),
    ]
}

/// One loop-body step: an instruction, or a forward conditional branch
/// that skips the next `over` steps (clamped to the end of the body).
#[derive(Clone, Debug)]
pub enum Step {
    Instr(Instr),
    Skip { op: BranchOp, rs1: Reg, rs2: Reg, over: usize },
}

pub fn any_step() -> impl Strategy<Value = Step> {
    let ops =
        [BranchOp::Eq, BranchOp::Ne, BranchOp::Lt, BranchOp::Ge, BranchOp::Ltu, BranchOp::Geu];
    prop_oneof![
        6 => any_body_instr().prop_map(Step::Instr),
        1 => (0usize..ops.len(), any_pool_reg(), any_pool_reg(), 1usize..6)
            .prop_map(move |(op, rs1, rs2, over)| Step::Skip { op: ops[op], rs1, rs2, over }),
    ]
}

/// `lui` + `addi` loading the 32-bit constant `value` into `rd`.
fn load_constant(rd: Reg, value: u32) -> [Instr; 2] {
    let upper = value.wrapping_add(0x800) & 0xffff_f000;
    let lower = value.wrapping_sub(upper) as i32;
    [Instr::Lui { rd, imm: upper as i32 }, Instr::OpImm { op: AluOp::Add, rd, rs1: rd, imm: lower }]
}

/// The program: seed the pool registers, the base pointer and the
/// counter, run `body` `iterations` times, then `ebreak`.
pub fn program(body: &[Step], iterations: u32, seed: u32) -> Program {
    let mut instrs = Vec::new();
    for (i, &reg) in POOL.iter().enumerate() {
        let value =
            seed.wrapping_mul(0x9e37_79b9).wrapping_add((i as u32).wrapping_mul(0x85eb_ca6b));
        instrs.extend(load_constant(Reg::x(reg), value));
    }
    instrs.extend(load_constant(BASE, DATA_BASE));
    instrs.extend(load_constant(COUNTER, iterations));
    for (i, step) in body.iter().enumerate() {
        instrs.push(match *step {
            Step::Instr(instr) => instr,
            Step::Skip { op, rs1, rs2, over } => {
                // Land on a later step or on the counter decrement.
                let target = (i + 1 + over).min(body.len());
                Instr::Branch { op, rs1, rs2, offset: 4 * (target - i) as i32 }
            }
        });
    }
    instrs.push(Instr::OpImm { op: AluOp::Add, rd: COUNTER, rs1: COUNTER, imm: -1 });
    let back = -4 * (body.len() as i32 + 1);
    instrs.push(Instr::Branch { op: BranchOp::Ne, rs1: COUNTER, rs2: Reg::ZERO, offset: back });
    instrs.push(Instr::Ebreak);
    Program {
        text_base: TEXT_BASE,
        text: instrs.iter().map(|i| rv32::encode(i).expect("generated instr encodes")).collect(),
        data_base: DATA_BASE,
        data: (0..DATA_BYTES).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect(),
        entry: TEXT_BASE,
        symbols: HashMap::new(),
    }
}
