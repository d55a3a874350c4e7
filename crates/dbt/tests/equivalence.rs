//! The DBT's central correctness property: a translated configuration,
//! executed on the fabric at *any* pivot offset, produces exactly the
//! architectural effects of the sequential instruction trace it came from —
//! also when one [`ExecScratch`] serves a whole sequence of executions, as
//! it does inside the system simulator.

use proptest::prelude::*;

use cgra::{ExecError, ExecOutcome, ExecScratch, Executor, Fabric, MemOps, Offset};
use dbt::membus::MemoryBus;
use dbt::translate::{translate_prefix, TranslatorParams};
use dbt::CachedConfig;
use rv32::cpu::Cpu;
use rv32::isa::{AluOp, Instr, LoadWidth, MulOp, Reg, StoreWidth};

const TEXT_BASE: u32 = 0x1000;
const DATA_BASE: u32 = 0x100;
const MEM_SIZE: usize = 64 * 1024;

/// Registers random programs may read/write. `s0` (x8) is reserved as the
/// memory base pointer and is never written, keeping addresses in bounds.
const POOL: [u8; 8] = [10, 11, 12, 13, 14, 5, 6, 7]; // a0-a4, t0-t2
const BASE: Reg = Reg::x(8);

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

fn any_supported_instr() -> impl Strategy<Value = Instr> {
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

/// Initial register file derived from a seed.
fn reg_value(r: Reg, seed: u32) -> u32 {
    if r == Reg::ZERO {
        0
    } else if r == BASE {
        DATA_BASE
    } else {
        seed.wrapping_mul(0x9e37_79b9).wrapping_add((r.num() as u32).wrapping_mul(0x85eb_ca6b))
    }
}

/// Runs `instrs` on the interpreter, returning the CPU afterwards.
fn run_reference(instrs: &[Instr], count: usize, seed: u32) -> Cpu {
    let mut cpu = Cpu::new(MEM_SIZE);
    for (i, instr) in instrs.iter().enumerate() {
        let w = rv32::encode(instr).expect("generated instr encodes");
        cpu.mem.write_u32(TEXT_BASE + 4 * i as u32, w).unwrap();
    }
    // Halt marker after the trace.
    cpu.mem
        .write_u32(TEXT_BASE + 4 * instrs.len() as u32, rv32::encode(&Instr::Ebreak).unwrap())
        .unwrap();
    cpu.set_pc(TEXT_BASE);
    for r in Reg::all() {
        cpu.set_reg(r, reg_value(r, seed));
    }
    // Deterministic initial data region.
    for i in 0..256u32 {
        cpu.mem.write_u8(DATA_BASE + i, (i as u8).wrapping_mul(31).wrapping_add(7)).unwrap();
    }
    for _ in 0..count {
        cpu.step().expect("reference executes");
    }
    cpu
}

/// A fresh data memory holding the reference's initial contents.
fn data_memory() -> rv32::mem::Memory {
    let mut mem = rv32::mem::Memory::new(MEM_SIZE);
    for i in 0..256u32 {
        mem.write_u8(DATA_BASE + i, (i as u8).wrapping_mul(31).wrapping_add(7)).unwrap();
    }
    mem
}

/// The data region every generated memory op addresses (word offsets
/// below 64 from `BASE`, plus a word's width).
fn data_bytes(mem: &rv32::mem::Memory) -> Vec<u8> {
    (0..260u32).map(|i| mem.read_u8(DATA_BASE + i).unwrap()).collect()
}

fn check_equivalence(fabric: &Fabric, instrs: &[Instr], seed: u32, offsets: &[Offset]) {
    let params = TranslatorParams { min_instrs: 1, max_instrs: 512 };
    let cached = match translate_prefix(fabric, &params, TEXT_BASE, instrs) {
        Ok(c) => c,
        Err(e) => panic!("translation failed: {e}"),
    };
    let covered = cached.instr_count as usize;
    assert!(covered >= 1);
    let reference = run_reference(instrs, covered, seed);

    for &offset in offsets {
        // Fresh memory image identical to the reference's starting state.
        let mut mem = data_memory();
        let inputs: Vec<u32> = cached.input_regs.iter().map(|r| reg_value(*r, seed)).collect();
        let out = Executor::new(fabric)
            .execute(&cached.config, offset, &inputs, &mut MemoryBus::new(&mut mem))
            .expect("fabric executes");

        for (reg, value) in cached.output_regs.iter().zip(&out.outputs) {
            assert_eq!(
                reference.reg(*reg),
                *value,
                "output register {reg} differs at offset {offset} (covered {covered})"
            );
        }
        for i in 0..256u32 {
            assert_eq!(
                reference.mem.read_u8(DATA_BASE + i).unwrap(),
                mem.read_u8(DATA_BASE + i).unwrap(),
                "memory byte {i} differs at offset {offset}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn translated_configs_match_interpreter(
        instrs in proptest::collection::vec(any_supported_instr(), 1..40),
        seed in any::<u32>(),
    ) {
        let fabric = Fabric::bp(); // 4 x 32: room for most traces
        check_equivalence(&fabric, &instrs, seed, &[Offset::ORIGIN]);
    }

    #[test]
    fn movement_invariance(
        instrs in proptest::collection::vec(any_supported_instr(), 1..24),
        seed in any::<u32>(),
        off_row in 0u32..4,
        off_col in 0u32..32,
    ) {
        let fabric = Fabric::bp();
        check_equivalence(
            &fabric,
            &instrs,
            seed,
            &[Offset::ORIGIN, Offset::new(off_row, off_col), Offset::new(3, 31)],
        );
    }

    #[test]
    fn bitstream_round_trip_of_translated_configs(
        instrs in proptest::collection::vec(any_supported_instr(), 1..32),
    ) {
        let fabric = Fabric::bp();
        let params = TranslatorParams { min_instrs: 1, max_instrs: 512 };
        let cached = translate_prefix(&fabric, &params, TEXT_BASE, &instrs).unwrap();
        let bs = cgra::Bitstream::encode(&fabric, &cached.config);
        let ops = bs.decode_ops(&fabric).unwrap();
        prop_assert_eq!(ops.as_slice(), cached.config.ops());
    }

    #[test]
    fn hardware_load_path_matches_software_rotation(
        instrs in proptest::collection::vec(any_supported_instr(), 1..24),
        off_row in 0u32..4,
        off_col in 0u32..32,
    ) {
        let fabric = Fabric::bp();
        let params = TranslatorParams { min_instrs: 1, max_instrs: 512 };
        let cached = translate_prefix(&fabric, &params, TEXT_BASE, &instrs).unwrap();
        let bs = cgra::Bitstream::encode(&fabric, &cached.config);
        let offset = Offset::new(off_row, off_col);
        let loaded = cgra::ReconfigUnit::with_movement().load(&fabric, &bs, offset).unwrap();
        let mut physical = loaded.decode_physical(&fabric).unwrap();
        physical.sort_by_key(|o| (o.col, o.row));
        let mut expected: Vec<_> = cached
            .config
            .ops()
            .iter()
            .map(|o| cgra::op::PlacedOp {
                row: (o.row + off_row) % fabric.rows,
                col: (o.col + off_col) % fabric.cols,
                ..*o
            })
            .collect();
        expected.sort_by_key(|o| (o.col, o.row));
        prop_assert_eq!(physical, expected);
    }
}

/// What [`run_both`] observed, after both paths agreed.
struct Run {
    cached: CachedConfig,
    result: Result<ExecOutcome, ExecError>,
    /// The data region afterwards.
    mem: Vec<u8>,
}

/// Runs `instrs`' translation at `offset` twice from the reference's
/// starting memory, with `BASE` bound to `base`: once through
/// [`Executor::run`] on the shared `scratch`, once through a fresh
/// [`Executor::execute`]. The two must agree on the result (outputs and
/// memory-op counts, or the error) and on every data byte.
fn run_both(
    fabric: &Fabric,
    scratch: &mut ExecScratch,
    instrs: &[Instr],
    seed: u32,
    offset: Offset,
    base: u32,
) -> Result<Run, TestCaseError> {
    let params = TranslatorParams { min_instrs: 1, max_instrs: 512 };
    let cached = translate_prefix(fabric, &params, TEXT_BASE, instrs).unwrap();
    let inputs: Vec<u32> = cached
        .input_regs
        .iter()
        .map(|r| if *r == BASE { base } else { reg_value(*r, seed) })
        .collect();
    let exec = Executor::new(fabric);
    let mut shared_mem = data_memory();
    let shared =
        exec.run(&cached.config, offset, &inputs, &mut MemoryBus::new(&mut shared_mem), scratch);
    let mut fresh_mem = data_memory();
    let fresh = exec.execute(&cached.config, offset, &inputs, &mut MemoryBus::new(&mut fresh_mem));
    match (&shared, &fresh) {
        (Ok(ops), Ok(out)) => {
            prop_assert_eq!(scratch.outputs(), out.outputs.as_slice());
            prop_assert_eq!(*ops, MemOps { loads: out.loads, stores: out.stores });
        }
        _ => prop_assert_eq!(shared.as_ref().err(), fresh.as_ref().err()),
    }
    prop_assert_eq!(data_bytes(&shared_mem), data_bytes(&fresh_mem));
    Ok(Run { cached, result: fresh, mem: data_bytes(&fresh_mem) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_scratch_matches_fresh_execution_and_the_cpu(
        runs in proptest::collection::vec(
            (proptest::collection::vec(any_supported_instr(), 1..24), any::<u32>(), 0u32..4, 0u32..32),
            1..6,
        ),
        fault_before in 0usize..6,
        fault_tail in proptest::collection::vec(any_supported_instr(), 0..16),
    ) {
        let fabric = Fabric::bp();
        let mut scratch = ExecScratch::new();
        // The faulting trace opens with a store, so its covered prefix
        // always touches memory through an out-of-range base. It runs just
        // before one of the normal runs, which must see none of the
        // context lines, in-flight results or pending stores it left.
        let store = Instr::Store { width: StoreWidth::W, rs2: Reg::A0, rs1: BASE, offset: 0 };
        let fault_trace: Vec<Instr> = std::iter::once(store).chain(fault_tail).collect();
        let fault_before = fault_before % runs.len();
        for (i, (instrs, seed, row, col)) in runs.iter().enumerate() {
            let offset = Offset::new(*row, *col);
            if i == fault_before {
                let fault =
                    run_both(&fabric, &mut scratch, &fault_trace, *seed, offset, 0xffff_0000)?;
                prop_assert!(matches!(fault.result, Err(ExecError::Mem(_))), "{:?}", fault.result);
            }
            let Run { cached, result, mem } =
                run_both(&fabric, &mut scratch, instrs, *seed, offset, DATA_BASE)?;
            let out = result.expect("in-range memory ops execute");

            // The sequential CPU over the covered prefix: registers, memory
            // bytes, and one fabric load/store per load/store instruction.
            let covered = &instrs[..cached.instr_count as usize];
            let reference = run_reference(instrs, covered.len(), *seed);
            for (reg, value) in cached.output_regs.iter().zip(&out.outputs) {
                prop_assert_eq!(reference.reg(*reg), *value, "register {} at {}", reg, offset);
            }
            prop_assert_eq!(data_bytes(&reference.mem), mem);
            let loads = covered.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
            let stores = covered.iter().filter(|i| matches!(i, Instr::Store { .. })).count();
            prop_assert_eq!((out.loads as usize, out.stores as usize), (loads, stores));
        }
    }
}

#[test]
fn corner_bias_of_greedy_allocation() {
    // An independent-operation trace: every op could go anywhere, the greedy
    // allocator stacks them from the top-left corner — the paper's Fig. 1
    // phenomenon in miniature.
    let instrs: Vec<Instr> = (0..6)
        .map(|i| Instr::OpImm { op: AluOp::Add, rd: Reg::x(POOL[i]), rs1: BASE, imm: i as i32 })
        .collect();
    let fabric = Fabric::fig1(); // 4 x 8
    let params = TranslatorParams { min_instrs: 1, max_instrs: 64 };
    let cached = translate_prefix(&fabric, &params, TEXT_BASE, &instrs).unwrap();
    let mut cells: Vec<(u32, u32)> = cached.config.ops().iter().map(|o| (o.col, o.row)).collect();
    cells.sort_unstable();
    assert_eq!(cells, vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]);
}

#[test]
fn division_is_not_translatable() {
    let instrs = vec![Instr::MulDiv { op: MulOp::Div, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 }];
    let e = translate_prefix(
        &Fabric::be(),
        &TranslatorParams { min_instrs: 1, max_instrs: 8 },
        TEXT_BASE,
        &instrs,
    )
    .unwrap_err();
    assert!(matches!(e, dbt::TranslateError::Unsupported { index: 0 }));
}

#[test]
fn long_dependent_chain_stops_at_fabric_edge() {
    // 40 chained adds cannot fit 32 columns: expect FabricFull stop.
    let mut instrs = Vec::new();
    for _ in 0..40 {
        instrs.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 1 });
    }
    let fabric = Fabric::bp(); // 32 columns
    let params = TranslatorParams { min_instrs: 1, max_instrs: 512 };
    let cached = translate_prefix(&fabric, &params, TEXT_BASE, &instrs).unwrap();
    assert_eq!(cached.instr_count, 32);
    assert_eq!(cached.stop, dbt::StopReason::FabricFull);
    // And the covered prefix still computes correctly.
    check_equivalence(&fabric, &instrs, 77, &[Offset::ORIGIN, Offset::new(2, 7)]);
}
