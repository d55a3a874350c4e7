//! Fabric execution speed: simulator throughput for configurations of
//! growing depth, at the origin and at a wrapped offset through
//! `Executor::execute`, and at the wrapped offset through `Executor::run`
//! on one reused `ExecScratch` — the path every offload of the system
//! simulator takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cgra::{ArrayMem, ExecScratch, Executor, Fabric, Offset};
use dbt::translate::{translate_prefix, TranslatorParams};
use rv32::isa::{AluOp, Instr, Reg};

fn chain_config(fabric: &Fabric, len: usize) -> dbt::CachedConfig {
    let instrs: Vec<Instr> = (0..len)
        .map(|i| Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: i as i32 % 7 })
        .collect();
    translate_prefix(fabric, &TranslatorParams { min_instrs: 1, max_instrs: 512 }, 0, &instrs)
        .unwrap()
}

fn bench_execute(c: &mut Criterion) {
    let fabric = Fabric::bp();
    let exec = Executor::new(&fabric);
    let mut group = c.benchmark_group("cgra_execute");
    for len in [4usize, 16, 32] {
        let cc = chain_config(&fabric, len);
        let inputs: Vec<u32> = cc.input_regs.iter().map(|_| 5).collect();
        for (tag, off) in [("origin", Offset::ORIGIN), ("wrapped", Offset::new(3, 29))] {
            group.bench_with_input(BenchmarkId::new(tag, len), &cc, |b, cc| {
                let mut mem = ArrayMem::new(64);
                b.iter(|| exec.execute(black_box(&cc.config), off, &inputs, &mut mem).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("scratch", len), &cc, |b, cc| {
            let (mut mem, mut scratch) = (ArrayMem::new(64), ExecScratch::new());
            let off = Offset::new(3, 29);
            b.iter(|| {
                exec.run(black_box(&cc.config), off, &inputs, &mut mem, &mut scratch).unwrap();
                black_box(scratch.outputs()[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_execute);
criterion_main!(benches);
