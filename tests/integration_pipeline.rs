//! Cross-crate pipeline properties: DBT → bitstream → reconfiguration unit
//! → executor agree with each other and with the interpreter on real
//! benchmark code (not just generated traces).

use cgra::{Bitstream, Executor, Fabric, Offset, ReconfigUnit};
use dbt::{ConfigCache, Translator};
use rv32::cpu::Cpu;

/// Collect every configuration the DBT builds for a benchmark.
fn configs_of(workload: &mibench::Workload, fabric: Fabric) -> Vec<dbt::CachedConfig> {
    let mut cpu = Cpu::new(1 << 20);
    cpu.load_program(workload.program()).unwrap();
    let mut dbt = Translator::new(fabric);
    let mut cache = ConfigCache::new(4096);
    while cpu.exit().is_none() {
        let r = cpu.step().unwrap();
        for built in dbt.observe(&r, cache.contains(r.pc)) {
            cache.insert(built);
        }
    }
    cache.iter().cloned().collect()
}

#[test]
fn all_benchmark_configs_survive_the_hardware_path() {
    let fabric = Fabric::bp();
    let unit = ReconfigUnit::with_movement();
    let mut total = 0usize;
    for w in mibench::suite(13) {
        for cc in configs_of(&w, fabric) {
            total += 1;
            // Bitstream round trip.
            let bs = Bitstream::encode(&fabric, &cc.config);
            let ops = bs.decode_ops(&fabric).unwrap();
            assert_eq!(ops, cc.config.ops(), "{}: pc {:#x}", w.name(), cc.start_pc);
            // Hardware load path at a non-trivial offset equals software
            // rotation.
            let off = Offset::new(1, 9);
            let loaded = unit.load(&fabric, &bs, off).unwrap();
            let mut physical = loaded.decode_physical(&fabric).unwrap();
            physical.sort_by_key(|o| (o.col, o.row));
            let mut expected: Vec<_> = cc
                .config
                .ops()
                .iter()
                .map(|o| cgra::op::PlacedOp {
                    row: (o.row + off.row) % fabric.rows,
                    col: (o.col + off.col) % fabric.cols,
                    ..*o
                })
                .collect();
            expected.sort_by_key(|o| (o.col, o.row));
            assert_eq!(physical, expected, "{}: pc {:#x}", w.name(), cc.start_pc);
        }
    }
    assert!(total > 100, "expected a rich config population, got {total}");
}

#[test]
fn benchmark_configs_are_offset_invariant() {
    // Execute each cached crc32 config at several offsets with synthetic
    // inputs; outputs and memory effects must be offset-independent.
    let fabric = Fabric::bp();
    let exec = Executor::new(&fabric);
    let w = &mibench::suite(29)[1];
    for cc in configs_of(w, fabric) {
        let inputs: Vec<u32> =
            (0..cc.input_regs.len() as u32).map(|i| 0x4000u32.wrapping_add(i * 8)).collect();
        // Synthetic inputs may make a config compute an out-of-bounds
        // address; the *fault* must then be offset-invariant too, so we
        // compare whole results.
        let run = |off: Offset| {
            let mut mem = rv32::mem::Memory::new(1 << 22);
            exec.execute(&cc.config, off, &inputs, &mut dbt::membus::MemoryBus::new(&mut mem))
                .map(|out| (out.outputs, out.cycles))
        };
        let reference = run(Offset::ORIGIN);
        for off in [Offset::new(1, 3), Offset::new(3, 31), Offset::new(2, 17)] {
            assert_eq!(run(off), reference, "pc {:#x} offset {off}", cc.start_pc);
        }
    }
}

#[test]
fn config_cache_thrash_is_correct() {
    // A tiny cache forces constant eviction/re-translation; results must
    // still verify.
    let w = &mibench::suite(3)[5]; // sha
    let cfg =
        transrec::SystemConfig { cache_capacity: 2, ..transrec::SystemConfig::new(Fabric::be()) };
    let mut sys = transrec::System::new(cfg, Box::new(uaware::BaselinePolicy));
    let (result, reg) = obs::collect(|| sys.run(w.program()));
    result.unwrap();
    w.verify(sys.cpu()).unwrap();
    assert!(reg.counter("system.cache_evicted") > 0, "tiny cache must evict");
}

#[test]
fn translator_builds_never_exceed_the_retired_stream() {
    let fabric = Fabric::be();
    let w = &mibench::suite(1)[0];
    let mut cpu = Cpu::new(1 << 20);
    cpu.load_program(w.program()).unwrap();
    let mut dbt = Translator::new(fabric);
    let mut built_instrs = 0u64;
    let mut builds = 0u64;
    while cpu.exit().is_none() {
        let r = cpu.step().unwrap();
        for b in dbt.observe(&r, false) {
            assert!(b.instr_count > 0, "empty configuration built at {:#x}", b.start_pc);
            builds += 1;
            built_instrs += b.instr_count as u64;
        }
    }
    assert!(builds > 0, "a hot workload must yield configurations");
    assert!(built_instrs <= cpu.retired(), "cannot cover more than retired");
}
