//! # dbt — the hardware dynamic-binary-translation model
//!
//! TransRec's DBT module (paper Fig. 2) turned into a library: it watches
//! the GPP's retired-instruction stream, forms straight-line traces, places
//! them greedily onto the CGRA fabric (the corner-biased allocation whose
//! aging consequences the paper attacks), and manages the PC-indexed
//! configuration cache.
//!
//! * [`translate`] — trace → [`Configuration`](cgra::Configuration)
//!   placement ([`translate_prefix`], [`CachedConfig`]).
//! * [`trace`] — the retire-stream observer ([`Translator`]).
//! * [`cache`] — the PC-indexed LRU [`ConfigCache`].
//! * [`membus`] — adapter exposing an [`rv32`] memory as the fabric's
//!   [`MemBus`](cgra::MemBus).
//!
//! # Examples
//!
//! Translate a straight-line sequence and verify the fabric computes exactly
//! what the processor would:
//!
//! ```
//! use cgra::{Executor, Fabric, Offset};
//! use dbt::membus::MemoryBus;
//! use dbt::translate::{translate_prefix, TranslatorParams};
//! use rv32::{asm::assemble, cpu::Cpu, isa::Reg};
//!
//! let p = assemble("
//!     addi a1, a0, 10
//!     mul  a2, a1, a0
//!     sub  a3, a2, a1
//! ").unwrap();
//! let instrs: Vec<_> = p.text.iter().map(|w| rv32::decode(*w).unwrap()).collect();
//! let fabric = Fabric::be();
//! let cached = translate_prefix(&fabric, &TranslatorParams::default(), p.entry, &instrs)?;
//!
//! // Reference: the interpreter.
//! let mut cpu = Cpu::new(1 << 20);
//! cpu.load_program(&p).unwrap();
//! cpu.set_reg(Reg::A0, 7);
//! for _ in 0..3 { cpu.step().unwrap(); }
//!
//! // Fabric execution of the same three instructions.
//! let inputs: Vec<u32> = cached.input_regs.iter().map(|_| 7).collect();
//! let mut mem = rv32::mem::Memory::new(64);
//! let out = Executor::new(&fabric)
//!     .execute(&cached.config, Offset::ORIGIN, &inputs, &mut MemoryBus::new(&mut mem))?;
//! for (reg, value) in cached.output_regs.iter().zip(&out.outputs) {
//!     assert_eq!(cpu.reg(*reg), *value);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod membus;
pub mod trace;
pub mod translate;

pub use cache::ConfigCache;
pub use trace::Translator;
pub use translate::{
    is_supported, translate_prefix, translate_trace, CachedConfig, StopReason, TraceExit,
    TranslateCounts, TranslateError, TranslatorParams,
};
