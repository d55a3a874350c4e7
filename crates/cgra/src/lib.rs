//! # cgra — the TransRec-style CGRA fabric model
//!
//! The reconfigurable-fabric substrate of the `uaware-cgra` workspace, which
//! reproduces *"Proactive Aging Mitigation in CGRAs through
//! Utilization-Aware Allocation"* (DAC 2020). The fabric is a `W × L` matrix
//! of combinational FUs with strictly left-to-right data propagation over
//! context lines (paper Fig. 4):
//!
//! * [`fabric`] — geometry + technology parameters ([`Fabric`], with the
//!   paper's BE/BP/BU design points as presets), per-cell capability
//!   classes ([`CellClass`]/[`ClassMap`]) and the per-column interconnect
//!   bandwidth budget of heterogeneous design points (DESIGN.md §14).
//! * [`spec`] — fabrics as data: the sweepable [`FabricSpec`] with the
//!   compact `--fabric` string grammar (`be`, `4x8:het-checker+bw-2`, …).
//! * [`op`] — the operation set and placed-operation model.
//! * [`config`] — validated virtual configurations ([`Configuration`]) and
//!   the pivot [`Offset`] with wrap-around arithmetic.
//! * [`exec`] — functional + timing execution at any pivot offset
//!   ([`Executor`], [`MemBus`]), allocation-free on reused
//!   [`ExecScratch`].
//! * [`bitstream`] — the bit-level configuration encoding the
//!   reconfiguration logic moves around.
//! * [`reconfig`] — the reconfiguration unit (paper Fig. 5), baseline and
//!   with the movement extensions (column-select muxes, barrel shifters,
//!   wrap-around).
//! * [`fault`] — permanent per-FU failure maps ([`FaultMask`]) the
//!   closed-loop lifetime engine feeds back into allocation.
//! * [`area`] — the structural area/delay model behind paper Table II.
//!
//! # Examples
//!
//! ```
//! use cgra::op::{AluFunc, CtxLine, OpKind, Operand, PlacedOp};
//! use cgra::{ArrayMem, Configuration, Executor, Fabric, Offset};
//!
//! let fabric = Fabric::be();
//! let cfg = Configuration::new(
//!     &fabric,
//!     vec![PlacedOp {
//!         row: 0, col: 0, span: 1,
//!         kind: OpKind::Alu(AluFunc::Add),
//!         a: Operand::Ctx(CtxLine(0)),
//!         b: Operand::Imm(100),
//!         dst: Some(CtxLine(1)),
//!     }],
//!     vec![CtxLine(0)],
//!     vec![CtxLine(1)],
//! )?;
//! let mut mem = ArrayMem::new(64);
//! let exec = Executor::new(&fabric);
//!
//! // The same configuration executed at two different pivots computes the
//! // same value on different physical FUs — the property utilization-aware
//! // allocation exploits to balance NBTI stress.
//! let at_origin = exec.execute(&cfg, Offset::ORIGIN, &[1], &mut mem)?;
//! let moved = exec.execute(&cfg, Offset::new(1, 7), &[1], &mut mem)?;
//! assert_eq!(at_origin.outputs, moved.outputs);
//! assert_ne!(at_origin.active_cells, moved.active_cells);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod bitstream;
pub mod config;
pub mod exec;
pub mod fabric;
pub mod fault;
pub mod op;
pub mod reconfig;
pub mod spec;
pub mod sram;

pub use area::{AreaModel, AreaReport, CellLibrary};
pub use bitstream::{Bitstream, BitstreamError};
pub use config::{ConfigError, Configuration, Offset};
pub use exec::{ArrayMem, ExecError, ExecOutcome, ExecScratch, Executor, MemBus, MemFault, MemOps};
pub use fabric::{CellClass, ClassMap, Fabric, FabricError, OpLatencies};
pub use fault::FaultMask;
pub use reconfig::{LoadedFabric, ReconfigError, ReconfigUnit, RESIDENT_ROTATE_CYCLES};
pub use spec::{FabricSpec, ParseFabricError};
pub use sram::{config_cache_macro, SramMacro, SramTech};
