//! # uaware-cgra — workspace facade
//!
//! Reproduction of *"Proactive Aging Mitigation in CGRAs through
//! Utilization-Aware Allocation"* (Brandalero et al., DAC 2020). This thin
//! crate re-exports every workspace member so the root-level integration
//! tests (`tests/`) and runnable examples (`examples/`) have a single
//! package to hang off; the substance lives in the member crates:
//!
//! * [`rv32`] — RV32IM emulator (decoder, encoder, assembler, CPU).
//! * [`cgra`] — the reconfigurable fabric, bitstreams and area model.
//! * [`uaware`] — the paper's contribution: rotation policies, movement
//!   patterns, utilization tracking, lifetime evaluation.
//! * [`nbti`] — the NBTI aging model (paper Eq. 1) and persistent
//!   per-unit wear state.
//! * [`lifetime`] — the closed-loop lifetime engine: fabric wear grids,
//!   end-of-life events, fleet survival statistics (DESIGN.md §11).
//! * [`dbt`] — the dynamic-binary-translation module.
//! * [`mibench`] — the MiBench-derived workloads.
//! * [`transrec`] — the full-system GPP + DBT + CGRA simulator.
//! * [`bench`](../bench/index.html) — the experiment harness behind the
//!   paper's figures/tables.
//!
//! See `README.md` for the crate map and `DESIGN.md` for the modeling
//! assumptions.

#![warn(missing_docs)]

// `pub use bench;` would also re-export the built-in unstable `#[bench]`
// attribute macro from the extern prelude; an explicit extern crate only
// names the library.
pub extern crate bench;
pub use cgra;
pub use dbt;
pub use lifetime;
pub use mibench;
pub use nbti;
pub use rv32;
pub use transrec;
pub use uaware;

/// The README's `rust` snippets, compiled (and the light ones run) as
/// doctests so that they track the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
