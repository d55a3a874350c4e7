//! Trace formation from the retired-instruction stream (paper Fig. 2,
//! step 2: "As instructions finish their execution, they are sent to the
//! DBT module, which interprets their semantics, finds the dependencies
//! among them, and allocates them into a CGRA configuration").

use rv32::cpu::Retired;

use cgra::Fabric;

use crate::translate::{is_supported, translate_trace, CachedConfig, TranslatorParams};

/// The hardware DBT's trace builder: feed it retired instructions, get
/// cache-ready configurations out.
///
/// # Examples
///
/// ```
/// use cgra::Fabric;
/// use dbt::Translator;
/// use rv32::{asm::assemble, cpu::Cpu};
///
/// let p = assemble("
///     addi a1, a0, 1
///     slli a2, a1, 3
///     xor  a3, a2, a0
///     beq  a3, zero, end     # control: finalizes the trace
/// end:
///     ebreak
/// ").unwrap();
/// let mut cpu = Cpu::new(1 << 20);
/// cpu.load_program(&p).unwrap();
/// let mut dbt = Translator::new(Fabric::be());
/// let mut built = Vec::new();
/// while cpu.exit().is_none() {
///     let r = cpu.step().unwrap();
///     built.extend(dbt.observe(&r, false));
/// }
/// assert_eq!(built.len(), 1);
/// // Three body instructions + the beq resolved on the fabric.
/// assert_eq!(built[0].instr_count, 4);
/// assert!(matches!(built[0].exit, dbt::TraceExit::Branch { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct Translator {
    fabric: Fabric,
    params: TranslatorParams,
    forming: Option<Forming>,
}

#[derive(Clone, Debug)]
struct Forming {
    start_pc: u32,
    expected_pc: u32,
    instrs: Vec<rv32::Instr>,
}

impl Translator {
    /// Creates a translator targeting `fabric` with default parameters.
    pub fn new(fabric: Fabric) -> Translator {
        Translator::with_params(fabric, TranslatorParams::default())
    }

    /// Creates a translator with explicit parameters.
    pub fn with_params(fabric: Fabric, params: TranslatorParams) -> Translator {
        Translator { fabric, params, forming: None }
    }

    /// The translator's parameters.
    pub fn params(&self) -> &TranslatorParams {
        &self.params
    }

    /// Observes one retired instruction. Returns the configurations
    /// finalized by it (a long straight-line trace splits into a *chain* of
    /// configurations, each picking up where the previous one stopped).
    ///
    /// `already_cached` tells the translator the configuration cache already
    /// holds an entry for this PC, so starting a new trace there would be
    /// wasted work.
    pub fn observe(&mut self, retired: &Retired, already_cached: bool) -> Vec<CachedConfig> {
        let supported = is_supported(&retired.instr);

        // Continue the forming trace if this instruction follows it.
        if let Some(forming) = &mut self.forming {
            if supported && retired.pc == forming.expected_pc {
                forming.instrs.push(retired.instr);
                forming.expected_pc = retired.next_pc;
                if forming.instrs.len() >= self.params.max_instrs {
                    return self.finalize();
                }
                return Vec::new();
            }
            // A control transfer immediately following the trace can be
            // resolved on the fabric (branch condition as ALU ops / static
            // jump target) — the mechanism that keeps hot loops entirely on
            // the CGRA.
            let terminator = (retired.pc == forming.expected_pc
                && matches!(retired.instr, rv32::Instr::Branch { .. } | rv32::Instr::Jal { .. }))
            .then_some(retired.instr);
            let built = self.finalize_with(terminator.as_ref());
            self.maybe_start(retired, already_cached);
            return built;
        }

        self.maybe_start(retired, already_cached);
        Vec::new()
    }

    fn maybe_start(&mut self, retired: &Retired, already_cached: bool) {
        if is_supported(&retired.instr) && !already_cached {
            self.forming = Some(Forming {
                start_pc: retired.pc,
                expected_pc: retired.next_pc,
                instrs: vec![retired.instr],
            });
        }
    }

    /// Finalizes the forming trace, if any, translating it into a chain of
    /// configurations.
    pub fn finalize(&mut self) -> Vec<CachedConfig> {
        self.finalize_with(None)
    }

    /// Finalizes with an optional fabric-resolvable terminator. A trace
    /// longer than one fabric's worth of operations becomes several
    /// back-to-back configurations (like DIM allocating into a fresh
    /// configuration when the current one fills up).
    fn finalize_with(&mut self, terminator: Option<&rv32::Instr>) -> Vec<CachedConfig> {
        let Some(forming) = self.forming.take() else {
            return Vec::new();
        };
        let mut built = Vec::new();
        let mut done = 0usize;
        while done < forming.instrs.len() {
            let start_pc = forming.start_pc + 4 * done as u32;
            let rest = &forming.instrs[done..];
            match translate_trace(&self.fabric, &self.params, start_pc, rest, terminator) {
                Ok(cfg) => {
                    // A fabric-resolved terminator is only attached to the
                    // final chunk; `covered` then exceeds the body slice.
                    let body_covered = (cfg.instr_count as usize).min(rest.len());
                    done += body_covered.max(1);
                    built.push(cfg);
                }
                Err(_) => break,
            }
        }
        built
    }
}
