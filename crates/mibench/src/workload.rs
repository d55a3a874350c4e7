//! The workload framework: a benchmark = an assembled program + seeded
//! inputs + a native Rust oracle that proves the run was correct.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rv32::asm::{assemble, AsmError};
use rv32::cpu::Cpu;
use rv32::Program;

/// A named, checkable benchmark instance.
///
/// The program's input data is baked into its `.data` segment at build time
/// (seeded), and `expected` holds the oracle-computed bytes that must appear
/// at the given symbols when the program halts — however it was executed
/// (plain interpreter or GPP + CGRA system).
pub struct Workload {
    name: String,
    program: Program,
    max_steps: u64,
    expected: Vec<(String, Vec<u8>)>,
}

/// Verification failure: a result region differs from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Workload name.
    pub workload: String,
    /// Symbol of the mismatching region.
    pub symbol: String,
    /// First differing byte offset.
    pub offset: usize,
    /// Expected byte.
    pub expected: u8,
    /// Actual byte.
    pub actual: u8,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: output `{}` differs at byte {}: expected {:#04x}, got {:#04x}",
            self.workload, self.symbol, self.offset, self.expected, self.actual
        )
    }
}

impl std::error::Error for VerifyError {}

impl Workload {
    /// Builds a workload from assembly source and oracle expectations.
    ///
    /// # Panics
    ///
    /// Panics if the source does not assemble or an expected symbol is
    /// missing — both are bugs in the kernel, not runtime conditions.
    pub fn new(
        name: impl Into<String>,
        source: &str,
        max_steps: u64,
        expected: Vec<(String, Vec<u8>)>,
    ) -> Workload {
        let name = name.into();
        let program = match assemble(source) {
            Ok(p) => p,
            Err(AsmError { line, msg }) => {
                panic!("kernel `{name}` does not assemble: line {line}: {msg}")
            }
        };
        Workload::from_program(name, program, max_steps, expected)
    }

    /// Builds a workload from an already assembled program — a generated
    /// one, say — and oracle expectations at its symbols.
    ///
    /// # Panics
    ///
    /// Panics if an expected symbol is missing from the program.
    pub fn from_program(
        name: impl Into<String>,
        program: Program,
        max_steps: u64,
        expected: Vec<(String, Vec<u8>)>,
    ) -> Workload {
        let name = name.into();
        for (sym, _) in &expected {
            assert!(
                program.symbol(sym).is_some(),
                "program `{name}` lacks expected symbol `{sym}`"
            );
        }
        Workload { name, program, max_steps, expected }
    }

    /// Benchmark name (e.g. `susan_corners`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assembled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Step budget for a run (interpreter steps; generous).
    pub fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// The oracle's expected memory regions.
    pub fn expected(&self) -> &[(String, Vec<u8>)] {
        &self.expected
    }

    /// Checks a halted CPU against the oracle.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching byte as a [`VerifyError`].
    pub fn verify(&self, cpu: &Cpu) -> Result<(), VerifyError> {
        for (sym, bytes) in &self.expected {
            let addr = self.program.symbol(sym).expect("checked in constructor");
            let got =
                cpu.mem.read_bytes(addr, bytes.len() as u32).expect("expected region in memory");
            if let Some(offset) = (0..bytes.len()).find(|&i| got[i] != bytes[i]) {
                return Err(VerifyError {
                    workload: self.name.clone(),
                    symbol: sym.clone(),
                    offset,
                    expected: bytes[offset],
                    actual: got[offset],
                });
            }
        }
        Ok(())
    }

    /// Convenience: run on a fresh interpreter and verify.
    ///
    /// # Errors
    ///
    /// Returns a string describing the execution or verification failure.
    pub fn run_and_verify(&self, mem_size: usize) -> Result<Cpu, String> {
        let mut cpu = Cpu::new(mem_size);
        cpu.load_program(&self.program).map_err(|e| e.to_string())?;
        cpu.run(self.max_steps).map_err(|e| format!("{}: {e}", self.name))?;
        self.verify(&cpu).map_err(|e| e.to_string())?;
        Ok(cpu)
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("instrs", &self.program.instr_count())
            .field("data_bytes", &self.program.data.len())
            .finish()
    }
}

/// Deterministic RNG for input generation.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Renders a `.word` table for the `.data` section.
pub fn words_directive(label: &str, words: &[u32]) -> String {
    let mut out = format!("{label}:\n");
    for chunk in words.chunks(8) {
        let row: Vec<String> = chunk.iter().map(|w| format!("{:#010x}", w)).collect();
        out.push_str(&format!("    .word {}\n", row.join(", ")));
    }
    out
}

/// Renders a `.byte` table for the `.data` section.
pub fn bytes_directive(label: &str, bytes: &[u8]) -> String {
    let mut out = format!("{label}:\n");
    for chunk in bytes.chunks(16) {
        let row: Vec<String> = chunk.iter().map(|b| format!("{b:#04x}")).collect();
        out.push_str(&format!("    .byte {}\n", row.join(", ")));
    }
    out
}

/// Random bytes from a seeded RNG.
pub fn random_bytes(rng: &mut SmallRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.random_range(0..=255u32) as u8).collect()
}

/// Random words from a seeded RNG.
pub fn random_words(rng: &mut SmallRng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.random_range(0..=u32::MAX)).collect()
}

/// Little-endian byte view of a word slice (for oracle expectations).
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_round_trip() {
        let w = Workload::new(
            "toy",
            "
            .data
        out: .word 0
            .text
            li t0, 41
            addi t0, t0, 1
            la t1, out
            sw t0, 0(t1)
            ebreak
        ",
            100,
            vec![("out".into(), 42u32.to_le_bytes().to_vec())],
        );
        w.run_and_verify(1 << 20).unwrap();
    }

    #[test]
    fn verify_catches_mismatch() {
        let w = Workload::new(
            "bad",
            "
            .data
        out: .word 0
            .text
            ebreak
        ",
            10,
            vec![("out".into(), vec![9, 9, 9, 9])],
        );
        let err = w.run_and_verify(1 << 20).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn directives_render() {
        let w = words_directive("tbl", &[1, 2, 3]);
        assert!(w.contains("tbl:"));
        assert!(w.contains("0x00000001"));
        let b = bytes_directive("bt", &[0xab; 17]);
        assert_eq!(b.matches(".byte").count(), 2, "chunked rows");
    }

    #[test]
    fn seeded_rng_is_stable() {
        let a = random_bytes(&mut rng(7), 16);
        let b = random_bytes(&mut rng(7), 16);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "does not assemble")]
    fn bad_kernel_panics_at_build() {
        Workload::new("nope", "bogus_instr x9", 1, vec![]);
    }
}
