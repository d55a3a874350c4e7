//! Bring your own kernel: write RV32IM assembly, check it against a native
//! Rust oracle, and evaluate how allocation policies spread its FU stress.
//!
//! ```sh
//! cargo run --release -p transrec --example custom_kernel
//! ```

use cgra::Fabric;
use mibench::Workload;
use transrec::{System, SystemConfig};
use uaware::PolicySpec;

/// A Fibonacci-hash mixer over an array — the "user kernel".
fn kernel_source(n: usize, values: &[u32]) -> String {
    format!(
        "
    .data
{}
out:
    .space {}

    .text
    la   s0, input
    la   s1, out
    li   s2, {n}
loop:
    lw   t0, 0(s0)
    li   t1, 0x9e3779b9      # golden-ratio multiplier
    mul  t0, t0, t1
    srli t2, t0, 15
    xor  t0, t0, t2
    slli t2, t0, 7
    xor  t0, t0, t2
    sw   t0, 0(s1)
    addi s0, s0, 4
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, loop
    ebreak
",
        mibench::workload::words_directive("input", values),
        n * 4,
        n = n,
    )
}

/// The oracle: the same mixing in Rust.
fn oracle(values: &[u32]) -> Vec<u8> {
    values
        .iter()
        .map(|v| {
            let mut x = v.wrapping_mul(0x9e37_79b9);
            x ^= x >> 15;
            x ^= x << 7;
            x
        })
        .flat_map(|x| x.to_le_bytes())
        .collect()
}

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let values: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let workload = Workload::new(
        "fibmix",
        &kernel_source(values.len(), &values),
        100_000,
        vec![("out".into(), oracle(&values))],
    );

    // Sanity: the kernel is correct on the plain interpreter.
    workload.run_and_verify(1 << 20)?;
    println!("kernel verifies on the interpreter");

    // Now on the accelerated system under several movement granularities —
    // each policy written in the same compact string grammar the `--policy`
    // CLI flag accepts.
    let fabric = Fabric::be();
    let specs = [
        "baseline",
        "rotation:snake@per-exec",
        "rotation:snake@per-load",
        "rotation:snake@every-8",
    ];
    println!(
        "\n{:<26} {:>8} {:>10} {:>10} {:>8}",
        "policy", "cycles", "worst-FU", "mean-FU", "rot-cyc"
    );
    for s in specs {
        let spec: PolicySpec = s.parse()?;
        let mut sys = System::with_spec(SystemConfig::new(fabric), spec)?;
        sys.run(workload.program())?;
        workload.verify(sys.cpu())?;
        let grid = sys.tracker().utilization();
        println!(
            "{:<26} {:>8} {:>9.1}% {:>9.1}% {:>8}",
            s,
            sys.cpu().cycles(),
            100.0 * grid.max(),
            100.0 * grid.mean(),
            sys.stats().rotate_cycles,
        );
    }
    Ok(())
}
