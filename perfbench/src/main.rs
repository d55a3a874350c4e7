//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]`
//! — runs one benchmark workload and prints its metrics, ending with one
//! JSON line. See `README.md` beside this crate.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{traced, untraced, Workload, DEFAULT_SEED};

/// Worker threads of an untraced run: the two cores the benchmark is sized
/// for.
const JOBS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed =
        Args { workload: Workload::Paper, seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => parsed.seed = parse_u64(flag, value)?,
            "--seconds" => parsed.seconds = parse_u64(flag, value)?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// A directory inside the build tree for checkpoint files, private to this
/// process.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match scratch_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot create a scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(args.workload, args.seed, &scratch)
    } else {
        untraced(args.workload, args.seed, args.seconds, JOBS, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("ops_attempted {} ops_failed {}", report.attempted, report.failed);
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
