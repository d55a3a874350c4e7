//! CI perf-regression gate (DESIGN.md §16).
//!
//! Compares fresh `CRITERION_SNAPSHOT` files against the committed
//! baseline under `crates/bench/benches/baseline/` and exits non-zero
//! when any tracked benchmark's fastest sample regressed past the
//! tolerance (default 15%), or when a baselined benchmark went missing.
//! The fastest sample — not the median — is compared: runner noise only
//! adds time, so the minimum is the stable estimator (see `bench::gate`).
//!
//! ```text
//! bench_gate --fresh BENCH_solve.json [--fresh ...]   # compare
//! bench_gate --fresh ... --rebaseline                 # escape hatch
//! ```
//!
//! Flags: `--fresh <file>` (repeatable; a fresh snapshot file),
//! `--baseline-dir <dir>` (default: the committed baseline),
//! `--tolerance <frac>` (default 0.15), and `--rebaseline` to overwrite
//! the committed baseline with the fresh files after an intentional perf
//! change — commit the resulting diff.

use std::path::PathBuf;

use bench::gate::{
    baseline_files, compare, default_baseline_dir, load_snapshots, rebaseline, DEFAULT_TOLERANCE,
};
use bench::or_exit;

struct Cli {
    fresh: Vec<PathBuf>,
    baseline_dir: PathBuf,
    tolerance: f64,
    rebaseline: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        fresh: Vec::new(),
        baseline_dir: default_baseline_dir(),
        tolerance: DEFAULT_TOLERANCE,
        rebaseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => {
                let v = args.next().ok_or("--fresh needs a file path")?;
                cli.fresh.push(PathBuf::from(v));
            }
            "--baseline-dir" => {
                let v = args.next().ok_or("--baseline-dir needs a directory")?;
                cli.baseline_dir = PathBuf::from(v);
            }
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a fraction, e.g. 0.15")?;
                cli.tolerance = v.parse().map_err(|e| format!("--tolerance {v}: {e}"))?;
            }
            "--rebaseline" => cli.rebaseline = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.fresh.is_empty() {
        return Err("pass at least one --fresh <snapshot.json>".into());
    }
    Ok(cli)
}

fn main() {
    let cli = or_exit(parse_cli());
    if cli.rebaseline {
        if let Err(e) = rebaseline(&cli.baseline_dir, &cli.fresh) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!(
            "rebaselined {} snapshot file(s) into {}",
            cli.fresh.len(),
            cli.baseline_dir.display()
        );
        return;
    }
    let base_paths = or_exit(baseline_files(&cli.baseline_dir));
    let baseline = or_exit(load_snapshots(&base_paths));
    let fresh = or_exit(load_snapshots(&cli.fresh));
    let outcome = compare(&baseline, &fresh, cli.tolerance);
    print!("{}", outcome.render_table());
    if outcome.passed() {
        println!(
            "perf gate: ok ({} benchmarks, tolerance {:.0}%)",
            outcome.rows.len(),
            cli.tolerance * 100.0
        );
    } else {
        let n = outcome.failures().count();
        println!(
            "perf gate: FAILED ({n} of {} benchmarks; intentional change? re-run the benches \
             with CRITERION_SNAPSHOT and pass --rebaseline, then commit the diff)",
            outcome.rows.len()
        );
        std::process::exit(1);
    }
}
