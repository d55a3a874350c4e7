//! Host-side measurements: process CPU time and peak resident set size
//! (Linux only), and a reference loop that measures the host's speed.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    usage
}

/// User + system CPU time of the whole process (all threads, joined ones
/// included) since it started.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = (u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec;
    Duration::from_micros(micros.max(0) as u64)
}

/// The process's peak resident set size so far, in MiB: `VmHWM` from
/// `/proc/self/status`. (`ru_maxrss` would also count the RSS of the
/// parent that forked this process, e.g. `cargo run`, because Linux carries
/// it across `execve`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Resets the process's peak resident set size to its current one, so the
/// next [`peak_rss_mb`] sees only what was allocated after this call.
///
/// # Errors
///
/// The write to `/proc/self/clear_refs` failed (not Linux, or a kernel that
/// forbids it).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The reference pass time that makes [`host_scale`] 1: close to the
/// fastest [`reference_pass_s`] seen on a quiet two-vCPU 2.0 GHz Xeon VM, so
/// scaled times read about as seconds on that host at its quietest.
pub const REFERENCE_PASS_S: f64 = 0.080;

/// One pass of a fixed loop of the benchmark's own code: 2^20 xorshift
/// draws, each reading and updating a random slot of a fresh 32 MiB table.
/// No code of the program runs in it, so its time tracks only how fast the
/// host runs at the moment. The table is sized to the host's last-level
/// cache (105 MiB, shared with the machine's other tenants), because
/// contention there is what slows the workloads most: on six to eight seeds
/// per workload this loop tracked every workload's wall time better than
/// one on a 256 KiB table that stays in the core's own cache.
fn reference_loop_s() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u32; 1 << 23];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..(1u32 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize) & (table.len() - 1);
        let v = table[idx];
        table[idx] = if v & 1 == 0 { v.wrapping_add(x as u32) } else { v ^ i };
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}

/// Times one reference pass: the reference loop on two threads at once, as
/// an untraced run's two workers run, averaged over both.
pub fn reference_pass_s() -> f64 {
    let other = std::thread::spawn(reference_loop_s);
    let mine = reference_loop_s();
    (mine + other.join().expect("the reference loop cannot panic")) / 2.0
}

/// The factor that turns times measured while reference passes took
/// `passes` seconds into times at the reference speed: the host's other
/// tenants slow the program and the reference loop alike.
pub fn host_scale(passes: &[f64]) -> f64 {
    REFERENCE_PASS_S / median(passes)
}
