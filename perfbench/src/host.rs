//! Host-side readings: process CPU time and memory high-water from
//! `/proc`, the fingerprint that goes with every result, and the
//! reference kernel that measures how fast the host runs right now.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/<pid>/stat` times. Linux
/// reports them in `USER_HZ`, which is 100 on every supported target.
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process so far, all threads
/// included (`utime` + `stime` of `/proc/self/stat`).
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it are fixed.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let field = |i: usize| -> u64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = field(11) + field(12);
    Duration::from_nanos(ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// CPUs, CPU model, compiler and build profile: wall clocks compare only
/// between results that carry the same fingerprint.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

/// Iterations of one reference-kernel chunk: about 10 ms of host time.
const REF_ITERS: u64 = 100_000;
/// Slots of the reference kernel's state table: 256 KiB of `u64`.
const REF_SLOTS: usize = 1 << 15;
/// Events the reference kernel keeps pending.
const REF_PENDING: u32 = 1024;
/// Fewest chunks in one reference block.
const REF_CHUNKS: usize = 8;
/// Host ns per reference iteration that the end-to-end host times are
/// scaled to: a time reads as it would on a host that runs the reference
/// kernel at this speed.
pub const REF_NOMINAL_NS: f64 = 100.0;

/// One chunk of the reference kernel: fixed work shaped like a
/// discrete-event simulator's inner loop. It pops the earliest of
/// [`REF_PENDING`] pending events, updates a random slot of a state table
/// through a fresh heap allocation, and schedules the event again. It is
/// the benchmark's own code, so a change to the simulator leaves it alone
/// while a change in host speed moves it as it moves the simulator.
fn reference_chunk() -> u64 {
    let mut state = vec![0u64; REF_SLOTS];
    let mut pending = BinaryHeap::with_capacity(REF_PENDING as usize);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for id in 0..REF_PENDING {
        pending.push(Reverse((next() & 0xffff, id)));
    }
    for _ in 0..REF_ITERS {
        let Reverse((t, id)) = pending.pop().expect("events are pending");
        let r = next();
        let slot = r as usize % REF_SLOTS;
        let value = Box::new(state[slot].wrapping_mul(31) ^ t);
        state[slot] = *black_box(value);
        pending.push(Reverse((t + (r >> 54) + 1, id)));
    }
    state.iter().fold(0, |a, b| a ^ b)
}

/// Host ns per reference iteration, one value per chunk of a block that
/// runs at least [`REF_CHUNKS`] chunks (about 80 ms) and at least
/// `min_time`.
pub fn reference_block(min_time: Duration) -> Vec<f64> {
    let block_start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < REF_CHUNKS || block_start.elapsed() < min_time {
        let start = Instant::now();
        black_box(reference_chunk());
        ns.push(start.elapsed().as_nanos() as f64 / REF_ITERS as f64);
    }
    ns
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
