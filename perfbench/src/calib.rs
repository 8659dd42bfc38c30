//! A fixed calibration kernel: a yardstick for how fast the host runs.
//!
//! The kernel is a small event-queue simulation of its own (a binary
//! heap of timers, a hash map of sessions, short-lived vectors) that
//! shares no code with the program under test, so no change to the
//! program moves it. The benchmark times it next to every campaign rep.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one kernel pass at the reference speed: the median
/// pass on the 2-vCPU Xeon host the benchmark was tuned on. Times read in
/// kernel passes are reported as seconds at this speed.
pub const REFERENCE_KERNEL_S: f64 = 0.008;

/// Events one kernel pass processes.
const EVENTS: u64 = 60_000;

/// A deterministic xorshift step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One pass of the kernel; returns a checksum so it cannot be elided.
pub fn kernel() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut sessions: HashMap<u64, Vec<u64>> = HashMap::with_capacity(512);
    let mut sum = 0u64;
    for i in 0..512u64 {
        heap.push(std::cmp::Reverse((next(&mut rng) % 10_000, i)));
    }
    for _ in 0..EVENTS {
        let std::cmp::Reverse((at, id)) = heap.pop().expect("the heap is never empty");
        let key = id % 509;
        let log = sessions.entry(key).or_default();
        log.push(at);
        if log.len() > 8 {
            sum = sum.wrapping_add(log.iter().sum::<u64>());
            sessions.remove(&key);
        }
        heap.push(std::cmp::Reverse((at + 1 + next(&mut rng) % 10_000, id)));
    }
    sum
}

/// Host seconds of one kernel pass.
pub fn timed() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process, and every process it starts later, to the CPU it
/// is running on, so the kernel passes and the operations they calibrate
/// share one core. Returns the CPU, or `None` where pinning is not
/// available.
#[cfg(target_os = "linux")]
pub fn pin() -> Option<usize> {
    // SAFETY: both calls only read or set this process's scheduling
    // state; the mask outlives the call and its size is passed with it.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok().filter(|&c| c < 1024)?;
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin() -> Option<usize> {
    None
}
