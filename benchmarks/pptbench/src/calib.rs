//! The reference computation every timing is divided by.
//!
//! This box is a small VM on shared hardware, and its speed drifts: the
//! same repetition of `star_dctcp` took 1.30 s in a quiet hour and 2.3 s
//! in a busy one, with CPU time following wall time (so it is not steal:
//! the neighbours take execution ports and memory bandwidth, not time
//! slices). A pointer chase that fits in L1 stayed within 4 % through all
//! of it; an ALU loop and a DRAM walk moved by 13–18 %. Seconds are
//! therefore not a unit that repeats here, and ROADMAP item 1 already asks
//! for "an in-run interleaved A/B ratio, because absolute numbers on this
//! box drift".
//!
//! So every timed unit is bracketed by two runs of [`run`], a fixed piece
//! of work that uses nothing of the repository (a change to the simulator
//! cannot move it), and is reported in *reference seconds*: measured
//! seconds × [`NOMINAL_S`] ÷ the mean of the two bracketing calibrations.
//! On a quiet machine of this kind a reference second is a second.
//!
//! The three parts have the simulator's flavours and, here, about equal
//! weight: ordered-map churn (a transport's flow tables), a heap-driven
//! event loop over FIFO queues (the engine), and scattered writes over
//! 8 MB (a large run's heap). While sizing, each part alone tracked some
//! workloads and missed others; their sum cut the run-to-run spread of
//! the worst workloads from 26–28 % to 7–9 % and made none worse.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::procfs;
use crate::workload::Scale;

/// What [`run`] takes on this kind of machine when nothing else runs.
pub const NOMINAL_S: f64 = 0.22;

/// One run of the reference computation.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub wall_s: f64,
    pub cpu_s: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Ordered-map churn: the flow-table side of a transport.
fn map_churn(steps: u64) -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..steps {
        let r = xorshift(&mut x);
        let key = r % 4096;
        *map.entry(key).or_insert(0) += i;
        if i % 3 == 0 {
            if let Some(v) = map.remove(&(r.rotate_left(17) % 4096)) {
                acc = acc.wrapping_add(v);
            }
        }
        if let Some((&k, _)) = map.range(key..).next() {
            acc = acc.wrapping_add(k);
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// A toy event loop: a heap of timed events at constant occupancy,
/// per-port FIFO queues, byte counters.
fn event_loop(steps: u64) -> u64 {
    let mut heap: BinaryHeap<(Reverse<u64>, u64, u32)> = BinaryHeap::new();
    let mut queues: Vec<VecDeque<u32>> = (0..16).map(|_| VecDeque::new()).collect();
    let mut bytes = [0u64; 16];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut seq = 0u64;
    for id in 0..256u32 {
        heap.push((Reverse(xorshift(&mut x) % 50_000), seq, id));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let Some((Reverse(at), _, id)) = heap.pop() else { break };
        let port = (id % 16) as usize;
        let r = xorshift(&mut x);
        if r & 3 == 0 {
            queues[port].push_back(id);
            bytes[port] += 1500;
        } else if let Some(head) = queues[port].pop_front() {
            bytes[port] -= 1500;
            acc = acc.wrapping_add(head as u64);
        }
        let delta = if r & 7 < 5 { 1_200 } else { 20_000 };
        heap.push((Reverse(at + delta), seq, id));
        seq += 1;
    }
    acc.wrapping_add(bytes.iter().sum::<u64>())
}

/// Words of the buffer [`memory_walk`] scatters over: 8 MB.
const WALK_WORDS: usize = 1 << 20;

/// Scattered read-modify-writes over 8 MB of the caller's stack.
fn memory_walk(steps: u64) -> u64 {
    let mut buf = [0u64; WALK_WORDS];
    let mask = WALK_WORDS as u64 - 1;
    let mut x = 0xD1B5_4A32_D192_ED03u64;
    for _ in 0..steps {
        let i = (xorshift(&mut x) & mask) as usize;
        buf[i] = buf[i].wrapping_add(x);
    }
    buf[0]
}

/// Do the fixed work once and report what it took. The smoke scale does
/// a fiftieth of it: debug builds only need the plumbing exercised.
///
/// The work runs on a scratch thread whose stack holds the 8 MB buffer:
/// the C library hands a finished thread's stack pages back to the
/// kernel, whereas a freed 8 MB heap block stays resident from the second
/// call on (the allocator raises its mmap threshold) and would sit in
/// every `peak_rss_mb`.
pub fn run(scale: Scale) -> Calibration {
    let shrink = match scale {
        Scale::Full => 1,
        Scale::Smoke => 50,
    };
    let work = move || {
        let cpu0 = procfs::thread_cpu_s();
        let t0 = Instant::now();
        black_box(map_churn(400_000 / shrink));
        black_box(event_loop(1_500_000 / shrink));
        black_box(memory_walk(23_000_000 / shrink));
        let wall_s = t0.elapsed().as_secs_f64();
        // Without per-thread accounting, a compute-bound thread's CPU
        // time is its wall time to within what the scheduler took away.
        let cpu_s = match (cpu0, procfs::thread_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => wall_s,
        };
        Calibration { wall_s, cpu_s }
    };
    std::thread::Builder::new()
        .stack_size((WALK_WORDS + (128 << 10)) * 8)
        .spawn(work)
        .expect("spawning the scratch thread")
        .join()
        .expect("the scratch thread does not panic")
}

/// `measured` seconds in reference seconds, given the calibration runs
/// right before and right after the measurement (wall or CPU seconds of
/// both, alike).
pub fn reference_seconds(measured: f64, before: f64, after: f64) -> f64 {
    measured * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_with_the_machine() {
        // A machine twice as slow doubles both readings: same result.
        let quiet = reference_seconds(1.0, NOMINAL_S, NOMINAL_S);
        let busy = reference_seconds(2.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S);
        assert!((quiet - 1.0).abs() < 1e-12 && (busy - 1.0).abs() < 1e-12);
        // A slower program on the same machine shows in full.
        assert!((reference_seconds(1.1, NOMINAL_S, NOMINAL_S) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn the_reference_work_is_deterministic() {
        assert_eq!(map_churn(5_000), map_churn(5_000));
        assert_eq!(event_loop(5_000), event_loop(5_000));
        let c = run(Scale::Smoke);
        assert!(c.wall_s > 0.0 && c.cpu_s >= 0.0);
    }
}
