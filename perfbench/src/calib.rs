//! Host speed: a fixed kernel timed on the process CPU clock, in the
//! benchmark's own process, next to the work it calibrates.
//!
//! On a shared host the CPU time of the same work follows the
//! neighbours' load: hyperthread siblings, cache and memory bandwidth
//! held by other guests, and steal the guest does not account. On the
//! 2-vCPU VM this benchmark was tuned on, the gated CPU figures of one
//! commit moved by 1.7–1.9× between a busy and a quiet hour. The kernel
//! slows down with them, so gated timings are scaled by
//! [`REFERENCE_CPU_S`] over the kernel's CPU time measured beside them:
//! what the work would have cost at the reference host speed.
//!
//! The kernel is the benchmark's own code and never calls the program,
//! so a change to the program does not move it.

use std::hint::black_box;

use crate::stats;
use crate::sys;

/// CPU seconds, all threads, of one [`measure`] on two threads at the
/// reference host speed: a round figure for the 2-vCPU Xeon VM (2.0 GHz)
/// the benchmark was tuned on, where it read 0.17–0.28 s as the host's
/// load changed. Reference seconds are of the order of that VM's CPU
/// seconds.
pub const REFERENCE_CPU_S: f64 = 0.2;

/// One step of a 64-bit linear congruential generator.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Dependent transcendental arithmetic, as the aging kinetics do.
fn float_chain(n: u32) -> f64 {
    let mut acc = 0.0;
    let mut x = 1.5f64;
    for i in 0..n {
        x = (x * 1.0001 + 0.25).ln().exp().powf(0.999) + f64::from(i) * 1e-9;
        acc += x.sqrt();
    }
    acc
}

/// Cache-resident int8 and f32 dot products, as inference does, over
/// `a` (16 rows of `N`) and `b` (4 rows of `N`), filled here.
fn dot_products(a: &mut [i8], b: &mut [f32], rows: usize, seed: u64) -> f64 {
    const N: usize = 4096;
    let mut s = seed;
    for x in a.iter_mut() {
        #[allow(clippy::cast_possible_truncation)]
        {
            *x = lcg(&mut s) as i8;
        }
    }
    for x in b.iter_mut() {
        #[allow(clippy::cast_precision_loss)]
        {
            *x = (lcg(&mut s) % 1000) as f32 * 1e-3;
        }
    }
    let mut acc = 0i64;
    let mut facc = 0f32;
    for r in 0..rows {
        let off = (r * N) % (15 * N);
        let d: i32 = (0..N)
            .map(|k| i32::from(a[off + k]) * i32::from(a[k]))
            .sum();
        acc += i64::from(d);
        facc += (0..N)
            .map(|k| b[(off / 4 + k) % (4 * N)] * b[k])
            .sum::<f32>();
    }
    #[allow(clippy::cast_precision_loss)]
    {
        acc as f64 + f64::from(facc)
    }
}

/// Writes `buf` (16 MiB at 2²¹ values), then sums it eight times in
/// order: memory bandwidth with the prefetchers' help, as the fleet's
/// per-chip passes stream their arrays.
fn stream(buf: &mut [f64]) -> f64 {
    for (i, x) in buf.iter_mut().enumerate() {
        #[allow(clippy::cast_precision_loss)]
        {
            *x = i as f64 * 0.5;
        }
    }
    (0..8).map(|_| buf.iter().sum::<f64>()).sum()
}

/// One thread's buffers. The calling thread allocates and frees them,
/// so the allocator hands their pages back on [`sys::trim_heap`]; a
/// worker thread's arena would keep them resident.
struct Scratch {
    stream: Vec<f64>,
    a: Vec<i8>,
    b: Vec<f32>,
}

/// The kernel one thread runs. Its inputs are fixed, so every call does
/// the same work. Its parts are weighted by how well each followed the
/// workloads' CPU time between host states: the dot products best, the
/// float chain and the stream less; dependent loads from memory (a
/// pointer chase) slowed three times as much as the workloads under
/// load, so the kernel has none.
fn kernel(s: &mut Scratch, thread: u64) -> f64 {
    float_chain(200_000) + dot_products(&mut s.a, &mut s.b, 12_000, thread) + stream(&mut s.stream)
}

/// Runs the kernel once on each of `threads` threads at the same time,
/// as the workloads run their shards and method workers, and returns
/// the CPU seconds it took over all threads. The kernel's memory goes
/// back to the operating system afterwards, so it stays out of the
/// next peak RSS.
#[must_use]
pub fn measure(threads: usize) -> f64 {
    let cpu = sys::process_cpu_s();
    let mut scratch: Vec<Scratch> = (0..threads.max(1))
        .map(|_| Scratch {
            stream: vec![0.0; 1 << 21],
            a: vec![0; 16 * 4096],
            b: vec![0.0; 4 * 4096],
        })
        .collect();
    std::thread::scope(|scope| {
        for (t, s) in scratch.iter_mut().enumerate() {
            scope.spawn(move || black_box(kernel(s, t as u64)));
        }
    });
    let spent = sys::process_cpu_s() - cpu;
    drop(scratch);
    sys::trim_heap();
    spent
}

/// The factor that turns a run's CPU seconds into reference seconds,
/// from the kernel measurements taken through the run. The median
/// keeps one slow measurement from moving it.
#[must_use]
pub fn scale(marks: &[f64]) -> f64 {
    REFERENCE_CPU_S / stats::median(marks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_leaves_times_unchanged() {
        assert!((scale(&[REFERENCE_CPU_S]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        // The kernel took twice as long, once three times: the work
        // counts half.
        let slow = 2.0 * REFERENCE_CPU_S;
        assert!((scale(&[slow, 3.0 * REFERENCE_CPU_S, slow]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        let mut buf = vec![0.0; 1 << 10];
        let once = stream(&mut buf);
        assert!(stream(&mut buf).to_bits() == once.to_bits());
        assert!(float_chain(1_000).to_bits() == float_chain(1_000).to_bits());
        assert!(measure(1) > 0.0);
    }
}
