//! The host's speed, read from a fixed CPU-bound reference loop.
//!
//! The benchmark runs on a few CPUs of a shared host whose speed drifts:
//! spells of a few seconds in which the CPU time of a fixed piece of work
//! rises 1.4–1.8×, and drift of 10–30% over minutes, with no steal time
//! (frequency and shared-core effects). The reference loop slows with
//! them: the CPU time of a `tadfa-serve` start-up divided by the loop's
//! stayed within about 5% through both. So every cost is reported scaled
//! to a host on which the loop's median takes [`REFERENCE_LOOP_S`].
//! The loop is this package's own code, not the program's, so a change to
//! the program moves the scaled costs as it moves the raw ones.

use std::hint::black_box;

/// CPU seconds the reference loop takes on the reference host (about
/// what it takes on a 2-CPU Xeon VM when that host is not slowed).
pub const REFERENCE_LOOP_S: f64 = 0.011;

/// This thread's CPU time, s.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable struct laid out as the platform's
    // `struct timespec`, which clock_gettime fills and nothing else.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

const GRID: usize = 96;
const SWEEPS: usize = 1000;

/// The reference work: `SWEEPS` Jacobi sweeps of a 96×96 `f64` grid
/// (two 72 KiB buffers), the kind of floating-point stencil the die and
/// DFA solvers run. Returns a checksum of the result.
fn reference_work() -> f64 {
    let n = GRID;
    let mut a = vec![1.0f64; n * n];
    let mut b = vec![0.0f64; n * n];
    a[..n].fill(2.0);
    for sweep in 0..SWEEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let k = i * n + j;
                b[k] = 0.25 * (a[k - 1] + a[k + 1] + a[k - n] + a[k + n]) + sweep as f64 * 1e-9;
            }
        }
        std::mem::swap(&mut a, &mut b);
        black_box(&mut a);
    }
    a.iter().sum()
}

/// Runs the reference loop once; returns the CPU seconds it took.
pub fn reference_loop_s() -> f64 {
    let t = thread_cpu_s();
    black_box(reference_work());
    thread_cpu_s() - t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        // Any change to the loop changes this sum; it would also change
        // what the scaled costs mean.
        let sum = reference_work();
        assert!((sum - 7286.286805).abs() < 1e-3, "checksum {sum}");
    }
}
