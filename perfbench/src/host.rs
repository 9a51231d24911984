//! How fast the host runs at the moment, read from a fixed loop that
//! belongs to this benchmark and not to the system under test.

use crate::cpu;
use std::hint::black_box;

/// Complex values per plane: two 32 KiB planes, about the size of a
/// deployment's channel rows.
const PLANE: usize = 4096;

/// Passes over the planes per timing: about 2M complex multiply-adds.
const PASSES: usize = 512;

/// Timings per reading; the reading is the fastest.
const REPS: usize = 5;

/// CPU µs the calling thread takes for [`PASSES`] complex
/// multiply-accumulate passes over two fixed planes, the fastest of
/// [`REPS`] timings; NaN when the thread's CPU time is unreadable.
pub fn reference_us() -> f64 {
    let re: Vec<f64> = (0..PLANE).map(|i| (i % 101) as f64 / 101.0 - 0.5).collect();
    let im: Vec<f64> = (0..PLANE).map(|i| (i % 103) as f64 / 103.0 - 0.5).collect();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let Some(t0) = cpu::thread_seconds() else {
            return f64::NAN;
        };
        let (mut acc_re, mut acc_im) = (0.0, 0.0);
        for p in 0..PASSES {
            let (xr, xi) = black_box((re[p % PLANE], im[p % PLANE]));
            for k in 0..PLANE {
                acc_re += re[k] * xr - im[k] * xi;
                acc_im += re[k] * xi + im[k] * xr;
            }
        }
        black_box((acc_re, acc_im));
        let Some(t1) = cpu::thread_seconds() else {
            return f64::NAN;
        };
        best = best.min((t1 - t0) * 1e6);
    }
    best
}
