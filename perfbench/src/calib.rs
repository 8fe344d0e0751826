//! Host-speed calibration.
//!
//! A shared host runs in speed regimes: load from other tenants on the
//! same physical cores slows every instruction stream for seconds at a
//! time. The benchmark times this fixed kernel right before every job
//! and set-up and takes each one's time as a multiple of it, so a regime
//! change cancels out of the ratio. The kernel is the benchmark's own
//! code and shares none with the simulator, so a change to the simulator
//! moves only the numerator. Its mix follows the simulator's hot loops:
//! an in-cache dense LU and exponentials, as in MNA factorization and
//! device evaluation.

use crate::layers::elapsed_ns;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (Intel Xeon, 2 vCPU) when
/// no other tenant loads it, in ms. Normalized times are quoted in
/// milliseconds of that host: ratio × `REFERENCE_MS`.
pub const REFERENCE_MS: f64 = 1.7;

/// Matrix order and repetitions: about 2 ms per call.
const N: usize = 32;
const REPS: usize = 400;

/// Kernel timings on each side of a sample whose median gives the host
/// speed it ran at. One 2 ms kernel is too short to tell which regime
/// a 20–150 ms job met; nine spread over its neighbours are not.
const WINDOW: usize = 4;

/// One timed set-up or job, in run order: its wall time and the kernel
/// time taken right before it, in ms.
pub struct Sample {
    pub setup: bool,
    pub ms: f64,
    pub cal_ms: f64,
}

/// Each sample's wall time in milliseconds of the reference host: over
/// the median kernel time of the samples within [`WINDOW`] of it, times
/// [`REFERENCE_MS`].
pub fn normalized_ms(samples: &[Sample]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let near = &samples[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(samples.len())];
            let mut cal: Vec<f64> = near.iter().map(|s| s.cal_ms).collect();
            samples[i].ms / crate::median(&mut cal) * REFERENCE_MS
        })
        .collect()
}

/// Runs the kernel once and returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut a = [[0.0f64; N]; N];
    let mut acc = 0.0;
    for rep in 0..REPS {
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j {
                    4.0 + rep as f64 * 1e-9
                } else {
                    ((i * 7 + j * 3) % 11) as f64 * 0.01
                };
            }
        }
        // Doolittle LU without pivoting: the matrix is diagonally dominant.
        for k in 0..N {
            let (top, rest) = a.split_at_mut(k + 1);
            let pivot = &top[k];
            for row in rest.iter_mut() {
                let f = row[k] / pivot[k];
                row[k] = f;
                for (x, p) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *x -= f * p;
                }
            }
        }
        acc += (0..N).map(|i| (a[i][i] * 0.1).exp().sqrt()).sum::<f64>();
        black_box(&mut a);
    }
    black_box(acc);
    elapsed_ns(t) as f64 / 1e6
}
