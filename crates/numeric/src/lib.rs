//! Numerical kernels for the CML I/O interface reproduction.
//!
//! This crate is the mathematical substrate under the circuit simulator
//! (`cml-spice`), the channel model and the measurement tooling. It
//! provides, with no external dependencies:
//!
//! * [`Complex64`] — complex arithmetic used by AC (small-signal) analysis
//!   and the FFT,
//! * [`DenseMatrix`] / [`lu`] — dense real and complex LU factorization with
//!   partial pivoting, the linear-solver core of modified nodal analysis,
//! * [`sparse`] — a triplet-based sparse builder with CSR conversion for the
//!   larger transient systems,
//! * [`SparseLu`] — left-looking sparse LU with threshold pivoting and a
//!   replayable refactorization path for Newton loops on a fixed pattern,
//!   generic over [`Scalar`] (`f64` for DC/transient, [`Complex64`] for
//!   the AC `G + jωC` systems). One replay kernel, in pivot space, sits
//!   behind all three entry points ([`SparseLu::refactor`],
//!   [`SparseLu::refactor_frozen`], [`SparseLu::refactor_frozen_masked`]);
//!   they differ only in what a dead pivot does,
//! * [`lanes`] — structure-of-arrays `f64` and complex lane packs
//!   ([`F64s`], [`C64s`]) with per-lane pivot-death masks, letting that
//!   same replay kernel factor K same-pattern matrices in lockstep
//!   ([`SparseLu::refactor_frozen_masked`]) for batched Monte-Carlo
//!   solves and for eight AC frequency points per replay,
//! * [`fft`] — radix-2 complex FFT / inverse FFT plus real-signal helpers,
//!   used to synthesize channel impulse responses from loss profiles,
//! * [`interp`] — linear and monotone cubic (PCHIP) interpolation for
//!   waveform resampling,
//! * [`matching`] — maximum bipartite matching / structural rank of a
//!   sparse pattern, used by the netlist linter to predict MNA
//!   singularity before any factorization is attempted,
//! * [`stats`] — summary statistics and histogramming used by the eye
//!   diagram and jitter measurements.
//!
//! # Example
//!
//! Solving a small resistive-network nodal system `G·v = i`:
//!
//! ```
//! use cml_numeric::DenseMatrix;
//!
//! # fn main() -> Result<(), cml_numeric::NumericError> {
//! let mut g = DenseMatrix::zeros(2, 2);
//! g[(0, 0)] = 2.0; g[(0, 1)] = -1.0;
//! g[(1, 0)] = -1.0; g[(1, 1)] = 2.0;
//! let v = g.solve(&[1.0, 0.0])?;
//! assert!((v[0] - 2.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod dense;
mod error;
pub mod fft;
pub mod interp;
pub mod lanes;
pub mod matching;
mod scalar;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;

pub use complex::Complex64;
pub use dense::{lu, ComplexMatrix, DenseMatrix, LuFactors};
pub use error::NumericError;
pub use lanes::{C64s, C64x8, F64s, F64x2, F64x4, F64x8};
pub use scalar::{LaneScalar, Scalar};
pub use sparse_lu::{RefactorOutcome, SparseLu};

/// Relative comparison of two floats with a combined absolute/relative
/// tolerance, the convention used across the simulator's convergence checks.
///
/// Returns `true` when `|a - b| <= atol + rtol * max(|a|, |b|)`.
///
/// ```
/// assert!(cml_numeric::approx_eq(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
/// assert!(!cml_numeric::approx_eq(1.0, 1.1, 1e-9, 1e-3));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

/// Linearly spaced grid of `n` points covering `[start, stop]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// ```
/// let g = cml_numeric::linspace(0.0, 1.0, 5);
/// assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
#[must_use]
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (stop - start) / (n - 1) as f64;
    (0..n)
        .map(|i| {
            if i == n - 1 {
                stop
            } else {
                start + step * i as f64
            }
        })
        .collect()
}

/// Logarithmically spaced grid of `n` points covering `[start, stop]`
/// inclusive. Both endpoints must be strictly positive.
///
/// This is the frequency grid used by AC sweeps (e.g. 10 MHz → 30 GHz).
///
/// # Panics
///
/// Panics if `n < 2` or either endpoint is not strictly positive.
///
/// ```
/// let g = cml_numeric::logspace(1.0, 100.0, 3);
/// assert!((g[1] - 10.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn logspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && stop > 0.0,
        "logspace endpoints must be positive"
    );
    linspace(start.log10(), stop.log10(), n)
        .into_iter()
        .map(|e| 10f64.powf(e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let g = linspace(-3.5, 7.25, 17);
        assert_eq!(g.len(), 17);
        assert_eq!(g[0], -3.5);
        assert_eq!(g[16], 7.25);
    }

    #[test]
    fn linspace_monotone() {
        let g = linspace(0.0, 1.0, 100);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        let _ = linspace(0.0, 1.0, 1);
    }

    #[test]
    fn logspace_decades() {
        let g = logspace(1e6, 1e9, 4);
        assert!((g[1] - 1e7).abs() / 1e7 < 1e-12);
        assert!((g[2] - 1e8).abs() / 1e8 < 1e-12);
        assert_eq!(g[3], 1e9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn logspace_rejects_nonpositive() {
        let _ = logspace(0.0, 1.0, 4);
    }

    #[test]
    fn approx_eq_tolerances() {
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-10), 0.0, 1e-9));
        assert!(approx_eq(0.0, 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(0.0, 1e-6, 1e-9, 1e-9));
    }
}
