//! Scalar abstraction over the number fields the LU kernels factor in.
//!
//! The sparse LU ([`crate::SparseLu`]) eliminates real MNA Jacobians for
//! DC/transient analysis and complex `G + jωC` systems for AC analysis.
//! Both run the *same* Gilbert–Peierls elimination; only the arithmetic
//! differs. [`Scalar`] captures exactly what the kernel needs — field
//! arithmetic, the additive/multiplicative identities, and a real pivot
//! magnitude for threshold pivot selection — and is implemented for
//! [`f64`] and [`Complex64`]. The `f64` instantiation performs
//! operation-for-operation the same arithmetic as the pre-generic
//! solver, so DC/transient results stay bit-identical.

use crate::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A field scalar the sparse LU can factor over.
///
/// Implementors must form a field under the arithmetic operators (the
/// kernel divides by pivots) and provide a real magnitude for pivot
/// comparisons. The trait is sealed in spirit — it exists for `f64` and
/// [`Complex64`] — but is left open so downstream experiments (interval
/// or extended-precision scalars) can plug into the same kernel.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;

    /// Multiplicative identity.
    const ONE: Self;

    /// Real magnitude `|x|` used for pivot selection and singularity
    /// checks. For `f64` this is `abs()`; for [`Complex64`] the modulus.
    fn modulus(self) -> f64;

    /// Whether every component of the scalar is finite (pivot sanity
    /// guard; NaN and infinity both report `false`).
    fn finite(self) -> bool;
}

/// A [`Scalar`] that packs `LANES` independent `f64` problem instances
/// into one value, structure-of-arrays style (see [`crate::lanes`]).
///
/// Every arithmetic operator acts lane-wise — lane `i` of any result
/// depends only on lane `i` of the operands — so running an elimination
/// kernel over a `LaneScalar` is exactly `LANES` independent scalar
/// eliminations marching in lockstep. The extra methods expose what
/// lockstep solvers need beyond field arithmetic: lane access for
/// packing/unpacking, and *masked* pivot health so one numerically dead
/// variant can be quarantined (and later re-solved scalar) without
/// stalling the other lanes.
///
/// Masks are `u64` bitsets with bit `i` = lane `i`; bits at and above
/// [`LANES`](Self::LANES) are ignored.
pub trait LaneScalar: Scalar {
    /// Number of packed lanes.
    const LANES: usize;

    /// Mask with one bit set per lane (`(1 << LANES) - 1`).
    const LANE_MASK: u64 = (1u64 << Self::LANES) - 1;

    /// Broadcasts one scalar into every lane.
    fn splat(v: f64) -> Self;

    /// Reads lane `i` (must be `< LANES`).
    fn lane(self, i: usize) -> f64;

    /// Writes lane `i` (must be `< LANES`).
    fn set_lane(&mut self, i: usize, v: f64);

    /// Lanes where the value is unusable as a pivot: bit `i` set when
    /// lane `i` is non-finite or `|x_i| <= tol` (NaN compares unusable).
    fn bad_mask(self, tol: f64) -> u64;

    /// Replaces the lanes selected by `mask` with `fill`, leaving the
    /// others untouched — used to overwrite a dead lane's pivot with a
    /// benign value so lockstep division never poisons live lanes.
    #[must_use]
    fn heal(self, mask: u64, fill: f64) -> Self;
}

/// `f64` is the trivial one-lane pack: lane masks degenerate to bit 0.
/// This lets lockstep drivers be written once over [`LaneScalar`] and
/// still instantiate a true scalar loop.
impl LaneScalar for f64 {
    const LANES: usize = 1;

    #[inline]
    fn splat(v: f64) -> Self {
        v
    }

    #[inline]
    fn lane(self, i: usize) -> f64 {
        debug_assert_eq!(i, 0);
        self
    }

    #[inline]
    fn set_lane(&mut self, i: usize, v: f64) {
        debug_assert_eq!(i, 0);
        *self = v;
    }

    #[inline]
    fn bad_mask(self, tol: f64) -> u64 {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !self.is_finite() || !(self.abs() > tol) {
            1
        } else {
            0
        }
    }

    #[inline]
    fn heal(self, mask: u64, fill: f64) -> Self {
        if mask & 1 != 0 {
            fill
        } else {
            self
        }
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn finite(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn finite(self) -> bool {
        self.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_modulus_is_abs() {
        assert_eq!((-3.5f64).modulus(), 3.5);
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert!(1.0f64.finite());
        assert!(!f64::NAN.finite());
        assert!(!f64::INFINITY.finite());
    }

    #[test]
    fn complex_modulus_is_hypot() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.modulus() - 5.0).abs() < 1e-15);
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::ONE);
        assert!(z.finite());
        assert!(!Complex64::new(f64::NAN, 0.0).finite());
    }

    /// The generic pivot comparison must match the old f64-only code:
    /// `x.modulus()` and `x.abs()` are the same bits for every input.
    #[test]
    fn f64_path_is_bit_identical() {
        for x in [0.0, -0.0, 1.5e-300, -7.25, f64::MAX] {
            assert_eq!(x.modulus().to_bits(), x.abs().to_bits());
        }
    }
}
