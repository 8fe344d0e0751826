//! Structure-of-arrays `f64` and complex lane packs for lockstep
//! multi-variant solves.
//!
//! [`F64s<N>`] bundles `N` independent real problem instances into one
//! value: every arithmetic operator acts element-wise over a plain
//! `[f64; N]`, which LLVM auto-vectorizes into SIMD on every target the
//! workspace builds for (no `unsafe`, no intrinsics — the crate forbids
//! both). Running the LU kernel of [`crate::SparseLu`] over `F64s<N>`
//! therefore factors `N` same-pattern matrices in one pass, sharing all
//! index bookkeeping, pivot searches and loop control between the
//! lanes.
//!
//! The [`Scalar`] impl makes the *shared-pivot* semantics explicit:
//! [`modulus`](Scalar::modulus) is the **minimum** absolute value across
//! lanes (with non-finite lanes mapped to zero), so a pivot candidate is
//! only as good as its worst variant and the generic NaN-aware guards
//! (`!(modulus() > tol)`) trip as soon as *any* lane goes numerically
//! dead. The [`LaneScalar`] impl refines that with per-lane masks so
//! the masked entry point can quarantine the dead lane and keep the
//! others marching — see
//! [`SparseLu::refactor_frozen_masked`](crate::SparseLu::refactor_frozen_masked),
//! which runs the one replay kernel of the scalar and complex
//! refactorizations with a per-lane pivot guard.
//!
//! [`C64s<N>`] is the complex counterpart — a real and an imaginary
//! [`F64s<N>`] — whose lanes each perform [`Complex64`]'s arithmetic, so
//! the same masked replay factors `N` AC frequency points of one frozen
//! `G + jωC` factorization at once
//! ([`SparseLu::frozen_twin`](crate::SparseLu::frozen_twin)).

use crate::scalar::{LaneScalar, Scalar};
use crate::Complex64;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// `N` independent `f64` values marching in lockstep (element-wise
/// arithmetic; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64s<const N: usize>([f64; N]);

/// Two-lane pack (the narrowest vectorizable width).
pub type F64x2 = F64s<2>;
/// Four-lane pack (one AVX2 / NEON×2 register).
pub type F64x4 = F64s<4>;
/// Eight-lane pack (one AVX-512 register, or two AVX2 ops — the lane
/// width of the batched operating-point solver).
pub type F64x8 = F64s<8>;

impl<const N: usize> F64s<N> {
    /// Packs an array of lane values.
    #[inline]
    #[must_use]
    pub const fn new(lanes: [f64; N]) -> Self {
        F64s(lanes)
    }

    /// Unpacks the lane values.
    #[inline]
    #[must_use]
    pub const fn to_array(self) -> [f64; N] {
        self.0
    }

    /// Builds a pack by evaluating `f` per lane index.
    #[inline]
    #[must_use]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        F64s(std::array::from_fn(f))
    }

    /// Element-wise clamp of every lane into `[lo, hi]`, each lane
    /// performing exactly the scalar `f64::clamp` (NaN propagates).
    #[inline]
    #[must_use]
    pub fn clamp(mut self, lo: f64, hi: f64) -> Self {
        for v in &mut self.0 {
            *v = v.clamp(lo, hi);
        }
        self
    }

    /// Element-wise natural logarithm (scalar `f64::ln` per lane).
    #[inline]
    #[must_use]
    pub fn ln(mut self) -> Self {
        for v in &mut self.0 {
            *v = v.ln();
        }
        self
    }

    /// Element-wise square root (scalar `f64::sqrt` per lane).
    #[inline]
    #[must_use]
    pub fn sqrt(mut self) -> Self {
        for v in &mut self.0 {
            *v = v.sqrt();
        }
        self
    }

    /// Element-wise cosine (scalar `f64::cos` per lane).
    #[inline]
    #[must_use]
    pub fn cos(mut self) -> Self {
        for v in &mut self.0 {
            *v = v.cos();
        }
        self
    }

    /// Element-wise absolute value.
    #[inline]
    #[must_use]
    pub fn abs(mut self) -> Self {
        for v in &mut self.0 {
            *v = v.abs();
        }
        self
    }

    /// Element-wise maximum, each lane performing exactly the scalar
    /// `f64::max` (a NaN lane yields the other operand).
    #[inline]
    #[must_use]
    pub fn max(mut self, rhs: Self) -> Self {
        for (v, r) in self.0.iter_mut().zip(rhs.0) {
            *v = v.max(r);
        }
        self
    }

    /// Lane-wise select: lane `i` of `then` where bit `i` of `mask` is
    /// set, of `otherwise` elsewhere. The chosen bits pass unchanged.
    #[inline]
    #[must_use]
    pub fn select(mask: u64, then: Self, otherwise: Self) -> Self {
        F64s(std::array::from_fn(|i| {
            if mask & (1 << i) != 0 {
                then.0[i]
            } else {
                otherwise.0[i]
            }
        }))
    }

    /// Mask of the lanes where `pred(self_i, rhs_i)` holds (bit `i` =
    /// lane `i`): the lane-wise form of a scalar comparison, with the
    /// scalar's NaN behaviour.
    #[inline]
    #[must_use]
    pub fn mask(self, rhs: Self, pred: impl Fn(f64, f64) -> bool) -> u64 {
        let mut m = 0u64;
        for (i, (a, b)) in self.0.into_iter().zip(rhs.0).enumerate() {
            m |= u64::from(pred(a, b)) << i;
        }
        m
    }

    /// Mask of the lanes holding a non-finite value (NaN or ±∞).
    #[inline]
    #[must_use]
    pub fn non_finite_mask(self) -> u64 {
        self.mask(self, |a, _| !a.is_finite())
    }
}

impl<const N: usize> Default for F64s<N> {
    #[inline]
    fn default() -> Self {
        F64s([0.0; N])
    }
}

impl<const N: usize> From<[f64; N]> for F64s<N> {
    #[inline]
    fn from(lanes: [f64; N]) -> Self {
        F64s(lanes)
    }
}

macro_rules! lanewise_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl<const N: usize> $trait for F64s<N> {
            type Output = Self;
            #[inline]
            fn $method(mut self, rhs: Self) -> Self {
                for i in 0..N {
                    self.0[i] $op rhs.0[i];
                }
                self
            }
        }

        impl<const N: usize> $assign_trait for F64s<N> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                for i in 0..N {
                    self.0[i] $op rhs.0[i];
                }
            }
        }
    };
}

lanewise_binop!(Add, add, AddAssign, add_assign, +=);
lanewise_binop!(Sub, sub, SubAssign, sub_assign, -=);
lanewise_binop!(Mul, mul, MulAssign, mul_assign, *=);
lanewise_binop!(Div, div, DivAssign, div_assign, /=);

impl<const N: usize> Neg for F64s<N> {
    type Output = Self;
    #[inline]
    fn neg(mut self) -> Self {
        for v in &mut self.0 {
            *v = -*v;
        }
        self
    }
}

impl<const N: usize> Scalar for F64s<N> {
    const ZERO: Self = F64s([0.0; N]);
    const ONE: Self = F64s([1.0; N]);

    /// Worst-lane magnitude: `min_i |x_i|`, with non-finite lanes
    /// mapped to `0.0` so any NaN/∞ lane makes the value fail the
    /// kernel pivot guards (and lose every pivot contest) instead of
    /// being silently divided by.
    #[inline]
    fn modulus(self) -> f64 {
        let mut m = f64::INFINITY;
        for v in self.0 {
            let a = if v.is_finite() { v.abs() } else { 0.0 };
            if a < m {
                m = a;
            }
        }
        m
    }

    #[inline]
    fn finite(self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl<const N: usize> LaneScalar for F64s<N> {
    type Elem = f64;
    const LANES: usize = N;

    #[inline]
    fn splat(v: f64) -> Self {
        F64s([v; N])
    }

    #[inline]
    fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    #[inline]
    fn set_lane(&mut self, i: usize, v: f64) {
        self.0[i] = v;
    }

    #[inline]
    fn bad_mask(self, tol: f64) -> u64 {
        let mut mask = 0u64;
        for (i, v) in self.0.iter().enumerate() {
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !v.is_finite() || !(v.abs() > tol) {
                mask |= 1 << i;
            }
        }
        mask
    }

    #[inline]
    fn heal(mut self, mask: u64, fill: f64) -> Self {
        for (i, v) in self.0.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *v = fill;
            }
        }
        self
    }
}

/// `N` independent [`Complex64`] values marching in lockstep, stored as
/// a real and an imaginary [`F64s`] pack.
///
/// Every lane performs exactly [`Complex64`]'s arithmetic in its order —
/// `(a·c − b·d, a·d + b·c)` for a product, `self · rhs.inv()` with
/// `inv = (re/d, −im/d)` and `d = re·re + im·im` for a quotient — so a
/// lane is bit for bit the scalar complex computation on its inputs.
/// Running [`crate::SparseLu`] over `C64s<N>` replays one frozen complex
/// factorization for `N` value sets at once (an AC sweep's frequency
/// points).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64s<const N: usize> {
    /// Real parts.
    pub re: F64s<N>,
    /// Imaginary parts.
    pub im: F64s<N>,
}

/// Eight-lane complex pack: eight frequency points per frozen replay.
pub type C64x8 = C64s<8>;

impl<const N: usize> C64s<N> {
    /// Packs real and imaginary lane values.
    #[inline]
    #[must_use]
    pub const fn new(re: F64s<N>, im: F64s<N>) -> Self {
        C64s { re, im }
    }

    /// Multiplicative inverse per lane, [`Complex64::inv`]'s arithmetic.
    #[inline]
    #[must_use]
    pub fn inv(self) -> Self {
        let d = self.re * self.re + self.im * self.im;
        C64s::new(self.re / d, -self.im / d)
    }
}

impl<const N: usize> Add for C64s<N> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        C64s::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<const N: usize> Sub for C64s<N> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        C64s::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<const N: usize> Mul for C64s<N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        C64s::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<const N: usize> Div for C64s<N> {
    type Output = Self;
    // Division by multiplying with the inverse, as `Complex64` divides.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<const N: usize> Neg for C64s<N> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        C64s::new(-self.re, -self.im)
    }
}

macro_rules! complex_assign {
    ($assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl<const N: usize> $assign_trait for C64s<N> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
    };
}

complex_assign!(AddAssign, add_assign, +);
complex_assign!(SubAssign, sub_assign, -);
complex_assign!(MulAssign, mul_assign, *);
complex_assign!(DivAssign, div_assign, /);

impl<const N: usize> Scalar for C64s<N> {
    const ZERO: Self = C64s::new(F64s::ZERO, F64s::ZERO);
    const ONE: Self = C64s::new(F64s::ONE, F64s::ZERO);

    /// Worst-lane modulus: `min_i |z_i|`, with non-finite lanes mapped
    /// to `0.0`, as for [`F64s`].
    #[inline]
    fn modulus(self) -> f64 {
        let mut m = f64::INFINITY;
        for i in 0..N {
            let z = self.lane(i);
            let a = if z.is_finite() { z.abs() } else { 0.0 };
            if a < m {
                m = a;
            }
        }
        m
    }

    #[inline]
    fn finite(self) -> bool {
        self.re.finite() && self.im.finite()
    }
}

impl<const N: usize> LaneScalar for C64s<N> {
    type Elem = Complex64;
    const LANES: usize = N;

    #[inline]
    fn splat(v: Complex64) -> Self {
        C64s::new(F64s::splat(v.re), F64s::splat(v.im))
    }

    #[inline]
    fn lane(self, i: usize) -> Complex64 {
        Complex64::new(self.re.0[i], self.im.0[i])
    }

    #[inline]
    fn set_lane(&mut self, i: usize, v: Complex64) {
        self.re.0[i] = v.re;
        self.im.0[i] = v.im;
    }

    /// Lanes where the value is unusable as a pivot: the scalar complex
    /// guard per lane, non-finite or `!(|z| > tol)` with `|z|` the
    /// `hypot` modulus. `hypot` is within an ulp of `|z| ≥ max(|re|,
    /// |im|)`, so a finite lane whose larger part exceeds `2·tol` passes
    /// without calling it; only the other lanes take the scalar test.
    /// The skip takes about 13 % off a 400-point AC sweep of the
    /// limiting amplifier.
    #[inline]
    fn bad_mask(self, tol: f64) -> u64 {
        let finite = !(self.re.non_finite_mask() | self.im.non_finite_mask());
        let big = self
            .re
            .abs()
            .max(self.im.abs())
            .mask(F64s::splat(2.0 * tol), |a, b| a > b);
        let mut mask = 0u64;
        for i in (0..N).filter(|i| finite & big & (1 << i) == 0) {
            let z = self.lane(i);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !z.is_finite() || !(z.abs() > tol) {
                mask |= 1 << i;
            }
        }
        mask
    }

    #[inline]
    fn heal(self, mask: u64, fill: Complex64) -> Self {
        let fill = Self::splat(fill);
        C64s::new(
            F64s::select(mask, fill.re, self.re),
            F64s::select(mask, fill.im, self.im),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_lanewise() {
        let a = F64x4::new([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::new([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).to_array(), [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((b - a).to_array(), [9.0, 18.0, 27.0, 36.0]);
        assert_eq!((a * b).to_array(), [10.0, 40.0, 90.0, 160.0]);
        assert_eq!((b / a).to_array(), [10.0, 10.0, 10.0, 10.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    /// Lane independence is the correctness foundation of the batch
    /// solver: garbage (NaN/∞) in one lane must never leak into others.
    #[test]
    fn lanes_never_mix() {
        let poisoned = F64x4::new([f64::NAN, 2.0, f64::INFINITY, 4.0]);
        let clean = F64x4::new([1.0, 10.0, 1.0, 10.0]);
        let sum = poisoned + clean;
        assert!(sum.lane(0).is_nan());
        assert_eq!(sum.lane(1), 12.0);
        assert!(sum.lane(2).is_infinite());
        assert_eq!(sum.lane(3), 14.0);
        let prod = poisoned * clean;
        assert_eq!(prod.lane(1), 20.0);
        assert_eq!(prod.lane(3), 40.0);
    }

    /// Each lane of a pack computes bit-for-bit what the scalar `f64`
    /// pipeline computes for that lane's inputs.
    #[test]
    fn lane_arithmetic_bit_identical_to_scalar() {
        let xs = [0.3, -1.75, 1e-12, 42.0];
        let ys = [7.1, 0.2, -3.0, 1e9];
        let packed = (F64x4::new(xs) * F64x4::new(ys) + F64x4::new(ys)) / F64x4::new(xs);
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            let scalar = (x * y + y) / x;
            assert_eq!(packed.lane(i).to_bits(), scalar.to_bits());
        }
        let clamped = F64x4::new(ys).clamp(-1.0, 2.0);
        for (i, &y) in ys.iter().enumerate() {
            assert_eq!(clamped.lane(i).to_bits(), y.clamp(-1.0, 2.0).to_bits());
        }
    }

    #[test]
    fn modulus_is_worst_lane() {
        assert_eq!(F64x4::new([3.0, -0.5, 2.0, 8.0]).modulus(), 0.5);
        // A non-finite lane zeroes the pivot quality.
        assert_eq!(F64x4::new([3.0, f64::NAN, 2.0, 8.0]).modulus(), 0.0);
        assert!(!F64x4::new([3.0, f64::NAN, 2.0, 8.0]).finite());
        assert!(F64x4::new([3.0, -0.5, 2.0, 8.0]).finite());
    }

    #[test]
    fn masked_pivot_helpers() {
        let v = F64x4::new([5.0, 1e-320, f64::NAN, -2.0]);
        // Lanes 1 (underflow) and 2 (NaN) are unusable pivots.
        assert_eq!(v.bad_mask(1e-300), 0b0110);
        let healed = v.heal(0b0110, 1.0);
        assert_eq!(healed.to_array(), [5.0, 1.0, 1.0, -2.0]);
    }

    #[test]
    fn f64_is_one_lane_pack() {
        assert_eq!(<f64 as LaneScalar>::LANES, 1);
        assert_eq!(<f64 as LaneScalar>::LANE_MASK, 1);
        assert_eq!(f64::splat(3.5).lane(0), 3.5);
        assert_eq!(3.0f64.bad_mask(1e-300), 0);
        assert_eq!(0.0f64.bad_mask(1e-300), 1);
        assert_eq!(f64::NAN.heal(1, 7.0), 7.0);
    }

    /// Each complex lane is bitwise `Complex64`'s arithmetic, and the
    /// pivot mask is the scalar complex guard per lane, near the
    /// tolerance (where `hypot` decides) and away from it.
    #[test]
    fn complex_lanes_are_scalar_complex_bit_for_bit() {
        let zs = [(0.3, -1.75), (1e-12, 42.0), (-7.1, 0.2), (3.0, -1e9)];
        let ws = [(2.5, 0.5), (-0.4, 0.9), (1e-3, -1e-3), (6.0, 8.0)];
        let pack = |v: &[(f64, f64); 4]| {
            let mut p = C64s::<4>::ZERO;
            for (i, &(re, im)) in v.iter().enumerate() {
                p.set_lane(i, Complex64::new(re, im));
            }
            p
        };
        let (a, b) = (pack(&zs), pack(&ws));
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for i in 0..4 {
            let (x, y) = (a.lane(i), b.lane(i));
            assert_eq!(bits((a * b).lane(i)), bits(x * y), "mul lane {i}");
            assert_eq!(bits((a / b).lane(i)), bits(x / y), "div lane {i}");
            assert_eq!(bits((a - b * a).lane(i)), bits(x - y * x), "lane {i}");
        }
        let tol = 1e-300;
        let edge = C64s::<4>::new(
            F64s::new([1.5e-300, 8e-301, f64::NAN, 1.0]),
            F64s::new([0.0, 8e-301, 1.0, f64::INFINITY]),
        );
        for i in 0..4 {
            let z = edge.lane(i);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let scalar = !z.is_finite() || !(z.abs() > tol);
            assert_eq!(edge.bad_mask(tol) & (1 << i) != 0, scalar, "lane {i}");
        }
        assert_eq!(edge.bad_mask(tol), 0b1100);
    }

    #[test]
    fn splat_and_from_fn() {
        let s = F64x8::splat(2.5);
        assert!(s.to_array().iter().all(|&v| v == 2.5));
        let f = F64x8::from_fn(|i| i as f64);
        assert_eq!(f.lane(7), 7.0);
        let mut g = f;
        g.set_lane(3, -1.0);
        assert_eq!(g.lane(3), -1.0);
        assert_eq!(g.lane(2), 2.0);
    }
}
