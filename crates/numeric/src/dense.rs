//! Dense real and complex matrices with LU factorization.
//!
//! Modified nodal analysis of the circuits in this project produces systems
//! of at most a few hundred unknowns, where a dense LU with partial pivoting
//! outperforms sparse machinery and is far easier to make robust. The
//! factorization is exposed separately from the solve ([`LuFactors`]) because
//! transient analysis re-solves against the same Jacobian structure many
//! times per timestep.

use crate::{Complex64, NumericError};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Pivot magnitudes below this are treated as singular.
const PIVOT_TOL: f64 = 1e-300;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use cml_numeric::DenseMatrix;
/// let m = DenseMatrix::identity(3);
/// assert_eq!(m[(1, 1)], 1.0);
/// assert_eq!(m[(0, 1)], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self, NumericError> {
        if data.len() != rows * cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{} elements", rows * cols),
                got: format!("{}", data.len()),
            });
        }
        Ok(DenseMatrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Copies `other`'s shape and entries into `self`, reusing the
    /// existing allocation when the sizes match (unlike `clone_from`,
    /// which may reallocate through the derived `Vec` path).
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        if self.data.len() == other.data.len() {
            self.data.copy_from_slice(&other.data);
        } else {
            self.data.clear();
            self.data.extend_from_slice(&other.data);
        }
    }

    /// Row-major flat view of the entries (`data[r * cols + c]`), for
    /// bulk readers like the batch solver's lane packer that would
    /// otherwise pay a bounds check per element through `Index`.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major flat view of the entries (`data[r * cols + c]`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Adds `v` to entry `(r, c)` — the "stamping" primitive used by MNA.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                got: format!("{}", x.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect())
    }

    /// Factorizes the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] when no pivot can be found,
    /// and [`NumericError::DimensionMismatch`] for non-square input.
    pub fn lu(&self) -> Result<LuFactors, NumericError> {
        lu(self)
    }

    /// Solves `A·x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`DenseMatrix::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        self.lu()?.solve(b)
    }

    /// Maximum absolute entry (∞-norm of the flattened matrix).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorization (with row pivoting) of a square real matrix.
///
/// Produced by [`lu`] / [`DenseMatrix::lu`]; reusable across multiple
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Vec<f64>,
    /// Row permutation applied during elimination.
    perm: Vec<usize>,
    /// Sign of the permutation, used by [`LuFactors::det`].
    perm_sign: f64,
}

/// Factorizes a square [`DenseMatrix`] with partial pivoting.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] for non-square matrices and
/// [`NumericError::SingularMatrix`] when elimination encounters a column
/// whose best pivot is below threshold.
pub fn lu(a: &DenseMatrix) -> Result<LuFactors, NumericError> {
    let mut f = LuFactors::default();
    f.refactor(a)?;
    Ok(f)
}

impl Default for LuFactors {
    /// Empty factors (dimension 0); a reusable workspace slot to be
    /// filled by [`LuFactors::refactor`].
    fn default() -> Self {
        LuFactors {
            n: 0,
            lu: Vec::new(),
            perm: Vec::new(),
            perm_sign: 1.0,
        }
    }
}

/// Eliminates `m` (row-major, `n × n`) in place with partial pivoting,
/// recording the row permutation in `perm`. Returns the permutation sign.
fn factor_in_place(m: &mut [f64], perm: &mut [usize], n: usize) -> Result<f64, NumericError> {
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let mut perm_sign = 1.0;
    for k in 0..n {
        // Partial pivoting: pick the largest magnitude in column k at/below row k.
        let mut piv_row = k;
        let mut piv_val = m[k * n + k].abs();
        for r in (k + 1)..n {
            let v = m[r * n + k].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = r;
            }
        }
        // `!(x > tol)` (rather than `x <= tol`) deliberately treats NaN
        // pivots as singular.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(piv_val > PIVOT_TOL) || !piv_val.is_finite() {
            return Err(NumericError::SingularMatrix {
                column: k,
                pivot: piv_val,
            });
        }
        if piv_row != k {
            for c in 0..n {
                m.swap(k * n + c, piv_row * n + c);
            }
            perm.swap(k, piv_row);
            perm_sign = -perm_sign;
        }
        let pivot = m[k * n + k];
        for r in (k + 1)..n {
            let factor = m[r * n + k] / pivot;
            m[r * n + k] = factor;
            if factor != 0.0 {
                for c in (k + 1)..n {
                    m[r * n + c] -= factor * m[k * n + c];
                }
            }
        }
    }
    Ok(perm_sign)
}

impl LuFactors {
    /// Dimension of the factored system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Re-factorizes `a` into this object, reusing the existing `lu` and
    /// `perm` allocations. The matrix dimension may change between calls.
    ///
    /// This is the hot path for transient analysis, where the Jacobian is
    /// re-factorized at every Newton iteration of every timestep: after
    /// the first factorization no further heap allocation occurs.
    ///
    /// # Errors
    ///
    /// Same as [`lu`]. On error the factors are left in an unspecified
    /// state and must be refilled by a successful `refactor` before use.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<(), NumericError> {
        if a.rows != a.cols {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", a.rows, a.cols),
            });
        }
        let n = a.rows;
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(&a.data);
        self.perm.resize(n, 0);
        self.perm_sign = factor_in_place(&mut self.lu, &mut self.perm, n)?;
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs of length {}", self.n),
                got: format!("{}", b.len()),
            });
        }
        let n = self.n;
        // Apply permutation, then forward substitution with unit-lower L.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let row = &self.lu[r * n..r * n + r];
            let acc: f64 = row.iter().zip(&x).map(|(l, v)| l * v).sum();
            x[r] -= acc;
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let row = &self.lu[r * n + r + 1..(r + 1) * n];
            let acc: f64 = row.iter().zip(&x[r + 1..]).map(|(u, v)| u * v).sum();
            x[r] = (x[r] - acc) / self.lu[r * n + r];
        }
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer, allocating nothing
    /// (beyond growing `x` to length `dim()` on first use).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs of length {}", self.n),
                got: format!("{}", b.len()),
            });
        }
        let n = self.n;
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for r in 1..n {
            let row = &self.lu[r * n..r * n + r];
            let acc: f64 = row.iter().zip(x.iter()).map(|(l, v)| l * v).sum();
            x[r] -= acc;
        }
        for r in (0..n).rev() {
            let row = &self.lu[r * n + r + 1..(r + 1) * n];
            let acc: f64 = row.iter().zip(&x[r + 1..]).map(|(u, v)| u * v).sum();
            x[r] = (x[r] - acc) / self.lu[r * n + r];
        }
        Ok(())
    }

    /// Determinant of the factored matrix (product of pivots × permutation sign).
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for k in 0..self.n {
            d *= self.lu[k * self.n + k];
        }
        d
    }
}

/// A dense row-major matrix of [`Complex64`], used by AC analysis.
///
/// Provides the same stamping/solve interface as [`DenseMatrix`] but over
/// the complex field, since reactive elements stamp `jωC` / `1/(jωL)` terms.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl ComplexMatrix {
    /// Creates a `rows × cols` complex matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ComplexMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(Complex64::ZERO);
    }

    /// Adds `v` to entry `(r, c)` (MNA stamping primitive).
    pub fn add_at(&mut self, r: usize, c: usize, v: Complex64) {
        self[(r, c)] += v;
    }

    /// Solves `A·x = b` by complex LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for shape errors and
    /// [`NumericError::SingularMatrix`] for singular systems.
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>, NumericError> {
        let mut work = self.clone();
        let mut x = b.to_vec();
        work.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` by eliminating directly on `self`, consuming the
    /// matrix contents (they are left in eliminated, unusable state) and
    /// overwriting `x` (`b` on entry) with the solution.
    ///
    /// AC sweeps restamp the matrix at every frequency anyway, so nothing
    /// is lost by destroying it — and the per-frequency clone of the
    /// matrix data that [`ComplexMatrix::solve`] performs is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for shape errors and
    /// [`NumericError::SingularMatrix`] for singular systems.
    pub fn solve_in_place(&mut self, x: &mut [Complex64]) -> Result<(), NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", self.rows, self.cols),
            });
        }
        if x.len() != self.rows {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs of length {}", self.rows),
                got: format!("{}", x.len()),
            });
        }
        let n = self.rows;
        let m = &mut self.data;

        for k in 0..n {
            let mut piv_row = k;
            let mut piv_val = m[k * n + k].abs();
            for r in (k + 1)..n {
                let v = m[r * n + k].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = r;
                }
            }
            // NaN-aware singularity guard, as in the real factorization.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(piv_val > PIVOT_TOL) || !piv_val.is_finite() {
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: piv_val,
                });
            }
            if piv_row != k {
                for c in 0..n {
                    m.swap(k * n + c, piv_row * n + c);
                }
                x.swap(k, piv_row);
            }
            let pivot = m[k * n + k];
            for r in (k + 1)..n {
                let factor = m[r * n + k] / pivot;
                if factor != Complex64::ZERO {
                    for c in k..n {
                        let sub = factor * m[k * n + c];
                        m[r * n + c] -= sub;
                    }
                    let sub = factor * x[k];
                    x[r] -= sub;
                }
            }
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= m[r * n + c] * x[c];
            }
            x[r] = acc / m[r * n + r];
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for ComplexMatrix {
    type Output = Complex64;
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for ComplexMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = DenseMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = m.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn known_2x2_solution() {
        let m = DenseMatrix::from_rows(2, 2, &[3.0, 1.0, 1.0, 2.0]).unwrap();
        let x = m.solve(&[9.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 forces a row swap.
        let m = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = m.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_reported() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        match m.solve(&[1.0, 1.0]) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            m.lu(),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        // Deterministic pseudo-random fill via a simple LCG.
        let n = 24;
        let mut state: u64 = 0x12345678;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += 4.0; // diagonal dominance keeps it well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "residual too large");
        }
    }

    #[test]
    fn factor_reuse_multiple_rhs() {
        let a =
            DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0]).unwrap();
        let f = a.lu().unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, -1.0, 2.0]] {
            let x = f.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            for (l, r) in ax.iter().zip(&b) {
                assert!((l - r).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refactor_reuses_buffers_and_matches_fresh_lu() {
        let a =
            DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0]).unwrap();
        let b =
            DenseMatrix::from_rows(3, 3, &[0.0, 2.0, 1.0, 3.0, 0.5, 0.0, 1.0, 1.0, 5.0]).unwrap();
        let mut f = a.lu().unwrap();
        f.refactor(&b).unwrap();
        let fresh = b.lu().unwrap();
        let rhs = [1.0, -2.0, 0.5];
        let x_reused = f.solve(&rhs).unwrap();
        let x_fresh = fresh.solve(&rhs).unwrap();
        assert_eq!(x_reused, x_fresh);
        // Dimension changes are allowed across refactors.
        let c = DenseMatrix::identity(5);
        f.refactor(&c).unwrap();
        assert_eq!(f.dim(), 5);
        assert_eq!(f.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap()[4], 5.0);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a =
            DenseMatrix::from_rows(3, 3, &[0.0, 2.0, 1.0, 3.0, 0.5, 0.0, 1.0, 1.0, 5.0]).unwrap();
        let f = a.lu().unwrap();
        let rhs = [1.0, -2.0, 0.5];
        let mut x = Vec::new();
        f.solve_into(&rhs, &mut x).unwrap();
        assert_eq!(x, f.solve(&rhs).unwrap());
        // Reusing a dirty, previously-sized buffer gives the same answer.
        let rhs2 = [9.0, 0.0, -4.0];
        f.solve_into(&rhs2, &mut x).unwrap();
        assert_eq!(x, f.solve(&rhs2).unwrap());
        assert!(f.solve_into(&[1.0], &mut x).is_err());
    }

    #[test]
    fn complex_solve_in_place_matches_solve() {
        let mut m = ComplexMatrix::zeros(2, 2);
        m[(0, 0)] = Complex64::new(1.0, 0.5);
        m[(0, 1)] = Complex64::new(0.0, 1.0);
        m[(1, 0)] = Complex64::new(2.0, 0.0);
        m[(1, 1)] = Complex64::new(-1.0, 1.0);
        let b = [Complex64::new(0.0, 3.0), Complex64::new(4.0, -1.0)];
        let expect = m.solve(&b).unwrap();
        let mut x = b.to_vec();
        m.solve_in_place(&mut x).unwrap();
        assert_eq!(x, expect);
    }

    #[test]
    fn determinant_matches_hand_calc() {
        let a = DenseMatrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]).unwrap();
        assert!((a.lu().unwrap().det() - 5.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips determinant sign.
        let b = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!((b.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solve_reactance_divider() {
        // Series R with shunt C at ω: v_out/v_in = Zc / (R + Zc).
        let r = 50.0;
        let c = 1e-12;
        let omega = 2.0 * std::f64::consts::PI * 3e9;
        let yc = Complex64::new(0.0, omega * c);
        let g = Complex64::from_real(1.0 / r);
        // Single unknown node: (G + jωC)·v = G·vin with vin = 1.
        let mut m = ComplexMatrix::zeros(1, 1);
        m[(0, 0)] = g + yc;
        let v = m.solve(&[g]).unwrap();
        let expected = Complex64::ONE / (Complex64::ONE + yc / g);
        assert!((v[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn complex_solve_with_pivoting() {
        let mut m = ComplexMatrix::zeros(2, 2);
        m[(0, 0)] = Complex64::ZERO;
        m[(0, 1)] = Complex64::new(0.0, 1.0);
        m[(1, 0)] = Complex64::new(2.0, 0.0);
        m[(1, 1)] = Complex64::ZERO;
        let x = m
            .solve(&[Complex64::new(0.0, 3.0), Complex64::new(4.0, 0.0)])
            .unwrap();
        assert!((x[0] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - Complex64::new(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_singular_reported() {
        let m = ComplexMatrix::zeros(2, 2);
        assert!(matches!(
            m.solve(&[Complex64::ONE, Complex64::ONE]),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.add_at(0, 0, 1.0);
        m.add_at(0, 0, 2.0);
        assert_eq!(m[(0, 0)], 3.0);
    }
}
