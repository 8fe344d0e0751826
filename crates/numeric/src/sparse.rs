//! Sparse matrix support for larger MNA systems.
//!
//! The transistor-level netlists in this project stay small enough for the
//! dense solver, but Monte-Carlo sweeps and multi-lane link studies assemble
//! systems where a sparse representation pays off. The design is the classic
//! two-phase one used by circuit simulators: accumulate duplicate-tolerant
//! [`Triplet`] entries during stamping, then compress once to CSR for
//! numerical work (or hand off to the dense solver below a size threshold).

use crate::scalar::Scalar;
use crate::{DenseMatrix, NumericError};

/// A single `(row, col, value)` contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value to accumulate at `(row, col)`.
    pub val: f64,
}

/// A sparse matrix builder that accepts repeated stamps at the same
/// position, matching how MNA element stamping naturally works.
///
/// ```
/// use cml_numeric::sparse::TripletMatrix;
///
/// let mut m = TripletMatrix::new(2, 2);
/// m.add(0, 0, 1.0);
/// m.add(0, 0, 2.0); // duplicates accumulate
/// let csr = m.to_csr().unwrap();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl TripletMatrix {
    /// Creates an empty builder of the given shape.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
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

    /// Number of raw (pre-compression) entries.
    #[must_use]
    pub fn nnz_raw(&self) -> usize {
        self.entries.len()
    }

    /// Stamps `val` at `(row, col)`. Duplicates are accumulated at
    /// compression time.
    ///
    /// Out-of-bounds positions are accepted here and rejected with
    /// [`NumericError::IndexOutOfBounds`] when the builder is compressed
    /// ([`to_csr`](Self::to_csr)) or materialized
    /// ([`to_dense`](Self::to_dense)), so a hot stamping loop carries no
    /// per-entry branch that can panic.
    pub fn add(&mut self, row: usize, col: usize, val: f64) {
        self.entries.push(Triplet { row, col, val });
    }

    /// Discards accumulated entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Returns the first out-of-bounds entry, if any.
    fn check_bounds(&self) -> Result<(), NumericError> {
        for t in &self.entries {
            if t.row >= self.rows || t.col >= self.cols {
                return Err(NumericError::IndexOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        Ok(())
    }

    /// Compresses to CSR, summing duplicates and dropping entries whose
    /// accumulated value is exactly zero.
    ///
    /// # Errors
    ///
    /// [`NumericError::IndexOutOfBounds`] if any stamped entry lies
    /// outside the matrix shape.
    pub fn to_csr(&self) -> Result<CsrMatrix, NumericError> {
        self.check_bounds()?;
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|a| (a.row, a.col));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut vals: Vec<f64> = Vec::with_capacity(sorted.len());

        let mut it = sorted.into_iter().peekable();
        while let Some(first) = it.next() {
            let mut acc = first.val;
            while let Some(nxt) = it.peek() {
                if nxt.row == first.row && nxt.col == first.col {
                    acc += nxt.val;
                    it.next();
                } else {
                    break;
                }
            }
            if acc != 0.0 {
                row_ptr[first.row + 1] += 1;
                col_idx.push(first.col);
                vals.push(acc);
            }
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Materializes as a dense matrix (used below the sparse threshold).
    ///
    /// # Errors
    ///
    /// [`NumericError::IndexOutOfBounds`] if any stamped entry lies
    /// outside the matrix shape.
    pub fn to_dense(&self) -> Result<DenseMatrix, NumericError> {
        self.check_bounds()?;
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for t in &self.entries {
            m[(t.row, t.col)] += t.val;
        }
        Ok(m)
    }
}

impl Extend<Triplet> for TripletMatrix {
    fn extend<I: IntoIterator<Item = Triplet>>(&mut self, iter: I) {
        for t in iter {
            self.add(t.row, t.col, t.val);
        }
    }
}

/// Compressed-sparse-row matrix produced by [`TripletMatrix::to_csr`]
/// (real values) or built directly from a pattern over any LU-capable
/// scalar (`T = f64` for DC/transient Jacobians, `T = Complex64` for the
/// AC `G + jωC` systems).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix with the given nonzero *pattern* and all values
    /// zero. Duplicate positions collapse to a single slot.
    ///
    /// This is how the circuit engine fixes a Jacobian's pattern: it
    /// records every position an element ever writes, builds the pattern
    /// once, and then re-stamps values into the reserved slots (found via
    /// [`find`](Self::find), or bound once per device) on every Newton
    /// iteration or AC sweep.
    ///
    /// # Errors
    ///
    /// [`NumericError::IndexOutOfBounds`] if any position lies outside
    /// `rows × cols`.
    pub fn from_pattern(
        rows: usize,
        cols: usize,
        positions: &[(usize, usize)],
    ) -> Result<Self, NumericError> {
        for &(r, c) in positions {
            if r >= rows || c >= cols {
                return Err(NumericError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        let mut sorted: Vec<(usize, usize)> = positions.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        for &(r, c) in &sorted {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = col_idx.len();
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals: vec![T::ZERO; nnz],
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

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Value at `(row, col)`; zero if not stored.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> T {
        match self.find(row, col) {
            Some(slot) => self.vals[slot],
            None => T::ZERO,
        }
    }

    /// Flat index of the stored slot at `(row, col)`, if present.
    ///
    /// The returned index addresses [`vals`](Self::vals) /
    /// [`vals_mut`](Self::vals_mut) and stays valid for the lifetime of
    /// the pattern (values may change, the structure may not).
    #[must_use]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.rows {
            return None;
        }
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .binary_search(&col)
            .ok()
            .map(|i| lo + i)
    }

    /// Row-pointer array (`rows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of each stored entry, row-major, sorted within rows.
    #[must_use]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, parallel to [`col_idx`](Self::col_idx).
    #[must_use]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Mutable stored values; the sparsity pattern itself is immutable.
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Resets every stored value to zero, keeping the pattern.
    pub fn clear_vals(&mut self) {
        self.vals.fill(T::ZERO);
    }

    /// A matrix over another scalar on this one's pattern, every value
    /// zero: slot `i` of the result is the position of slot `i` here, so
    /// value-slot indices transfer directly (a lane-packed mirror of a
    /// scalar system).
    #[must_use]
    pub fn repacked<U: Scalar>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: vec![U::ZERO; self.vals.len()],
        }
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                got: format!("{}", x.len()),
            });
        }
        let mut y = vec![T::ZERO; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[k] * x[self.col_idx[k]];
            }
            *out = acc;
        }
        Ok(y)
    }

    /// Iterates over stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.row_ptr[r]..self.row_ptr[r + 1]).map(move |k| (r, self.col_idx[k], self.vals[k]))
        })
    }
}

impl CsrMatrix<f64> {
    /// Solves `A·x = b`.
    ///
    /// For the problem sizes in this project a dense factorization of the
    /// compressed matrix is both simpler and faster than symbolic sparse LU;
    /// the CSR form still pays for itself in assembly and mat-vec products.
    ///
    /// # Errors
    ///
    /// Propagates [`NumericError::SingularMatrix`] /
    /// [`NumericError::DimensionMismatch`] from the dense solver.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                dense[(r, self.col_idx[k])] = self.vals[k];
            }
        }
        dense.solve(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let mut m = TripletMatrix::new(3, 3);
        m.add(1, 2, 1.5);
        m.add(1, 2, 2.5);
        m.add(0, 0, 1.0);
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.get(1, 2), 4.0);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(2, 2), 0.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn explicit_zero_sum_dropped() {
        let mut m = TripletMatrix::new(2, 2);
        m.add(0, 1, 3.0);
        m.add(0, 1, -3.0);
        let csr = m.to_csr().unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn csr_matvec_matches_dense() {
        let mut m = TripletMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (2, 0, 1.0),
            (2, 2, 4.0),
        ] {
            m.add(r, c, v);
        }
        let x = [1.0, 2.0, 3.0];
        let dense = m.to_dense().unwrap().mul_vec(&x).unwrap();
        let sparse = m.to_csr().unwrap().mul_vec(&x).unwrap();
        assert_eq!(dense, sparse);
    }

    #[test]
    fn csr_solve_matches_dense_solve() {
        let mut m = TripletMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ] {
            m.add(r, c, v);
        }
        let b = [1.0, 2.0, 3.0];
        let xd = m.to_dense().unwrap().solve(&b).unwrap();
        let xs = m.to_csr().unwrap().solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_bounds_stamp_rejected() {
        let mut m = TripletMatrix::new(2, 2);
        m.add(2, 0, 1.0);
        let err = m.to_csr().unwrap_err();
        assert_eq!(
            err,
            NumericError::IndexOutOfBounds {
                row: 2,
                col: 0,
                rows: 2,
                cols: 2,
            }
        );
        assert!(m.to_dense().is_err());
    }

    #[test]
    fn from_pattern_dedups_and_finds_slots() {
        let csr = CsrMatrix::from_pattern(3, 3, &[(2, 1), (0, 0), (2, 1), (1, 2), (2, 2)]).unwrap();
        assert_eq!(csr.nnz(), 4);
        assert!(csr.vals().iter().all(|&v| v == 0.0));
        let slot = csr.find(2, 1).expect("stored");
        assert_eq!(csr.find(0, 1), None);
        let mut csr = csr;
        csr.vals_mut()[slot] = 7.5;
        assert_eq!(csr.get(2, 1), 7.5);
        csr.clear_vals();
        assert_eq!(csr.get(2, 1), 0.0);
        assert_eq!(csr.nnz(), 4, "clearing values keeps the pattern");
    }

    #[test]
    fn from_pattern_rejects_out_of_bounds() {
        let err = CsrMatrix::<f64>::from_pattern(2, 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, NumericError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn iter_visits_all_nonzeros_in_row_order() {
        let mut m = TripletMatrix::new(2, 3);
        m.add(1, 0, 5.0);
        m.add(0, 2, 7.0);
        let csr = m.to_csr().unwrap();
        let got: Vec<_> = csr.iter().collect();
        assert_eq!(got, vec![(0, 2, 7.0), (1, 0, 5.0)]);
    }

    #[test]
    fn extend_accepts_triplets() {
        let mut m = TripletMatrix::new(2, 2);
        m.extend([
            Triplet {
                row: 0,
                col: 0,
                val: 1.0,
            },
            Triplet {
                row: 1,
                col: 1,
                val: 2.0,
            },
        ]);
        assert_eq!(m.nnz_raw(), 2);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut m = TripletMatrix::new(4, 4);
        m.add(0, 0, 1.0);
        m.clear();
        assert_eq!(m.nnz_raw(), 0);
        assert_eq!(m.rows(), 4);
    }
}
