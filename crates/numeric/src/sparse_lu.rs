//! Sparse LU factorization with symbolic reuse for MNA systems.
//!
//! The solver is a left-looking Gilbert–Peierls LU in the style of
//! CSparse's `cs_lu`: each column of the factors is computed by a sparse
//! triangular solve whose nonzero pattern comes from a depth-first reach
//! over the partially built `L`. Two properties matter for a circuit
//! simulator:
//!
//! 1. **Partial pivoting with diagonal preference.** MNA matrices carry
//!    structurally zero diagonals on voltage-source branch rows, so a
//!    no-pivoting factorization would divide by zero. We pick the
//!    largest-magnitude candidate but keep the diagonal whenever it is
//!    at least `DIAG_PREFERENCE` (10⁻³) times the maximum, which preserves
//!    the near-symmetric fill pattern of MNA systems.
//! 2. **Replayable refactorization.** Newton iteration changes matrix
//!    *values* but never the *pattern*, so after one full factorization
//!    ([`SparseLu::factor`]) the per-column topological reach lists and
//!    the pivot order are frozen; [`SparseLu::refactor`] re-runs only the
//!    numeric elimination over those lists — no DFS, no pivot search —
//!    and falls back to a full factorization automatically if a frozen
//!    pivot becomes numerically unacceptable.
//!
//! Column ordering is a static minimum-degree flavoured heuristic
//! (sparsest columns eliminated first, stable tie-break on index),
//! computed once in [`SparseLu::new`] from the pattern alone.
//!
//! The solver is generic over the [`Scalar`] field: `SparseLu<f64>`
//! (the default) factors real DC/transient Jacobians, while
//! `SparseLu<Complex64>` factors the `G + jωC` systems of AC analysis.
//! Pivot magnitudes are compared through [`Scalar::modulus`], which for
//! `f64` is exactly `abs()` — the real instantiation performs the same
//! arithmetic in the same order as the pre-generic solver, keeping
//! DC/transient results bit-identical.

use crate::scalar::{LaneScalar, Scalar};
use crate::sparse::CsrMatrix;
use crate::NumericError;

/// Sentinel for "row not yet pivotal" during factorization.
const NONE: usize = usize::MAX;

/// Smallest pivot magnitude treated as nonzero (matches the dense LU).
const PIVOT_TOL: f64 = 1e-300;

/// Relative threshold for preferring the diagonal over the largest
/// candidate pivot: the diagonal wins whenever `|a_jj| >= 1e-3 * max`.
const DIAG_PREFERENCE: f64 = 1e-3;

/// How [`SparseLu::refactor`] obtained valid factors — the event hook a
/// telemetry layer counts without this crate depending on one. The three
/// outcomes have very different costs (a replay skips the DFS and the
/// pivot search entirely), so a sweep whose replays silently turn into
/// [`PivotFallback`](RefactorOutcome::PivotFallback)s is a performance
/// regression this enum makes observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorOutcome {
    /// The frozen elimination order was replayed numerically (fast path).
    Replayed,
    /// No factorization existed yet, so a full factorization ran.
    FullFactor,
    /// A frozen pivot died numerically; a full re-pivoting
    /// factorization healed the failure.
    PivotFallback,
}

/// Sparse LU factors of a square [`CsrMatrix`], reusable across value
/// changes on a fixed sparsity pattern.
///
/// ```
/// use cml_numeric::sparse::TripletMatrix;
/// use cml_numeric::SparseLu;
///
/// let mut m = TripletMatrix::new(2, 2);
/// m.add(0, 1, 1.0); // zero diagonal: needs pivoting
/// m.add(1, 0, 2.0);
/// let csr = m.to_csr().unwrap();
/// let mut lu = SparseLu::new(&csr).unwrap();
/// lu.factor(&csr).unwrap();
/// let x = lu.solve(&[3.0, 4.0]).unwrap();
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar = f64> {
    n: usize,
    /// CSC column pointers of the input pattern.
    cp: Vec<usize>,
    /// CSC row index per slot.
    cri: Vec<usize>,
    /// CSC slot → CSR slot, used to gather values at factor time.
    cmap: Vec<usize>,
    /// Column ordering: step `k` eliminates original column `q[k]`.
    q: Vec<usize>,
    /// `pinv[row] = k` iff `row` was chosen as pivot at step `k`.
    pinv: Vec<usize>,
    /// Inverse of `pinv`: the original row pivotal at each step.
    pivot_row: Vec<usize>,
    lp: Vec<usize>,
    /// L row indices in pivot space (for the forward solve).
    li: Vec<usize>,
    /// L row indices in original space (for refactor scatter).
    li_orig: Vec<usize>,
    lx: Vec<T>,
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<T>,
    /// Per-column topologically ordered reach lists (original rows).
    reach_ptr: Vec<usize>,
    reach: Vec<usize>,
    // Scratch (kept across calls so the hot path never allocates).
    x: Vec<T>,
    xi: Vec<usize>,
    stack: Vec<usize>,
    pstack: Vec<usize>,
    mark: Vec<u64>,
    mark_gen: u64,
    work: Vec<T>,
    factored: bool,
    /// `(column, |pivot|)` of the most recent frozen pivot that died
    /// during a replay and forced a re-pivoting heal — the forensic
    /// detail behind a [`RefactorOutcome::PivotFallback`]. Sticky until
    /// the next fallback; never consulted by the solve itself.
    last_dead_pivot: Option<(usize, f64)>,
}

/// Iterative depth-first search from `root` over the graph of `L`,
/// appending the reverse postorder to `xi[..top]` from the back.
/// Children of node `i` are the below-diagonal rows of L's column
/// `pinv[i]`; non-pivotal nodes are leaves.
// `pstack` mirrors `stack` push-for-push, so `last`/`last_mut` cannot
// fail while the loop runs; an Option dance here would only obscure the
// lockstep invariant.
#[allow(clippy::too_many_arguments, clippy::expect_used)]
fn dfs(
    root: usize,
    lp: &[usize],
    li_orig: &[usize],
    pinv: &[usize],
    mut top: usize,
    xi: &mut [usize],
    stack: &mut Vec<usize>,
    pstack: &mut Vec<usize>,
    mark: &mut [u64],
    gen: u64,
) -> usize {
    stack.clear();
    pstack.clear();
    stack.push(root);
    pstack.push(0);
    while let Some(&j) = stack.last() {
        let jnew = pinv[j];
        let (start, end) = if jnew == NONE {
            (0, 0)
        } else {
            (lp[jnew], lp[jnew + 1])
        };
        if mark[j] != gen {
            mark[j] = gen;
            *pstack.last_mut().expect("nonempty") = start;
        }
        let mut done = true;
        let mut p = *pstack.last().expect("nonempty");
        while p < end {
            let i = li_orig[p];
            if mark[i] != gen {
                *pstack.last_mut().expect("nonempty") = p;
                stack.push(i);
                pstack.push(0);
                done = false;
                break;
            }
            p += 1;
        }
        if done {
            stack.pop();
            pstack.pop();
            top -= 1;
            xi[top] = j;
        }
    }
    top
}

impl<T: Scalar> SparseLu<T> {
    /// Performs the symbolic setup (CSC pattern, column ordering,
    /// workspace) for `a`. No numeric work happens here; call
    /// [`factor`](Self::factor) before solving.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `a` is not square.
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, NumericError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let nnz = a.nnz();
        let mut colcount = vec![0usize; n];
        for &c in a.col_idx() {
            colcount[c] += 1;
        }
        let mut cp = vec![0usize; n + 1];
        for c in 0..n {
            cp[c + 1] = cp[c] + colcount[c];
        }
        let mut next: Vec<usize> = cp[..n].to_vec();
        let mut cri = vec![0usize; nnz];
        let mut cmap = vec![0usize; nnz];
        let rp = a.row_ptr();
        let ci = a.col_idx();
        for r in 0..n {
            let (lo, hi) = (rp[r], rp[r + 1]);
            for (off, &c) in ci[lo..hi].iter().enumerate() {
                let slot = next[c];
                next[c] += 1;
                cri[slot] = r;
                cmap[slot] = lo + off;
            }
        }
        // Static minimum-degree flavoured ordering: eliminate the
        // sparsest columns first; index tie-break keeps it deterministic.
        let mut q: Vec<usize> = (0..n).collect();
        q.sort_by_key(|&c| (colcount[c], c));
        Ok(SparseLu {
            n,
            cp,
            cri,
            cmap,
            q,
            pinv: vec![NONE; n],
            pivot_row: vec![NONE; n],
            lp: vec![0; n + 1],
            li: Vec::new(),
            li_orig: Vec::new(),
            lx: Vec::new(),
            up: vec![0; n + 1],
            ui: Vec::new(),
            ux: Vec::new(),
            reach_ptr: vec![0; n + 1],
            reach: Vec::new(),
            x: vec![T::ZERO; n],
            xi: vec![0; n],
            stack: Vec::new(),
            pstack: Vec::new(),
            mark: vec![0; n],
            mark_gen: 0,
            work: vec![T::ZERO; n],
            factored: false,
            last_dead_pivot: None,
        })
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros in `L` plus `U` (fill-in diagnostics).
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        self.li_orig.len() + self.ui.len()
    }

    fn check_values(&self, a: &CsrMatrix<T>) -> Result<(), NumericError> {
        if a.rows() != self.n || a.cols() != self.n || a.nnz() != self.cmap.len() {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{0}x{0} matrix with {1} nonzeros", self.n, self.cmap.len()),
                got: format!("{}x{} with {}", a.rows(), a.cols(), a.nnz()),
            });
        }
        Ok(())
    }

    /// Full numeric factorization of `a` (same pattern as at
    /// [`new`](Self::new) time): per-column DFS reach, sparse triangular
    /// solve, and threshold pivot selection. Freezes the pivot order and
    /// reach lists that [`refactor`](Self::refactor) replays.
    ///
    /// # Errors
    ///
    /// - [`NumericError::DimensionMismatch`] if `a`'s shape or nonzero
    ///   count differs from the pattern this solver was built for.
    /// - [`NumericError::SingularMatrix`] if no acceptable pivot exists
    ///   at some elimination step.
    pub fn factor(&mut self, a: &CsrMatrix<T>) -> Result<(), NumericError> {
        self.check_values(a)?;
        let n = self.n;
        self.factored = false;
        self.pinv.fill(NONE);
        self.pivot_row.fill(NONE);
        self.li_orig.clear();
        self.lx.clear();
        self.ui.clear();
        self.ux.clear();
        self.reach.clear();
        // Size the factor storage once, here rather than in `new`: a
        // clone (how cached patterns reach the solver) keeps no spare
        // capacity, and growing from empty by doubling on the first
        // factorization costs a cascade of small allocations.
        let cap = 4 * self.cmap.len();
        self.li_orig.reserve(cap);
        self.lx.reserve(cap);
        self.ui.reserve(cap);
        self.ux.reserve(cap);
        self.reach.reserve(cap);
        self.stack.reserve(n);
        self.pstack.reserve(n);
        self.lp[0] = 0;
        self.up[0] = 0;
        self.reach_ptr[0] = 0;
        let avals = a.vals();
        for k in 0..n {
            let j = self.q[k];
            // Symbolic: reach of A(:, j) over the graph of L.
            let mut top = n;
            self.mark_gen += 1;
            let gen = self.mark_gen;
            for p in self.cp[j]..self.cp[j + 1] {
                let i = self.cri[p];
                if self.mark[i] != gen {
                    top = dfs(
                        i,
                        &self.lp,
                        &self.li_orig,
                        &self.pinv,
                        top,
                        &mut self.xi,
                        &mut self.stack,
                        &mut self.pstack,
                        &mut self.mark,
                        gen,
                    );
                }
            }
            // Numeric: scatter A(:, j), then eliminate in topological
            // order through the already-pivotal rows (x = L \ A(:, j)).
            for p in self.cp[j]..self.cp[j + 1] {
                self.x[self.cri[p]] = avals[self.cmap[p]];
            }
            for t in top..n {
                let i = self.xi[t];
                let kk = self.pinv[i];
                if kk == NONE {
                    continue;
                }
                let xi_val = self.x[i]; // L has a unit diagonal
                for p in self.lp[kk] + 1..self.lp[kk + 1] {
                    self.x[self.li_orig[p]] -= self.lx[p] * xi_val;
                }
            }
            // Pivot search over non-pivotal candidates; pivotal entries
            // become U(:, k), stored in topological order.
            let mut ipiv = NONE;
            let mut amax = -1.0f64;
            for t in top..n {
                let i = self.xi[t];
                let kk = self.pinv[i];
                if kk == NONE {
                    let cand = self.x[i].modulus();
                    if cand > amax {
                        amax = cand;
                        ipiv = i;
                    }
                } else {
                    self.ui.push(kk);
                    self.ux.push(self.x[i]);
                }
            }
            // `!(x > tol)` (rather than `x <= tol`) deliberately treats
            // NaN pivots as singular, as in the dense factorization.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if ipiv == NONE || !(amax > PIVOT_TOL) || !amax.is_finite() {
                for t in top..n {
                    self.x[self.xi[t]] = T::ZERO;
                }
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: amax.max(0.0),
                });
            }
            if self.pinv[j] == NONE && self.x[j].modulus() >= DIAG_PREFERENCE * amax {
                ipiv = j;
            }
            let pivot = self.x[ipiv];
            self.ui.push(k);
            self.ux.push(pivot);
            self.up[k + 1] = self.ui.len();
            self.pinv[ipiv] = k;
            self.pivot_row[k] = ipiv;
            self.li_orig.push(ipiv);
            self.lx.push(T::ONE);
            for t in top..n {
                let i = self.xi[t];
                if self.pinv[i] == NONE {
                    self.li_orig.push(i);
                    self.lx.push(self.x[i] / pivot);
                }
                self.x[i] = T::ZERO; // keep the workspace all-zero invariant
            }
            self.lp[k + 1] = self.li_orig.len();
            self.reach.extend_from_slice(&self.xi[top..n]);
            self.reach_ptr[k + 1] = self.reach.len();
        }
        // Remap L's rows into pivot space for the forward solve; the
        // original-space copy stays for refactor replay.
        self.li.clear();
        self.li.extend(self.li_orig.iter().map(|&i| self.pinv[i]));
        self.factored = true;
        Ok(())
    }

    /// Recomputes the numeric factors of `a` assuming the values changed
    /// but the pattern did not: replays the frozen elimination order with
    /// no DFS and no pivot search. If a frozen pivot has become
    /// numerically unacceptable (or no factorization exists yet), falls
    /// back to a full [`factor`](Self::factor) — so a successful return
    /// always leaves valid factors. The returned [`RefactorOutcome`]
    /// reports which of the three paths produced them.
    ///
    /// # Errors
    ///
    /// Same as [`factor`](Self::factor).
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<RefactorOutcome, NumericError> {
        if !self.factored {
            self.factor(a)?;
            return Ok(RefactorOutcome::FullFactor);
        }
        self.check_values(a)?;
        match self.replay(a) {
            Ok(()) => Ok(RefactorOutcome::Replayed),
            Err(e) => {
                if let NumericError::SingularMatrix { column, pivot } = e {
                    self.last_dead_pivot = Some((column, pivot));
                }
                self.factor(a)?;
                Ok(RefactorOutcome::PivotFallback)
            }
        }
    }

    /// `(column, |pivot|)` of the most recent frozen pivot whose death
    /// forced a [`RefactorOutcome::PivotFallback`] heal; `None` until
    /// the first fallback. Telemetry reads this to attach the numeric
    /// detail to pivot-death events.
    #[must_use]
    pub fn last_dead_pivot(&self) -> Option<(usize, f64)> {
        self.last_dead_pivot
    }

    /// Like [`refactor`](Self::refactor), but **never** falls back to a
    /// full factorization: the frozen pivot order is replayed or the call
    /// fails. Parallel sweep workers use this so every point is solved
    /// with the *same* pivot order regardless of which worker processes
    /// it — a silent re-pivot mid-sweep would make results depend on the
    /// partitioning. On error the frozen structure is left intact (every
    /// value slot is overwritten by the next replay), so the caller may
    /// fall back to a dense solve for the offending point and keep
    /// replaying subsequent ones.
    ///
    /// # Errors
    ///
    /// - [`NumericError::DimensionMismatch`] if `a`'s shape or nonzero
    ///   count differs from the frozen pattern, or no factorization
    ///   exists yet.
    /// - [`NumericError::SingularMatrix`] if a frozen pivot has become
    ///   numerically unacceptable for `a`'s values.
    pub fn refactor_frozen(&mut self, a: &CsrMatrix<T>) -> Result<(), NumericError> {
        if !self.factored {
            return Err(NumericError::DimensionMismatch {
                expected: "a frozen factorization (call factor first)".into(),
                got: "unfactored SparseLu".into(),
            });
        }
        self.check_values(a)?;
        self.replay(a)
    }

    fn replay(&mut self, a: &CsrMatrix<T>) -> Result<(), NumericError> {
        let avals = a.vals();
        for k in 0..self.n {
            let j = self.q[k];
            for p in self.cp[j]..self.cp[j + 1] {
                self.x[self.cri[p]] = avals[self.cmap[p]];
            }
            let mut ucur = self.up[k];
            for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                let i = self.reach[t];
                let kk = self.pinv[i];
                if kk < k {
                    let xi_val = self.x[i];
                    self.ux[ucur] = xi_val;
                    ucur += 1;
                    for p in self.lp[kk] + 1..self.lp[kk + 1] {
                        self.x[self.li_orig[p]] -= self.lx[p] * xi_val;
                    }
                }
            }
            debug_assert_eq!(ucur, self.up[k + 1] - 1);
            let ipiv = self.pivot_row[k];
            let pivot = self.x[ipiv];
            // NaN-aware singularity guard, as in the full factorization.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !pivot.finite() || !(pivot.modulus() > PIVOT_TOL) {
                // Restore the all-zero workspace invariant before the
                // caller falls back to a full factorization.
                for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                    self.x[self.reach[t]] = T::ZERO;
                }
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: pivot.modulus(),
                });
            }
            self.ux[ucur] = pivot;
            let mut lcur = self.lp[k] + 1; // slot lp[k] is the unit diagonal
            for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                let i = self.reach[t];
                if self.pinv[i] > k {
                    debug_assert_eq!(self.li_orig[lcur], i);
                    self.lx[lcur] = self.x[i] / pivot;
                    lcur += 1;
                }
                self.x[i] = T::ZERO;
            }
            debug_assert_eq!(lcur, self.lp[k + 1]);
        }
        Ok(())
    }

    /// Solves `A·x = b` into `x_out` using the current factors, without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`factor`](Self::factor) /
    /// [`refactor`](Self::refactor) (API misuse, not a data error).
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b` or `x_out` has the
    /// wrong length.
    pub fn solve_into(&mut self, b: &[T], x_out: &mut [T]) -> Result<(), NumericError> {
        assert!(self.factored, "SparseLu::solve_into before factor");
        let n = self.n;
        if b.len() != n || x_out.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                got: format!("b of {}, x of {}", b.len(), x_out.len()),
            });
        }
        let w = &mut self.work;
        for (i, &bi) in b.iter().enumerate() {
            w[self.pinv[i]] = bi;
        }
        // Forward solve: L is unit lower triangular in pivot space.
        for j in 0..n {
            let xj = w[j];
            if xj != T::ZERO {
                for p in self.lp[j] + 1..self.lp[j + 1] {
                    w[self.li[p]] -= self.lx[p] * xj;
                }
            }
        }
        // Backward solve: each U column stores its diagonal last.
        for j in (0..n).rev() {
            let xj = w[j] / self.ux[self.up[j + 1] - 1];
            w[j] = xj;
            if xj != T::ZERO {
                for p in self.up[j]..self.up[j + 1] - 1 {
                    w[self.ui[p]] -= self.ux[p] * xj;
                }
            }
        }
        for (k, &col) in self.q.iter().enumerate() {
            x_out[col] = w[k];
        }
        Ok(())
    }

    /// Solves `A·x = b`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful factorization; see
    /// [`solve_into`](Self::solve_into).
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&mut self, b: &[T]) -> Result<Vec<T>, NumericError> {
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

impl<T: LaneScalar> SparseLu<T> {
    /// Masked frozen replay for lane-packed scalars: like
    /// [`refactor_frozen`](Self::refactor_frozen), but a pivot that dies
    /// in *some* lanes kills only those lanes instead of the whole
    /// replay. A dying lane's pivot is overwritten with `1.0` so the
    /// lockstep division stays benign (lane-wise arithmetic guarantees
    /// the garbage it produces never leaks into live lanes), and the
    /// lane is reported in the returned mask; the caller discards that
    /// lane's solution and re-solves it scalar — the batch solver's
    /// per-lane fallback ladder.
    ///
    /// `live` selects the lanes whose numerical health matters (bit `i`
    /// = lane `i`); lanes outside `live` are replayed with healing but
    /// never reported. Returns the subset of `live` whose frozen pivots
    /// died during this replay (`0` = every requested lane factored
    /// cleanly). From the moment a lane dies, *all* of its subsequent
    /// columns are garbage — its earlier columns are not a usable
    /// partial factorization.
    ///
    /// # Errors
    ///
    /// - [`NumericError::DimensionMismatch`] as in
    ///   [`refactor_frozen`](Self::refactor_frozen).
    /// - [`NumericError::SingularMatrix`] only when **every** lane in
    ///   `live` has died; the workspace invariant is restored and the
    ///   frozen structure stays intact, as in the unmasked replay.
    pub fn refactor_frozen_masked(
        &mut self,
        a: &CsrMatrix<T>,
        live: u64,
    ) -> Result<u64, NumericError> {
        if !self.factored {
            return Err(NumericError::DimensionMismatch {
                expected: "a frozen factorization (call factor first)".into(),
                got: "unfactored SparseLu".into(),
            });
        }
        self.check_values(a)?;
        let live = live & T::LANE_MASK;
        // Lanes outside the live set are healed from the start: their
        // values may be stale garbage and must never trip pivot guards.
        let mut dead: u64 = !live & T::LANE_MASK;
        let avals = a.vals();
        for k in 0..self.n {
            let j = self.q[k];
            for p in self.cp[j]..self.cp[j + 1] {
                self.x[self.cri[p]] = avals[self.cmap[p]];
            }
            let mut ucur = self.up[k];
            for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                let i = self.reach[t];
                let kk = self.pinv[i];
                if kk < k {
                    let xi_val = self.x[i];
                    self.ux[ucur] = xi_val;
                    ucur += 1;
                    for p in self.lp[kk] + 1..self.lp[kk + 1] {
                        self.x[self.li_orig[p]] -= self.lx[p] * xi_val;
                    }
                }
            }
            debug_assert_eq!(ucur, self.up[k + 1] - 1);
            let ipiv = self.pivot_row[k];
            let mut pivot = self.x[ipiv];
            let newly_dead = pivot.bad_mask(PIVOT_TOL) & !dead;
            dead |= newly_dead;
            if live & !dead == 0 {
                // Every requested lane has died: restore the all-zero
                // workspace invariant and report singularity, exactly
                // like the unmasked replay.
                for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                    self.x[self.reach[t]] = T::ZERO;
                }
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: pivot.modulus(),
                });
            }
            if dead != 0 {
                pivot = pivot.heal(dead, 1.0);
            }
            self.ux[ucur] = pivot;
            let mut lcur = self.lp[k] + 1; // slot lp[k] is the unit diagonal
            for t in self.reach_ptr[k]..self.reach_ptr[k + 1] {
                let i = self.reach[t];
                if self.pinv[i] > k {
                    debug_assert_eq!(self.li_orig[lcur], i);
                    self.lx[lcur] = self.x[i] / pivot;
                    lcur += 1;
                }
                self.x[i] = T::ZERO;
            }
            debug_assert_eq!(lcur, self.lp[k + 1]);
        }
        Ok(dead & live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;
    use crate::{Complex64, ComplexMatrix, DenseMatrix};

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// Random diagonally dominant system with an MNA-flavoured band +
    /// arrow pattern.
    fn random_system(n: usize, seed: u64) -> TripletMatrix {
        let mut st = seed | 1;
        let mut m = TripletMatrix::new(n, n);
        for r in 0..n {
            m.add(r, r, n as f64 + lcg(&mut st).abs());
            for off in 1..=3usize {
                if r + off < n {
                    m.add(r, r + off, lcg(&mut st));
                    m.add(r + off, r, lcg(&mut st));
                }
            }
            m.add(r, n - 1, lcg(&mut st) * 0.5);
            m.add(n - 1, r, lcg(&mut st) * 0.5);
        }
        m
    }

    fn solve_both(m: &TripletMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        let xs = lu.solve(b).unwrap();
        let xd = m.to_dense().unwrap().solve(b).unwrap();
        (xs, xd)
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // The 2x2 MNA of an ideal voltage source: [[0, 1], [1, 0]].
        let mut m = TripletMatrix::new(2, 2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let (xs, xd) = solve_both(&m, &[2.5, -1.0]);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-14, "{xs:?} vs {xd:?}");
        }
    }

    #[test]
    fn vsource_like_mna_matches_dense() {
        // 1 V source + two resistors: node equations with a branch row
        // whose diagonal is structurally zero.
        let g1 = 1.0 / 150.0;
        let g2 = 1.0 / 330.0;
        let mut m = TripletMatrix::new(3, 3);
        m.add(0, 0, g1);
        m.add(0, 1, -g1);
        m.add(1, 0, -g1);
        m.add(1, 1, g1 + g2);
        m.add(0, 2, 1.0);
        m.add(2, 0, 1.0);
        let (xs, xd) = solve_both(&m, &[0.0, 0.0, 1.0]);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12, "{xs:?} vs {xd:?}");
        }
    }

    #[test]
    fn random_systems_match_dense() {
        for seed in [1u64, 7, 42, 1234, 98765] {
            let n = 8 + (seed as usize % 40);
            let m = random_system(n, seed);
            let mut st = seed.wrapping_add(99) | 1;
            let b: Vec<f64> = (0..n).map(|_| lcg(&mut st)).collect();
            let (xs, xd) = solve_both(&m, &b);
            for (a, d) in xs.iter().zip(&xd) {
                assert!((a - d).abs() < 1e-9, "seed {seed}: {a} vs {d}");
            }
        }
    }

    #[test]
    fn refactor_replays_new_values() {
        let n = 24;
        let m = random_system(n, 3);
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        // Same pattern, different values.
        let mut st = 555u64;
        let mut m2 = TripletMatrix::new(n, n);
        for (r, c, _) in csr.iter() {
            let v = if r == c {
                n as f64 + lcg(&mut st).abs()
            } else {
                lcg(&mut st)
            };
            m2.add(r, c, v);
        }
        let csr2 = m2.to_csr().unwrap();
        assert_eq!(csr2.nnz(), csr.nnz());
        assert_eq!(lu.refactor(&csr2).unwrap(), RefactorOutcome::Replayed);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = m2.to_dense().unwrap().solve(&b).unwrap();
        for (a, d) in xs.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-9, "{a} vs {d}");
        }
    }

    #[test]
    fn refactor_falls_back_when_pivot_dies() {
        // First factor a well-pivoted matrix, then hand refactor values
        // that zero out the frozen pivot; the internal fallback must
        // still produce correct factors.
        let mut m = TripletMatrix::new(2, 2);
        m.add(0, 0, 4.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 4.0);
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        let mut m2 = TripletMatrix::new(2, 2);
        m2.add(0, 0, 0.0);
        m2.add(0, 1, 1.0);
        m2.add(1, 0, 1.0);
        m2.add(1, 1, 0.0);
        // Keep explicit zeros in the pattern by building it directly.
        let mut csr2 = CsrMatrix::from_pattern(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        for (r, c, v) in m2.to_csr().unwrap().iter() {
            let slot = csr2.find(r, c).unwrap();
            csr2.vals_mut()[slot] = v;
        }
        let mut lu2 = SparseLu::new(&csr2).unwrap();
        // Same pattern check is on nnz, so refactor the 4-slot pattern.
        let mut dense_vals =
            CsrMatrix::from_pattern(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        dense_vals.vals_mut().copy_from_slice(&[4.0, 1.0, 1.0, 4.0]);
        lu2.factor(&dense_vals).unwrap();
        assert_eq!(lu2.refactor(&csr2).unwrap(), RefactorOutcome::PivotFallback);
        let x = lu2.solve(&[1.0, 2.0]).unwrap();
        assert!(
            (x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12,
            "{x:?}"
        );
        drop(lu);
    }

    #[test]
    fn singular_matrix_reported() {
        let mut m = TripletMatrix::new(2, 2);
        m.add(0, 0, 1.0);
        m.add(1, 0, 1.0);
        // Column 1 is structurally empty ⇒ singular.
        let csr = CsrMatrix::<f64>::from_pattern(2, 2, &[(0, 0), (1, 0)]).unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        let err = lu.factor(&csr).unwrap_err();
        assert!(matches!(err, NumericError::SingularMatrix { .. }), "{err}");
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let csr = CsrMatrix::<f64>::from_pattern(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let other =
            CsrMatrix::<f64>::from_pattern(3, 3, &[(0, 0), (1, 1), (2, 2), (0, 2)]).unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        assert!(matches!(
            lu.factor(&other),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn residual_small_on_larger_system() {
        let n = 60;
        let m = random_system(n, 2024);
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        let mut st = 17u64;
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut st)).collect();
        let x = lu.solve(&b).unwrap();
        let ax = csr.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9);
        }
        assert!(lu.lu_nnz() >= csr.nnz(), "factors can only gain fill");
        assert_eq!(lu.dim(), n);
    }

    #[test]
    fn dense_pattern_matches_dense_lu() {
        // Fully dense pattern: sparse LU degenerates gracefully.
        let n = 12;
        let mut st = 9u64;
        let mut m = TripletMatrix::new(n, n);
        let mut d = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let v = lcg(&mut st) + if r == c { n as f64 } else { 0.0 };
                m.add(r, c, v);
                d[(r, c)] = v;
            }
        }
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = d.solve(&b).unwrap();
        for (a, dd) in xs.iter().zip(&xd) {
            assert!((a - dd).abs() < 1e-10);
        }
    }

    /// Builds the complex `G + jωC`-shaped system used by the complex
    /// instantiation tests: banded, diagonally dominant, with nonzero
    /// imaginary parts everywhere.
    fn complex_system(n: usize, seed: u64) -> CsrMatrix<Complex64> {
        let mut st = seed | 1;
        let mut positions = Vec::new();
        for r in 0..n {
            positions.push((r, r));
            for off in 1..=2usize {
                if r + off < n {
                    positions.push((r, r + off));
                    positions.push((r + off, r));
                }
            }
        }
        let mut m = CsrMatrix::<Complex64>::from_pattern(n, n, &positions).unwrap();
        for slot in 0..m.nnz() {
            let re = lcg(&mut st);
            let im = lcg(&mut st);
            m.vals_mut()[slot] = Complex64::new(re, im);
        }
        for r in 0..n {
            let slot = m.find(r, r).unwrap();
            m.vals_mut()[slot] += Complex64::new(n as f64, n as f64 * 0.5);
        }
        m
    }

    #[test]
    fn complex_factor_matches_dense_complex() {
        for seed in [3u64, 11, 77] {
            let n = 10 + (seed as usize % 20);
            let csr = complex_system(n, seed);
            let mut lu = SparseLu::new(&csr).unwrap();
            lu.factor(&csr).unwrap();
            let mut st = seed.wrapping_add(5) | 1;
            let b: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(lcg(&mut st), lcg(&mut st)))
                .collect();
            let xs = lu.solve(&b).unwrap();
            let mut dense = ComplexMatrix::zeros(n, n);
            for (r, c, v) in csr.iter() {
                dense.add_at(r, c, v);
            }
            let xd = dense.solve(&b).unwrap();
            for (a, d) in xs.iter().zip(&xd) {
                assert!((*a - *d).abs() < 1e-9, "seed {seed}: {a:?} vs {d:?}");
            }
        }
    }

    #[test]
    fn complex_refactor_frozen_replays_new_values() {
        let n = 16;
        let csr = complex_system(n, 21);
        let mut lu = SparseLu::new(&csr).unwrap();
        lu.factor(&csr).unwrap();
        // Same pattern, different values (a new frequency point).
        let mut csr2 = csr.clone();
        for v in csr2.vals_mut() {
            *v *= Complex64::new(0.0, 2.0); // rotate and scale
        }
        for r in 0..n {
            let slot = csr2.find(r, r).unwrap();
            csr2.vals_mut()[slot] += Complex64::new(n as f64, 0.0);
        }
        lu.refactor_frozen(&csr2).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let xs = lu.solve(&b).unwrap();
        let mut dense = ComplexMatrix::zeros(n, n);
        for (r, c, v) in csr2.iter() {
            dense.add_at(r, c, v);
        }
        let xd = dense.solve(&b).unwrap();
        for (a, d) in xs.iter().zip(&xd) {
            assert!((*a - *d).abs() < 1e-9, "{a:?} vs {d:?}");
        }
    }

    #[test]
    fn refactor_frozen_errors_without_fallback() {
        // Values that kill the frozen pivot must surface as an error, not
        // a silent re-pivot — and the structure must survive for the next
        // replay.
        let mut m = TripletMatrix::new(2, 2);
        m.add(0, 0, 4.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 4.0);
        let csr = m.to_csr().unwrap();
        let mut lu = SparseLu::new(&csr).unwrap();

        // Not factored yet: frozen refactor is an API error.
        assert!(lu.refactor_frozen(&csr).is_err());

        lu.factor(&csr).unwrap();
        let mut dead = csr.clone();
        dead.vals_mut().copy_from_slice(&[0.0, 1.0, 1.0, 0.0]);
        assert!(matches!(
            lu.refactor_frozen(&dead),
            Err(NumericError::SingularMatrix { .. })
        ));
        // Replay after the failure still works on good values.
        let mut good = csr.clone();
        good.vals_mut().copy_from_slice(&[2.0, 1.0, 1.0, 2.0]);
        lu.refactor_frozen(&good).unwrap();
        let x = lu.solve(&[3.0, 3.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    use crate::F64x4;

    /// Packs four same-pattern scalar systems into one `F64x4` matrix.
    /// `random_system` writes the same position set for every seed, so
    /// only values differ between the lanes.
    fn pack_lanes(lanes: &[CsrMatrix; 4]) -> CsrMatrix<F64x4> {
        let n = lanes[0].rows();
        let mut positions = Vec::new();
        for r in 0..n {
            for p in lanes[0].row_ptr()[r]..lanes[0].row_ptr()[r + 1] {
                positions.push((r, lanes[0].col_idx()[p]));
            }
        }
        let mut packed = CsrMatrix::<F64x4>::from_pattern(n, n, &positions).unwrap();
        for slot in 0..lanes[0].vals().len() {
            packed.vals_mut()[slot] = F64x4::new([
                lanes[0].vals()[slot],
                lanes[1].vals()[slot],
                lanes[2].vals()[slot],
                lanes[3].vals()[slot],
            ]);
        }
        packed
    }

    fn lane_csrs(n: usize, base_seed: u64) -> [CsrMatrix; 4] {
        std::array::from_fn(|lane| random_system(n, base_seed + lane as u64).to_csr().unwrap())
    }

    #[test]
    fn masked_replay_matches_per_lane_scalar_solves() {
        let n = 14;
        let first = lane_csrs(n, 41);
        let packed = pack_lanes(&first);
        let mut lu = SparseLu::new(&packed).unwrap();
        lu.factor(&packed).unwrap();
        // New values on the frozen pattern: the batched Newton step.
        let second = lane_csrs(n, 4141);
        let packed2 = pack_lanes(&second);
        let dead = lu.refactor_frozen_masked(&packed2, 0b1111).unwrap();
        assert_eq!(dead, 0);
        let b: Vec<F64x4> = (0..n)
            .map(|i| F64x4::from_fn(|lane| (i * 7 + lane + 1) as f64 / 3.0))
            .collect();
        let xs = lu.solve(&b).unwrap();
        for (lane, second_lane) in second.iter().enumerate() {
            let mut slu = SparseLu::new(second_lane).unwrap();
            slu.factor(second_lane).unwrap();
            let bl: Vec<f64> = b.iter().map(|v| v.lane(lane)).collect();
            let expect = slu.solve(&bl).unwrap();
            for i in 0..n {
                assert!(
                    (xs[i].lane(lane) - expect[i]).abs() < 1e-9,
                    "lane {lane} row {i}"
                );
            }
        }
    }

    /// A frozen pivot dying in one lane quarantines that lane only; the
    /// surviving lanes replay to full accuracy and the structure stays
    /// intact for the next replay.
    #[test]
    fn masked_replay_quarantines_dead_lane() {
        let n = 10;
        let first = lane_csrs(n, 7);
        let packed = pack_lanes(&first);
        let mut lu = SparseLu::new(&packed).unwrap();
        lu.factor(&packed).unwrap();
        let second = lane_csrs(n, 7007);
        let mut packed2 = pack_lanes(&second);
        for v in packed2.vals_mut() {
            v.set_lane(1, 0.0); // lane 1: the zero matrix, dead pivot at k = 0
        }
        let dead = lu.refactor_frozen_masked(&packed2, 0b1111).unwrap();
        assert_eq!(dead, 0b0010);
        let b: Vec<F64x4> = (0..n).map(|i| F64x4::splat(1.0 + i as f64)).collect();
        let xs = lu.solve(&b).unwrap();
        for lane in [0usize, 2, 3] {
            let mut slu = SparseLu::new(&second[lane]).unwrap();
            slu.factor(&second[lane]).unwrap();
            let bl: Vec<f64> = b.iter().map(|v| v.lane(lane)).collect();
            let expect = slu.solve(&bl).unwrap();
            for i in 0..n {
                assert!(
                    (xs[i].lane(lane) - expect[i]).abs() < 1e-9,
                    "lane {lane} row {i}"
                );
            }
        }
        // The frozen structure survived the casualty: a healthy replay
        // with all lanes live still works.
        let third = lane_csrs(n, 9009);
        let packed3 = pack_lanes(&third);
        assert_eq!(lu.refactor_frozen_masked(&packed3, 0b1111).unwrap(), 0);
    }

    #[test]
    fn masked_replay_all_dead_is_singular() {
        let n = 6;
        let first = lane_csrs(n, 13);
        let packed = pack_lanes(&first);
        let mut lu = SparseLu::new(&packed).unwrap();
        lu.factor(&packed).unwrap();
        let mut zeroed = packed.clone();
        for v in zeroed.vals_mut() {
            *v = F64x4::splat(0.0);
        }
        assert!(matches!(
            lu.refactor_frozen_masked(&zeroed, 0b1111),
            Err(NumericError::SingularMatrix { .. })
        ));
        // Unfactored workspace is an API error, as in the unmasked path.
        let mut fresh = SparseLu::<F64x4>::new(&packed).unwrap();
        assert!(fresh.refactor_frozen_masked(&packed, 0b1111).is_err());
    }
}
