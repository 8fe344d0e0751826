//! Analysis drivers: operating point, DC sweep, AC, transient.
//!
//! All analyses share the internal `System` assembler, which owns the MNA
//! bookkeeping: branch-unknown allocation, per-element state arena layout,
//! Jacobian assembly and the damped Newton loop.

pub mod ac;
pub mod batch;
pub mod cache;
pub mod dc;
pub mod op;
pub mod sink;
pub mod tran;

use crate::circuit::{Circuit, NodeId};
use crate::element::{AcStamper, Element, Integration, StampCtx, StampMode, StampSlots, Stamper};
use crate::SpiceError;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{Complex64, ComplexMatrix, DenseMatrix, LuFactors, RefactorOutcome, SparseLu};
use cml_telemetry::{EventKind, Phase, Telemetry};
use std::collections::HashMap;

/// Newton iteration limits and tolerances (SPICE-like defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations per solve.
    pub max_iter: usize,
    /// Absolute voltage tolerance, volts.
    pub vntol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Absolute branch-current tolerance, amps.
    pub abstol: f64,
    /// Per-iteration voltage step clamp, volts (Newton damping).
    pub max_step: f64,
    /// Conductance added from every node to ground for matrix conditioning.
    pub gmin: f64,
    /// MNA dimension at and above which solves use the sparse LU path
    /// instead of dense — real `SparseLu<f64>` for DC/transient, complex
    /// `SparseLu<Complex64>` on the `G + jωC` systems of AC sweeps.
    /// Defaults to 1: sparse at every size, since sparse refactorization
    /// beats dense LU even on the paper's 12-unknown buffer. Set to
    /// `usize::MAX` to force the dense path (the reference the
    /// equivalence tests compare against). The batched solver
    /// ([`batch::op_batch`]) is sparse regardless; its scalar fallback
    /// ladder honours this field.
    pub sparse_threshold: usize,
    /// Start Newton from the interval-analysis midpoint vector instead of
    /// all-zeros (see [`crate::analyze::dc_bounds`]). Opt-in; also gated by
    /// the `CML_ANALYZE` environment variable.
    pub warm_start_from_analysis: bool,
    /// Use the content-addressed topology artifact cache (`cml-cache`)
    /// for stamp patterns, symbolic LU analyses, frozen AC pivot
    /// orders, lint verdicts and warm-start vectors. Defaults on; also
    /// gated process-wide by the `CML_CACHE` environment variable (off
    /// there wins over on here). The cache is advisory — disabling it
    /// changes cost, never results.
    pub cache: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 150,
            vntol: 1e-6,
            reltol: 1e-3,
            abstol: 1e-9,
            max_step: 0.5,
            gmin: 1e-12,
            sparse_threshold: 1,
            warm_start_from_analysis: false,
            cache: true,
        }
    }
}

impl NewtonOptions {
    /// Whether cache lookups should run for this solve: the per-options
    /// flag AND the process-wide `CML_CACHE` gate.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache && cml_cache::enabled()
    }
}

/// Cache key identifying a transient Jacobian structure: the linear part
/// of the MNA matrix is fully determined by the step size, the
/// integration method and the conditioning gmin (see
/// [`crate::element::Element::is_nonlinear`]), so factorizations can be
/// reused across Newton iterations and timesteps that share this key.
type MatKey = (u64, Integration, u64);

/// Which stamp-mode family a sparsity pattern was discovered under.
/// Reactive elements stamp companion conductances only in transient
/// mode, so DC and transient Jacobians have different patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    Dc,
    Tran,
}

impl ModeKind {
    fn of(mode: StampMode) -> Self {
        match mode {
            StampMode::Dc { .. } => ModeKind::Dc,
            StampMode::Tran { .. } => ModeKind::Tran,
        }
    }
}

/// Sparse-path state cached in the Newton workspace: the fixed-pattern
/// CSR Jacobian, its LU (symbolic analysis + pivot order frozen after
/// the first factorization), the cached linear-element values, and one
/// stamp-pointer cache per assembly-pass shape.
#[derive(Debug, Clone)]
struct SparseState {
    /// Fixed-pattern Jacobian; only `vals` change between solves.
    mat: CsrMatrix,
    /// Sparse LU with replayable refactorization.
    lu: SparseLu,
    /// Cached guess-independent values (linear stamps + gmin) for the
    /// key in `NewtonWorkspace::lin_key`, parallel to `mat.vals()`.
    lin_vals: Vec<f64>,
    /// Value-slot of each node diagonal, for the gmin stamp.
    diag_slots: Vec<usize>,
    /// Stamp-pointer caches: full assembly, linear-only assembly, and
    /// the nonlinear top-up pass.
    slots_full: StampSlots,
    slots_lin: StampSlots,
    slots_nonlin: StampSlots,
    /// Mode family the pattern was discovered under.
    kind: ModeKind,
}

/// Internal error type for one Newton attempt: either a real solver
/// error, or "the sparsity pattern was missing a written position" —
/// the caller reacts to the latter by rebuilding the pattern (and, if
/// it happens again, permanently falling back to dense).
enum AttemptError {
    Spice(SpiceError),
    PatternMiss,
}

impl From<SpiceError> for AttemptError {
    fn from(e: SpiceError) -> Self {
        AttemptError::Spice(e)
    }
}

impl From<cml_numeric::NumericError> for AttemptError {
    fn from(e: cml_numeric::NumericError) -> Self {
        AttemptError::Spice(e.into())
    }
}

/// Reusable buffers for [`System::newton_with`]: the MNA matrix, its LU
/// factors, the cached linear-element stamps and the iteration vectors.
/// Create once per analysis and pass to every solve; allocations and —
/// when `reuse` is enabled — factorizations then amortize across
/// timesteps instead of being redone from scratch each Newton iteration.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    /// Full Jacobian (linear stamps + nonlinear linearizations).
    matrix: DenseMatrix,
    /// Cached guess-independent stamps (linear elements + gmin), valid
    /// for the transient key in `lin_key`.
    lin_matrix: DenseMatrix,
    /// Full RHS (rebuilt per iteration for nonlinear circuits).
    rhs: Vec<f64>,
    /// Guess-independent RHS stamps, rebuilt once per solve call.
    lin_rhs: Vec<f64>,
    /// Current iterate.
    x: Vec<f64>,
    /// Raw Newton solution before damping.
    x_new: Vec<f64>,
    /// LU factors, reused in place (no per-iteration allocation).
    factors: LuFactors,
    /// Key `lin_matrix` was assembled for.
    lin_key: Option<MatKey>,
    /// Key `factors` holds a factorization of `lin_matrix` for (only
    /// meaningful on circuits with no nonlinear devices, where the full
    /// Jacobian *is* the linear matrix).
    factored_key: Option<MatKey>,
    /// Sparse-path state; `None` until the first solve at or above the
    /// sparse threshold (or after a pattern invalidation).
    sparse: Option<SparseState>,
    /// Set when the sparse path misbehaved twice (pattern misses) —
    /// every further solve in this workspace stays dense.
    sparse_disabled: bool,
    /// Whether the previous solve ran sparse; a flip invalidates the
    /// linear-stamp caches (they live in different buffers per path).
    last_solve_sparse: Option<bool>,
    /// Set after a pattern miss: this workspace stops trusting the
    /// topology cache's interned pattern (which just missed) and derives
    /// fresh patterns from its own guesses instead.
    sparse_cache_bypass: bool,
}

impl NewtonWorkspace {
    pub(crate) fn new() -> Self {
        NewtonWorkspace {
            matrix: DenseMatrix::zeros(0, 0),
            lin_matrix: DenseMatrix::zeros(0, 0),
            rhs: Vec::new(),
            lin_rhs: Vec::new(),
            x: Vec::new(),
            x_new: Vec::new(),
            factors: LuFactors::default(),
            lin_key: None,
            factored_key: None,
            sparse: None,
            sparse_disabled: false,
            last_solve_sparse: None,
            sparse_cache_bypass: false,
        }
    }
}

/// MNA bookkeeping for one circuit: unknown layout and state arena layout.
#[derive(Debug)]
pub(crate) struct System<'a> {
    ckt: &'a Circuit,
    n_nodes: usize,
    n_branches: usize,
    /// Per-element first-branch offset (relative to the branch region).
    branch_bases: Vec<usize>,
    /// Per-element first state slot.
    state_bases: Vec<usize>,
    state_len: usize,
    /// Element name → absolute unknown index of its first branch current.
    branch_names: HashMap<String, usize>,
    /// Whether any element's stamp depends on the Newton guess.
    has_nonlinear: bool,
    /// Per-element MOSFET card overrides, empty outside batched solves
    /// ([`batch`] loads each lane's `vth0`/`kp` here before stamping it).
    cards: Vec<Option<crate::devices::mosfet::MosParams>>,
}

impl<'a> System<'a> {
    pub(crate) fn new(ckt: &'a Circuit) -> Self {
        let n_nodes = ckt.num_unknown_nodes();
        let mut branch_bases = Vec::new();
        let mut state_bases = Vec::new();
        let mut branch_names = HashMap::new();
        let mut n_branches = 0;
        let mut state_len = 0;
        let mut has_nonlinear = false;
        for e in ckt.elements() {
            branch_bases.push(n_branches);
            state_bases.push(state_len);
            if e.num_branches() > 0 {
                branch_names.insert(e.name().to_string(), n_nodes + n_branches);
            }
            n_branches += e.num_branches();
            state_len += e.state_size();
            has_nonlinear |= e.is_nonlinear();
        }
        System {
            ckt,
            n_nodes,
            n_branches,
            branch_bases,
            state_bases,
            state_len,
            branch_names,
            has_nonlinear,
            cards: Vec::new(),
        }
    }

    pub(crate) fn circuit(&self) -> &'a Circuit {
        self.ckt
    }

    pub(crate) fn dim(&self) -> usize {
        self.n_nodes + self.n_branches
    }

    pub(crate) fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub(crate) fn state_len(&self) -> usize {
        self.state_len
    }

    pub(crate) fn branch_names(&self) -> &HashMap<String, usize> {
        &self.branch_names
    }

    fn ctx<'b>(
        &self,
        idx: usize,
        e: &dyn Element,
        x: &'b [f64],
        state: &'b [f64],
        mode: StampMode,
    ) -> StampCtx<'b> {
        let sb = self.state_bases[idx];
        let sl = e.state_size();
        // DC solves pass an empty arena (state is only meaningful in
        // transient mode); fall back to an empty slice there.
        let state_slice = state.get(sb..sb + sl).unwrap_or(&[]);
        StampCtx {
            x,
            state: state_slice,
            branch_base: self.branch_bases[idx],
            n_nodes: self.n_nodes,
            mode,
        }
    }

    /// Stamps every element `keep` selects at guess `x` into `out`, each
    /// with its card override when one is loaded.
    fn stamp_pass(
        &self,
        out: &mut Stamper<'_>,
        keep: impl Fn(&dyn Element) -> bool,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
    ) {
        for (idx, e) in self.ckt.elements().enumerate() {
            if keep(e) {
                let ctx = self.ctx(idx, e, x, state, mode);
                match self.cards.get(idx) {
                    Some(Some(card)) => e.stamp_with_card(&ctx, card, out),
                    _ => e.stamp(&ctx, out),
                }
            }
        }
    }

    /// Assembles the Jacobian and RHS at guess `x`.
    pub(crate) fn assemble(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        gmin: f64,
        matrix: &mut DenseMatrix,
        rhs: &mut Vec<f64>,
    ) {
        matrix.clear();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        let mut out = Stamper::new(matrix, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |_| true, x, state, mode);
        // Conditioning gmin from every node to ground.
        for i in 0..self.n_nodes {
            matrix[(i, i)] += gmin;
        }
    }

    /// Assembles every guess-independent (linear-element) stamp: matrix,
    /// RHS and the conditioning gmin.
    ///
    /// Passes an *empty* guess slice on purpose: elements reporting
    /// `is_nonlinear() == false` promise never to read `ctx.x`, and an
    /// out-of-bounds panic here is the loud contract check for a device
    /// that lies about its linearity.
    fn assemble_linear(
        &self,
        state: &[f64],
        mode: StampMode,
        gmin: f64,
        matrix: &mut DenseMatrix,
        rhs: &mut Vec<f64>,
    ) {
        matrix.clear();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        let mut out = Stamper::new(matrix, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |e| !e.is_nonlinear(), &[], state, mode);
        for i in 0..self.n_nodes {
            matrix[(i, i)] += gmin;
        }
    }

    /// Re-assembles only the linear RHS (source values, companion-model
    /// history currents), dropping matrix writes: used when the cached
    /// linear matrix is still valid but time or state has advanced.
    fn stamp_linear_rhs(&self, state: &[f64], mode: StampMode, rhs: &mut Vec<f64>) {
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        let mut out = Stamper::rhs_only(rhs, self.n_nodes);
        self.stamp_pass(&mut out, |e| !e.is_nonlinear(), &[], state, mode);
    }

    /// Adds the nonlinear-device linearizations at guess `x` on top of
    /// already-copied linear stamps.
    fn stamp_nonlinear(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        matrix: &mut DenseMatrix,
        rhs: &mut [f64],
    ) {
        let mut out = Stamper::new(matrix, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |e| e.is_nonlinear(), x, state, mode);
    }

    /// Discovers the Jacobian sparsity pattern with one recording stamp
    /// pass at `x0`, then builds the fixed-pattern CSR matrix and its
    /// sparse LU. The recorded position set is symmetrized (devices like
    /// MOSFETs keep a stable position *set* across operating regions,
    /// but individual entries can migrate across the diagonal on a
    /// drain/source swap) and every diagonal is added (the conditioning
    /// gmin lands there, and structural diagonal zeros would force
    /// avoidable pivoting). Returns `None` when a pattern cannot be
    /// built; the caller then disables the sparse path.
    fn build_sparse(&self, x0: &[f64], state: &[f64], mode: StampMode) -> Option<SparseState> {
        let dim = self.dim();
        let mut positions: Vec<(usize, usize)> = Vec::new();
        let mut scratch_rhs = vec![0.0; dim];
        let mut out = Stamper::pattern(&mut positions, &mut scratch_rhs, self.n_nodes);
        self.stamp_pass(&mut out, |_| true, x0, state, mode);
        let n_recorded = positions.len();
        for i in 0..n_recorded {
            let (r, c) = positions[i];
            positions.push((c, r));
        }
        positions.extend((0..dim).map(|i| (i, i)));
        let mat = CsrMatrix::from_pattern(dim, dim, &positions).ok()?;
        let lu = SparseLu::new(&mat).ok()?;
        let diag_slots: Option<Vec<usize>> = (0..self.n_nodes).map(|i| mat.find(i, i)).collect();
        let nnz = mat.vals().len();
        Some(SparseState {
            mat,
            lu,
            lin_vals: vec![0.0; nnz],
            diag_slots: diag_slots?,
            slots_full: StampSlots::default(),
            slots_lin: StampSlots::default(),
            slots_nonlin: StampSlots::default(),
            kind: ModeKind::of(mode),
        })
    }

    /// Sparse analogue of [`System::assemble`]: every stamp accumulates
    /// directly into its reserved CSR value slot.
    fn assemble_sparse_full(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        gmin: f64,
        sp: &mut SparseState,
        rhs: &mut Vec<f64>,
    ) -> Result<(), AttemptError> {
        sp.mat.clear_vals();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        sp.slots_full.begin_pass();
        let mut out = Stamper::sparse(&mut sp.mat, &mut sp.slots_full, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |_| true, x, state, mode);
        if sp.slots_full.missing() {
            return Err(AttemptError::PatternMiss);
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        Ok(())
    }

    /// Sparse analogue of [`System::assemble_linear`]; passes the same
    /// empty guess slice as the loud linearity-contract check.
    fn assemble_sparse_linear(
        &self,
        state: &[f64],
        mode: StampMode,
        gmin: f64,
        sp: &mut SparseState,
        rhs: &mut Vec<f64>,
    ) -> Result<(), AttemptError> {
        sp.mat.clear_vals();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        sp.slots_lin.begin_pass();
        let mut out = Stamper::sparse(&mut sp.mat, &mut sp.slots_lin, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |e| !e.is_nonlinear(), &[], state, mode);
        if sp.slots_lin.missing() {
            return Err(AttemptError::PatternMiss);
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        Ok(())
    }

    /// Sparse analogue of [`System::stamp_nonlinear`]: tops up the copied
    /// linear values with the nonlinear-device linearizations at `x`.
    fn stamp_sparse_nonlinear(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        sp: &mut SparseState,
        rhs: &mut [f64],
    ) -> Result<(), AttemptError> {
        sp.slots_nonlin.begin_pass();
        let mut out = Stamper::sparse(&mut sp.mat, &mut sp.slots_nonlin, rhs, self.n_nodes);
        self.stamp_pass(&mut out, |e| e.is_nonlinear(), x, state, mode);
        if sp.slots_nonlin.missing() {
            return Err(AttemptError::PatternMiss);
        }
        Ok(())
    }

    /// Reuse key for the current solve, or `None` when the mode does not
    /// support stamp caching (DC homotopies vary `source_scale` and gmin
    /// between calls; transient steps are keyed by step size, method and
    /// gmin — time enters only through the RHS, which is always rebuilt).
    fn mat_key(mode: StampMode, gmin: f64) -> Option<MatKey> {
        match mode {
            StampMode::Tran { dt, method, .. } => Some((dt.to_bits(), method, gmin.to_bits())),
            StampMode::Dc { .. } => None,
        }
    }

    /// Damped Newton iteration using caller-owned buffers.
    ///
    /// With `reuse` enabled (transient mode only) the solver exploits the
    /// [`crate::element::Element::is_nonlinear`] contract three ways:
    ///
    /// * linear-element matrix/RHS stamps are assembled once per call
    ///   instead of once per Newton iteration;
    /// * the linear matrix is cached across *timesteps* sharing a
    ///   `(dt, method, gmin)` key, so unchanged companion conductances
    ///   are not re-stamped at all;
    /// * on circuits with no nonlinear devices the LU factorization
    ///   itself is cached across timesteps, reducing each step from
    ///   O(n³) to an O(n²) substitution.
    ///
    /// On linear circuits the reuse path is bit-for-bit identical to the
    /// plain path (same stamps, same order, same factorization); with
    /// nonlinear devices the split stamping reorders floating-point
    /// additions and may differ from the interleaved order at the last
    /// ulp (well inside Newton tolerances). See DESIGN.md.
    ///
    /// Systems at or above [`NewtonOptions::sparse_threshold`] unknowns
    /// solve through the sparse LU path (fixed-pattern CSR Jacobian,
    /// stamp-pointer caching, replayed numeric refactorization — see
    /// DESIGN.md §8). A stamp that misses the cached pattern triggers one
    /// pattern rebuild; a second miss permanently falls back to dense
    /// for this workspace, so correctness never depends on discovery
    /// having seen every position.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newton_with(
        &self,
        mode: StampMode,
        x0: &[f64],
        state: &[f64],
        opts: &NewtonOptions,
        analysis: &'static str,
        ws: &mut NewtonWorkspace,
        reuse: bool,
        tel: &Telemetry,
    ) -> Result<Vec<f64>, SpiceError> {
        // Fine-gated: one Newton solve per transient step means two clock
        // reads per step here, which alone would eat most of the coarse
        // mode's < 2 % overhead budget on step-bound workloads.
        let _t = tel.timer_fine(Phase::NewtonSolve);
        let _span = tel.span_fine("solver", "newton");
        tel.count(|c| c.newton_solves += 1);
        let mut rebuilds = 0;
        loop {
            match self.newton_attempt(mode, x0, state, opts, analysis, ws, reuse, tel) {
                Ok(x) => return Ok(x),
                Err(AttemptError::Spice(e)) => return Err(e),
                Err(AttemptError::PatternMiss) => {
                    // An element stamped a position absent from the cached
                    // pattern. Rebuild once from the current guess; a
                    // second miss means the pattern is guess-dependent in
                    // a way discovery can't capture — stay dense. The
                    // topology cache is bypassed from here on: serving the
                    // interned pattern again would just miss again.
                    ws.sparse = None;
                    ws.lin_key = None;
                    ws.factored_key = None;
                    ws.sparse_cache_bypass = true;
                    rebuilds += 1;
                    tel.count(|c| c.pattern_rebuilds += 1);
                    if rebuilds >= 2 {
                        ws.sparse_disabled = true;
                        tel.count(|c| c.dense_fallbacks += 1);
                        tel.degradation(
                            "sparse-dense-fallback",
                            "sparse solve pattern missed twice; this workspace \
                             permanently falls back to the dense path",
                        );
                    }
                }
            }
        }
    }

    /// One Newton solve attempt on either the dense or the sparse path.
    #[allow(clippy::too_many_arguments)]
    fn newton_attempt(
        &self,
        mode: StampMode,
        x0: &[f64],
        state: &[f64],
        opts: &NewtonOptions,
        analysis: &'static str,
        ws: &mut NewtonWorkspace,
        reuse: bool,
        tel: &Telemetry,
    ) -> Result<Vec<f64>, AttemptError> {
        let dim = self.dim();
        if ws.matrix.rows() != dim || ws.matrix.cols() != dim {
            ws.matrix = DenseMatrix::zeros(dim, dim);
            ws.lin_matrix = DenseMatrix::zeros(dim, dim);
            ws.lin_key = None;
            ws.factored_key = None;
            ws.sparse = None;
        }
        let use_sparse = !ws.sparse_disabled && dim > 0 && dim >= opts.sparse_threshold;
        if use_sparse {
            let fresh = matches!(&ws.sparse,
                Some(sp) if sp.kind == ModeKind::of(mode) && sp.mat.rows() == dim);
            if !fresh {
                let _t = tel.timer(Phase::PatternDiscovery);
                ws.sparse = if opts.cache_enabled() && !ws.sparse_cache_bypass {
                    cache::sparse_state_cached(self, x0, state, mode, tel)
                } else {
                    self.build_sparse(x0, state, mode)
                };
                ws.lin_key = None;
                ws.factored_key = None;
                if ws.sparse.is_none() {
                    ws.sparse_disabled = true;
                    tel.count(|c| c.dense_fallbacks += 1);
                    tel.degradation(
                        "sparse-pattern-unbuildable",
                        "sparse solve requested but the Jacobian pattern could \
                         not be built; this workspace stays on the dense path",
                    );
                } else {
                    tel.count(|c| c.pattern_builds += 1);
                }
            }
        }
        let run_sparse = use_sparse && ws.sparse.is_some();
        if ws.last_solve_sparse != Some(run_sparse) {
            // The dense/sparse choice flipped; the linear caches live in
            // different buffers per path, so both keys are stale.
            ws.lin_key = None;
            ws.factored_key = None;
            ws.last_solve_sparse = Some(run_sparse);
        }
        let key = if reuse {
            Self::mat_key(mode, opts.gmin)
        } else {
            None
        };
        if let Some(k) = key {
            if ws.lin_key == Some(k) {
                // Matrix still valid; only sources / companion history
                // moved, and those live purely in the RHS.
                tel.count(|c| c.lin_stamp_hits += 1);
                self.stamp_linear_rhs(state, mode, &mut ws.lin_rhs);
            } else if run_sparse {
                tel.count(|c| c.lin_stamp_builds += 1);
                let Some(sp) = ws.sparse.as_mut() else {
                    return Err(AttemptError::Spice(SpiceError::Internal {
                        message: "sparse solve selected without sparse workspace".to_string(),
                    }));
                };
                self.assemble_sparse_linear(state, mode, opts.gmin, sp, &mut ws.lin_rhs)?;
                sp.lin_vals.clear();
                sp.lin_vals.extend_from_slice(sp.mat.vals());
                ws.lin_key = Some(k);
                ws.factored_key = None;
            } else {
                tel.count(|c| c.lin_stamp_builds += 1);
                self.assemble_linear(state, mode, opts.gmin, &mut ws.lin_matrix, &mut ws.lin_rhs);
                ws.lin_key = Some(k);
                ws.factored_key = None;
            }
        }

        ws.x.clear();
        ws.x.extend_from_slice(x0);
        // Per-attempt residual trajectory: a flight bundle records the
        // *last* attempt's convergence history, not a concatenation of
        // every homotopy rung tried before it.
        tel.trajectory_reset();
        let mut worst = f64::INFINITY;
        for iter in 0..opts.max_iter {
            tel.count(|c| c.newton_iterations += 1);
            if run_sparse {
                let Some(sp) = ws.sparse.as_mut() else {
                    return Err(AttemptError::Spice(SpiceError::Internal {
                        message: "sparse solve selected without sparse workspace".to_string(),
                    }));
                };
                ws.x_new.resize(dim, 0.0);
                match key {
                    Some(k) if !self.has_nonlinear => {
                        if ws.factored_key == Some(k) {
                            tel.count(|c| c.factor_reuse_hits += 1);
                        } else {
                            sp.mat.vals_mut().copy_from_slice(&sp.lin_vals);
                            let oc = {
                                let _t = tel.timer_fine(Phase::Refactor);
                                sp.lu.refactor(&sp.mat)?
                            };
                            note_refactor(tel, oc, sp.lu.last_dead_pivot());
                            ws.factored_key = Some(k);
                        }
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        sp.lu.solve_into(&ws.lin_rhs, &mut ws.x_new)?;
                        tel.count(|c| c.sparse_solves += 1);
                    }
                    Some(_) => {
                        sp.mat.vals_mut().copy_from_slice(&sp.lin_vals);
                        ws.rhs.clear();
                        ws.rhs.extend_from_slice(&ws.lin_rhs);
                        self.stamp_sparse_nonlinear(&ws.x, state, mode, sp, &mut ws.rhs)?;
                        let oc = {
                            let _t = tel.timer_fine(Phase::Refactor);
                            sp.lu.refactor(&sp.mat)?
                        };
                        note_refactor(tel, oc, sp.lu.last_dead_pivot());
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        sp.lu.solve_into(&ws.rhs, &mut ws.x_new)?;
                        tel.count(|c| c.sparse_solves += 1);
                    }
                    None => {
                        self.assemble_sparse_full(&ws.x, state, mode, opts.gmin, sp, &mut ws.rhs)?;
                        let oc = {
                            let _t = tel.timer_fine(Phase::Refactor);
                            sp.lu.refactor(&sp.mat)?
                        };
                        note_refactor(tel, oc, sp.lu.last_dead_pivot());
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        sp.lu.solve_into(&ws.rhs, &mut ws.x_new)?;
                        tel.count(|c| c.sparse_solves += 1);
                    }
                }
            } else {
                match key {
                    Some(k) if !self.has_nonlinear => {
                        // Fully linear system: the cached linear matrix *is*
                        // the Jacobian and its factorization survives across
                        // timesteps with the same key.
                        if ws.factored_key == Some(k) {
                            tel.count(|c| c.factor_reuse_hits += 1);
                        } else {
                            let _t = tel.timer_fine(Phase::Factor);
                            ws.factors.refactor(&ws.lin_matrix)?;
                            tel.count(|c| c.full_factorizations += 1);
                            ws.factored_key = Some(k);
                        }
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        ws.factors.solve_into(&ws.lin_rhs, &mut ws.x_new)?;
                        tel.count(|c| c.dense_solves += 1);
                    }
                    Some(_) => {
                        ws.matrix.copy_from(&ws.lin_matrix);
                        ws.rhs.clear();
                        ws.rhs.extend_from_slice(&ws.lin_rhs);
                        self.stamp_nonlinear(&ws.x, state, mode, &mut ws.matrix, &mut ws.rhs);
                        {
                            let _t = tel.timer_fine(Phase::Factor);
                            ws.factors.refactor(&ws.matrix)?;
                        }
                        tel.count(|c| c.full_factorizations += 1);
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        ws.factors.solve_into(&ws.rhs, &mut ws.x_new)?;
                        tel.count(|c| c.dense_solves += 1);
                    }
                    None => {
                        self.assemble(&ws.x, state, mode, opts.gmin, &mut ws.matrix, &mut ws.rhs);
                        {
                            let _t = tel.timer_fine(Phase::Factor);
                            ws.factors.refactor(&ws.matrix)?;
                        }
                        tel.count(|c| c.full_factorizations += 1);
                        let _t = tel.timer_fine(Phase::BackSubstitute);
                        ws.factors.solve_into(&ws.rhs, &mut ws.x_new)?;
                        tel.count(|c| c.dense_solves += 1);
                    }
                }
            }
            let (converged, undamped, w) =
                newton_update(&mut ws.x, |i| ws.x_new[i], self.n_nodes, opts);
            worst = w;
            tel.trajectory_push(worst);
            // Fine-gated: one event per Newton iteration means one
            // clock read per iteration, which in coarse mode would eat
            // the < 2 % overhead budget (see the timer note above). The
            // flight recorder still gets every residual via the cheap
            // `trajectory_push` — no clock, no ring traffic.
            tel.event_fine(|| EventKind::NewtonIteration {
                analysis: analysis.into(),
                iteration: iter as u32,
                residual: worst,
                damped: !undamped,
            });
            if !ws.x.iter().all(|v| v.is_finite()) {
                tel.event(|| EventKind::NewtonDiverged {
                    analysis: analysis.into(),
                    iterations: (iter + 1) as u32,
                    residual: f64::INFINITY,
                });
                return Err(SpiceError::NoConvergence {
                    analysis,
                    iterations: opts.max_iter,
                    residual: f64::INFINITY,
                }
                .into());
            }
            if converged && undamped {
                return Ok(ws.x.clone());
            }
        }
        tel.event(|| EventKind::NewtonDiverged {
            analysis: analysis.into(),
            iterations: opts.max_iter as u32,
            residual: worst,
        });
        Err(SpiceError::NoConvergence {
            analysis,
            iterations: opts.max_iter,
            residual: worst,
        }
        .into())
    }

    /// Initializes the transient state arena from a DC solution.
    pub(crate) fn init_state(&self, x: &[f64]) -> Vec<f64> {
        let mut state = vec![0.0; self.state_len];
        for (idx, e) in self.ckt.elements().enumerate() {
            let sb = self.state_bases[idx];
            let ctx = self.ctx(idx, e, x, &[], StampMode::dc());
            e.init_state(&ctx, &mut state[sb..sb + e.state_size()]);
        }
        state
    }

    /// Writes the next-state arena after a converged transient step.
    pub(crate) fn update_state(
        &self,
        x: &[f64],
        state_prev: &[f64],
        mode: StampMode,
        state_next: &mut [f64],
    ) {
        for (idx, e) in self.ckt.elements().enumerate() {
            let sb = self.state_bases[idx];
            let ctx = self.ctx(idx, e, x, state_prev, mode);
            e.update_state(&ctx, &mut state_next[sb..sb + e.state_size()]);
        }
    }

    /// Assembles and solves the complex small-signal system at `omega`
    /// into caller-owned buffers: `x` carries the RHS in and the solution
    /// out, and the matrix (restamped per frequency, then consumed by the
    /// in-place elimination) is reallocated only on dimension change.
    pub(crate) fn solve_ac_into(
        &self,
        x_op: &[f64],
        omega: f64,
        gmin: f64,
        matrix: &mut ComplexMatrix,
        x: &mut Vec<Complex64>,
    ) -> Result<(), SpiceError> {
        let dim = self.dim();
        if matrix.rows() != dim || matrix.cols() != dim {
            *matrix = ComplexMatrix::zeros(dim, dim);
        } else {
            matrix.clear();
        }
        x.clear();
        x.resize(dim, Complex64::ZERO);
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut stamper = AcStamper::new(matrix, x, self.n_nodes);
            e.stamp_ac(x_op, self.branch_bases[idx], omega, &mut stamper);
        }
        for i in 0..self.n_nodes {
            matrix[(i, i)] += Complex64::from_real(gmin);
        }
        matrix.solve_in_place(x)?;
        Ok(())
    }

    /// Discovers the AC stamp pattern with one recording pass at `omega`
    /// and builds the fixed-pattern complex CSR matrix plus its sparse
    /// LU (symbolic analysis only; the caller runs the first numeric
    /// factorization). The union pattern of `G + jωC` is
    /// frequency-independent — every element writes its full footprint
    /// at any `omega` — so one recording serves the whole sweep. As in
    /// [`build_sparse`](Self::build_sparse), the position set is
    /// symmetrized and every diagonal is added. Returns `None` when the
    /// pattern cannot be built; the sweep then stays dense.
    fn build_ac_sparse(&self, x_op: &[f64], omega: f64) -> Option<AcSparseState> {
        let dim = self.dim();
        let mut positions: Vec<(usize, usize)> = Vec::new();
        let mut scratch_rhs = vec![Complex64::ZERO; dim];
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut stamper = AcStamper::pattern(&mut positions, &mut scratch_rhs, self.n_nodes);
            e.stamp_ac(x_op, self.branch_bases[idx], omega, &mut stamper);
        }
        let n_recorded = positions.len();
        for i in 0..n_recorded {
            let (r, c) = positions[i];
            positions.push((c, r));
        }
        positions.extend((0..dim).map(|i| (i, i)));
        let mat = CsrMatrix::<Complex64>::from_pattern(dim, dim, &positions).ok()?;
        let lu = SparseLu::new(&mat).ok()?;
        let diag_slots: Option<Vec<usize>> = (0..self.n_nodes).map(|i| mat.find(i, i)).collect();
        Some(AcSparseState {
            mat,
            lu,
            slots: StampSlots::default(),
            diag_slots: diag_slots?,
        })
    }

    /// Sparse analogue of the assembly half of
    /// [`solve_ac_into`](Self::solve_ac_into): restamps `G + jωC` at
    /// `omega` into the reserved CSR slots and rebuilds the RHS. Returns
    /// `false` on a pattern miss (an element wrote a position absent from
    /// the recorded pattern); the caller then solves this point dense.
    fn assemble_ac_sparse(
        &self,
        x_op: &[f64],
        omega: f64,
        gmin: f64,
        sp: &mut AcSparseState,
        rhs: &mut Vec<Complex64>,
    ) -> bool {
        sp.mat.clear_vals();
        rhs.clear();
        rhs.resize(self.dim(), Complex64::ZERO);
        sp.slots.begin_pass();
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut stamper = AcStamper::sparse(&mut sp.mat, &mut sp.slots, rhs, self.n_nodes);
            e.stamp_ac(x_op, self.branch_bases[idx], omega, &mut stamper);
        }
        if sp.slots.missing() {
            return false;
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += Complex64::from_real(gmin);
        }
        true
    }
}

/// Sparse AC sweep state: the fixed-pattern `G + jωC` matrix, its
/// complex LU (pivot order frozen at the sweep's reference frequency),
/// the stamp-pointer cache, and the node-diagonal slots for gmin.
///
/// `Clone` matters: the sweep factors one reference state, then every
/// parallel worker clones it — same frozen pivot order everywhere — and
/// replays numeric refactorizations per frequency point.
#[derive(Debug, Clone)]
pub(crate) struct AcSparseState {
    /// Fixed-pattern complex MNA matrix; only `vals` change per point.
    mat: CsrMatrix<Complex64>,
    /// Complex sparse LU with a replay-only refactorization path.
    lu: SparseLu<Complex64>,
    /// Stamp-pointer cache for the per-point assembly pass.
    slots: StampSlots,
    /// Value-slot of each node diagonal, for the gmin stamp.
    diag_slots: Vec<usize>,
}

/// One damped Newton update of the iterate `x` toward the raw solution
/// `x_new(i)`: node voltages move at most `max_step` per iteration.
/// Returns whether every unknown met its tolerance, whether no clamp
/// bit, and the largest raw step.
fn newton_update(
    x: &mut [f64],
    x_new: impl Fn(usize) -> f64,
    n_nodes: usize,
    opts: &NewtonOptions,
) -> (bool, bool, f64) {
    let (mut converged, mut undamped, mut worst) = (true, true, 0.0f64);
    for (i, xi) in x.iter_mut().enumerate() {
        let xn = x_new(i);
        let delta = xn - *xi;
        let (atol, clamp) = if i < n_nodes {
            (opts.vntol, opts.max_step)
        } else {
            (opts.abstol, f64::INFINITY)
        };
        if delta.abs() > atol + opts.reltol * xi.abs().max(xn.abs()) {
            converged = false;
        }
        worst = worst.max(delta.abs());
        let next = *xi + delta.clamp(-clamp, clamp);
        if (next - xn).abs() >= 1e-15 {
            undamped = false;
        }
        *xi = next;
    }
    (converged, undamped, worst)
}

/// Voltage lookup shared by all result types.
pub(crate) fn voltage_from(x: &[f64], node: NodeId) -> f64 {
    node.index().map_or(0.0, |i| x[i])
}

/// Records a sparse refactorization outcome into the solver counters. A
/// pivot fallback is also a full factorization (the heal re-runs the
/// pivot search), so it increments both counters — and, since a pivot
/// death is exactly the "numerics drifted off the frozen order" signal
/// a forensic bundle wants, it additionally logs a structured
/// [`EventKind::PivotFallback`] event carrying the dead column and the
/// pivot magnitude the replay saw there.
fn note_refactor(tel: &Telemetry, outcome: RefactorOutcome, dead_pivot: Option<(usize, f64)>) {
    tel.count(|c| match outcome {
        RefactorOutcome::Replayed => c.refactorizations += 1,
        RefactorOutcome::FullFactor => c.full_factorizations += 1,
        RefactorOutcome::PivotFallback => {
            c.pivot_fallbacks += 1;
            c.full_factorizations += 1;
        }
    });
    if matches!(outcome, RefactorOutcome::PivotFallback) {
        let (column, pivot) = dead_pivot.unwrap_or((0, 0.0));
        tel.event(|| EventKind::PivotFallback {
            column: column as u64,
            pivot,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn branch_allocation_and_names() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("R1", a, b, 10.0));
        ckt.add(Inductor::new("L1", b, Circuit::GROUND, 1e-9));
        let sys = System::new(&ckt);
        assert_eq!(sys.n_nodes(), 2);
        assert_eq!(sys.dim(), 4); // 2 nodes + V branch + L branch
        assert_eq!(sys.branch_names()["V1"], 2);
        assert_eq!(sys.branch_names()["L1"], 3);
        assert_eq!(sys.state_len(), 2); // inductor state only
    }
}
