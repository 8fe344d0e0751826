//! Analysis drivers: operating point, DC sweep, AC, transient.
//!
//! All analyses share the internal `System` assembler, which owns the MNA
//! bookkeeping: branch-unknown allocation, the transient's compiled linear
//! part and node-space history, Jacobian assembly and the damped Newton
//! loop.

pub mod ac;
pub mod batch;
pub mod cache;
pub mod dc;
pub mod op;
pub mod sink;
pub mod tran;

use crate::circuit::{Circuit, NodeId};
use crate::devices::mosfet::{MosDevice, MosSlots};
use crate::element::{AcStamper, Element, Integration, StampCtx, StampMode, Stamper};
use crate::SpiceError;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{
    Complex64, ComplexMatrix, DenseMatrix, LuFactors, RefactorOutcome, Scalar, SparseLu,
};
use cml_telemetry::{EventKind, Phase, Telemetry};
use std::collections::HashMap;
use std::sync::OnceLock;

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
    /// Use the content-addressed topology artifact cache (`cml-cache`)
    /// for stamp patterns, symbolic LU analyses, frozen AC pivot
    /// orders and lint verdicts. Defaults on; this field is the only
    /// switch. The cache is advisory — disabling it changes cost, never
    /// results.
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
            cache: true,
        }
    }
}

/// Step size (bits) and method of a transient solve: the key of the LU
/// a workspace holds. A linear circuit's Jacobian `G + (a/dt)·C` depends
/// on nothing else, so its LU serves every solve with the key; a
/// nonlinear circuit's serves the chord step that starts the next solve
/// with the key.
type StepKey = (u64, Integration);

/// `a/dt`, the companion scale of `C` for a step of `dt` by `method`:
/// `a` is 2 for trapezoidal and 1 for backward Euler.
fn companion_scale(dt: f64, method: Integration) -> f64 {
    match method {
        Integration::Trapezoidal => 2.0 / dt,
        Integration::BackwardEuler => 1.0 / dt,
    }
}

/// Which stamp-mode family a sparsity pattern was discovered under.
/// Reactive elements enter only the transient pattern (through `C`), so
/// DC and transient Jacobians have different patterns.
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

/// The CSR pattern of the recorded writes `positions` of one stamp pass,
/// symmetrized (devices like MOSFETs keep a stable position *set* across
/// operating regions, but individual entries can migrate across the
/// diagonal on a drain/source swap) and with every diagonal added (the
/// conditioning gmin lands there, and structural diagonal zeros would
/// force avoidable pivoting). `None` when a position is out of range.
fn csr_pattern<T: Scalar>(dim: usize, mut positions: Vec<(usize, usize)>) -> Option<CsrMatrix<T>> {
    let n_recorded = positions.len();
    for i in 0..n_recorded {
        let (r, c) = positions[i];
        positions.push((c, r));
    }
    positions.extend((0..dim).map(|i| (i, i)));
    CsrMatrix::from_pattern(dim, dim, &positions).ok()
}

/// The transient's linear part, compiled once per circuit by
/// [`System::init_tran`] from the `ω = 1` split of every element's
/// [`Element::stamp_ac`] and the right-hand side of the linear elements'
/// [`Element::stamp`] (see the transient contract on [`Element`]). A
/// transient solve in step `dt` by method `a` loads `G + (a/dt)·C` and the
/// fixed RHS `b(t) + (a/dt)·q_n + d_n` (see [`System::tran_rhs`]), then
/// adds the guess-dependent stamps on top.
///
/// The values depend on element values, which the topology hash ignores,
/// so the form lives with its [`System`] and is never interned; only the
/// pattern is shared through the topology cache.
#[derive(Debug)]
struct TranForm<'a> {
    /// The transient Jacobian pattern, with `G` in its values: linear
    /// conductances, source and inductor incidences, controlled sources
    /// and the conditioning gmin the form was compiled with. The pattern
    /// holds every position of every element's AC stamp and DC stamp, so
    /// it covers `C` and the guess-dependent stamps too.
    g: CsrMatrix,
    /// `C`, parallel to `g.vals()`: every capacitance, and `−L` on each
    /// inductor's branch diagonal.
    c: Vec<f64>,
    /// Right-hand side of every linear element whose stamp does not
    /// change with time (the DC sources), summed.
    b_dc: Vec<f64>,
    /// The linear elements whose right-hand side changes with time, with
    /// their element index, evaluated at every solve.
    sources: Vec<(usize, &'a dyn Element)>,
}

impl TranForm<'_> {
    /// Writes `vals = g + s·c` over the form's pattern.
    fn load(&self, s: f64, vals: &mut [f64]) {
        for ((v, &g), &c) in vals.iter_mut().zip(self.g.vals()).zip(&self.c) {
            *v = g + s * c;
        }
    }

    /// [`load`](Self::load) into a dense matrix.
    fn load_dense(&self, s: f64, matrix: &mut DenseMatrix) {
        matrix.clear();
        let (row_ptr, col_idx) = (self.g.row_ptr(), self.g.col_idx());
        for r in 0..self.g.rows() {
            for k in row_ptr[r]..row_ptr[r + 1] {
                matrix[(r, col_idx[k])] = self.g.vals()[k] + s * self.c[k];
            }
        }
    }

    /// Writes the charge vector `q = C·x`.
    fn charge(&self, x: &[f64], q: &mut [f64]) {
        let (row_ptr, col_idx) = (self.g.row_ptr(), self.g.col_idx());
        for (r, qr) in q.iter_mut().enumerate() {
            *qr = (row_ptr[r]..row_ptr[r + 1])
                .map(|k| self.c[k] * x[col_idx[k]])
                .sum();
        }
    }

    /// Whether `mat` has exactly the form's pattern, so that its values
    /// can be loaded slot for slot.
    fn fits(&self, mat: &CsrMatrix) -> bool {
        mat.row_ptr() == self.g.row_ptr() && mat.col_idx() == self.g.col_idx()
    }
}

/// Sparse-path state cached in the Newton workspace: the fixed-pattern
/// CSR Jacobian, its LU (symbolic analysis + pivot order frozen after
/// the first factorization) and the value slots of every MOSFET's
/// channel writes.
#[derive(Debug, Clone)]
struct SparseState {
    /// Fixed-pattern Jacobian; only `vals` change between solves.
    mat: CsrMatrix,
    /// Sparse LU with replayable refactorization.
    lu: SparseLu,
    /// Value-slot of each node diagonal, for the gmin stamp.
    diag_slots: Vec<usize>,
    /// Value slots of each device-table row's writes, bound once by the
    /// workspace that takes this state (see [`System::bind_devices`]);
    /// empty in a state fresh from pattern discovery or the topology
    /// cache.
    mos_slots: Vec<MosSlots>,
    /// Mode family the pattern was discovered under.
    kind: ModeKind,
}

/// One element as an assembly pass visits it.
#[derive(Debug, Clone, Copy)]
enum Visit<'a> {
    /// Row `k` of the device table.
    Mos(usize),
    /// Any other element, by index.
    Element(usize, &'a dyn Element),
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
/// factors and the iteration vectors. Create once per analysis and pass
/// to every solve; allocations and — on linear transient circuits —
/// factorizations then amortize across timesteps instead of being redone
/// from scratch each Newton iteration.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    /// MNA dimension of the last solve; a change drops every cache.
    dim: usize,
    /// Full Jacobian on the dense path; left empty while the workspace
    /// solves sparse.
    matrix: DenseMatrix,
    /// Full RHS (rebuilt per iteration).
    rhs: Vec<f64>,
    /// The transient solve's fixed RHS, built once per solve call.
    tran_rhs: Vec<f64>,
    /// Current iterate.
    x: Vec<f64>,
    /// Raw Newton solution before damping.
    x_new: Vec<f64>,
    /// LU factors, reused in place (no per-iteration allocation).
    factors: LuFactors,
    /// Step of the transient Jacobian the LU holds (dense `factors` or
    /// the sparse state's LU, whichever path ran last); `None` after a
    /// DC factorization, a pattern rebuild, a path flip or a failed
    /// solve.
    factored_key: Option<StepKey>,
    /// Sparse-path state; `None` until the first solve at or above the
    /// sparse threshold (or after a pattern invalidation).
    sparse: Option<SparseState>,
    /// Set when the sparse path misbehaved twice (pattern misses) —
    /// every further solve in this workspace stays dense.
    sparse_disabled: bool,
    /// Whether the previous solve ran sparse; a flip invalidates the
    /// cached factorization (it lives in different buffers per path).
    last_solve_sparse: Option<bool>,
    /// Set after a pattern miss: this workspace stops trusting the
    /// topology cache's interned pattern (which just missed) and derives
    /// fresh patterns from its own guesses instead.
    sparse_cache_bypass: bool,
}

impl NewtonWorkspace {
    pub(crate) fn new() -> Self {
        NewtonWorkspace {
            dim: 0,
            matrix: DenseMatrix::zeros(0, 0),
            rhs: Vec::new(),
            tran_rhs: Vec::new(),
            x: Vec::new(),
            x_new: Vec::new(),
            factors: LuFactors::default(),
            factored_key: None,
            sparse: None,
            sparse_disabled: false,
            last_solve_sparse: None,
            sparse_cache_bypass: false,
        }
    }
}

/// MNA bookkeeping for one circuit: unknown layout, the MOSFET device
/// table and, once a transient starts, its compiled linear part.
#[derive(Debug)]
pub(crate) struct System<'a> {
    ckt: &'a Circuit,
    n_nodes: usize,
    n_branches: usize,
    /// Per-element first-branch offset (relative to the branch region).
    branch_bases: Vec<usize>,
    /// Element name → absolute unknown index of its first branch current.
    branch_names: HashMap<String, usize>,
    /// Whether any element's stamp depends on the Newton guess.
    has_nonlinear: bool,
    /// The MOSFET device table: every MOSFET's row, in element order.
    /// Every assembly that solves stamps a MOSFET from its row instead of
    /// calling the element; [`batch`] loads a variant's card into the
    /// rows it varies.
    mos: Vec<MosDevice>,
    /// Every element in order as a full assembly pass visits it.
    visits: Vec<Visit<'a>>,
    /// The nonlinear elements in order as the guess-dependent pass visits
    /// them.
    guess_visits: Vec<Visit<'a>>,
    /// The transient's compiled linear part; built by the first
    /// [`System::init_tran`] and never by any other analysis.
    tran: OnceLock<TranForm<'a>>,
}

impl<'a> System<'a> {
    pub(crate) fn new(ckt: &'a Circuit) -> Self {
        let n_nodes = ckt.num_unknown_nodes();
        let mut branch_bases = Vec::new();
        let mut branch_names = HashMap::new();
        let mut n_branches = 0;
        let mut has_nonlinear = false;
        let mut mos = Vec::new();
        let mut visits = Vec::new();
        let mut guess_visits = Vec::new();
        for (idx, e) in ckt.elements().enumerate() {
            let visit = if let Some(m) = e.as_mosfet() {
                mos.push(m.device());
                Visit::Mos(mos.len() - 1)
            } else {
                Visit::Element(idx, e)
            };
            visits.push(visit);
            if e.is_nonlinear() {
                guess_visits.push(visit);
            }
            branch_bases.push(n_branches);
            if e.num_branches() > 0 {
                branch_names.insert(e.name().to_string(), n_nodes + n_branches);
            }
            n_branches += e.num_branches();
            has_nonlinear |= e.is_nonlinear();
        }
        System {
            ckt,
            n_nodes,
            n_branches,
            branch_bases,
            branch_names,
            has_nonlinear,
            mos,
            visits,
            guess_visits,
            tran: OnceLock::new(),
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

    pub(crate) fn branch_names(&self) -> &HashMap<String, usize> {
        &self.branch_names
    }

    fn ctx<'b>(&self, idx: usize, x: &'b [f64], mode: StampMode) -> StampCtx<'b> {
        StampCtx {
            x,
            state: &[],
            branch_base: self.branch_bases[idx],
            n_nodes: self.n_nodes,
            mode,
        }
    }

    /// Stamps every element (or, with `nonlinear_only`, every nonlinear
    /// one) at guess `x` into `out` through [`Element::stamp`], each
    /// MOSFET with its own card.
    fn stamp_pass(&self, out: &mut Stamper<'_>, nonlinear_only: bool, x: &[f64], mode: StampMode) {
        for (idx, e) in self.ckt.elements().enumerate() {
            if nonlinear_only && !e.is_nonlinear() {
                continue;
            }
            e.stamp(&self.ctx(idx, x, mode), out);
        }
    }

    /// Assembles the dense DC Jacobian and RHS at guess `x`, in element
    /// order: each MOSFET from its device-table row, bound to the dense
    /// row-major layout, every other element through [`Element::stamp`];
    /// then the conditioning gmin.
    pub(crate) fn assemble(
        &self,
        x: &[f64],
        mode: StampMode,
        gmin: f64,
        matrix: &mut DenseMatrix,
        rhs: &mut Vec<f64>,
    ) {
        matrix.clear();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        let cols = matrix.cols();
        for &visit in &self.visits {
            match visit {
                Visit::Mos(k) => {
                    let dev = &self.mos[k];
                    let slots = dev.bind(|r, c| Some(r * cols + c));
                    dev.stamp_channel(&slots, x, matrix.as_mut_slice(), rhs);
                }
                Visit::Element(idx, e) => {
                    let mut out = Stamper::new(matrix, rhs, self.n_nodes);
                    e.stamp(&self.ctx(idx, x, mode), &mut out);
                }
            }
        }
        // Conditioning gmin from every node to ground.
        for i in 0..self.n_nodes {
            matrix[(i, i)] += gmin;
        }
    }

    /// Compiles the transient's linear part (see [`TranForm`]) with the
    /// conditioning `gmin`. The pattern records every element's AC stamp
    /// at `ω = 1` and DC stamp at `x0`. Passes an empty guess slice to
    /// the linear elements' stamps: they promise never to read `ctx.x`,
    /// and an out-of-bounds panic here is the loud contract check for one
    /// that breaks the promise.
    fn compile_tran(&self, x0: &[f64], gmin: f64) -> Result<TranForm<'a>, SpiceError> {
        let dim = self.dim();
        let unbuildable = || SpiceError::Internal {
            message: "transient pattern could not be built".to_string(),
        };
        let mut positions = Vec::new();
        let mut ac_rhs = vec![Complex64::ZERO; dim];
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut rec = AcStamper::pattern(&mut positions, &mut ac_rhs, self.n_nodes);
            e.stamp_ac(x0, self.branch_bases[idx], 1.0, &mut rec);
        }
        let mut scratch = vec![0.0; dim];
        let mut rec = Stamper::pattern(&mut positions, &mut scratch, self.n_nodes);
        self.stamp_pass(&mut rec, false, x0, StampMode::dc());
        let mut g: CsrMatrix = csr_pattern(dim, positions.clone()).ok_or_else(unbuildable)?;
        let mut split: CsrMatrix<Complex64> =
            csr_pattern(dim, positions).ok_or_else(unbuildable)?;
        // Linear elements first: their real parts are `G`, and their
        // stamps' right-hand sides are the sources.
        let mut b_dc = vec![0.0; dim];
        let mut sources = Vec::new();
        let mut out = AcStamper::sparse(&mut split, &mut ac_rhs, self.n_nodes);
        for (idx, e) in self.ckt.elements().enumerate() {
            if e.is_nonlinear() {
                continue;
            }
            e.stamp_ac(x0, self.branch_bases[idx], 1.0, &mut out);
            if e.is_time_varying() {
                sources.push((idx, e));
            } else {
                let ctx = self.ctx(idx, &[], StampMode::dc());
                e.stamp(&ctx, &mut Stamper::rhs_only(&mut b_dc, self.n_nodes));
            }
        }
        let missed = out.missed_pattern();
        for (v, z) in g.vals_mut().iter_mut().zip(split.vals()) {
            *v = z.re;
        }
        // Then the nonlinear ones, whose imaginary parts complete `C`.
        let mut out = AcStamper::sparse(&mut split, &mut ac_rhs, self.n_nodes);
        for (idx, e) in self.ckt.elements().enumerate() {
            if e.is_nonlinear() {
                e.stamp_ac(x0, self.branch_bases[idx], 1.0, &mut out);
            }
        }
        if missed || out.missed_pattern() {
            return Err(unbuildable());
        }
        for i in 0..self.n_nodes {
            let slot = g.find(i, i).ok_or_else(unbuildable)?;
            g.vals_mut()[slot] += gmin;
        }
        let c = split.vals().iter().map(|z| z.im).collect();
        Ok(TranForm {
            g,
            c,
            b_dc,
            sources,
        })
    }

    /// The compiled transient form.
    fn tran_form(&self) -> Result<&TranForm<'a>, SpiceError> {
        self.tran.get().ok_or_else(|| SpiceError::Internal {
            message: "transient solve before the transient was initialized".to_string(),
        })
    }

    /// Starts a transient from the converged DC solution `x0`: compiles
    /// the linear part with the conditioning `gmin` on the first call
    /// (counted as `lin_stamp_builds`) and returns the node-space history
    /// `[q_0 | d_0]`: the charge vector `q = C·x0` and `d = C·ẋ = 0`,
    /// since the operating point is at rest.
    pub(crate) fn init_tran(
        &self,
        x0: &[f64],
        gmin: f64,
        tel: &Telemetry,
    ) -> Result<Vec<f64>, SpiceError> {
        if self.tran.get().is_none() {
            let form = self.compile_tran(x0, gmin)?;
            tel.count(|c| c.lin_stamp_builds += 1);
            // `set` fails only if another caller compiled the same form.
            let _ = self.tran.set(form);
        }
        let dim = self.dim();
        let mut state = vec![0.0; 2 * dim];
        self.tran_form()?.charge(x0, &mut state[..dim]);
        Ok(state)
    }

    /// The fixed RHS of a transient solve in `mode` from the history
    /// `[q_n | d_n]` in `state`: `b(t) + (a/dt)·q_n + d_n`, where backward
    /// Euler drops `d_n`. `b(t)` is the summed DC sources plus the
    /// time-varying sources evaluated at the mode's time.
    fn tran_rhs(&self, form: &TranForm<'_>, state: &[f64], mode: StampMode, out: &mut Vec<f64>) {
        out.clone_from(&form.b_dc);
        for &(idx, e) in &form.sources {
            let ctx = self.ctx(idx, &[], mode);
            e.stamp(&ctx, &mut Stamper::rhs_only(out, self.n_nodes));
        }
        if let StampMode::Tran { dt, method, .. } = mode {
            let s = companion_scale(dt, method);
            let (q, d) = state.split_at(self.dim());
            match method {
                Integration::Trapezoidal => {
                    for ((o, &q), &d) in out.iter_mut().zip(q).zip(d) {
                        *o += s * q + d;
                    }
                }
                Integration::BackwardEuler => {
                    for (o, &q) in out.iter_mut().zip(q) {
                        *o += s * q;
                    }
                }
            }
        }
    }

    /// Advances the node-space history over an accepted step of `mode`
    /// that ended at `x`: `q_{n+1} = C·x` by one sparse product, then
    /// `d_{n+1} = (a/dt)·(q_{n+1} − q_n) − d_n` for trapezoidal and the
    /// same without `− d_n` for backward Euler.
    pub(crate) fn advance_history(
        &self,
        x: &[f64],
        prev: &[f64],
        mode: StampMode,
        next: &mut [f64],
    ) -> Result<(), SpiceError> {
        let StampMode::Tran { dt, method, .. } = mode else {
            return Ok(());
        };
        let dim = self.dim();
        let s = companion_scale(dt, method);
        let trapezoidal = method == Integration::Trapezoidal;
        let (q0, d0) = prev.split_at(dim);
        let (q1, d1) = next.split_at_mut(dim);
        self.tran_form()?.charge(x, q1);
        for i in 0..dim {
            d1[i] = s * (q1[i] - q0[i]) - if trapezoidal { d0[i] } else { 0.0 };
        }
        Ok(())
    }

    /// Discovers the Jacobian sparsity pattern and builds the
    /// fixed-pattern CSR matrix and its sparse LU: in DC mode with one
    /// recording stamp pass at `x0`, in transient mode as the compiled
    /// form's pattern. Returns `None` when a pattern cannot be built; the
    /// caller then disables the sparse path.
    fn build_sparse(&self, x0: &[f64], mode: StampMode) -> Option<SparseState> {
        let dim = self.dim();
        let mat = match mode {
            StampMode::Tran { .. } => {
                let mut mat = self.tran.get()?.g.clone();
                mat.clear_vals();
                mat
            }
            StampMode::Dc { .. } => {
                let mut positions = Vec::new();
                let mut scratch = vec![0.0; dim];
                let mut rec = Stamper::pattern(&mut positions, &mut scratch, self.n_nodes);
                self.stamp_pass(&mut rec, false, x0, mode);
                csr_pattern(dim, positions)?
            }
        };
        let lu = SparseLu::new(&mat).ok()?;
        let diag_slots: Option<Vec<usize>> = (0..self.n_nodes).map(|i| mat.find(i, i)).collect();
        Some(SparseState {
            mos_slots: Vec::new(),
            mat,
            lu,
            diag_slots: diag_slots?,
            kind: ModeKind::of(mode),
        })
    }

    /// Binds the value slots of every device-table row's writes in `sp`'s
    /// pattern: once per state a workspace takes, fresh or from the
    /// topology cache. The slots are bound here rather than interned with
    /// the pattern: a cached pattern would need checking against this
    /// system's device nodes on every hit, which costs as much as
    /// binding, since a topology-hash collision must never change
    /// results.
    fn bind_devices(&self, sp: &mut SparseState) {
        sp.mos_slots = self
            .mos
            .iter()
            .map(|dev| dev.bind(|r, c| sp.mat.find(r, c)))
            .collect();
    }

    /// Stamps the elements of `visits` at guess `x` into the CSR values
    /// and `rhs` in order: each MOSFET from its device-table row through
    /// the slots bound by [`System::bind_devices`], every other element
    /// through [`Element::stamp`] into a [`Stamper::sparse`]. Returns
    /// `false` on a pattern miss.
    fn stamp_sparse_visits(
        &self,
        visits: &[Visit<'_>],
        x: &[f64],
        mode: StampMode,
        sp: &mut SparseState,
        rhs: &mut [f64],
    ) -> bool {
        let mut hit = true;
        for &visit in visits {
            match visit {
                Visit::Mos(k) => {
                    hit &= self.mos[k].stamp_channel(&sp.mos_slots[k], x, sp.mat.vals_mut(), rhs);
                }
                Visit::Element(idx, e) => {
                    let mut out = Stamper::sparse(&mut sp.mat, rhs, self.n_nodes);
                    e.stamp(&self.ctx(idx, x, mode), &mut out);
                    hit &= !out.missed_pattern();
                }
            }
        }
        hit
    }

    /// Sparse analogue of [`System::assemble`]: every element in element
    /// order, then gmin, each stamp accumulating directly into its CSR
    /// value slot. Kept out of line: inlined, it grows
    /// [`System::newton_with`] and slows the transient loop.
    #[inline(never)]
    fn assemble_sparse_full(
        &self,
        x: &[f64],
        mode: StampMode,
        gmin: f64,
        sp: &mut SparseState,
        rhs: &mut Vec<f64>,
    ) -> Result<(), AttemptError> {
        sp.mat.clear_vals();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        if !self.stamp_sparse_visits(&self.visits, x, mode, sp, rhs) {
            return Err(AttemptError::PatternMiss);
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        Ok(())
    }

    /// Adds the stamps of the nonlinear elements at guess `x` on top of
    /// the loaded `G + (a/dt)·C`, the MOSFETs' from the device table and
    /// every other one through [`Element::stamp`], in element order.
    fn stamp_sparse_nonlinear(
        &self,
        x: &[f64],
        mode: StampMode,
        sp: &mut SparseState,
        rhs: &mut [f64],
    ) -> Result<(), AttemptError> {
        if !self.stamp_sparse_visits(&self.guess_visits, x, mode, sp, rhs) {
            return Err(AttemptError::PatternMiss);
        }
        Ok(())
    }

    /// Damped Newton iteration using caller-owned buffers.
    ///
    /// A DC solve stamps every element at every iteration, each MOSFET
    /// from its device-table row. A transient solve reads the compiled
    /// linear part ([`TranForm`], built by [`System::init_tran`]) and the
    /// node-space history in `state`: it builds the fixed RHS once per
    /// call, and each iteration loads `G + (a/dt)·C` in one pass over the
    /// matrix values and adds the nonlinear elements' stamps at the
    /// guess on top.
    ///
    /// The workspace keeps the last transient LU under its step key
    /// (`dt` and method). When a solve starts with the key unchanged, a
    /// nonlinear circuit takes its predictor iteration as a chord
    /// (simplified-Newton) step: it loads the Jacobian `J(x₀)` at the
    /// start point as usual, forms `r = rhs − J(x₀)·x₀` with one product
    /// and solves `J_prev·Δ = r` against the kept LU, so `x₁ = x₀ + Δ`.
    /// Every later iteration refactors. A chord step ends the solve only
    /// when its whole update is already inside the convergence band; its
    /// error is then about that update times the relative change of the
    /// Jacobian since the kept factorization. A circuit with no
    /// nonlinear devices keeps its LU for every iteration of every solve
    /// with the key, reducing each step to a substitution; its results
    /// are bit for bit those of refactoring every iteration. A failed
    /// solve drops the kept LU.
    ///
    /// Systems at or above [`NewtonOptions::sparse_threshold`] unknowns
    /// solve through the sparse LU path (fixed-pattern CSR Jacobian,
    /// device-table MOSFET stamps, replayed numeric refactorization — see
    /// DESIGN.md §8). A stamp that misses the cached pattern triggers one
    /// pattern rebuild; a second miss permanently falls back to dense
    /// for this workspace, so correctness never depends on discovery
    /// having seen every position.
    ///
    /// The converged iterate is returned as a view of the workspace's
    /// own vector, valid until the workspace's next solve.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newton_with<'w>(
        &self,
        mode: StampMode,
        x0: &[f64],
        state: &[f64],
        opts: &NewtonOptions,
        analysis: &'static str,
        ws: &'w mut NewtonWorkspace,
        tel: &Telemetry,
    ) -> Result<&'w [f64], SpiceError> {
        // Fine-gated: one Newton solve per transient step means two clock
        // reads per step here, which alone would eat most of the coarse
        // mode's < 2 % overhead budget on step-bound workloads.
        let _t = tel.timer_fine(Phase::NewtonSolve);
        let _span = tel.span_fine("solver", "newton");
        tel.count(|c| {
            c.newton_solves += 1;
            if matches!(mode, StampMode::Tran { .. }) {
                c.lin_stamp_hits += 1;
            }
        });
        let mut rebuilds = 0;
        loop {
            match self.newton_attempt(mode, x0, state, opts, analysis, ws, tel) {
                Ok(()) => return Ok(&ws.x),
                Err(AttemptError::Spice(e)) => {
                    // The retry after a failure starts from a fresh
                    // factorization, never from the LU that failed.
                    ws.factored_key = None;
                    return Err(e);
                }
                Err(AttemptError::PatternMiss) => {
                    // An element stamped a position absent from the cached
                    // pattern. Rebuild once from the current guess; a
                    // second miss means the pattern is guess-dependent in
                    // a way discovery can't capture — stay dense. The
                    // topology cache is bypassed from here on: serving the
                    // interned pattern again would just miss again.
                    ws.sparse = None;
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

    /// One Newton solve attempt on either the dense or the sparse path;
    /// on success `ws.x` holds the converged iterate.
    #[allow(clippy::too_many_arguments)]
    fn newton_attempt(
        &self,
        mode: StampMode,
        x0: &[f64],
        state: &[f64],
        opts: &NewtonOptions,
        analysis: &'static str,
        ws: &mut NewtonWorkspace,
        tel: &Telemetry,
    ) -> Result<(), AttemptError> {
        let dim = self.dim();
        if ws.dim != dim {
            ws.dim = dim;
            ws.factored_key = None;
            ws.sparse = None;
        }
        // A transient solve reads the compiled form: its companion scale,
        // its fixed RHS and the step key its LU is kept under.
        let (tran, step_key) = match mode {
            StampMode::Tran { dt, method, .. } => {
                let form = self.tran_form()?;
                self.tran_rhs(form, state, mode, &mut ws.tran_rhs);
                (
                    Some((form, companion_scale(dt, method))),
                    Some((dt.to_bits(), method)),
                )
            }
            StampMode::Dc { .. } => (None, None),
        };
        let use_sparse = !ws.sparse_disabled && dim > 0 && dim >= opts.sparse_threshold;
        if use_sparse {
            let fresh = matches!(&ws.sparse,
                Some(sp) if sp.kind == ModeKind::of(mode) && sp.mat.rows() == dim);
            if !fresh {
                let _t = tel.timer(Phase::PatternDiscovery);
                ws.sparse = if opts.cache && !ws.sparse_cache_bypass {
                    cache::sparse_state_cached(self, x0, mode, tel)
                } else {
                    self.build_sparse(x0, mode)
                };
                ws.factored_key = None;
                if let Some(sp) = ws.sparse.as_mut() {
                    tel.count(|c| c.pattern_builds += 1);
                    // A cached pattern of another circuit with the same
                    // topology hash must match the form slot for slot.
                    if tran.is_some_and(|(form, _)| !form.fits(&sp.mat)) {
                        return Err(AttemptError::PatternMiss);
                    }
                    self.bind_devices(sp);
                } else {
                    ws.sparse_disabled = true;
                    tel.count(|c| c.dense_fallbacks += 1);
                    tel.degradation(
                        "sparse-pattern-unbuildable",
                        "sparse solve requested but the Jacobian pattern could \
                         not be built; this workspace stays on the dense path",
                    );
                }
            }
        }
        let run_sparse = use_sparse && ws.sparse.is_some();
        if ws.last_solve_sparse != Some(run_sparse) {
            // The dense/sparse choice flipped; the cached factorization
            // lives in different buffers per path.
            ws.factored_key = None;
            ws.last_solve_sparse = Some(run_sparse);
        }
        if !run_sparse && ws.matrix.rows() != dim {
            // Only the dense path reads it; a sparse workspace never
            // allocates it.
            ws.matrix = DenseMatrix::zeros(dim, dim);
        }

        ws.x.clear();
        ws.x.extend_from_slice(x0);
        ws.x_new.resize(dim, 0.0);
        // Per-attempt residual trajectory: a flight bundle records the
        // *last* attempt's convergence history, not a concatenation of
        // every homotopy rung tried before it.
        tel.trajectory_reset();
        let mut worst = f64::INFINITY;
        for iter in 0..opts.max_iter {
            tel.count(|c| c.newton_iterations += 1);
            let held = step_key.is_some() && ws.factored_key == step_key;
            // A linear circuit's kept LU is its Jacobian's, so it serves
            // every iteration and the loaded matrix stays. A nonlinear
            // circuit's serves only the predictor iteration, as a chord
            // step.
            let keep = held && !self.has_nonlinear;
            let chord = held && iter == 0 && self.has_nonlinear;
            if keep || chord {
                tel.count(|c| c.factor_reuse_hits += 1);
            }
            if run_sparse {
                let Some(sp) = ws.sparse.as_mut() else {
                    return Err(AttemptError::Spice(SpiceError::Internal {
                        message: "sparse solve selected without sparse workspace".to_string(),
                    }));
                };
                match tran {
                    Some((form, s)) => {
                        ws.rhs.clone_from(&ws.tran_rhs);
                        if !keep {
                            form.load(s, sp.mat.vals_mut());
                        }
                        if self.has_nonlinear {
                            self.stamp_sparse_nonlinear(&ws.x, mode, sp, &mut ws.rhs)?;
                        }
                    }
                    None => self.assemble_sparse_full(&ws.x, mode, opts.gmin, sp, &mut ws.rhs)?,
                }
                if chord {
                    sub_product(&sp.mat, &ws.x, &mut ws.rhs);
                } else if !keep {
                    let oc = {
                        let _t = tel.timer_fine(Phase::Refactor);
                        sp.lu.refactor(&sp.mat)?
                    };
                    note_refactor(tel, oc, sp.lu.last_dead_pivot());
                    ws.factored_key = step_key;
                }
                let _t = tel.timer_fine(Phase::BackSubstitute);
                sp.lu.solve_into(&ws.rhs, &mut ws.x_new)?;
                tel.count(|c| c.sparse_solves += 1);
            } else {
                match tran {
                    Some((form, s)) => {
                        ws.rhs.clone_from(&ws.tran_rhs);
                        if !keep {
                            form.load_dense(s, &mut ws.matrix);
                        }
                        if self.has_nonlinear {
                            let mut out = Stamper::new(&mut ws.matrix, &mut ws.rhs, self.n_nodes);
                            self.stamp_pass(&mut out, true, &ws.x, mode);
                        }
                    }
                    None => self.assemble(&ws.x, mode, opts.gmin, &mut ws.matrix, &mut ws.rhs),
                }
                if chord {
                    let m = ws.matrix.as_slice();
                    for (i, r) in ws.rhs.iter_mut().enumerate() {
                        let row = &m[i * dim..(i + 1) * dim];
                        *r -= row.iter().zip(&ws.x).map(|(a, x)| a * x).sum::<f64>();
                    }
                } else if !keep {
                    let _t = tel.timer_fine(Phase::Factor);
                    ws.factors.refactor(&ws.matrix)?;
                    tel.count(|c| c.full_factorizations += 1);
                    ws.factored_key = step_key;
                }
                let _t = tel.timer_fine(Phase::BackSubstitute);
                ws.factors.solve_into(&ws.rhs, &mut ws.x_new)?;
                tel.count(|c| c.dense_solves += 1);
            }
            if chord {
                // The chord solve gave the update; the raw step is `x₀ + Δ`.
                for (xn, x) in ws.x_new.iter_mut().zip(&ws.x) {
                    *xn += x;
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
                return Ok(());
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

    /// Discovers the AC stamp pattern with one recording pass and builds
    /// the fixed-pattern complex CSR matrix plus its sparse LU (symbolic
    /// analysis only; the caller assembles and runs the first numeric
    /// factorization). The union pattern of `G + jωC` is
    /// frequency-independent — every element writes its full footprint
    /// at any `omega` — so one recording serves the whole sweep. The
    /// position set is symmetrized and every diagonal is added
    /// ([`csr_pattern`]). Returns `None` when the
    /// pattern cannot be built; the sweep then stays dense.
    fn build_ac_sparse(&self, x_op: &[f64]) -> Option<AcSparseState> {
        let dim = self.dim();
        let mut positions: Vec<(usize, usize)> = Vec::new();
        let mut scratch_rhs = vec![Complex64::ZERO; dim];
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut stamper = AcStamper::pattern(&mut positions, &mut scratch_rhs, self.n_nodes);
            e.stamp_ac(x_op, self.branch_bases[idx], 1.0, &mut stamper);
        }
        let mat: CsrMatrix<Complex64> = csr_pattern(dim, positions)?;
        let lu = SparseLu::new(&mat).ok()?;
        let diag_slots: Option<Vec<usize>> = (0..self.n_nodes).map(|i| mat.find(i, i)).collect();
        Some(AcSparseState {
            mat,
            lu,
            diag_slots: diag_slots?,
            g: Vec::new(),
            c: Vec::new(),
            rhs: Vec::new(),
        })
    }

    /// The sweep's one stamp pass: stamps every element at `ω = 1` into
    /// the reserved CSR slots, adds gmin to the node diagonals, and splits
    /// the values into `sp.g` (real parts) and `sp.c` (imaginary parts),
    /// with the excitation in `sp.rhs`. By the [`Element::stamp_ac`]
    /// contract every point of the sweep is then
    /// [`AcSparseState::load`]`(ω)`. Returns `false` on a pattern miss
    /// (an element wrote a position absent from the recorded pattern).
    fn assemble_ac_sparse(&self, x_op: &[f64], gmin: f64, sp: &mut AcSparseState) -> bool {
        sp.mat.clear_vals();
        sp.rhs.clear();
        sp.rhs.resize(self.dim(), Complex64::ZERO);
        let mut stamper = AcStamper::sparse(&mut sp.mat, &mut sp.rhs, self.n_nodes);
        for (idx, e) in self.ckt.elements().enumerate() {
            e.stamp_ac(x_op, self.branch_bases[idx], 1.0, &mut stamper);
        }
        if stamper.missed_pattern() {
            return false;
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += Complex64::from_real(gmin);
        }
        sp.g = sp.mat.vals().iter().map(|z| z.re).collect();
        sp.c = sp.mat.vals().iter().map(|z| z.im).collect();
        true
    }
}

/// Sparse AC sweep state: the fixed-pattern complex matrix, its complex
/// LU (pivot order frozen at the sweep's reference frequency), the
/// node-diagonal slots for gmin, and the sweep's one stamp split into
/// `G` and `C` value arrays parallel to the CSR values.
///
/// `Clone` matters: the sweep factors one reference state, then every
/// parallel worker clones it — same frozen pivot order and the same
/// `G`/`C` everywhere — and replays numeric refactorizations per
/// frequency point.
#[derive(Debug, Clone)]
pub(crate) struct AcSparseState {
    /// Fixed-pattern complex MNA matrix; only `vals` change per point.
    mat: CsrMatrix<Complex64>,
    /// Complex sparse LU with a replay-only refactorization path.
    lu: SparseLu<Complex64>,
    /// Value-slot of each node diagonal, for the gmin stamp.
    diag_slots: Vec<usize>,
    /// Real parts of the stamp (conductances, incidences, gmin).
    g: Vec<f64>,
    /// Imaginary parts of the stamp at `ω = 1` (capacitances,
    /// inductances).
    c: Vec<f64>,
    /// Excitation RHS; independent of `ω`.
    rhs: Vec<Complex64>,
}

impl AcSparseState {
    /// Writes the matrix values at angular frequency `omega`:
    /// `vals = G + jωC`.
    fn load(&mut self, omega: f64) {
        for ((v, &g), &c) in self.mat.vals_mut().iter_mut().zip(&self.g).zip(&self.c) {
            *v = Complex64::new(g, omega * c);
        }
    }
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

/// `r −= A·x`: the chord step's residual against the loaded Jacobian.
fn sub_product(a: &CsrMatrix, x: &[f64], r: &mut [f64]) {
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.vals());
    for (row, ri) in r.iter_mut().enumerate() {
        *ri -= (row_ptr[row]..row_ptr[row + 1])
            .map(|k| vals[k] * x[col_idx[k]])
            .sum::<f64>();
    }
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
pub(crate) mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::Arc;

    /// The dense `G + (a/dt)·C` and fixed RHS a transient solve in `mode`
    /// loads from the history `state`.
    pub(crate) fn companion(
        sys: &System<'_>,
        state: &[f64],
        mode: StampMode,
    ) -> (DenseMatrix, Vec<f64>) {
        let StampMode::Tran { dt, method, .. } = mode else {
            panic!("companion of a DC mode")
        };
        let form = sys.tran_form().expect("initialized transient");
        let mut m = DenseMatrix::zeros(sys.dim(), sys.dim());
        form.load_dense(companion_scale(dt, method), &mut m);
        let mut rhs = Vec::new();
        sys.tran_rhs(form, state, mode, &mut rhs);
        (m, rhs)
    }

    fn tran_mode(time: f64, dt: f64, method: Integration) -> StampMode {
        StampMode::Tran { time, dt, method }
    }

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
        // Transient history: charges and `C·ẋ`, one entry per unknown each.
        let state = sys.init_tran(&[0.0; 4], 1e-12, &Telemetry::disabled());
        assert_eq!(state.unwrap().len(), 8);
    }

    fn card(mos_type: MosType, cj: f64) -> MosParams {
        MosParams {
            mos_type,
            w: 10e-6,
            l: 0.18e-6,
            vth0: 0.45,
            kp: 170e-6,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj,
            ldiff: 0.5e-6,
        }
    }

    /// Largest relative distance allowed between a compiled entry and its
    /// literal value: the two sum the same terms in different orders.
    const LITERAL_REL_ERR: f64 = 1e-14;

    fn assert_close(got: f64, want: f64, what: &str) {
        assert!(
            (got - want).abs() <= LITERAL_REL_ERR * want.abs().max(1e-3),
            "{what}: compiled {got:e}, literal {want:e}"
        );
    }

    /// The compiled transient form against literal companion values, for
    /// one element of every builtin kind: `G + (a/dt)·C` and the fixed RHS
    /// `b(t) + (a/dt)·C·x_n` (`d_0 = 0` after initialization) for both
    /// methods at two step sizes, then three trapezoidal history steps on
    /// one capacitor against its hand-computed companion current.
    #[test]
    fn compiled_form_matches_literal_companions() {
        let mut ckt = Circuit::new();
        let [n1, n2, n3, n4, n5] = ["n1", "n2", "n3", "n4", "n5"].map(|n| ckt.node(n));
        let gnd = Circuit::GROUND;
        let (r, c1, l, v1, i1, gain, gm) = (1e3, 2e-12, 1e-9, 1.2, 1e-3, 3.0, 1e-3);
        let pwl = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]);
        let (nmos, pmos) = (card(MosType::Nmos, 1.0e-3), card(MosType::Pmos, 0.0));
        let diode = DiodeParams {
            cj0: 50e-15,
            ..DiodeParams::default()
        };
        ckt.add(Resistor::new("R1", n1, n2, r));
        ckt.add(Capacitor::new("C1", n2, gnd, c1));
        ckt.add(Inductor::new("L1", n2, n3, l));
        ckt.add(Vsource::dc("V1", n1, gnd, v1));
        ckt.add(Vsource::new("V2", n4, gnd, pwl.clone()));
        ckt.add(Isource::dc("I1", n3, gnd, i1));
        ckt.add(Vcvs::new("E1", n5, gnd, n2, n3, gain));
        ckt.add(Vccs::new("G1", n3, gnd, n4, gnd, gm));
        ckt.add(Mosfet::new("M1", n5, n4, gnd, gnd, nmos.clone()));
        ckt.add(Mosfet::new("M2", n3, n2, n1, n1, pmos.clone()));
        ckt.add(Diode::new("D1", n3, n5, diode.clone()));
        let sys = System::new(&ckt);
        let dim = sys.dim();
        // Unknowns: five nodes, then the branches of L1, V1, V2 and E1.
        let (b_l, b_v1, b_v2, b_e) = (5, 6, 7, 8);
        assert_eq!(dim, 9);
        let gmin = 1e-3;
        let x_prev: Vec<f64> = (0..dim).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        let state = sys
            .init_tran(&x_prev, gmin, &Telemetry::disabled())
            .unwrap();

        // Literal `G`.
        let mut g = DenseMatrix::zeros(dim, dim);
        let stamp2 = |m: &mut DenseMatrix, p: Option<usize>, q: Option<usize>, v: f64| {
            for (a, b, sign) in [(p, p, 1.0), (q, q, 1.0), (p, q, -1.0), (q, p, -1.0)] {
                if let (Some(a), Some(b)) = (a, b) {
                    m[(a, b)] += sign * v;
                }
            }
        };
        stamp2(&mut g, Some(0), Some(1), 1.0 / r);
        for (a, b, v) in [
            (1, b_l, 1.0),
            (2, b_l, -1.0),
            (b_l, 1, 1.0),
            (b_l, 2, -1.0),
            (0, b_v1, 1.0),
            (b_v1, 0, 1.0),
            (3, b_v2, 1.0),
            (b_v2, 3, 1.0),
            (4, b_e, 1.0),
            (b_e, 4, 1.0),
            (b_e, 1, -gain),
            (b_e, 2, gain),
            (2, 3, gm),
        ] {
            g[(a, b)] += v;
        }
        for i in 0..5 {
            g[(i, i)] += gmin;
        }
        // Literal capacitances `(p, q, c)`; M2's zero junction is left out.
        let caps = [
            (Some(1), None, c1),
            (Some(3), None, nmos.cgs()),
            (Some(3), Some(4), nmos.cgd()),
            (Some(4), None, nmos.cjunc()),
            (Some(1), Some(0), pmos.cgs()),
            (Some(1), Some(2), pmos.cgd()),
            (Some(2), Some(4), diode.cj0),
        ];
        let v = |x: &[f64], n: Option<usize>| n.map_or(0.0, |i| x[i]);
        for method in [Integration::Trapezoidal, Integration::BackwardEuler] {
            for dt in [1e-12, 3e-12] {
                let t = 0.25e-9;
                let (m, rhs) = companion(&sys, &state, tran_mode(t, dt, method));
                let a = if method == Integration::Trapezoidal {
                    2.0
                } else {
                    1.0
                };
                let mut want = g.clone();
                let mut want_rhs = vec![0.0; dim];
                for &(p, q, c) in &caps {
                    let geq = a * c / dt;
                    stamp2(&mut want, p, q, geq);
                    let ieq = geq * (v(&x_prev, p) - v(&x_prev, q));
                    if let Some(p) = p {
                        want_rhs[p] += ieq;
                    }
                    if let Some(q) = q {
                        want_rhs[q] -= ieq;
                    }
                }
                // Inductor branch row `v_a − v_b − (a·L/dt)·i`, with the
                // history `−(a·L/dt)·i_n` (its `v_n` term is `d_0 = 0`).
                want[(b_l, b_l)] -= a * l / dt;
                want_rhs[b_l] -= a * l / dt * x_prev[b_l];
                want_rhs[b_v1] += v1;
                want_rhs[b_v2] += pwl.eval(t);
                want_rhs[2] -= i1;
                let what = format!("{method:?} dt {dt:e}");
                for i in 0..dim {
                    for j in 0..dim {
                        assert_close(m[(i, j)], want[(i, j)], &format!("{what} ({i},{j})"));
                    }
                    assert_close(rhs[i], want_rhs[i], &format!("{what} rhs {i}"));
                }
            }
        }

        // Three trapezoidal steps of changing size on one capacitor: the
        // history carries its companion current `i_{n+1} = geq·Δv − i_n`.
        let mut one = Circuit::new();
        let a = one.node("a");
        one.add(Resistor::new("R1", a, gnd, r));
        one.add(Capacitor::new("C1", a, gnd, c1));
        let sys = System::new(&one);
        let mut state = sys.init_tran(&[0.3], 0.0, &Telemetry::disabled()).unwrap();
        let (mut v_prev, mut i_prev) = (0.3, 0.0);
        for (dt, v_new) in [(1e-12, 0.5), (2e-12, 0.2), (0.5e-12, 0.9)] {
            let mode = tran_mode(1e-9, dt, Integration::Trapezoidal);
            let geq = 2.0 * c1 / dt;
            let (m, rhs) = companion(&sys, &state, mode);
            assert_close(m[(0, 0)], 1.0 / r + geq, "matrix");
            assert_close(rhs[0], geq * v_prev + i_prev, "history current");
            let mut next = vec![0.0; 2];
            sys.advance_history(&[v_new], &state, mode, &mut next)
                .unwrap();
            let i_new = geq * (v_new - v_prev) - i_prev;
            assert_close(next[1], i_new, "companion current");
            (v_prev, i_prev, state) = (v_new, i_new, next);
        }
    }

    /// MOSFETs of both polarities with each terminal on ground in turn,
    /// one body tied to its source and one gate tied to its drain (where
    /// two channel writes share a slot, so their order shows), between
    /// linear elements, a branch, a PWL current source and a diode that
    /// keep the generic path.
    fn table_circuit() -> Circuit {
        use MosType::{Nmos, Pmos};
        let mut ckt = Circuit::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| ckt.node(n));
        let gnd = Circuit::GROUND;
        let cj = 1.0e-3;
        ckt.add(Resistor::new("R1", a, b, 1e3));
        ckt.add(Mosfet::new("M1", a, b, c, d, card(Nmos, cj)));
        ckt.add(Mosfet::new("M2", b, c, d, d, card(Pmos, cj)));
        ckt.add(Capacitor::new("C1", c, gnd, 20e-15));
        let ramp = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 2e-3)]);
        ckt.add(Isource::new("I1", a, gnd, ramp));
        ckt.add(Mosfet::new("M3", gnd, a, b, c, card(Nmos, cj)));
        ckt.add(Mosfet::new("M4", c, gnd, a, b, card(Pmos, cj)));
        ckt.add(Vsource::dc("V1", d, gnd, 1.0));
        ckt.add(Mosfet::new("M5", a, b, gnd, c, card(Pmos, cj)));
        ckt.add(Mosfet::new("M6", b, d, a, gnd, card(Nmos, cj)));
        ckt.add(Diode::new("D1", b, c, DiodeParams::default()));
        ckt.add(Mosfet::new("M7", c, c, d, gnd, card(Nmos, cj)));
        ckt.add(Mosfet::new("M8", d, a, c, d, card(Pmos, cj)));
        ckt
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Two guesses on [`table_circuit`] under which every MOSFET conducts
    /// at least once and both polarities conduct in both drain/source
    /// orientations (checked here).
    fn table_guesses(ckt: &Circuit) -> [[f64; 5]; 2] {
        let guesses = [[0.15, 0.8, 0.45, 1.05, 0.0], [0.8, 0.15, 1.7, 1.05, 0.0]];
        let mut seen = Vec::new();
        for m in ckt.elements().filter_map(|e| e.as_mosfet()) {
            let [d, _, s, _] = m.nodes()[..] else {
                unreachable!("a MOSFET has four terminals")
            };
            let p = m.params().mos_type.polarity();
            let on: Vec<_> = guesses
                .iter()
                .filter(|x| m.small_signal(*x).gm > 0.0)
                .collect();
            assert!(!on.is_empty(), "{} never conducts", m.name());
            for x in on {
                let v = |n: NodeId| n.index().map_or(0.0, |i| x[i]);
                seen.push((m.params().mos_type, p * (v(d) - v(s)) < 0.0));
            }
        }
        for mos_type in [MosType::Nmos, MosType::Pmos] {
            for swapped in [false, true] {
                assert!(
                    seen.contains(&(mos_type, swapped)),
                    "{mos_type:?} {swapped}"
                );
            }
        }
        guesses
    }

    /// The sparse transient guess-dependent pass stamps the MOSFETs from
    /// the device table and everything else through `stamp`; on top of
    /// the loaded `G + (a/dt)·C`, the CSR values and RHS it leaves must
    /// equal those of the generic pass bit for bit, at guesses that put
    /// every MOSFET in both drain/source orientations.
    #[test]
    fn table_passes_match_generic_stamping_bit_for_bit() {
        let ckt = table_circuit();
        let sys = System::new(&ckt);
        assert_eq!(sys.mos.len(), 8);
        let n = sys.n_nodes();
        let guesses = table_guesses(&ckt);
        let state = sys
            .init_tran(&guesses[0], 1e-12, &Telemetry::disabled())
            .unwrap();
        let mode = tran_mode(1e-9, 5e-12, Integration::Trapezoidal);
        let form = sys.tran_form().unwrap();
        let mut sp = sys.build_sparse(&guesses[0], mode).unwrap();
        sys.bind_devices(&mut sp);
        form.load(2.0 / 5e-12, sp.mat.vals_mut());
        let mut fixed_rhs = Vec::new();
        sys.tran_rhs(form, &state, mode, &mut fixed_rhs);
        for x in &guesses {
            let (mut t, mut g) = (sp.clone(), sp.clone());
            let (mut t_rhs, mut g_rhs) = (fixed_rhs.clone(), fixed_rhs.clone());
            assert!(sys
                .stamp_sparse_nonlinear(x, mode, &mut t, &mut t_rhs)
                .is_ok());
            let mut out = Stamper::sparse(&mut g.mat, &mut g_rhs, n);
            sys.stamp_pass(&mut out, true, x, mode);
            assert!(!out.missed_pattern());
            assert_eq!(bits(t.mat.vals()), bits(g.mat.vals()), "at {x:?}");
            assert_eq!(bits(&t_rhs), bits(&g_rhs), "at {x:?}");
        }
    }

    /// The full DC passes stamp the MOSFETs from the device table, the
    /// sparse one through the bound CSR slots and the dense one through
    /// the row-major layout. Each must equal generic stamping of every
    /// element through `stamp` plus gmin, bit for bit: at guesses that
    /// put every MOSFET in both drain/source orientations, under source
    /// stepping at a time where the PWL source is mid-ramp, at two gmin
    /// values.
    #[test]
    fn full_passes_match_generic_stamping_bit_for_bit() {
        let ckt = table_circuit();
        let sys = System::new(&ckt);
        let (n, dim) = (sys.n_nodes(), sys.dim());
        let mode = StampMode::Dc {
            source_scale: 0.35,
            at_time: Some(0.4e-9),
        };
        let mut sp = sys.build_sparse(&vec![0.0; dim], mode).unwrap();
        sys.bind_devices(&mut sp);
        for x in &table_guesses(&ckt) {
            for gmin in [1e-12, 1e-3] {
                let what = format!("at {x:?}, gmin {gmin:e}");
                let (mut t, mut t_rhs) = (sp.clone(), Vec::new());
                assert!(sys
                    .assemble_sparse_full(x, mode, gmin, &mut t, &mut t_rhs)
                    .is_ok());
                let (mut g, mut g_rhs) = (sp.clone(), vec![0.0; dim]);
                let mut out = Stamper::sparse(&mut g.mat, &mut g_rhs, n);
                sys.stamp_pass(&mut out, false, x, mode);
                assert!(!out.missed_pattern());
                for &s in &g.diag_slots {
                    g.mat.vals_mut()[s] += gmin;
                }
                assert_eq!(bits(t.mat.vals()), bits(g.mat.vals()), "sparse {what}");
                assert_eq!(bits(&t_rhs), bits(&g_rhs), "sparse rhs {what}");

                let (mut t, mut t_rhs) = (DenseMatrix::zeros(dim, dim), Vec::new());
                sys.assemble(x, mode, gmin, &mut t, &mut t_rhs);
                let (mut g, mut g_rhs) = (DenseMatrix::zeros(dim, dim), vec![0.0; dim]);
                sys.stamp_pass(&mut Stamper::new(&mut g, &mut g_rhs, n), false, x, mode);
                for i in 0..n {
                    g[(i, i)] += gmin;
                }
                assert_eq!(bits(t.as_slice()), bits(g.as_slice()), "dense {what}");
                assert_eq!(bits(&t_rhs), bits(&g_rhs), "dense rhs {what}");
            }
        }
    }

    /// A transient solve starts with a chord step exactly when the
    /// workspace holds the LU of a successful solve with the same `dt`
    /// and method: not on the first solve, not after a `dt` or method
    /// change, a DC solve or a failed solve. On both LU paths.
    #[test]
    fn a_chord_step_needs_the_step_key_of_a_successful_solve() {
        let ckt = junction_circuit(1.0e-3);
        let sys = System::new(&ckt);
        let drain = ckt.find_node("junction_d").unwrap().index().unwrap();
        let tel = Telemetry::disabled();
        for threshold in [usize::MAX, 1] {
            let opts = NewtonOptions {
                sparse_threshold: threshold,
                ..NewtonOptions::default()
            };
            let one_iteration = NewtonOptions {
                max_iter: 1,
                ..opts
            };
            let x_op = op::solve_system(&sys, &opts, Some(0.0), &tel).unwrap();
            let state = sys.init_tran(&x_op, opts.gmin, &tel).unwrap();
            let mut ws = NewtonWorkspace::new();
            // Whether a solve from the operating point with the drain moved
            // by `kick` converged, and how many chord steps it took.
            let mut solve = |mode, opts: &NewtonOptions, kick: f64| {
                let mut x0 = x_op.clone();
                x0[drain] += kick;
                let tel = Telemetry::enabled();
                let ok = sys
                    .newton_with(mode, &x0, &state, opts, "test", &mut ws, &tel)
                    .is_ok();
                (ok, tel.report().counters.factor_reuse_hits)
            };
            let trap = |dt| tran_mode(dt, dt, Integration::Trapezoidal);
            let be = |dt| tran_mode(dt, dt, Integration::BackwardEuler);
            let steps = [
                (solve(trap(1e-12), &opts, 0.1), (true, 0)),
                (solve(trap(1e-12), &opts, 0.1), (true, 1)),
                (solve(trap(2e-12), &opts, 0.1), (true, 0)),
                (solve(trap(2e-12), &opts, 0.1), (true, 1)),
                (solve(be(2e-12), &opts, 0.1), (true, 0)),
                (solve(be(2e-12), &one_iteration, 0.3), (false, 1)),
                (solve(be(2e-12), &opts, 0.1), (true, 0)),
                (solve(be(2e-12), &opts, 0.1), (true, 1)),
                (solve(StampMode::dc(), &opts, 0.1), (true, 0)),
                (solve(be(2e-12), &opts, 0.1), (true, 0)),
                (solve(be(2e-12), &opts, 0.1), (true, 1)),
            ];
            for (k, (got, want)) in steps.into_iter().enumerate() {
                assert_eq!(got, want, "threshold {threshold}, solve {k}");
            }
        }
    }

    /// Gate capacitor between `g` and `d` plus a MOSFET whose drain and
    /// body meet only through its junction capacitance.
    fn junction_circuit(cj: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let [g, d, b] = ["junction_g", "junction_d", "junction_b"].map(|n| ckt.node(n));
        ckt.add(Vsource::dc("VG", g, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("RD", g, d, 1e3));
        ckt.add(Resistor::new("RB", b, Circuit::GROUND, 1e3));
        ckt.add(Mosfet::new(
            "M1",
            d,
            g,
            Circuit::GROUND,
            b,
            card(MosType::Nmos, cj),
        ));
        ckt
    }

    /// The transient Jacobian pattern is the compiled form's, which holds
    /// every capacitance position even for a zero capacitance, so two
    /// circuits that share a topology hash share it. A cached pattern that
    /// differs from the form anyway (here a DC pattern, which lacks the
    /// drain-body junction position, interned under the transient key)
    /// must be rejected as a pattern miss and rebuilt from the form, and
    /// the run must match one that never saw the cache.
    #[test]
    fn a_cached_transient_pattern_unlike_the_form_is_rebuilt() {
        let (without, with) = (junction_circuit(0.0), junction_circuit(1.0e-3));
        assert_eq!(without.topology_hash(), with.topology_hash());
        let (sys, other) = (System::new(&with), System::new(&without));
        let x = vec![0.0; sys.dim()];
        let tel = Telemetry::disabled();
        sys.init_tran(&x, 1e-12, &tel).unwrap();
        other.init_tran(&x, 1e-12, &tel).unwrap();
        let mode = tran_mode(1e-12, 1e-12, Integration::Trapezoidal);
        let tight = sys.build_sparse(&x, StampMode::dc()).unwrap();
        let form = sys.tran_form().unwrap();
        assert!(form.fits(&other.build_sparse(&x, mode).unwrap().mat));
        assert!(!form.fits(&tight.mat));

        let key = cache::topology_key(&sys, cml_cache::ArtifactKind::TranPattern);
        cml_cache::intern::insert(
            key,
            Arc::new(SparseState {
                kind: ModeKind::Tran,
                ..tight
            }),
        );
        let config = TranConfig::new(50e-12, 1e-12);
        let tel = Telemetry::enabled();
        let cached = tran::run_traced(&with, &config, &tel).unwrap();
        assert_eq!(tel.report().counters.pattern_rebuilds, 1);
        let mut cold = config.clone();
        cold.newton.cache = false;
        let cold = tran::run(&with, &cold).unwrap();
        let out = with.find_node("junction_d").unwrap();
        assert_eq!(bits(&cached.voltage(out)), bits(&cold.voltage(out)));
    }
}
