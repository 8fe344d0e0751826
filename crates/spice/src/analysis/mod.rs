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
use crate::devices::mosfet::{self, MosDevice, MosSlots};
use crate::element::{
    AcStamper, Element, Integration, StampCtx, StampMode, StampPart, StampSlots, Stamper,
};
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

/// Cache key identifying a transient Jacobian structure: the
/// guess-independent part of the MNA matrix (linear elements plus the
/// fixed part of nonlinear devices) is fully determined by the step
/// size, the integration method and the conditioning gmin (see
/// [`crate::element::Element::is_nonlinear`]), so it — and on linear
/// circuits its factorization — can be reused across Newton iterations
/// and timesteps that share this key.
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
/// the first factorization), the cached linear-element values, the
/// value slots of every MOSFET's transient writes, and one stamp-pointer
/// cache per assembly-pass shape.
#[derive(Debug, Clone)]
struct SparseState {
    /// Fixed-pattern Jacobian; only `vals` change between solves.
    mat: CsrMatrix,
    /// Sparse LU with replayable refactorization.
    lu: SparseLu,
    /// Cached guess-independent values (linear stamps, fixed device
    /// capacitances, gmin) for the key in `NewtonWorkspace::lin_key`,
    /// parallel to `mat.vals()`.
    lin_vals: Vec<f64>,
    /// Value-slot of each node diagonal, for the gmin stamp.
    diag_slots: Vec<usize>,
    /// Value slots of each device-table row's writes, bound once by the
    /// workspace that takes this state (see [`System::bind_devices`]);
    /// empty in a state fresh from pattern discovery or the topology
    /// cache.
    mos_slots: Vec<MosSlots>,
    /// Matrix writes of one full assembly pass, as recorded by pattern
    /// discovery: the capacity the full-pass stamp-pointer cache is
    /// given.
    writes: usize,
    /// Stamp-pointer caches: full assembly, guess-independent assembly,
    /// and the guess-dependent top-up pass. The two split passes record
    /// only the writes of elements outside the device table.
    slots_full: StampSlots,
    slots_lin: StampSlots,
    slots_nonlin: StampSlots,
    /// Mode family the pattern was discovered under.
    kind: ModeKind,
}

/// One element as the device-table passes visit it.
#[derive(Debug, Clone, Copy)]
enum Visit<'a> {
    /// Row `k` of the device table.
    Mos(usize),
    /// Any other element by index, with the part of its stamp the pass
    /// asks for.
    Element(usize, &'a dyn Element, StampPart),
}

/// One element of a device-table pass ([`System::table_pass`]).
enum TableStamp<'s> {
    /// Row `k` of the device table, with the device's slice of the
    /// previous-step state.
    Mos(usize, &'s MosDevice, &'s [f64]),
    /// Any other element, to stamp the given part of through
    /// [`Element::stamp_part`].
    Element(&'s dyn Element, StampCtx<'s>, StampPart),
}

/// Step size and method of a transient stamp mode; the device-table
/// passes run only in transient mode.
fn tran_step(mode: StampMode) -> Result<(f64, Integration), AttemptError> {
    match mode {
        StampMode::Tran { dt, method, .. } => Ok((dt, method)),
        StampMode::Dc { .. } => Err(AttemptError::Spice(SpiceError::Internal {
            message: "device-table pass outside transient mode".to_string(),
        })),
    }
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
    /// MNA dimension of the last solve; a change drops every cache.
    dim: usize,
    /// Full Jacobian (linear stamps + nonlinear linearizations) on the
    /// dense path; left empty while the workspace solves sparse.
    matrix: DenseMatrix,
    /// Cached guess-independent stamps (linear elements, fixed device
    /// capacitances, gmin), valid for the transient key in `lin_key`;
    /// dense path only, like `matrix`.
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
            dim: 0,
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
    /// The MOSFET device table: every MOSFET's first state slot and row,
    /// in element order. The split transient passes and the state update
    /// read it instead of calling the element (see
    /// [`System::table_pass`]).
    mos: Vec<(usize, MosDevice)>,
    /// Every element in order as the fixed pass and the state update
    /// visit it.
    fixed_visits: Vec<Visit<'a>>,
    /// The nonlinear elements in order as the guess-dependent pass visits
    /// them.
    guess_visits: Vec<Visit<'a>>,
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
        let mut mos = Vec::new();
        let mut fixed_visits = Vec::new();
        let mut guess_visits = Vec::new();
        for (idx, e) in ckt.elements().enumerate() {
            let (fixed, guess) = match e.as_mosfet() {
                Some(m) => {
                    mos.push((state_len, m.device()));
                    let row = Visit::Mos(mos.len() - 1);
                    (row, Some(row))
                }
                None if e.is_nonlinear() => (
                    Visit::Element(idx, e, StampPart::Fixed),
                    Some(Visit::Element(idx, e, StampPart::GuessDependent)),
                ),
                None => (Visit::Element(idx, e, StampPart::Whole), None),
            };
            fixed_visits.push(fixed);
            guess_visits.extend(guess);
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
            mos,
            fixed_visits,
            guess_visits,
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

    /// Stamps part `pass` of every element at guess `x` into `out`, each
    /// with its card override when one is loaded. A `Whole` pass stamps
    /// every element whole. A `Fixed` pass stamps the guess-independent
    /// part of the system: linear elements whole plus the fixed part of
    /// nonlinear ones. A `GuessDependent` pass stamps the rest: the
    /// guess-dependent part of nonlinear elements.
    fn stamp_pass(
        &self,
        out: &mut Stamper<'_>,
        pass: StampPart,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
    ) {
        for (idx, e) in self.ckt.elements().enumerate() {
            // A linear element is guess-independent as a whole.
            let part = match pass {
                StampPart::Whole => StampPart::Whole,
                _ if e.is_nonlinear() => pass,
                StampPart::Fixed => StampPart::Whole,
                StampPart::GuessDependent => continue,
            };
            let ctx = self.ctx(idx, e, x, state, mode);
            match (part, self.cards.get(idx)) {
                (StampPart::Whole, None | Some(None)) => e.stamp(&ctx, out),
                (_, card) => e.stamp_part(&ctx, card.and_then(Option::as_ref), part, out),
            }
        }
    }

    /// Walks the elements in order for one split transient pass (`pass`
    /// is `Fixed` or `GuessDependent`): each MOSFET is handed over as its
    /// device-table row and every other element as in
    /// [`stamp_pass`](Self::stamp_pass), with the part of its stamp the
    /// pass asks for; the guess-dependent pass skips linear elements.
    /// Keeping the element order keeps every value slot's sequence of
    /// additions, so table and generic passes agree bit for bit. The
    /// table holds each device's own card, so card overrides (loaded only
    /// by the batched DC solver) never reach these passes.
    fn table_pass<'s>(
        &'s self,
        pass: StampPart,
        x: &'s [f64],
        state: &'s [f64],
        mode: StampMode,
        mut f: impl FnMut(TableStamp<'s>),
    ) {
        debug_assert!(
            self.cards.is_empty(),
            "device-table pass with card overrides"
        );
        let visits = match pass {
            StampPart::GuessDependent => &self.guess_visits,
            _ => &self.fixed_visits,
        };
        for &visit in visits {
            match visit {
                Visit::Mos(k) => {
                    let (sb, dev) = &self.mos[k];
                    let at = *sb..*sb + mosfet::STATE_SIZE;
                    f(TableStamp::Mos(k, dev, state.get(at).unwrap_or(&[])));
                }
                Visit::Element(idx, e, part) => {
                    f(TableStamp::Element(
                        e,
                        self.ctx(idx, e, x, state, mode),
                        part,
                    ));
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
        self.stamp_pass(&mut out, StampPart::Whole, x, state, mode);
        // Conditioning gmin from every node to ground.
        for i in 0..self.n_nodes {
            matrix[(i, i)] += gmin;
        }
    }

    /// Assembles every guess-independent stamp — linear elements plus the
    /// fixed part of nonlinear devices: matrix, RHS and the conditioning
    /// gmin.
    ///
    /// Passes an *empty* guess slice on purpose: elements reporting
    /// `is_nonlinear() == false`, and the fixed part of those that do,
    /// promise never to read `ctx.x`, and an out-of-bounds panic here is
    /// the loud contract check for a device that breaks the promise.
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
        self.stamp_pass(&mut out, StampPart::Fixed, &[], state, mode);
        for i in 0..self.n_nodes {
            matrix[(i, i)] += gmin;
        }
    }

    /// Re-assembles only the guess-independent RHS (source values,
    /// companion-model history currents of capacitors, inductors and
    /// device capacitances), dropping matrix writes: used when the cached
    /// matrix is still valid but time or state has advanced.
    fn stamp_linear_rhs(&self, state: &[f64], mode: StampMode, rhs: &mut Vec<f64>) {
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        let mut out = Stamper::rhs_only(rhs, self.n_nodes);
        self.stamp_pass(&mut out, StampPart::Fixed, &[], state, mode);
    }

    /// [`stamp_linear_rhs`](Self::stamp_linear_rhs) with the MOSFETs
    /// stamped from the device table: the sparse path's RHS-only pass.
    fn stamp_linear_rhs_table(
        &self,
        state: &[f64],
        mode: StampMode,
        rhs: &mut Vec<f64>,
    ) -> Result<(), AttemptError> {
        let (dt, method) = tran_step(mode)?;
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        self.table_pass(StampPart::Fixed, &[], state, mode, |st| match st {
            TableStamp::Mos(_, dev, state) => {
                dev.stamp_caps(None, state, dt, method, rhs);
            }
            TableStamp::Element(e, ctx, part) => {
                e.stamp_part(&ctx, None, part, &mut Stamper::rhs_only(rhs, self.n_nodes));
            }
        });
        Ok(())
    }

    /// Adds the guess-dependent part of the nonlinear devices (their
    /// linearizations at guess `x`) on top of already-copied
    /// guess-independent stamps.
    fn stamp_nonlinear(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        matrix: &mut DenseMatrix,
        rhs: &mut [f64],
    ) {
        let mut out = Stamper::new(matrix, rhs, self.n_nodes);
        self.stamp_pass(&mut out, StampPart::GuessDependent, x, state, mode);
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
        self.stamp_pass(&mut out, StampPart::Whole, x0, state, mode);
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
            mos_slots: Vec::new(),
            mat,
            lu,
            lin_vals: vec![0.0; nnz],
            diag_slots: diag_slots?,
            writes: n_recorded,
            slots_full: StampSlots::default(),
            slots_lin: StampSlots::default(),
            slots_nonlin: StampSlots::default(),
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
            .map(|(_, dev)| dev.bind(|r, c| sp.mat.find(r, c)))
            .collect();
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
        self.stamp_pass(&mut out, StampPart::Whole, x, state, mode);
        if sp.slots_full.missing() {
            return Err(AttemptError::PatternMiss);
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        Ok(())
    }

    /// Sparse analogue of [`System::assemble_linear`], with the MOSFETs
    /// stamped from the device table; passes the same empty guess slice
    /// as the loud linearity-contract check.
    fn assemble_sparse_linear(
        &self,
        state: &[f64],
        mode: StampMode,
        gmin: f64,
        sp: &mut SparseState,
        rhs: &mut Vec<f64>,
    ) -> Result<(), AttemptError> {
        let (dt, method) = tran_step(mode)?;
        sp.mat.clear_vals();
        rhs.clear();
        rhs.resize(self.dim(), 0.0);
        sp.slots_lin.begin_pass();
        let mut hit = true;
        self.table_pass(StampPart::Fixed, &[], state, mode, |st| match st {
            TableStamp::Mos(k, dev, state) => {
                let mat = Some((&sp.mos_slots[k], sp.mat.vals_mut()));
                hit &= dev.stamp_caps(mat, state, dt, method, rhs);
            }
            TableStamp::Element(e, ctx, part) => {
                let mut out = Stamper::sparse(&mut sp.mat, &mut sp.slots_lin, rhs, self.n_nodes);
                e.stamp_part(&ctx, None, part, &mut out);
            }
        });
        if !hit || sp.slots_lin.missing() {
            return Err(AttemptError::PatternMiss);
        }
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        Ok(())
    }

    /// Sparse analogue of [`System::stamp_nonlinear`]: tops up the copied
    /// guess-independent values with the nonlinear-device linearizations
    /// at `x`, the MOSFETs' from the device table.
    fn stamp_sparse_nonlinear(
        &self,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        sp: &mut SparseState,
        rhs: &mut [f64],
    ) -> Result<(), AttemptError> {
        sp.slots_nonlin.begin_pass();
        let mut hit = true;
        self.table_pass(StampPart::GuessDependent, x, state, mode, |st| match st {
            TableStamp::Mos(k, dev, _) => {
                hit &= dev.stamp_channel(&sp.mos_slots[k], x, sp.mat.vals_mut(), rhs);
            }
            TableStamp::Element(e, ctx, part) => {
                let mut out = Stamper::sparse(&mut sp.mat, &mut sp.slots_nonlin, rhs, self.n_nodes);
                e.stamp_part(&ctx, None, part, &mut out);
            }
        });
        if !hit || sp.slots_nonlin.missing() {
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
    /// * guess-independent matrix/RHS stamps (linear elements and the
    ///   fixed capacitances of nonlinear devices) are assembled once per
    ///   call instead of once per Newton iteration;
    /// * that matrix is cached across *timesteps* sharing a
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
        reuse: bool,
        tel: &Telemetry,
    ) -> Result<&'w [f64], SpiceError> {
        // Fine-gated: one Newton solve per transient step means two clock
        // reads per step here, which alone would eat most of the coarse
        // mode's < 2 % overhead budget on step-bound workloads.
        let _t = tel.timer_fine(Phase::NewtonSolve);
        let _span = tel.span_fine("solver", "newton");
        tel.count(|c| c.newton_solves += 1);
        let mut rebuilds = 0;
        loop {
            match self.newton_attempt(mode, x0, state, opts, analysis, ws, reuse, tel) {
                Ok(()) => return Ok(&ws.x),
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
        reuse: bool,
        tel: &Telemetry,
    ) -> Result<(), AttemptError> {
        let dim = self.dim();
        if ws.dim != dim {
            ws.dim = dim;
            ws.lin_key = None;
            ws.factored_key = None;
            ws.sparse = None;
        }
        let key = if reuse {
            Self::mat_key(mode, opts.gmin)
        } else {
            None
        };
        let use_sparse = !ws.sparse_disabled && dim > 0 && dim >= opts.sparse_threshold;
        if use_sparse {
            let fresh = matches!(&ws.sparse,
                Some(sp) if sp.kind == ModeKind::of(mode) && sp.mat.rows() == dim);
            if !fresh {
                let _t = tel.timer(Phase::PatternDiscovery);
                ws.sparse = if opts.cache && !ws.sparse_cache_bypass {
                    cache::sparse_state_cached(self, x0, state, mode, tel)
                } else {
                    self.build_sparse(x0, state, mode)
                };
                ws.lin_key = None;
                ws.factored_key = None;
                if let Some(sp) = ws.sparse.as_mut() {
                    self.bind_devices(sp);
                    if key.is_none() {
                        // A state cloned from the topology cache carries
                        // its stamp-pointer caches empty with no capacity;
                        // room for one pass spares the full-pass cache a
                        // regrowth by doubling. The split caches hold only
                        // the writes outside the device table, a small
                        // share of a pass.
                        sp.slots_full.reserve(sp.writes);
                    }
                    tel.count(|c| c.pattern_builds += 1);
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
            // The dense/sparse choice flipped; the linear caches live in
            // different buffers per path, so both keys are stale.
            ws.lin_key = None;
            ws.factored_key = None;
            ws.last_solve_sparse = Some(run_sparse);
        }
        if !run_sparse && ws.matrix.rows() != dim {
            // Only the dense path reads these; a sparse workspace never
            // allocates them.
            ws.matrix = DenseMatrix::zeros(dim, dim);
            ws.lin_matrix = DenseMatrix::zeros(dim, dim);
        }
        if let Some(k) = key {
            if ws.lin_key == Some(k) {
                // Matrix still valid; only sources / companion history
                // moved, and those live purely in the RHS.
                tel.count(|c| c.lin_stamp_hits += 1);
                if run_sparse {
                    self.stamp_linear_rhs_table(state, mode, &mut ws.lin_rhs)?;
                } else {
                    self.stamp_linear_rhs(state, mode, &mut ws.lin_rhs);
                }
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

    /// Writes the next-state arena after a converged transient step,
    /// the MOSFETs' from the device table.
    pub(crate) fn update_state(
        &self,
        x: &[f64],
        state_prev: &[f64],
        mode: StampMode,
        state_next: &mut [f64],
    ) {
        for &visit in &self.fixed_visits {
            match visit {
                Visit::Mos(k) => {
                    let (sb, dev) = &self.mos[k];
                    if let StampMode::Tran { dt, method, .. } = mode {
                        let at = *sb..*sb + mosfet::STATE_SIZE;
                        dev.update_state(
                            x,
                            dt,
                            method,
                            &state_prev[at.clone()],
                            &mut state_next[at],
                        );
                    }
                }
                Visit::Element(idx, e, _) => {
                    let sb = self.state_bases[idx];
                    let ctx = self.ctx(idx, e, x, state_prev, mode);
                    e.update_state(&ctx, &mut state_next[sb..sb + e.state_size()]);
                }
            }
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

    /// Discovers the AC stamp pattern with one recording pass and builds
    /// the fixed-pattern complex CSR matrix plus its sparse LU (symbolic
    /// analysis only; the caller assembles and runs the first numeric
    /// factorization). The union pattern of `G + jωC` is
    /// frequency-independent — every element writes its full footprint
    /// at any `omega` — so one recording serves the whole sweep. As in
    /// [`build_sparse`](Self::build_sparse), the position set is
    /// symmetrized and every diagonal is added. Returns `None` when the
    /// pattern cannot be built; the sweep then stays dense.
    fn build_ac_sparse(&self, x_op: &[f64]) -> Option<AcSparseState> {
        let dim = self.dim();
        let mut positions: Vec<(usize, usize)> = Vec::new();
        let mut scratch_rhs = vec![Complex64::ZERO; dim];
        for (idx, e) in self.ckt.elements().enumerate() {
            let mut stamper = AcStamper::pattern(&mut positions, &mut scratch_rhs, self.n_nodes);
            e.stamp_ac(x_op, self.branch_bases[idx], 1.0, &mut stamper);
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
    use crate::element::DcTransfer;
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

    /// MOSFETs of both polarities with each terminal on ground in turn,
    /// one body tied to its source and one gate tied to its drain (where
    /// two channel writes share a slot, so their order shows), between
    /// linear elements, a branch and a diode that keep the generic path.
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

    /// The three sparse transient passes stamp the MOSFETs from the
    /// device table and everything else through `stamp_part`; the CSR
    /// values and RHS they leave must equal those of the generic passes
    /// bit for bit, for both integration methods and at guesses that put
    /// every MOSFET in both drain/source orientations.
    #[test]
    fn table_passes_match_generic_stamping_bit_for_bit() {
        let ckt = table_circuit();
        let sys = System::new(&ckt);
        assert_eq!(sys.mos.len(), 8);
        let (dim, n) = (sys.dim(), sys.n_nodes());
        let state: Vec<f64> = (0..sys.state_len())
            .map(|i| 0.1 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1e-4 })
            .collect();
        let guesses = [[0.15, 0.8, 0.45, 1.05, 0.0], [0.8, 0.15, 1.7, 1.05, 0.0]];
        // Every MOSFET conducts at one guess at least, and both
        // polarities conduct in both drain/source orientations.
        let mut seen = Vec::new();
        for m in ckt.elements().filter_map(|e| e.as_mosfet()) {
            let DcTransfer::MosChannel { d, s, params, .. } = m.dc_transfer() else {
                unreachable!("a MOSFET's DC transfer is its channel")
            };
            let p = params.mos_type.polarity();
            let on: Vec<_> = guesses
                .iter()
                .filter(|x| m.small_signal(*x).gm > 0.0)
                .collect();
            assert!(!on.is_empty(), "{} never conducts", m.name());
            for x in on {
                let v = |n: NodeId| n.index().map_or(0.0, |i| x[i]);
                seen.push((params.mos_type, p * (v(d) - v(s)) < 0.0));
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
        for method in [Integration::Trapezoidal, Integration::BackwardEuler] {
            let mode = StampMode::Tran {
                time: 1e-9,
                dt: 5e-12,
                method,
            };
            let gmin = 1e-12;
            let mut sp = sys.build_sparse(&guesses[0], &state, mode).unwrap();
            sys.bind_devices(&mut sp);
            // Fixed rebuild.
            let mut table = sp.clone();
            let mut table_rhs = Vec::new();
            assert!(sys
                .assemble_sparse_linear(&state, mode, gmin, &mut table, &mut table_rhs)
                .is_ok());
            let mut generic = sp.clone();
            let mut generic_rhs = vec![0.0; dim];
            let mut out = Stamper::sparse(
                &mut generic.mat,
                &mut generic.slots_lin,
                &mut generic_rhs,
                n,
            );
            sys.stamp_pass(&mut out, StampPart::Fixed, &[], &state, mode);
            assert!(!generic.slots_lin.missing());
            for &s in &generic.diag_slots {
                generic.mat.vals_mut()[s] += gmin;
            }
            assert_eq!(
                bits(table.mat.vals()),
                bits(generic.mat.vals()),
                "{method:?}"
            );
            assert_eq!(bits(&table_rhs), bits(&generic_rhs), "{method:?}");
            // Fixed RHS-only.
            let (mut table_only, mut generic_only) = (Vec::new(), Vec::new());
            assert!(sys
                .stamp_linear_rhs_table(&state, mode, &mut table_only)
                .is_ok());
            sys.stamp_linear_rhs(&state, mode, &mut generic_only);
            assert_eq!(bits(&table_only), bits(&generic_only), "{method:?}");
            assert_eq!(bits(&table_only), bits(&generic_rhs), "{method:?}");
            // Guess-dependent top-up of the fixed values.
            for x in &guesses {
                let (mut t, mut g) = (table.clone(), generic.clone());
                let (mut t_rhs, mut g_rhs) = (table_rhs.clone(), generic_rhs.clone());
                assert!(sys
                    .stamp_sparse_nonlinear(x, &state, mode, &mut t, &mut t_rhs)
                    .is_ok());
                let mut out = Stamper::sparse(&mut g.mat, &mut g.slots_nonlin, &mut g_rhs, n);
                sys.stamp_pass(&mut out, StampPart::GuessDependent, x, &state, mode);
                assert!(!g.slots_nonlin.missing());
                assert_eq!(
                    bits(t.mat.vals()),
                    bits(g.mat.vals()),
                    "{method:?} at {x:?}"
                );
                assert_eq!(bits(&t_rhs), bits(&g_rhs), "{method:?} at {x:?}");
            }
            // State update.
            let (mut table_next, mut generic_next) = (state.clone(), state.clone());
            sys.update_state(&guesses[1], &state, mode, &mut table_next);
            for (idx, e) in ckt.elements().enumerate() {
                let sb = sys.state_bases[idx];
                let ctx = sys.ctx(idx, e, &guesses[1], &state, mode);
                e.update_state(&ctx, &mut generic_next[sb..sb + e.state_size()]);
            }
            assert_eq!(bits(&table_next), bits(&generic_next), "{method:?}");
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

    /// A pattern recorded with `cjunc = 0` lacks the drain-body
    /// position; the device table needs it once `cjunc > 0`, and must
    /// report a pattern miss rather than drop the write. The topology
    /// hash ignores `cj`, so the cached pattern of the first circuit is
    /// served to the second, which then rebuilds and matches a run that
    /// never saw the cache.
    #[test]
    fn a_pattern_without_the_junction_position_misses_and_rebuilds() {
        let (without, with) = (junction_circuit(0.0), junction_circuit(1.0e-3));
        assert_eq!(without.topology_hash(), with.topology_hash());
        let (sys, tight) = (System::new(&with), System::new(&without));
        let mode = StampMode::Tran {
            time: 1e-12,
            dt: 1e-12,
            method: Integration::Trapezoidal,
        };
        let x = vec![0.0; sys.dim()];
        let state = vec![0.0; sys.state_len()];
        let mut sp = tight.build_sparse(&x, &state, mode).unwrap();
        sys.bind_devices(&mut sp);
        let mut rhs = Vec::new();
        let res = sys.assemble_sparse_linear(&state, mode, 1e-12, &mut sp, &mut rhs);
        assert!(matches!(res, Err(AttemptError::PatternMiss)));

        let config = TranConfig::new(50e-12, 1e-12);
        tran::run(&without, &config).unwrap();
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
