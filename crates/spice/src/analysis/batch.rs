//! Batched multi-variant operating points: K parameter variants of one
//! circuit marching through stamping → factorization → Newton in
//! lockstep.
//!
//! Monte-Carlo yield solves the *same circuit* thousands of times with
//! perturbed MOSFET cards. [`op_batch`] takes that circuit once, plus
//! [`ParamColumns`]: per-variant `vth0`/`kp` values of named MOSFETs,
//! column-major. One MNA system, one lint precheck and one sparsity
//! pattern serve every variant. Variants are packed eight at a time into
//! the lanes of an [`F64x8`] (a batch that is not a multiple of eight
//! runs its last group with the tail lanes masked off), and each group's
//! iterates stay lane-packed for its whole lockstep. A stamp program
//! compiled once per pattern assembles every lane at once into a
//! lane-packed CSR matrix: it walks the elements in element order,
//! adding each linear element's recorded writes to all lanes,
//! linearizing each MOSFET's device-table row in all eight lanes at once
//! with lane selects over the scalar square law (the lane channels are
//! read once per group from the rows each variant is loaded into), and
//! stamping any other nonlinear element lane by lane from a scratch copy
//! of its lane's iterate; gmin comes last. Every slot so sums in the
//! scalar assembly's order, and each lane's matrix is bitwise its
//! variant's scalar one. The matrix's pivot order is frozen after the
//! first factorization and replayed across iterations and lane groups. The damped-Newton update
//! and its convergence test run lane-wise on the packed vectors, each
//! lane the scalar arithmetic, and the lockstep tracks convergence **per
//! lane**: a lane that converges freezes while the others keep
//! iterating, and a lane whose frozen pivot dies or whose iterate
//! diverges is quarantined by the masked LU entry point
//! ([`SparseLu::refactor_frozen_masked`]: the sparse LU's one replay
//! kernel, the same one scalar and AC solves run, with a pivot guard
//! that heals dead lanes) and re-solved through the scalar
//! `op::solve_system` homotopy ladder — one bad variant never stalls or
//! corrupts the batch. A variant's cards live in the system's MOSFET
//! device-table rows: loading a variant writes its channels there, the
//! lane channels are read from them, and the ladder stamps from them,
//! sparse or dense. The ladder is
//! also the only degradation: a group whose stamps miss the pattern goes
//! to it whole (the pattern is rebuilt once for the next group), and a
//! batch whose pattern cannot be built or misses twice sends every later
//! variant there. The batch ignores `opts.sparse_threshold`; the ladder
//! honours it. See DESIGN.md §13.
//!
//! Every eviction increments the `lane_fallbacks` counter; batch
//! efficiency shows as `lane_occupancy` / `lane_fallback_rate` in the
//! solver report.

use super::op::solve_system;
use super::{cache, NewtonOptions, SparseState, System, Visit};
use crate::circuit::{Circuit, NodeId};
use crate::devices::mosfet::{check_kp, check_vth0, Channel, LaneChannel, MosParams, MosSlots};
use crate::element::{StampMode, StampWrite, Stamper};
use crate::SpiceError;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{F64x8, LaneScalar, Scalar, SparseLu};
use cml_telemetry::{Phase, Telemetry};
use std::ops::Range;

/// A MOSFET model-card field the batched solver varies per lane. Process
/// corners differ in exactly these two fields, and threshold mismatch
/// moves only `vth0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosField {
    /// Zero-bias threshold magnitude, volts.
    Vth0,
    /// Transconductance parameter `µ·Cox`, A/V².
    Kp,
}

impl MosField {
    fn set(self, card: &mut MosParams, v: f64) {
        match self {
            MosField::Vth0 => card.vth0 = v,
            MosField::Kp => card.kp = v,
        }
    }

    /// The card validation rule of this one field.
    fn check(self, v: f64) -> Result<(), String> {
        match self {
            MosField::Vth0 => check_vth0(v),
            MosField::Kp => check_kp(v),
        }
    }
}

/// Per-variant MOSFET parameters over one circuit, column-major: each
/// column names one MOSFET and one [`MosField`] and holds one value per
/// variant. Fields no column names keep the circuit's own card.
#[derive(Debug, Clone, Default)]
pub struct ParamColumns {
    variants: usize,
    columns: Vec<(String, MosField, Vec<f64>)>,
}

impl ParamColumns {
    /// An empty column set over `variants` variants.
    #[must_use]
    pub fn new(variants: usize) -> Self {
        ParamColumns {
            variants,
            columns: Vec::new(),
        }
    }

    /// Adds the column of `field` on MOSFET `element`; `values` must hold
    /// one entry per variant ([`op_batch`] checks).
    #[must_use]
    pub fn column(mut self, element: &str, field: MosField, values: Vec<f64>) -> Self {
        self.columns.push((element.to_string(), field, values));
        self
    }
}

/// Result of a batched operating-point solve: one solution vector per
/// variant, in input order, plus which variants needed the scalar
/// fallback ladder.
#[derive(Debug, Clone)]
pub struct BatchOpResult {
    solutions: Vec<Vec<f64>>,
    fallbacks: Vec<bool>,
}

impl BatchOpResult {
    /// Number of variants solved.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether the batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// Full MNA solution vector of one variant.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    #[must_use]
    pub fn solution(&self, variant: usize) -> &[f64] {
        &self.solutions[variant]
    }

    /// Node voltage of one variant (0.0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    #[must_use]
    pub fn voltage(&self, variant: usize, node: NodeId) -> f64 {
        super::voltage_from(&self.solutions[variant], node)
    }

    /// Whether this variant was evicted from the lockstep batch and
    /// re-solved through the scalar fallback ladder.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    #[must_use]
    pub fn used_fallback(&self, variant: usize) -> bool {
        self.fallbacks[variant]
    }

    /// How many variants fell back to the scalar path.
    #[must_use]
    pub fn fallback_count(&self) -> usize {
        self.fallbacks.iter().filter(|&&f| f).count()
    }
}

/// Batched operating point of `ckt` over the variants of `cols`. With a
/// non-empty `warm` (one slice per variant) each lane begins its
/// lockstep Newton from its own known nearby solution (typically its
/// corner's nominal operating point) instead of from zero, which is the
/// main throughput lever for Monte-Carlo sweeps of small perturbations.
///
/// # Errors
///
/// [`SpiceError::InvalidConfig`] when a column names no MOSFET of
/// `ckt`, has the wrong length or holds an invalid `vth0`/`kp`, or when
/// `warm` has the wrong shape; otherwise fails when the lint precheck
/// rejects `ckt` or a variant fails even the scalar fallback ladder.
pub fn op_batch(
    ckt: &Circuit,
    cols: &ParamColumns,
    opts: &NewtonOptions,
    warm: &[&[f64]],
    tel: &Telemetry,
) -> Result<BatchOpResult, SpiceError> {
    let res = op_batch_impl(ckt, cols, opts, warm, tel);
    if let Err(e) = &res {
        crate::flight::record_failure(ckt, opts, "op_batch", e, tel);
    }
    res
}

/// The one MNA system of a batch plus its columns resolved to
/// device-table rows; [`Lanes::load`] puts one variant's cards into the
/// rows they vary.
struct Lanes<'a> {
    sys: System<'a>,
    /// `(index into cards, field, values)` of every column.
    cols: Vec<(usize, MosField, &'a [f64])>,
    /// `(device-table row, card)` of every MOSFET a column names, the
    /// card holding the variant last loaded.
    cards: Vec<(usize, MosParams)>,
    /// Every row's channel of its own card, as [`System::new`] built it.
    own: Vec<Channel>,
}

impl<'a> Lanes<'a> {
    /// Resolves and checks `cols` against `ckt`.
    fn new(ckt: &'a Circuit, cols: &'a ParamColumns) -> Result<Self, SpiceError> {
        let invalid = |message: String| SpiceError::InvalidConfig { message };
        let sys = System::new(ckt);
        let mut cards: Vec<(usize, MosParams)> = Vec::new();
        let mut resolved = Vec::with_capacity(cols.columns.len());
        for (name, field, values) in &cols.columns {
            let found = ckt
                .elements()
                .zip(&sys.visits)
                .find(|(e, _)| e.name() == name);
            let Some((mosfet, &Visit::Mos(row))) =
                found.and_then(|(e, visit)| Some((e.as_mosfet()?, visit)))
            else {
                return Err(invalid(format!("batch column on '{name}', not a MOSFET")));
            };
            if values.len() != cols.variants {
                return Err(invalid(format!(
                    "batch column {name}.{field:?} has {} values for {} variants",
                    values.len(),
                    cols.variants
                )));
            }
            // The base card is valid (`Mosfet::new` checks it), so a lane
            // card is valid exactly when its one column value is.
            let card = match cards.iter().position(|&(r, _)| r == row) {
                Some(card) => card,
                None => {
                    cards.push((row, mosfet.params().clone()));
                    cards.len() - 1
                }
            };
            for &v in values {
                field
                    .check(v)
                    .map_err(|m| invalid(format!("batch column {name}.{field:?}: {m}")))?;
            }
            resolved.push((card, *field, values.as_slice()));
        }
        let own = sys.mos.iter().map(|d| d.channel()).collect();
        Ok(Lanes {
            sys,
            cols: resolved,
            cards,
            own,
        })
    }

    /// The system with variant `v`'s cards loaded into the device-table
    /// rows they vary.
    fn load(&mut self, v: usize) -> &System<'a> {
        for &(card, field, values) in &self.cols {
            field.set(&mut self.cards[card].1, values[v]);
        }
        for (row, card) in &self.cards {
            self.sys.mos[*row].set_channel(Channel::of(card));
        }
        &self.sys
    }

    /// Writes every device-table row's channel in each lane of `group`
    /// into `out`: the lane variant's where a column names the device,
    /// the device's own elsewhere and in the lanes past the group.
    fn channels(&mut self, group: Range<usize>, out: &mut Vec<LaneChannel>) {
        out.clear();
        out.extend(self.own.iter().map(LaneChannel::splat));
        for (l, v) in group.enumerate() {
            self.load(v);
            for &(row, _) in &self.cards {
                out[row].set_lane(l, &self.sys.mos[row].channel());
            }
        }
    }
}

/// Why one lockstep linear-solve iteration could not continue.
enum StepFail {
    /// Every still-active lane died; the survivors-so-far stand, the
    /// rest go to the scalar fallback.
    GroupDead,
    /// A stamp missed the cached sparsity pattern; the whole group goes
    /// scalar and the pattern is rebuilt for the next group.
    PatternMiss,
}

/// The lockstep kernel of one batch driver call: the sparse lane state,
/// shared across lane groups so the pattern, stamp program and frozen
/// pivot order amortize over *all* variants, plus the degradation state
/// that sends lanes straight to the scalar ladder.
#[derive(Default)]
struct BatchKernel<'a> {
    sparse: Option<BatchSparse<'a>>,
    /// Set when the pattern could not be built or missed twice: every
    /// later lane goes to the scalar ladder.
    scalar_only: bool,
    pattern_misses: u32,
}

/// One step of a batch's stamp program, in element order.
#[derive(Debug, Clone, Copy)]
enum Op<'a> {
    /// Adds `v` at value slot `slot` in every lane: one matrix write of a
    /// linear element, or the conditioning gmin on a node diagonal.
    Mat(usize, f64),
    /// Adds `v` to RHS row `row` in every lane: one RHS write of a linear
    /// element.
    Rhs(usize, f64),
    /// A nonlinear element, stamped lane by lane at each lane's guess.
    Nonlinear(Visit<'a>),
}

/// The lane state on one sparsity pattern: a lane-packed CSR matrix with
/// a shared-pivot LU, and the stamp program that assembles every lane of
/// it at once.
///
/// The program lists the circuit's elements in element order, then gmin.
/// A linear element's writes do not depend on the guess or the lane, so
/// they are recorded once, write by write, and each adds its value to
/// every lane. A MOSFET is its device-table row, linearized per lane with
/// that lane's [`Channel`]; any other nonlinear element is stamped per
/// lane through [`Element::stamp`](crate::element::Element::stamp).
/// Every slot thus receives its additions in the scalar
/// [`System::assemble_sparse_full`] order, and each lane's matrix and RHS
/// are bitwise that lane's scalar assembly.
struct BatchSparse<'a> {
    /// Lane-packed values on the batch's pattern.
    packed: CsrMatrix<F64x8>,
    /// Shared-pivot LU; pivot order frozen after the first full factor
    /// and replayed (masked) for every later iteration and group.
    lu: SparseLu<F64x8>,
    factored: bool,
    /// The stamp program, compiled once per pattern.
    ops: Vec<Op<'a>>,
    /// Value slots of each device-table row's writes.
    mos_slots: Vec<MosSlots>,
    /// Each device-table row's channel in every lane of the current
    /// group.
    channels: Vec<LaneChannel>,
    /// The recorded writes of one generic stamp.
    writes: Vec<StampWrite>,
    /// Each lane's iterate, unpacked for the generic stamps.
    guesses: Vec<Vec<f64>>,
    packed_rhs: Vec<F64x8>,
    /// Raw lockstep Newton solution before damping.
    packed_x: Vec<F64x8>,
}

impl<'a> BatchKernel<'a> {
    /// One lockstep damped-Newton DC solve over up to `F64x8::LANES`
    /// variants. `xs` holds the lane-packed initial guesses in and the
    /// iterates out. Returns the mask of converged lanes, whose lanes of
    /// `xs` are their solutions; every other lane was quarantined (pivot
    /// death, divergence, iteration exhaustion or a pattern miss), its
    /// lane is garbage, and the caller re-solves it through the scalar
    /// path.
    fn newton_lockstep(
        &mut self,
        lanes: &mut Lanes<'a>,
        group: Range<usize>,
        xs: &mut [F64x8],
        opts: &NewtonOptions,
        tel: &Telemetry,
    ) -> u64 {
        let k = group.len();
        debug_assert!((1..=F64x8::LANES).contains(&k));
        let n_nodes = lanes.sys.n_nodes();
        let _t = tel.timer(Phase::BatchSolve);
        if !self.scalar_only && self.sparse.is_none() {
            let x0: Vec<f64> = xs.iter().map(|x| x.lane(0)).collect();
            self.sparse = BatchSparse::build(lanes.load(group.start), &x0, opts, tel);
            self.scalar_only = self.sparse.is_none();
        }
        let Some(bs) = self.sparse.as_mut() else {
            return 0;
        };
        lanes.channels(group, &mut bs.channels);
        let mut converged_lanes = 0u64;
        let mut active: u64 = (1u64 << k) - 1;
        for _iter in 0..opts.max_iter {
            if active == 0 {
                break;
            }
            tel.count(|c| {
                c.batch_solves += 1;
                c.batch_lane_slots += F64x8::LANES as u64;
                c.batch_lanes_active += u64::from(active.count_ones());
            });
            let newly_dead = match bs.iteration(&lanes.sys, k, xs, active, tel) {
                Ok(d) => d,
                Err(StepFail::GroupDead) => return converged_lanes,
                Err(StepFail::PatternMiss) => {
                    // One rebuild allowance, as in the scalar driver,
                    // then scalar only. Either way this group has a
                    // half-stamped matrix — send it down the ladder.
                    self.sparse = None;
                    self.pattern_misses += 1;
                    tel.count(|c| c.pattern_rebuilds += 1);
                    if self.pattern_misses >= 2 {
                        self.scalar_only = true;
                        tel.degradation(
                            "batch-pattern-scalar-fallback",
                            "batched solve pattern missed twice; every later \
                             variant of this batch goes to the scalar ladder",
                        );
                    }
                    return converged_lanes;
                }
            };
            // Per-lane convergence check + damping, the exact scalar
            // `newton_attempt` update on every live lane at once.
            let live = active & !newly_dead;
            let (failed, damped, non_finite) =
                newton_update_lanes(xs, &bs.packed_x, live, n_nodes, opts);
            active = live & !non_finite;
            let done = active & !failed & !damped;
            converged_lanes |= done;
            active &= !done;
        }
        // Lanes still active exhausted the iteration budget: fallback.
        converged_lanes
    }
}

/// The damped Newton update of `super::newton_update` on every lane of
/// the packed iterate `x` toward the raw solution `x_new` at once, each
/// lane performing exactly the scalar arithmetic. Only the `live` lanes
/// of `x` take the result. Returns the masks of the live lanes that
/// missed a tolerance, that a clamp damped, and whose new iterate holds
/// a non-finite entry.
fn newton_update_lanes(
    x: &mut [F64x8],
    x_new: &[F64x8],
    live: u64,
    n_nodes: usize,
    opts: &NewtonOptions,
) -> (u64, u64, u64) {
    let (mut failed, mut damped, mut non_finite) = (0u64, 0u64, 0u64);
    let (reltol, dust) = (F64x8::splat(opts.reltol), F64x8::splat(1e-15));
    for (i, (xi, &xn)) in x.iter_mut().zip(x_new).enumerate() {
        let delta = xn - *xi;
        let (atol, clamp) = if i < n_nodes {
            (opts.vntol, opts.max_step)
        } else {
            (opts.abstol, f64::INFINITY)
        };
        let tol = F64x8::splat(atol) + reltol * xi.abs().max(xn.abs());
        failed |= delta.abs().mask(tol, |a, b| a > b);
        let next = *xi + delta.clamp(-clamp, clamp);
        damped |= (next - xn).abs().mask(dust, |a, b| a >= b);
        non_finite |= next.non_finite_mask();
        *xi = F64x8::select(live, next, *xi);
    }
    (failed & live, damped & live, non_finite & live)
}

impl<'a> BatchSparse<'a> {
    /// Discovers the sparsity pattern from lane 0 (served from the
    /// topology cache when enabled, so a whole batch — and every batch
    /// after it — derives the symbolic analysis at most once), builds the
    /// lane-packed CSR mirror and compiles the stamp program on it.
    /// `None` when the pattern cannot be built or a linear element writes
    /// outside it: the batch then goes to the scalar ladder.
    fn build(sys: &System<'a>, x0: &[f64], opts: &NewtonOptions, tel: &Telemetry) -> Option<Self> {
        let _t = tel.timer(Phase::PatternDiscovery);
        let built = if opts.cache {
            cache::sparse_state_cached(sys, x0, StampMode::dc(), tel)
        } else {
            sys.build_sparse(x0, StampMode::dc())
        };
        let bs = built.and_then(|mut sp| {
            // Lane 0's slot layout, so scalar value-slot indices
            // transfer directly.
            let dim = sp.mat.rows();
            let packed: CsrMatrix<F64x8> = sp.mat.repacked();
            let lu = SparseLu::new(&packed).ok()?;
            sys.bind_devices(&mut sp);
            let ops = Self::compile(sys, &sp, opts.gmin)?;
            Some(BatchSparse {
                packed,
                lu,
                factored: false,
                ops,
                mos_slots: sp.mos_slots,
                channels: Vec::new(),
                writes: Vec::new(),
                guesses: vec![Vec::new(); F64x8::LANES],
                packed_rhs: vec![F64x8::ZERO; dim],
                packed_x: vec![F64x8::ZERO; dim],
            })
        });
        if bs.is_some() {
            tel.count(|c| c.pattern_builds += 1);
        } else {
            tel.degradation(
                "batch-pattern-unbuildable",
                "batched solve could not build the Jacobian pattern; every \
                 variant of this batch goes to the scalar ladder",
            );
        }
        bs
    }

    /// The stamp program of `sys` on the pattern of `sp`, with `gmin` on
    /// the node diagonals last. A linear element is stamped once, in DC
    /// mode with an empty guess (it promises never to read one), and its
    /// writes are kept one by one: two writes to one slot are never
    /// summed first, which would reassociate the slot's sum. `None` when
    /// a linear write misses the pattern.
    fn compile(sys: &System<'a>, sp: &SparseState, gmin: f64) -> Option<Vec<Op<'a>>> {
        let mut ops = Vec::new();
        let mut writes = Vec::new();
        for &visit in &sys.visits {
            let Visit::Element(idx, e) = visit else {
                ops.push(Op::Nonlinear(visit));
                continue;
            };
            if e.is_nonlinear() {
                ops.push(Op::Nonlinear(visit));
                continue;
            }
            writes.clear();
            let ctx = sys.ctx(idx, &[], StampMode::dc());
            e.stamp(&ctx, &mut Stamper::record(&mut writes, sys.n_nodes()));
            for &w in &writes {
                ops.push(match w {
                    StampWrite::Mat(r, c, v) => Op::Mat(sp.mat.find(r, c)?, v),
                    StampWrite::Rhs(r, v) => Op::Rhs(r, v),
                });
            }
        }
        ops.extend(sp.diag_slots.iter().map(|&s| Op::Mat(s, gmin)));
        Some(ops)
    }

    /// Runs the stamp program at the lane-packed guesses `xs`: zeroes
    /// the packed values and RHS, then adds every op. Only `active`
    /// lanes' nonlinear elements are stamped; the other lanes hold the
    /// linear part and gmin alone. A MOSFET is linearized in all lanes at
    /// once; any other nonlinear element is stamped lane by lane from a
    /// scratch copy of that lane's guess.
    fn assemble(&mut self, sys: &System<'_>, xs: &[F64x8], active: u64) -> Result<(), StepFail> {
        self.packed.clear_vals();
        self.packed_rhs.fill(F64x8::ZERO);
        let lanes = || (0..F64x8::LANES).filter(move |l| active & (1 << l) != 0);
        let mut unpacked = false;
        let mut hit = true;
        for &op in &self.ops {
            match op {
                Op::Mat(s, v) => self.packed.vals_mut()[s] += F64x8::splat(v),
                Op::Rhs(r, v) => self.packed_rhs[r] += F64x8::splat(v),
                Op::Nonlinear(Visit::Mos(k)) => {
                    hit &= sys.mos[k].stamp_lanes(
                        &self.channels[k],
                        &self.mos_slots[k],
                        xs,
                        active,
                        self.packed.vals_mut(),
                        &mut self.packed_rhs,
                    );
                }
                Op::Nonlinear(Visit::Element(idx, e)) => {
                    if !unpacked {
                        for l in lanes() {
                            self.guesses[l].clear();
                            self.guesses[l].extend(xs.iter().map(|x| x.lane(l)));
                        }
                        unpacked = true;
                    }
                    for l in lanes() {
                        self.writes.clear();
                        let ctx = sys.ctx(idx, &self.guesses[l], StampMode::dc());
                        e.stamp(&ctx, &mut Stamper::record(&mut self.writes, sys.n_nodes()));
                        for &w in &self.writes {
                            let (x, v) = match w {
                                StampWrite::Mat(r, c, v) => match self.packed.find(r, c) {
                                    Some(s) => (&mut self.packed.vals_mut()[s], v),
                                    None => {
                                        hit = false;
                                        continue;
                                    }
                                },
                                StampWrite::Rhs(r, v) => (&mut self.packed_rhs[r], v),
                            };
                            x.set_lane(l, x.lane(l) + v);
                        }
                    }
                }
            }
        }
        if hit {
            Ok(())
        } else {
            Err(StepFail::PatternMiss)
        }
    }

    /// One lockstep iteration over a group of `k` lanes: the stamp
    /// program, masked frozen-pivot replay and substitution. Returns the
    /// lanes that died during factorization.
    fn iteration(
        &mut self,
        sys: &System<'_>,
        k: usize,
        xs: &[F64x8],
        active: u64,
        tel: &Telemetry,
    ) -> Result<u64, StepFail> {
        self.assemble(sys, xs, active)?;
        // Before the first full factorization the unused lanes (k..N)
        // hold the linear part alone, which would wreck the shared pivot
        // metric (min over *all* lanes). Mirror lane 0 into them once;
        // after that every replay is masked and ignores non-live lanes.
        if !self.factored && k < F64x8::LANES {
            for v in self.packed.vals_mut() {
                let v0 = v.lane(0);
                for j in k..F64x8::LANES {
                    v.set_lane(j, v0);
                }
            }
        }
        let newly_dead = if self.factored {
            let res = {
                let _t = tel.timer_fine(Phase::Refactor);
                self.lu.refactor_frozen_masked(&self.packed, active)
            };
            match res {
                Ok(d) => {
                    tel.count(|c| c.refactorizations += 1);
                    d
                }
                Err(_) => return Err(StepFail::GroupDead),
            }
        } else {
            let res = {
                let _t = tel.timer_fine(Phase::Refactor);
                self.lu.refactor(&self.packed)
            };
            match res {
                Ok(oc) => {
                    self.factored = true;
                    super::note_refactor(tel, oc, self.lu.last_dead_pivot());
                    0
                }
                Err(_) => return Err(StepFail::GroupDead),
            }
        };
        {
            let _t = tel.timer_fine(Phase::BackSubstitute);
            if self
                .lu
                .solve_into(&self.packed_rhs, &mut self.packed_x)
                .is_err()
            {
                return Err(StepFail::GroupDead);
            }
        }
        tel.count(|c| c.sparse_solves += 1);
        Ok(newly_dead)
    }
}

fn op_batch_impl(
    ckt: &Circuit,
    cols: &ParamColumns,
    opts: &NewtonOptions,
    warm: &[&[f64]],
    tel: &Telemetry,
) -> Result<BatchOpResult, SpiceError> {
    let _span = tel.span("analysis", "batch_op");
    // One lint pass and one MNA system cover the whole batch: variants
    // differ only in parameter values, and the lint passes are
    // connectivity checks.
    {
        let _t = tel.timer(Phase::LintPrecheck);
        cache::lint_precheck_cached(ckt, opts.cache, tel)?;
        tel.count(|c| c.lint_prechecks += 1);
    }
    let mut lanes = Lanes::new(ckt, cols)?;
    let (n, dim) = (cols.variants, lanes.sys.dim());
    if (!warm.is_empty() && warm.len() != n) || warm.iter().any(|w| w.len() != dim) {
        return Err(SpiceError::InvalidConfig {
            message: format!(
                "warm starts must be empty or {n} slices of {dim} entries, got {} slices",
                warm.len()
            ),
        });
    }
    let mut kernel = BatchKernel::default();
    let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut fallbacks = Vec::with_capacity(n);
    let mut xs = vec![F64x8::ZERO; dim];
    for start in (0..n).step_by(F64x8::LANES) {
        let group = start..n.min(start + F64x8::LANES);
        // Each lane starts from its warm start, or from zero without
        // one, as do the lanes past the batch's end.
        for (i, x) in xs.iter_mut().enumerate() {
            *x = F64x8::from_fn(|l| warm.get(start + l).map_or(0.0, |w| w[i]));
        }
        let converged = kernel.newton_lockstep(&mut lanes, group.clone(), &mut xs, opts, tel);
        for (l, v) in group.enumerate() {
            let fell_back = converged & (1 << l) == 0;
            if fell_back {
                tel.count(|c| c.lane_fallbacks += 1);
                solutions.push(solve_system(lanes.load(v), opts, None, tel)?);
            } else {
                solutions.push(xs.iter().map(|x| x.lane(l)).collect());
            }
            fallbacks.push(fell_back);
        }
    }
    Ok(BatchOpResult {
        solutions,
        fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op;
    use crate::element::{AcStamper, Element, StampCtx, Stamper};
    use crate::prelude::*;

    fn solve(ckt: &Circuit, cols: &ParamColumns, opts: &NewtonOptions) -> BatchOpResult {
        op_batch(ckt, cols, opts, &[], &Telemetry::disabled()).unwrap()
    }

    fn nmos_params(vth0: f64, kp: f64) -> MosParams {
        MosParams {
            mos_type: MosType::Nmos,
            w: 10e-6,
            l: 0.18e-6,
            vth0,
            kp,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj: 1.0e-3,
            ldiff: 0.5e-6,
        }
    }

    /// NMOS differential pair with resistor loads and a tail current
    /// source — the transistor-level Monte-Carlo workhorse — with the
    /// given `(vth0, kp)` cards on M1 and M2.
    fn diff_pair(m1: (f64, f64), m2: (f64, f64)) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let outp = ckt.node("outp");
        let outn = ckt.node("outn");
        let tail = ckt.node("tail");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, 0.9));
        ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, 0.9));
        ckt.add(Resistor::new("RL1", vdd, outp, 500.0));
        ckt.add(Resistor::new("RL2", vdd, outn, 500.0));
        let (p1, p2) = (nmos_params(m1.0, m1.1), nmos_params(m2.0, m2.1));
        ckt.add(Mosfet::new("M1", outp, inp, tail, Circuit::GROUND, p1));
        ckt.add(Mosfet::new("M2", outn, inn, tail, Circuit::GROUND, p2));
        ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 2e-3));
        ckt
    }

    const KP: f64 = 170e-6;

    /// `(vth0, kp)` of M1 and of M2.
    type Cards = ((f64, f64), (f64, f64));

    fn nominal() -> Circuit {
        diff_pair((0.45, KP), (0.45, KP))
    }

    /// Per-variant `(vth0, kp)` of M1 and M2 as the four columns.
    fn pair_columns(cards: &[Cards]) -> ParamColumns {
        let col = |f: fn(&Cards) -> f64| cards.iter().map(f).collect();
        ParamColumns::new(cards.len())
            .column("M1", MosField::Vth0, col(|c| c.0 .0))
            .column("M1", MosField::Kp, col(|c| c.0 .1))
            .column("M2", MosField::Vth0, col(|c| c.1 .0))
            .column("M2", MosField::Kp, col(|c| c.1 .1))
    }

    /// A ±`d`/2 threshold split across the pair.
    fn skew(d: f64) -> Cards {
        ((0.45 + d / 2.0, KP), (0.45 - d / 2.0, KP))
    }

    fn assert_matches_scalar(res: &BatchOpResult, cards: &[Cards], opts: &NewtonOptions) {
        for (v, &(m1, m2)) in cards.iter().enumerate() {
            let s = op::solve_with(&diff_pair(m1, m2), opts, None).unwrap();
            for (a, b) in res.solution(v).iter().zip(s.solution()) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "variant {v}: batched {a} vs scalar {b}"
                );
            }
        }
    }

    /// Batch sizes below, at and past one eight-lane group, so the tail
    /// group runs with masked lanes and the kernel is reused across
    /// groups, against the dense and the sparse scalar reference.
    #[test]
    fn variants_match_scalar_every_group_size() {
        for n in [1usize, 7, 8, 9, 17] {
            let cards: Vec<_> = (0..n).map(|i| skew(-10e-3 + 1.5e-3 * i as f64)).collect();
            let res = solve(&nominal(), &pair_columns(&cards), &NewtonOptions::default());
            assert_eq!(res.len(), n);
            assert_eq!(res.fallback_count(), 0);
            for sparse_threshold in [usize::MAX, 1] {
                let opts = NewtonOptions {
                    sparse_threshold,
                    ..NewtonOptions::default()
                };
                assert_matches_scalar(&res, &cards, &opts);
            }
        }
    }

    #[test]
    fn mosfet_variants_match_scalar() {
        let cards = [
            skew(0.0),
            skew(6e-3),
            ((0.45, KP * 1.05), (0.45, KP)),
            ((0.46, KP * 0.9), (0.44, KP * 1.1)),
        ];
        let ckt = nominal();
        let opts = NewtonOptions::default();
        let res = solve(&ckt, &pair_columns(&cards), &opts);
        assert_matches_scalar(&res, &cards, &opts);
        let (outp, outn) = (
            ckt.find_node("outp").unwrap(),
            ckt.find_node("outn").unwrap(),
        );
        let off = |v| res.voltage(v, outp) - res.voltage(v, outn);
        // A symmetric pair has zero offset; a skewed pair does not.
        assert!(off(0).abs() < 1e-9);
        for v in 1..cards.len() {
            assert!(off(v).abs() > 1e-3, "variant {v}: offset {}", off(v));
        }
    }

    /// Columns left out keep the circuit's own card.
    #[test]
    fn unnamed_fields_keep_the_circuit_card() {
        let ckt = diff_pair((0.45, KP), (0.47, KP));
        let cols = ParamColumns::new(2).column("M1", MosField::Vth0, vec![0.45, 0.47]);
        let opts = NewtonOptions::default();
        let res = solve(&ckt, &cols, &opts);
        let cards = [((0.45, KP), (0.47, KP)), ((0.47, KP), (0.47, KP))];
        assert_matches_scalar(&res, &cards, &opts);
    }

    #[test]
    fn warm_start_matches_cold() {
        let cards = [skew(0.0), skew(1e-3), skew(-2e-3)];
        let (ckt, cols) = (nominal(), pair_columns(&cards));
        let opts = NewtonOptions::default();
        let x0 = op::solve(&ckt).unwrap().solution().to_vec();
        let cold = solve(&ckt, &cols, &opts);
        let warm = op_batch(
            &ckt,
            &cols,
            &opts,
            &[x0.as_slice(); 3],
            &Telemetry::disabled(),
        )
        .unwrap();
        for v in 0..3 {
            for (a, b) in warm.solution(v).iter().zip(cold.solution(v)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Eleven skewed pairs, the `sick` ones with `kp` scaled by 1e-6: such
    /// a pair can only carry its tail current with its source near
    /// −124 V, and plain lockstep Newton, at 0.5 V per step, exhausts
    /// `max_iter` on it.
    fn sick_cards(sick: &[usize]) -> Vec<Cards> {
        (0..11)
            .map(|i| {
                let ((v1, k1), (v2, k2)) = skew(1e-3 * i as f64);
                let s = if sick.contains(&i) { 1e-6 } else { 1.0 };
                ((v1, k1 * s), (v2, k2 * s))
            })
            .collect()
    }

    /// A sick lane (see [`sick_cards`]) must fall back to the scalar
    /// homotopy ladder. The healthy lanes converge in lockstep and must
    /// be untouched. One sick lane sits in the full first group, one in
    /// the masked tail group.
    #[test]
    fn lane_falls_back_to_scalar_ladder() {
        let sick = [1, 9];
        let cards = sick_cards(&sick);
        let ckt = nominal();
        let tel = Telemetry::enabled();
        let opts = NewtonOptions::default();
        let res = op_batch(&ckt, &pair_columns(&cards), &opts, &[], &tel).unwrap();
        for v in 0..cards.len() {
            assert_eq!(res.used_fallback(v), sick.contains(&v), "variant {v}");
        }
        let c = tel.report().counters;
        assert_eq!(c.lane_fallbacks, sick.len() as u64);
        assert!(c.batch_solves > 0);
        let tail = ckt.find_node("tail").unwrap();
        for &v in &sick {
            assert!(
                res.voltage(v, tail) < -100.0,
                "variant {v} never left the rail"
            );
        }
        for (v, &(m1, m2)) in cards.iter().enumerate() {
            let s = op::solve_with(&diff_pair(m1, m2), &opts, None).unwrap();
            assert_eq!(res.solution(v), s.solution(), "variant {v}");
        }
    }

    /// An evicted lane re-solved through the dense scalar ladder
    /// (`sparse_threshold = usize::MAX`) stamps its variant's cards from
    /// the device-table rows, so it equals the dense scalar solve of the
    /// circuit built with those cards, bit for bit.
    #[test]
    fn evicted_lane_on_the_dense_ladder_matches_its_circuit_bit_for_bit() {
        let sick = [1, 9];
        let cards = sick_cards(&sick);
        let opts = NewtonOptions {
            sparse_threshold: usize::MAX,
            ..NewtonOptions::default()
        };
        let res = solve(&nominal(), &pair_columns(&cards), &opts);
        assert_eq!(res.fallback_count(), sick.len());
        for v in sick {
            assert!(res.used_fallback(v), "variant {v} stayed in lockstep");
            let (m1, m2) = cards[v];
            let s = op::solve_with(&diff_pair(m1, m2), &opts, None).unwrap();
            assert_eq!(res.solution(v), s.solution(), "variant {v}");
        }
    }

    /// A switch that conducts `a`–`b` only while `v(a) > 0.5 V`: its
    /// stamp positions depend on the Newton guess, so a pattern
    /// discovered at the zero guess misses once the switch closes.
    #[derive(Debug)]
    struct GuessSwitch {
        a: NodeId,
        b: NodeId,
    }

    impl Element for GuessSwitch {
        fn name(&self) -> &str {
            "S1"
        }

        fn nodes(&self) -> Vec<NodeId> {
            vec![self.a, self.b]
        }

        fn is_nonlinear(&self) -> bool {
            true
        }

        fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
            if ctx.v(self.a) > 0.5 {
                out.conductance(self.a.index(), self.b.index(), 1e-3);
            }
        }

        fn stamp_ac(&self, _x_op: &[f64], _bb: usize, _omega: f64, _out: &mut AcStamper<'_>) {}
    }

    /// The pattern misses in the first group and again in the second,
    /// after its rebuild; from then on every lane goes straight to the
    /// scalar ladder, the single-lane third group included.
    #[test]
    fn pattern_misses_send_every_lane_to_the_scalar_ladder() {
        let mut ckt = Circuit::new();
        let (a, b) = (ckt.node("a"), ckt.node("b"));
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(GuessSwitch { a, b });
        ckt.add(Resistor::new("R1", b, Circuit::GROUND, 1e3));
        let n = 17;
        let tel = Telemetry::enabled();
        let opts = NewtonOptions::default();
        let res = op_batch(&ckt, &ParamColumns::new(n), &opts, &[], &tel).unwrap();
        let s = op::solve_with(&ckt, &opts, None).unwrap();
        for v in 0..n {
            assert!(res.used_fallback(v), "variant {v} stayed in lockstep");
            assert_eq!(res.solution(v), s.solution(), "variant {v}");
        }
        assert_eq!(tel.report().counters.lane_fallbacks, n as u64);
    }

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|s| s.to_bits()).collect()
    }

    fn lane_bits(p: &[F64x8], l: usize) -> Vec<u64> {
        p.iter().map(|p| p.lane(l).to_bits()).collect()
    }

    /// The DC matrix values and RHS of `ckt` at guess `x` by generic
    /// stamping: every element through `Element::stamp` into a sparse
    /// stamper on the pattern of `packed`, then gmin.
    fn generic_assembly(
        ckt: &Circuit,
        packed: &CsrMatrix<F64x8>,
        x: &[f64],
        gmin: f64,
    ) -> (Vec<u64>, Vec<u64>) {
        let sys = System::new(ckt);
        let mut sp = sys.build_sparse(x, StampMode::dc()).unwrap();
        assert_eq!(
            (sp.mat.row_ptr(), sp.mat.col_idx()),
            (packed.row_ptr(), packed.col_idx())
        );
        let mut rhs = vec![0.0; sys.dim()];
        let mut out = Stamper::sparse(&mut sp.mat, &mut rhs, sys.n_nodes());
        sys.stamp_pass(&mut out, false, x, StampMode::dc());
        assert!(!out.missed_pattern());
        for &s in &sp.diag_slots {
            sp.mat.vals_mut()[s] += gmin;
        }
        (bits(sp.mat.vals()), bits(&rhs))
    }

    /// The stamp program's circuit with the given M1 `vth0`, M2 `kp` and
    /// M4 `vth0`.
    fn program_circuit(m1_vth0: f64, m2_kp: f64, m4_vth0: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let [vdd, inp, inn, outp, outn, tail, bias] =
            ["vdd", "inp", "inn", "outp", "outn", "tail", "bias"].map(|n| ckt.node(n));
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, 0.9));
        ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, 0.9));
        ckt.add(Resistor::new("RL1", vdd, outp, 500.0));
        ckt.add(Diode::new("D2", vdd, outn, DiodeParams::default()));
        ckt.add(Mosfet::new(
            "M1",
            outp,
            inp,
            tail,
            Circuit::GROUND,
            nmos_params(m1_vth0, KP),
        ));
        ckt.add(Mosfet::new(
            "M2",
            outn,
            inn,
            tail,
            Circuit::GROUND,
            nmos_params(0.45, m2_kp),
        ));
        let pmos = MosParams {
            mos_type: MosType::Pmos,
            ..nmos_params(m4_vth0, 60e-6)
        };
        ckt.add(Mosfet::new("M4", bias, bias, vdd, vdd, pmos));
        ckt.add(Resistor::new("RB", bias, Circuit::GROUND, 2e3));
        ckt.add(Mosfet::new(
            "M3",
            tail,
            bias,
            Circuit::GROUND,
            Circuit::GROUND,
            nmos_params(0.4, KP),
        ));
        ckt
    }

    /// One pass of the stamp program leaves every lane of an eight-lane
    /// and a three-lane group with bitwise the matrix and RHS of the
    /// scalar assembly of that lane's variant, and of generic stamping of
    /// the circuit built with that variant's cards. The circuit mixes
    /// MOSFETs with column cards (one of them a PMOS) and one without,
    /// grounded terminals, and a diode, which takes the generic per-lane
    /// row; the guesses put some devices in cutoff and swap drain and
    /// source on others.
    #[test]
    fn stamp_program_matches_scalar_assembly_bit_for_bit() {
        let ckt = program_circuit(0.45, KP, 0.5);
        let n = 11;
        let m1_vth0 = |v: usize| 0.44 + 1e-3 * v as f64;
        let m2_kp = |v: usize| KP * (1.0 + 0.03 * v as f64);
        let m4_vth0 = |v: usize| 0.5 - 2e-3 * v as f64;
        let cols = ParamColumns::new(n)
            .column("M1", MosField::Vth0, (0..n).map(m1_vth0).collect())
            .column("M2", MosField::Kp, (0..n).map(m2_kp).collect())
            .column("M4", MosField::Vth0, (0..n).map(m4_vth0).collect());
        let mut lanes = Lanes::new(&ckt, &cols).unwrap();
        let dim = lanes.sys.dim();
        let opts = NewtonOptions::default();
        let x0 = vec![0.0; dim];
        let tel = Telemetry::disabled();
        let mut bs = BatchSparse::build(lanes.load(0), &x0, &opts, &tel).unwrap();
        let mut sp = lanes.sys.build_sparse(&x0, StampMode::dc()).unwrap();
        lanes.sys.bind_devices(&mut sp);
        let mut rhs = Vec::new();
        // A guess per variant, spread over −0.4..2.0 V.
        let guess = |v: usize| -> Vec<f64> {
            (0..dim)
                .map(|i| -0.4 + 2.4 * (((v * 7 + i * 13) % 17) as f64 / 16.0))
                .collect()
        };
        for group in [0..8, 8..n] {
            let xs: Vec<_> = group.clone().map(guess).collect();
            let packed: Vec<_> = (0..dim)
                .map(|i| F64x8::from_fn(|l| xs.get(l).map_or(0.0, |x| x[i])))
                .collect();
            lanes.channels(group.clone(), &mut bs.channels);
            let active = (1 << group.len()) - 1;
            assert!(bs.assemble(&lanes.sys, &packed, active).is_ok());
            for (l, v) in group.enumerate() {
                let scalar = lanes.load(v).assemble_sparse_full(
                    &xs[l],
                    StampMode::dc(),
                    opts.gmin,
                    &mut sp,
                    &mut rhs,
                );
                assert!(scalar.is_ok(), "variant {v}: scalar pattern miss");
                let lane = (lane_bits(bs.packed.vals(), l), lane_bits(&bs.packed_rhs, l));
                assert_eq!(lane, (bits(sp.mat.vals()), bits(&rhs)), "variant {v}");
                let rebuilt = program_circuit(m1_vth0(v), m2_kp(v), m4_vth0(v));
                let generic = generic_assembly(&rebuilt, &bs.packed, &xs[l], opts.gmin);
                assert_eq!(lane, generic, "variant {v} against its circuit");
            }
        }
    }

    /// The lane-wise MOSFET linearization and Newton update against
    /// their scalar originals, bit for bit. The circuit has a
    /// diode-connected PMOS load (gate on drain) and an NMOS with its
    /// gate on its source, whose channel writes land twice in one slot
    /// that a resistor has written before; the guesses swap drain and
    /// source on both in the even lanes only.
    /// The update sees a clamped node step, a branch step that is not
    /// clamped, a NaN and a lane outside the live set.
    #[test]
    fn lane_linearization_matches_scalar_rows_bit_for_bit() {
        let mp_vth0 = |v: usize| 0.45 + 0.02 * v as f64;
        let mg_kp = |v: usize| KP * (1.0 + 0.1 * v as f64);
        let mn_vth0 = |v: usize| 0.3 + 0.05 * v as f64;
        let ckt = linearization_circuit(0.5, KP, 0.45);
        let [vdd, inp, out, load, mid] =
            ["vdd", "inp", "out", "load", "mid"].map(|n| ckt.find_node(n).unwrap());
        let n = 8;
        let cols = ParamColumns::new(n)
            .column("MP", MosField::Vth0, (0..n).map(mp_vth0).collect())
            .column("MG", MosField::Kp, (0..n).map(mg_kp).collect())
            .column("MN", MosField::Vth0, (0..n).map(mn_vth0).collect());
        let mut lanes = Lanes::new(&ckt, &cols).unwrap();
        let dim = lanes.sys.dim();
        let opts = NewtonOptions::default();
        let x0 = vec![0.0; dim];
        let tel = Telemetry::disabled();
        let mut bs = BatchSparse::build(lanes.load(0), &x0, &opts, &tel).unwrap();
        let mut sp = lanes.sys.build_sparse(&x0, StampMode::dc()).unwrap();
        lanes.sys.bind_devices(&mut sp);
        let at = |node: NodeId| node.index().unwrap();
        // Even lanes: `load` above `vdd` (the PMOS swaps) and `mid` below
        // `out` (the gate-on-source NMOS swaps); odd lanes the reverse.
        let guess = |l: usize| -> Vec<f64> {
            let mut x: Vec<f64> = (0..dim).map(|i| 0.1 * ((l + 3 * i) % 7) as f64).collect();
            let (up, down) = (0.05 * l as f64, 0.15 * l as f64);
            x[at(vdd)] = 1.8;
            x[at(inp)] = 0.6 + down;
            if l.is_multiple_of(2) {
                (x[at(load)], x[at(out)], x[at(mid)]) = (2.0 + up, 0.9 + up, 0.2);
            } else {
                (x[at(load)], x[at(out)], x[at(mid)]) = (0.7 + down, 0.3, 1.1 - up);
            }
            x
        };
        let xs: Vec<Vec<f64>> = (0..n).map(guess).collect();
        // The device table lists the MOSFETs in element order.
        for (row, d, g, s) in [(0, load, load, vdd), (1, mid, out, out)] {
            let channel = lanes.sys.mos[row].channel();
            for (l, x) in xs.iter().enumerate() {
                let (swapped, _, _) = channel.linearize(x[at(d)], x[at(g)], x[at(s)]);
                assert_eq!(swapped, l.is_multiple_of(2), "device {row} lane {l}");
            }
        }
        let packed: Vec<F64x8> = (0..dim).map(|i| F64x8::from_fn(|l| xs[l][i])).collect();
        lanes.channels(0..n, &mut bs.channels);
        assert!(bs.assemble(&lanes.sys, &packed, 0xff).is_ok());
        let mut rhs = Vec::new();
        for (l, x) in xs.iter().enumerate() {
            let scalar = lanes.load(l).assemble_sparse_full(
                x,
                StampMode::dc(),
                opts.gmin,
                &mut sp,
                &mut rhs,
            );
            assert!(scalar.is_ok(), "lane {l}: scalar pattern miss");
            let lane = (lane_bits(bs.packed.vals(), l), lane_bits(&bs.packed_rhs, l));
            assert_eq!(lane, (bits(sp.mat.vals()), bits(&rhs)), "lane {l}");
            let rebuilt = linearization_circuit(mp_vth0(l), mg_kp(l), mn_vth0(l));
            let generic = generic_assembly(&rebuilt, &bs.packed, x, opts.gmin);
            assert_eq!(lane, generic, "lane {l} against its circuit");
        }

        // The update: lane 1 steps a node past `max_step` (clamped), lane
        // 2 steps the branch current (never clamped), lane 3 reads a NaN,
        // lane 4 has converged, lane 7 is not live.
        let n_nodes = lanes.sys.n_nodes();
        assert!(dim > n_nodes, "the circuit needs a branch current");
        let mut x_new = packed.clone();
        for (i, v) in x_new.iter_mut().enumerate() {
            *v = F64x8::from_fn(|l| match l {
                1 if i == 0 => v.lane(l) + 2.0,
                2 if i == n_nodes => v.lane(l) - 3.0,
                3 if i == 1 => f64::NAN,
                4 => v.lane(l) * (1.0 + 1e-9),
                _ => v.lane(l) * 1.01 + 1e-4,
            });
        }
        let live = 0x7f;
        let mut updated = packed.clone();
        let (failed, damped, non_finite) =
            newton_update_lanes(&mut updated, &x_new, live, n_nodes, &opts);
        for (l, x) in xs.iter().enumerate() {
            let bit = 1u64 << l;
            if live & bit == 0 {
                assert_eq!(lane_bits(&updated, l), bits(x), "lane {l} is not live");
                continue;
            }
            let mut scalar = x.clone();
            let (converged, undamped, _) =
                super::super::newton_update(&mut scalar, |i| x_new[i].lane(l), n_nodes, &opts);
            assert_eq!(lane_bits(&updated, l), bits(&scalar), "lane {l} iterate");
            assert_eq!(failed & bit == 0, converged, "lane {l} convergence");
            assert_eq!(damped & bit == 0, undamped, "lane {l} damping");
            assert_eq!(
                non_finite & bit != 0,
                scalar.iter().any(|v| !v.is_finite()),
                "lane {l}"
            );
        }
        assert_eq!((failed & 0x10, damped & 0x2, non_finite), (0, 0x2, 0x8));
    }

    /// The linearization test's circuit with the given MP `vth0`, MG `kp`
    /// and MN `vth0`.
    fn linearization_circuit(mp_vth0: f64, mg_kp: f64, mn_vth0: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let [vdd, inp, out, load, mid] = ["vdd", "inp", "out", "load", "mid"].map(|n| ckt.node(n));
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VIN", inp, Circuit::GROUND, 0.9));
        // Resistors ahead of the two devices on the slots they write
        // twice, so the order of those two adds shows in the bits.
        ckt.add(Resistor::new("RL", load, vdd, 3e3));
        ckt.add(Resistor::new("RO", out, Circuit::GROUND, 1e3));
        ckt.add(Resistor::new("RMO", mid, out, 5e3));
        let pmos = MosParams {
            mos_type: MosType::Pmos,
            ..nmos_params(mp_vth0, 60e-6)
        };
        ckt.add(Mosfet::new("MP", load, load, vdd, vdd, pmos));
        ckt.add(Mosfet::new(
            "MG",
            mid,
            out,
            out,
            Circuit::GROUND,
            nmos_params(0.4, mg_kp),
        ));
        ckt.add(Mosfet::new(
            "MN",
            load,
            inp,
            mid,
            Circuit::GROUND,
            nmos_params(mn_vth0, KP),
        ));
        ckt.add(Resistor::new("RM", mid, Circuit::GROUND, 2e3));
        ckt
    }

    /// The paper's four-stage limiting-amplifier chain: 18 unknowns.
    fn chain(cards: &[(f64, f64)]) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let (mut sp, mut sn) = (ckt.node("inp"), ckt.node("inn"));
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VBP", sp, Circuit::GROUND, 1.2));
        ckt.add(Vsource::dc("VBN", sn, Circuit::GROUND, 1.2));
        for (s, pair) in cards.chunks(2).enumerate() {
            let (outp, outn) = (ckt.node(&format!("p{s}")), ckt.node(&format!("n{s}")));
            let tail = ckt.node(&format!("t{s}"));
            ckt.add(Resistor::new(&format!("RP{s}"), vdd, outp, 350.0));
            ckt.add(Resistor::new(&format!("RN{s}"), vdd, outn, 350.0));
            let m = |(vth0, kp): (f64, f64)| nmos_params(vth0, kp);
            ckt.add(Mosfet::new(
                &format!("MP{s}"),
                outn,
                sp,
                tail,
                Circuit::GROUND,
                m(pair[0]),
            ));
            ckt.add(Mosfet::new(
                &format!("MN{s}"),
                outp,
                sn,
                tail,
                Circuit::GROUND,
                m(pair[1]),
            ));
            ckt.add(Isource::dc(&format!("IT{s}"), tail, Circuit::GROUND, 4e-3));
            (sp, sn) = (outp, outn);
        }
        ckt
    }

    /// Eleven variants of the chain: the frozen sparse pivot order of
    /// the first group is replayed into a second, partly masked one.
    #[test]
    fn sparse_path_matches_scalar() {
        let n = 11;
        let card = |v: usize, m: usize| {
            let d = 1e-3 * ((v * 8 + m) % 7) as f64 - 3e-3;
            (0.45 + d, KP * (1.0 + 0.01 * (m % 3) as f64))
        };
        let names = ["MP0", "MN0", "MP1", "MN1", "MP2", "MN2", "MP3", "MN3"];
        let mut cols = ParamColumns::new(n);
        for (m, name) in names.iter().enumerate() {
            cols = cols
                .column(name, MosField::Vth0, (0..n).map(|v| card(v, m).0).collect())
                .column(name, MosField::Kp, (0..n).map(|v| card(v, m).1).collect());
        }
        let nominal = chain(&[(0.45, KP); 8]);
        let opts = NewtonOptions::default();
        let tel = Telemetry::enabled();
        let res = op_batch(&nominal, &cols, &opts, &[], &tel).unwrap();
        assert_eq!(System::new(&nominal).dim(), 18);
        assert_eq!(res.fallback_count(), 0);
        let c = tel.report().counters;
        assert!(c.sparse_solves > 0, "sparse path not taken");
        assert!(c.refactorizations > 0, "frozen pivot order never replayed");
        for v in 0..n {
            let cards: Vec<_> = (0..8).map(|m| card(v, m)).collect();
            let s = op::solve_with(&chain(&cards), &opts, None).unwrap();
            for (a, b) in res.solution(v).iter().zip(s.solution()) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "variant {v}: batched {a} vs scalar {b}"
                );
            }
        }
    }

    #[test]
    fn bad_columns_and_warm_starts_are_typed_errors() {
        let ckt = nominal();
        let opts = NewtonOptions::default();
        let x0 = vec![0.0; System::new(&ckt).dim()];
        let short = vec![0.0; 3];
        let col =
            |name: &str, field, v: f64| ParamColumns::new(2).column(name, field, vec![0.45, v]);
        let cases: Vec<(&str, ParamColumns, Vec<&[f64]>)> = vec![
            ("resistor", col("RL1", MosField::Vth0, 0.45), vec![]),
            ("unknown element", col("M9", MosField::Vth0, 0.45), vec![]),
            (
                "short column",
                ParamColumns::new(3).column("M1", MosField::Vth0, vec![0.45; 2]),
                vec![],
            ),
            ("NaN vth0", col("M1", MosField::Vth0, f64::NAN), vec![]),
            (
                "infinite vth0",
                col("M2", MosField::Vth0, f64::INFINITY),
                vec![],
            ),
            ("negative vth0", col("M1", MosField::Vth0, -0.1), vec![]),
            ("zero kp", col("M1", MosField::Kp, 0.0), vec![]),
            ("negative kp", col("M2", MosField::Kp, -KP), vec![]),
            (
                "short warm slice",
                col("M1", MosField::Vth0, 0.45),
                vec![&x0, &short],
            ),
            ("warm count", col("M1", MosField::Vth0, 0.45), vec![&x0]),
        ];
        for (what, cols, warm) in cases {
            let err = op_batch(&ckt, &cols, &opts, &warm, &Telemetry::disabled()).unwrap_err();
            assert!(
                matches!(err, SpiceError::InvalidConfig { .. }),
                "{what}: {err}"
            );
        }
    }

    /// A bad column value is reported with the card rule of its field.
    #[test]
    fn column_errors_name_the_field_rule() {
        let ckt = nominal();
        let opts = NewtonOptions::default();
        let message =
            |cols: ParamColumns| match op_batch(&ckt, &cols, &opts, &[], &Telemetry::disabled()) {
                Err(SpiceError::InvalidConfig { message }) => message,
                other => panic!("expected InvalidConfig, got {other:?}"),
            };
        assert_eq!(
            message(ParamColumns::new(2).column("M1", MosField::Vth0, vec![0.45, -0.1])),
            "batch column M1.Vth0: vth0 must be a non-negative magnitude, got -0.1"
        );
        assert_eq!(
            message(ParamColumns::new(2).column("M2", MosField::Kp, vec![f64::NAN, KP])),
            "batch column M2.Kp: kp must be positive, got NaN"
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let res = solve(&nominal(), &ParamColumns::new(0), &NewtonOptions::default());
        assert!(res.is_empty());
    }
}
