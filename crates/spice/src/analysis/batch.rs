//! Batched multi-variant operating points: K parameter variants of one
//! circuit marching through stamping → factorization → Newton in
//! lockstep.
//!
//! Monte-Carlo yield solves the *same circuit* thousands of times with
//! perturbed MOSFET cards. [`op_batch`] takes that circuit once, plus
//! [`ParamColumns`]: per-variant `vth0`/`kp` values of named MOSFETs,
//! column-major. One MNA system, one lint precheck and one sparsity
//! pattern serve every variant; each lane stamps its devices from its
//! own column entries through the same slot caches into a lane-packed
//! CSR matrix whose pivot order is frozen after the first factorization
//! and replayed across iterations and lane groups. Variants are packed
//! eight at a time into the lanes of an [`F64x8`] (a batch that is not a
//! multiple of eight runs its last group with the tail lanes masked
//! off), and the damped-Newton driver tracks convergence **per lane**: a
//! lane that converges freezes while the others keep iterating, and a
//! lane whose frozen pivot dies or whose iterate diverges is quarantined
//! by the masked LU entry point ([`SparseLu::refactor_frozen_masked`]:
//! the sparse LU's one replay kernel, the same one scalar and AC solves
//! run, with a pivot guard that heals dead lanes) and re-solved through the scalar `op::solve_system` homotopy ladder —
//! one bad variant never stalls or corrupts the batch. The ladder is
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
use super::{cache, newton_update, AttemptError, NewtonOptions, SparseState, System};
use crate::circuit::{Circuit, NodeId};
use crate::devices::mosfet::MosParams;
use crate::element::{DcTransfer, ElementKind, StampMode};
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

/// The one MNA system of a batch plus its columns resolved to element
/// indices; [`Lanes::load`] puts one variant's cards into the system.
struct Lanes<'a> {
    sys: System<'a>,
    cols: Vec<(usize, MosField, &'a [f64])>,
}

impl<'a> Lanes<'a> {
    /// Resolves and checks `cols` against `ckt`.
    fn new(ckt: &'a Circuit, cols: &'a ParamColumns) -> Result<Self, SpiceError> {
        let invalid = |message: String| SpiceError::InvalidConfig { message };
        let mut sys = System::new(ckt);
        sys.cards = vec![None; ckt.num_elements()];
        let mut resolved = Vec::with_capacity(cols.columns.len());
        for (name, field, values) in &cols.columns {
            let found = ckt.elements().enumerate().find(|(_, e)| e.name() == name);
            let Some((idx, DcTransfer::MosChannel { params, .. })) = found
                .filter(|(_, e)| e.kind() == ElementKind::Mosfet)
                .map(|(i, e)| (i, e.dc_transfer()))
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
            let card = sys.cards[idx].get_or_insert(params);
            for &v in values {
                let mut lane = card.clone();
                field.set(&mut lane, v);
                lane.validate()
                    .map_err(|m| invalid(format!("batch column {name}.{field:?}: {m}")))?;
            }
            resolved.push((idx, *field, values.as_slice()));
        }
        Ok(Lanes {
            sys,
            cols: resolved,
        })
    }

    /// The system with variant `v`'s cards loaded.
    fn load(&mut self, v: usize) -> &System<'a> {
        for &(idx, field, values) in &self.cols {
            if let Some(card) = self.sys.cards[idx].as_mut() {
                field.set(card, values[v]);
            }
        }
        &self.sys
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
    /// A real error that fallback cannot paper over.
    Hard(SpiceError),
}

/// The lockstep kernel of one batch driver call: the sparse lane state,
/// shared across lane groups so the pattern, slot caches and frozen
/// pivot order amortize over *all* variants, plus the degradation state
/// that sends lanes straight to the scalar ladder.
#[derive(Default)]
struct BatchKernel {
    sparse: Option<BatchSparse>,
    /// Set when the pattern could not be built or missed twice: every
    /// later lane goes to the scalar ladder.
    scalar_only: bool,
    pattern_misses: u32,
}

/// The lane state on one sparsity pattern: every lane stamps through the
/// same scalar slot caches (same topology, same slot sequence) and is
/// transposed into one lane-packed CSR matrix with a shared-pivot LU.
struct BatchSparse {
    /// Scalar stamping workspace: pattern, slot caches, value buffer.
    sp: SparseState,
    /// Lane-packed values on the identical pattern.
    packed: CsrMatrix<F64x8>,
    /// Shared-pivot LU; pivot order frozen after the first full factor
    /// and replayed (masked) for every later iteration and group.
    lu: SparseLu<F64x8>,
    factored: bool,
    /// Scalar RHS scratch: each lane stamps through the ordinary scalar
    /// machinery, then transposes into the lane-packed buffers.
    scratch_rhs: Vec<f64>,
    packed_rhs: Vec<F64x8>,
    /// Raw lockstep Newton solution before damping.
    packed_x: Vec<F64x8>,
}

impl BatchKernel {
    /// One lockstep damped-Newton DC solve over up to `F64x8::LANES`
    /// variants. `xs` holds the per-lane initial guesses in and the
    /// per-lane iterates out. Returns the mask of converged lanes, whose
    /// entries are their solutions; every other lane was quarantined
    /// (pivot death, divergence, iteration exhaustion or a pattern
    /// miss), its entry is garbage, and the caller re-solves it through
    /// the scalar path.
    fn newton_lockstep(
        &mut self,
        lanes: &mut Lanes<'_>,
        group: Range<usize>,
        xs: &mut [Vec<f64>],
        opts: &NewtonOptions,
        tel: &Telemetry,
    ) -> Result<u64, SpiceError> {
        let k = group.len();
        debug_assert!((1..=F64x8::LANES).contains(&k));
        debug_assert_eq!(k, xs.len());
        let n_nodes = lanes.sys.n_nodes();
        let _t = tel.timer(Phase::BatchSolve);
        if !self.scalar_only && self.sparse.is_none() {
            self.sparse = BatchSparse::build(lanes.load(group.start), &xs[0], opts, tel);
            self.scalar_only = self.sparse.is_none();
        }
        let Some(bs) = self.sparse.as_mut() else {
            return Ok(0);
        };
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
            let newly_dead = match bs.iteration(lanes, group.clone(), xs, opts, active, tel) {
                Ok(d) => d,
                Err(StepFail::GroupDead) => return Ok(converged_lanes),
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
                    return Ok(converged_lanes);
                }
                Err(StepFail::Hard(e)) => return Err(e),
            };
            // Per-lane convergence check + damping, the exact scalar
            // `newton_attempt` update replayed lane-wise.
            let packed_x = &bs.packed_x;
            for (l, x) in xs.iter_mut().enumerate() {
                let bit = 1u64 << l;
                if active & bit == 0 {
                    continue;
                }
                if newly_dead & bit != 0 {
                    active &= !bit;
                    continue;
                }
                let (converged, undamped, _) =
                    newton_update(x, |i| packed_x[i].lane(l), n_nodes, opts);
                if !x.iter().all(|v| v.is_finite()) {
                    active &= !bit;
                } else if converged && undamped {
                    converged_lanes |= bit;
                    active &= !bit;
                }
            }
        }
        // Lanes still active exhausted the iteration budget: fallback.
        Ok(converged_lanes)
    }
}

impl BatchSparse {
    /// Discovers the sparsity pattern from lane 0 (served from the
    /// topology cache when enabled, so a whole batch — and every batch
    /// after it — derives the symbolic analysis at most once) and
    /// builds the lane-packed CSR mirror. `None` when the pattern cannot
    /// be built: the batch then goes to the scalar ladder.
    fn build(sys: &System<'_>, x0: &[f64], opts: &NewtonOptions, tel: &Telemetry) -> Option<Self> {
        let _t = tel.timer(Phase::PatternDiscovery);
        let built = if opts.cache {
            cache::sparse_state_cached(sys, x0, StampMode::dc(), tel)
        } else {
            sys.build_sparse(x0, StampMode::dc())
        };
        let bs = built.and_then(|sp| {
            // Rebuild the position list from lane 0's CSR; `from_pattern`
            // sorts and dedups, so the packed matrix gets the identical
            // slot layout and scalar value-slot indices transfer directly.
            let dim = sp.mat.rows();
            let mut positions = Vec::with_capacity(sp.mat.vals().len());
            for r in 0..dim {
                for i in sp.mat.row_ptr()[r]..sp.mat.row_ptr()[r + 1] {
                    positions.push((r, sp.mat.col_idx()[i]));
                }
            }
            let packed = CsrMatrix::<F64x8>::from_pattern(dim, dim, &positions).ok()?;
            let lu = SparseLu::new(&packed).ok()?;
            Some(BatchSparse {
                sp,
                packed,
                lu,
                factored: false,
                scratch_rhs: Vec::with_capacity(dim),
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

    /// One lockstep iteration: per-lane slot-cached assembly into the
    /// scalar CSR workspace, lane packing of the value array, masked
    /// frozen-pivot replay and substitution. Returns the lanes that died
    /// during factorization.
    fn iteration(
        &mut self,
        lanes: &mut Lanes<'_>,
        group: Range<usize>,
        xs: &[Vec<f64>],
        opts: &NewtonOptions,
        active: u64,
        tel: &Telemetry,
    ) -> Result<u64, StepFail> {
        let k = group.len();
        // Before the first full factorization the unused lanes (k..N)
        // still hold zeros, which would wreck the shared pivot metric
        // (min over *all* lanes). Mirror lane 0 into them once; after
        // that every replay is masked and ignores non-live lanes.
        let mirror_tail = !self.factored && k < F64x8::LANES;
        for (l, v) in group.enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            lanes
                .load(v)
                .assemble_sparse_full(
                    &xs[l],
                    StampMode::dc(),
                    opts.gmin,
                    &mut self.sp,
                    &mut self.scratch_rhs,
                )
                .map_err(|e| match e {
                    AttemptError::PatternMiss => StepFail::PatternMiss,
                    AttemptError::Spice(err) => StepFail::Hard(err),
                })?;
            let mirror = mirror_tail && l == 0;
            for (dst, &v) in self.packed.vals_mut().iter_mut().zip(self.sp.mat.vals()) {
                dst.set_lane(l, v);
                if mirror {
                    for j in k..F64x8::LANES {
                        dst.set_lane(j, v);
                    }
                }
            }
            for (dst, &v) in self.packed_rhs.iter_mut().zip(&self.scratch_rhs) {
                dst.set_lane(l, v);
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
    let mut xs: Vec<Vec<f64>> = Vec::new();
    for start in (0..n).step_by(F64x8::LANES) {
        let group = start..n.min(start + F64x8::LANES);
        let x0 = |v: usize| warm.get(v).map_or_else(|| vec![0.0; dim], |w| w.to_vec());
        xs.clear();
        xs.extend(group.clone().map(x0));
        let converged = kernel.newton_lockstep(&mut lanes, group.clone(), &mut xs, opts, tel)?;
        for (l, v) in group.enumerate() {
            let fell_back = converged & (1 << l) == 0;
            if fell_back {
                tel.count(|c| c.lane_fallbacks += 1);
                solutions.push(solve_system(lanes.load(v), opts, None, tel)?);
            } else {
                solutions.push(std::mem::take(&mut xs[l]));
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

    /// A pair whose `kp` is scaled by 1e-6 can only carry its tail
    /// current with its source near −124 V: plain lockstep Newton, at
    /// 0.5 V per step, exhausts `max_iter`, and the lane must fall back
    /// to the scalar homotopy ladder. The healthy lanes converge in
    /// lockstep and must be untouched. One sick lane sits in the full
    /// first group, one in the masked tail group.
    #[test]
    fn lane_falls_back_to_scalar_ladder() {
        let sick = [1, 9];
        let cards: Vec<_> = (0..11)
            .map(|i| {
                let ((v1, k1), (v2, k2)) = skew(1e-3 * i as f64);
                let s = if sick.contains(&i) { 1e-6 } else { 1.0 };
                ((v1, k1 * s), (v2, k2 * s))
            })
            .collect();
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

    #[test]
    fn empty_batch_is_empty() {
        let res = solve(&nominal(), &ParamColumns::new(0), &NewtonOptions::default());
        assert!(res.is_empty());
    }
}
