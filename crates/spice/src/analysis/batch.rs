//! Batched multi-variant operating points: K parameter variants of one
//! topology marching through stamping → factorization → Newton in
//! lockstep.
//!
//! Monte-Carlo yield estimation solves the *same circuit* thousands of
//! times with slightly perturbed device parameters. Solving each variant
//! independently repeats every piece of structural work — unknown
//! layout, sparsity pattern, pivot search, Newton loop control — that
//! is identical across variants. This module amortizes all of it:
//!
//! * variants are packed eight at a time into the lanes of an
//!   [`F64x8`], so one structure-of-arrays inner loop stamps, factors
//!   and substitutes eight matrices at once (the element-wise lane
//!   arithmetic auto-vectorizes into SIMD — see `cml_numeric::lanes`);
//!   a batch that is not a multiple of eight runs its last group with
//!   the tail lanes masked off;
//! * the damped-Newton driver tracks convergence **per lane**: a lane
//!   that converges freezes while the others keep iterating, and a lane
//!   whose frozen pivot dies or whose iterate diverges is quarantined
//!   by the masked LU kernels ([`cml_numeric::LaneLu::refactor_masked`],
//!   [`cml_numeric::SparseLu::refactor_frozen_masked`]) and re-solved
//!   through the ordinary scalar path — one bad variant never stalls
//!   or corrupts the batch;
//! * from `BATCH_SPARSE_THRESHOLD` (12) unknowns up the pattern is
//!   discovered **once** and every variant stamps through the same slot
//!   caches into a lane-packed CSR matrix whose pivot order is frozen
//!   after the first factorization, exactly the replay machinery the
//!   scalar transient path uses across timesteps — here replayed across
//!   variants. See DESIGN.md §13.
//!
//! Fallback ladder per lane: lockstep Newton → (pivot death, divergence
//! or iteration exhaustion) → scalar [`op::solve_system`] homotopy
//! ladder. Every eviction increments the `lane_fallbacks` telemetry
//! counter; batch efficiency is visible as `lane_occupancy` /
//! `lane_fallback_rate` in the solver report.

use super::op::solve_system;
use super::{cache, AttemptError, NewtonOptions, SparseState, System};
use crate::circuit::{Circuit, NodeId};
use crate::element::StampMode;
use crate::SpiceError;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{DenseMatrix, F64x8, LaneLu, LaneScalar, Scalar, SparseLu};
use cml_telemetry::{Phase, Telemetry};
use std::collections::HashMap;

/// The batch kernel's sparse crossover, in unknowns.
///
/// The scalar threshold ([`NewtonOptions::sparse_threshold`], default
/// 50) answers "when does sparse win for *one* solve, pattern
/// discovery included". The batch kernel discovers the pattern once
/// and replays its frozen pivot order across every iteration of every
/// lane group, so discovery amortizes to nothing and sparse wins at
/// much smaller dimensions. The batched path therefore switches to
/// sparse at `min(opts.sparse_threshold, BATCH_SPARSE_THRESHOLD)`.
const BATCH_SPARSE_THRESHOLD: usize = 12;

/// Result of a batched operating-point solve: one solution vector per
/// variant, in input order, plus which variants needed the scalar
/// fallback ladder.
#[derive(Debug, Clone)]
pub struct BatchOpResult {
    solutions: Vec<Vec<f64>>,
    fallbacks: Vec<bool>,
    n_nodes: usize,
    branch_names: HashMap<String, usize>,
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

    /// Number of unknown node voltages in each solution vector (the
    /// remaining entries are branch currents).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
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

    /// Branch current through a named element of one variant.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] if the element has no branch
    /// unknown.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range.
    pub fn current(&self, variant: usize, element: &str) -> Result<f64, SpiceError> {
        self.branch_names
            .get(element)
            .map(|&i| self.solutions[variant][i])
            .ok_or_else(|| SpiceError::NotFound {
                what: "branch current",
                name: element.to_string(),
            })
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

/// Batched operating point over K same-topology variants, optionally
/// warm-started: with `warm` every lane begins its lockstep Newton from
/// that known nearby solution (typically the nominal-parameter
/// operating point) instead of from zero, which is the main throughput
/// lever for Monte-Carlo sweeps of small perturbations.
///
/// # Errors
///
/// Fails when the variants disagree on topology, a lint precheck
/// rejects a variant, `warm` has the wrong length for the variants' MNA
/// system, or a variant fails even the scalar fallback ladder.
pub fn op_batch(
    ckts: &[Circuit],
    opts: &NewtonOptions,
    warm: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<BatchOpResult, SpiceError> {
    let res = op_batch_impl(ckts, opts, warm, tel);
    if let (Err(e), Some(ckt)) = (&res, ckts.first()) {
        // The first variant stands in for the batch: all variants share
        // one topology, and the netlist is what replay needs.
        crate::flight::record_failure(ckt, opts, "op_batch", e, tel);
    }
    res
}

/// Verifies that every variant shares one MNA topology: same unknown
/// count and layout, same state arena, same branch-name map. Parameter
/// *values* are free to differ — that is the point of the batch.
fn check_matched(systems: &[System<'_>]) -> Result<(), SpiceError> {
    let s0 = &systems[0];
    for s in &systems[1..] {
        if s.dim() != s0.dim()
            || s.n_nodes() != s0.n_nodes()
            || s.state_len() != s0.state_len()
            || s.branch_names() != s0.branch_names()
        {
            return Err(SpiceError::InvalidConfig {
                message: "batch solve requires every variant to share one topology \
                          (same nodes, elements and branch layout); vary parameter \
                          values, not structure"
                    .into(),
            });
        }
    }
    Ok(())
}

/// Per-lane outcome of one lockstep Newton solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneOutcome {
    /// The lane converged; its entry in `xs` is the solution.
    Converged,
    /// The lane was quarantined (pivot death, divergence or iteration
    /// exhaustion); its entry in `xs` is garbage and the caller must
    /// re-solve it through the scalar path.
    Fallback,
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

/// Reusable lane-packed buffers for lockstep Newton: one per batch
/// driver call, shared across lane groups so the sparse pattern, slot
/// caches and frozen pivot order amortize over *all* variants.
struct BatchKernel {
    dim: usize,
    n_nodes: usize,
    /// Dense lane-packed Jacobian, row-major `dim × dim` (allocated on
    /// first dense iteration).
    packed_m: Vec<F64x8>,
    packed_rhs: Vec<F64x8>,
    /// Raw lockstep Newton solution before damping.
    packed_x: Vec<F64x8>,
    lane_lu: LaneLu<F64x8>,
    /// Scalar assembly scratch: each lane stamps through the ordinary
    /// scalar machinery, then transposes into the lane-packed buffers.
    scratch_m: DenseMatrix,
    scratch_rhs: Vec<f64>,
    /// Sparse path: scalar pattern + slot caches (shared by all lanes —
    /// same topology, same slot sequence) and the lane-packed CSR
    /// matrix with its shared-pivot LU.
    sparse: Option<BatchSparse>,
    sparse_disabled: bool,
    sparse_misses: u32,
}

struct BatchSparse {
    /// Scalar stamping workspace: pattern, slot caches, value buffer.
    sp: SparseState,
    /// Lane-packed values on the identical pattern.
    packed: CsrMatrix<F64x8>,
    /// Shared-pivot LU; pivot order frozen after the first full factor
    /// and replayed (masked) for every later iteration and group.
    lu: SparseLu<F64x8>,
    factored: bool,
}

impl BatchKernel {
    fn new(dim: usize, n_nodes: usize) -> Self {
        BatchKernel {
            dim,
            n_nodes,
            packed_m: Vec::new(),
            packed_rhs: vec![F64x8::ZERO; dim],
            packed_x: vec![F64x8::ZERO; dim],
            lane_lu: LaneLu::default(),
            scratch_m: DenseMatrix::zeros(dim, dim),
            scratch_rhs: Vec::with_capacity(dim),
            sparse: None,
            sparse_disabled: false,
            sparse_misses: 0,
        }
    }

    /// One lockstep damped-Newton DC solve over up to `F64x8::LANES`
    /// variants. `xs` holds the per-lane initial guesses in and the
    /// per-lane iterates out; converged lanes' entries are their
    /// solutions, fallback lanes' entries are garbage.
    fn newton_lockstep(
        &mut self,
        systems: &[System<'_>],
        xs: &mut [Vec<f64>],
        opts: &NewtonOptions,
        tel: &Telemetry,
    ) -> Result<Vec<LaneOutcome>, SpiceError> {
        let k = systems.len();
        debug_assert!((1..=F64x8::LANES).contains(&k));
        debug_assert_eq!(k, xs.len());
        let dim = self.dim;
        let _t = tel.timer(Phase::BatchSolve);
        let mut outcome = vec![LaneOutcome::Fallback; k];
        let mut active: u64 = (1u64 << k) - 1;

        let threshold = opts.sparse_threshold.min(BATCH_SPARSE_THRESHOLD);
        let want_sparse = !self.sparse_disabled && dim > 0 && dim >= threshold;
        if want_sparse && self.sparse.is_none() {
            self.build_sparse_state(&systems[0], &xs[0], opts, tel);
        }
        let run_sparse = want_sparse && self.sparse.is_some();

        for _iter in 0..opts.max_iter {
            if active == 0 {
                break;
            }
            tel.count(|c| {
                c.batch_solves += 1;
                c.batch_lane_slots += F64x8::LANES as u64;
                c.batch_lanes_active += u64::from(active.count_ones());
            });
            let step = if run_sparse {
                self.sparse_iteration(systems, xs, opts, active, tel)
            } else {
                self.dense_iteration(systems, xs, opts, active, tel)
            };
            let newly_dead = match step {
                Ok(d) => d,
                Err(StepFail::GroupDead) => return Ok(outcome),
                Err(StepFail::PatternMiss) => {
                    // Mirror the scalar policy: one rebuild allowance,
                    // then permanently dense. Either way this group has
                    // a half-stamped matrix — send it down the ladder.
                    self.sparse = None;
                    self.sparse_misses += 1;
                    tel.count(|c| c.pattern_rebuilds += 1);
                    if self.sparse_misses >= 2 {
                        self.sparse_disabled = true;
                        tel.count(|c| c.dense_fallbacks += 1);
                        tel.degradation(
                            "batch-sparse-dense-fallback",
                            "batched sparse solve pattern missed twice; this batch \
                             kernel permanently falls back to the dense path",
                        );
                    }
                    return Ok(outcome);
                }
                Err(StepFail::Hard(e)) => return Err(e),
            };
            // Per-lane convergence check + damping, the exact scalar
            // `newton_attempt` update replayed lane-wise.
            for l in 0..k {
                let bit = 1u64 << l;
                if active & bit == 0 {
                    continue;
                }
                if newly_dead & bit != 0 {
                    active &= !bit;
                    continue;
                }
                let x = &mut xs[l];
                let mut converged = true;
                let mut undamped = true;
                for (i, xi) in x.iter_mut().take(dim).enumerate() {
                    let xn = self.packed_x[i].lane(l);
                    let delta = xn - *xi;
                    let (atol, clamp) = if i < self.n_nodes {
                        (opts.vntol, opts.max_step)
                    } else {
                        (opts.abstol, f64::INFINITY)
                    };
                    let tol = atol + opts.reltol * xi.abs().max(xn.abs());
                    if delta.abs() > tol {
                        converged = false;
                    }
                    let next = *xi + delta.clamp(-clamp, clamp);
                    if (next - xn).abs() >= 1e-15 {
                        undamped = false;
                    }
                    *xi = next;
                }
                if !x.iter().all(|v| v.is_finite()) {
                    active &= !bit;
                } else if converged && undamped {
                    outcome[l] = LaneOutcome::Converged;
                    active &= !bit;
                }
            }
        }
        // Lanes still active exhausted the iteration budget: fallback
        // (their `outcome` entries already say so).
        Ok(outcome)
    }

    /// Discovers the sparsity pattern from lane 0 (served from the
    /// topology cache when enabled, so a whole batch — and every batch
    /// after it — derives the symbolic analysis at most once) and
    /// builds the lane-packed CSR mirror. On failure the kernel stays
    /// dense.
    fn build_sparse_state(
        &mut self,
        sys: &System<'_>,
        x0: &[f64],
        opts: &NewtonOptions,
        tel: &Telemetry,
    ) {
        let _t = tel.timer(Phase::PatternDiscovery);
        let disable = |kernel: &mut Self, tel: &Telemetry| {
            kernel.sparse_disabled = true;
            tel.count(|c| c.dense_fallbacks += 1);
            tel.degradation(
                "batch-sparse-pattern-unbuildable",
                "batched sparse solve requested but the Jacobian pattern could \
                 not be built; this batch kernel stays on the dense path",
            );
        };
        let built = if opts.cache_enabled() {
            cache::sparse_state_cached(sys, x0, &[], StampMode::dc(), tel)
        } else {
            sys.build_sparse(x0, &[], StampMode::dc())
        };
        let Some(sp) = built else {
            disable(self, tel);
            return;
        };
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
        let Ok(packed) = CsrMatrix::<F64x8>::from_pattern(dim, dim, &positions) else {
            disable(self, tel);
            return;
        };
        let Ok(lu) = SparseLu::new(&packed) else {
            disable(self, tel);
            return;
        };
        tel.count(|c| c.pattern_builds += 1);
        self.sparse = Some(BatchSparse {
            sp,
            packed,
            lu,
            factored: false,
        });
    }

    /// One dense lockstep iteration: per-lane scalar assembly, lane
    /// packing, masked shared-pivot factorization and substitution.
    /// Returns the lanes that died during factorization.
    fn dense_iteration(
        &mut self,
        systems: &[System<'_>],
        xs: &[Vec<f64>],
        opts: &NewtonOptions,
        active: u64,
        tel: &Telemetry,
    ) -> Result<u64, StepFail> {
        let dim = self.dim;
        if self.packed_m.len() != dim * dim {
            self.packed_m.resize(dim * dim, F64x8::ZERO);
        }
        for (l, sys) in systems.iter().enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            sys.assemble(
                &xs[l],
                &[],
                StampMode::dc(),
                opts.gmin,
                &mut self.scratch_m,
                &mut self.scratch_rhs,
            );
            for (dst, &v) in self.packed_m.iter_mut().zip(self.scratch_m.as_slice()) {
                dst.set_lane(l, v);
            }
            for (dst, &v) in self.packed_rhs.iter_mut().zip(&self.scratch_rhs) {
                dst.set_lane(l, v);
            }
        }
        // Non-active lanes (stale, unused, or garbage) are outside
        // `live`: the masked kernel heals their pivots and never
        // reports them.
        let newly_dead = match self.lane_lu.refactor_masked(&self.packed_m, dim, active) {
            Ok(d) => d,
            Err(_) => return Err(StepFail::GroupDead),
        };
        tel.count(|c| c.full_factorizations += 1);
        if self
            .lane_lu
            .solve_into(&self.packed_rhs, &mut self.packed_x)
            .is_err()
        {
            return Err(StepFail::GroupDead);
        }
        tel.count(|c| c.dense_solves += 1);
        Ok(newly_dead)
    }

    /// One sparse lockstep iteration: per-lane slot-cached assembly
    /// into the scalar CSR workspace, lane packing of the value array,
    /// masked frozen-pivot replay and substitution.
    fn sparse_iteration(
        &mut self,
        systems: &[System<'_>],
        xs: &[Vec<f64>],
        opts: &NewtonOptions,
        active: u64,
        tel: &Telemetry,
    ) -> Result<u64, StepFail> {
        let k = systems.len();
        let BatchKernel {
            sparse,
            scratch_rhs,
            packed_rhs,
            packed_x,
            ..
        } = self;
        let Some(bs) = sparse.as_mut() else {
            return Err(StepFail::Hard(SpiceError::Internal {
                message: "batched sparse iteration without sparse state".to_string(),
            }));
        };
        // Before the first full factorization the unused lanes (k..N)
        // still hold zeros, which would wreck the shared pivot metric
        // (min over *all* lanes). Mirror lane 0 into them once; after
        // that every replay is masked and ignores non-live lanes.
        let mirror_tail = !bs.factored && k < F64x8::LANES;
        for (l, sys) in systems.iter().enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            sys.assemble_sparse_full(
                &xs[l],
                &[],
                StampMode::dc(),
                opts.gmin,
                &mut bs.sp,
                scratch_rhs,
            )
            .map_err(|e| match e {
                AttemptError::PatternMiss => StepFail::PatternMiss,
                AttemptError::Spice(err) => StepFail::Hard(err),
            })?;
            let mirror = mirror_tail && l == 0;
            for (dst, &v) in bs.packed.vals_mut().iter_mut().zip(bs.sp.mat.vals()) {
                dst.set_lane(l, v);
                if mirror {
                    for j in k..F64x8::LANES {
                        dst.set_lane(j, v);
                    }
                }
            }
            for (dst, &v) in packed_rhs.iter_mut().zip(scratch_rhs.iter()) {
                dst.set_lane(l, v);
            }
        }
        let newly_dead = if bs.factored {
            let res = {
                let _t = tel.timer_fine(Phase::Refactor);
                bs.lu.refactor_frozen_masked(&bs.packed, active)
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
                bs.lu.refactor(&bs.packed)
            };
            match res {
                Ok(oc) => {
                    bs.factored = true;
                    super::note_refactor(tel, oc, bs.lu.last_dead_pivot());
                    0
                }
                Err(_) => return Err(StepFail::GroupDead),
            }
        };
        {
            let _t = tel.timer_fine(Phase::BackSubstitute);
            if bs.lu.solve_into(packed_rhs, packed_x).is_err() {
                return Err(StepFail::GroupDead);
            }
        }
        tel.count(|c| c.sparse_solves += 1);
        Ok(newly_dead)
    }
}

fn op_batch_impl(
    ckts: &[Circuit],
    opts: &NewtonOptions,
    warm: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<BatchOpResult, SpiceError> {
    let _span = tel.span("analysis", "batch_op");
    // One lint pass covers the whole batch: every variant shares the
    // first one's topology (enforced below by `check_matched`, a hard
    // error), and the lint passes are connectivity checks — re-running
    // them per parameter set would dominate small-circuit sweeps.
    if let Some(first) = ckts.first() {
        let _t = tel.timer(Phase::LintPrecheck);
        cache::lint_precheck_cached(first, opts.cache_enabled(), tel)?;
        tel.count(|c| c.lint_prechecks += 1);
    }
    if ckts.is_empty() {
        return Ok(BatchOpResult {
            solutions: Vec::new(),
            fallbacks: Vec::new(),
            n_nodes: 0,
            branch_names: HashMap::new(),
        });
    }
    let systems: Vec<System<'_>> = ckts.iter().map(System::new).collect();
    check_matched(&systems)?;
    let dim = systems[0].dim();
    if let Some(w) = warm {
        if w.len() != dim {
            return Err(SpiceError::InvalidConfig {
                message: format!(
                    "warm start has {} entries for a {dim}-unknown system",
                    w.len()
                ),
            });
        }
    }
    let mut kernel = BatchKernel::new(dim, systems[0].n_nodes());
    let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(ckts.len());
    let mut fallbacks = Vec::with_capacity(ckts.len());
    let mut xs: Vec<Vec<f64>> = Vec::new();
    for group in systems.chunks(F64x8::LANES) {
        let k = group.len();
        xs.clear();
        xs.extend((0..k).map(|_| warm.map_or_else(|| vec![0.0; dim], <[f64]>::to_vec)));
        let outcomes = kernel.newton_lockstep(group, &mut xs, opts, tel)?;
        for (l, out) in outcomes.into_iter().enumerate() {
            match out {
                LaneOutcome::Converged => {
                    solutions.push(std::mem::take(&mut xs[l]));
                    fallbacks.push(false);
                }
                LaneOutcome::Fallback => {
                    tel.count(|c| c.lane_fallbacks += 1);
                    solutions.push(solve_system(&group[l], opts, None, tel)?);
                    fallbacks.push(true);
                }
            }
        }
    }
    Ok(BatchOpResult {
        solutions,
        fallbacks,
        n_nodes: systems[0].n_nodes(),
        branch_names: systems[0].branch_names().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op;
    use crate::prelude::*;

    fn op_batch_plain(ckts: &[Circuit], opts: &NewtonOptions) -> BatchOpResult {
        op_batch(ckts, opts, None, &Telemetry::disabled()).unwrap()
    }

    fn divider(r_top: f64, v: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, v));
        ckt.add(Resistor::new("R1", vin, out, r_top));
        ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1e3));
        ckt
    }

    fn nmos_params(vth0: f64) -> MosParams {
        MosParams {
            mos_type: MosType::Nmos,
            w: 10e-6,
            l: 0.18e-6,
            vth0,
            kp: 170e-6,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj: 1.0e-3,
            ldiff: 0.5e-6,
        }
    }

    /// NMOS differential pair with resistor loads and a tail current
    /// source — the transistor-level Monte-Carlo workhorse.
    fn diff_pair(dvth: f64) -> Circuit {
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
        ckt.add(Mosfet::new(
            "M1",
            outp,
            inp,
            tail,
            Circuit::GROUND,
            nmos_params(0.45 + dvth),
        ));
        ckt.add(Mosfet::new(
            "M2",
            outn,
            inn,
            tail,
            Circuit::GROUND,
            nmos_params(0.45 - dvth),
        ));
        ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 2e-3));
        ckt
    }

    /// Batch sizes below, at and past one eight-lane group, so the tail
    /// group runs with masked lanes and the kernel is reused across
    /// groups.
    #[test]
    fn linear_variants_match_scalar_every_group_size() {
        let opts = NewtonOptions::default();
        for n in [1usize, 7, 8, 9, 17] {
            let ckts: Vec<Circuit> = (0..n)
                .map(|i| divider(1e3 + 250.0 * i as f64, 3.0))
                .collect();
            let batch = op_batch_plain(&ckts, &opts);
            assert_eq!(batch.len(), n);
            assert_eq!(batch.fallback_count(), 0);
            for (v, ckt) in ckts.iter().enumerate() {
                let s = op::solve(ckt).unwrap();
                for (a, b) in batch.solution(v).iter().zip(s.solution()) {
                    assert!((a - b).abs() < 1e-12, "n={n} variant={v}");
                }
            }
        }
    }

    #[test]
    fn mosfet_variants_match_scalar() {
        let ckts: Vec<Circuit> = [-10e-3, -3e-3, 0.0, 2e-3, 7e-3]
            .iter()
            .map(|&d| diff_pair(d))
            .collect();
        let opts = NewtonOptions::default();
        let batch = op_batch_plain(&ckts, &opts);
        let outp = ckts[0].find_node("outp").unwrap();
        let outn = ckts[0].find_node("outn").unwrap();
        for (v, ckt) in ckts.iter().enumerate() {
            let s = op::solve(ckt).unwrap();
            let off_b = batch.voltage(v, outp) - batch.voltage(v, outn);
            let off_s = s.voltage(outp) - s.voltage(outn);
            assert!(
                (off_b - off_s).abs() < 1e-9,
                "variant {v}: batched {off_b} vs scalar {off_s}"
            );
        }
        // A symmetric pair has zero offset; a skewed pair does not.
        assert!((batch.voltage(2, outp) - batch.voltage(2, outn)).abs() < 1e-9);
        assert!((batch.voltage(0, outp) - batch.voltage(0, outn)).abs() > 1e-3);
    }

    #[test]
    fn warm_start_matches_cold() {
        let ckts: Vec<Circuit> = [0.0, 1e-3, -2e-3].iter().map(|&d| diff_pair(d)).collect();
        let opts = NewtonOptions::default();
        let nominal = op::solve(&ckts[0]).unwrap();
        let cold = op_batch_plain(&ckts, &opts);
        let warm = op_batch(
            &ckts,
            &opts,
            Some(nominal.solution()),
            &Telemetry::disabled(),
        )
        .unwrap();
        for v in 0..3 {
            for (a, b) in warm.solution(v).iter().zip(cold.solution(v)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// A 100 V divider needs ~200 damped iterations (0.5 V clamp) —
    /// far past `max_iter` — so plain lockstep Newton exhausts its
    /// budget and the lane must fall back to the scalar homotopy
    /// ladder, which cracks it by source stepping. The small-source
    /// lanes converge in lockstep and must be untouched. One sick lane
    /// sits in the full first group, one in the masked tail group.
    #[test]
    fn lane_falls_back_to_scalar_ladder() {
        let sick = [1, 9];
        let cases: Vec<(f64, f64)> = (0..11)
            .map(|i| {
                let r = 1e3 * (1 + i % 3) as f64;
                let v = if sick.contains(&i) {
                    100.0
                } else {
                    1.0 + 0.25 * i as f64
                };
                (r, v)
            })
            .collect();
        let ckts: Vec<Circuit> = cases.iter().map(|&(r, v)| divider(r, v)).collect();
        let opts = NewtonOptions::default();
        let tel = Telemetry::enabled();
        let batch = op_batch(&ckts, &opts, None, &tel).unwrap();
        for v in 0..ckts.len() {
            assert_eq!(batch.used_fallback(v), sick.contains(&v), "variant {v}");
        }
        let report = tel.report();
        assert_eq!(report.counters.lane_fallbacks, sick.len() as u64);
        assert!(report.counters.batch_solves > 0);
        for (v, &(r, vs)) in cases.iter().enumerate() {
            let expect = vs * 1e3 / (r + 1e3);
            let out = ckts[v].find_node("out").unwrap();
            // Loose analytic check (gmin conditioning shifts the exact
            // value by ~1e-8 at 100 V) plus a tight check against the
            // scalar solver, which shares the same gmin.
            assert!((batch.voltage(v, out) - expect).abs() < 1e-6, "variant {v}");
            let s = op::solve(&ckts[v]).unwrap();
            assert!(
                (batch.voltage(v, out) - s.voltage(out)).abs() < 1e-12,
                "variant {v}"
            );
        }
    }

    #[test]
    fn sparse_path_matches_scalar() {
        // Force the sparse path on a resistor ladder big enough to be
        // non-trivial, with per-variant resistance perturbations.
        let build = |scale: f64| {
            let mut ckt = Circuit::new();
            let mut prev = ckt.node("n0");
            ckt.add(Vsource::dc("V1", prev, Circuit::GROUND, 1.0));
            for i in 1..=12 {
                let next = ckt.node(&format!("n{i}"));
                ckt.add(Resistor::new(
                    &format!("Rs{i}"),
                    prev,
                    next,
                    100.0 * scale + i as f64,
                ));
                ckt.add(Resistor::new(&format!("Rg{i}"), next, Circuit::GROUND, 1e3));
                prev = next;
            }
            ckt
        };
        // Eleven variants: the frozen pivot order is replayed into a
        // second, partly masked lane group.
        let ckts: Vec<Circuit> = (0..11).map(|i| build(1.0 + 0.05 * i as f64)).collect();
        let opts = NewtonOptions {
            sparse_threshold: 1,
            ..NewtonOptions::default()
        };
        let tel = Telemetry::enabled();
        let batch = op_batch(&ckts, &opts, None, &tel).unwrap();
        assert_eq!(batch.fallback_count(), 0);
        let report = tel.report();
        assert!(report.counters.sparse_solves > 0, "sparse path not taken");
        for (v, ckt) in ckts.iter().enumerate() {
            let s = op::solve_with(ckt, &opts, None).unwrap();
            for (a, b) in batch.solution(v).iter().zip(s.solution()) {
                assert!((a - b).abs() < 1e-9, "variant {v}");
            }
        }
    }

    #[test]
    fn mismatched_topology_rejected() {
        let mut other = Circuit::new();
        let n1 = other.node("n1");
        other.add(Isource::dc("I1", Circuit::GROUND, n1, 1e-3));
        other.add(Resistor::new("R1", n1, Circuit::GROUND, 1e3));
        let ckts = vec![divider(1e3, 3.0), other];
        let err = op_batch(
            &ckts,
            &NewtonOptions::default(),
            None,
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidConfig { .. }));
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch = op_batch_plain(&[], &NewtonOptions::default());
        assert!(batch.is_empty());
    }
}
