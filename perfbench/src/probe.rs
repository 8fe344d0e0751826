//! Outside unit-cost probes for the traced run.
//!
//! At a workload's converged operating point, time one stamp pass
//! through the public `Stamper::new` and one LU refactorization and
//! solve of the resulting Jacobian, on the LU path the solver itself
//! takes at that size. The traced run multiplies these unit costs by
//! the telemetry counts to attribute the stamp and LU shares of a job.

use crate::layers::elapsed_ns;
use cml_numeric::sparse::TripletMatrix;
use cml_numeric::{DenseMatrix, LuFactors, SparseLu};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::element::{Element, StampCtx, StampMode, Stamper};
use cml_spice::Circuit;
use std::hint::black_box;
use std::time::Instant;

/// Unit costs at one operating point, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// MNA dimension.
    pub dim: usize,
    /// One stamp pass over every element.
    pub stamp_full_us: f64,
    /// One stamp pass over the linear elements only.
    pub stamp_linear_us: f64,
    /// One right-hand-side-only pass over the linear elements: what a
    /// step that reuses the cached linear matrix stamps.
    pub stamp_linear_rhs_us: f64,
    /// One stamp pass over the nonlinear elements only.
    pub stamp_nonlinear_us: f64,
    /// A factorization with pivot search (sparse) or a dense LU.
    pub factor_us: f64,
    /// A refactorization replaying the frozen pivot order (sparse) or
    /// a dense LU (dense).
    pub refactor_us: f64,
    /// One forward/back substitution.
    pub solve_us: f64,
}

/// MNA layout: per-element branch and state offsets, as the solver
/// assigns them (in element order).
struct Layout {
    n_nodes: usize,
    dim: usize,
    branch_bases: Vec<usize>,
    state_bases: Vec<usize>,
    state_len: usize,
}

impl Layout {
    fn of(ckt: &Circuit) -> Self {
        let n_nodes = ckt.num_unknown_nodes();
        let (mut branches, mut states) = (0, 0);
        let mut branch_bases = Vec::new();
        let mut state_bases = Vec::new();
        for e in ckt.elements() {
            branch_bases.push(branches);
            state_bases.push(states);
            branches += e.num_branches();
            states += e.state_size();
        }
        Layout {
            n_nodes,
            dim: n_nodes + branches,
            branch_bases,
            state_bases,
            state_len: states,
        }
    }

    fn ctx<'a>(
        &self,
        i: usize,
        e: &dyn Element,
        x: &'a [f64],
        state: &'a [f64],
        mode: StampMode,
    ) -> StampCtx<'a> {
        let sb = self.state_bases[i];
        StampCtx {
            x,
            state: state.get(sb..sb + e.state_size()).unwrap_or(&[]),
            branch_base: self.branch_bases[i],
            n_nodes: self.n_nodes,
            mode,
        }
    }
}

/// One stamp pass over the elements `keep` selects.
#[allow(clippy::too_many_arguments)]
fn stamp_pass(
    ckt: &Circuit,
    lay: &Layout,
    x: &[f64],
    state: &[f64],
    mode: StampMode,
    keep: impl Fn(&dyn Element) -> bool,
    m: &mut DenseMatrix,
    rhs: &mut [f64],
) {
    for (i, e) in ckt.elements().enumerate() {
        if keep(e) {
            let ctx = lay.ctx(i, e, x, state, mode);
            e.stamp(&ctx, &mut Stamper::new(m, rhs, lay.n_nodes));
        }
    }
}

/// Median over `samples` batches of the per-call time of `f`, in µs.
/// Each batch runs `f` enough times to span about 200 µs.
fn median_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = elapsed_ns(t).max(1);
    let reps = (200_000 / once).clamp(1, 10_000);
    let mut per_call: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            elapsed_ns(t) as f64 / reps as f64 / 1e3
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// Probes `ckt` at its operating point in `mode`.
pub fn unit_costs(ckt: &Circuit, mode: StampMode) -> Result<UnitCosts, String> {
    let opts = NewtonOptions::default();
    let x = op::solve_with(ckt, &opts, Some(0.0))
        .map_err(|e| format!("probe operating point: {e}"))?
        .solution()
        .to_vec();
    let lay = Layout::of(ckt);
    let mut state = vec![0.0; lay.state_len];
    for (i, e) in ckt.elements().enumerate() {
        let ctx = lay.ctx(i, e, &x, &[], StampMode::dc());
        let sb = lay.state_bases[i];
        e.init_state(&ctx, &mut state[sb..sb + e.state_size()]);
    }

    let n = lay.dim;
    let mut m = DenseMatrix::zeros(n, n);
    let mut rhs = vec![0.0; n];
    let mut pass = |keep: fn(&dyn Element) -> bool| {
        median_us(|| {
            stamp_pass(ckt, &lay, &x, &state, mode, keep, &mut m, &mut rhs);
            black_box(&rhs);
        })
    };
    let stamp_full_us = pass(|_| true);
    let stamp_linear_us = pass(|e| !e.is_nonlinear());
    let stamp_nonlinear_us = pass(|e| e.is_nonlinear());
    let stamp_linear_rhs_us = median_us(|| {
        for (i, e) in ckt.elements().enumerate() {
            if !e.is_nonlinear() {
                let ctx = lay.ctx(i, e, &x, &state, mode);
                e.stamp(&ctx, &mut Stamper::rhs_only(&mut rhs, lay.n_nodes));
            }
        }
        black_box(&rhs);
    });

    // The Jacobian at the operating point, conditioned like the solver
    // (gmin from every node to ground).
    let mut jac = DenseMatrix::zeros(n, n);
    let mut b = vec![0.0; n];
    stamp_pass(ckt, &lay, &x, &state, mode, |_| true, &mut jac, &mut b);
    for i in 0..lay.n_nodes {
        jac[(i, i)] += opts.gmin;
    }
    let mut sol = vec![0.0; n];
    let (factor_us, refactor_us, solve_us) = if n >= opts.sparse_threshold {
        let mut trip = TripletMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                if jac[(r, c)] != 0.0 {
                    trip.add(r, c, jac[(r, c)]);
                }
            }
        }
        let csr = trip.to_csr().map_err(|e| format!("probe CSR: {e}"))?;
        let mut lu = SparseLu::new(&csr).map_err(|e| format!("probe LU: {e}"))?;
        let mut failed = None;
        let factor_us = median_us(|| {
            if let Err(e) = lu.factor(&csr) {
                failed = Some(e);
            }
        });
        let refactor_us = median_us(|| {
            if let Err(e) = lu.refactor(&csr) {
                failed = Some(e);
            }
        });
        let solve_us = median_us(|| {
            if let Err(e) = lu.solve_into(&b, &mut sol) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("probe sparse LU: {e}"));
        }
        (factor_us, refactor_us, solve_us)
    } else {
        let mut lu = LuFactors::default();
        let mut failed = None;
        let factor_us = median_us(|| {
            if let Err(e) = lu.refactor(&jac) {
                failed = Some(e);
            }
        });
        let mut out = Vec::with_capacity(n);
        let solve_us = median_us(|| {
            if let Err(e) = lu.solve_into(&b, &mut out) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("probe dense LU: {e}"));
        }
        (factor_us, factor_us, solve_us)
    };
    Ok(UnitCosts {
        dim: n,
        stamp_full_us,
        stamp_linear_us,
        stamp_linear_rhs_us,
        stamp_nonlinear_us,
        factor_us,
        refactor_us,
        solve_us,
    })
}
