//! Pass 2: structural conditioning prediction.
//!
//! Samples the dense MNA Jacobian at the midpoint and at the corners of the
//! interval box from pass 1, builds a per-position magnitude envelope, and
//! inspects per-row statistics:
//!
//! * a row whose envelope is numerically empty (`A004`) means the unknown is
//!   held only by the solver's gmin — the LU pivot there is gmin-sized and
//!   the computed value is numerically arbitrary;
//! * a row whose nonzero magnitudes span many decades (`A003`) predicts
//!   pivot-growth trouble for the factorization;
//! * the global dimension/density summary recommends dense vs sparse and a
//!   batch sparse threshold.
//!
//! Corner node voltages are clamped to a supply-scale excursion so that
//! unbounded boxes (opaque-element circuits) still produce a usable sample;
//! the envelope is a *sample*, not a proof, and all findings here are
//! advisory.

use super::{AnalyzeCode, AnalyzeOptions, ConditioningSummary, Finding};
use crate::analysis::System;
use crate::circuit::Circuit;
use crate::element::{DcTransfer, StampMode};
use crate::lint::unknown_name;
use cml_numeric::{DenseMatrix, Interval};

pub(crate) struct CondResult {
    pub summary: ConditioningSummary,
    pub findings: Vec<Finding>,
}

/// Clamp a corner voltage to a finite supply-scale excursion.
fn clamp_corner(v: f64, limit: f64) -> f64 {
    if v.is_finite() {
        v.clamp(-limit, limit)
    } else if v > 0.0 {
        limit
    } else {
        -limit
    }
}

pub(crate) fn conditioning(
    ckt: &Circuit,
    bounds: &[Interval],
    opts: &AnalyzeOptions,
) -> CondResult {
    let sys = System::new(ckt);
    let dim = sys.dim();
    let n_nodes = sys.n_nodes();

    let mut branch_owner: Vec<String> = Vec::new();
    for e in ckt.elements() {
        for _ in 0..e.num_branches() {
            branch_owner.push(e.name().to_string());
        }
    }

    // Corner excursions stay within a supply-scale window even when pass 1
    // could not bound a node: conditioning predicts the factorization near a
    // *plausible* operating point, and no healthy node exceeds the summed
    // source budget.
    let limit = 10.0
        + ckt
            .elements()
            .filter_map(|e| match e.dc_transfer() {
                DcTransfer::VoltageDefined { v, .. } => Some(v.abs()),
                _ => None,
            })
            .sum::<f64>();

    let corner = |pick: fn(&Interval) -> f64| -> Vec<f64> {
        let mut x = vec![0.0; dim];
        for (raw, b) in bounds.iter().enumerate().skip(1) {
            if raw - 1 < n_nodes {
                x[raw - 1] = clamp_corner(pick(b), limit);
            }
        }
        x
    };
    let samples = [corner(|b| b.midpoint()), corner(|b| b.lo), corner(|b| b.hi)];

    let mut envelope = vec![0.0f64; dim * dim];
    let mut matrix = DenseMatrix::zeros(dim, dim);
    let mut rhs = Vec::new();
    for x in &samples {
        // gmin = 0: the envelope should show what the *elements* hold, so a
        // gmin-only row is visible as numerically empty.
        sys.assemble(x, StampMode::dc(), 0.0, &mut matrix, &mut rhs);
        for r in 0..dim {
            for c in 0..dim {
                let m = matrix[(r, c)].abs();
                if m > envelope[r * dim + c] {
                    envelope[r * dim + c] = m;
                }
            }
        }
    }

    let mut findings = Vec::new();
    let mut empty_rows = Vec::new();
    let mut spread_rows: Vec<(String, f64)> = Vec::new();
    let mut max_row_spread = 1.0f64;
    let mut worst_row = None;
    let mut nnz = 0usize;

    for r in 0..dim {
        let row = &envelope[r * dim..(r + 1) * dim];
        let mut row_max = 0.0f64;
        let mut row_min = f64::INFINITY;
        for &m in row {
            if m > 0.0 {
                nnz += 1;
            }
            // Sub-eps entries are treated as numerically absent for both the
            // empty-row and the spread statistics.
            if m > opts.empty_row_eps {
                row_max = row_max.max(m);
                row_min = row_min.min(m);
            }
        }
        let name = unknown_name(ckt, r, n_nodes, &branch_owner);
        if row_max == 0.0 {
            empty_rows.push(name);
            continue;
        }
        let spread = row_max / row_min;
        if spread > max_row_spread {
            max_row_spread = spread;
            worst_row = Some(name.clone());
        }
        if spread >= opts.row_spread_limit {
            spread_rows.push((name, spread));
        }
    }

    if !empty_rows.is_empty() {
        findings.push(Finding {
            code: AnalyzeCode::EmptyRow,
            element: None,
            nodes: empty_rows.clone(),
            message: format!(
                "{} MNA row(s) are numerically empty (every element entry \
                 ≤ {:.0e}) at every sampled corner of the interval box; \
                 these unknowns are held only by gmin",
                empty_rows.len(),
                opts.empty_row_eps
            ),
        });
    }
    if !spread_rows.is_empty() {
        let mut nodes: Vec<String> = spread_rows.iter().map(|(n, _)| n.clone()).collect();
        nodes.truncate(4);
        let worst = spread_rows.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
        findings.push(Finding {
            code: AnalyzeCode::RowScaleImbalance,
            element: None,
            nodes,
            message: format!(
                "{} row(s) mix magnitudes spanning ≥ {:.1e}× (worst {:.1e}×); \
                 LU pivoting is likely to lose precision or fall back",
                spread_rows.len(),
                opts.row_spread_limit,
                worst
            ),
        });
    }

    let density = if dim == 0 {
        0.0
    } else {
        nnz as f64 / (dim * dim) as f64
    };
    let summary = ConditioningSummary {
        dim,
        n_nodes,
        nnz,
        density,
        max_row_spread,
        worst_row,
        empty_rows,
    };
    CondResult { summary, findings }
}
