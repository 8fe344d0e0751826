//! Tests for the transient factorization-reuse paths.
//!
//! Every transient path reads the same compiled linear part
//! `G + (a/dt)·C` and the same node-space history, and a Newton
//! workspace keeps its last transient LU under the step size and method
//! it factored. `TranConfig` reuse only lets a linear circuit keep that
//! LU across timesteps of one step size. These tests pin the contract
//! that it changes wall-clock only, never results: a reuse-enabled run
//! must match the refactor-every-iteration reference bit-for-bit on
//! linear circuits and to ≤ 1e-12 on nonlinear (MOSFET) circuits, at
//! fixed and adaptive steps, and the linear part must be compiled once
//! per run. A nonlinear circuit starts each solve whose step size and
//! method match the kept LU with a chord step against it, with or
//! without the flag; the counters pin when it does. Every test runs on
//! the dense LU path (forced with `sparse_threshold = usize::MAX`) and
//! on the default sparse one, so both stay pinned.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_pdk::Pdk018;
use cml_spice::analysis::tran::{self, TranConfig, TranResult};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;

fn rc_ladder(n_stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add(Vsource::new(
        "V1",
        prev,
        Circuit::GROUND,
        Waveform::step(0.0, 1.0, 10e-12, 5e-12),
    ));
    for i in 0..n_stages {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(&format!("R{i}"), prev, node, 150.0));
        ckt.add(Capacitor::new(
            &format!("C{i}"),
            node,
            Circuit::GROUND,
            40e-15,
        ));
        prev = node;
    }
    ckt
}

/// The two LU paths: dense (forced) and sparse (the default).
const THRESHOLDS: [usize; 2] = [usize::MAX, 1];

fn max_solution_diff(a: &TranResult, b: &TranResult, nodes: &[NodeId]) -> f64 {
    assert_eq!(a.times(), b.times(), "accepted time grids must match");
    let mut worst = 0.0f64;
    for &node in nodes {
        let va = a.voltage(node);
        let vb = b.voltage(node);
        for (x, y) in va.iter().zip(&vb) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// Linear circuit: the cached-factorization path solves the *same*
/// loaded matrix through the *same* LU, so the result is bit-for-bit
/// identical, across both integration methods and the adaptive LTE path.
#[test]
fn rc_ladder_reuse_is_bit_identical() {
    let ckt = rc_ladder(20);
    let nodes: Vec<NodeId> = (0..20)
        .map(|i| ckt.find_node(&format!("n{i}")).unwrap())
        .collect();
    let configs = [
        TranConfig::new(3e-9, 2e-12),
        TranConfig::new(3e-9, 2e-12).backward_euler(),
        TranConfig::new(3e-9, 10e-12).adaptive(),
    ];
    for threshold in THRESHOLDS {
        for (k, cfg) in configs.iter().enumerate() {
            let mut cfg = cfg.clone();
            cfg.newton.sparse_threshold = threshold;
            let with = tran::run(&ckt, &cfg).expect("reuse run");
            let without = tran::run(&ckt, &cfg.without_factor_reuse()).expect("plain run");
            let worst = max_solution_diff(&with, &without, &nodes);
            assert_eq!(
                worst, 0.0,
                "threshold {threshold}, config {k}: paths diverge by {worst:e}"
            );
        }
    }
}

/// Nonlinear circuit (the paper's CML buffer cell): allow last-ulp
/// accumulation — but no more. Both runs load the one compiled linear
/// part at every solve, at fixed and at adaptive steps, where `dt`
/// changes from step to step.
/// The paper's CML buffer cell under a differential step, with its
/// input and output ports.
fn buffer_step() -> (Circuit, DiffPort, DiffPort) {
    let cfg = CmlBufferConfig::paper_default();
    let pdk = Pdk018::typical();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    // A differential step through the buffer: enough signal to move the
    // pair well away from its symmetric operating point.
    let step = Waveform::Pwl(vec![
        (0.0, vcm - 0.1),
        (50e-12, vcm - 0.1),
        (60e-12, vcm + 0.1),
        (1.0, vcm + 0.1),
    ]);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(step));
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, output, vdd);
    ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, 30e-15));
    ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, 30e-15));
    (ckt, input, output)
}

/// The buffer at a fixed and at an adaptive step.
fn buffer_configs() -> [TranConfig; 2] {
    [
        TranConfig::new(0.3e-9, 1e-12),
        TranConfig::new(0.3e-9, 2e-12).adaptive(),
    ]
}

#[test]
fn cml_buffer_reuse_matches_reference() {
    let (ckt, input, output) = buffer_step();
    let configs = buffer_configs();
    for threshold in THRESHOLDS {
        for (k, tcfg) in configs.iter().enumerate() {
            let mut tcfg = tcfg.clone();
            tcfg.newton.sparse_threshold = threshold;
            let tel = Telemetry::enabled();
            let with = tran::run_traced(&ckt, &tcfg, &tel).expect("reuse run");
            let without = tran::run(&ckt, &tcfg.clone().without_factor_reuse()).expect("plain run");
            let worst = max_solution_diff(&with, &without, &[output.p, output.n, input.p]);
            assert!(
                worst <= 1e-12,
                "threshold {threshold}, config {k}: paths diverge by {worst:e}"
            );
            // Sanity: the buffer actually switched, so the comparison is
            // not between two all-zero waveforms.
            let swing = with
                .differential(output.p, output.n)
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            assert!(
                swing.1 - swing.0 > 0.1,
                "threshold {threshold}, config {k}: buffer output never moved: {swing:?}"
            );
            // The linear part was compiled once, even on adaptive steps
            // where `dt` keeps changing, and every transient solve (each
            // accepted step, LTE reject and Newton retry) read it.
            let c = tel.report().counters;
            let tran_solves = c.tran_steps + c.lte_rejects + c.newton_retries;
            assert!(
                c.lin_stamp_builds == 1 && c.lin_stamp_hits == tran_solves,
                "threshold {threshold}, config {k}: {} builds, {} hits for {tran_solves} solves",
                c.lin_stamp_builds,
                c.lin_stamp_hits
            );
        }
    }
}

/// Each Newton iteration either factors or takes a chord step against
/// the kept LU. At a fixed step every transient solve after the first
/// keeps the step key its predecessor left, so each one starts with a
/// chord step. In an adaptive run the solve after an LTE reject or a
/// Newton retry runs at a new `dt` and refactors from its first
/// iteration (`a_chord_step_needs_the_step_key_of_a_successful_solve`
/// in `cml-spice` pins the rule solve by solve).
#[test]
fn cml_buffer_chord_steps_follow_the_step_key() {
    let (ckt, ..) = buffer_step();
    for threshold in THRESHOLDS {
        for (k, tcfg) in buffer_configs().iter().enumerate() {
            let mut tcfg = tcfg.clone();
            tcfg.newton.sparse_threshold = threshold;
            let tel = Telemetry::enabled();
            tran::run_traced(&ckt, &tcfg, &tel).expect("transient");
            let c = tel.report().counters;
            let case = format!("threshold {threshold}, config {k}");
            assert_eq!(
                c.full_factorizations + c.refactorizations,
                c.newton_iterations - c.factor_reuse_hits,
                "{case}: an iteration neither factored nor took a chord step"
            );
            let tran_solves = c.tran_steps + c.lte_rejects + c.newton_retries;
            if tcfg.adaptive {
                assert!(
                    c.factor_reuse_hits > 0
                        && c.factor_reuse_hits + c.lte_rejects + c.newton_retries < tran_solves,
                    "{case}: {} chord steps, {} rejects, {} retries, {tran_solves} solves",
                    c.factor_reuse_hits,
                    c.lte_rejects,
                    c.newton_retries
                );
            } else {
                assert_eq!(c.newton_retries, 0, "{case}");
                assert_eq!(c.factor_reuse_hits, tran_solves - 1, "{case}");
            }
        }
    }
}
