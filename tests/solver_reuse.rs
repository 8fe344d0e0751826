//! Tests for the transient factorization-reuse paths.
//!
//! Every transient path reads the same compiled linear part
//! `G + (a/dt)·C` and the same node-space history, and a Newton
//! workspace keeps its last transient LU under the step size and method
//! it factored. The linear part must be compiled once per run, at fixed
//! and adaptive steps. A nonlinear circuit starts each solve whose step
//! size and method match the kept LU with a chord step against it; the
//! counters pin when it does. (A linear circuit keeps the LU for every
//! iteration of every solve with its key; `tran_oracles`' RC-ladder
//! oracles pin that path against a closed form and its counters.) Every
//! test runs on the dense LU path (forced with `sparse_threshold =
//! usize::MAX`) and on the default sparse one, so both stay pinned.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_pdk::Pdk018;
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;

/// The two LU paths: dense (forced) and sparse (the default).
const THRESHOLDS: [usize; 2] = [usize::MAX, 1];

/// The paper's CML buffer cell under a differential step, with its
/// output port.
fn buffer_step() -> (Circuit, DiffPort) {
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
    (ckt, output)
}

/// The buffer at a fixed and at an adaptive step.
fn buffer_configs() -> [TranConfig; 2] {
    [
        TranConfig::new(0.3e-9, 1e-12),
        TranConfig::new(0.3e-9, 2e-12).adaptive(),
    ]
}

/// The buffer switches, at fixed and at adaptive steps (where `dt`
/// changes from step to step), and its linear part is compiled once per
/// run and read by every transient solve.
#[test]
fn cml_buffer_compiles_its_linear_part_once() {
    let (ckt, output) = buffer_step();
    let configs = buffer_configs();
    for threshold in THRESHOLDS {
        for (k, tcfg) in configs.iter().enumerate() {
            let mut tcfg = tcfg.clone();
            tcfg.newton.sparse_threshold = threshold;
            let tel = Telemetry::enabled();
            let res = tran::run_traced(&ckt, &tcfg, &tel).expect("transient");
            // The buffer actually switched.
            let swing = res
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
