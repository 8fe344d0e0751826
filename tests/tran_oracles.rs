//! Transient oracles that share no code with the solver, plus the
//! contract of the Newton start point.
//!
//! * **Integration order.** An RC low-pass driven by a sine has a
//!   closed-form response. Halving `dt` must cut the fixed-step error
//!   about ÷4 for trapezoidal and ÷2 for backward Euler, and the
//!   LTE-adaptive run must stay within a pinned distance of it.
//! * **Seed independence.** Newton starts every transient step from the
//!   polynomial predictor. Where it starts must not move the answer
//!   beyond the Newton tolerance band: a default-tolerance run of the
//!   CML buffer stays within 1e-4 bands of a tight-tolerance reference
//!   on the same grid.
//! * **Iteration count.** The predictor seed is what keeps Newton near
//!   two iterations per step solve. Counts are deterministic, so a
//!   ceiling on `newton_iterations / newton_solves` guards it.

// Test target: aborting on a malformed result with a message
// is the intended failure mode, so expect is fine here.
#![allow(clippy::expect_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_pdk::Pdk018;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_spice::analysis::tran::{self, TranConfig, TranResult};
use cml_spice::analysis::NewtonOptions;
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use std::f64::consts::PI;

const UI: f64 = 100e-12;

// ---------------------------------------------------------------------
// Integration order
// ---------------------------------------------------------------------

const R: f64 = 1e3;
const C: f64 = 1e-12;
const AMPL: f64 = 1.0;
/// `ω·τ = 1`: the corner frequency of the RC, where the response has
/// both a steady-state phase lag and a visible transient.
const FREQ: f64 = 1.0 / (2.0 * PI * R * C);
const T_STOP: f64 = 4e-9;

fn rc_sine() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::new(
        "V1",
        vin,
        Circuit::GROUND,
        Waveform::Sine {
            offset: 0.0,
            ampl: AMPL,
            freq: FREQ,
            delay: 0.0,
        },
    ));
    ckt.add(Resistor::new("R1", vin, out, R));
    ckt.add(Capacitor::new("C1", out, Circuit::GROUND, C));
    (ckt, out)
}

/// `τ·v' + v = A·sin(ωt)`, `v(0) = 0`.
fn rc_sine_exact(t: f64) -> f64 {
    let wt = 2.0 * PI * FREQ * R * C;
    let w = 2.0 * PI * FREQ;
    AMPL / (1.0 + wt * wt) * ((w * t).sin() - wt * (w * t).cos() + wt * (-t / (R * C)).exp())
}

fn max_error(cfg: &TranConfig) -> f64 {
    let (ckt, out) = rc_sine();
    let res = tran::run(&ckt, cfg).expect("rc transient");
    let v = res.voltage(out);
    res.times()
        .iter()
        .zip(&v)
        .fold(0.0f64, |m, (&t, &vi)| m.max((vi - rc_sine_exact(t)).abs()))
}

/// Error ratios between successive halvings of `dt`, from 40 ps down to
/// 5 ps (`τ/25` to `τ/200`).
fn halving_ratios(backward_euler: bool) -> Vec<f64> {
    let errs: Vec<f64> = [40e-12, 20e-12, 10e-12, 5e-12]
        .iter()
        .map(|&dt| {
            let cfg = TranConfig::new(T_STOP, dt);
            max_error(&if backward_euler {
                cfg.backward_euler()
            } else {
                cfg
            })
        })
        .collect();
    errs.windows(2).map(|w| w[0] / w[1]).collect()
}

#[test]
fn trapezoidal_error_falls_fourfold_per_halving() {
    // Measured: 3.9995–3.99996 over the three halvings.
    for r in halving_ratios(false) {
        assert!((3.95..=4.05).contains(&r), "trapezoidal ratio {r}");
    }
}

#[test]
fn backward_euler_error_falls_twofold_per_halving() {
    // Measured: 1.991–1.998 over the three halvings.
    for r in halving_ratios(true) {
        assert!((1.95..=2.05).contains(&r), "backward-Euler ratio {r}");
    }
}

#[test]
fn adaptive_error_stays_near_closed_form() {
    // Measured: 3.30e-4 V, a third of `reltol` times the 1 V amplitude.
    let err = max_error(&TranConfig::new(T_STOP, 40e-12).adaptive());
    assert!(err < 5e-4, "adaptive error {err:e} V");
}

// ---------------------------------------------------------------------
// Newton start point
// ---------------------------------------------------------------------

/// The paper-default CML buffer driven by `n_bits` of PRBS-7 at its own
/// swing.
fn buffer_circuit(n_bits: usize) -> Circuit {
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, cfg.stage.swing())
        .with_offset(vcm)
        .render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    cml_buffer::build(&mut ckt, &Pdk018::typical(), &cfg, "buf", input, out, vdd);
    ckt
}

/// The paper-default receive chain (equalizer → buffer → LA → output
/// buffer) driven by `n_bits` of PRBS-7 at 0.2 V.
fn rx_circuit(n_bits: usize) -> Circuit {
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cfg.equalizer.input_common_mode();
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, 0.2).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    input_interface::build(&mut ckt, &Pdk018::typical(), &cfg, "rx", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    ckt
}

/// Worst distance of `a` from the reference `b` over every node and
/// accepted point, in units of the default Newton band
/// `reltol·|v| + vntol` around the reference.
fn worst_in_bands(ckt: &Circuit, a: &TranResult, b: &TranResult) -> f64 {
    assert_eq!(a.times(), b.times(), "fixed grids must match");
    let opts = NewtonOptions::default();
    let mut worst = 0.0f64;
    for raw in 1..ckt.num_nodes() {
        let node = NodeId::from_raw(raw as u32);
        for (x, r) in a.voltage(node).iter().zip(&b.voltage(node)) {
            worst = worst.max((x - r).abs() / (opts.reltol * r.abs() + opts.vntol));
        }
    }
    worst
}

#[test]
fn newton_start_point_does_not_move_the_result() {
    let ckt = buffer_circuit(12);
    let cfg = TranConfig::new(12.0 * UI, 5e-12);
    let mut tight = cfg.clone();
    tight.newton.reltol = 1e-9;
    tight.newton.vntol = 1e-12;
    let default = tran::run(&ckt, &cfg).expect("default-tolerance run");
    let reference = tran::run(&ckt, &tight).expect("tight-tolerance run");
    // Measured: 8.3e-7 bands seeded from the last accepted point and
    // 4.4e-6 seeded from the predictor. Both sit far inside one band:
    // the last Newton update is below the band, and the error after it
    // is quadratically smaller.
    let worst = worst_in_bands(&ckt, &default, &reference);
    assert!(
        worst < 1e-4,
        "default run sits {worst:e} bands from the reference"
    );
}

fn iters_per_solve(ckt: &Circuit, cfg: &TranConfig) -> f64 {
    let tel = Telemetry::enabled();
    tran::run_traced(ckt, cfg, &tel).expect("transient");
    let c = tel.report().counters;
    assert_eq!(c.newton_retries, 0, "a step solve had to be retried");
    c.newton_iterations as f64 / c.newton_solves as f64
}

#[test]
fn predictor_seed_keeps_newton_near_two_iterations() {
    let buffer = iters_per_solve(&buffer_circuit(16), &TranConfig::new(16.0 * UI, 5e-12));
    let rx = iters_per_solve(
        &rx_circuit(16),
        &TranConfig::new(16.0 * UI, 1e-12).adaptive(),
    );
    // Measured: buffer 1.773 and rx 2.051 per solve seeded from the
    // predictor, against 2.131 and 2.594 from the last accepted point.
    assert!(buffer < 2.0, "buffer: {buffer:.3} iterations per solve");
    assert!(rx < 2.3, "rx: {rx:.3} iterations per solve");
}
