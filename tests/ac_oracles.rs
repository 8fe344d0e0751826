//! AC oracles that share no code with the solver.
//!
//! Each circuit here is a two-port cascade whose transfer function is
//! computed in the test from ABCD (chain) matrices with plain
//! `Complex64` products: a series impedance `Z` is `[[1, Z], [0, 1]]`, a
//! shunt admittance `Y` is `[[1, 0], [Y, 1]]`, and an open-circuit
//! output gives `v_out / v_in = 1 / A` of the cascade. No stamp, no MNA
//! matrix and no LU is involved, so the oracle can stand in for the
//! dense AC reference.
//!
//! The solver adds `gmin` from every node to ground; the oracle models
//! it as one more shunt conductance per node, so the comparison measures
//! solver error only. Bounds are relative to the oracle's magnitude and
//! sit a factor of five above the worst case measured on a 2-vCPU Xeon.
//!
//! * **RC ladder.** `N` series-R / shunt-C sections driven by an ideal
//!   source. Every ladder node is checked: the voltage at node `k` over
//!   the input is `A(k..N) / A(0..N)`, the `A` entries of the tail and
//!   whole cascades.
//! * **Series RLC.** Source → L → C → R to ground, output across R,
//!   swept through its resonance.

// Test target: aborting on a malformed result with a message is the
// intended failure mode, so expect is fine here.
#![allow(clippy::expect_used)]

use cml_numeric::{logspace, Complex64};
use cml_spice::analysis::NewtonOptions;
use cml_spice::prelude::*;
use std::f64::consts::PI;

/// The solver's default node-to-ground conductance.
fn gmin() -> f64 {
    NewtonOptions::default().gmin
}

/// A 2×2 ABCD matrix, row-major.
#[derive(Clone, Copy)]
struct Abcd([Complex64; 4]);

impl Abcd {
    const IDENTITY: Abcd = Abcd([
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::ONE,
    ]);

    fn series(z: Complex64) -> Abcd {
        Abcd([Complex64::ONE, z, Complex64::ZERO, Complex64::ONE])
    }

    fn shunt(y: Complex64) -> Abcd {
        Abcd([Complex64::ONE, Complex64::ZERO, y, Complex64::ONE])
    }

    fn then(self, next: Abcd) -> Abcd {
        let [a, b, c, d] = self.0;
        let [e, f, g, h] = next.0;
        Abcd([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])
    }

    /// `A` entry: input voltage per output voltage into an open circuit.
    fn a(self) -> Complex64 {
        self.0[0]
    }
}

/// Relative distance of `got` from `want`.
fn rel(got: Complex64, want: Complex64) -> f64 {
    (got - want).abs() / want.abs()
}

// ---------------------------------------------------------------------
// RC ladder
// ---------------------------------------------------------------------

const R_SEC: f64 = 50.0;
const C_SEC: f64 = 20e-15;

/// Worst relative error of any ladder node over the grid; measured
/// worst 2.0e-14.
const LADDER_BOUND: f64 = 1e-13;

/// Builds an `n`-section ladder; returns the circuit and its nodes
/// after each section.
fn rc_ladder(n: usize) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
    let mut nodes = Vec::with_capacity(n);
    let mut prev = vin;
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(&format!("R{i}"), prev, node, R_SEC));
        ckt.add(Capacitor::new(
            &format!("C{i}"),
            node,
            Circuit::GROUND,
            C_SEC,
        ));
        nodes.push(node);
        prev = node;
    }
    (ckt, nodes)
}

/// `v(node k) / v_in` for every section `k` of an `n`-section ladder.
fn ladder_oracle(n: usize, f: f64) -> Vec<Complex64> {
    let y = Complex64::new(gmin(), 2.0 * PI * f * C_SEC);
    let section = Abcd::series(Complex64::from_real(R_SEC)).then(Abcd::shunt(y));
    // tails[k] is the cascade after node k: sections k+1..n.
    let mut tails = vec![Abcd::IDENTITY; n];
    for k in (0..n.saturating_sub(1)).rev() {
        tails[k] = section.then(tails[k + 1]);
    }
    let whole = section.then(tails[0]);
    tails.iter().map(|t| t.a() / whole.a()).collect()
}

#[test]
fn rc_ladder_matches_abcd_cascade() {
    let freqs = logspace(1e3, 1e12, 181);
    let mut worst = 0.0f64;
    for n in [1, 4, 16] {
        let (ckt, nodes) = rc_ladder(n);
        let ac = ac::sweep_auto(&ckt, &freqs).expect("ladder sweep");
        for (i, &f) in freqs.iter().enumerate() {
            for (k, want) in ladder_oracle(n, f).into_iter().enumerate() {
                let e = rel(ac.voltage(nodes[k], i), want);
                assert!(
                    e <= LADDER_BOUND,
                    "{n}-section ladder node {k} at {f:e} Hz: relative error {e:e}"
                );
                worst = worst.max(e);
            }
        }
    }
    eprintln!("RC ladder: worst relative error {worst:e}");
}

// ---------------------------------------------------------------------
// Series RLC
// ---------------------------------------------------------------------

const R_RLC: f64 = 10.0;
const L_RLC: f64 = 1e-9;
const C_RLC: f64 = 1e-12;

/// Worst relative error of the resistor voltage over the grid; measured
/// worst 7.9e-13, three decades off resonance where `v_R` is small.
const RLC_BOUND: f64 = 4e-12;

/// `v_R / v_in` of the series RLC. The inductor's branch current is an
/// unknown, not a node, so only the two internal nodes carry `gmin`.
fn rlc_oracle(f: f64) -> Complex64 {
    let w = 2.0 * PI * f;
    let g = Complex64::from_real(gmin());
    let chain = Abcd::series(Complex64::new(0.0, w * L_RLC))
        .then(Abcd::shunt(g))
        .then(Abcd::series(Complex64::new(0.0, -1.0 / (w * C_RLC))))
        .then(Abcd::shunt(g + 1.0 / R_RLC));
    Complex64::ONE / chain.a()
}

#[test]
fn series_rlc_matches_abcd_cascade() {
    let f0 = 1.0 / (2.0 * PI * (L_RLC * C_RLC).sqrt());
    let freqs = logspace(f0 / 1e3, f0 * 1e3, 241);
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let n1 = ckt.node("n1");
    let out = ckt.node("out");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
    ckt.add(Inductor::new("L1", vin, n1, L_RLC));
    ckt.add(Capacitor::new("C1", n1, out, C_RLC));
    ckt.add(Resistor::new("R1", out, Circuit::GROUND, R_RLC));
    let ac = ac::sweep_auto(&ckt, &freqs).expect("RLC sweep");
    let mut worst = 0.0f64;
    for (i, &f) in freqs.iter().enumerate() {
        let e = rel(ac.voltage(out, i), rlc_oracle(f));
        assert!(
            e <= RLC_BOUND,
            "series RLC at {f:e} Hz: relative error {e:e}"
        );
        worst = worst.max(e);
    }
    // At resonance the reactances cancel and v_R is the whole input.
    let at_f0 = rlc_oracle(f0);
    assert!(
        (at_f0 - Complex64::ONE).abs() < 1e-9,
        "oracle at f0: {at_f0}"
    );
    eprintln!("series RLC: worst relative error {worst:e}");
}
