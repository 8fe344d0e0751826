//! Equivalence tests for the sparse-MNA solve path.
//!
//! The solver switches from dense to sparse LU at
//! `NewtonOptions::sparse_threshold` unknowns; these tests pin the
//! contract that the switch changes wall-clock only, never results.
//! Every circuit is solved twice — threshold 1 (sparse forced) and
//! `usize::MAX` (dense forced) — and the solutions must agree to ≤ 1e-9
//! across the whole trajectory, linear and transistor-level circuits
//! alike. A property test additionally checks the sparse factorization
//! against the dense one on random diagonally-dominant MNA-shaped
//! systems of varying bandwidth. On the transistor-level PRBS-7 eye,
//! the LTE-adaptive step controller must also reproduce the fixed-step
//! eye to within 1 %, without the sparse path ever falling back to
//! dense.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_numeric::sparse::TripletMatrix;
use cml_numeric::{DenseMatrix, SparseLu};
use cml_pdk::Pdk018;
use cml_sig::eye::{EyeDiagram, EyeMetrics};
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::UniformWave;
use cml_spice::analysis::tran::{self, TranConfig, TranResult};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use proptest::prelude::*;

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

fn buffer_circuit() -> (Circuit, DiffPort) {
    let pdk = Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        1.2,
        Some(Waveform::step(1.15, 1.25, 20e-12, 10e-12)),
    );
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, output, vdd);
    (ckt, output)
}

/// The paper's input interface, differentially driven by `drive(vcm)`.
fn interface_circuit(drive: impl FnOnce(f64) -> Waveform) -> (Circuit, DiffPort) {
    let pdk = Pdk018::typical();
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    let vcm = cfg.equalizer.input_common_mode();
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(drive(vcm)));
    input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, output, vdd);
    (ckt, output)
}

fn step_interface() -> (Circuit, DiffPort) {
    interface_circuit(|vcm| Waveform::step(vcm - 0.05, vcm + 0.05, 30e-12, 10e-12))
}

fn tran_cfg(t_stop: f64, dt: f64, threshold: usize) -> TranConfig {
    let mut cfg = TranConfig::new(t_stop, dt);
    cfg.newton.sparse_threshold = threshold;
    cfg
}

/// Worst node-voltage difference between two runs across every unknown
/// node of `ckt` and every accepted time point.
fn worst_diff(ckt: &Circuit, a: &TranResult, b: &TranResult) -> f64 {
    assert_eq!(a.times(), b.times(), "time grids must match");
    let mut worst = 0.0f64;
    for raw in 1..=ckt.num_unknown_nodes() {
        let node = NodeId::from_raw(raw as u32);
        let va = a.voltage(node);
        let vb = b.voltage(node);
        for (x, y) in va.iter().zip(&vb) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

#[test]
fn op_matches_on_seed_circuits() {
    let circuits: Vec<(&str, Circuit)> = vec![
        ("rc_ladder", rc_ladder(20)),
        ("cml_buffer", buffer_circuit().0),
        ("input_interface", step_interface().0),
    ];
    for (name, ckt) in &circuits {
        let dense_opts = NewtonOptions {
            sparse_threshold: usize::MAX,
            ..NewtonOptions::default()
        };
        let sparse_opts = NewtonOptions {
            sparse_threshold: 1,
            ..NewtonOptions::default()
        };
        let dense = op::solve_with(ckt, &dense_opts, None).expect("dense op");
        let sparse = op::solve_with(ckt, &sparse_opts, None).expect("sparse op");
        let worst = dense
            .solution()
            .iter()
            .zip(sparse.solution())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(worst <= 1e-9, "{name}: op sparse/dense diff {worst:.3e}");
    }
}

#[test]
fn tran_matches_on_linear_ladder() {
    let ckt = rc_ladder(20);
    for base in [
        TranConfig::new(2e-9, 4e-12),
        TranConfig::new(2e-9, 4e-12).backward_euler(),
        TranConfig::new(2e-9, 10e-12).adaptive(),
    ] {
        let mut dense_cfg = base.clone();
        dense_cfg.newton.sparse_threshold = usize::MAX;
        let mut sparse_cfg = base.clone();
        sparse_cfg.newton.sparse_threshold = 1;
        let dense = tran::run(&ckt, &dense_cfg).expect("dense tran");
        let sparse = tran::run(&ckt, &sparse_cfg).expect("sparse tran");
        let worst = worst_diff(&ckt, &dense, &sparse);
        assert!(worst <= 1e-9, "ladder sparse/dense diff {worst:.3e}");
    }
}

#[test]
fn tran_matches_on_transistor_cells() {
    for (name, (ckt, _out), t_stop) in [
        ("cml_buffer", buffer_circuit(), 0.4e-9),
        ("input_interface", step_interface(), 0.2e-9),
    ] {
        let dense = tran::run(&ckt, &tran_cfg(t_stop, 2e-12, usize::MAX)).expect("dense tran");
        let sparse = tran::run(&ckt, &tran_cfg(t_stop, 2e-12, 1)).expect("sparse tran");
        let worst = worst_diff(&ckt, &dense, &sparse);
        assert!(worst <= 1e-9, "{name}: sparse/dense diff {worst:.3e}");
    }
}

/// Eye of the differential output, resampled to a uniform 1 ps grid
/// first (the adaptive grid is non-uniform).
fn eye_of(res: &TranResult, out: DiffPort, ui: f64) -> EyeMetrics {
    let v = res.differential(out.p, out.n);
    let wave = UniformWave::from_series(res.times(), &v, 1e-12);
    EyeDiagram::fold(&wave.skip_initial(4.0 * ui), ui).metrics()
}

#[test]
fn adaptive_eye_matches_fixed_step_on_transistor_prbs7() {
    const UI: f64 = 100e-12;
    // Eight bits leave only the opening run of ones after the 4-UI skip
    // (no crossings, zero height), so the comparison would be vacuous.
    let n_bits = 16;
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let (mut ckt, out) = interface_circuit(|vcm| {
        Waveform::Pwl(NrzConfig::new(UI, 0.2).with_offset(vcm).render_pwl(&bits))
    });
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    let t_stop = n_bits as f64 * UI;
    let fixed = tran::run(&ckt, &tran_cfg(t_stop, 1e-12, usize::MAX)).expect("fixed tran");
    let mut adaptive_cfg = TranConfig::new(t_stop, 1e-12).adaptive();
    adaptive_cfg.newton.sparse_threshold = 1;
    let tel = Telemetry::enabled();
    let adaptive = tran::run_traced(&ckt, &adaptive_cfg, &tel).expect("adaptive tran");
    assert_eq!(
        tel.report().counters.dense_fallbacks,
        0,
        "sparse-adaptive transient fell back to the dense solver"
    );
    let (f, a) = (eye_of(&fixed, out, UI), eye_of(&adaptive, out, UI));
    let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-30);
    assert!(f.height > 0.0, "fixed-step eye is closed");
    assert!(
        rel(a.height, f.height) < 0.01 && rel(a.width, f.width) < 0.01,
        "adaptive eye {:.4} V x {:.3e} s drifted from fixed {:.4} V x {:.3e} s",
        a.height,
        a.width,
        f.height,
        f.width
    );
}

proptest! {
    /// Sparse LU agrees with dense LU on random diagonally-dominant
    /// MNA-shaped systems (a band plus an arrow of couplings into the
    /// last rows, the structure branch currents create).
    #[test]
    fn sparse_lu_matches_dense_lu(
        seed in any::<u64>(),
        n in 3usize..40,
        band in 1usize..5,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut dense = DenseMatrix::zeros(n, n);
        let mut trips = TripletMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                let coupled = r.abs_diff(c) <= band || r >= n - 2 || c >= n - 2;
                if !coupled {
                    continue;
                }
                let mut v = next();
                if r == c {
                    v += 2.0 * (band as f64 + 2.0);
                }
                dense[(r, c)] = v;
                trips.add(r, c, v);
            }
        }
        let csr = trips.to_csr().expect("in-bounds");
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x_dense = dense.solve(&b).expect("diag dominant");
        let mut lu = SparseLu::new(&csr).expect("square");
        lu.factor(&csr).expect("diag dominant");
        let x_sparse = lu.solve(&b).expect("factored");
        for (a, s) in x_dense.iter().zip(&x_sparse) {
            prop_assert!((a - s).abs() < 1e-9, "dense {a} vs sparse {s}");
        }
    }
}
