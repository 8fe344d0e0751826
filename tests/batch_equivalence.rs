//! Equivalence properties of the batched multi-variant solver.
//!
//! The batch engine's contract is that lane packing is invisible: a
//! K-variant batched operating point — one circuit, per-variant MOSFET
//! `vth0`/`kp` columns — must produce the same answers as K independent
//! scalar solves of circuits built with those cards, whether K fills one
//! eight-lane group, part of one, or several, on closed-form and
//! transistor-level circuits alike — and a lane evicted to the scalar
//! fallback ladder must land on the scalar answer exactly. On top sit the yield-estimator invariants:
//! the estimate is a pure function of `(parameters, seed)`,
//! independent of thread count and of the batch/scalar engine choice.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::yield_est::{
    behavioral_offset_yield, behavioral_offset_yield_scalar, pair_offsets_batched,
    pair_offsets_scalar, transistor_offset_yield, ChainSpec, PairYieldSpec, YieldConfig,
};
use cml_spice::analysis::batch::{self, MosField};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::prelude::*;
use proptest::prelude::*;

fn nmos(vth0: f64, kp: f64) -> MosParams {
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

const KP: f64 = 170e-6;

/// NMOS differential pair with mismatched thresholds — the
/// transistor-level Monte-Carlo workhorse — and `kp` scaled by
/// `kp_scale` on both devices.
fn diff_pair(dvth: f64, vin: f64, kp_scale: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let outp = ckt.node("outp");
    let outn = ckt.node("outn");
    let tail = ckt.node("tail");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
    ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, 0.9 + vin));
    ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, 0.9 - vin));
    ckt.add(Resistor::new("RL1", vdd, outp, 500.0));
    ckt.add(Resistor::new("RL2", vdd, outn, 500.0));
    let kp = KP * kp_scale;
    let (m1, m2) = (nmos(0.45 + dvth / 2.0, kp), nmos(0.45 - dvth / 2.0, kp));
    ckt.add(Mosfet::new("M1", outp, inp, tail, Circuit::GROUND, m1));
    ckt.add(Mosfet::new("M2", outn, inn, tail, Circuit::GROUND, m2));
    ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 1e-3));
    ckt
}

/// [`diff_pair`] with diode loads in place of the resistors: the diodes
/// are the batch's generic nonlinear elements, stamped lane by lane
/// beside the MOSFETs' device-table rows.
fn diode_pair(dvth: f64, vin: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let outp = ckt.node("outp");
    let outn = ckt.node("outn");
    let tail = ckt.node("tail");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
    ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, 0.9 + vin));
    ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, 0.9 - vin));
    ckt.add(Diode::new("D1", vdd, outp, DiodeParams::default()));
    ckt.add(Diode::new("D2", vdd, outn, DiodeParams::default()));
    let (m1, m2) = (nmos(0.45 + dvth / 2.0, KP), nmos(0.45 - dvth / 2.0, KP));
    ckt.add(Mosfet::new("M1", outp, inp, tail, Circuit::GROUND, m1));
    ckt.add(Mosfet::new("M2", outn, inn, tail, Circuit::GROUND, m2));
    ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 1e-3));
    ckt
}

/// The pair's per-variant `(ΔV_TH, kp scale)` as parameter columns over
/// `diff_pair(0.0, vin, 1.0)`, with the same arithmetic as [`diff_pair`].
fn pair_columns(variants: &[(f64, f64)]) -> batch::ParamColumns {
    let col = |f: &dyn Fn(&(f64, f64)) -> f64| variants.iter().map(f).collect();
    batch::ParamColumns::new(variants.len())
        .column("M1", MosField::Vth0, col(&|&(d, _)| 0.45 + d / 2.0))
        .column("M2", MosField::Vth0, col(&|&(d, _)| 0.45 - d / 2.0))
        .column("M1", MosField::Kp, col(&|&(_, k)| KP * k))
        .column("M2", MosField::Kp, col(&|&(_, k)| KP * k))
}

/// A linear divider driven by `v` beside an NMOS whose every terminal a
/// source pins (gate on the divider input, drain at 5 V, source
/// grounded): each unknown has a closed form — the divider tap, and the
/// square-law drain current as the `VD` branch current.
fn pinned(v: f64, r_top: f64, card: MosParams) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    let d = ckt.node("d");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, v));
    ckt.add(Resistor::new("R1", vin, out, r_top));
    ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1000.0));
    ckt.add(Vsource::dc("VD", d, Circuit::GROUND, 5.0));
    ckt.add(Mosfet::new(
        "M1",
        d,
        vin,
        Circuit::GROUND,
        Circuit::GROUND,
        card,
    ));
    ckt
}

proptest! {
    /// K-variant batched operating point == K independent scalar
    /// solves, MOSFET circuits, against the dense and the sparse scalar
    /// reference. K up to 20 spans several eight-lane groups: the
    /// kernel and its frozen sparse pivot order are reused across
    /// groups, and the last group masks its tail.
    #[test]
    fn batched_op_equals_scalar_mosfet(
        dvths in prop::collection::vec(-10e-3..10e-3f64, 1..=20),
        vin in -0.05..0.05f64,
    ) {
        let variants: Vec<(f64, f64)> = dvths.iter().map(|&d| (d, 1.0)).collect();
        let res = batch::op_batch(
            &diff_pair(0.0, vin, 1.0), &pair_columns(&variants), &NewtonOptions::default(), &[],
            &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        prop_assert_eq!(res.len(), variants.len());
        for sparse_threshold in [usize::MAX, 1] {
            let opts = NewtonOptions { sparse_threshold, ..NewtonOptions::default() };
            for (v, &d) in dvths.iter().enumerate() {
                let s = op::solve_with(&diff_pair(d, vin, 1.0), &opts, None).expect("scalar op");
                for (a, b) in res.solution(v).iter().zip(s.solution()) {
                    prop_assert!((a - b).abs() <= 1e-9,
                        "threshold={} variant={} batched={} scalar={}",
                        sparse_threshold, v, a, b);
                }
            }
        }
    }

    /// [`batched_op_equals_scalar_mosfet`] on the diode-loaded pair: the
    /// diodes take the batch's generic per-lane stamp, and the result
    /// must still match the dense and the sparse scalar reference.
    #[test]
    fn batched_op_equals_scalar_diode_loaded(
        dvths in prop::collection::vec(-10e-3..10e-3f64, 1..=20),
        vin in -0.05..0.05f64,
    ) {
        let variants: Vec<(f64, f64)> = dvths.iter().map(|&d| (d, 1.0)).collect();
        let res = batch::op_batch(
            &diode_pair(0.0, vin), &pair_columns(&variants), &NewtonOptions::default(), &[],
            &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        prop_assert_eq!(res.len(), variants.len());
        prop_assert_eq!(res.fallback_count(), 0);
        for sparse_threshold in [usize::MAX, 1] {
            let opts = NewtonOptions { sparse_threshold, ..NewtonOptions::default() };
            for (v, &d) in dvths.iter().enumerate() {
                let s = op::solve_with(&diode_pair(d, vin), &opts, None).expect("scalar op");
                for (a, b) in res.solution(v).iter().zip(s.solution()) {
                    prop_assert!((a - b).abs() <= 1e-9,
                        "threshold={} variant={} batched={} scalar={}",
                        sparse_threshold, v, a, b);
                }
            }
        }
    }

    /// Every unknown in closed form, one card per variant: any lane
    /// cross-talk moves a drain current off its own square law.
    #[test]
    fn batched_op_equals_scalar_closed_form(
        vth0s in prop::collection::vec(0.3..0.6f64, 1..=20),
        v in 0.1..5.0f64,
        r_top in 10.0..10_000.0f64,
    ) {
        let kps: Vec<f64> = (0..vth0s.len()).map(|i| 100e-6 * (1.0 + 0.2 * (i % 5) as f64)).collect();
        let ckt = pinned(v, r_top, nmos(0.45, KP));
        let cols = batch::ParamColumns::new(vth0s.len())
            .column("M1", MosField::Vth0, vth0s.clone())
            .column("M1", MosField::Kp, kps.clone());
        let res = batch::op_batch(
            &ckt, &cols, &NewtonOptions::default(), &[],
            &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        let out = ckt.find_node("out").expect("out node");
        for (variant, (&vth0, &kp)) in vth0s.iter().zip(&kps).enumerate() {
            let card = nmos(vth0, kp);
            let scalar = op::solve(&pinned(v, r_top, card.clone())).expect("scalar op");
            for (a, b) in res.solution(variant).iter().zip(scalar.solution()) {
                prop_assert!((a - b).abs() <= 1e-12, "variant {}", variant);
            }
            // Both sit on the analytic divider (gmin-conditioned, hence
            // the looser gate) and on the saturation square law.
            let expect = v * 1000.0 / (1000.0 + r_top);
            prop_assert!((res.voltage(variant, out) - expect).abs() <= 1e-6);
            let vov = (v - vth0).max(0.0);
            let ids = 0.5 * card.beta() * vov * vov * (1.0 + card.lambda * 5.0);
            let i_vd = scalar.current("VD").expect("VD branch").abs();
            prop_assert!((i_vd - ids).abs() <= 1e-9 + 1e-6 * ids,
                "variant {}: drain current {} vs square law {}", variant, i_vd, ids);
        }
    }

    /// A lane whose plain-Newton lockstep fails (`kp` scaled by 1e-6
    /// puts the tail node near −124 V, far past `max_iter` damped 0.5 V
    /// steps) is evicted and must land exactly on the scalar ladder's
    /// answer — and must not disturb its lane-mates.
    #[test]
    fn forced_fallback_matches_scalar_ladder(
        sick in 0usize..4,
        dvth in -5e-3..5e-3f64,
    ) {
        let variants: Vec<(f64, f64)> = (0..4)
            .map(|i| (dvth * i as f64, if i == sick { 1e-6 } else { 1.0 }))
            .collect();
        let res = batch::op_batch(
            &diff_pair(0.0, 0.0, 1.0), &pair_columns(&variants), &NewtonOptions::default(), &[],
            &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        for (variant, &(d, k)) in variants.iter().enumerate() {
            prop_assert_eq!(res.used_fallback(variant), variant == sick);
            let scalar = op::solve(&diff_pair(d, 0.0, k)).expect("scalar ladder");
            for (a, b) in res.solution(variant).iter().zip(scalar.solution()) {
                prop_assert!((a - b).abs() <= 1e-12, "variant {}", variant);
            }
        }
    }

    /// The behavioral yield estimate is a pure function of the seed:
    /// identical for any thread count and for packed vs scalar kernels.
    #[test]
    fn behavioral_yield_thread_and_engine_invariant(
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let chain = ChainSpec::paper_default();
        let thresholds = [0.05, 0.2];
        let base = YieldConfig::new(600, seed).with_chunk(97);
        let reference = behavioral_offset_yield(&base, &chain, &thresholds);
        let threaded = behavioral_offset_yield(
            &base.clone().with_threads(threads), &chain, &thresholds,
        );
        prop_assert_eq!(&reference, &threaded);
        let scalar = behavioral_offset_yield_scalar(&base, &chain, &thresholds);
        prop_assert_eq!(&reference, &scalar);
    }
}

/// Transistor-level yield: the estimate is bit-identical across thread
/// counts (single deterministic case — each trial is a real solve).
#[test]
fn transistor_yield_thread_invariant() {
    let spec = PairYieldSpec::paper_default();
    let thresholds = [2e-3, 5e-3];
    let base = YieldConfig::new(48, 0xBA7C4).with_chunk(16);
    let reference = transistor_offset_yield(&base, &spec, &thresholds).expect("1 thread");
    for threads in [2, 5, 8] {
        let run = transistor_offset_yield(&base.clone().with_threads(threads), &spec, &thresholds)
            .expect("n threads");
        assert_eq!(reference.estimate, run.estimate, "threads={threads}");
    }
}

/// Cold-started batched trials reproduce the scalar flow to ≤ 1e-9 on
/// the paper's four-stage chain across all process corners.
#[test]
fn chain_offsets_batched_agree_with_scalar() {
    let spec = PairYieldSpec::paper_chain().all_corners();
    let cfg = YieldConfig::new(24, 0x5EED)
        .with_chunk(12)
        .with_warm_start(false);
    let (batched, _) = pair_offsets_batched(&cfg, &spec).expect("batched offsets");
    let scalar = pair_offsets_scalar(&cfg, &spec).expect("scalar offsets");
    assert_eq!(batched.len(), scalar.len());
    for (i, (a, b)) in batched.iter().zip(&scalar).enumerate() {
        assert!((a - b).abs() <= 1e-9, "trial {i}: batched {a} scalar {b}");
    }
}
