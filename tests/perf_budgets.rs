//! Timing budgets of the solver stack, each a ratio of two legs timed
//! in the same process so host speed cancels out.
//!
//! Every budget has a smoke size, which CI runs in release, and most
//! have a full size, `#[ignore]`d to keep CI short. In debug builds the
//! smoke gates are ignored too: unoptimized code skews the ratios.
//! Run everything with
//!
//! ```text
//! cargo test --release -p cml-bench --test perf_budgets -- --include-ignored
//! ```
//!
//! The budgets:
//!
//! * the lint precheck costs < 1 % of a dense fixed-step transient of
//!   the PRBS-7 receive chain (smoke, 8 bits; full, 40 bits);
//! * the batched Monte-Carlo yield engine is ≥ 3× the scalar ladder on
//!   the four-stage chain, with the same yield table to ≤ 1e-9;
//! * the warm topology cache is ≥ 1.05× (smoke) or ≥ 1.3× (full) the
//!   cache-off path on repeated builtin op + AC rounds;
//! * full size only: the sparse parallel AC sweep is ≥ 3× the dense
//!   serial one, and enabled coarse telemetry, event log included,
//!   costs < 2 % on the PRBS-7 eye and on the AC sweep.
//!
//! Tests serialize on one mutex so no two timed legs overlap.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::input_interface::InputInterfaceConfig;
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, input_interface, DiffPort};
use cml_core::yield_est::{self, PairYieldSpec, YieldConfig};
use cml_numeric::logspace;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::analysis::{ac, op, NewtonOptions};
use cml_spice::lint;
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Serializes every test in this binary (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// Transistor-level receive chain (equalizer → buffer → LA → output
/// buffer) driven by `n_bits` of PRBS-7; returns it with its stop time.
fn rx_chain(n_bits: usize) -> (Circuit, f64) {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cfg.equalizer.input_common_mode();
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, 0.2).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    (ckt, n_bits as f64 * UI)
}

/// Transistor-level limiting amplifier with a unit differential AC drive.
fn la_ac() -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = LimitingAmpConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = limiting_amp::common_mode(&cfg);
    add_diff_drive(&mut ckt, "VIN", input, vcm, None);
    limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    ckt
}

fn ms_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Average wall-clock of `f` over `reps` back-to-back runs, in ms.
fn avg_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    ms_of(|| (0..reps).for_each(|_| f())) / reps as f64
}

/// Per-round wall-clock of `off` and `on` over `reps` interleaved
/// rounds, in ms: slow drift hits both legs alike instead of biasing
/// whichever ran second.
fn interleaved_ms(reps: usize, mut off: impl FnMut(), mut on: impl FnMut()) -> [Vec<f64>; 2] {
    let mut legs = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        legs[0].push(ms_of(&mut off));
        legs[1].push(ms_of(&mut on));
    }
    legs
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn assert_below(what: &str, frac: f64, budget: f64) {
    println!("{what}: {:.4} % (budget {:.0} %)", frac * 1e2, budget * 1e2);
    assert!(
        frac < budget,
        "{what} {:.3} % exceeds the {:.0} % budget",
        frac * 1e2,
        budget * 1e2
    );
}

fn assert_at_least(what: &str, speedup: f64, floor: f64) {
    println!("{what}: {speedup:.2}x (floor {floor}x)");
    assert!(
        speedup >= floor,
        "{what} {speedup:.3}x below the {floor}x floor"
    );
}

/// Wall-clock of one dense fixed-step (1 ps) transient, in ms.
fn dense_tran_ms(ckt: &Circuit, t_stop: f64) -> f64 {
    let mut cfg = TranConfig::new(t_stop, 1e-12);
    cfg.newton.sparse_threshold = usize::MAX;
    ms_of(|| {
        tran::run(ckt, &cfg).expect("dense transient");
    })
}

/// The lint precheck every analysis runs, averaged over `reps`, against
/// one dense transient of the `n_bits` receive chain.
fn lint_precheck_gate(n_bits: usize, reps: usize) {
    let (ckt, t_stop) = rx_chain(n_bits);
    let report = lint::lint(&ckt);
    assert!(
        !report.has_errors(),
        "workload fails its own lint:\n{}",
        report.render(lint::Severity::Error)
    );
    let precheck_ms = avg_ms(reps, || lint::precheck(&ckt).expect("clean workload"));
    let dense_ms = dense_tran_ms(&ckt, t_stop);
    assert_below(
        "lint precheck / dense transient",
        precheck_ms / dense_ms,
        0.01,
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: CI runs it in release")]
fn lint_precheck_under_1pct_of_dense_transient() {
    let _g = lock();
    lint_precheck_gate(8, 20);
}

#[test]
#[ignore = "full-size timing gate: run with --include-ignored in release"]
fn lint_precheck_under_1pct_of_dense_transient_full() {
    let _g = lock();
    lint_precheck_gate(40, 200);
}

/// Transistor-level offset yield on the four-stage chain: one run of
/// the per-trial scalar ladder, then one of the batched lockstep engine,
/// on the same trial stream.
fn batched_yield_gate(trials: usize) {
    let spec = PairYieldSpec::paper_chain();
    let thresholds = [5e-3, 0.1, 0.5];
    let cfg = YieldConfig::new(trials, 0xBEEF)
        .with_chunk(512)
        .with_threads(cml_runner::threads(None));
    let mut scalar = None;
    let scalar_ms = ms_of(|| {
        scalar = Some(yield_est::transistor_offset_yield_scalar(
            &cfg,
            &spec,
            &thresholds,
        ))
    });
    let mut batched = None;
    let batched_ms =
        ms_of(|| batched = Some(yield_est::transistor_offset_yield(&cfg, &spec, &thresholds)));
    let (scalar, batched) = (
        scalar.unwrap().expect("scalar sweep"),
        batched.unwrap().expect("batched sweep"),
    );
    for i in 0..thresholds.len() {
        let delta = (batched.estimate.fail_prob(i) - scalar.estimate.fail_prob(i)).abs();
        assert!(
            delta <= 1e-9,
            "threshold {i}: batched yield diverged from scalar by {delta:e}"
        );
    }
    assert_at_least(
        &format!("batched / scalar yield throughput, {trials} trials"),
        scalar_ms / batched_ms,
        3.0,
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: CI runs it in release")]
fn batched_yield_at_least_3x_scalar() {
    let _g = lock();
    batched_yield_gate(768);
}

#[test]
#[ignore = "full-size timing gate: run with --include-ignored in release"]
fn batched_yield_at_least_3x_scalar_full() {
    let _g = lock();
    batched_yield_gate(12_288);
}

/// One round of lint-prechecked op + AC per builtin block; returns the
/// solution bits so legs can be compared exactly.
fn cache_round(circuits: &[Circuit], freqs: &[f64], opts: &NewtonOptions) -> Vec<u64> {
    let mut bits = Vec::new();
    for ckt in circuits {
        let op = op::solve_with(ckt, opts, None).expect("op converges");
        bits.extend(op.solution().iter().map(|v| v.to_bits()));
        let ac = ac::sweep_with(ckt, op.solution(), freqs, opts, 1).expect("ac sweep");
        for raw in 1..=ckt.num_unknown_nodes() {
            let node = NodeId::from_raw(raw as u32);
            for idx in 0..freqs.len() {
                let v = ac.voltage(node, idx);
                bits.extend([v.re.to_bits(), v.im.to_bits()]);
            }
        }
    }
    bits
}

/// `reps` rounds with the cache off against `reps` rounds from an empty
/// interner (the priming round is included in the warm leg's time).
fn warm_cache_gate(reps: usize, n_freqs: usize, floor: f64) {
    let circuits: Vec<Circuit> = ["buffer", "equalizer", "la", "gain"]
        .iter()
        .map(|n| cml_lint::builtin_circuit(n).expect("builtin"))
        .collect();
    let freqs = logspace(1e6, 60e9, n_freqs);
    let opts = |cache| NewtonOptions {
        sparse_threshold: 1,
        cache,
        ..NewtonOptions::default()
    };
    let leg = |cache| {
        let mut bits = Vec::new();
        let ms = avg_ms(reps, || bits = cache_round(&circuits, &freqs, &opts(cache)));
        (ms, bits)
    };
    cache_round(&circuits, &freqs, &opts(false)); // untimed first touch
    let (cold_ms, cold_bits) = leg(false);
    cml_cache::intern::clear_in_memory();
    let (warm_ms, warm_bits) = leg(true);
    assert_eq!(cold_bits, warm_bits, "warm leg diverged from cold");
    assert_at_least("warm cache / cache off", cold_ms / warm_ms, floor);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: CI runs it in release")]
fn warm_cache_at_least_1_05x_cold() {
    let _g = lock();
    warm_cache_gate(6, 8, 1.05);
}

#[test]
#[ignore = "full-size timing gate: run with --include-ignored in release"]
fn warm_cache_at_least_1_3x_cold_full() {
    let _g = lock();
    warm_cache_gate(40, 16, 1.3);
}

/// Worker count for the parallel AC legs: at least four, so the fan-out
/// path runs even on a small host.
fn ac_threads() -> usize {
    cml_runner::threads(None).max(4)
}

fn sparse_opts() -> NewtonOptions {
    NewtonOptions {
        sparse_threshold: 1,
        ..NewtonOptions::default()
    }
}

#[test]
#[ignore = "full-size timing gate: run with --include-ignored in release"]
fn sparse_parallel_ac_at_least_3x_dense_serial_full() {
    let _g = lock();
    let ckt = la_ac();
    let freqs = logspace(1e2, 60e9, 2400);
    let x_op = op::solve(&ckt).expect("operating point");
    let dense = NewtonOptions {
        sparse_threshold: usize::MAX,
        ..NewtonOptions::default()
    };
    let dense_ms = ms_of(|| {
        ac::sweep_with(&ckt, x_op.solution(), &freqs, &dense, 1).expect("dense sweep");
    });
    let par_ms = ms_of(|| {
        let tel = Telemetry::enabled();
        ac::sweep_traced(
            &ckt,
            x_op.solution(),
            &freqs,
            &sparse_opts(),
            ac_threads(),
            &tel,
        )
        .expect("sparse parallel sweep");
    });
    assert_at_least("sparse parallel / dense serial AC", dense_ms / par_ms, 3.0);
}

/// Enabled coarse telemetry (spans, counters and the event log) against
/// the disabled handle, each on a fresh handle per round: the 40-bit
/// PRBS-7 eye with sparse LTE-adaptive stepping and the 1,200-point
/// sparse AC sweep of the limiting amplifier, each after one untimed
/// warmup, compared by the median of interleaved rounds (medians discard
/// both stall outliers and lucky minima).
#[test]
#[ignore = "full-size timing gate: run with --include-ignored in release"]
fn coarse_telemetry_under_2pct_on_eye_and_ac_full() {
    let _g = lock();
    let (rx, t_stop) = rx_chain(40);
    let mut cfg = TranConfig::new(t_stop, 1e-12).adaptive();
    cfg.newton.sparse_threshold = 1;
    let run = |tel: &Telemetry| {
        tran::run_traced(&rx, &cfg, tel).expect("eye transient");
    };
    run(&Telemetry::disabled());
    let [off, on] = interleaved_ms(
        15,
        || run(&Telemetry::disabled()),
        || run(&Telemetry::enabled()),
    );
    let (off, on) = (median(off), median(on));
    assert_below("telemetry overhead on the eye", (on - off) / off, 0.02);

    let ckt = la_ac();
    let freqs = logspace(1e2, 60e9, 1200);
    let x_op = op::solve(&ckt).expect("operating point");
    let sweep = |tel: &Telemetry| {
        ac::sweep_traced(
            &ckt,
            x_op.solution(),
            &freqs,
            &sparse_opts(),
            ac_threads(),
            tel,
        )
        .expect("ac sweep");
    };
    sweep(&Telemetry::disabled());
    // A few ms fanned across threads: scheduler jitter per round dwarfs
    // the instrumentation cost, so the AC leg takes more rounds.
    let [off, on] = interleaved_ms(
        25,
        || sweep(&Telemetry::disabled()),
        || sweep(&Telemetry::enabled()),
    );
    let (off, on) = (median(off), median(on));
    assert_below("telemetry overhead on the AC sweep", (on - off) / off, 0.02);
}
