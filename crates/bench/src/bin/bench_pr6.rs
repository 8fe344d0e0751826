//! PR benchmark: streaming transient sinks — million-bit PRBS-31
//! transistor-level eye at flat memory.
//!
//! Three legs:
//!
//! 1. **equivalence** — PRBS-7 on the full input interface: the eye
//!    folded on the fly by [`EyeSink`] must match the same accumulator
//!    fed from the dense record to ≤ 1e-12 (the implementation achieves
//!    bit-identity, which is also asserted);
//! 2. **flat-memory** — ≥ 10⁶ bits of PRBS-31 through a transistor-level
//!    CML buffer, eye + metrics folded streaming. Peak RSS is sampled
//!    (`VmHWM`) before and after; the delta must stay under a fixed
//!    budget that does not scale with bit count. (The PWL drive knots
//!    are the one remaining O(bits) term, ~32 B/bit, and are included
//!    in the budget.)
//! 3. **fan-in** — a 6-segment amplitude sweep, each segment streaming
//!    its own eye, merged with `par_fold`: N-thread results must be
//!    bit-identical to serial, demonstrating deterministic sink fan-in.
//!
//! Run with: `cargo run --release --bin bench_pr6 [--smoke] [--bits N] [--threads N]`
//! `--smoke` truncates leg 2 to a short PRBS-15 pattern for CI.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_core::stream::{EyeSink, MetricsSink};
use cml_pdk::Pdk018;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::streaming::{EyeAccumulator, EyeAccumulatorConfig};
use cml_spice::analysis::tran;
use cml_spice::prelude::*;
use cml_spice::telemetry::{self, Telemetry};
use serde::Value;
use std::time::Instant;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// Peak-RSS growth budget for the million-bit leg, bytes. Holding the
/// dense record instead would need ~50 doubles × 2·10⁷ steps × 8 B
/// ≈ 8 GB; the streaming path must fit all sinks, the PWL drive and
/// solver workspace in this fixed envelope regardless of bit count.
const PEAK_RSS_BUDGET: u64 = 256 * 1024 * 1024;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn rss() -> u64 {
    telemetry::peak_rss_bytes().expect("VmHWM available on Linux")
}

// ---------------------------------------------------------------------
// Leg 1: PRBS-7 equivalence on the full input interface
// ---------------------------------------------------------------------

fn equivalence(smoke: bool) -> Value {
    let n_bits = if smoke { 16 } else { 40 };
    let pdk = Pdk018::typical();
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

    let tcfg = TranConfig::new(n_bits as f64 * UI, 1e-12);
    let eye_cfg = EyeAccumulatorConfig::new(UI, 1e-12, -1.0, 1.0).with_skip(4.0 * UI);
    let probes = TranProbes::new().differential("vout", out.p, out.n);

    // Streamed: eye folds during the run.
    let mut eye = EyeSink::new("vout", eye_cfg.clone());
    let t0 = Instant::now();
    let stats = tran::run_streaming(&ckt, &tcfg, &probes, &mut eye).expect("streamed transient");
    let streamed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Dense reference: classic full-record run, fold afterwards.
    let t0 = Instant::now();
    let dense = tran::run(&ckt, &tcfg).expect("dense transient");
    let dense_ms = t0.elapsed().as_secs_f64() * 1e3;
    let vout = dense.differential(out.p, out.n);
    let mut reference = EyeAccumulator::new(eye_cfg);
    reference.feed(dense.times(), &vout);

    let a = eye.accumulator().metrics();
    let b = reference.metrics();
    let worst = [
        (a.height - b.height).abs(),
        (a.width - b.width).abs(),
        (a.rms_jitter - b.rms_jitter).abs(),
        (a.pp_jitter - b.pp_jitter).abs(),
        (a.v_high - b.v_high).abs(),
        (a.v_low - b.v_low).abs(),
    ]
    .into_iter()
    .fold(0.0f64, f64::max);
    let bit_identical = a.height.to_bits() == b.height.to_bits()
        && a.width.to_bits() == b.width.to_bits()
        && a.rms_jitter.to_bits() == b.rms_jitter.to_bits()
        && a.pp_jitter.to_bits() == b.pp_jitter.to_bits();
    println!(
        "leg 1  equivalence: PRBS-7 {n_bits} bits | streamed {streamed_ms:.1} ms vs dense+fold {dense_ms:.1} ms"
    );
    println!(
        "       eye {:.1} mV x {:.1} ps, rms jitter {:.2} ps | worst metric diff {worst:.3e} | bit-identical: {bit_identical}",
        a.height * 1e3,
        a.width * 1e12,
        a.rms_jitter * 1e12
    );
    assert!(
        worst <= 1e-12,
        "streamed eye diverged from dense fold by {worst:.3e} (> 1e-12)"
    );
    assert!(
        bit_identical,
        "streamed eye not bit-identical to dense fold"
    );
    assert!(a.height > 0.0, "eye closed on the PRBS-7 reference");

    obj(vec![
        ("n_bits", Value::Num(n_bits as f64)),
        ("samples", Value::Num(stats.samples as f64)),
        ("chunks", Value::Num(stats.chunks as f64)),
        ("streamed_ms", Value::Num(streamed_ms)),
        ("dense_fold_ms", Value::Num(dense_ms)),
        ("eye_height_v", Value::Num(a.height)),
        ("eye_width_s", Value::Num(a.width)),
        ("rms_jitter_s", Value::Num(a.rms_jitter)),
        ("worst_metric_diff", Value::Num(worst)),
        ("bit_identical", Value::Bool(bit_identical)),
    ])
}

// ---------------------------------------------------------------------
// Leg 2: million-bit PRBS-31 at flat memory
// ---------------------------------------------------------------------

fn flat_memory(smoke: bool, bits_flag: Option<usize>, tel: &Telemetry) -> Value {
    let n_bits = bits_flag.unwrap_or(if smoke { 4_000 } else { 1_000_000 });
    let (pattern, bits): (&str, Vec<bool>) = if smoke {
        ("PRBS-15 (truncated)", Prbs::prbs15().take(n_bits).collect())
    } else {
        ("PRBS-31", Prbs::prbs31().take(n_bits).collect())
    };

    // Single paper-default CML buffer: the cell the wide-band techniques
    // live in, small enough that the bottleneck is step count, not LU.
    let pdk = Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    let swing = cfg.stage.swing();
    let pwl = NrzConfig::new(UI, swing).with_offset(vcm).render_pwl(&bits);
    let pwl_knots = pwl.len();
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, out, vdd);

    let dt = 5e-12; // 20 samples per UI
    let tcfg = TranConfig::new(n_bits as f64 * UI, dt);
    let eye_cfg = EyeAccumulatorConfig::new(UI, dt, -1.2 * swing, 1.2 * swing).with_skip(8.0 * UI);
    let probes = TranProbes::new().differential("vout", out.p, out.n);
    let mut eye = EyeSink::new("vout", eye_cfg);
    let mut metrics = MetricsSink::new("vout", 0.0);

    let rss_before = rss();
    let t0 = Instant::now();
    let stats = {
        let mut tee = Tee::new(&mut eye, &mut metrics);
        tran::run_streaming_traced(&ckt, &tcfg, &probes, &mut tee, tel)
            .expect("flat-memory transient")
    };
    let elapsed = t0.elapsed().as_secs_f64();
    let rss_after = rss();
    let rss_delta = rss_after - rss_before;

    let m = eye.accumulator().metrics();
    let sm = metrics.metrics();
    println!(
        "leg 2  flat-memory: {pattern} {n_bits} bits, {} samples in {} chunks, {elapsed:.1} s ({:.0} steps/s)",
        stats.samples,
        stats.chunks,
        stats.samples as f64 / elapsed
    );
    println!(
        "       eye {:.1} mV x {:.1} ps, rms jitter {:.2} ps | vout in [{:.3}, {:.3}] V, {} crossings",
        m.height * 1e3,
        m.width * 1e12,
        m.rms_jitter * 1e12,
        sm.min(),
        sm.max(),
        sm.crossings()
    );
    println!(
        "       peak RSS: {:.1} MB -> {:.1} MB (delta {:.1} MB, budget {:.0} MB) | sink mem {:.2} MB | PWL knots {pwl_knots}",
        rss_before as f64 / 1e6,
        rss_after as f64 / 1e6,
        rss_delta as f64 / 1e6,
        PEAK_RSS_BUDGET as f64 / 1e6,
        eye.accumulator().mem_bytes() as f64 / 1e6
    );
    // Fixed stepping: t=0 plus ~t_stop/dt steps (the exact count shifts
    // by one with fp rounding of the step grid).
    let expected = (n_bits as f64 * UI / dt) as u64 + 1;
    assert!(
        stats.samples.abs_diff(expected) <= 1,
        "sample count {} far from expected {expected}",
        stats.samples
    );
    assert!(
        rss_delta < PEAK_RSS_BUDGET,
        "peak RSS grew by {rss_delta} B during the {n_bits}-bit run (budget {PEAK_RSS_BUDGET} B) — streaming memory is not flat"
    );
    assert!(m.height > 0.0, "eye closed at the buffer output");
    assert!(sm.count() == stats.samples, "metrics sink missed samples");

    obj(vec![
        ("pattern", Value::Str(pattern.into())),
        ("n_bits", Value::Num(n_bits as f64)),
        ("dt_s", Value::Num(dt)),
        ("samples", Value::Num(stats.samples as f64)),
        ("chunks", Value::Num(stats.chunks as f64)),
        ("elapsed_s", Value::Num(elapsed)),
        ("steps_per_s", Value::Num(stats.samples as f64 / elapsed)),
        ("eye_height_v", Value::Num(m.height)),
        ("eye_width_s", Value::Num(m.width)),
        ("rms_jitter_s", Value::Num(m.rms_jitter)),
        ("pp_jitter_s", Value::Num(m.pp_jitter)),
        ("crossings", Value::Num(sm.crossings() as f64)),
        ("peak_rss_before_b", Value::Num(rss_before as f64)),
        ("peak_rss_after_b", Value::Num(rss_after as f64)),
        ("peak_rss_delta_b", Value::Num(rss_delta as f64)),
        ("peak_rss_budget_b", Value::Num(PEAK_RSS_BUDGET as f64)),
        ("pwl_knots", Value::Num(pwl_knots as f64)),
        (
            "eye_accumulator_bytes",
            Value::Num(eye.accumulator().mem_bytes() as f64),
        ),
    ])
}

// ---------------------------------------------------------------------
// Leg 3: deterministic parallel fan-in
// ---------------------------------------------------------------------

fn fan_in(smoke: bool) -> Value {
    let n_bits = if smoke { 32 } else { 127 };
    let amplitudes: Vec<f64> = vec![0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
    let eye_cfg = EyeAccumulatorConfig::new(UI, 1e-12, -0.5, 0.5).with_skip(4.0 * UI);
    let segment = |i: usize, scale: &f64| -> EyeAccumulator {
        let pdk = Pdk018::typical();
        let cfg = CmlBufferConfig::paper_default();
        let mut ckt = Circuit::new();
        let vdd = add_supply(&mut ckt, cml_pdk::VDD);
        let input = DiffPort::named(&mut ckt, "in");
        let out = DiffPort::named(&mut ckt, "out");
        let vcm = cml_buffer::output_common_mode(&cfg);
        let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
        let pwl = NrzConfig::new(UI, cfg.stage.swing() * scale)
            .with_offset(vcm)
            .render_pwl(&bits);
        add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
        cml_buffer::build(&mut ckt, &pdk, &cfg, &format!("buf{i}"), input, out, vdd);
        let tcfg = TranConfig::new(n_bits as f64 * UI, 2e-12);
        let probes = TranProbes::new().differential("vout", out.p, out.n);
        let mut eye = EyeSink::new("vout", eye_cfg.clone());
        tran::run_streaming(&ckt, &tcfg, &probes, &mut eye).expect("segment transient");
        eye.into_accumulator()
    };
    let merge = |mut a: EyeAccumulator, b: EyeAccumulator| {
        a.merge(&b);
        a
    };

    let threads = cml_runner::threads(cml_runner::threads_flag(std::env::args())).max(2);
    let t0 = Instant::now();
    let serial = cml_runner::par_fold(1, &amplitudes, segment, merge).expect("serial fold");
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let parallel = cml_runner::par_fold(threads, &amplitudes, segment, merge).expect("par fold");
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (ms, mp) = (serial.metrics(), parallel.metrics());
    let identical = serial.samples() == parallel.samples()
        && serial.crossings() == parallel.crossings()
        && ms.height.to_bits() == mp.height.to_bits()
        && ms.rms_jitter.to_bits() == mp.rms_jitter.to_bits()
        && ms.pp_jitter.to_bits() == mp.pp_jitter.to_bits();
    println!(
        "leg 3  fan-in: {} segments x {n_bits} bits | serial {serial_ms:.0} ms, {threads} threads {parallel_ms:.0} ms ({:.2}x) | identical: {identical}",
        amplitudes.len(),
        serial_ms / parallel_ms
    );
    assert!(identical, "parallel fan-in changed the merged eye");

    obj(vec![
        ("segments", Value::Num(amplitudes.len() as f64)),
        ("n_bits_each", Value::Num(n_bits as f64)),
        ("threads", Value::Num(threads as f64)),
        ("serial_ms", Value::Num(serial_ms)),
        ("parallel_ms", Value::Num(parallel_ms)),
        ("speedup", Value::Num(serial_ms / parallel_ms)),
        ("results_identical", Value::Bool(identical)),
        ("merged_samples", Value::Num(serial.samples() as f64)),
    ])
}

fn bits_flag(args: impl IntoIterator<Item = String>) -> Option<usize> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--bits" {
            return args.next()?.parse().ok().filter(|&n| n > 0);
        }
        if let Some(v) = a.strip_prefix("--bits=") {
            return v.parse().ok().filter(|&n| n > 0);
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bits = bits_flag(std::env::args());
    println!(
        "bench_pr6: streaming transient sinks{}",
        if smoke { " (smoke)" } else { "" }
    );
    let tel = Telemetry::enabled_with_env_sinks();

    let leg1 = equivalence(smoke);
    let leg2 = flat_memory(smoke, bits, &tel);
    let leg3 = fan_in(smoke);

    let report = obj(vec![
        ("bench", Value::Str("bench_pr6".into())),
        ("smoke", Value::Bool(smoke)),
        ("equivalence", leg1),
        ("flat_memory", leg2),
        ("fan_in", leg3),
        ("telemetry", tel.report().to_value()),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("render BENCH_pr6.json");
    std::fs::write("BENCH_pr6.json", format!("{json}\n")).expect("write BENCH_pr6.json");
    println!("wrote BENCH_pr6.json");
    for p in tel.flush().expect("flush telemetry sinks") {
        println!("wrote {}", p.display());
    }
}
