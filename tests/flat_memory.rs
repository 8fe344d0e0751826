//! Flat-memory contracts of the two streaming workloads: a streamed
//! transient folded into eye + metrics sinks, and the importance-sampled
//! behavioural yield sweep folded over `par_fold` chunks.
//!
//! Each workload runs at length N and 4N under a global allocator that
//! tracks peak live heap bytes. The peak growth during the call must not
//! scale with length: the 4N run may exceed the N run by less than half
//! of what buffering a single `f64` per extra sample (or trial) would
//! cost, so even the leanest dense record fails the gate. Work the
//! streams do per chunk, not per sample, stays inside that margin.
//!
//! The peak counter is process-global, so the tests serialize on one
//! mutex.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_core::stream::{EyeSink, MetricsSink};
use cml_core::yield_est::{self, ChainSpec, YieldConfig};
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::streaming::EyeAccumulatorConfig;
use cml_spice::analysis::tran;
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Global allocator that tracks live heap bytes and their high-water
/// mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

// SAFETY: delegates to `System` unchanged; only counters are added.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Serializes every test in this binary (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns its result with the peak heap growth, in bytes,
/// above the live bytes at the call.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst).saturating_sub(base))
}

/// Asserts the 4N run grew the heap by less than 4 B per extra unit of
/// length over the N run (half an `f64` per extra sample or trial).
fn assert_flat(what: &str, extra_units: u64, growth_n: usize, growth_4n: usize) {
    let margin = 4 * extra_units as usize;
    println!("{what}: peak growth {growth_n} B at N, {growth_4n} B at 4N (margin {margin} B)");
    assert!(
        growth_4n < growth_n + margin,
        "{what}: peak heap growth scales with length: {growth_n} B at N, {growth_4n} B at 4N \
         (flat allows < {margin} B more)"
    );
}

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;
/// Fixed transient step: 20 samples per UI.
const DT: f64 = 5e-12;

/// Streams `n_bits` of PRBS-15 through a transistor-level CML buffer
/// into `Tee(EyeSink, MetricsSink)`, checks the run, and returns its
/// sample count and peak heap growth.
fn streamed_buffer_eye(n_bits: usize) -> (u64, usize) {
    let bits: Vec<bool> = Prbs::prbs15().take(n_bits).collect();
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    let swing = cfg.stage.swing();
    let pwl = NrzConfig::new(UI, swing).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, out, vdd);

    let t_stop = n_bits as f64 * UI;
    let tcfg = TranConfig::new(t_stop, DT);
    let eye_cfg = EyeAccumulatorConfig::new(UI, DT, -1.2 * swing, 1.2 * swing).with_skip(8.0 * UI);
    let probes = TranProbes::new().differential("vout", out.p, out.n);
    let mut eye = EyeSink::new("vout", eye_cfg);
    let mut metrics = MetricsSink::new("vout", 0.0);
    let tel = Telemetry::enabled();

    let (stats, growth) = peak_growth(|| {
        let mut tee = Tee::new(&mut eye, &mut metrics);
        tran::run_streaming_traced(&ckt, &tcfg, &probes, &mut tee, &tel)
            .expect("streamed transient")
    });

    // t = 0 plus ~t_stop/dt steps (fp rounding of the grid can shift
    // the count by one).
    let expected = (t_stop / DT) as u64 + 1;
    assert!(
        stats.samples.abs_diff(expected) <= 1,
        "{n_bits} bits: sample count {} far from expected {expected}",
        stats.samples
    );
    assert_eq!(
        metrics.metrics().count(),
        stats.samples,
        "{n_bits} bits: metrics sink missed samples"
    );
    assert!(
        eye.accumulator().metrics().height > 0.0,
        "{n_bits} bits: eye closed at the buffer output"
    );
    (stats.samples, growth)
}

#[test]
fn streamed_buffer_eye_peak_heap_is_flat_in_length() {
    let _g = lock();
    // 4N = 256 bits = 5,121 samples, five 1,024-sample chunks.
    let n_bits = 64;
    let (samples_n, growth_n) = streamed_buffer_eye(n_bits);
    let (samples_4n, growth_4n) = streamed_buffer_eye(4 * n_bits);
    assert!(samples_4n > 4 * 1024, "4N run spans fewer than four chunks");
    assert_flat(
        "streamed buffer eye",
        samples_4n - samples_n,
        growth_n,
        growth_4n,
    );
}

/// Runs the importance-sampled behavioural yield sweep over `trials`
/// and returns its peak heap growth.
fn behavioural_yield(trials: usize) -> usize {
    let chain = ChainSpec::paper_default();
    // κ = 2 widening makes 200 mV crossings common enough to resolve.
    let cfg = YieldConfig::new(trials, 0x106B5)
        .with_chunk(8192)
        .with_threads(2)
        .with_sigma_scale(2.0);
    let thresholds = [0.05, 0.1, 0.2, 0.24];
    let tel = Telemetry::enabled();
    let (est, growth) =
        peak_growth(|| yield_est::behavioral_offset_yield_traced(&cfg, &chain, &thresholds, &tel));
    assert_eq!(est.raw.trials, trials as u64, "trial count mismatch");
    growth
}

#[test]
fn importance_sampled_yield_peak_heap_is_flat_in_length() {
    let _g = lock();
    let n = 50_000;
    let growth_n = behavioural_yield(n);
    let growth_4n = behavioural_yield(4 * n);
    assert_flat(
        "importance-sampled yield",
        3 * n as u64,
        growth_n,
        growth_4n,
    );
}
