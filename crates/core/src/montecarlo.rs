//! Monte-Carlo device-mismatch study (the §III.C motivation).
//!
//! "Due to the process variation, the DC offset of the differential
//! amplifier may become large enough to smear the differential output
//! signal … after three stages of amplification." This module samples
//! random threshold-voltage mismatch (Pelgrom scaling: `σ(ΔV_TH) =
//! A_VT / √(W·L)`) on the limiting amplifier's input pairs, propagates
//! the offsets through the gain chain, and quantifies what the
//! offset-cancellation loop buys.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pelgrom threshold-mismatch coefficient for a 0.18 µm process,
/// V·m (≈ 5 mV·µm).
pub const A_VT: f64 = 5e-9;

/// Smallest gate area [`vth_sigma`] will divide by, m² — (1 nm)². The
/// release-build clamp for degenerate `W`/`L` inputs; see [`vth_sigma`].
pub const MIN_GATE_AREA: f64 = 1e-18;

/// A non-positive (or non-finite) gate dimension was passed to
/// [`try_vth_sigma`] — the Pelgrom model is only defined for a real,
/// positive gate area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateAreaError {
    /// The offending gate width, m.
    pub w: f64,
    /// The offending gate length, m.
    pub l: f64,
}

impl std::fmt::Display for GateAreaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vth_sigma needs finite positive gate dimensions, got W = {}, L = {}",
            self.w, self.l
        )
    }
}

impl std::error::Error for GateAreaError {}

/// σ of the threshold mismatch of one differential pair with the given
/// gate area per device (m²): `A_VT / √(W·L)`, in volts. Fallible
/// variant of [`vth_sigma`]: rejects non-finite or non-positive
/// dimensions with a typed error instead of silently producing
/// `NaN`/`inf`.
///
/// # Errors
///
/// [`GateAreaError`] when `w` or `l` is not a finite positive number.
pub fn try_vth_sigma(w: f64, l: f64) -> Result<f64, GateAreaError> {
    if w.is_finite() && l.is_finite() && w > 0.0 && l > 0.0 {
        Ok(A_VT / (w * l).sqrt())
    } else {
        Err(GateAreaError { w, l })
    }
}

/// σ of the threshold mismatch of one differential pair with the given
/// gate area per device (m²): `A_VT / √(W·L)`, in volts.
///
/// Non-positive or non-finite dimensions are a caller bug: debug builds
/// panic on them, release builds clamp the gate area to
/// [`MIN_GATE_AREA`] so the result is a huge-but-finite σ rather than a
/// silent `NaN`/`inf` poisoning a million-trial yield sweep. Use
/// [`try_vth_sigma`] when the dimensions come from untrusted input.
///
/// ```
/// let sigma = cml_core::montecarlo::vth_sigma(34e-6, 0.18e-6);
/// assert!(sigma > 1e-3 && sigma < 3e-3); // a couple of mV
/// ```
#[must_use]
pub fn vth_sigma(w: f64, l: f64) -> f64 {
    debug_assert!(
        w.is_finite() && l.is_finite() && w > 0.0 && l > 0.0,
        "vth_sigma needs finite positive gate dimensions, got W = {w}, L = {l}"
    );
    // NaN·max picks the clamp; negative or zero areas clamp too.
    A_VT / (w * l).max(MIN_GATE_AREA).sqrt()
}

/// Result of one Monte-Carlo offset run.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetStudy {
    /// Input-referred offset samples, volts.
    pub input_offsets: Vec<f64>,
    /// Output offsets without cancellation, volts.
    pub raw_outputs: Vec<f64>,
    /// Output offsets with the cancellation loop, volts.
    pub cancelled_outputs: Vec<f64>,
}

impl OffsetStudy {
    /// σ of the input-referred offset.
    #[must_use]
    pub fn input_sigma(&self) -> f64 {
        cml_numeric::stats::std_dev(&self.input_offsets).unwrap_or(0.0)
    }

    /// σ of the raw (uncancelled) output offset.
    #[must_use]
    pub fn raw_sigma(&self) -> f64 {
        cml_numeric::stats::std_dev(&self.raw_outputs).unwrap_or(0.0)
    }

    /// σ of the cancelled output offset.
    #[must_use]
    pub fn cancelled_sigma(&self) -> f64 {
        cml_numeric::stats::std_dev(&self.cancelled_outputs).unwrap_or(0.0)
    }

    /// Fraction of raw samples whose output offset exceeds half the
    /// output swing — the "smeared eye" failures §III.C warns about.
    #[must_use]
    pub fn raw_failure_rate(&self, swing: f64) -> f64 {
        let n = self.raw_outputs.len().max(1);
        self.raw_outputs
            .iter()
            .filter(|o| o.abs() > swing / 2.0)
            .count() as f64
            / n as f64
    }
}

/// Runs the offset study: `n` Monte-Carlo samples of a four-stage chain
/// with per-stage gain `stage_gain`, per-stage input-pair mismatch
/// `sigma_vth`, output clamped to ±`swing/2`, and a cancellation loop of
/// the given DC loop gain.
///
/// The model: each stage adds its own offset, then amplifies; the
/// cancellation loop divides the total output offset by `1 + loop_gain`.
///
/// # Panics
///
/// Panics if `n == 0` or parameters are non-positive.
#[must_use]
pub fn run_offset_study(
    n: usize,
    stage_gain: f64,
    sigma_vth: f64,
    swing: f64,
    loop_gain: f64,
    seed: u64,
) -> OffsetStudy {
    assert!(n > 0, "need at least one sample");
    assert!(
        stage_gain > 0.0 && sigma_vth > 0.0 && swing > 0.0 && loop_gain >= 0.0,
        "parameters must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<(f64, f64, f64)> = (0..n)
        .map(|_| trial(&mut rng, stage_gain, sigma_vth, swing, loop_gain))
        .collect();
    collect_study(rows)
}

/// Parallel variant of [`run_offset_study`]: the trials are fanned out
/// over `threads` worker threads via [`cml_runner::par_map`].
///
/// Each trial draws from its own RNG stream (seeded by
/// [`cml_runner::point_seed`] from the study seed and trial index), so
/// the result is fully determined by `(parameters, seed)` — independent
/// of the thread count and of scheduling — but is a *different* (equally
/// valid) sample set than the sequential-stream [`run_offset_study`].
///
/// # Panics
///
/// Panics if `n == 0` or parameters are non-positive.
#[must_use]
pub fn run_offset_study_par(
    n: usize,
    stage_gain: f64,
    sigma_vth: f64,
    swing: f64,
    loop_gain: f64,
    seed: u64,
    threads: usize,
) -> OffsetStudy {
    assert!(n > 0, "need at least one sample");
    assert!(
        stage_gain > 0.0 && sigma_vth > 0.0 && swing > 0.0 && loop_gain >= 0.0,
        "parameters must be positive"
    );
    let trials: Vec<usize> = (0..n).collect();
    let rows = cml_runner::par_map(threads, &trials, |i, _| {
        let mut rng = StdRng::seed_from_u64(cml_runner::point_seed(seed, i));
        trial(&mut rng, stage_gain, sigma_vth, swing, loop_gain)
    });
    collect_study(rows)
}

/// One Box-Muller gaussian draw with the given σ. Shared by every
/// sampling path (sequential, parallel, batched, and the `yield_est`
/// importance sampler) so they all consume the RNG identically.
pub(crate) fn gauss(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The four independent per-stage pair offsets of one trial, drawn in
/// stage order.
pub(crate) fn stage_offsets(rng: &mut StdRng, sigma: f64) -> [f64; 4] {
    [
        gauss(rng, sigma),
        gauss(rng, sigma),
        gauss(rng, sigma),
        gauss(rng, sigma),
    ]
}

/// Propagates one trial's stage offsets through the clamped gain chain:
/// `o_out = ((((o1)·A + o2)·A + o3)·A + o4)·A`, clamped to ±swing/2
/// after every stage. Scalar reference for [`chain_raw_packed`].
pub(crate) fn chain_raw(offsets: &[f64; 4], stage_gain: f64, swing: f64) -> f64 {
    let mut v = 0.0;
    for &o in offsets {
        v = (v + o) * stage_gain;
        v = v.clamp(-swing / 2.0, swing / 2.0);
    }
    v
}

/// Lane width of the packed gain-chain kernel.
pub(crate) const PACK: usize = 8;

/// [`chain_raw`] over many trials at once, eight to an [`F64s`] lane
/// group. Every lane performs exactly the same `f64` operation sequence
/// as the scalar chain, so the results are bit-identical to calling
/// [`chain_raw`] per trial — the structure-of-arrays layout is purely a
/// throughput lever (one add/mul/clamp instruction stream drives eight
/// trials).
pub(crate) fn chain_raw_packed(offsets: &[[f64; 4]], stage_gain: f64, swing: f64) -> Vec<f64> {
    use cml_numeric::lanes::F64s;
    let gain = F64s::<PACK>::new([stage_gain; PACK]);
    let mut out = Vec::with_capacity(offsets.len());
    for group in offsets.chunks(PACK) {
        let mut v = F64s::<PACK>::default();
        for stage in 0..4 {
            // Unused tail lanes propagate zeros — harmless, discarded.
            let o = F64s::<PACK>::from_fn(|lane| group.get(lane).map_or(0.0, |t| t[stage]));
            v = (v + o) * gain;
            v = v.clamp(-swing / 2.0, swing / 2.0);
        }
        out.extend_from_slice(&v.to_array()[..group.len()]);
    }
    out
}

/// One Monte-Carlo trial: sample four per-stage pair offsets and
/// propagate them through the clamped gain chain. Returns
/// `(input_referred, raw_output, cancelled_output)`.
fn trial(
    rng: &mut StdRng,
    stage_gain: f64,
    sigma_vth: f64,
    swing: f64,
    loop_gain: f64,
) -> (f64, f64, f64) {
    let offsets = stage_offsets(rng, sigma_vth);
    let v = chain_raw(&offsets, stage_gain, swing);
    // Input-referred: total output offset divided by the total gain.
    (v / stage_gain.powi(4), v, v / (1.0 + loop_gain))
}

/// Batched variant of [`run_offset_study_par`]: the same per-trial RNG
/// streams and the same chain arithmetic, but the gain-chain propagation
/// runs eight trials per instruction through the lane-packed kernel.
///
/// The result is **bit-identical** to [`run_offset_study_par`] with the
/// same `(parameters, seed)` for any thread count — the batch layout
/// changes how the work is scheduled, never what is computed.
///
/// # Panics
///
/// Panics if `n == 0` or parameters are non-positive.
#[must_use]
pub fn run_offset_study_batched(
    n: usize,
    stage_gain: f64,
    sigma_vth: f64,
    swing: f64,
    loop_gain: f64,
    seed: u64,
    threads: usize,
) -> OffsetStudy {
    assert!(n > 0, "need at least one sample");
    assert!(
        stage_gain > 0.0 && sigma_vth > 0.0 && swing > 0.0 && loop_gain >= 0.0,
        "parameters must be positive"
    );
    let starts: Vec<usize> = (0..n).step_by(PACK).collect();
    let groups = cml_runner::par_map(threads, &starts, |_, &start| {
        let len = PACK.min(n - start);
        let offs: Vec<[f64; 4]> = (0..len)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(cml_runner::point_seed(seed, start + t));
                stage_offsets(&mut rng, sigma_vth)
            })
            .collect();
        let total_gain = stage_gain.powi(4);
        chain_raw_packed(&offs, stage_gain, swing)
            .into_iter()
            .map(|v| (v / total_gain, v, v / (1.0 + loop_gain)))
            .collect::<Vec<_>>()
    });
    collect_study(groups.into_iter().flatten().collect())
}

fn collect_study(rows: Vec<(f64, f64, f64)>) -> OffsetStudy {
    let mut input_offsets = Vec::with_capacity(rows.len());
    let mut raw_outputs = Vec::with_capacity(rows.len());
    let mut cancelled_outputs = Vec::with_capacity(rows.len());
    for (input, raw, cancelled) in rows {
        input_offsets.push(input);
        raw_outputs.push(raw);
        cancelled_outputs.push(cancelled);
    }
    OffsetStudy {
        input_offsets,
        raw_outputs,
        cancelled_outputs,
    }
}

/// The paper-default study: the LA's stage gain and device sizes, a
/// 30 dB cancellation loop.
#[must_use]
pub fn paper_default_study(n: usize, seed: u64) -> OffsetStudy {
    let sigma = vth_sigma(34e-6, cml_pdk::L_MIN);
    run_offset_study(n, 2.3, sigma, 0.5, 31.6, seed)
}

/// Parallel [`paper_default_study`]; see [`run_offset_study_par`].
#[must_use]
pub fn paper_default_study_par(n: usize, seed: u64, threads: usize) -> OffsetStudy {
    let sigma = vth_sigma(34e-6, cml_pdk::L_MIN);
    run_offset_study_par(n, 2.3, sigma, 0.5, 31.6, seed, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pelgrom_scaling() {
        // 4× the area halves the mismatch.
        let small = vth_sigma(10e-6, 0.18e-6);
        let big = vth_sigma(40e-6, 0.18e-6);
        assert!((small / big - 2.0).abs() < 1e-12);
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let a = paper_default_study(100, 7);
        let b = paper_default_study(100, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_study_independent_of_thread_count() {
        let reference = paper_default_study_par(500, 7, 1);
        for threads in [2, 3, 8] {
            // PartialEq on f64 vectors: bit-for-bit equality is the
            // contract, not approximate agreement.
            assert_eq!(
                reference,
                paper_default_study_par(500, 7, threads),
                "thread count {threads} changed the study"
            );
        }
    }

    #[test]
    fn parallel_study_matches_serial_statistics() {
        // Different RNG streams, same distribution: σ agree to a few %.
        let serial = paper_default_study(20_000, 11);
        let par = paper_default_study_par(20_000, 11, 4);
        let rel = (par.raw_sigma() - serial.raw_sigma()).abs() / serial.raw_sigma();
        assert!(rel < 0.05, "raw σ diverges: {rel}");
        let rel =
            (par.cancelled_sigma() - serial.cancelled_sigma()).abs() / serial.cancelled_sigma();
        assert!(rel < 0.05, "cancelled σ diverges: {rel}");
    }

    #[test]
    fn offsets_amplified_without_cancel() {
        let s = paper_default_study(2000, 1);
        // Raw output offset σ far exceeds the input-referred σ.
        assert!(s.raw_sigma() > 10.0 * s.input_sigma());
        // A visible fraction of raw samples smear the eye.
        assert!(s.raw_failure_rate(0.5) > 0.0001 || s.raw_sigma() > 0.02);
    }

    #[test]
    fn cancellation_cuts_offset_by_loop_gain() {
        let s = paper_default_study(2000, 2);
        let improvement = s.raw_sigma() / s.cancelled_sigma();
        assert!(
            (improvement - 32.6).abs() < 1.0,
            "improvement = {improvement}, expected 1 + loop gain"
        );
    }

    #[test]
    fn clamp_limits_raw_output() {
        let s = run_offset_study(500, 4.0, 20e-3, 0.5, 10.0, 3);
        for &o in &s.raw_outputs {
            assert!(o.abs() <= 0.25 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = paper_default_study(0, 0);
    }

    #[test]
    fn try_vth_sigma_accepts_positive_dims() {
        let ok = try_vth_sigma(34e-6, 0.18e-6).unwrap();
        assert!((ok - vth_sigma(34e-6, 0.18e-6)).abs() < 1e-18);
    }

    #[test]
    fn try_vth_sigma_rejects_degenerate_dims() {
        for (w, l) in [
            (0.0, 0.18e-6),
            (34e-6, 0.0),
            (-1e-6, 0.18e-6),
            (34e-6, -0.18e-6),
            (f64::NAN, 0.18e-6),
            (34e-6, f64::INFINITY),
        ] {
            let err = try_vth_sigma(w, l).expect_err("degenerate dims must be rejected");
            // Bitwise field comparison: PartialEq can't see NaN == NaN.
            assert_eq!(err.w.to_bits(), w.to_bits());
            assert_eq!(err.l.to_bits(), l.to_bits());
            assert!(err.to_string().contains("gate dimensions"));
        }
    }

    // Debug builds panic; release builds clamp the area to
    // MIN_GATE_AREA. The typed-error path for untrusted inputs is
    // `try_vth_sigma`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite positive gate dimensions")]
    fn vth_sigma_panics_on_zero_width_in_debug() {
        let _ = vth_sigma(0.0, 0.18e-6);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn vth_sigma_clamps_zero_width_in_release() {
        assert_eq!(vth_sigma(0.0, 0.18e-6), A_VT / MIN_GATE_AREA.sqrt());
    }

    #[test]
    fn packed_chain_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(99);
        // 19 trials: two full lane groups plus a ragged tail.
        let offs: Vec<[f64; 4]> = (0..19).map(|_| stage_offsets(&mut rng, 2e-3)).collect();
        let packed = chain_raw_packed(&offs, 2.3, 0.5);
        for (o, p) in offs.iter().zip(&packed) {
            let s = chain_raw(o, 2.3, 0.5);
            assert_eq!(s.to_bits(), p.to_bits(), "lane diverged from scalar chain");
        }
    }

    #[test]
    fn batched_study_bit_identical_to_parallel_scalar() {
        // 1003 trials: not a multiple of the lane width, so the ragged
        // final group is exercised too.
        let scalar = run_offset_study_par(1003, 2.3, 2e-3, 0.5, 31.6, 42, 3);
        for threads in [1, 2, 8] {
            let batched = run_offset_study_batched(1003, 2.3, 2e-3, 0.5, 31.6, 42, threads);
            // PartialEq on the f64 vectors: bit-for-bit is the contract.
            assert_eq!(scalar, batched, "lane packing changed the study");
        }
    }
}
