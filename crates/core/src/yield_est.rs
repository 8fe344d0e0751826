//! Importance-sampled V_TH-mismatch **yield estimation** at scale.
//!
//! The §III.C argument for offset cancellation is statistical: Pelgrom
//! mismatch decides whether the limiting amplifier smears the eye, so
//! the deliverable is a *yield number* — the probability that the
//! offset stays inside a threshold — not one nominal run. This module
//! turns the [`crate::montecarlo`] trial into a streaming estimator
//! that scales to tens of millions of trials:
//!
//! * **Streaming fold** — trials are processed in fixed-size chunks
//!   through [`cml_runner::par_fold`]; each chunk reduces to a small
//!   weighted-count accumulator, merged in input order, so memory is
//!   O(chunk) regardless of trial count and the result is bit-identical
//!   for any thread count.
//! * **Importance sampling** — mismatch draws can be widened by
//!   [`YieldConfig::sigma_scale`] (κ) so rare threshold crossings are
//!   hit orders of magnitude more often; each trial carries the
//!   gaussian likelihood ratio as a weight, keeping the estimator
//!   unbiased while concentrating samples in the tail.
//! * **Two fidelity levels** — a behavioral estimator propagating the
//!   four-stage clamped gain chain through the eight-wide lane-packed
//!   kernel, and a transistor-level estimator solving an NMOS
//!   differential pair per trial through the batched operating-point
//!   engine ([`cml_spice::analysis::batch`]), importance draws ×
//!   process corners, warm-started from the nominal bias point.
//!
//! Every trial derives its own RNG stream from
//! [`cml_runner::point_seed`], so estimates are a pure function of
//! `(parameters, seed)` — independent of thread count and chunk size.

use cml_pdk::{Corner, Pdk018};
use cml_runner::{par_fold, point_seed};
use cml_spice::analysis::batch::{self, MosField, ParamColumns};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::{Parts, Telemetry};
use cml_spice::SpiceError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::montecarlo;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How a yield sweep is run: trial count, seeding, scheduling and the
/// importance-sampling widening factor.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldConfig {
    /// Total Monte-Carlo trials.
    pub trials: usize,
    /// Study seed; every trial derives its own stream via
    /// [`cml_runner::point_seed`].
    pub seed: u64,
    /// Worker threads for the streaming fold (clamped to ≥ 1).
    pub threads: usize,
    /// Trials per streamed chunk — the memory high-water mark of the
    /// sweep. Chunk boundaries are fixed by this value alone, so the
    /// estimate does not depend on the thread count.
    pub chunk: usize,
    /// Importance-sampling widening factor κ: draws use σ′ = κ·σ and
    /// carry the likelihood ratio as a weight. `1.0` is plain Monte
    /// Carlo (all weights exactly 1).
    pub sigma_scale: f64,
    /// Warm-start each batched trial from its corner's nominal bias point —
    /// the main throughput lever for small-perturbation sweeps. Turn
    /// off to make the batched Newton trajectory identical to the cold
    /// scalar ladder (useful for agreement assertions).
    pub warm_start: bool,
}

impl YieldConfig {
    /// A single-threaded plain-Monte-Carlo sweep of `trials` trials.
    #[must_use]
    pub fn new(trials: usize, seed: u64) -> Self {
        YieldConfig {
            trials,
            seed,
            threads: 1,
            chunk: 2048,
            sigma_scale: 1.0,
            warm_start: true,
        }
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the streamed chunk size.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the importance-sampling widening factor κ.
    #[must_use]
    pub fn with_sigma_scale(mut self, kappa: f64) -> Self {
        self.sigma_scale = kappa;
        self
    }

    /// Enables or disables nominal-bias warm starting.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    fn validate(&self) {
        assert!(self.trials > 0, "need at least one trial");
        assert!(self.chunk > 0, "chunk size must be positive");
        assert!(
            self.sigma_scale.is_finite() && self.sigma_scale > 0.0,
            "sigma_scale must be a positive finite widening factor"
        );
    }

    /// The fixed `(start, len)` chunk grid — a function of `trials` and
    /// `chunk` only, never of the thread count.
    fn chunk_list(&self) -> Vec<(usize, usize)> {
        (0..self.trials)
            .step_by(self.chunk)
            .map(|start| (start, self.chunk.min(self.trials - start)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Estimate
// ---------------------------------------------------------------------

/// A per-threshold yield table from a weighted (importance-sampled)
/// Monte-Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldEstimate {
    /// The offset thresholds, volts, in caller order.
    pub thresholds: Vec<f64>,
    /// Total trials behind the estimate.
    pub trials: u64,
    /// Σ of the importance weights (≈ `trials` when the widening is
    /// well matched; exactly `trials` for plain Monte Carlo).
    pub weight_sum: f64,
    /// Σ of squared importance weights, for the effective sample size.
    pub weight_sq_sum: f64,
    /// Per-threshold Σ w·1{|offset| > threshold}.
    pub fail_weight: Vec<f64>,
}

impl YieldEstimate {
    fn new(thresholds: &[f64]) -> Self {
        YieldEstimate {
            thresholds: thresholds.to_vec(),
            trials: 0,
            weight_sum: 0.0,
            weight_sq_sum: 0.0,
            fail_weight: vec![0.0; thresholds.len()],
        }
    }

    /// Estimated probability that `|offset|` exceeds threshold `i`
    /// (the unbiased importance estimator `Σ w·1{fail} / N`).
    #[must_use]
    pub fn fail_prob(&self, i: usize) -> f64 {
        self.fail_weight[i] / self.trials.max(1) as f64
    }

    /// Estimated yield at threshold `i`: `1 − fail_prob`.
    #[must_use]
    pub fn yield_frac(&self, i: usize) -> f64 {
        1.0 - self.fail_prob(i)
    }

    /// Kish effective sample size `(Σw)² / Σw²` — how many plain-MC
    /// trials the weighted sweep is worth. Equals `trials` for κ = 1.
    #[must_use]
    pub fn effective_samples(&self) -> f64 {
        if self.weight_sq_sum > 0.0 {
            self.weight_sum * self.weight_sum / self.weight_sq_sum
        } else {
            0.0
        }
    }

    fn add(&mut self, offset_abs: f64, w: f64) {
        self.trials += 1;
        self.weight_sum += w;
        self.weight_sq_sum += w * w;
        for (fail, &thr) in self.fail_weight.iter_mut().zip(&self.thresholds) {
            if offset_abs > thr {
                *fail += w;
            }
        }
    }

    fn merge(&mut self, other: &YieldEstimate) {
        self.trials += other.trials;
        self.weight_sum += other.weight_sum;
        self.weight_sq_sum += other.weight_sq_sum;
        for (a, b) in self.fail_weight.iter_mut().zip(&other.fail_weight) {
            *a += b;
        }
    }
}

/// The gaussian importance weight of a draw `x` taken from `N(0, σ′)`
/// but scored against the target `N(0, σ)`.
fn likelihood_ratio(x: f64, sigma: f64, sigma_w: f64) -> f64 {
    let r = sigma_w / sigma;
    r * (0.5 * x * x * (1.0 / (sigma_w * sigma_w) - 1.0 / (sigma * sigma))).exp()
}

// ---------------------------------------------------------------------
// Behavioral estimator
// ---------------------------------------------------------------------

/// The behavioral four-stage limiting-amplifier chain of §III.C.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Per-stage voltage gain.
    pub stage_gain: f64,
    /// Per-stage input-pair mismatch σ, volts.
    pub sigma_vth: f64,
    /// Output swing, volts (each stage clamps to ±swing/2).
    pub swing: f64,
    /// DC gain of the offset-cancellation loop.
    pub loop_gain: f64,
}

impl ChainSpec {
    /// The paper-default chain: LA stage gain 2.3, Pelgrom mismatch of
    /// the W = 34 µm input pairs, 500 mV swing, 30 dB cancellation.
    #[must_use]
    pub fn paper_default() -> Self {
        ChainSpec {
            stage_gain: 2.3,
            sigma_vth: montecarlo::vth_sigma(34e-6, cml_pdk::L_MIN),
            swing: 0.5,
            loop_gain: 31.6,
        }
    }

    fn validate(&self) {
        assert!(
            self.stage_gain > 0.0
                && self.sigma_vth > 0.0
                && self.swing > 0.0
                && self.loop_gain >= 0.0,
            "chain parameters must be positive"
        );
    }
}

/// Result of a behavioral yield sweep: the raw (uncancelled) and
/// cancelled output-offset yield tables over the same thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralYield {
    /// Yield of the raw output offset.
    pub raw: YieldEstimate,
    /// Yield of the offset after the cancellation loop.
    pub cancelled: YieldEstimate,
}

impl BehavioralYield {
    fn new(thresholds: &[f64]) -> Self {
        BehavioralYield {
            raw: YieldEstimate::new(thresholds),
            cancelled: YieldEstimate::new(thresholds),
        }
    }

    fn merge(mut self, other: BehavioralYield) -> Self {
        self.raw.merge(&other.raw);
        self.cancelled.merge(&other.cancelled);
        self
    }
}

/// Streams `cfg.trials` behavioral trials through the lane-packed gain
/// chain and folds them into per-threshold yield tables at O(chunk)
/// memory. Bit-identical for any thread count, and bit-identical to
/// [`behavioral_offset_yield_scalar`] (the packed kernel performs the
/// same `f64` operations per lane).
///
/// # Panics
///
/// Panics when the config or chain parameters are invalid.
#[must_use]
pub fn behavioral_offset_yield(
    cfg: &YieldConfig,
    chain: &ChainSpec,
    thresholds: &[f64],
) -> BehavioralYield {
    behavioral_offset_yield_traced(cfg, chain, thresholds, &Telemetry::disabled())
}

/// [`behavioral_offset_yield`] counting `trials_total` into `tel`.
///
/// # Panics
///
/// See [`behavioral_offset_yield`].
#[must_use]
pub fn behavioral_offset_yield_traced(
    cfg: &YieldConfig,
    chain: &ChainSpec,
    thresholds: &[f64],
    tel: &Telemetry,
) -> BehavioralYield {
    behavioral_impl(cfg, chain, thresholds, tel, true)
}

/// Scalar reference path of [`behavioral_offset_yield`]: one trial at a
/// time through the plain-`f64` chain. Exists so the batched path has a
/// bit-exact baseline to be asserted against (`--no-batch` in the
/// Monte-Carlo bench).
///
/// # Panics
///
/// See [`behavioral_offset_yield`].
#[must_use]
pub fn behavioral_offset_yield_scalar(
    cfg: &YieldConfig,
    chain: &ChainSpec,
    thresholds: &[f64],
) -> BehavioralYield {
    behavioral_impl(cfg, chain, thresholds, &Telemetry::disabled(), false)
}

// `cfg.validate()` guarantees at least one Monte Carlo chunk, so the
// fold over chunks always produces a value.
#[allow(clippy::expect_used)]
fn behavioral_impl(
    cfg: &YieldConfig,
    chain: &ChainSpec,
    thresholds: &[f64],
    tel: &Telemetry,
    packed: bool,
) -> BehavioralYield {
    cfg.validate();
    chain.validate();
    let sigma_w = chain.sigma_vth * cfg.sigma_scale;
    let chunks = cfg.chunk_list();
    let folded = par_fold(
        cfg.threads,
        &chunks,
        |_, &(start, len)| {
            let mut offs = Vec::with_capacity(len);
            let mut weights = Vec::with_capacity(len);
            for t in 0..len {
                let mut rng = StdRng::seed_from_u64(point_seed(cfg.seed, start + t));
                let o = montecarlo::stage_offsets(&mut rng, sigma_w);
                let w = if cfg.sigma_scale == 1.0 {
                    1.0
                } else {
                    o.iter()
                        .map(|&x| likelihood_ratio(x, chain.sigma_vth, sigma_w))
                        .product()
                };
                offs.push(o);
                weights.push(w);
            }
            let raws: Vec<f64> = if packed {
                montecarlo::chain_raw_packed(&offs, chain.stage_gain, chain.swing)
            } else {
                offs.iter()
                    .map(|o| montecarlo::chain_raw(o, chain.stage_gain, chain.swing))
                    .collect()
            };
            let mut acc = BehavioralYield::new(thresholds);
            for (v, w) in raws.into_iter().zip(weights) {
                acc.raw.add(v.abs(), w);
                acc.cancelled.add((v / (1.0 + chain.loop_gain)).abs(), w);
            }
            acc
        },
        BehavioralYield::merge,
    );
    tel.count(|c| c.trials_total += cfg.trials as u64);
    folded.expect("validated config has at least one chunk")
}

// ---------------------------------------------------------------------
// Transistor-level estimator
// ---------------------------------------------------------------------

/// The transistor-level yield workload: a DC-coupled cascade of NMOS
/// differential pairs with resistor loads — the §III.C limiting
/// amplifier — with independent Pelgrom V_TH mismatch per stage, split
/// ±ΔV_TH/2 across each pair, swept over the given process corners.
#[derive(Debug, Clone, PartialEq)]
pub struct PairYieldSpec {
    /// Input-device gate width, m.
    pub w: f64,
    /// Input-device gate length, m.
    pub l: f64,
    /// Load resistance per side, Ω.
    pub r_load: f64,
    /// Tail current per stage, A.
    pub i_tail: f64,
    /// First-stage input common-mode voltage, V (later stages are
    /// DC-coupled at `VDD − R·I/2`).
    pub vcm: f64,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Cascaded gain stages, each drawing its own pair mismatch — the
    /// transistor-level mirror of the behavioral [`ChainSpec`] chain.
    pub stages: usize,
    /// Process corners cycled per trial (`trial % corners.len()`).
    pub corners: Vec<Corner>,
}

impl PairYieldSpec {
    /// One stage of the paper's LA: W = 34 µm / L = 0.18 µm pair,
    /// 350 Ω loads, 4 mA tail, at the typical corner.
    #[must_use]
    pub fn paper_default() -> Self {
        PairYieldSpec {
            w: 34e-6,
            l: cml_pdk::L_MIN,
            r_load: 350.0,
            i_tail: 4e-3,
            vcm: 1.2,
            temp_c: 27.0,
            stages: 1,
            corners: vec![Corner::Tt],
        }
    }

    /// The full §III.C four-stage limiting-amplifier chain.
    #[must_use]
    pub fn paper_chain() -> Self {
        PairYieldSpec {
            stages: 4,
            ..Self::paper_default()
        }
    }

    /// Sweeps all five process corners instead of TT only.
    #[must_use]
    pub fn all_corners(mut self) -> Self {
        self.corners = Corner::ALL.to_vec();
        self
    }

    /// Pelgrom σ of one pair's threshold mismatch ΔV_TH, volts.
    #[must_use]
    pub fn sigma_dvth(&self) -> f64 {
        montecarlo::vth_sigma(self.w, self.l)
    }

    fn validate(&self) {
        assert!(
            self.r_load > 0.0 && self.i_tail > 0.0 && self.vcm > 0.0,
            "pair bias parameters must be positive"
        );
        assert!(self.stages > 0, "need at least one gain stage");
        assert!(!self.corners.is_empty(), "need at least one corner");
        // W/L validated by vth_sigma / try_vth_sigma at draw time.
    }
}

/// Result of a transistor-level yield sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorYield {
    /// Per-threshold yield of the differential output offset.
    pub estimate: YieldEstimate,
    /// Trials whose lane was evicted to the scalar fallback ladder.
    pub fallbacks: u64,
    /// Nominal (zero-mismatch) output offset per corner, volts —
    /// ≈ 0 by symmetry; a sanity anchor for the yield table.
    pub nominal_offsets: Vec<f64>,
}

/// Node and element name strings for one stage of the chain.
struct StageNames {
    outp: String,
    outn: String,
    tail: String,
    rl_p: String,
    rl_n: String,
    m_p: String,
    m_n: String,
    it: String,
}

/// All per-stage name strings of an `stages`-deep chain, built **once
/// per sweep**: the scalar reference builds a circuit per trial, and
/// the batched path names its columns' MOSFETs with the same strings.
struct ChainNames(Vec<StageNames>);

impl ChainNames {
    fn new(stages: usize) -> Self {
        Self(
            (0..stages)
                .map(|s| StageNames {
                    outp: format!("outp{s}"),
                    outn: format!("outn{s}"),
                    tail: format!("tail{s}"),
                    rl_p: format!("RL{s}p"),
                    rl_n: format!("RL{s}n"),
                    m_p: format!("M{s}p"),
                    m_n: format!("M{s}n"),
                    it: format!("IT{s}"),
                })
                .collect(),
        )
    }
}

/// Builds one chain variant: the shared cascade topology with stage
/// `s`'s pair mismatch `dvths[s]` split ±ΔV_TH/2 across that stage's
/// M1/M2. Returns the circuit and the final stage's output nodes
/// (identical ids in every variant — the build order is fixed).
fn pair_circuit(
    spec: &PairYieldSpec,
    pdk: &Pdk018,
    dvths: &[f64],
    names: &ChainNames,
) -> (Circuit, NodeId, NodeId) {
    let base = pdk.nmos(spec.w, spec.l);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, cml_pdk::VDD));
    ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, spec.vcm));
    ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, spec.vcm));
    let (mut sp, mut sn) = (inp, inn);
    let (mut outp, mut outn) = (inp, inn);
    for (s, &dvth) in dvths.iter().enumerate() {
        let n = &names.0[s];
        let mut m1 = base.clone();
        m1.vth0 += dvth / 2.0;
        let mut m2 = base.clone();
        m2.vth0 -= dvth / 2.0;
        outp = ckt.node(&n.outp);
        outn = ckt.node(&n.outn);
        let tail = ckt.node(&n.tail);
        ckt.add(Resistor::new(&n.rl_p, vdd, outp, spec.r_load));
        ckt.add(Resistor::new(&n.rl_n, vdd, outn, spec.r_load));
        // Outputs cross to the next stage so the signal polarity is
        // preserved through each inverting stage.
        ckt.add(Mosfet::new(&n.m_p, outn, sp, tail, Circuit::GROUND, m1));
        ckt.add(Mosfet::new(&n.m_n, outp, sn, tail, Circuit::GROUND, m2));
        ckt.add(Isource::dc(&n.it, tail, Circuit::GROUND, spec.i_tail));
        (sp, sn) = (outp, outn);
    }
    (ckt, outp, outn)
}

/// The deterministic draw of one transistor-level trial: which corner,
/// the per-stage pair mismatches ΔV_TH (from the widened
/// distribution, in stage order), and the trial's importance weight.
fn pair_draw(cfg: &YieldConfig, spec: &PairYieldSpec, idx: usize) -> (usize, Vec<f64>, f64) {
    let corner_idx = idx % spec.corners.len();
    let sigma = spec.sigma_dvth();
    let sigma_w = sigma * cfg.sigma_scale;
    let mut rng = StdRng::seed_from_u64(point_seed(cfg.seed, idx));
    let dvths: Vec<f64> = (0..spec.stages)
        .map(|_| montecarlo::gauss(&mut rng, sigma_w))
        .collect();
    let w = if cfg.sigma_scale == 1.0 {
        1.0
    } else {
        dvths
            .iter()
            .map(|&x| likelihood_ratio(x, sigma, sigma_w))
            .product()
    };
    (corner_idx, dvths, w)
}

/// What every chunk of a transistor sweep shares, set up once per
/// sweep: the chain names, each corner's PDK and nominal bias point, and
/// the one nominal circuit every batched chunk solves.
struct PairSweep<'a> {
    cfg: &'a YieldConfig,
    spec: &'a PairYieldSpec,
    names: ChainNames,
    pdks: Vec<Pdk018>,
    /// Per-corner nominal solutions: the warm starts.
    warms: Vec<Vec<f64>>,
    /// Per-corner nominal output offsets, volts.
    nominal_offsets: Vec<f64>,
    /// The batched chunks' circuit and its output nodes.
    chain: (Circuit, NodeId, NodeId),
}

impl<'a> PairSweep<'a> {
    /// Validates the inputs and solves each corner's nominal bias point
    /// before any chunk runs, so nothing depends on scheduling.
    fn new(cfg: &'a YieldConfig, spec: &'a PairYieldSpec) -> Result<Self, SpiceError> {
        cfg.validate();
        spec.validate();
        let nominal_dvths = vec![0.0; spec.stages];
        let names = ChainNames::new(spec.stages);
        let pdks: Vec<Pdk018> = spec
            .corners
            .iter()
            .map(|&c| Pdk018::new(c, spec.temp_c))
            .collect();
        let (mut warms, mut nominal_offsets) = (Vec::new(), Vec::new());
        for pdk in &pdks {
            let (ckt, outp, outn) = pair_circuit(spec, pdk, &nominal_dvths, &names);
            let nominal = op::solve_with(&ckt, &NewtonOptions::default(), None)?;
            nominal_offsets.push(nominal.voltage(outp) - nominal.voltage(outn));
            warms.push(nominal.solution().to_vec());
        }
        let chain = pair_circuit(spec, &pdks[0], &nominal_dvths, &names);
        Ok(PairSweep {
            cfg,
            spec,
            names,
            pdks,
            warms,
            nominal_offsets,
            chain,
        })
    }

    /// Trials `start..start + len` through one batched solve of the
    /// nominal circuit: each trial's corner card and ΔV_TH split become
    /// the `vth0`/`kp` columns of both pair devices of every stage.
    /// Returns each trial's signed offset and importance weight, plus
    /// the scalar-fallback count.
    fn batched_chunk(
        &self,
        start: usize,
        len: usize,
        tel: &Telemetry,
    ) -> Result<(Vec<(f64, f64)>, u64), SpiceError> {
        let spec = self.spec;
        let cards: Vec<MosParams> = self.pdks.iter().map(|p| p.nmos(spec.w, spec.l)).collect();
        let draws: Vec<_> = (start..start + len)
            .map(|idx| pair_draw(self.cfg, spec, idx))
            .collect();
        let mut cols = ParamColumns::new(len);
        for (s, n) in self.names.0.iter().enumerate() {
            for (name, sign) in [(&n.m_p, 1.0), (&n.m_n, -1.0)] {
                let vth0 = draws
                    .iter()
                    .map(|(ci, dv, _)| cards[*ci].vth0 + sign * dv[s] / 2.0);
                let kp = draws.iter().map(|(ci, _, _)| cards[*ci].kp);
                cols = cols.column(name, MosField::Vth0, vth0.collect());
                cols = cols.column(name, MosField::Kp, kp.collect());
            }
        }
        let warm = if self.cfg.warm_start {
            draws.iter().map(|d| self.warms[d.0].as_slice()).collect()
        } else {
            Vec::new()
        };
        let (ckt, outp, outn) = &self.chain;
        let res = batch::op_batch(ckt, &cols, &NewtonOptions::default(), &warm, tel)?;
        let trials = (0..len).map(|v| res.voltage(v, *outp) - res.voltage(v, *outn));
        let weights = draws.iter().map(|(_, _, w)| *w);
        Ok((trials.zip(weights).collect(), res.fallback_count() as u64))
    }

    /// Trial `idx` through a circuit built with its own cards and the
    /// scalar Newton ladder: the per-trial reference flow. Returns its
    /// signed offset and importance weight.
    fn scalar_trial(&self, idx: usize, tel: &Telemetry) -> Result<(f64, f64), SpiceError> {
        let (ci, dvths, w) = pair_draw(self.cfg, self.spec, idx);
        let (ckt, outp, outn) = pair_circuit(self.spec, &self.pdks[ci], &dvths, &self.names);
        let sol = op::solve_traced(&ckt, &NewtonOptions::default(), None, tel)?;
        Ok((sol.voltage(outp) - sol.voltage(outn), w))
    }
}

/// One chunk's worth of the transistor sweep, reduced to its
/// accumulator plus the worker's telemetry parts.
struct ChunkOut {
    estimate: YieldEstimate,
    fallbacks: u64,
    parts: Vec<Option<Parts>>,
}

/// Streams `cfg.trials` transistor-level trials — importance-sampled
/// ΔV_TH × process corners on the differential pair — through the
/// batched operating-point engine, folding a per-threshold yield table
/// at O(chunk) memory. With [`YieldConfig::warm_start`] set, each trial
/// starts from its own corner's nominal bias point. Bit-identical for
/// any thread count.
///
/// # Errors
///
/// Propagates the first [`SpiceError`] from any trial (lint rejection
/// or a variant that fails even the scalar fallback ladder).
///
/// # Panics
///
/// Panics when the config or pair spec is invalid.
pub fn transistor_offset_yield(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
    thresholds: &[f64],
) -> Result<TransistorYield, SpiceError> {
    transistor_offset_yield_traced(cfg, spec, thresholds, &Telemetry::disabled())
}

/// [`transistor_offset_yield`] with solver telemetry: batch counters
/// from every worker are absorbed in chunk order, so the report is as
/// thread-count-invariant as the estimate itself.
///
/// # Errors
///
/// See [`transistor_offset_yield`].
pub fn transistor_offset_yield_traced(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
    thresholds: &[f64],
    tel: &Telemetry,
) -> Result<TransistorYield, SpiceError> {
    transistor_impl(cfg, spec, thresholds, tel, true)
}

/// Per-trial scalar baseline of [`transistor_offset_yield`]: the same
/// draws and the same streaming fold, but every trial runs the full
/// scalar Newton ladder independently — the pre-batch Monte-Carlo flow,
/// kept as the `--no-batch` reference and the bench baseline.
///
/// # Errors
///
/// See [`transistor_offset_yield`].
pub fn transistor_offset_yield_scalar(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
    thresholds: &[f64],
) -> Result<TransistorYield, SpiceError> {
    transistor_impl(cfg, spec, thresholds, &Telemetry::disabled(), false)
}

// The validated config has at least one chunk, so the fold produces a
// value.
#[allow(clippy::expect_used)]
fn transistor_impl(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
    thresholds: &[f64],
    tel: &Telemetry,
    use_batch: bool,
) -> Result<TransistorYield, SpiceError> {
    let sweep = PairSweep::new(cfg, spec)?;
    let chunks = cfg.chunk_list();
    let probe = tel.probe();
    let folded = par_fold(
        cfg.threads,
        &chunks,
        |chunk_idx, &(start, len)| -> Result<ChunkOut, SpiceError> {
            let wtel = probe.fork(chunk_idx as u32 + 1);
            let (trials, fallbacks) = if use_batch {
                sweep.batched_chunk(start, len, &wtel)?
            } else {
                let trials = (start..start + len).map(|idx| sweep.scalar_trial(idx, &wtel));
                (trials.collect::<Result<_, _>>()?, 0)
            };
            let mut estimate = YieldEstimate::new(thresholds);
            for (off, w) in trials {
                estimate.add(off.abs(), w);
            }
            wtel.count(|c| c.trials_total += len as u64);
            Ok(ChunkOut {
                estimate,
                fallbacks,
                parts: vec![wtel.into_parts()],
            })
        },
        |a, b| match (a, b) {
            (Ok(mut a), Ok(b)) => {
                a.estimate.merge(&b.estimate);
                a.fallbacks += b.fallbacks;
                a.parts.extend(b.parts);
                Ok(a)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
    );
    let out = folded.expect("validated config has at least one chunk")?;
    for p in out.parts {
        tel.absorb(p);
    }
    Ok(TransistorYield {
        estimate: out.estimate,
        fallbacks: out.fallbacks,
        nominal_offsets: sweep.nominal_offsets,
    })
}

/// Validation helper: the per-trial pair offsets (volts, signed) of the
/// first `cfg.trials` trials, computed through the batched engine.
/// Materializes O(trials) — meant for agreement assertions at modest
/// trial counts, not production sweeps. Returns the offsets plus the
/// scalar-fallback count.
///
/// # Errors
///
/// See [`transistor_offset_yield`].
pub fn pair_offsets_batched(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
) -> Result<(Vec<f64>, u64), SpiceError> {
    let sweep = PairSweep::new(cfg, spec)?;
    let (mut offsets, mut fallbacks) = (Vec::with_capacity(cfg.trials), 0);
    for (start, len) in cfg.chunk_list() {
        let (trials, fb) = sweep.batched_chunk(start, len, &Telemetry::disabled())?;
        offsets.extend(trials.into_iter().map(|(off, _)| off));
        fallbacks += fb;
    }
    Ok((offsets, fallbacks))
}

/// Scalar companion of [`pair_offsets_batched`]: the same trials, each
/// through the independent scalar Newton ladder.
///
/// # Errors
///
/// See [`transistor_offset_yield`].
pub fn pair_offsets_scalar(
    cfg: &YieldConfig,
    spec: &PairYieldSpec,
) -> Result<Vec<f64>, SpiceError> {
    let sweep = PairSweep::new(cfg, spec)?;
    (0..cfg.trials)
        .map(|idx| Ok(sweep.scalar_trial(idx, &Telemetry::disabled())?.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thresholds() -> Vec<f64> {
        vec![0.05, 0.1, 0.2, 0.25]
    }

    #[test]
    fn behavioral_packed_equals_scalar_bitwise() {
        let cfg = YieldConfig::new(1000, 7).with_chunk(128);
        let chain = ChainSpec::paper_default();
        let packed = behavioral_offset_yield(&cfg, &chain, &thresholds());
        let scalar = behavioral_offset_yield_scalar(&cfg, &chain, &thresholds());
        assert_eq!(packed, scalar, "lane packing changed the estimate");
    }

    #[test]
    fn behavioral_yield_thread_invariant() {
        let chain = ChainSpec::paper_default();
        let reference = behavioral_offset_yield(
            &YieldConfig::new(4096, 3).with_chunk(256),
            &chain,
            &thresholds(),
        );
        for threads in [2, 3, 8] {
            let run = behavioral_offset_yield(
                &YieldConfig::new(4096, 3)
                    .with_chunk(256)
                    .with_threads(threads),
                &chain,
                &thresholds(),
            );
            assert_eq!(reference, run, "thread count {threads} changed the yield");
        }
    }

    #[test]
    fn importance_sampling_stays_unbiased() {
        // Widened draws + likelihood weights must reproduce the plain
        // Monte-Carlo tail probability within sampling noise.
        let chain = ChainSpec {
            sigma_vth: 5e-3,
            ..ChainSpec::paper_default()
        };
        let thr = vec![0.2];
        let plain =
            behavioral_offset_yield(&YieldConfig::new(200_000, 11).with_threads(4), &chain, &thr);
        let widened = behavioral_offset_yield(
            &YieldConfig::new(200_000, 12)
                .with_threads(4)
                .with_sigma_scale(2.0),
            &chain,
            &thr,
        );
        let (p, q) = (plain.raw.fail_prob(0), widened.raw.fail_prob(0));
        assert!(p > 1e-3, "tail not exercised: plain p = {p}");
        let rel = (p - q).abs() / p;
        assert!(rel < 0.1, "importance estimate biased: {p} vs {q} ({rel})");
        // Weights average to ~1 when the proposal covers the target.
        let mean_w = widened.raw.weight_sum / widened.raw.trials as f64;
        assert!((mean_w - 1.0).abs() < 0.05, "mean weight {mean_w}");
        assert!(widened.raw.effective_samples() < widened.raw.trials as f64);
    }

    #[test]
    fn plain_mc_weights_are_exactly_one_each() {
        let est = behavioral_offset_yield(
            &YieldConfig::new(333, 5),
            &ChainSpec::paper_default(),
            &thresholds(),
        );
        assert_eq!(est.raw.weight_sum, 333.0);
        assert_eq!(est.raw.weight_sq_sum, 333.0);
        assert_eq!(est.raw.effective_samples(), 333.0);
    }

    #[test]
    fn transistor_yield_matches_scalar_flow_and_threads() {
        let spec = PairYieldSpec::paper_default();
        // Cold start: the batched lockstep then takes the same Newton
        // trajectory as the scalar ladder, so the tables agree exactly.
        let cfg = YieldConfig::new(64, 9)
            .with_chunk(16)
            .with_warm_start(false);
        let thr = vec![1e-3, 5e-3, 10e-3];
        let batched = transistor_offset_yield(&cfg, &spec, &thr).unwrap();
        let scalar = transistor_offset_yield_scalar(&cfg, &spec, &thr).unwrap();
        assert_eq!(batched.estimate, scalar.estimate);
        for threads in [2, 8] {
            let t =
                transistor_offset_yield(&cfg.clone().with_threads(threads), &spec, &thr).unwrap();
            assert_eq!(
                batched.estimate, t.estimate,
                "threads {threads} changed yield"
            );
        }
        // The nominal pair is symmetric; mismatch must cross the small
        // thresholds for some trials but never all of them.
        assert!(batched.nominal_offsets[0].abs() < 1e-6);
        assert!(batched.estimate.fail_prob(0) > 0.0);
        assert!(batched.estimate.yield_frac(2) > 0.5);
    }

    #[test]
    fn transistor_offsets_batched_agree_with_scalar() {
        let spec = PairYieldSpec::paper_default().all_corners();
        let cfg = YieldConfig::new(40, 21)
            .with_chunk(16)
            .with_warm_start(false);
        let (batched, _fallbacks) = pair_offsets_batched(&cfg, &spec).unwrap();
        let scalar = pair_offsets_scalar(&cfg, &spec).unwrap();
        assert_eq!(batched.len(), scalar.len());
        for (i, (b, s)) in batched.iter().zip(&scalar).enumerate() {
            assert!(
                (b - s).abs() <= 1e-9,
                "trial {i}: batched {b} vs scalar {s}"
            );
        }
    }

    #[test]
    fn warm_start_changes_path_not_answer() {
        let spec = PairYieldSpec::paper_default().all_corners();
        let cold = YieldConfig::new(32, 33)
            .with_chunk(16)
            .with_warm_start(false);
        let warm = YieldConfig::new(32, 33).with_chunk(16);
        let (a, _) = pair_offsets_batched(&cold, &spec).unwrap();
        let (b, _) = pair_offsets_batched(&warm, &spec).unwrap();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-6,
                "trial {i}: cold {x} vs warm {y} beyond Newton tolerance"
            );
        }
    }

    /// With near-zero mismatch every trial sits on its corner's nominal
    /// bias point, so a lane warm-started from its own corner converges
    /// on the first lockstep iteration: one batched solve per eight-lane
    /// group. 80 trials in chunks of 64 make 8 + 2 groups.
    #[test]
    fn warm_start_takes_one_lockstep_iteration_per_group() {
        for spec in [PairYieldSpec::paper_default(), PairYieldSpec::paper_chain()] {
            let tel = Telemetry::enabled();
            let cfg = YieldConfig::new(80, 17)
                .with_chunk(64)
                .with_sigma_scale(1e-6);
            let spec = spec.all_corners();
            let _ = transistor_offset_yield_traced(&cfg, &spec, &[5e-3], &tel).unwrap();
            let c = tel.report().counters;
            assert_eq!(c.batch_solves, 10, "{} stages", spec.stages);
            assert_eq!(c.lane_fallbacks, 0);
        }
    }

    #[test]
    fn transistor_telemetry_counts_batch_activity() {
        let tel = Telemetry::enabled();
        let cfg = YieldConfig::new(32, 13).with_chunk(16);
        let spec = PairYieldSpec::paper_default();
        let _ = transistor_offset_yield_traced(&cfg, &spec, &[5e-3], &tel).unwrap();
        let report = tel.report();
        assert_eq!(report.counters.trials_total, 32);
        assert!(report.counters.batch_solves > 0, "no batch solves counted");
        assert!(report.counters.batch_lane_slots >= report.counters.batch_lanes_active);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ =
            behavioral_offset_yield(&YieldConfig::new(0, 1), &ChainSpec::paper_default(), &[0.1]);
    }
}
