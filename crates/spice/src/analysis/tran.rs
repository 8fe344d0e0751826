//! Transient analysis.
//!
//! Two stepping modes share the same companion models (trapezoidal or
//! backward-Euler) and the same Newton seed. The companion models are
//! one compiled form per circuit: each solve loads `G + (a/dt)·C`, and
//! the history lives in node space as the charges `q = C·x` and
//! `d = C·ẋ` of the last accepted point (see `System::init_tran`).
//! Every step's solve starts
//! from the polynomial predictor through the last accepted points
//! (quadratic through three, linear through two, the last point alone
//! on the first step and after a breakpoint restart), as SPICE3's
//! `PREDICTOR` option does.
//!
//! * **Fixed** (default): the nominal timestep everywhere, with automatic
//!   step halving on Newton failure up to a retry budget.
//! * **Adaptive** ([`TranConfig::adaptive`]): local-truncation-error
//!   control. Each accepted solution is compared against a polynomial
//!   predictor extrapolated from the previous accepted points; steps
//!   whose deviation exceeds the error band are rejected and halved,
//!   and quiet stretches grow the step back up to a cap. Source corners
//!   (PWL knots, pulse edges) are breakpoints: the controller lands a
//!   step exactly on each one and restarts small, so edges are never
//!   straddled. See DESIGN.md §8.
//!
//! Both modes **stream**: accepted samples flow through a
//! [`super::sink::WaveSink`] in fixed-size columnar chunks
//! ([`run_streaming`]), so memory stays O(chunk) for million-point runs.
//! The classic dense API ([`run`] → [`TranResult`]) survives unchanged
//! as a [`super::sink::DenseSink`] over the full state. See DESIGN.md
//! §12 for the sink architecture and memory model.
//!
//! The initial condition is the operating point with sources evaluated
//! at `t = 0`.

use super::op::solve_system;
use super::sink::{ChunkEmitter, DenseSink, TranProbes, TranStats, WaveSink};
use super::{NewtonOptions, NewtonWorkspace, System};
use crate::circuit::{Circuit, NodeId};
use crate::element::{Integration, StampMode};
use crate::SpiceError;
use cml_telemetry::{EventKind, Phase, Telemetry};
use std::collections::HashMap;

/// Configuration for a transient run.
#[derive(Debug, Clone)]
pub struct TranConfig {
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Nominal timestep, seconds.
    pub dt: f64,
    /// Integration method for companion models.
    pub method: Integration,
    /// Newton options per step.
    pub newton: NewtonOptions,
    /// Local-truncation-error control: when `true`, each step's solution
    /// is compared against a polynomial predictor (quadratic through the
    /// three previous accepted points once available, linear before
    /// that). Steps whose normalized deviation exceeds ten Newton
    /// tolerance bands are rejected and retried at half the step, down
    /// to `dt / 4096`; comfortably accurate steps grow back by doubling,
    /// up to `max(dt, t_stop / 50)`. Source-waveform corners become
    /// breakpoints the controller lands on exactly, restarting on the far
    /// side with a cleared predictor history and a tenth of the smaller
    /// of the working step and the gap to the next breakpoint (floored
    /// at `dt / 4096`). `dt` remains the first-step size and the scale
    /// all limits derive from.
    pub adaptive: bool,
    /// Samples per streamed waveform chunk (default 1024, see
    /// [`TranConfig::with_chunk_size`]). Accumulators downstream are
    /// chunk-invariant, so this only trades sink-call overhead against
    /// staging-buffer size; it never changes results.
    pub chunk_size: usize,
}

impl TranConfig {
    /// Creates a config with default Newton options and trapezoidal
    /// integration.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt` is not strictly positive, or `dt > t_stop`.
    #[must_use]
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(t_stop > 0.0 && dt > 0.0, "times must be positive");
        assert!(dt <= t_stop, "dt must not exceed t_stop");
        TranConfig {
            t_stop,
            dt,
            method: Integration::Trapezoidal,
            newton: NewtonOptions::default(),
            adaptive: false,
            chunk_size: 1024,
        }
    }

    /// Enables predictor-corrector local-truncation-error control. The
    /// LTE check measures each converged step against the same
    /// predictor vector its Newton solve started from, so the predictor
    /// is computed once per attempt. Fixed-step runs start Newton from
    /// that predictor too; only the accept/reject rule is adaptive.
    #[must_use]
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Switches to backward-Euler integration.
    #[must_use]
    pub fn backward_euler(mut self) -> Self {
        self.method = Integration::BackwardEuler;
        self
    }

    /// Overrides the streamed-chunk size (clamped to at least 1).
    #[must_use]
    pub fn with_chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = n.max(1);
        self
    }
}

/// Hard cap on up-front step preallocation. A config with a tiny `dt`
/// and a long `t_stop` (think `dt = 1 fs`, `t_stop = 1 s`: 10¹⁵ steps)
/// must not translate into a 10¹⁵-element `Vec::with_capacity` — the
/// estimate is a *hint*, so past this cap the buffers just grow
/// organically.
pub(crate) const MAX_STEP_PREALLOC: usize = 1 << 20;

/// Expected accepted-point count for preallocation, clamped to
/// [`MAX_STEP_PREALLOC`] and hardened against the non-finite or
/// overflowing ratios that `(t_stop / dt).ceil() as usize` produced for
/// extreme configs.
pub(crate) fn clamped_step_estimate(t_stop: f64, dt: f64) -> usize {
    // Truncate rather than ceil: fp noise on an exact ratio (1e-9/1e-12
    // = 1000.0000000000002) must not inflate the hint, and a 1-off
    // undershoot only costs one amortized regrow.
    let ratio = t_stop / dt;
    if !ratio.is_finite() || ratio < 0.0 || ratio >= MAX_STEP_PREALLOC as f64 {
        return MAX_STEP_PREALLOC;
    }
    (ratio as usize).saturating_add(1).min(MAX_STEP_PREALLOC)
}

/// Result of a dense transient run: the full solution vector at every
/// accepted timestep, stored columnar (one contiguous waveform per MNA
/// unknown).
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    cols: Vec<Vec<f64>>,
    branch_names: HashMap<String, usize>,
}

impl TranResult {
    /// Accepted time points (seconds), starting at 0.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the run produced no points (cannot happen for a successful
    /// run, which always records `t = 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of `node` across the run.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        match node.index() {
            Some(i) => self.cols[i].clone(),
            None => vec![0.0; self.times.len()],
        }
    }

    /// Differential waveform `v(p) − v(n)`.
    #[must_use]
    pub fn differential(&self, p: NodeId, n: NodeId) -> Vec<f64> {
        let vp = self.voltage(p);
        let vn = self.voltage(n);
        vp.iter().zip(&vn).map(|(a, b)| a - b).collect()
    }

    /// Branch-current waveform of a named voltage-defined element.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NotFound`] if no such branch exists.
    pub fn current(&self, element: &str) -> Result<Vec<f64>, SpiceError> {
        let idx = *self
            .branch_names
            .get(element)
            .ok_or_else(|| SpiceError::NotFound {
                what: "branch element",
                name: element.to_string(),
            })?;
        Ok(self.cols[idx].clone())
    }
}

/// Runs transient analysis, buffering the full dense result.
///
/// # Errors
///
/// Propagates initial-OP failures; [`SpiceError::NoConvergence`] if a step
/// cannot be completed even after 10 consecutive halvings of `dt`.
pub fn run(ckt: &Circuit, config: &TranConfig) -> Result<TranResult, SpiceError> {
    run_traced(ckt, config, &Telemetry::disabled())
}

/// [`run`] recording solver telemetry into `tel`: a span tree for the
/// run's phases (initial operating point, stepping loop) plus the step,
/// LTE, chunk and factorization-reuse counters.
///
/// # Errors
///
/// See [`run`].
pub fn run_traced(
    ckt: &Circuit,
    config: &TranConfig,
    tel: &Telemetry,
) -> Result<TranResult, SpiceError> {
    let mut sink = DenseSink::new();
    let (_, branch_names) =
        run_streaming_inner(ckt, config, &TranProbes::full_state(), &mut sink, tel)?;
    let (times, cols) = sink.into_parts();
    Ok(TranResult {
        times,
        cols,
        branch_names,
    })
}

/// Runs transient analysis streaming the selected probes into `sink`
/// in fixed-size columnar chunks, holding only O(chunk) waveform data.
///
/// # Errors
///
/// See [`run`]; additionally [`SpiceError::NotFound`] for a current
/// probe naming no branch, and any error the sink returns.
pub fn run_streaming(
    ckt: &Circuit,
    config: &TranConfig,
    probes: &TranProbes,
    sink: &mut dyn WaveSink,
) -> Result<TranStats, SpiceError> {
    run_streaming_traced(ckt, config, probes, sink, &Telemetry::disabled())
}

/// [`run_streaming`] recording solver telemetry into `tel`.
///
/// # Errors
///
/// See [`run_streaming`].
pub fn run_streaming_traced(
    ckt: &Circuit,
    config: &TranConfig,
    probes: &TranProbes,
    sink: &mut dyn WaveSink,
    tel: &Telemetry,
) -> Result<TranStats, SpiceError> {
    run_streaming_inner(ckt, config, probes, sink, tel).map(|(stats, _)| stats)
}

/// Shared driver behind the dense and streaming entry points; returns
/// the branch-name map alongside the stats so [`run_traced`] can build a
/// [`TranResult`] without assembling the system twice. Any failure
/// dumps a `"tran"` forensic flight bundle (see [`crate::flight`]).
fn run_streaming_inner(
    ckt: &Circuit,
    config: &TranConfig,
    probes: &TranProbes,
    sink: &mut dyn WaveSink,
    tel: &Telemetry,
) -> Result<(TranStats, HashMap<String, usize>), SpiceError> {
    let res = run_streaming_impl(ckt, config, probes, sink, tel);
    if let Err(e) = &res {
        crate::flight::record_failure(ckt, &config.newton, "tran", e, tel);
    }
    res
}

fn run_streaming_impl(
    ckt: &Circuit,
    config: &TranConfig,
    probes: &TranProbes,
    sink: &mut dyn WaveSink,
    tel: &Telemetry,
) -> Result<(TranStats, HashMap<String, usize>), SpiceError> {
    let _span = tel.span("analysis", "tran");
    if !(config.t_stop > 0.0 && config.dt > 0.0) {
        return Err(SpiceError::InvalidConfig {
            message: "t_stop and dt must be positive".into(),
        });
    }
    {
        let _t = tel.timer(Phase::LintPrecheck);
        super::cache::lint_precheck_cached(ckt, config.newton.cache, tel)?;
    }
    tel.count(|c| c.lint_prechecks += 1);
    let sys = System::new(ckt);

    // Initial condition: DC solve with waveforms evaluated at t = 0.
    let x0 = {
        let _span = tel.span("phase", "tran_init");
        solve_system(&sys, &config.newton, Some(0.0), tel)?
    };
    let state = sys.init_tran(&x0, config.newton.gmin, tel)?;

    let mut emit = ChunkEmitter::new(
        &sys,
        probes,
        config.chunk_size,
        config.t_stop,
        config.dt,
        sink,
    )?;

    let _stepping = tel.span("phase", "tran_stepping");
    if config.adaptive {
        adaptive_loop(ckt, &sys, config, x0, state, &mut emit, tel)?;
    } else {
        fixed_loop(&sys, config, x0, state, &mut emit, tel)?;
    }
    let stats = emit.finish(tel)?;
    Ok((stats, sys.branch_names().clone()))
}

/// Fixed-step transient loop: the nominal `dt` everywhere, halving only
/// on Newton failure. Every Newton solve starts from the polynomial
/// predictor through the trailing accepted points ([`History`]).
fn fixed_loop(
    sys: &System<'_>,
    config: &TranConfig,
    x0: Vec<f64>,
    mut state: Vec<f64>,
    emit: &mut ChunkEmitter<'_>,
    tel: &Telemetry,
) -> Result<(), SpiceError> {
    let mut state_next = vec![0.0; state.len()];
    emit.push(0.0, &x0, tel)?;

    let mut t = 0.0;
    let mut hist = History::new(0.0, x0);
    let mut pred = Vec::with_capacity(sys.dim());
    // One workspace for the whole run: the pattern, matrices and LU
    // factors survive from step to step.
    let mut ws = NewtonWorkspace::new();
    while t < config.t_stop - 1e-18 {
        let mut dt = config.dt.min(config.t_stop - t);
        let mut halvings = 0;
        loop {
            let mode = StampMode::Tran {
                time: t + dt,
                dt,
                method: config.method,
            };
            hist.predict_into(t + dt, &mut pred);
            match sys.newton_with(mode, &pred, &state, &config.newton, "tran", &mut ws, tel) {
                Ok(x_new) => {
                    sys.advance_history(x_new, &state, mode, &mut state_next)?;
                    std::mem::swap(&mut state, &mut state_next);
                    t += dt;
                    emit.push(t, x_new, tel)?;
                    hist.push(t, x_new);
                    tel.count(|c| {
                        c.tran_steps += 1;
                        c.record_dt(dt, config.dt);
                    });
                    break;
                }
                Err(e) => {
                    halvings += 1;
                    if halvings > MAX_HALVINGS {
                        return Err(e);
                    }
                    tel.count(|c| c.newton_retries += 1);
                    tel.event(|| EventKind::NewtonRetry { t, dt });
                    dt /= 2.0;
                }
            }
        }
    }
    Ok(())
}

/// Smallest step the LTE controller will shrink to, as a divisor of the
/// nominal `dt`.
const MAX_SHRINK: f64 = 4096.0;

/// Maximum consecutive step halvings before a step gives up.
const MAX_HALVINGS: u32 = 10;

/// Rejection threshold for adaptive mode, in units of the Newton
/// tolerance band (`reltol·|x| + vntol`).
const LTE_FACTOR: f64 = 10.0;

/// First step after a breakpoint, as a fraction of the smaller of the
/// working step and the gap to the next breakpoint (SPICE3's `DCtran`
/// rule).
const BP_RESTART_FRACTION: f64 = 0.1;

/// Collects, sorts and deduplicates source-waveform breakpoints in
/// `(0, t_stop)`. Coincident or *near*-coincident corners (two PWL
/// sources sharing an edge, rendered complements, clock trees) merge
/// into one breakpoint: each survivor costs the controller a restart at
/// a tenth of the step in use (or of the gap to the next breakpoint)
/// with a cleared predictor history, so duplicates within
/// [`breakpoint_merge_eps`] would silently multiply step counts.
pub(crate) fn merged_breakpoints(ckt: &Circuit, t_stop: f64) -> Vec<f64> {
    let mut bps: Vec<f64> = Vec::new();
    for e in ckt.elements() {
        e.breakpoints(t_stop, &mut bps);
    }
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() <= breakpoint_merge_eps(*a, *b));
    bps.retain(|&b| b > 0.0 && b < t_stop);
    bps
}

/// Two breakpoints within 1 ppb of the larger time (sub-femtosecond at
/// nanosecond scale) count as the same source corner; the tiny absolute
/// floor lets duplicates of `t = 0` merge too.
fn breakpoint_merge_eps(a: f64, b: f64) -> f64 {
    1e-9 * a.abs().max(b.abs()) + 1e-21
}

/// The up-to-three most recent accepted points, newest last. They seed
/// each step's Newton solve and are the reference of the LTE check, both
/// through [`History::predict_into`]. The three slots are allocated once
/// per run: O(3·dim) memory regardless of run length.
struct History {
    t: [f64; 3],
    x: [Vec<f64>; 3],
    len: usize,
}

impl History {
    fn new(t0: f64, x0: Vec<f64>) -> Self {
        let dim = x0.len();
        History {
            t: [t0, 0.0, 0.0],
            x: [x0, vec![0.0; dim], vec![0.0; dim]],
            len: 1,
        }
    }

    /// Valid trailing points (1..=3).
    fn len(&self) -> usize {
        self.len
    }

    /// Records an accepted point, evicting the oldest beyond three.
    fn push(&mut self, t: f64, x: &[f64]) {
        if self.len == 3 {
            self.t.rotate_left(1);
            self.x.rotate_left(1);
        } else {
            self.len += 1;
        }
        self.t[self.len - 1] = t;
        self.x[self.len - 1].copy_from_slice(x);
    }

    /// Keeps only the newest point: called at breakpoints, where older
    /// points sit on the wrong side of a slope discontinuity.
    fn restart(&mut self) {
        self.t.swap(0, self.len - 1);
        self.x.swap(0, self.len - 1);
        self.len = 1;
    }

    /// Extrapolates every unknown to `t_new` into `out`: the quadratic
    /// Lagrange predictor through three points, the linear one through
    /// two, and the newest point itself when it is alone.
    fn predict_into(&self, t_new: f64, out: &mut Vec<f64>) {
        let n = self.len;
        let (t2, x2) = (self.t[n - 1], &self.x[n - 1]);
        out.clear();
        match n {
            3 => {
                let (t0, x0) = (self.t[0], &self.x[0]);
                let (t1, x1) = (self.t[1], &self.x[1]);
                let l0 = ((t_new - t1) * (t_new - t2)) / ((t0 - t1) * (t0 - t2));
                let l1 = ((t_new - t0) * (t_new - t2)) / ((t1 - t0) * (t1 - t2));
                let l2 = ((t_new - t0) * (t_new - t1)) / ((t2 - t0) * (t2 - t1));
                out.extend((0..x2.len()).map(|i| l0 * x0[i] + l1 * x1[i] + l2 * x2[i]));
            }
            2 => {
                let (t1, x1) = (self.t[0], &self.x[0]);
                let ratio = (t_new - t2) / (t2 - t1);
                out.extend(x2.iter().zip(x1).map(|(&a, &b)| a + (a - b) * ratio));
            }
            _ => out.extend_from_slice(x2),
        }
    }
}

/// LTE-controlled adaptive transient loop.
///
/// The controller keeps a working step `dt` that it halves on rejection
/// (solution too far from the polynomial predictor) and doubles on
/// comfortably accurate steps. Source-waveform corners are collected up
/// front as breakpoints; a step that would cross one is truncated to
/// land exactly on it, and the predictor history is cleared on the far
/// side since the derivative is discontinuous there. The step after the
/// corner is [`BP_RESTART_FRACTION`] of the smaller of the working step
/// and the gap to the next breakpoint.
fn adaptive_loop(
    ckt: &Circuit,
    sys: &System<'_>,
    config: &TranConfig,
    x0: Vec<f64>,
    mut state: Vec<f64>,
    emit: &mut ChunkEmitter<'_>,
    tel: &Telemetry,
) -> Result<(), SpiceError> {
    let t_stop = config.t_stop;
    let breakpoints = merged_breakpoints(ckt, t_stop);
    let mut bp_idx = 0usize;

    let dt_min = config.dt / MAX_SHRINK;
    let dt_max = config.dt.max(t_stop / 50.0);

    let mut state_next = vec![0.0; state.len()];
    emit.push(0.0, &x0, tel)?;
    let mut t = 0.0;
    let mut hist = History::new(0.0, x0);
    let mut pred = Vec::with_capacity(sys.dim());
    let mut ws = NewtonWorkspace::new();
    let mut dt = config.dt;

    while t < t_stop - 1e-18 {
        while bp_idx < breakpoints.len() && breakpoints[bp_idx] <= t + 1e-18 {
            bp_idx += 1;
        }
        let mut dt_step = dt.min(t_stop - t);
        let mut lands_on_bp = false;
        if let Some(&bp) = breakpoints.get(bp_idx) {
            if t + dt_step >= bp - 1e-18 {
                dt_step = bp - t;
                lands_on_bp = true;
            }
        }
        let mut halvings = 0;
        let mut rejected = false;
        loop {
            let mode = StampMode::Tran {
                time: t + dt_step,
                dt: dt_step,
                method: config.method,
            };
            // One predictor per attempt: the Newton seed and the LTE
            // reference.
            hist.predict_into(t + dt_step, &mut pred);
            match sys.newton_with(mode, &pred, &state, &config.newton, "tran", &mut ws, tel) {
                Ok(x_new) => {
                    let mut worst = 0.0f64;
                    if hist.len() >= 2 {
                        let (dev, node) = predictor_deviation(sys, &pred, x_new, &config.newton);
                        worst = dev;
                        if worst > LTE_FACTOR
                            && dt_step > dt_min * (1.0 + 1e-9)
                            && halvings < MAX_HALVINGS
                        {
                            halvings += 1;
                            rejected = true;
                            lands_on_bp = false;
                            tel.count(|c| c.lte_rejects += 1);
                            tel.event(|| EventKind::LteReject {
                                t,
                                dt: dt_step,
                                node: u32::try_from(node).unwrap_or(u32::MAX),
                            });
                            dt_step = (dt_step / 2.0).max(dt_min);
                            continue;
                        }
                    }
                    sys.advance_history(x_new, &state, mode, &mut state_next)?;
                    std::mem::swap(&mut state, &mut state_next);
                    t += dt_step;
                    emit.push(t, x_new, tel)?;
                    hist.push(t, x_new);
                    tel.count(|c| {
                        c.tran_steps += 1;
                        c.lte_accepts += 1;
                        c.record_dt(dt_step, config.dt);
                        if lands_on_bp {
                            c.breakpoint_restarts += 1;
                        }
                    });
                    if lands_on_bp {
                        hist.restart();
                        let next = breakpoints.get(bp_idx + 1).copied().unwrap_or(t_stop);
                        dt = (BP_RESTART_FRACTION * dt.min(next - t)).max(dt_min);
                    } else if rejected {
                        // Continue at the scale the rejection found;
                        // quiet steps will grow it back.
                        dt = dt_step;
                    } else if worst < LTE_FACTOR / 4.0 {
                        dt = (dt * 2.0).min(dt_max);
                    }
                    break;
                }
                Err(e) => {
                    halvings += 1;
                    if halvings > MAX_HALVINGS {
                        return Err(e);
                    }
                    tel.count(|c| c.newton_retries += 1);
                    tel.event(|| EventKind::NewtonRetry { t, dt: dt_step });
                    rejected = true;
                    lands_on_bp = false;
                    dt_step /= 2.0;
                }
            }
        }
    }
    Ok(())
}

/// Worst normalized deviation of `x_new` from the predictor `pred`
/// ([`History::predict_into`]) and the MNA index of the node it sits on.
/// Only node voltages participate (branch currents scale too wildly for
/// the voltage band). The unit is Newton tolerance bands, so `1.0` means
/// "off by exactly `reltol·|v| + vntol`".
fn predictor_deviation(
    sys: &System<'_>,
    pred: &[f64],
    x_new: &[f64],
    newton: &NewtonOptions,
) -> (f64, usize) {
    let mut worst = (0.0f64, 0);
    for i in 0..sys.n_nodes() {
        let band = newton.reltol * x_new[i].abs() + newton.vntol;
        let dev = (x_new[i] - pred[i]).abs() / band;
        if dev > worst.0 {
            worst = (dev, i);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn rc_charging_curve() {
        // Step into RC: v(t) = 1 − e^{−t/RC}, RC = 1 ns.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.0, 1e-12),
        ));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let res = run(&ckt, &TranConfig::new(5e-9, 5e-12)).unwrap();
        let v = res.voltage(out);
        let times = res.times();
        // Compare against the analytic curve away from the ramp.
        for (i, &t) in times.iter().enumerate() {
            if t > 0.1e-9 {
                let want = 1.0 - (-(t - 1e-12) / 1e-9).exp();
                assert!(
                    (v[i] - want).abs() < 5e-3,
                    "t={t:.3e}: got {} want {want}",
                    v[i]
                );
            }
        }
        // Fully settled at the end.
        assert!((v.last().unwrap() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn lc_oscillation_period() {
        // Charged C discharging into L: period 2π√(LC).
        let (l, c): (f64, f64) = (1e-9, 1e-12);
        let period = 2.0 * std::f64::consts::PI * (l * c).sqrt();
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        // Excite with a short current pulse, then let it ring.
        ckt.add(Isource::new(
            "I1",
            Circuit::GROUND,
            n1,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1e-3,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 20e-12,
                period: 1.0,
            },
        ));
        ckt.add(Capacitor::new("C1", n1, Circuit::GROUND, c));
        ckt.add(Inductor::new("L1", n1, Circuit::GROUND, l));
        // Light damping so the oscillation persists.
        ckt.add(Resistor::new("R1", n1, Circuit::GROUND, 1e6));
        let res = run(&ckt, &TranConfig::new(4.0 * period, period / 400.0)).unwrap();
        let v = res.voltage(n1);
        let times = res.times();
        // Measure period between the last two rising zero crossings.
        let crossings = cml_numeric::interp::level_crossings(times, &v, 0.0).unwrap();
        assert!(crossings.len() >= 4, "expected several crossings");
        let last = crossings[crossings.len() - 1] - crossings[crossings.len() - 3];
        assert!(
            (last - period).abs() / period < 0.01,
            "period {last:.3e} vs expected {period:.3e}"
        );
    }

    #[test]
    fn backward_euler_decays_faster_than_trap() {
        // BE's numerical damping shows up on an LC tank: amplitude decays.
        let (l, c): (f64, f64) = (1e-9, 1e-12);
        let build = || {
            let mut ckt = Circuit::new();
            let n1 = ckt.node("n1");
            ckt.add(Isource::new(
                "I1",
                Circuit::GROUND,
                n1,
                Waveform::Pulse {
                    v1: 0.0,
                    v2: 1e-3,
                    delay: 0.0,
                    rise: 1e-12,
                    fall: 1e-12,
                    width: 20e-12,
                    period: 1.0,
                },
            ));
            ckt.add(Capacitor::new("C1", n1, Circuit::GROUND, c));
            ckt.add(Inductor::new("L1", n1, Circuit::GROUND, l));
            ckt.add(Resistor::new("R1", n1, Circuit::GROUND, 1e6));
            ckt
        };
        let period = 2.0 * std::f64::consts::PI * (l * c).sqrt();
        let cfg_trap = TranConfig::new(10.0 * period, period / 100.0);
        let cfg_be = cfg_trap.clone().backward_euler();
        let ckt = build();
        let amp = |res: &TranResult| {
            let v = res.voltage(res_node(res));
            v.iter()
                .skip(v.len() / 2)
                .fold(0.0f64, |m, &x| m.max(x.abs()))
        };
        fn res_node(_res: &TranResult) -> NodeId {
            NodeId::from_raw(1)
        }
        let a_trap = amp(&run(&ckt, &cfg_trap).unwrap());
        let a_be = amp(&run(&build(), &cfg_be).unwrap());
        assert!(
            a_be < a_trap * 0.8,
            "BE ({a_be}) should damp more than trapezoidal ({a_trap})"
        );
    }

    #[test]
    fn sine_source_passes_through_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Vsource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e9,
                delay: 0.0,
            },
        ));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 50.0));
        let res = run(&ckt, &TranConfig::new(2e-9, 1e-11)).unwrap();
        let v = res.voltage(a);
        let peak = v.iter().cloned().fold(0.0f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-2, "peak = {peak}");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 50.0));
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        let bad = TranConfig {
            t_stop: -1.0,
            ..TranConfig::new(1.0, 1e-12)
        };
        assert!(matches!(
            run(&ckt, &bad),
            Err(SpiceError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn result_accessors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 100.0));
        let res = run(&ckt, &TranConfig::new(1e-10, 1e-11)).unwrap();
        assert!(!res.is_empty());
        assert_eq!(res.times()[0], 0.0);
        let i = res.current("V1").unwrap();
        assert!((i[0] + 0.01).abs() < 1e-9);
        assert!(res.current("R1").is_err());
        let d = res.differential(a, Circuit::GROUND);
        assert!((d[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn step_estimate_is_clamped() {
        // Sane configs keep the exact estimate.
        assert_eq!(clamped_step_estimate(1e-9, 1e-12), 1001);
        assert_eq!(clamped_step_estimate(1.0, 1.0), 2);
        // Regression: dt = 1 fs over t_stop = 1 s used to request a
        // 10¹⁵-element preallocation.
        assert_eq!(clamped_step_estimate(1.0, 1e-15), MAX_STEP_PREALLOC);
        // Hardened against non-finite ratios from degenerate configs.
        assert_eq!(
            clamped_step_estimate(f64::INFINITY, 1e-12),
            MAX_STEP_PREALLOC
        );
        assert_eq!(clamped_step_estimate(1.0, 0.0), MAX_STEP_PREALLOC);
        assert_eq!(clamped_step_estimate(f64::NAN, 1.0), MAX_STEP_PREALLOC);
    }

    #[test]
    fn huge_step_count_config_does_not_overallocate() {
        // A config implying ~10¹² steps must start (and be droppable)
        // without a matching preallocation. Run is aborted immediately
        // by a sink error so only setup cost is paid.
        struct Abort;
        impl crate::analysis::sink::WaveSink for Abort {
            fn chunk(
                &mut self,
                _chunk: &crate::analysis::sink::WaveChunk<'_>,
            ) -> Result<(), SpiceError> {
                Err(SpiceError::Internal {
                    message: "abort for test".into(),
                })
            }
        }
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 100.0));
        let cfg = TranConfig::new(1.0, 1e-12).with_chunk_size(1);
        let probes = TranProbes::new().voltage("a", a);
        let err = super::run_streaming(&ckt, &cfg, &probes, &mut Abort).unwrap_err();
        assert!(matches!(err, SpiceError::Internal { .. }));
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::analysis::sink::DenseSink;
    use crate::prelude::*;

    fn rc_circuit() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 1e-9, 1e-11),
        ));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        (ckt, out)
    }

    #[test]
    fn streaming_matches_dense_bit_for_bit() {
        let (ckt, out) = rc_circuit();
        for cfg in [
            TranConfig::new(5e-9, 5e-12),
            TranConfig::new(5e-9, 0.2e-9).adaptive(),
        ] {
            let dense = run(&ckt, &cfg).unwrap();
            for chunk in [1, 7, 1024] {
                let mut sink = DenseSink::new();
                let probes = TranProbes::new().voltage("out", out).current("i(V1)", "V1");
                let stats = run_streaming(
                    &ckt,
                    &cfg.clone().with_chunk_size(chunk),
                    &probes,
                    &mut sink,
                )
                .unwrap();
                assert_eq!(stats.samples as usize, dense.len());
                assert_eq!(sink.times(), dense.times());
                let dv = dense.voltage(out);
                let di = dense.current("V1").unwrap();
                for i in 0..dense.len() {
                    assert_eq!(sink.cols()[0][i].to_bits(), dv[i].to_bits());
                    assert_eq!(sink.cols()[1][i].to_bits(), di[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn unknown_current_probe_is_rejected() {
        let (ckt, out) = rc_circuit();
        let cfg = TranConfig::new(1e-9, 1e-11);
        let probes = TranProbes::new().voltage("out", out).current("i", "NOPE");
        let mut sink = DenseSink::new();
        assert!(matches!(
            run_streaming(&ckt, &cfg, &probes, &mut sink),
            Err(SpiceError::NotFound { .. })
        ));
    }

    #[test]
    fn ground_and_differential_probes() {
        let (ckt, out) = rc_circuit();
        let cfg = TranConfig::new(1e-9, 1e-11);
        let probes = TranProbes::new()
            .voltage("gnd", Circuit::GROUND)
            .differential("d", out, Circuit::GROUND);
        let mut sink = DenseSink::new();
        run_streaming(&ckt, &cfg, &probes, &mut sink).unwrap();
        assert!(sink.cols()[0].iter().all(|&v| v == 0.0));
        let dense = run(&ckt, &cfg).unwrap();
        let dv = dense.voltage(out);
        for (streamed, reference) in sink.cols()[1].iter().zip(&dv) {
            assert_eq!(streamed.to_bits(), reference.to_bits());
        }
        assert_eq!(sink.cols()[1].len(), dv.len());
    }

    #[test]
    fn coincident_breakpoints_merge() {
        // Two sources sharing an edge at t = 2 ns, the second offset by
        // 1e-19 s (inside the 1 ppb merge epsilon): the merged list must
        // contain ONE corner, and the adaptive run must take exactly as
        // many steps as with exactly-coincident edges.
        let build = |offset: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add(Vsource::new(
                "V1",
                a,
                Circuit::GROUND,
                Waveform::step(0.0, 1.0, 2e-9, 1e-11),
            ));
            ckt.add(Vsource::new(
                "V2",
                b,
                Circuit::GROUND,
                Waveform::step(0.0, -1.0, 2e-9 + offset, 1e-11),
            ));
            ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
            ckt.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
            ckt
        };
        let exact = merged_breakpoints(&build(0.0), 8e-9);
        let near = merged_breakpoints(&build(1e-19), 8e-9);
        assert_eq!(exact.len(), near.len(), "near-coincident edges must merge");
        assert_eq!(exact.len(), 2, "one rising corner + one ramp end");

        let cfg = TranConfig::new(8e-9, 0.5e-9).adaptive();
        let r_exact = run(&build(0.0), &cfg).unwrap();
        let r_near = run(&build(1e-19), &cfg).unwrap();
        assert_eq!(
            r_exact.len(),
            r_near.len(),
            "duplicate breakpoints must not multiply restarts"
        );
        // Distinct edges (outside epsilon) still produce extra corners.
        let distinct = merged_breakpoints(&build(0.2e-9), 8e-9);
        assert_eq!(distinct.len(), 4);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use crate::prelude::*;

    /// RC step response with a deliberately coarse nominal dt: adaptive
    /// LTE control must refine the edge and beat the fixed-step error.
    #[test]
    fn adaptive_refines_sharp_edges() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.add(Vsource::new(
                "V1",
                vin,
                Circuit::GROUND,
                Waveform::step(0.0, 1.0, 2e-9, 1e-11),
            ));
            ckt.add(Resistor::new("R1", vin, out, 1e3));
            ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12)); // τ = 1 ns
            ckt
        };
        // Coarse step: dt = τ/2.
        let coarse = TranConfig::new(8e-9, 0.5e-9);
        let adaptive = TranConfig::new(8e-9, 0.5e-9).adaptive();
        let run_err = |cfg: &TranConfig| {
            let ckt = build();
            let res = run(&ckt, cfg).unwrap();
            let out = ckt.find_node("out").unwrap();
            let v = res.voltage(out);
            let mut worst = 0.0f64;
            for (i, &t) in res.times().iter().enumerate() {
                if t > 2.1e-9 {
                    let want = 1.0 - (-(t - 2.01e-9) / 1e-9).exp();
                    worst = worst.max((v[i] - want).abs());
                }
            }
            (worst, res.len())
        };
        let (err_fixed, n_fixed) = run_err(&coarse);
        let (err_adaptive, n_adaptive) = run_err(&adaptive);
        assert!(
            n_adaptive > n_fixed,
            "adaptive must refine: {n_adaptive} vs {n_fixed} points"
        );
        assert!(
            err_adaptive < err_fixed,
            "adaptive error {err_adaptive:.4} vs fixed {err_fixed:.4}"
        );
    }

    /// On a smooth circuit the adaptive run matches the fixed run
    /// (no spurious rejections).
    #[test]
    fn adaptive_is_benign_on_smooth_signals() {
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add(Vsource::new(
                "V1",
                a,
                Circuit::GROUND,
                Waveform::Sine {
                    offset: 0.0,
                    ampl: 1.0,
                    freq: 1e8,
                    delay: 0.0,
                },
            ));
            ckt.add(Resistor::new("R1", a, Circuit::GROUND, 50.0));
            ckt
        };
        let fixed = run(&build(), &TranConfig::new(20e-9, 0.1e-9)).unwrap();
        let adapt = run(&build(), &TranConfig::new(20e-9, 0.1e-9).adaptive()).unwrap();
        // Smooth waveform: at most a handful of extra refinement points
        // (a few percent), not wholesale rejection.
        assert!(
            adapt.len() < fixed.len() + fixed.len() / 10,
            "adaptive {0} vs fixed {1}",
            adapt.len(),
            fixed.len()
        );
    }

    /// The controller lands a step exactly on every source corner.
    #[test]
    fn adaptive_lands_on_source_breakpoints() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 2e-9, 1e-11),
        ));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
        let res = run(&ckt, &TranConfig::new(8e-9, 0.5e-9).adaptive()).unwrap();
        for corner in [2e-9, 2e-9 + 1e-11] {
            assert!(
                res.times().iter().any(|&t| (t - corner).abs() < 1e-15),
                "no accepted point at corner {corner:.3e}"
            );
        }
    }

    /// After each source corner the controller restarts at
    /// `0.1 · min(working step, gap to the next corner)`, floored at
    /// `dt / MAX_SHRINK`. The drive is slow against the RC's 1 µs time
    /// constant, so no step is rejected and the working step doubles
    /// after every accepted step up to `dt_max = dt = 10 ps`.
    #[test]
    fn breakpoint_restart_scales_with_step_and_gap() {
        let ps = 1e-12;
        let dt_min = 10.0 * ps / MAX_SHRINK;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let pwl = vec![
            (0.0, 0.0),
            (95.0 * ps, 0.1),
            (98.0 * ps, 0.0),
            (245.0 * ps, 0.05),
            (245.01 * ps, 0.05),
        ];
        ckt.add(Vsource::new("V1", vin, Circuit::GROUND, Waveform::Pwl(pwl)));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        let res = run(&ckt, &TranConfig::new(400.0 * ps, 10.0 * ps).adaptive()).unwrap();
        let times = res.times();
        let first_step_after = |corner: f64| {
            let k = times
                .iter()
                .position(|&t| (t - corner).abs() < 1e-18)
                .unwrap_or_else(|| panic!("no accepted point at {corner:e}"));
            times[k + 1] - times[k]
        };
        // (corner, working step when it was reached, gap to the next
        // corner or t_stop).
        let cases = [
            // Gap below the step: 0.3 ps.
            (95.0 * ps, 10.0 * ps, 3.0 * ps),
            // Steps 0.3, 0.6 and 1.2 ps reach 97.1 ps; the working step
            // 2.4 ps is truncated to land. Gap above it: 0.24 ps.
            (98.0 * ps, 2.4 * ps, 147.0 * ps),
            // 0.1 · 10 fs is below the floor.
            (245.0 * ps, 10.0 * ps, 0.01 * ps),
            // dt_min and 2·dt_min reach 7.3 fs; 4·dt_min is truncated
            // to land, and 0.1 · 4·dt_min is below the floor again.
            (245.01 * ps, 4.0 * dt_min, 154.99 * ps),
        ];
        for (corner, step, gap) in cases {
            let want = (0.1 * step.min(gap)).max(dt_min);
            let got = first_step_after(corner);
            assert!(
                (got - want).abs() < 1e-6 * want,
                "first step after {corner:e}: {got:e}, want {want:e}"
            );
        }
    }

    /// On a quiet circuit the step grows past the nominal dt, so the
    /// adaptive run takes far fewer points than the fixed grid.
    #[test]
    fn adaptive_grows_steps_when_quiet() {
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
            ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
            ckt.add(Capacitor::new("C1", a, Circuit::GROUND, 1e-12));
            ckt
        };
        let fixed = run(&build(), &TranConfig::new(100e-9, 0.1e-9)).unwrap();
        let adapt = run(&build(), &TranConfig::new(100e-9, 0.1e-9).adaptive()).unwrap();
        assert!(
            adapt.len() * 5 < fixed.len(),
            "adaptive {} should be far below fixed {}",
            adapt.len(),
            fixed.len()
        );
        // Same endpoint either way.
        assert!((adapt.times().last().unwrap() - 100e-9).abs() < 1e-15);
    }
}
