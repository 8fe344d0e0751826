//! The three workloads.
//!
//! Every job of a workload has the same topology; only its content
//! (drive amplitude, stream position, design point) changes, and that
//! content is drawn from the workload seed. Job 0 is the nominal,
//! seed-independent job: set-up runs it cold, and its checks pin the
//! paper numbers.

use crate::layers::{JobTrace, Span};
use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_core::stream::{EyeSink, MetricsSink};
use cml_core::yield_est::{self, PairYieldSpec, YieldConfig};
use cml_pdk::Pdk018;
use cml_sig::eye::EyeMetrics;
use cml_sig::nrz::NrzConfig;
use cml_sig::streaming::{EyeAccumulator, EyeAccumulatorConfig};
use cml_sig::{Bode, Prbs};
use cml_spice::analysis::NewtonOptions;
use cml_spice::element::{Integration, StampMode};
use cml_spice::prelude::*;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// Offset thresholds of the yield table, volts (ascending).
pub const YIELD_THRESHOLDS: [f64; 5] = [0.005, 0.02, 0.05, 0.1, 0.5];

/// EXPERIMENTS.md's transistor-level limiting-amplifier bandwidth, and
/// the relative tolerance the nominal design point must land within.
const LA_BANDWIDTH_HZ: f64 = 8.5e9;
const LA_BANDWIDTH_TOL: f64 = 0.05;

/// The workload names, as `--workload` takes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RxEye,
    BufferStream,
    DesignSignoff,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::RxEye, Kind::BufferStream, Kind::DesignSignoff];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RxEye => "rx_eye_prbs7",
            Kind::BufferStream => "buffer_stream_prbs15",
            Kind::DesignSignoff => "design_signoff",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Problem sizes per job.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// PRBS-7 bits per receive-chain eye.
    pub rx_bits: usize,
    /// PRBS-15 bits per streamed buffer segment.
    pub stream_bits: usize,
    /// Frequency points per AC sweep.
    pub ac_points: usize,
    /// Monte-Carlo trials per yield table.
    pub yield_trials: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        rx_bits: 127,
        stream_bits: 1024,
        ac_points: 400,
        yield_trials: 1024,
    };

    /// The smoke sizes used by the benchmark's own test.
    pub const SMOKE: Size = Size {
        rx_bits: 16,
        stream_bits: 64,
        ac_points: 40,
        yield_trials: 64,
    };
}

/// SplitMix64 of `(seed, index, lane)`: the per-job input stream.
fn mix(seed: u64, index: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` for job `index`.
fn draw(seed: u64, index: u64, lane: u64, lo: f64, hi: f64) -> f64 {
    let u = (mix(seed, index, lane) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// The simulated values of one job: what the checks looked at and
/// what enters the digest.
pub type JobOut = Vec<(&'static str, f64)>;

/// A workload: its inputs, fixed per-run state and job runner.
pub struct Workload {
    kind: Kind,
    size: Size,
    seed: u64,
    pdk: Pdk018,
    freqs: Vec<f64>,
    /// The eye of the whole PRBS-15 stream, merged job by job.
    stream_eye: Option<EyeAccumulator>,
}

impl Workload {
    /// Generates the run's inputs from the seed.
    pub fn new(kind: Kind, size: Size, seed: u64) -> Self {
        Workload {
            kind,
            size,
            seed,
            pdk: Pdk018::typical(),
            freqs: cml_numeric::logspace(1e2, 60e9, size.ac_points),
            stream_eye: None,
        }
    }

    /// Simulated work per job: the count and its name.
    pub fn units_per_job(&self) -> (f64, &'static str) {
        match self.kind {
            Kind::RxEye => (self.size.rx_bits as f64, "sim_bits"),
            Kind::BufferStream => (self.size.stream_bits as f64, "sim_bits"),
            Kind::DesignSignoff => (1.0, "designs"),
        }
    }

    /// The merged eye of every streamed segment so far.
    pub fn stream_eye(&self) -> Option<&EyeAccumulator> {
        self.stream_eye.as_ref()
    }

    /// Runs and checks job `index`. An `Err` is a failed operation: a
    /// solve error, a NaN or a failed output check.
    pub fn run_job(&mut self, index: u64, tr: &mut JobTrace) -> Result<JobOut, String> {
        match self.kind {
            Kind::RxEye => self.rx_job(index, tr),
            Kind::BufferStream => self.stream_job(index, tr),
            Kind::DesignSignoff => self.design_job(index, tr),
        }
    }

    /// Job 0's circuit and the stamp mode its Newton solves run in, for
    /// the unit-cost probes of the traced run.
    pub fn probe_circuit(&self) -> (Circuit, StampMode) {
        match self.kind {
            Kind::RxEye => (self.rx_circuit(0.2).0, tran_mode(1e-12)),
            Kind::BufferStream => (self.stream_circuit(0).0, tran_mode(STREAM_DT)),
            Kind::DesignSignoff => (
                la_circuit(&self.pdk, &la_config(0, self.seed)).0,
                StampMode::dc(),
            ),
        }
    }

    // -----------------------------------------------------------------
    // rx_eye_prbs7
    // -----------------------------------------------------------------

    /// The paper-default input interface driven by PRBS-7.
    fn rx_circuit(&self, amplitude: f64) -> (Circuit, DiffPort) {
        let cfg = InputInterfaceConfig::paper_default();
        let mut ckt = Circuit::new();
        let vdd = add_supply(&mut ckt, cml_pdk::VDD);
        let input = DiffPort::named(&mut ckt, "in");
        let out = DiffPort::named(&mut ckt, "out");
        let vcm = cfg.equalizer.input_common_mode();
        let bits: Vec<bool> = Prbs::prbs7().take(self.size.rx_bits).collect();
        let pwl = NrzConfig::new(UI, amplitude)
            .with_offset(vcm)
            .render_pwl(&bits);
        add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
        input_interface::build(&mut ckt, &self.pdk, &cfg, "rx", input, out, vdd);
        ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
        ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
        (ckt, out)
    }

    fn rx_job(&mut self, index: u64, tr: &mut JobTrace) -> Result<JobOut, String> {
        let amplitude = if index == 0 {
            0.2
        } else {
            draw(self.seed, index, 0, 0.16, 0.24)
        };
        let t = tr.start();
        let (ckt, out) = self.rx_circuit(amplitude);
        tr.stop(Span::Build, t);

        let cfg = TranConfig::new(self.size.rx_bits as f64 * UI, 1e-12).adaptive();
        let probes = TranProbes::new().differential("vout", out.p, out.n);
        let mut eye = EyeSink::new(
            "vout",
            EyeAccumulatorConfig::new(UI, 1e-12, -1.0, 1.0).with_skip(4.0 * UI),
        );
        let tel = tr.handle();
        let t = tr.start();
        let mut sink = tr.timed_sink(&mut eye);
        let res = tran::run_streaming_traced(&ckt, &cfg, &probes, &mut sink, &tel);
        tr.stop(Span::Tran, t);
        tr.add_sink(&sink);
        tr.record(Span::Tran, &tel);
        let stats = res.map_err(|e| format!("transient: {e}"))?;

        let t = tr.start();
        let m = eye.accumulator().metrics();
        tr.stop(Span::Check, t);
        check_eye(&m)?;
        Ok(vec![
            ("amplitude_v", amplitude),
            ("samples", stats.samples as f64),
            ("eye_height_v", m.height),
            ("eye_width_s", m.width),
            ("rms_jitter_s", m.rms_jitter),
        ])
    }

    // -----------------------------------------------------------------
    // buffer_stream_prbs15
    // -----------------------------------------------------------------

    /// First stream bit of job `index`: job 0 starts the stream, later
    /// jobs continue it from a seed-drawn position.
    fn stream_start(&self, index: u64) -> u64 {
        if index == 0 {
            return 0;
        }
        let origin = mix(self.seed, 0, 1) % PRBS15_PERIOD;
        origin + index * self.size.stream_bits as u64
    }

    /// A paper-default CML buffer driven by one segment of PRBS-15.
    fn stream_circuit(&self, index: u64) -> (Circuit, DiffPort, f64) {
        let skip = usize::try_from(self.stream_start(index) % PRBS15_PERIOD).unwrap_or(0);
        let bits: Vec<bool> = Prbs::prbs15()
            .skip(skip)
            .take(self.size.stream_bits)
            .collect();
        let cfg = CmlBufferConfig::paper_default();
        let mut ckt = Circuit::new();
        let vdd = add_supply(&mut ckt, cml_pdk::VDD);
        let input = DiffPort::named(&mut ckt, "in");
        let out = DiffPort::named(&mut ckt, "out");
        let vcm = cml_buffer::output_common_mode(&cfg);
        let swing = cfg.stage.swing();
        let pwl = NrzConfig::new(UI, swing).with_offset(vcm).render_pwl(&bits);
        add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
        cml_buffer::build(&mut ckt, &self.pdk, &cfg, "buf", input, out, vdd);
        (ckt, out, swing)
    }

    fn stream_job(&mut self, index: u64, tr: &mut JobTrace) -> Result<JobOut, String> {
        let t = tr.start();
        let (ckt, out, swing) = self.stream_circuit(index);
        tr.stop(Span::Build, t);

        let cfg = TranConfig::new(self.size.stream_bits as f64 * UI, STREAM_DT);
        let probes = TranProbes::new().differential("vout", out.p, out.n);
        let eye_cfg =
            EyeAccumulatorConfig::new(UI, STREAM_DT, -1.2 * swing, 1.2 * swing).with_skip(8.0 * UI);
        let mut eye = EyeSink::new("vout", eye_cfg);
        let mut metrics = MetricsSink::new("vout", 0.0);
        let tel = tr.handle();
        let t = tr.start();
        let res = {
            let mut tee = Tee::new(&mut eye, &mut metrics);
            let mut sink = tr.timed_sink(&mut tee);
            let res = tran::run_streaming_traced(&ckt, &cfg, &probes, &mut sink, &tel);
            tr.add_sink(&sink);
            res
        };
        tr.stop(Span::Tran, t);
        tr.record(Span::Tran, &tel);
        let stats = res.map_err(|e| format!("transient: {e}"))?;

        let t = tr.start();
        let m = eye.accumulator().metrics();
        match &mut self.stream_eye {
            Some(acc) => acc.merge(eye.accumulator()),
            None => self.stream_eye = Some(eye.into_accumulator()),
        }
        tr.stop(Span::Check, t);
        check_eye(&m)?;
        let sm = metrics.metrics();
        if sm.count() != stats.samples {
            return Err(format!(
                "metrics sink saw {} of {} samples",
                sm.count(),
                stats.samples
            ));
        }
        if !(sm.min().is_finite() && sm.max().is_finite() && sm.crossings() > 0) {
            return Err("streamed output has no finite transitions".to_string());
        }
        Ok(vec![
            ("start_bit", self.stream_start(index) as f64),
            ("samples", stats.samples as f64),
            ("eye_height_v", m.height),
            ("eye_width_s", m.width),
            ("vout_min_v", sm.min()),
            ("vout_max_v", sm.max()),
            ("crossings", sm.crossings() as f64),
        ])
    }

    // -----------------------------------------------------------------
    // design_signoff
    // -----------------------------------------------------------------

    fn design_job(&mut self, index: u64, tr: &mut JobTrace) -> Result<JobOut, String> {
        let cfg = la_config(index, self.seed);
        let t = tr.start();
        let (ckt, out) = la_circuit(&self.pdk, &cfg);
        tr.stop(Span::Build, t);
        let opts = NewtonOptions::default();

        let tel = tr.handle();
        let t = tr.start();
        let op = op::solve_traced(&ckt, &opts, None, &tel);
        tr.stop(Span::Op, t);
        tr.record(Span::Op, &tel);
        let op = op.map_err(|e| format!("operating point: {e}"))?;

        let tel = tr.handle();
        let t = tr.start();
        let ac = ac::sweep_traced(&ckt, op.solution(), &self.freqs, &opts, 1, &tel);
        tr.stop(Span::Ac, t);
        tr.record(Span::Ac, &tel);
        let ac = ac.map_err(|e| format!("ac sweep: {e}"))?;

        let stage = &cfg.stage.stage;
        let spec = PairYieldSpec {
            r_load: stage.r_load,
            i_tail: stage.i_tail,
            ..PairYieldSpec::paper_chain().all_corners()
        };
        let ycfg =
            YieldConfig::new(self.size.yield_trials, mix(self.seed, index, 2)).with_threads(1);
        let tel = tr.handle();
        let t = tr.start();
        let yields =
            yield_est::transistor_offset_yield_traced(&ycfg, &spec, &YIELD_THRESHOLDS, &tel);
        tr.stop(Span::Yield, t);
        tr.record(Span::Yield, &tel);
        let yields = yields.map_err(|e| format!("yield: {e}"))?;

        let t = tr.start();
        let bode = Bode::new(self.freqs.clone(), ac.differential_trace(out.p, out.n));
        let (gain_db, bandwidth) = la_gain_bandwidth(&bode);
        let table: Vec<f64> = (0..YIELD_THRESHOLDS.len())
            .map(|i| yields.estimate.yield_frac(i))
            .collect();
        tr.stop(Span::Check, t);

        if !(gain_db.is_finite() && bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(format!(
                "LA gain {gain_db} dB / bandwidth {bandwidth} Hz not finite"
            ));
        }
        if index == 0 && (bandwidth / LA_BANDWIDTH_HZ - 1.0).abs() > LA_BANDWIDTH_TOL {
            return Err(format!(
                "nominal LA bandwidth {:.2} GHz is outside {:.1} GHz ± {:.0} %",
                bandwidth / 1e9,
                LA_BANDWIDTH_HZ / 1e9,
                LA_BANDWIDTH_TOL * 100.0
            ));
        }
        if !table.iter().all(|y| (0.0..=1.0).contains(y)) {
            return Err(format!("yield table {table:?} leaves [0, 1]"));
        }
        if table.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!(
                "yield table {table:?} is not monotone in the threshold"
            ));
        }
        let mut out = vec![
            ("r_load_ohm", stage.r_load),
            ("i_tail_a", stage.i_tail),
            ("interstage_fb", cfg.interstage_fb),
            ("dc_gain_db", gain_db),
            ("bandwidth_hz", bandwidth),
            ("yield_fallbacks", yields.fallbacks as f64),
        ];
        out.extend(YIELD_NAMES.iter().copied().zip(table));
        Ok(out)
    }
}

/// Digest names of the yield-table entries, one per threshold.
const YIELD_NAMES: [&str; 5] = [
    "yield_5mv",
    "yield_20mv",
    "yield_50mv",
    "yield_100mv",
    "yield_500mv",
];

/// PRBS-15 period, bits.
const PRBS15_PERIOD: u64 = 32_767;

/// Fixed step of the streamed buffer transient: 20 samples per UI.
const STREAM_DT: f64 = 5e-12;

/// The stamp mode of a trapezoidal transient step of size `dt`.
fn tran_mode(dt: f64) -> StampMode {
    StampMode::Tran {
        time: dt,
        dt,
        method: Integration::Trapezoidal,
    }
}

/// The limiting-amplifier design point of job `index`: the paper's for
/// job 0, else gain-stage load, tail and interstage feedback drawn from
/// the seed.
fn la_config(index: u64, seed: u64) -> LimitingAmpConfig {
    let mut cfg = LimitingAmpConfig::paper_default();
    if index > 0 {
        cfg.stage.stage.r_load = draw(seed, index, 3, 300.0, 400.0);
        cfg.stage.stage.i_tail = draw(seed, index, 4, 3.5e-3, 4.5e-3);
        cfg.interstage_fb = draw(seed, index, 5, 0.10, 0.20);
    }
    cfg
}

/// The transistor-level limiting amplifier with its output loads.
fn la_circuit(pdk: &Pdk018, cfg: &LimitingAmpConfig) -> (Circuit, DiffPort) {
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    add_diff_drive(&mut ckt, "VIN", input, limiting_amp::common_mode(cfg), None);
    limiting_amp::build(&mut ckt, pdk, cfg, "la", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    (ckt, out)
}

/// Mid-band gain (dB) and −3 dB bandwidth (Hz) of the LA. The offset
/// cancellation loop is a high-pass far below the data band, so both
/// are taken relative to the gain at 1 MHz, not at the 100 Hz start.
fn la_gain_bandwidth(bode: &Bode) -> (f64, f64) {
    let from = bode.freqs().partition_point(|&f| f < 1e6);
    if bode.freqs().len() - from < 2 {
        return (f64::NAN, f64::NAN);
    }
    let band = Bode::new(bode.freqs()[from..].to_vec(), bode.gains()[from..].to_vec());
    (band.dc_gain_db(), band.bandwidth_3db().unwrap_or(f64::NAN))
}

/// The eye is open and every metric is a number.
fn check_eye(m: &EyeMetrics) -> Result<(), String> {
    let all = [
        m.height,
        m.width,
        m.v_high,
        m.v_low,
        m.rms_jitter,
        m.pp_jitter,
    ];
    if all.iter().any(|v| !v.is_finite()) {
        return Err(format!("eye metric is not finite: {m:?}"));
    }
    if m.height <= 0.0 || m.width <= 0.0 {
        return Err(format!(
            "eye closed: height {:.1} mV, width {:.1} ps",
            m.height * 1e3,
            m.width * 1e12
        ));
    }
    Ok(())
}
