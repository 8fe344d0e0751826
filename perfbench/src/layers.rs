//! Hooks the workloads call around each layer of a job.
//!
//! One job implementation serves all three kinds of run. In the timed
//! run every hook is off: telemetry handles are disabled and no clock
//! is read. The digest pass turns on coarse telemetry for its counters.
//! The traced run turns on fine telemetry plus the benchmark's own
//! spans around each call into a layer and around every sink chunk.

use cml_spice::prelude::{TranMeta, WaveChunk, WaveSink};
use cml_spice::telemetry::{SolverReport, Telemetry};
use cml_spice::SpiceError;
use std::time::Instant;

/// How much a job records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the timed run.
    Off,
    /// Coarse telemetry counters only: the digest pass.
    Counters,
    /// Fine telemetry plus benchmark spans: the traced run.
    Fine,
}

/// Benchmark spans, one per call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `cml-core::cells` circuit construction (and input rendering).
    Build,
    /// `analysis::op`.
    Op,
    /// `analysis::tran`, sinks included.
    Tran,
    /// `analysis::ac`.
    Ac,
    /// `yield_est` over the batched engine.
    Yield,
    /// Output checks and eye/Bode extraction.
    Check,
}

/// Number of [`Span`] variants.
pub const N_SPANS: usize = 6;

/// What one job recorded.
#[derive(Debug)]
pub struct JobTrace {
    mode: Mode,
    /// Nanoseconds per [`Span`], indexed by `Span as usize`.
    pub span_ns: [u64; N_SPANS],
    /// The telemetry report of every traced call, tagged by its span.
    pub reports: Vec<(Span, SolverReport)>,
    /// Time inside `WaveSink::chunk` calls, nanoseconds.
    pub sink_ns: u64,
    /// Sink chunk calls.
    pub sink_chunks: u64,
    /// Samples passed to sinks.
    pub sink_samples: u64,
    /// Time spent copying telemetry reports out: trace overhead that
    /// belongs to no layer.
    pub bookkeeping_ns: u64,
}

impl JobTrace {
    pub fn new(mode: Mode) -> Self {
        JobTrace {
            mode,
            span_ns: [0; N_SPANS],
            reports: Vec::new(),
            sink_ns: 0,
            sink_chunks: 0,
            sink_samples: 0,
            bookkeeping_ns: 0,
        }
    }

    /// A telemetry handle for one call into the simulator.
    pub fn handle(&self) -> Telemetry {
        match self.mode {
            Mode::Off => Telemetry::disabled(),
            Mode::Counters => Telemetry::enabled(),
            Mode::Fine => Telemetry::enabled_fine(),
        }
    }

    /// Opens a span; pair with [`JobTrace::stop`].
    pub fn start(&self) -> Option<Instant> {
        (self.mode == Mode::Fine).then(Instant::now)
    }

    /// Closes a span opened by [`JobTrace::start`].
    pub fn stop(&mut self, span: Span, started: Option<Instant>) {
        if let Some(t) = started {
            self.span_ns[span as usize] += elapsed_ns(t);
        }
    }

    /// Keeps the report of a call made with a handle from
    /// [`JobTrace::handle`].
    pub fn record(&mut self, span: Span, tel: &Telemetry) {
        if tel.is_enabled() {
            let t = Instant::now();
            self.reports.push((span, tel.report()));
            self.bookkeeping_ns += elapsed_ns(t);
        }
    }

    /// Wraps a sink so its chunk calls are timed in the traced run.
    pub fn timed_sink<'a>(&self, inner: &'a mut dyn WaveSink) -> TimedSink<'a> {
        TimedSink {
            inner,
            on: self.mode == Mode::Fine,
            ns: 0,
            chunks: 0,
            samples: 0,
        }
    }

    /// Adds what a [`TimedSink`] measured.
    pub fn add_sink(&mut self, sink: &TimedSink<'_>) {
        self.sink_ns += sink.ns;
        self.sink_chunks += sink.chunks;
        self.sink_samples += sink.samples;
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`WaveSink`] that times every `chunk()` call into the sink it
/// wraps (`EyeSink`, `MetricsSink` or a `Tee` of them).
pub struct TimedSink<'a> {
    inner: &'a mut dyn WaveSink,
    on: bool,
    ns: u64,
    chunks: u64,
    samples: u64,
}

impl WaveSink for TimedSink<'_> {
    fn begin(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.inner.begin(meta)
    }

    fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
        if !self.on {
            return self.inner.chunk(chunk);
        }
        let t = Instant::now();
        let res = self.inner.chunk(chunk);
        self.ns += elapsed_ns(t);
        self.chunks += 1;
        self.samples += chunk.len() as u64;
        res
    }

    fn finish(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.inner.finish(meta)
    }
}
