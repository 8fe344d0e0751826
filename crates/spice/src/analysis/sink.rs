//! Streaming waveform sinks for transient analysis.
//!
//! The historical transient API buffered every solution vector densely
//! (`sols.push(x.clone())`), which caps run length at a few thousand
//! bits of pattern before memory blows up. The streaming architecture
//! inverts the flow: [`super::tran::run_streaming`] pushes fixed-size
//! **columnar chunks** — a times slice plus one column per selected
//! probe — into a caller-supplied [`WaveSink`], so a million-bit PRBS
//! run holds only O(chunk) waveform data regardless of duration.
//!
//! * [`TranProbes`] selects which waveforms materialize (node voltages,
//!   differential pairs, branch currents) — unselected state is solved
//!   but never copied out of the Newton loop;
//! * [`WaveSink`] is the consumer trait ([`begin`](WaveSink::begin) /
//!   [`chunk`](WaveSink::chunk) / [`finish`](WaveSink::finish));
//! * [`DenseSink`] reimplements the classic accumulate-everything
//!   behaviour as just another sink — the dense
//!   [`super::tran::run`] entry point is a thin wrapper over it, so
//!   every existing caller is source-compatible;
//! * [`Tee`] fans one stream out to two sinks (e.g. eye fold + signal
//!   metrics in a single pass).
//!
//! Chunk size comes from [`super::tran::TranConfig::chunk_size`]
//! (default 1024 samples). See DESIGN.md §12 for the memory model.

use super::System;
use crate::circuit::NodeId;
use crate::SpiceError;
use cml_telemetry::Telemetry;

/// One probed waveform: what a column of the streamed chunks contains.
#[derive(Debug, Clone, PartialEq)]
pub enum TranProbe {
    /// Voltage of a node (ground probes stream constant 0).
    Voltage(NodeId),
    /// Differential voltage `v(p) − v(n)`.
    Differential(NodeId, NodeId),
    /// Branch current of a named voltage-defined element.
    Current(String),
}

/// Probe selection for a streaming transient run.
///
/// Built with the fluent helpers; each probe contributes one named
/// column, in insertion order:
///
/// ```ignore
/// let probes = TranProbes::new()
///     .differential("vout", out_p, out_n)
///     .current("i(V1)", "V1");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TranProbes {
    cols: Vec<(String, TranProbe)>,
    full_state: bool,
}

impl TranProbes {
    /// No probes yet; chain the helpers below.
    #[must_use]
    pub fn new() -> Self {
        TranProbes::default()
    }

    /// Every MNA unknown (all node voltages, then all branch currents)
    /// becomes a column. This is what the dense compatibility path uses;
    /// streaming million-point runs should select probes instead.
    #[must_use]
    pub fn full_state() -> Self {
        TranProbes {
            cols: Vec::new(),
            full_state: true,
        }
    }

    /// Adds a node-voltage probe.
    #[must_use]
    pub fn voltage(mut self, name: impl Into<String>, node: NodeId) -> Self {
        self.cols.push((name.into(), TranProbe::Voltage(node)));
        self
    }

    /// Adds a differential probe `v(p) − v(n)`.
    #[must_use]
    pub fn differential(mut self, name: impl Into<String>, p: NodeId, n: NodeId) -> Self {
        self.cols.push((name.into(), TranProbe::Differential(p, n)));
        self
    }

    /// Adds a branch-current probe for a named voltage-defined element.
    #[must_use]
    pub fn current(mut self, name: impl Into<String>, element: impl Into<String>) -> Self {
        self.cols
            .push((name.into(), TranProbe::Current(element.into())));
        self
    }

    /// Number of probes (0 for [`full_state`](TranProbes::full_state),
    /// whose width depends on the circuit).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when no explicit probes were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// True for the full-state selection.
    #[must_use]
    pub fn is_full_state(&self) -> bool {
        self.full_state
    }
}

/// Summary of a streaming transient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranStats {
    /// Accepted samples streamed (including the `t = 0` point).
    pub samples: u64,
    /// Chunks emitted.
    pub chunks: u64,
}

/// Run-level metadata handed to [`WaveSink::begin`] and
/// [`WaveSink::finish`].
#[derive(Debug, Clone)]
pub struct TranMeta {
    /// Column names, one per chunk column, in chunk order.
    pub col_names: Vec<String>,
    /// Stop time of the run, seconds.
    pub t_stop: f64,
    /// Nominal timestep, seconds (adaptive runs may accept larger or
    /// smaller steps).
    pub dt: f64,
    /// Maximum samples per chunk; every chunk except the last is exactly
    /// this long.
    pub chunk_size: usize,
}

impl TranMeta {
    /// Number of columns per chunk.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.col_names.len()
    }
}

/// One columnar slab of accepted transient samples.
///
/// `times` and every column in `cols` have identical length;
/// `first_index` is the absolute sample index of `times[0]` across the
/// whole run (chunk boundaries carry no other meaning — accumulators
/// must be chunk-invariant).
#[derive(Debug)]
pub struct WaveChunk<'a> {
    /// Absolute index of the first sample in this chunk.
    pub first_index: u64,
    /// Accepted time points, seconds.
    pub times: &'a [f64],
    /// One waveform column per probe, each `times.len()` long.
    pub cols: &'a [Vec<f64>],
}

impl WaveChunk<'_> {
    /// Samples in this chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the chunk carries no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Consumer of streamed transient waveforms.
///
/// The engine calls [`begin`](WaveSink::begin) once, then
/// [`chunk`](WaveSink::chunk) for each slab of accepted samples (every
/// chunk full-size except possibly the last), then
/// [`finish`](WaveSink::finish) exactly once on success. An `Err` from
/// any method aborts the run and propagates to the caller.
pub trait WaveSink {
    /// Called once before the first chunk.
    ///
    /// # Errors
    ///
    /// Aborts the run.
    fn begin(&mut self, _meta: &TranMeta) -> Result<(), SpiceError> {
        Ok(())
    }

    /// Called for every chunk of accepted samples, in time order.
    ///
    /// # Errors
    ///
    /// Aborts the run.
    fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError>;

    /// Called once after the final chunk of a successful run.
    ///
    /// # Errors
    ///
    /// Propagates to the caller as the run's result.
    fn finish(&mut self, _meta: &TranMeta) -> Result<(), SpiceError> {
        Ok(())
    }
}

/// Fans a stream out to two sinks, driving both in lockstep (chain
/// `Tee`s for wider fan-out). The first error from either sink aborts.
pub struct Tee<'a> {
    a: &'a mut dyn WaveSink,
    b: &'a mut dyn WaveSink,
}

impl<'a> Tee<'a> {
    /// Tees the stream into `a` and `b` (called in that order).
    pub fn new(a: &'a mut dyn WaveSink, b: &'a mut dyn WaveSink) -> Self {
        Tee { a, b }
    }
}

impl WaveSink for Tee<'_> {
    fn begin(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.a.begin(meta)?;
        self.b.begin(meta)
    }

    fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
        self.a.chunk(chunk)?;
        self.b.chunk(chunk)
    }

    fn finish(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.a.finish(meta)?;
        self.b.finish(meta)
    }
}

/// The classic accumulate-everything behaviour as a sink: buffers every
/// chunk densely in memory (columnar). [`super::tran::run`] drives one
/// of these over a full-state probe set and wraps the result in
/// [`super::tran::TranResult`], so dense callers see no change.
#[derive(Debug, Default)]
pub struct DenseSink {
    times: Vec<f64>,
    cols: Vec<Vec<f64>>,
    col_names: Vec<String>,
}

impl DenseSink {
    /// An empty dense buffer.
    #[must_use]
    pub fn new() -> Self {
        DenseSink::default()
    }

    /// Accepted time points so far.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Buffered columns (probe order).
    #[must_use]
    pub fn cols(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Column names from the run metadata.
    #[must_use]
    pub fn col_names(&self) -> &[String] {
        &self.col_names
    }

    /// Consumes the sink into `(times, cols)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<f64>, Vec<Vec<f64>>) {
        (self.times, self.cols)
    }
}

impl WaveSink for DenseSink {
    fn begin(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        let cap = super::tran::clamped_step_estimate(meta.t_stop, meta.dt);
        self.times = Vec::with_capacity(cap);
        self.col_names = meta.col_names.clone();
        self.cols = (0..meta.n_cols())
            .map(|_| Vec::with_capacity(cap))
            .collect();
        Ok(())
    }

    fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
        self.times.extend_from_slice(chunk.times);
        for (dst, src) in self.cols.iter_mut().zip(chunk.cols) {
            dst.extend_from_slice(src);
        }
        Ok(())
    }
}

/// A probe resolved against a concrete MNA system.
enum ResolvedCol {
    /// Copy of one state-vector entry.
    State(usize),
    /// Constant zero (a ground-node probe).
    Ground,
    /// Difference of two optional state entries (`None` = ground).
    Diff(Option<usize>, Option<usize>),
}

impl ResolvedCol {
    #[inline]
    fn extract(&self, x: &[f64]) -> f64 {
        let get = |i: &Option<usize>| i.map_or(0.0, |i| x[i]);
        match self {
            ResolvedCol::State(i) => x[*i],
            ResolvedCol::Ground => 0.0,
            ResolvedCol::Diff(p, n) => get(p) - get(n),
        }
    }
}

/// Column extractor + fixed-size staging buffer between the stepping
/// loops and a sink. The loops push `(t, x)` pairs; the emitter extracts
/// the selected columns and flushes a [`WaveChunk`] whenever
/// `chunk_size` samples have accumulated (and once more at the end).
pub(crate) struct ChunkEmitter<'s> {
    sink: &'s mut dyn WaveSink,
    meta: TranMeta,
    resolved: Vec<ResolvedCol>,
    times: Vec<f64>,
    cols: Vec<Vec<f64>>,
    emitted: u64,
    chunks: u64,
}

impl<'s> ChunkEmitter<'s> {
    /// Resolves `probes` against `sys` and announces the run to `sink`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NotFound`] for a current probe naming no branch;
    /// any error from [`WaveSink::begin`].
    pub(crate) fn new(
        sys: &System<'_>,
        probes: &TranProbes,
        chunk_size: usize,
        t_stop: f64,
        dt: f64,
        sink: &'s mut dyn WaveSink,
    ) -> Result<Self, SpiceError> {
        let chunk_size = chunk_size.max(1);
        let (col_names, resolved) = if probes.is_full_state() {
            let names = (0..sys.dim()).map(|i| format!("x{i}")).collect();
            let cols = (0..sys.dim()).map(ResolvedCol::State).collect();
            (names, cols)
        } else {
            let mut names = Vec::with_capacity(probes.cols.len());
            let mut cols = Vec::with_capacity(probes.cols.len());
            for (name, probe) in &probes.cols {
                let rc = match probe {
                    TranProbe::Voltage(node) => match node.index() {
                        Some(i) => ResolvedCol::State(i),
                        None => ResolvedCol::Ground,
                    },
                    TranProbe::Differential(p, n) => ResolvedCol::Diff(p.index(), n.index()),
                    TranProbe::Current(element) => {
                        let idx = *sys.branch_names().get(element).ok_or_else(|| {
                            SpiceError::NotFound {
                                what: "branch element",
                                name: element.clone(),
                            }
                        })?;
                        ResolvedCol::State(idx)
                    }
                };
                names.push(name.clone());
                cols.push(rc);
            }
            (names, cols)
        };
        let meta = TranMeta {
            col_names,
            t_stop,
            dt,
            chunk_size,
        };
        sink.begin(&meta)?;
        let n_cols = resolved.len();
        Ok(ChunkEmitter {
            sink,
            meta,
            resolved,
            times: Vec::with_capacity(chunk_size),
            cols: (0..n_cols)
                .map(|_| Vec::with_capacity(chunk_size))
                .collect(),
            emitted: 0,
            chunks: 0,
        })
    }

    /// Stages one accepted sample; flushes a chunk when full.
    ///
    /// # Errors
    ///
    /// Any error from [`WaveSink::chunk`].
    pub(crate) fn push(&mut self, t: f64, x: &[f64], tel: &Telemetry) -> Result<(), SpiceError> {
        self.times.push(t);
        for (col, rc) in self.cols.iter_mut().zip(&self.resolved) {
            col.push(rc.extract(x));
        }
        if self.times.len() >= self.meta.chunk_size {
            self.flush(tel)?;
        }
        Ok(())
    }

    /// Flushes any staged samples as one chunk.
    fn flush(&mut self, tel: &Telemetry) -> Result<(), SpiceError> {
        if self.times.is_empty() {
            return Ok(());
        }
        let n = self.times.len() as u64;
        let chunk = WaveChunk {
            first_index: self.emitted,
            times: &self.times,
            cols: &self.cols,
        };
        self.sink.chunk(&chunk)?;
        self.emitted += n;
        self.chunks += 1;
        tel.count(|c| {
            c.wave_chunks += 1;
            c.wave_samples += n;
        });
        self.times.clear();
        for col in &mut self.cols {
            col.clear();
        }
        Ok(())
    }

    /// Flushes the tail chunk and calls [`WaveSink::finish`].
    ///
    /// # Errors
    ///
    /// Any error from the final [`WaveSink::chunk`] or
    /// [`WaveSink::finish`].
    pub(crate) fn finish(&mut self, tel: &Telemetry) -> Result<TranStats, SpiceError> {
        self.flush(tel)?;
        self.sink.finish(&self.meta)?;
        Ok(TranStats {
            samples: self.emitted,
            chunks: self.chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink that records the chunk structure it sees.
    #[derive(Default)]
    struct Recorder {
        begun: usize,
        finished: usize,
        chunk_lens: Vec<usize>,
        first_indices: Vec<u64>,
        samples: Vec<(f64, Vec<f64>)>,
    }

    impl WaveSink for Recorder {
        fn begin(&mut self, _meta: &TranMeta) -> Result<(), SpiceError> {
            self.begun += 1;
            Ok(())
        }

        fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
            self.chunk_lens.push(chunk.len());
            self.first_indices.push(chunk.first_index);
            for (i, &t) in chunk.times.iter().enumerate() {
                self.samples
                    .push((t, chunk.cols.iter().map(|c| c[i]).collect()));
            }
            Ok(())
        }

        fn finish(&mut self, _meta: &TranMeta) -> Result<(), SpiceError> {
            self.finished += 1;
            Ok(())
        }
    }

    #[test]
    fn dense_sink_concatenates_chunks() {
        let meta = TranMeta {
            col_names: vec!["a".into(), "b".into()],
            t_stop: 1.0,
            dt: 0.25,
            chunk_size: 2,
        };
        let mut sink = DenseSink::new();
        sink.begin(&meta).unwrap();
        sink.chunk(&WaveChunk {
            first_index: 0,
            times: &[0.0, 0.25],
            cols: &[vec![1.0, 2.0], vec![10.0, 20.0]],
        })
        .unwrap();
        sink.chunk(&WaveChunk {
            first_index: 2,
            times: &[0.5],
            cols: &[vec![3.0], vec![30.0]],
        })
        .unwrap();
        sink.finish(&meta).unwrap();
        assert_eq!(sink.times(), &[0.0, 0.25, 0.5]);
        assert_eq!(sink.cols()[0], vec![1.0, 2.0, 3.0]);
        assert_eq!(sink.cols()[1], vec![10.0, 20.0, 30.0]);
        assert_eq!(sink.col_names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn tee_drives_both_sinks() {
        let meta = TranMeta {
            col_names: vec!["a".into()],
            t_stop: 1.0,
            dt: 0.5,
            chunk_size: 4,
        };
        let mut r1 = Recorder::default();
        let mut r2 = Recorder::default();
        {
            let mut tee = Tee::new(&mut r1, &mut r2);
            tee.begin(&meta).unwrap();
            tee.chunk(&WaveChunk {
                first_index: 0,
                times: &[0.0, 0.5],
                cols: &[vec![1.0, -1.0]],
            })
            .unwrap();
            tee.finish(&meta).unwrap();
        }
        for r in [&r1, &r2] {
            assert_eq!(r.begun, 1);
            assert_eq!(r.finished, 1);
            assert_eq!(r.chunk_lens, vec![2]);
            assert_eq!(r.samples[1].1, vec![-1.0]);
        }
    }
}
