//! Streaming (O(chunk)-memory) signal post-processing.
//!
//! The dense pipeline — collect the whole transient, resample it with
//! [`crate::wave::UniformWave::from_series`], fold with
//! [`crate::eye::EyeDiagram::fold`] — holds every sample in memory and
//! caps PRBS depth at a few thousand bits. The accumulators here consume
//! the same `(time, value)` stream *incrementally*, in arbitrary chunk
//! sizes, and hold only fixed-size state:
//!
//! * [`StreamingResampler`] — non-uniform solver grid → uniform samples,
//!   one knot of look-behind;
//! * [`EyeAccumulator`] — fold-into-eye: density grid, rail histograms
//!   and a crossing-phase histogram, with [`EyeAccumulator::metrics`]
//!   producing the same [`EyeMetrics`] record as the dense fold;
//! * [`StreamMetrics`] — min/max/mean/RMS and threshold-crossing
//!   counters;
//! * [`BerCounter`] — decision sampling at bit centers against an
//!   expected bit iterator (a PRBS generator), counting errors for true
//!   million-bit BER runs.
//!
//! All accumulators are **chunk-invariant**: feeding a stream point by
//! point, in 7-sample chunks, or all at once produces bit-identical
//! state, so streamed results match the dense post-processing exactly
//! (asserted in `tests/streaming_equivalence.rs`). [`EyeAccumulator`]
//! and [`StreamMetrics`] also [`merge`](EyeAccumulator::merge) across
//! independently simulated segments, which is the deterministic fan-in
//! used under parallel sweeps.

use crate::eye::EyeMetrics;

/// Incremental linear resampler from a non-uniform `(t, v)` stream onto
/// the uniform grid `t = k·dt`, `k = 0, 1, 2, …`.
///
/// Feed points in non-decreasing time order; each push emits every grid
/// sample that the new segment covers. Only the previous knot is
/// retained, so memory is O(1) regardless of run length. Grid times are
/// computed as `k as f64 * dt` (never accumulated), so the emitted
/// samples are bit-identical no matter how the input is chunked.
#[derive(Debug, Clone)]
pub struct StreamingResampler {
    dt: f64,
    next_k: u64,
    last: Option<(f64, f64)>,
}

impl StreamingResampler {
    /// Creates a resampler with the given output sample interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    #[must_use]
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        StreamingResampler {
            dt,
            next_k: 0,
            last: None,
        }
    }

    /// Output sample interval, seconds.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of uniform samples emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.next_k
    }

    /// Pushes one input point, calling `emit(k, value)` for every
    /// uniform sample index `k` with `k·dt` in `(t_prev, t]` (and at
    /// `t` itself for the very first point when it lands on the grid).
    /// Out-of-order points (time below the previous knot) are ignored;
    /// a repeated time replaces the held knot.
    pub fn push(&mut self, t: f64, v: f64, mut emit: impl FnMut(u64, f64)) {
        match self.last {
            None => {
                // Emit any grid points at or before the first knot with
                // its value (the transient grid starts exactly at t=0,
                // so in practice this emits sample 0 = x(0)).
                while (self.next_k as f64) * self.dt <= t {
                    emit(self.next_k, v);
                    self.next_k += 1;
                }
                self.last = Some((t, v));
            }
            Some((tp, vp)) => {
                if t < tp {
                    return;
                }
                if t == tp {
                    self.last = Some((t, v));
                    return;
                }
                loop {
                    let tg = (self.next_k as f64) * self.dt;
                    if tg > t {
                        break;
                    }
                    let frac = (tg - tp) / (t - tp);
                    emit(self.next_k, vp + (v - vp) * frac);
                    self.next_k += 1;
                }
                self.last = Some((t, v));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fold-into-eye accumulator
// ---------------------------------------------------------------------

/// Configuration of an [`EyeAccumulator`].
///
/// The voltage window `[v_lo, v_hi]` must be supplied up front (a
/// streaming fold cannot auto-range): use the known signalling swing
/// with some margin. Samples outside the window still contribute to the
/// exact rail means/min/max; only the histogram bins clamp.
#[derive(Debug, Clone, PartialEq)]
pub struct EyeAccumulatorConfig {
    /// Unit interval, seconds.
    pub ui: f64,
    /// Uniform resampling interval, seconds (the fold operates on the
    /// resampled grid, like the dense pipeline).
    pub dt: f64,
    /// Initial settling time to discard, seconds (counterpart of
    /// [`crate::wave::UniformWave::skip_initial`]).
    pub skip: f64,
    /// Lower edge of the voltage window.
    pub v_lo: f64,
    /// Upper edge of the voltage window.
    pub v_hi: f64,
    /// Density-grid rows (voltage bins) for rendering.
    pub rows: usize,
    /// Density-grid columns (phase bins over 2 UI) for rendering.
    pub cols: usize,
    /// Voltage-histogram resolution for the inner-rail percentiles.
    pub v_bins: usize,
    /// Crossing-phase histogram resolution over one UI; sets the jitter
    /// quantization (`ui / phase_bins`, 1.5 fs at 10 Gb/s with the
    /// default 2¹⁶ bins — far below any eye tolerance of interest).
    pub phase_bins: usize,
}

impl EyeAccumulatorConfig {
    /// Config with the default grid/histogram resolutions (24×96
    /// density grid, 4096 voltage bins, 65536 phase bins) and no skip.
    ///
    /// # Panics
    ///
    /// Panics unless `ui >= 2·dt > 0` and `v_hi > v_lo`.
    #[must_use]
    pub fn new(ui: f64, dt: f64, v_lo: f64, v_hi: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        assert!(ui >= 2.0 * dt, "need at least two samples per UI");
        assert!(v_hi > v_lo, "voltage window must be non-empty");
        EyeAccumulatorConfig {
            ui,
            dt,
            skip: 0.0,
            v_lo,
            v_hi,
            rows: 24,
            cols: 96,
            v_bins: 4096,
            phase_bins: 1 << 16,
        }
    }

    /// Sets the initial settling time to discard.
    ///
    /// # Panics
    ///
    /// Panics if `skip` is negative.
    #[must_use]
    pub fn with_skip(mut self, skip: f64) -> Self {
        assert!(skip >= 0.0, "skip must be non-negative");
        self.skip = skip;
        self
    }

    /// Sets the density-grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    #[must_use]
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "grid too small");
        self.rows = rows;
        self.cols = cols;
        self
    }
}

/// Bins per page of [`CrossHist`].
const CROSS_PAGE: usize = 1024;

/// The crossing-phase histogram, allocated a page of [`CROSS_PAGE`] bins
/// at a time when a crossing first lands in it. Crossings cluster
/// around the eye's edge, so a run touches a few pages of the 2¹⁶-bin
/// default instead of clearing 512 KiB per accumulator. Bins past the
/// last page's end stay zero.
#[derive(Debug, Clone)]
struct CrossHist {
    pages: Vec<Vec<u64>>,
}

impl CrossHist {
    fn new(bins: usize) -> Self {
        CrossHist {
            pages: vec![Vec::new(); bins.div_ceil(CROSS_PAGE)],
        }
    }

    /// The page holding bin `p · CROSS_PAGE`, allocated zeroed if absent.
    fn page_mut(&mut self, p: usize) -> &mut [u64] {
        let page = &mut self.pages[p];
        if page.is_empty() {
            page.resize(CROSS_PAGE, 0);
        }
        page
    }

    fn add(&mut self, bin: usize) {
        self.page_mut(bin / CROSS_PAGE)[bin % CROSS_PAGE] += 1;
    }

    fn merge(&mut self, other: &CrossHist) {
        for (p, theirs) in other.pages.iter().enumerate() {
            if !theirs.is_empty() {
                for (a, b) in self.page_mut(p).iter_mut().zip(theirs) {
                    *a += b;
                }
            }
        }
    }

    /// Occupied bins and their counts, in bin order.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter()
                .enumerate()
                .filter(|&(_, &cnt)| cnt != 0)
                .map(move |(j, &cnt)| (p * CROSS_PAGE + j, cnt))
        })
    }
}

/// Streaming eye-diagram fold at fixed memory.
///
/// Feed the raw solver `(t, v)` stream via [`push`](EyeAccumulator::push)
/// (resampling happens inside) and read [`metrics`](EyeAccumulator::metrics)
/// at the end. State is a density grid, two rail histograms, a
/// crossing-phase histogram and a handful of exact scalar accumulators —
/// about [`mem_bytes`](EyeAccumulator::mem_bytes) bytes total, flat in
/// the number of bits folded.
#[derive(Debug, Clone)]
pub struct EyeAccumulator {
    cfg: EyeAccumulatorConfig,
    resampler: StreamingResampler,
    n_skip: u64,
    /// Previous uniform sample `(k, v)` for crossing detection.
    prev: Option<(u64, f64)>,
    /// Scratch buffer recycling resampler output between pushes.
    scratch: Vec<(u64, f64)>,
    grid: Vec<u64>,
    hist_high: Vec<u64>,
    hist_low: Vec<u64>,
    n_high: u64,
    sum_high: f64,
    n_low: u64,
    sum_low: f64,
    cross_hist: CrossHist,
    n_cross: u64,
    samples: u64,
    v_min: f64,
    v_max: f64,
}

impl EyeAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new(cfg: EyeAccumulatorConfig) -> Self {
        let n_skip = (cfg.skip / cfg.dt).ceil() as u64;
        EyeAccumulator {
            resampler: StreamingResampler::new(cfg.dt),
            n_skip,
            prev: None,
            scratch: Vec::new(),
            grid: vec![0; cfg.rows * cfg.cols],
            hist_high: vec![0; cfg.v_bins],
            hist_low: vec![0; cfg.v_bins],
            n_high: 0,
            sum_high: 0.0,
            n_low: 0,
            sum_low: 0.0,
            cross_hist: CrossHist::new(cfg.phase_bins),
            n_cross: 0,
            samples: 0,
            v_min: f64::MAX,
            v_max: f64::MIN,
            cfg,
        }
    }

    /// The configuration this accumulator was built with.
    #[must_use]
    pub fn config(&self) -> &EyeAccumulatorConfig {
        &self.cfg
    }

    /// Uniform samples folded so far (after the skip window).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Midlevel crossings detected so far.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.n_cross
    }

    /// Approximate bytes of retained state — the quantity the
    /// memory-boundedness benchmarks assert is flat in bit count. The
    /// crossing histogram counts at its full size, every page allocated.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        (self.grid.len() + self.hist_high.len() + self.hist_low.len() + self.cfg.phase_bins) * 8
            + self.scratch.capacity() * 16
            + std::mem::size_of::<Self>()
    }

    /// Pushes one raw `(t, v)` stream point (non-decreasing `t`).
    pub fn push(&mut self, t: f64, v: f64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.resampler.push(t, v, |k, val| scratch.push((k, val)));
        for &(k, val) in &scratch {
            self.fold(k, val);
        }
        self.scratch = scratch;
    }

    /// Feeds a whole `(times, values)` series (the dense-path entry:
    /// identical result to any chunked sequence of pushes).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn feed(&mut self, times: &[f64], values: &[f64]) {
        assert_eq!(times.len(), values.len(), "series length mismatch");
        for (&t, &v) in times.iter().zip(values) {
            self.push(t, v);
        }
    }

    /// Folds one uniform sample (index `k` on the `dt` grid).
    fn fold(&mut self, k: u64, v: f64) {
        if k < self.n_skip {
            return;
        }
        let i = k - self.n_skip;
        self.samples += 1;
        self.v_min = self.v_min.min(v);
        self.v_max = self.v_max.max(v);

        let ui = self.cfg.ui;
        let two_ui = 2.0 * ui;
        let phase = (i as f64 * self.cfg.dt).rem_euclid(two_ui);

        // Density grid (same cell mapping as the dense ASCII fold).
        let span = (self.cfg.v_hi - self.cfg.v_lo).max(1e-30);
        let c = ((phase / two_ui) * self.cfg.cols as f64) as usize;
        let r = (((self.cfg.v_hi - v) / span) * (self.cfg.rows - 1) as f64).round() as usize;
        let c = c.min(self.cfg.cols - 1);
        let r = r.min(self.cfg.rows - 1);
        self.grid[r * self.cfg.cols + c] += 1;

        // Sampling-instant population: phases within ±10 % of UI centers.
        let mid = (self.cfg.v_lo + self.cfg.v_hi) / 2.0;
        let p = (phase / ui).rem_euclid(1.0);
        if (p - 0.5).abs() <= 0.1 {
            let bin = self.v_bin(v);
            if v >= mid {
                self.n_high += 1;
                self.sum_high += v;
                self.hist_high[bin] += 1;
            } else {
                self.n_low += 1;
                self.sum_low += v;
                self.hist_low[bin] += 1;
            }
        }

        // Midlevel crossings between consecutive uniform samples.
        if let Some((kp, vp)) = self.prev {
            if kp + 1 == k && ((vp < mid) != (v < mid)) && v != vp {
                let frac = (mid - vp) / (v - vp);
                let t_cross = ((i as f64) - 1.0 + frac) * self.cfg.dt;
                let cphase = (t_cross + ui / 2.0).rem_euclid(ui);
                let bin = (((cphase / ui) * self.cfg.phase_bins as f64) as usize)
                    .min(self.cfg.phase_bins - 1);
                self.cross_hist.add(bin);
                self.n_cross += 1;
            }
        }
        self.prev = Some((k, v));
    }

    fn v_bin(&self, v: f64) -> usize {
        let span = (self.cfg.v_hi - self.cfg.v_lo).max(1e-30);
        let x = (v - self.cfg.v_lo) / span * self.cfg.v_bins as f64;
        (x.max(0.0) as usize).min(self.cfg.v_bins - 1)
    }

    /// Merges another accumulator over an **independently** simulated
    /// segment (histograms and exact sums add; the seam between the two
    /// segments contributes no crossing, by construction). This is the
    /// deterministic fan-in under parallel sweeps: merging in input
    /// order gives bit-identical state for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the configurations differ.
    pub fn merge(&mut self, other: &EyeAccumulator) {
        assert!(self.cfg == other.cfg, "accumulator configs must match");
        for (a, b) in self.grid.iter_mut().zip(&other.grid) {
            *a += b;
        }
        for (a, b) in self.hist_high.iter_mut().zip(&other.hist_high) {
            *a += b;
        }
        for (a, b) in self.hist_low.iter_mut().zip(&other.hist_low) {
            *a += b;
        }
        self.cross_hist.merge(&other.cross_hist);
        self.n_high += other.n_high;
        self.sum_high += other.sum_high;
        self.n_low += other.n_low;
        self.sum_low += other.sum_low;
        self.n_cross += other.n_cross;
        self.samples += other.samples;
        self.v_min = self.v_min.min(other.v_min);
        self.v_max = self.v_max.max(other.v_max);
    }

    /// Computes scalar eye metrics from the accumulated state.
    ///
    /// Same [`EyeMetrics`] record as the dense fold, with two documented
    /// differences in *estimator* (not in the data folded): inner rails
    /// come from the fixed-resolution voltage histograms (resolution
    /// `(v_hi−v_lo)/v_bins`) instead of exact order statistics, and the
    /// jitter statistics are computed on the crossing-phase histogram
    /// (resolution `ui/phase_bins`). Both are deterministic and
    /// chunk-invariant.
    #[must_use]
    pub fn metrics(&self) -> EyeMetrics {
        if self.samples == 0 {
            return EyeMetrics {
                height: 0.0,
                width: 0.0,
                v_high: 0.0,
                v_low: 0.0,
                rms_jitter: 0.0,
                pp_jitter: 0.0,
                opening: 0.0,
            };
        }
        let (v_high, v_low, height) = if self.n_high == 0 || self.n_low == 0 {
            // Eye fully collapsed onto one rail (e.g. all-zeros data).
            (self.v_max, self.v_min, 0.0)
        } else {
            let v_high = self.sum_high / self.n_high as f64;
            let v_low = self.sum_low / self.n_low as f64;
            let inner_high = self.hist_percentile(&self.hist_high, self.n_high, 5.0);
            let inner_low = self.hist_percentile(&self.hist_low, self.n_low, 95.0);
            (v_high, v_low, inner_high - inner_low)
        };
        let (rms_jitter, pp_jitter) = self.jitter_from_hist();
        let width = (self.cfg.ui - pp_jitter).max(0.0);
        let swing = v_high - v_low;
        let opening = if swing > 0.0 { height / swing } else { 0.0 };
        EyeMetrics {
            height,
            width,
            v_high,
            v_low,
            rms_jitter,
            pp_jitter,
            opening,
        }
    }

    /// Percentile from a voltage histogram: rank `q/100·(n−1)` with
    /// uniform-within-bin interpolation.
    fn hist_percentile(&self, hist: &[u64], n: u64, q: f64) -> f64 {
        let span = self.cfg.v_hi - self.cfg.v_lo;
        let binw = span / self.cfg.v_bins as f64;
        let rank = q / 100.0 * (n.saturating_sub(1)) as f64;
        let mut cum = 0u64;
        for (b, &cnt) in hist.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            if (cum + cnt) as f64 > rank {
                let frac = ((rank - cum as f64) / cnt as f64).clamp(0.0, 1.0);
                return self.cfg.v_lo + (b as f64 + frac) * binw;
            }
            cum += cnt;
        }
        self.cfg.v_hi
    }

    /// Circular jitter statistics from the crossing-phase histogram:
    /// the peak-to-peak spread is UI minus the largest empty gap between
    /// occupied bins; the RMS is the weighted standard deviation of bin
    /// centers rotated so the cluster is contiguous.
    fn jitter_from_hist(&self) -> (f64, f64) {
        if self.n_cross < 2 {
            return (0.0, 0.0);
        }
        let ui = self.cfg.ui;
        let nb = self.cfg.phase_bins;
        let binw = ui / nb as f64;
        let mut first = None;
        let mut last = 0usize;
        let mut max_gap = 0.0f64;
        let mut gap_end = 0usize;
        let mut prev: Option<usize> = None;
        for (b, _) in self.cross_hist.occupied() {
            if first.is_none() {
                first = Some(b);
                gap_end = b;
            }
            if let Some(p) = prev {
                let gap = (b - p) as f64 * binw;
                if gap > max_gap {
                    max_gap = gap;
                    gap_end = b;
                }
            }
            prev = Some(b);
            last = b;
        }
        let first = first.unwrap_or(0);
        // Wraparound gap from the last occupied bin back to the first.
        let wrap = ui - (last - first) as f64 * binw;
        if wrap > max_gap {
            max_gap = wrap;
            gap_end = first;
        }
        let pp = (ui - max_gap).max(0.0);
        // Rotate so the cluster is contiguous, then weighted stddev of
        // bin centers.
        let origin = (gap_end as f64 + 0.5) * binw;
        let (mut n, mut s, mut s2) = (0u64, 0.0f64, 0.0f64);
        for (b, cnt) in self.cross_hist.occupied() {
            let rot = ((b as f64 + 0.5) * binw - origin).rem_euclid(ui);
            let w = cnt as f64;
            n += cnt;
            s += w * rot;
            s2 += w * rot * rot;
        }
        let mean = s / n as f64;
        let var = (s2 / n as f64 - mean * mean).max(0.0);
        // Sample-style correction to match the dense path's stddev
        // convention on large populations (negligible either way).
        let var = if n > 1 {
            var * n as f64 / (n - 1) as f64
        } else {
            var
        };
        (var.sqrt(), pp)
    }

    /// Renders the accumulated density grid as ASCII art, densest
    /// regions darkest (the streaming counterpart of
    /// [`crate::eye::EyeDiagram::render_ascii`]).
    #[must_use]
    pub fn render_ascii(&self) -> String {
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let peak = self.grid.iter().copied().max().unwrap_or(0).max(1) as f64;
        const SHADES: [char; 6] = [' ', '.', ':', '+', '#', '@'];
        let mut out = String::with_capacity(rows * (cols + 1));
        for r in 0..rows {
            for c in 0..cols {
                let count = self.grid[r * cols + c] as f64;
                let idx = if count == 0.0 {
                    0
                } else {
                    1 + ((count / peak) * (SHADES.len() - 2) as f64).round() as usize
                };
                out.push(SHADES[idx.min(SHADES.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Streaming scalar metrics and BER counting
// ---------------------------------------------------------------------

/// Streaming scalar waveform metrics: count/min/max/mean/RMS plus
/// rising/falling threshold-crossing counters, all at O(1) memory.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMetrics {
    threshold: f64,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    sumsq: f64,
    rising: u64,
    falling: u64,
    last_above: Option<bool>,
}

impl StreamMetrics {
    /// Creates an empty metrics accumulator; crossings are counted
    /// against `threshold`.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        StreamMetrics {
            threshold,
            count: 0,
            min: f64::MAX,
            max: f64::MIN,
            sum: 0.0,
            sumsq: 0.0,
            rising: 0,
            falling: 0,
            last_above: None,
        }
    }

    /// Pushes one sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.sumsq += v * v;
        let above = v > self.threshold;
        if let Some(prev) = self.last_above {
            if prev != above {
                if above {
                    self.rising += 1;
                } else {
                    self.falling += 1;
                }
            }
        }
        self.last_above = Some(above);
    }

    /// Merges metrics from an **independently** processed segment (the
    /// seam contributes no crossing).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds differ.
    pub fn merge(&mut self, other: &StreamMetrics) {
        assert!(
            self.threshold == other.threshold,
            "crossing thresholds must match"
        );
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.rising += other.rising;
        self.falling += other.falling;
        self.last_above = other.last_above.or(self.last_above);
    }

    /// Samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (`+MAX` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`MIN` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Root-mean-square (0 when empty).
    #[must_use]
    pub fn rms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sumsq / self.count as f64).sqrt()
        }
    }

    /// Rising threshold crossings.
    #[must_use]
    pub fn rising(&self) -> u64 {
        self.rising
    }

    /// Falling threshold crossings.
    #[must_use]
    pub fn falling(&self) -> u64 {
        self.falling
    }

    /// Total threshold crossings.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.rising + self.falling
    }
}

/// Streaming bit-error-ratio counter: interpolates the waveform at each
/// bit-center decision instant and compares the slicer decision against
/// an expected-bit iterator (typically a [`crate::prbs::Prbs`] clone
/// seeded like the transmitter), at O(1) memory.
///
/// Decision instants are `t_first + k·ui` computed directly (never
/// accumulated), so results are chunk-invariant.
#[derive(Debug, Clone)]
pub struct BerCounter<I> {
    expected: I,
    ui: f64,
    threshold: f64,
    t_first: f64,
    bits: u64,
    errors: u64,
    last: Option<(f64, f64)>,
    done: bool,
}

impl<I: Iterator<Item = bool>> BerCounter<I> {
    /// Creates a counter sampling at `t_first + k·ui` with the given
    /// slicer threshold; `expected` yields the transmitted bits aligned
    /// with the first decision instant.
    ///
    /// # Panics
    ///
    /// Panics unless `ui > 0`.
    #[must_use]
    pub fn new(ui: f64, threshold: f64, t_first: f64, expected: I) -> Self {
        assert!(ui > 0.0, "unit interval must be positive");
        BerCounter {
            expected,
            ui,
            threshold,
            t_first,
            bits: 0,
            errors: 0,
            last: None,
            done: false,
        }
    }

    /// Pushes one raw `(t, v)` stream point (non-decreasing `t`).
    pub fn push(&mut self, t: f64, v: f64) {
        if self.done {
            return;
        }
        if let Some((tp, vp)) = self.last {
            loop {
                let ts = self.t_first + self.bits as f64 * self.ui;
                if ts > t {
                    break;
                }
                let v_s = if t > tp {
                    let frac = ((ts - tp) / (t - tp)).clamp(0.0, 1.0);
                    vp + (v - vp) * frac
                } else {
                    v
                };
                let Some(bit) = self.expected.next() else {
                    self.done = true;
                    break;
                };
                if (v_s > self.threshold) != bit {
                    self.errors += 1;
                }
                self.bits += 1;
            }
        }
        self.last = Some((t, v));
    }

    /// Decisions made so far.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Erroneous decisions so far.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Bit-error ratio (`errors / bits`; 0 before the first decision).
    #[must_use]
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nrz::NrzConfig;
    use crate::prbs::Prbs;

    const UI: f64 = 100e-12;

    fn prbs7_wave(n: usize) -> (Vec<f64>, Vec<f64>) {
        let bits: Vec<bool> = Prbs::prbs7().take(n).collect();
        let w = NrzConfig::new(UI, 0.5).render(&bits);
        (w.times(), w.samples().to_vec())
    }

    #[test]
    fn resampler_matches_dense_grid_on_uniform_input() {
        let (times, vals) = prbs7_wave(32);
        let mut rs = StreamingResampler::new(times[1] - times[0]);
        let mut out = Vec::new();
        for (&t, &v) in times.iter().zip(&vals) {
            rs.push(t, v, |k, val| out.push((k, val)));
        }
        assert_eq!(out.len(), vals.len());
        for (i, &(k, val)) in out.iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(val.to_bits(), vals[i].to_bits(), "sample {i}");
        }
    }

    #[test]
    fn resampler_is_chunk_invariant_on_nonuniform_input() {
        // Irregular grid: quadratic signal, geometric-ish time steps.
        let times: Vec<f64> = (0..200).map(|i| (i as f64).powf(1.3) * 1e-12).collect();
        let vals: Vec<f64> = times.iter().map(|&t| (t * 3e10).sin()).collect();
        let run = |chunk: usize| {
            let mut rs = StreamingResampler::new(0.7e-12);
            let mut out = Vec::new();
            for c in times.chunks(chunk).zip(vals.chunks(chunk)) {
                for (&t, &v) in c.0.iter().zip(c.1) {
                    rs.push(t, v, |k, val| out.push((k, val.to_bits())));
                }
            }
            out
        };
        let whole = run(usize::MAX);
        for chunk in [1, 3, 17, 64] {
            assert_eq!(run(chunk), whole, "chunk {chunk} changed the resample");
        }
    }

    #[test]
    fn eye_accumulator_is_chunk_invariant() {
        let (times, vals) = prbs7_wave(254);
        let cfg = EyeAccumulatorConfig::new(UI, 1e-12, -0.3, 0.3);
        let run = |chunk: usize| {
            let mut acc = EyeAccumulator::new(cfg.clone());
            for c in times.chunks(chunk).zip(vals.chunks(chunk)) {
                for (&t, &v) in c.0.iter().zip(c.1) {
                    acc.push(t, v);
                }
            }
            acc.metrics()
        };
        let whole = run(usize::MAX);
        for chunk in [1, 7, 100, 1000] {
            let m = run(chunk);
            assert_eq!(m.height.to_bits(), whole.height.to_bits());
            assert_eq!(m.width.to_bits(), whole.width.to_bits());
            assert_eq!(m.rms_jitter.to_bits(), whole.rms_jitter.to_bits());
            assert_eq!(m.v_high.to_bits(), whole.v_high.to_bits());
        }
    }

    #[test]
    fn eye_accumulator_agrees_with_dense_fold_on_clean_eye() {
        // Same data through the dense EyeDiagram and the streaming
        // accumulator: the estimators differ (histograms vs exact order
        // statistics), so agreement is approximate but must be close on
        // a clean eye.
        let bits: Vec<bool> = Prbs::prbs7().take(254).collect();
        let wave = NrzConfig::new(UI, 0.5).render(&bits);
        let dense = crate::eye::EyeDiagram::fold(&wave, UI).metrics();
        let mut acc = EyeAccumulator::new(EyeAccumulatorConfig::new(UI, wave.dt(), -0.3, 0.3));
        acc.feed(&wave.times(), wave.samples());
        let m = acc.metrics();
        assert!(
            (m.v_high - dense.v_high).abs() < 5e-3,
            "v_high {}",
            m.v_high
        );
        assert!((m.v_low - dense.v_low).abs() < 5e-3, "v_low {}", m.v_low);
        assert!(
            (m.height - dense.height).abs() < 0.02,
            "height {} vs dense {}",
            m.height,
            dense.height
        );
        assert!(m.opening > 0.9, "opening {}", m.opening);
        assert!(m.pp_jitter < 5e-12, "pp {}", m.pp_jitter);
        assert!(m.width > 95e-12, "width {}", m.width);
    }

    #[test]
    fn eye_accumulator_merge_matches_sequential() {
        // Two independently accumulated halves merged == both halves
        // fed into one accumulator with the seam crossing suppressed.
        // (Simulated segments restart at t=0, so split the *pattern*.)
        let (t1, v1) = prbs7_wave(64);
        let bits2: Vec<bool> = Prbs::prbs7().skip(64).take(64).collect();
        let w2 = NrzConfig::new(UI, 0.5).render(&bits2);
        let cfg = EyeAccumulatorConfig::new(UI, 1e-12, -0.3, 0.3);
        let mut a = EyeAccumulator::new(cfg.clone());
        a.feed(&t1, &v1);
        let mut b = EyeAccumulator::new(cfg.clone());
        b.feed(&w2.times(), w2.samples());
        let samples = a.samples() + b.samples();
        let crossings = a.crossings() + b.crossings();
        a.merge(&b);
        assert_eq!(a.samples(), samples);
        assert_eq!(a.crossings(), crossings);
        let m = a.metrics();
        assert!(m.opening > 0.85, "merged opening {}", m.opening);
    }

    /// The paged crossing histogram holds the counts a flat one would,
    /// bin for bin, after random adds and a merge, with the last page
    /// only partly inside the histogram.
    #[test]
    fn paged_crossing_histogram_matches_flat() {
        use rand::{Rng, SeedableRng};
        let bins = 5 * CROSS_PAGE + 300;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut fill = |n: usize| {
            let (mut paged, mut flat) = (CrossHist::new(bins), vec![0u64; bins]);
            for _ in 0..n {
                // Cluster most crossings on two pages, as an eye does.
                let bin = if rng.gen_bool(0.8) {
                    rng.gen_range(2 * CROSS_PAGE - 40..2 * CROSS_PAGE + 40)
                } else {
                    rng.gen_range(0..bins)
                };
                paged.add(bin);
                flat[bin] += 1;
            }
            (paged, flat)
        };
        let (mut a, mut flat_a) = fill(3000);
        let (b, flat_b) = fill(500);
        let (empty, _) = fill(0);
        a.merge(&b);
        a.merge(&empty);
        for (x, y) in flat_a.iter_mut().zip(&flat_b) {
            *x += y;
        }
        let want: Vec<(usize, u64)> = flat_a
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| (b, c))
            .collect();
        assert_eq!(a.occupied().collect::<Vec<_>>(), want);
        assert!(empty.pages.iter().all(Vec::is_empty));
    }

    #[test]
    fn eye_accumulator_memory_is_flat() {
        let cfg = EyeAccumulatorConfig::new(UI, 1e-12, -0.3, 0.3);
        let mut acc = EyeAccumulator::new(cfg);
        let base = acc.mem_bytes();
        let (times, vals) = prbs7_wave(254);
        for rep in 0..20 {
            // Shift each repetition in time so the stream is monotone.
            let off = rep as f64 * (times.last().unwrap() + 1e-12);
            for (&t, &v) in times.iter().zip(&vals) {
                acc.push(t + off, v);
            }
        }
        assert!(acc.samples() > 100_000);
        assert!(
            acc.mem_bytes() <= base + 4096,
            "memory grew: {} -> {}",
            base,
            acc.mem_bytes()
        );
    }

    #[test]
    fn stream_metrics_basics() {
        let mut m = StreamMetrics::new(0.0);
        for v in [-1.0, 1.0, -1.0, 1.0, 1.0] {
            m.push(v);
        }
        assert_eq!(m.count(), 5);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 1.0);
        assert!((m.mean() - 0.2).abs() < 1e-12);
        assert!((m.rms() - 1.0).abs() < 1e-12);
        assert_eq!(m.rising(), 2);
        assert_eq!(m.falling(), 1);
        assert_eq!(m.crossings(), 3);
    }

    #[test]
    fn stream_metrics_merge_adds() {
        let mut a = StreamMetrics::new(0.0);
        a.push(1.0);
        a.push(-1.0);
        let mut b = StreamMetrics::new(0.0);
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.falling(), 1);
    }

    #[test]
    fn ber_counter_clean_wave_has_zero_errors() {
        let bits: Vec<bool> = Prbs::prbs7().take(100).collect();
        let w = NrzConfig::new(UI, 0.5).render(&bits);
        // Bit k's center is at (k + 0.5)·UI.
        let mut ber = BerCounter::new(UI, 0.0, UI / 2.0, Prbs::prbs7());
        for (i, &v) in w.samples().iter().enumerate() {
            ber.push(w.time_at(i), v);
        }
        assert_eq!(ber.bits(), 100);
        assert_eq!(ber.errors(), 0);
        assert_eq!(ber.ber(), 0.0);
    }

    #[test]
    fn ber_counter_detects_inverted_data() {
        let bits: Vec<bool> = Prbs::prbs7().take(50).collect();
        let w = NrzConfig::new(UI, 0.5).render(&bits);
        // Compare against the complement: every decision is wrong.
        let mut ber = BerCounter::new(UI, 0.0, UI / 2.0, Prbs::prbs7().map(|b| !b));
        for (i, &v) in w.samples().iter().enumerate() {
            ber.push(w.time_at(i), v);
        }
        assert_eq!(ber.bits(), 50);
        assert_eq!(ber.errors(), 50);
        assert!((ber.ber() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ber_counter_is_chunk_invariant() {
        let bits: Vec<bool> = Prbs::prbs7().take(60).collect();
        let w = NrzConfig::new(UI, 0.5)
            .with_random_jitter(8e-12, 3)
            .render(&bits);
        let run = |chunk: usize| {
            let mut ber = BerCounter::new(UI, 0.0, UI / 2.0, Prbs::prbs7());
            for (i, &v) in w.samples().iter().enumerate() {
                let _ = chunk; // chunking is trivial for a push API; vary nothing
                ber.push(w.time_at(i), v);
            }
            (ber.bits(), ber.errors())
        };
        assert_eq!(run(1), run(64));
    }
}
