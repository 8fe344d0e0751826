//! Solver telemetry: structured spans, deterministic counters and
//! exportable traces for the SPICE engine.
//!
//! The solver stack (PRs 1–4) layered four interacting fast paths on top
//! of the plain MNA solve: `MatKey` factorization reuse, sparse LU with
//! symbolic replay, LTE-adaptive stepping and the parallel AC refactor
//! replay. Each of them degrades *silently* — a pattern miss quietly
//! rebuilds, a dead pivot quietly falls back to dense — which makes a 6×
//! regression indistinguishable from a 6× win without instrumentation.
//! This crate is the observability layer the analyses thread a
//! [`Telemetry`] handle through; it is the repository's analog of
//! HSPICE's `.option acct` accounting output.
//!
//! Three design rules:
//!
//! 1. **Zero cost when disabled.** [`Telemetry::disabled`] is a `const`
//!    constructor holding no allocation; every recording method is an
//!    inlined branch on an `Option` that is `None`. Analyses always take
//!    a handle, and the untelemetered entry points pass the disabled
//!    one.
//! 2. **Deterministic counters.** Every [`Counters`] field is an event
//!    count (or a histogram of event counts) whose total is invariant
//!    under thread count and scheduling: parallel workers record into
//!    forked buffers ([`Probe::fork`]) that are merged back in input
//!    order ([`Telemetry::absorb`]), and integer addition is
//!    order-independent. Timings and per-worker load live *outside*
//!    [`Counters`] because they are not deterministic.
//! 3. **Three sinks.** An in-memory [`SolverReport`] (typed, queryable
//!    from tests and bench binaries), JSON via `CML_TELEMETRY=json:<path>`,
//!    and the Chrome trace-event format (loadable in `chrome://tracing`
//!    and [ui.perfetto.dev](https://ui.perfetto.dev)) via
//!    `CML_TELEMETRY=trace:<path>`.
//!
//! PR 10 adds the **structured event log** (see [`events`]): typed,
//! timestamped [`Event`] records of discrete solver happenings (Newton
//! iteration residuals, LTE rejections, pivot deaths, cache rejections,
//! lint rejections, degradations) in a bounded keep-newest ring per
//! handle, merged thread-invariantly like counters, plus the
//! per-attempt Newton residual trajectory
//! ([`Telemetry::trajectory_push`]) the flight recorder
//! (`cml_spice::flight`) bundles on failure.
//!
//! # Span granularity
//!
//! Coarse spans (analysis → phase → sweep chunk) are always recorded
//! when enabled; they cost two monotonic clock reads per span and there
//! are at most a few hundred per run. Fine spans and fine timers (one
//! per Newton solve, one per factor/refactor/back-substitute call) would
//! dominate a hot transient loop, so they are gated behind the `fine`
//! flag (`CML_TELEMETRY=...,fine` or [`Telemetry::enabled_fine`]); the
//! default enabled mode stays under the 2 % overhead budget that
//! `tests/perf_budgets.rs` gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;

pub use events::{Event, EventKind, EventRing, DEFAULT_EVENT_CAPACITY};

use serde::Value;
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable configuring telemetry sinks: a comma-separated
/// list of `json:<path>`, `trace:<path>` and the bare token `fine`
/// (enable per-solve spans and per-factorization timers). Any non-empty
/// value enables recording; `json:`/`trace:` entries additionally select where [`Telemetry::flush`] writes.
pub const TELEMETRY_ENV: &str = "CML_TELEMETRY";

/// Environment variable suppressing the one-line degradation warnings
/// ([`warn_once`]) when set to anything but `0`/`false`/empty.
pub const QUIET_ENV: &str = "CML_QUIET";

/// Process-wide monotonic epoch all span timestamps are relative to, so
/// spans from independently forked handles land on one coherent
/// timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Number of buckets in [`Counters::dt_histogram`]: bucket `i` counts
/// accepted steps whose `dt / dt_nominal` ratio rounds to
/// `2^(i - DT_BUCKET_ZERO)`, clamped at the ends. The range covers the
/// LTE controller's full dynamic range (shrink to `dt/4096`, grow past
/// nominal).
pub const DT_BUCKETS: usize = 21;

/// Index of the `ratio = 1` (nominal `dt`) histogram bucket.
pub const DT_BUCKET_ZERO: usize = 12;

/// Deterministic solver event counts.
///
/// Every field is a count whose total is bit-identical for any thread
/// count (see the crate docs); `PartialEq`/`Eq` make that property
/// directly assertable in tests. Timings deliberately live elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Newton solves requested (one per operating point, transient step
    /// attempt ladder, or DC sweep rung).
    pub newton_solves: u64,
    /// Total Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Newton iterations solved against a kept LU instead of a fresh
    /// factorization: every iteration of a linear circuit's transient
    /// solve whose step size and method match the kept LU, and the chord
    /// step that starts a nonlinear circuit's transient solve under the
    /// same condition. Every other iteration factors, so
    /// `full_factorizations + refactorizations + factor_reuse_hits` is
    /// `newton_iterations` on the scalar solver.
    pub factor_reuse_hits: u64,
    /// Full factorizations: dense LU eliminations plus sparse
    /// factorizations that ran the pivot search.
    pub full_factorizations: u64,
    /// Sparse numeric refactorizations that replayed the frozen pivot
    /// order (no DFS, no pivot search).
    pub refactorizations: u64,
    /// Replays aborted by a numerically dead frozen pivot, healed by a
    /// full re-pivoting factorization (DC/transient sparse path).
    pub pivot_fallbacks: u64,
    /// Transient Newton solves that read the compiled linear part
    /// `G + (a/dt)·C` (one per solve call, whatever its step size).
    pub lin_stamp_hits: u64,
    /// Compiles of a circuit's transient linear part: one per transient
    /// run.
    pub lin_stamp_builds: u64,
    /// Sparsity-pattern discoveries (recording stamp passes).
    pub pattern_builds: u64,
    /// `PatternMiss` self-heals: an element stamped outside the cached
    /// pattern and the pattern was rebuilt from the current guess.
    pub pattern_rebuilds: u64,
    /// Permanent dense fallbacks: a scalar Newton workspace whose sparse
    /// pattern could not be built or missed twice stays dense for the
    /// rest of its life, and an AC sweep whose sparse reference could
    /// not be built runs dense. The batched solver never counts here;
    /// its lanes go to the scalar ladder instead
    /// ([`lane_fallbacks`](Self::lane_fallbacks)).
    pub dense_fallbacks: u64,
    /// Newton solves routed through the sparse LU path.
    pub sparse_solves: u64,
    /// Newton solves routed through the dense LU path.
    pub dense_solves: u64,
    /// AC frequency points solved (any path).
    pub ac_points: u64,
    /// AC points solved by sparse replay of the frozen reference
    /// factorization.
    pub ac_points_sparse: u64,
    /// AC points that fell back from sparse replay to a per-point dense
    /// solve (pattern miss or pivot death at that frequency).
    pub ac_point_fallbacks: u64,
    /// Accepted transient steps (fixed and adaptive modes).
    pub tran_steps: u64,
    /// Adaptive steps accepted by the LTE controller.
    pub lte_accepts: u64,
    /// Adaptive steps rejected (predictor deviation over band) and
    /// retried at half the step.
    pub lte_rejects: u64,
    /// Step halvings forced by Newton convergence failure.
    pub newton_retries: u64,
    /// Breakpoint landings: steps truncated onto a source-waveform
    /// corner, restarting the predictor history on the far side.
    pub breakpoint_restarts: u64,
    /// Netlist lint prechecks run ahead of analyses.
    pub lint_prechecks: u64,
    /// Waveform chunks streamed through transient sinks.
    pub wave_chunks: u64,
    /// Accepted samples streamed through transient sinks (sum of chunk
    /// lengths; equals `tran_steps + 1` per streamed run).
    pub wave_samples: u64,
    /// Monte-Carlo trials evaluated by the yield / batch workload
    /// layers (batched and scalar alike).
    pub trials_total: u64,
    /// Batched lockstep linear solves: one lane-packed factor+solve
    /// serving up to `LANES` variants at once.
    pub batch_solves: u64,
    /// Lane slots offered across all batched solves
    /// (`batch_solves × LANES`); the occupancy denominator.
    pub batch_lane_slots: u64,
    /// Lane slots actually carrying a live, unconverged variant; the
    /// occupancy numerator (see [`Counters::lane_occupancy`]).
    pub batch_lanes_active: u64,
    /// Variants evicted from a batch (pivot death, divergence, or
    /// non-convergence) and re-solved on the scalar path.
    pub lane_fallbacks: u64,
    /// Topology-cache artifacts served from the in-memory interner
    /// (`cml-cache`): a symbolic analysis, stamp pattern, factored AC
    /// reference state, or lint verdict was reused instead of
    /// re-derived. Counted at the single-compute-per-key call sites, so
    /// the total is thread-count-invariant.
    pub cache_hits: u64,
    /// Topology-cache lookups that required a cold derivation (the
    /// interner had no usable artifact).
    pub cache_misses: u64,
    /// Interned artifacts rejected by validation against the live
    /// circuit (a digest collision or a pattern that cannot carry the
    /// circuit's stamps) and healed by a cold derivation. Nonzero values
    /// never change results — only cost.
    pub cache_validation_failures: u64,
    /// Structured events emitted into the event log ([`Telemetry::event`]
    /// and [`Telemetry::degradation`]). Every emission site is a
    /// per-occurrence event (one per Newton iteration, rejection,
    /// fallback…), so the total is thread-invariant; ring overflow drops
    /// stored events but never this count.
    pub events_emitted: u64,
    /// Silent-degradation warnings routed through
    /// [`Telemetry::degradation`]. Unlike the stderr line (once per code
    /// per process, silenced by `CML_QUIET`), this counts every
    /// degradation occurrence and is never silenced.
    pub degradation_warnings: u64,
    /// Flight-recorder bundles written (`cml_spice::flight`): one per
    /// dumped `SpiceError` or on-demand snapshot.
    pub flight_dumps: u64,
    /// Histogram of accepted-step sizes as log₂(dt / dt_nominal),
    /// bucket [`DT_BUCKET_ZERO`] = nominal (see [`DT_BUCKETS`]).
    pub dt_histogram: [u64; DT_BUCKETS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            newton_solves: 0,
            newton_iterations: 0,
            factor_reuse_hits: 0,
            full_factorizations: 0,
            refactorizations: 0,
            pivot_fallbacks: 0,
            lin_stamp_hits: 0,
            lin_stamp_builds: 0,
            pattern_builds: 0,
            pattern_rebuilds: 0,
            dense_fallbacks: 0,
            sparse_solves: 0,
            dense_solves: 0,
            ac_points: 0,
            ac_points_sparse: 0,
            ac_point_fallbacks: 0,
            tran_steps: 0,
            lte_accepts: 0,
            lte_rejects: 0,
            newton_retries: 0,
            breakpoint_restarts: 0,
            lint_prechecks: 0,
            wave_chunks: 0,
            wave_samples: 0,
            trials_total: 0,
            batch_solves: 0,
            batch_lane_slots: 0,
            batch_lanes_active: 0,
            lane_fallbacks: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_validation_failures: 0,
            events_emitted: 0,
            degradation_warnings: 0,
            flight_dumps: 0,
            dt_histogram: [0; DT_BUCKETS],
        }
    }
}

impl Counters {
    /// Adds every count of `other` into `self` (merge-on-join for
    /// forked worker buffers; addition order cannot change the totals).
    pub fn merge(&mut self, other: &Counters) {
        self.newton_solves += other.newton_solves;
        self.newton_iterations += other.newton_iterations;
        self.factor_reuse_hits += other.factor_reuse_hits;
        self.full_factorizations += other.full_factorizations;
        self.refactorizations += other.refactorizations;
        self.pivot_fallbacks += other.pivot_fallbacks;
        self.lin_stamp_hits += other.lin_stamp_hits;
        self.lin_stamp_builds += other.lin_stamp_builds;
        self.pattern_builds += other.pattern_builds;
        self.pattern_rebuilds += other.pattern_rebuilds;
        self.dense_fallbacks += other.dense_fallbacks;
        self.sparse_solves += other.sparse_solves;
        self.dense_solves += other.dense_solves;
        self.ac_points += other.ac_points;
        self.ac_points_sparse += other.ac_points_sparse;
        self.ac_point_fallbacks += other.ac_point_fallbacks;
        self.tran_steps += other.tran_steps;
        self.lte_accepts += other.lte_accepts;
        self.lte_rejects += other.lte_rejects;
        self.newton_retries += other.newton_retries;
        self.breakpoint_restarts += other.breakpoint_restarts;
        self.lint_prechecks += other.lint_prechecks;
        self.wave_chunks += other.wave_chunks;
        self.wave_samples += other.wave_samples;
        self.trials_total += other.trials_total;
        self.batch_solves += other.batch_solves;
        self.batch_lane_slots += other.batch_lane_slots;
        self.batch_lanes_active += other.batch_lanes_active;
        self.lane_fallbacks += other.lane_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_validation_failures += other.cache_validation_failures;
        self.events_emitted += other.events_emitted;
        self.degradation_warnings += other.degradation_warnings;
        self.flight_dumps += other.flight_dumps;
        for (a, b) in self.dt_histogram.iter_mut().zip(&other.dt_histogram) {
            *a += b;
        }
    }

    /// Records an accepted step of size `dt` against the nominal `dt`.
    pub fn record_dt(&mut self, dt: f64, dt_nominal: f64) {
        let ratio = dt / dt_nominal;
        let bucket = if ratio.is_finite() && ratio > 0.0 {
            let idx = ratio.log2().round() as i64 + DT_BUCKET_ZERO as i64;
            idx.clamp(0, DT_BUCKETS as i64 - 1) as usize
        } else {
            0
        };
        self.dt_histogram[bucket] += 1;
    }

    /// Fraction of Newton iterations solved against a kept LU (linear
    /// carries and chord steps, see
    /// [`factor_reuse_hits`](Counters::factor_reuse_hits)):
    /// `hits / (hits + factorizations of any kind)`; 0 when nothing was
    /// solved.
    #[must_use]
    pub fn reuse_hit_rate(&self) -> f64 {
        let misses = self.full_factorizations + self.refactorizations;
        let total = self.factor_reuse_hits + misses;
        if total == 0 {
            0.0
        } else {
            self.factor_reuse_hits as f64 / total as f64
        }
    }

    /// LTE rejection ratio: `rejects / (accepts + rejects)`; 0 when the
    /// adaptive controller never ran.
    #[must_use]
    pub fn lte_reject_ratio(&self) -> f64 {
        let total = self.lte_accepts + self.lte_rejects;
        if total == 0 {
            0.0
        } else {
            self.lte_rejects as f64 / total as f64
        }
    }

    /// Fraction of AC points solved by sparse replay; 0 when no AC
    /// points were solved.
    #[must_use]
    pub fn ac_sparse_fraction(&self) -> f64 {
        if self.ac_points == 0 {
            0.0
        } else {
            self.ac_points_sparse as f64 / self.ac_points as f64
        }
    }

    /// Batch lane occupancy: fraction of offered lane slots that
    /// carried a live, unconverged variant
    /// (`batch_lanes_active / batch_lane_slots`); 0 when no batched
    /// solve ran. Low occupancy means batches drain unevenly — variants
    /// converging at very different iteration counts — and the SIMD
    /// width is being wasted on frozen lanes.
    #[must_use]
    pub fn lane_occupancy(&self) -> f64 {
        if self.batch_lane_slots == 0 {
            0.0
        } else {
            self.batch_lanes_active as f64 / self.batch_lane_slots as f64
        }
    }

    /// Fraction of Monte-Carlo trials that fell off the batch onto the
    /// scalar path (`lane_fallbacks / trials_total`); 0 when no trials
    /// ran. A rising fallback rate silently erodes the batched speedup.
    #[must_use]
    pub fn lane_fallback_rate(&self) -> f64 {
        if self.trials_total == 0 {
            0.0
        } else {
            self.lane_fallbacks as f64 / self.trials_total as f64
        }
    }

    /// Renders the counters as a JSON object (the `counters` block of
    /// the JSON sink).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        Value::Obj(vec![
            ("newton_solves".into(), num(self.newton_solves)),
            ("newton_iterations".into(), num(self.newton_iterations)),
            ("factor_reuse_hits".into(), num(self.factor_reuse_hits)),
            ("full_factorizations".into(), num(self.full_factorizations)),
            ("refactorizations".into(), num(self.refactorizations)),
            ("pivot_fallbacks".into(), num(self.pivot_fallbacks)),
            ("lin_stamp_hits".into(), num(self.lin_stamp_hits)),
            ("lin_stamp_builds".into(), num(self.lin_stamp_builds)),
            ("pattern_builds".into(), num(self.pattern_builds)),
            ("pattern_rebuilds".into(), num(self.pattern_rebuilds)),
            ("dense_fallbacks".into(), num(self.dense_fallbacks)),
            ("sparse_solves".into(), num(self.sparse_solves)),
            ("dense_solves".into(), num(self.dense_solves)),
            ("ac_points".into(), num(self.ac_points)),
            ("ac_points_sparse".into(), num(self.ac_points_sparse)),
            ("ac_point_fallbacks".into(), num(self.ac_point_fallbacks)),
            ("tran_steps".into(), num(self.tran_steps)),
            ("lte_accepts".into(), num(self.lte_accepts)),
            ("lte_rejects".into(), num(self.lte_rejects)),
            ("newton_retries".into(), num(self.newton_retries)),
            ("breakpoint_restarts".into(), num(self.breakpoint_restarts)),
            ("lint_prechecks".into(), num(self.lint_prechecks)),
            ("wave_chunks".into(), num(self.wave_chunks)),
            ("wave_samples".into(), num(self.wave_samples)),
            ("trials_total".into(), num(self.trials_total)),
            ("batch_solves".into(), num(self.batch_solves)),
            ("batch_lane_slots".into(), num(self.batch_lane_slots)),
            ("batch_lanes_active".into(), num(self.batch_lanes_active)),
            ("lane_fallbacks".into(), num(self.lane_fallbacks)),
            ("cache_hits".into(), num(self.cache_hits)),
            ("cache_misses".into(), num(self.cache_misses)),
            (
                "cache_validation_failures".into(),
                num(self.cache_validation_failures),
            ),
            ("events_emitted".into(), num(self.events_emitted)),
            (
                "degradation_warnings".into(),
                num(self.degradation_warnings),
            ),
            ("flight_dumps".into(), num(self.flight_dumps)),
            (
                "dt_histogram".into(),
                Value::Arr(self.dt_histogram.iter().map(|&n| num(n)).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Phases (accumulated timings)
// ---------------------------------------------------------------------

/// Solver phases with accumulated wall-clock accounting.
///
/// Cold phases (lint precheck, pattern discovery, the per-analysis
/// Newton total) are timed whenever telemetry is enabled; the hot
/// per-call phases (factor / refactor / back-substitute) only under the
/// `fine` flag — see the crate docs on span granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pre-simulation netlist lint (`cml_spice::lint::precheck`).
    LintPrecheck,
    /// Sparsity-pattern discovery (recording stamp pass + symbolic
    /// analysis).
    PatternDiscovery,
    /// Whole Newton solves (iteration loop, all paths).
    NewtonSolve,
    /// Full LU factorizations (fine only).
    Factor,
    /// Sparse replayed refactorizations (fine only).
    Refactor,
    /// Triangular back-substitutions (fine only).
    BackSubstitute,
    /// Batched lockstep Newton solves: the lane-packed stamping,
    /// factorization and per-lane convergence bookkeeping of one batch
    /// (coarse — one span per batch, not per iteration).
    BatchSolve,
}

/// Number of [`Phase`] variants (array backing for [`Timings`]).
pub const N_PHASES: usize = 7;

impl Phase {
    /// Stable index into [`Timings`] arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::LintPrecheck => 0,
            Phase::PatternDiscovery => 1,
            Phase::NewtonSolve => 2,
            Phase::Factor => 3,
            Phase::Refactor => 4,
            Phase::BackSubstitute => 5,
            Phase::BatchSolve => 6,
        }
    }

    /// Snake-case name used in JSON sinks.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::LintPrecheck => "lint_precheck",
            Phase::PatternDiscovery => "pattern_discovery",
            Phase::NewtonSolve => "newton_solve",
            Phase::Factor => "factor",
            Phase::Refactor => "refactor",
            Phase::BackSubstitute => "back_substitute",
            Phase::BatchSolve => "batch_solve",
        }
    }

    /// All phases in index order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::LintPrecheck,
        Phase::PatternDiscovery,
        Phase::NewtonSolve,
        Phase::Factor,
        Phase::Refactor,
        Phase::BackSubstitute,
        Phase::BatchSolve,
    ];
}

/// Accumulated wall-clock per [`Phase`]: total nanoseconds and call
/// count. **Not** deterministic (wall-clock); kept apart from
/// [`Counters`] on purpose.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Accumulated nanoseconds per phase, indexed by [`Phase::index`].
    pub ns: [u64; N_PHASES],
    /// Number of timed calls per phase.
    pub calls: [u64; N_PHASES],
}

impl Timings {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Timings) {
        for i in 0..N_PHASES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Renders the phase timings as a JSON object.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(
            Phase::ALL
                .iter()
                .map(|&p| {
                    let i = p.index();
                    (
                        p.name().to_string(),
                        Value::Obj(vec![
                            ("ns".into(), Value::Num(self.ns[i] as f64)),
                            ("calls".into(), Value::Num(self.calls[i] as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One closed span on the process-epoch timeline. Spans are recorded at
/// guard drop, so the vector is ordered by *end* time within a `tid`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `"tran"`, `"ac_chunk"`).
    pub name: &'static str,
    /// Category (e.g. `"analysis"`, `"phase"`), the Chrome trace `cat`.
    pub cat: &'static str,
    /// Virtual thread id: 0 for the creating handle, worker forks get
    /// their own (see [`Probe::fork`]).
    pub tid: u32,
    /// Nesting depth at open (0 = top level) within this handle.
    pub depth: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Recording state behind an enabled handle.
#[derive(Debug, Default)]
struct Recorder {
    counters: Counters,
    timings: Timings,
    spans: Vec<SpanRecord>,
    depth: u32,
    open_spans: u64,
    /// Per-worker item counts from the most recent instrumented
    /// `par_map` fan-out (scheduling-dependent diagnostics).
    worker_items: Vec<u64>,
    /// Last span-event timestamp issued on this timeline.
    last_tick_ns: u64,
    /// Bounded keep-newest structured event log.
    events: EventRing,
    /// Per-iteration Newton residuals (`max |Δx|`) of the most recent
    /// solve attempt recorded on *this* handle. Reset at every attempt
    /// start; deliberately not merged through [`Parts`] — it is a
    /// per-solve forensic trace, not a mergeable total.
    trajectory: Vec<f64>,
}

impl Recorder {
    /// A strictly increasing span-event timestamp. The monotonic clock
    /// can tie on consecutive events (coarse resolution vs. sub-ns span
    /// rates); ties would make disjoint sibling spans indistinguishable
    /// from nested ones, so every open/close bumps at least 1 ns.
    fn tick(&mut self) -> u64 {
        let t = now_ns().max(self.last_tick_ns + 1);
        self.last_tick_ns = t;
        t
    }
}

/// The buffers of a finished forked handle, returned to the spawning
/// side for deterministic merge-on-join (see [`Telemetry::absorb`]).
#[derive(Debug)]
pub struct Parts {
    counters: Counters,
    timings: Timings,
    spans: Vec<SpanRecord>,
    events: EventRing,
}

// ---------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------

/// Where [`Telemetry::flush`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sink {
    Json(PathBuf),
    Trace(PathBuf),
}

/// The instrumentation handle analyses thread through the solver.
///
/// Not `Sync` by design (single-writer buffers, no locks on the hot
/// path): to record from parallel workers, take a [`Probe`]
/// (`Copy + Sync`), [`Probe::fork`] a private handle inside each worker,
/// return its [`Telemetry::into_parts`] with the worker's results, and
/// [`Telemetry::absorb`] the parts in input order on the spawning side.
#[derive(Debug)]
pub struct Telemetry {
    fine: bool,
    tid: u32,
    sinks: Vec<Sink>,
    rec: Option<RefCell<Recorder>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A no-op handle: every recording method is an inlined branch on
    /// `None`, and construction allocates nothing.
    #[must_use]
    pub const fn disabled() -> Self {
        Telemetry {
            fine: false,
            tid: 0,
            sinks: Vec::new(),
            rec: None,
        }
    }

    /// A recording handle with coarse spans and all counters (the mode
    /// whose overhead `tests/perf_budgets.rs` bounds at < 2 %).
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            fine: false,
            tid: 0,
            sinks: Vec::new(),
            rec: Some(RefCell::new(Recorder::default())),
        }
    }

    /// A recording handle with per-solve spans and per-factorization
    /// timers as well (higher overhead; for traces, not benchmarks).
    #[must_use]
    pub fn enabled_fine() -> Self {
        Telemetry {
            fine: true,
            ..Telemetry::enabled()
        }
    }

    /// Builds a handle from the [`TELEMETRY_ENV`] environment variable:
    /// disabled when unset/empty, otherwise enabled with the configured
    /// sinks (and fine granularity when the value contains a `fine`
    /// token). Unknown tokens produce a [`warn_once`] and are ignored.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(TELEMETRY_ENV) {
            Ok(v) if !v.trim().is_empty() => Telemetry::enabled().with_env_spec(&v),
            _ => Telemetry::disabled(),
        }
    }

    /// Applies a `json:<path>,trace:<path>,fine` spec to
    /// this handle.
    #[must_use]
    fn with_env_spec(mut self, spec: &str) -> Self {
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(path) = token.strip_prefix("json:") {
                self.sinks.push(Sink::Json(PathBuf::from(path)));
            } else if let Some(path) = token.strip_prefix("trace:") {
                self.sinks.push(Sink::Trace(PathBuf::from(path)));
            } else if token == "fine" {
                self.fine = true;
            } else if token != "1" && token != "on" {
                warn_once(
                    "telemetry-env",
                    &format!("unrecognized {TELEMETRY_ENV} token `{token}` ignored"),
                );
            }
        }
        self
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Whether fine-granularity spans/timers are active.
    #[must_use]
    pub fn is_fine(&self) -> bool {
        self.rec.is_some() && self.fine
    }

    /// Applies `f` to the counters; a no-op when disabled.
    #[inline]
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        if let Some(rec) = &self.rec {
            f(&mut rec.borrow_mut().counters);
        }
    }

    /// Emits a structured event into the bounded ring. Takes a closure
    /// so a disabled handle never constructs the [`EventKind`] (same
    /// zero-cost contract as [`Telemetry::count`]). Increments
    /// [`Counters::events_emitted`].
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> EventKind) {
        if let Some(rec) = &self.rec {
            let mut r = rec.borrow_mut();
            let t = r.tick();
            r.counters.events_emitted += 1;
            let kind = make();
            let tid = self.tid;
            r.events.push(kind, t, tid);
        }
    }

    /// Emits a structured event only in fine mode. High-rate events
    /// that fire once per Newton iteration go through here: each
    /// [`Telemetry::event`] costs a clock read, and one Newton solve
    /// per transient step would spend the coarse mode's < 2 % overhead
    /// budget on timestamps alone (same reasoning as
    /// [`Telemetry::timer_fine`]). Rare, diagnosis-critical events
    /// (divergence, LTE rejects, pivot fallbacks, degradations) stay on
    /// the coarse [`Telemetry::event`] path.
    #[inline]
    pub fn event_fine(&self, make: impl FnOnce() -> EventKind) {
        if self.is_fine() {
            self.event(make);
        }
    }

    /// Routes a silent-degradation warning through both channels: the
    /// once-per-process stderr line ([`warn_once`], silenced by
    /// `CML_QUIET`) and — when this handle records — a
    /// [`EventKind::Degradation`] event plus the
    /// [`Counters::degradation_warnings`] counter, which `CML_QUIET`
    /// never silences.
    pub fn degradation(&self, code: &'static str, message: &str) {
        warn_once(code, message);
        if let Some(rec) = &self.rec {
            let mut r = rec.borrow_mut();
            let t = r.tick();
            r.counters.events_emitted += 1;
            r.counters.degradation_warnings += 1;
            let tid = self.tid;
            r.events
                .push(EventKind::Degradation { code: code.into() }, t, tid);
        }
    }

    /// Clears the per-attempt Newton residual trajectory (called at the
    /// start of every solve attempt).
    #[inline]
    pub fn trajectory_reset(&self) {
        if let Some(rec) = &self.rec {
            rec.borrow_mut().trajectory.clear();
        }
    }

    /// Appends one iteration's convergence residual (`max |Δx|`) to the
    /// trajectory of the current solve attempt.
    #[inline]
    pub fn trajectory_push(&self, residual: f64) {
        if let Some(rec) = &self.rec {
            rec.borrow_mut().trajectory.push(residual);
        }
    }

    /// The residual trajectory of the most recent solve attempt recorded
    /// on this handle (empty when disabled or nothing solved yet).
    #[must_use]
    pub fn residual_trajectory(&self) -> Vec<f64> {
        match &self.rec {
            Some(rec) => rec.borrow().trajectory.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the events currently held by the ring, oldest first.
    #[must_use]
    pub fn events_snapshot(&self) -> Vec<Event> {
        match &self.rec {
            Some(rec) => rec.borrow().events.snapshot(),
            None => Vec::new(),
        }
    }

    /// Events evicted from this handle's ring by overflow (including
    /// evictions while absorbing worker rings). Deliberately *not* a
    /// [`Counters`] field: per-worker rings drop scheduling-dependent
    /// subsets, so the total is not thread-invariant.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        match &self.rec {
            Some(rec) => rec.borrow().events.dropped(),
            None => 0,
        }
    }

    /// Replaces this handle's event ring with an empty one of `capacity`
    /// slots (builder-style; for tests and long-lived service handles —
    /// forked worker handles keep [`DEFAULT_EVENT_CAPACITY`]).
    #[must_use]
    pub fn with_event_capacity(self, capacity: usize) -> Self {
        if let Some(rec) = &self.rec {
            rec.borrow_mut().events = EventRing::with_capacity(capacity);
        }
        self
    }

    /// Opens a coarse span; the returned guard records it when dropped.
    #[inline]
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.open_span(cat, name, self.rec.is_some())
    }

    /// Opens a span only in fine mode (per-solve granularity).
    #[inline]
    #[must_use = "the span closes when the guard drops"]
    pub fn span_fine(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.open_span(cat, name, self.is_fine())
    }

    fn open_span(&self, cat: &'static str, name: &'static str, active: bool) -> SpanGuard<'_> {
        let start_ns = if active {
            if let Some(rec) = &self.rec {
                let mut r = rec.borrow_mut();
                r.depth += 1;
                r.open_spans += 1;
                r.tick()
            } else {
                now_ns()
            }
        } else {
            0
        };
        SpanGuard {
            tel: self,
            cat,
            name,
            start_ns,
            active,
        }
    }

    /// Starts an always-on (cold-phase) accumulating timer.
    #[inline]
    #[must_use = "the timer records when the guard drops"]
    pub fn timer(&self, phase: Phase) -> TimerGuard<'_> {
        TimerGuard {
            tel: self,
            phase,
            start_ns: if self.rec.is_some() { now_ns() } else { 0 },
            active: self.rec.is_some(),
        }
    }

    /// Starts a hot-phase timer, active only in fine mode.
    #[inline]
    #[must_use = "the timer records when the guard drops"]
    pub fn timer_fine(&self, phase: Phase) -> TimerGuard<'_> {
        let active = self.is_fine();
        TimerGuard {
            tel: self,
            phase,
            start_ns: if active { now_ns() } else { 0 },
            active,
        }
    }

    /// A `Copy + Send + Sync` token parallel workers fork private
    /// handles from.
    #[must_use]
    pub fn probe(&self) -> Probe {
        Probe {
            enabled: self.rec.is_some(),
            fine: self.fine,
        }
    }

    /// Consumes a forked handle into its mergeable buffers (`None` when
    /// the handle was disabled, so workers can return it unconditionally).
    #[must_use]
    pub fn into_parts(self) -> Option<Parts> {
        self.rec.map(|rec| {
            let r = rec.into_inner();
            Parts {
                counters: r.counters,
                timings: r.timings,
                spans: r.spans,
                events: r.events,
            }
        })
    }

    /// Merges a forked worker's buffers into this handle. Call in input
    /// order after the join; counter totals are then independent of the
    /// scheduling that produced the parts.
    pub fn absorb(&self, parts: Option<Parts>) {
        let (Some(rec), Some(p)) = (&self.rec, parts) else {
            return;
        };
        let mut r = rec.borrow_mut();
        r.counters.merge(&p.counters);
        r.timings.merge(&p.timings);
        r.spans.extend(p.spans);
        r.events.absorb(p.events);
    }

    /// Records the per-worker item counts of an instrumented `par_map`
    /// fan-out (scheduling-dependent; reported outside [`Counters`]).
    pub fn note_worker_items(&self, items_per_worker: &[usize]) {
        if let Some(rec) = &self.rec {
            rec.borrow_mut().worker_items = items_per_worker.iter().map(|&n| n as u64).collect();
        }
    }

    /// Snapshots the recorded state into a typed [`SolverReport`].
    #[must_use]
    pub fn report(&self) -> SolverReport {
        match &self.rec {
            Some(rec) => {
                let r = rec.borrow();
                SolverReport {
                    enabled: true,
                    counters: r.counters.clone(),
                    timings: r.timings.clone(),
                    spans: r.spans.clone(),
                    open_spans: r.open_spans,
                    worker_items: r.worker_items.clone(),
                    peak_rss: peak_rss(),
                    events: r.events.snapshot(),
                    events_dropped: r.events.dropped(),
                    residual_trajectory: r.trajectory.clone(),
                }
            }
            None => SolverReport::default(),
        }
    }

    /// Writes every sink configured from the environment, returning the
    /// paths written (empty when disabled or no sinks are configured).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure.
    pub fn flush(&self) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if self.rec.is_none() {
            return Ok(written);
        }
        let report = self.report();
        for sink in &self.sinks {
            match sink {
                Sink::Json(path) => report.write_json(path)?,
                Sink::Trace(path) => report.write_chrome_trace(path)?,
            }
            written.push(match sink {
                Sink::Json(p) | Sink::Trace(p) => p.clone(),
            });
        }
        Ok(written)
    }
}

/// RAII guard for one span; records on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        if let Some(rec) = &self.tel.rec {
            let mut r = rec.borrow_mut();
            let end = r.tick();
            r.depth = r.depth.saturating_sub(1);
            r.open_spans = r.open_spans.saturating_sub(1);
            let depth = r.depth;
            let tid = self.tel.tid;
            r.spans.push(SpanRecord {
                name: self.name,
                cat: self.cat,
                tid,
                depth,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
            });
        }
    }
}

/// RAII guard for one accumulated-phase timing; records on drop.
#[derive(Debug)]
pub struct TimerGuard<'a> {
    tel: &'a Telemetry,
    phase: Phase,
    start_ns: u64,
    active: bool,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        if let Some(rec) = &self.tel.rec {
            let mut r = rec.borrow_mut();
            let i = self.phase.index();
            r.timings.ns[i] += dur;
            r.timings.calls[i] += 1;
        }
    }
}

/// A `Copy + Send + Sync` token carrying a handle's enablement across
/// thread boundaries, so `par_map` workers can fork private recording
/// buffers (`Telemetry` itself is deliberately not `Sync`).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    enabled: bool,
    fine: bool,
}

impl Probe {
    /// Forks a private handle for one worker. `tid` labels the worker's
    /// spans on the trace timeline (the spawning handle is tid 0; pass
    /// e.g. `chunk_index + 1`). Returns a disabled handle when the
    /// source handle was disabled — fork unconditionally.
    #[must_use]
    pub fn fork(&self, tid: u32) -> Telemetry {
        if !self.enabled {
            return Telemetry::disabled();
        }
        Telemetry {
            fine: self.fine,
            tid,
            sinks: Vec::new(),
            rec: Some(RefCell::new(Recorder::default())),
        }
    }
}

// ---------------------------------------------------------------------
// Report and sinks
// ---------------------------------------------------------------------

/// Schema tag stamped into the JSON sink (validated by CI).
pub const REPORT_SCHEMA: &str = "cml-telemetry-v1";

/// Typed, queryable snapshot of everything a [`Telemetry`] handle
/// recorded — the in-memory sink.
#[derive(Debug, Clone, Default)]
pub struct SolverReport {
    /// Whether the producing handle was recording at all.
    pub enabled: bool,
    /// Deterministic solver event counts.
    pub counters: Counters,
    /// Accumulated phase timings (wall-clock; not deterministic).
    pub timings: Timings,
    /// Closed spans, ordered by end time within each `tid`.
    pub spans: Vec<SpanRecord>,
    /// Spans still open at snapshot time (0 for a quiesced run).
    pub open_spans: u64,
    /// Items processed per worker in the most recent instrumented
    /// fan-out (scheduling-dependent).
    pub worker_items: Vec<u64>,
    /// Peak resident-set size of the process at snapshot time (Linux
    /// `VmHWM`), with a typed [`PeakRss::Unavailable`] marker on
    /// platforms without it — a silent 0 would read as "flat memory".
    /// A gauge, not a counter: non-deterministic and process-wide,
    /// which is exactly what the flat-memory benchmarks need to assert
    /// against.
    pub peak_rss: PeakRss,
    /// Events held by the ring at snapshot time, oldest first (the
    /// newest N emitted; see [`EventRing`]).
    pub events: Vec<Event>,
    /// Events evicted from the ring by overflow. Scheduling-dependent
    /// under parallel merges, hence outside [`Counters`].
    pub events_dropped: u64,
    /// Per-iteration Newton residuals of the most recent solve attempt
    /// recorded on the snapshotted handle.
    pub residual_trajectory: Vec<f64>,
}

impl SolverReport {
    /// Checks that the recorded spans form a proper forest per `tid`:
    /// any two spans on one timeline are either disjoint or strictly
    /// nested (with the inner one deeper). Returns the first violating
    /// pair's names on failure.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_well_nested(&self) -> Result<(), String> {
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let mut spans: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.tid == tid).collect();
            // Sort by start; ties broken outermost (longest) first.
            spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            let mut stack: Vec<&SpanRecord> = Vec::new();
            for s in spans {
                while let Some(top) = stack.last() {
                    if s.start_ns >= top.start_ns + top.dur_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    let end = s.start_ns + s.dur_ns;
                    let top_end = top.start_ns + top.dur_ns;
                    if end > top_end {
                        return Err(format!(
                            "span `{}` [{}, {}) overlaps `{}` [{}, {}) on tid {tid} \
                             without nesting",
                            s.name, s.start_ns, end, top.name, top.start_ns, top_end
                        ));
                    }
                    if s.depth <= top.depth {
                        return Err(format!(
                            "span `{}` (depth {}) nests inside `{}` (depth {}) on tid {tid} \
                             but is not deeper",
                            s.name, s.depth, top.name, top.depth
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }

    /// Renders the report as the JSON tree written by the `json:` sink.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(REPORT_SCHEMA.into())),
            ("enabled".into(), Value::Bool(self.enabled)),
            ("counters".into(), self.counters.to_value()),
            (
                "derived".into(),
                Value::Obj(vec![
                    (
                        "reuse_hit_rate".into(),
                        Value::Num(self.counters.reuse_hit_rate()),
                    ),
                    (
                        "lte_reject_ratio".into(),
                        Value::Num(self.counters.lte_reject_ratio()),
                    ),
                    (
                        "ac_sparse_fraction".into(),
                        Value::Num(self.counters.ac_sparse_fraction()),
                    ),
                    (
                        "lane_occupancy".into(),
                        Value::Num(self.counters.lane_occupancy()),
                    ),
                    (
                        "lane_fallback_rate".into(),
                        Value::Num(self.counters.lane_fallback_rate()),
                    ),
                ]),
            ),
            ("timings_ns".into(), self.timings.to_value()),
            ("spans".into(), Value::Num(self.spans.len() as f64)),
            ("open_spans".into(), Value::Num(self.open_spans as f64)),
            (
                "worker_items".into(),
                Value::Arr(
                    self.worker_items
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            ("peak_rss_bytes".into(), self.peak_rss.to_value()),
            (
                "events".into(),
                Value::Arr(self.events.iter().map(Event::to_value).collect()),
            ),
            (
                "events_dropped".into(),
                Value::Num(self.events_dropped as f64),
            ),
            (
                "residual_trajectory".into(),
                Value::Arr(
                    self.residual_trajectory
                        .iter()
                        .map(|&r| Value::Num(r))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(&self.to_value())
            .map_err(|e| io::Error::other(format!("telemetry json render: {e:?}")))?;
        std::fs::write(path, format!("{json}\n"))
    }

    /// Renders the spans in the Chrome trace-event format (a JSON object
    /// with a `traceEvents` array of `ph: "X"` complete events), loadable
    /// in `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&s);
        };
        push(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"cml-spice solver\"}}"
                .to_string(),
            &mut out,
            &mut first,
        );
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let label = if *tid == 0 {
                "main".to_string()
            } else {
                format!("worker-{tid}")
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{label}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        for s in &self.spans {
            // Timestamps are microseconds (float) in the trace format.
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                    s.name,
                    s.cat,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.tid
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// Writes the Chrome trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
}

// ---------------------------------------------------------------------
// Process gauges
// ---------------------------------------------------------------------

/// Peak resident-set size reading, with a typed marker for platforms
/// that cannot report one. The distinction matters to consumers: a
/// flat-memory assertion against a silent `0` would pass vacuously,
/// and a metrics scraper must be able to tell "small" from "unknown".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeakRss {
    /// `VmHWM` in bytes.
    Bytes(u64),
    /// No readable high-water mark on this platform (no procfs, or the
    /// field is missing/unparsable).
    #[default]
    Unavailable,
}

impl PeakRss {
    /// The reading in bytes, or `None` when unavailable.
    #[must_use]
    pub fn bytes(self) -> Option<u64> {
        match self {
            PeakRss::Bytes(b) => Some(b),
            PeakRss::Unavailable => None,
        }
    }

    /// JSON rendering: a number, or the string `"unavailable"` (typed
    /// marker — deliberately not `0` and not `null`, so schema checks
    /// can distinguish the platform gap from a missing field).
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            PeakRss::Bytes(b) => Value::Num(b as f64),
            PeakRss::Unavailable => Value::Str("unavailable".into()),
        }
    }
}

/// Peak resident-set size of the current process, read from
/// `/proc/self/status` (`VmHWM`). Returns [`PeakRss::Unavailable`] on
/// platforms without procfs or if the field is missing/unparsable. This
/// is a high-water mark: it only ever grows, so "peak memory stayed
/// flat" is asserted by sampling it before and after the workload and
/// bounding the delta.
#[must_use]
pub fn peak_rss() -> PeakRss {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return PeakRss::Unavailable;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let Ok(kb) = rest.trim().trim_end_matches("kB").trim().parse::<u64>() else {
                return PeakRss::Unavailable;
            };
            return PeakRss::Bytes(kb * 1024);
        }
    }
    PeakRss::Unavailable
}

/// [`peak_rss`] flattened to an `Option` (compatibility shim for the
/// flat-memory benches; prefer the typed [`PeakRss`]).
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss().bytes()
}

// ---------------------------------------------------------------------
// Degradation warnings
// ---------------------------------------------------------------------

/// Whether degradation warnings are suppressed (`CML_QUIET=1`; read
/// once).
#[must_use]
pub fn quiet() -> bool {
    static CACHED: OnceLock<bool> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var(QUIET_ENV)
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
            })
            .unwrap_or(false)
    })
}

/// Emits a one-line warning to stderr, at most once per `code` per
/// process (silent degradations like the permanent dense fallback call
/// this so a 6× regression is no longer invisible). Suppressed entirely
/// by `CML_QUIET=1`. Independent of any [`Telemetry`] handle: the
/// warning fires even with telemetry disabled.
pub fn warn_once(code: &'static str, message: &str) {
    if quiet() {
        return;
    }
    static SEEN: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(Vec::new()));
    let Ok(mut guard) = seen.lock() else {
        return;
    };
    if guard.contains(&code) {
        return;
    }
    guard.push(code);
    eprintln!("cml: warning [{code}]: {message} (once per process; silence with {QUIET_ENV}=1)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _s = tel.span("analysis", "op");
            let _t = tel.timer(Phase::LintPrecheck);
            tel.count(|c| c.newton_solves += 1);
        }
        let report = tel.report();
        assert!(!report.enabled);
        assert_eq!(report.counters, Counters::default());
        assert!(report.spans.is_empty());
        assert!(tel.flush().unwrap().is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        let tel = Telemetry::enabled();
        {
            let _a = tel.span("analysis", "tran");
            {
                let _b = tel.span("phase", "stepping");
            }
        }
        let report = tel.report();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.open_spans, 0);
        // Inner closes first.
        assert_eq!(report.spans[0].name, "stepping");
        assert_eq!(report.spans[0].depth, 1);
        assert_eq!(report.spans[1].name, "tran");
        assert_eq!(report.spans[1].depth, 0);
        report.check_well_nested().unwrap();
    }

    #[test]
    fn nesting_violation_is_detected() {
        let report = SolverReport {
            enabled: true,
            spans: vec![
                SpanRecord {
                    name: "a",
                    cat: "t",
                    tid: 0,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 100,
                },
                SpanRecord {
                    name: "b",
                    cat: "t",
                    tid: 0,
                    depth: 1,
                    start_ns: 50,
                    dur_ns: 100,
                },
            ],
            ..SolverReport::default()
        };
        assert!(report.check_well_nested().is_err());
    }

    #[test]
    fn fine_spans_gated() {
        let coarse = Telemetry::enabled();
        {
            let _s = coarse.span_fine("solver", "newton");
        }
        assert!(coarse.report().spans.is_empty());
        let fine = Telemetry::enabled_fine();
        {
            let _s = fine.span_fine("solver", "newton");
        }
        assert_eq!(fine.report().spans.len(), 1);
    }

    #[test]
    fn probe_fork_and_absorb_merge_counters() {
        let tel = Telemetry::enabled();
        let probe = tel.probe();
        let parts: Vec<_> = (0..4)
            .map(|i| {
                let worker = probe.fork(i + 1);
                worker.count(|c| c.ac_points += 10);
                let _s = worker.span("phase", "ac_chunk");
                drop(_s);
                worker.into_parts()
            })
            .collect();
        for p in parts {
            tel.absorb(p);
        }
        let report = tel.report();
        assert_eq!(report.counters.ac_points, 40);
        assert_eq!(report.spans.len(), 4);
        // Distinct worker tids.
        let tids: Vec<u32> = report.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn disabled_probe_forks_disabled() {
        let tel = Telemetry::disabled();
        let w = tel.probe().fork(1);
        assert!(!w.is_enabled());
        assert!(w.into_parts().is_none());
    }

    #[test]
    fn dt_histogram_buckets() {
        let mut c = Counters::default();
        c.record_dt(1e-12, 1e-12); // nominal
        c.record_dt(0.5e-12, 1e-12); // half
        c.record_dt(1e-12 / 4096.0, 1e-12); // max shrink
        c.record_dt(1e-9, 1e-12); // way past the top → clamped
        assert_eq!(c.dt_histogram[DT_BUCKET_ZERO], 1);
        assert_eq!(c.dt_histogram[DT_BUCKET_ZERO - 1], 1);
        assert_eq!(c.dt_histogram[0], 1);
        assert_eq!(c.dt_histogram[DT_BUCKETS - 1], 1);
    }

    #[test]
    fn derived_rates() {
        let mut c = Counters::default();
        assert_eq!(c.reuse_hit_rate(), 0.0);
        c.factor_reuse_hits = 3;
        c.full_factorizations = 1;
        assert!((c.reuse_hit_rate() - 0.75).abs() < 1e-12);
        c.lte_accepts = 9;
        c.lte_rejects = 1;
        assert!((c.lte_reject_ratio() - 0.1).abs() < 1e-12);
        c.ac_points = 4;
        c.ac_points_sparse = 3;
        assert!((c.ac_sparse_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(c.lane_occupancy(), 0.0);
        assert_eq!(c.lane_fallback_rate(), 0.0);
        c.batch_solves = 10;
        c.batch_lane_slots = 80;
        c.batch_lanes_active = 60;
        assert!((c.lane_occupancy() - 0.75).abs() < 1e-12);
        c.trials_total = 200;
        c.lane_fallbacks = 5;
        assert!((c.lane_fallback_rate() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn batch_counters_merge_and_render() {
        let mut a = Counters {
            trials_total: 100,
            batch_solves: 4,
            batch_lane_slots: 32,
            batch_lanes_active: 30,
            lane_fallbacks: 1,
            ..Counters::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.trials_total, 200);
        assert_eq!(a.batch_lane_slots, 64);
        assert_eq!(a.lane_fallbacks, 2);
        let Value::Obj(fields) = a.to_value() else {
            panic!("counters must render as an object")
        };
        for key in [
            "trials_total",
            "batch_solves",
            "batch_lane_slots",
            "batch_lanes_active",
            "lane_fallbacks",
        ] {
            assert!(fields.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }

    #[test]
    fn counters_merge_is_fieldwise_sum() {
        let mut a = Counters {
            newton_solves: 1,
            ..Counters::default()
        };
        a.dt_histogram[3] = 2;
        let mut b = Counters {
            newton_solves: 2,
            dense_fallbacks: 1,
            ..Counters::default()
        };
        b.dt_histogram[3] = 5;
        a.merge(&b);
        assert_eq!(a.newton_solves, 3);
        assert_eq!(a.dense_fallbacks, 1);
        assert_eq!(a.dt_histogram[3], 7);
    }

    #[test]
    fn chrome_trace_renders_events() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("analysis", "ac");
        }
        let trace = tel.report().chrome_trace_json();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\":\"ac\""));
        assert!(trace.contains("\"ph\":\"X\""));
        // Valid JSON (parseable by the vendored shim).
        let parsed: Value = serde_json::from_str(&trace).expect("trace must be valid JSON");
        let Value::Obj(fields) = parsed else {
            panic!("trace root must be an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn report_json_roundtrips_and_carries_schema() {
        let tel = Telemetry::enabled();
        tel.count(|c| c.newton_solves = 7);
        let json = serde_json::to_string_pretty(&tel.report().to_value()).unwrap();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let Value::Obj(fields) = &parsed else {
            panic!("report must be an object")
        };
        assert!(fields
            .iter()
            .any(|(k, v)| k == "schema" && *v == Value::Str(REPORT_SCHEMA.into())));
        assert!(fields.iter().any(|(k, _)| k == "counters"));
    }

    #[test]
    fn env_spec_parsing() {
        // An unknown token such as `prom:` is ignored with a warning.
        let tel = Telemetry::enabled()
            .with_env_spec("json:/tmp/a.json, trace:/tmp/b.json ,prom:/tmp/c.prom ,fine");
        assert!(tel.is_fine());
        assert_eq!(
            tel.sinks,
            vec![
                Sink::Json(PathBuf::from("/tmp/a.json")),
                Sink::Trace(PathBuf::from("/tmp/b.json")),
            ]
        );
    }

    #[test]
    fn disabled_handle_skips_event_construction() {
        let tel = Telemetry::disabled();
        tel.event(|| panic!("EventKind must not be constructed on a disabled handle"));
        tel.trajectory_push(1.0);
        assert!(tel.events_snapshot().is_empty());
        assert!(tel.residual_trajectory().is_empty());
        assert_eq!(tel.events_dropped(), 0);
    }

    #[test]
    fn events_count_and_snapshot() {
        let tel = Telemetry::enabled();
        tel.event(|| EventKind::LintRejected { errors: 2 });
        tel.event(|| EventKind::LteReject {
            t: 1e-9,
            dt: 1e-12,
            node: 3,
        });
        let report = tel.report();
        assert_eq!(report.counters.events_emitted, 2);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].kind.name(), "lint_rejected");
        assert_eq!(report.events[1].seq, 1);
        // Timestamps strictly increase on one handle's timeline.
        assert!(report.events[1].t_ns > report.events[0].t_ns);
    }

    #[test]
    fn degradation_counts_and_logs() {
        let tel = Telemetry::enabled();
        tel.degradation("test-degradation-a", "a thing fell back");
        tel.degradation("test-degradation-a", "a thing fell back");
        let report = tel.report();
        assert_eq!(report.counters.degradation_warnings, 2);
        assert_eq!(report.counters.events_emitted, 2);
        assert!(matches!(
            &report.events[0].kind,
            EventKind::Degradation { code } if code == "test-degradation-a"
        ));
    }

    #[test]
    fn absorb_merges_events_thread_invariantly() {
        // The same 12 per-point events split over 1, 2 and 4 workers
        // must produce identical counter totals and event multisets.
        let totals: Vec<(u64, Vec<&'static str>)> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                let tel = Telemetry::enabled();
                let probe = tel.probe();
                let parts: Vec<_> = (0..workers)
                    .map(|w| {
                        let worker = probe.fork(w as u32 + 1);
                        for _ in 0..12 / workers {
                            worker.event(|| EventKind::LteReject {
                                t: 0.0,
                                dt: 1e-12,
                                node: 0,
                            });
                        }
                        worker.into_parts()
                    })
                    .collect();
                for p in parts {
                    tel.absorb(p);
                }
                let r = tel.report();
                (
                    r.counters.events_emitted,
                    r.events.iter().map(|e| e.kind.name()).collect(),
                )
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
        assert_eq!(totals[0].0, 12);
    }

    #[test]
    fn trajectory_resets_per_attempt() {
        let tel = Telemetry::enabled();
        tel.trajectory_reset();
        tel.trajectory_push(1.0);
        tel.trajectory_push(0.1);
        assert_eq!(tel.residual_trajectory(), vec![1.0, 0.1]);
        tel.trajectory_reset();
        tel.trajectory_push(7.0);
        assert_eq!(tel.residual_trajectory(), vec![7.0]);
        assert_eq!(tel.report().residual_trajectory, vec![7.0]);
    }

    #[test]
    fn report_json_carries_events_and_peak_rss_marker() {
        let tel = Telemetry::enabled();
        tel.event(|| EventKind::PivotFallback {
            column: 3,
            pivot: 1e-320,
        });
        let json = serde_json::to_string_pretty(&tel.report().to_value()).unwrap();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let Value::Obj(fields) = &parsed else {
            panic!("report must be an object")
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Value::Null)
        };
        assert!(matches!(get("events"), Value::Arr(a) if a.len() == 1));
        assert!(matches!(get("events_dropped"), Value::Num(_)));
        assert!(matches!(get("residual_trajectory"), Value::Arr(_)));
        // The gauge is either a number (Linux) or the typed marker —
        // never null, never a silent zero for the unavailable case.
        match get("peak_rss_bytes") {
            Value::Num(b) => assert!(*b > 0.0),
            Value::Str(s) => assert_eq!(s, "unavailable"),
            other => panic!("peak_rss_bytes must be number or marker, got {other:?}"),
        }
    }

    #[test]
    fn timer_accumulates() {
        let tel = Telemetry::enabled();
        {
            let _t = tel.timer(Phase::LintPrecheck);
        }
        {
            let _t = tel.timer(Phase::LintPrecheck);
        }
        let r = tel.report();
        assert_eq!(r.timings.calls[Phase::LintPrecheck.index()], 2);
        // Fine timers are inert on a coarse handle.
        {
            let _t = tel.timer_fine(Phase::Factor);
        }
        assert_eq!(tel.report().timings.calls[Phase::Factor.index()], 0);
    }
}
