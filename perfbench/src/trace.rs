//! The traced run: per-layer counts and times of each workload.
//!
//! Jobs alternate untraced and traced on identical content. The
//! untraced twin gives the tracing overhead; the traced one gives the
//! layer table. Counts come from `SolverReport` counters, `*_ms` from
//! the benchmark's spans or the fine phase timers, and `*_us` from the
//! outside probes. Every figure is a mean per traced job.
//!
//! Self times are disjoint, so they add up to the job:
//!
//! - `newton.self_ms` = scalar Newton time − stamp − LU − pattern discovery
//! - `tran.self_ms` = transient span − lint − Newton − sinks
//! - `op.self_ms` = operating-point span − lint − Newton
//! - `ac.self_ms` = AC span − lint − pattern discovery
//! - `yield.self_ms` = yield span − lint − batched solves
//!
//! where stamp and LU are the probe unit costs times the counts.
//! `trace.unattributed_frac` is 1 − Σ(self times) / job time.

use crate::layers::{elapsed_ns, JobTrace, Mode, Span, N_SPANS};
use crate::probe::{self, UnitCosts};
use crate::workloads::Workload;
use cml_spice::telemetry::{Counters, Phase, Timings};
use std::time::Instant;

/// Counters and phase timings merged over the calls of one kind.
#[derive(Default)]
struct Merged {
    c: Counters,
    t: Timings,
}

impl Merged {
    fn ms(&self, phase: Phase) -> f64 {
        self.t.ns[phase.index()] as f64 / 1e6
    }
}

/// Sums over the traced jobs.
#[derive(Default)]
struct Totals {
    jobs: u64,
    /// Traced job wall time minus the trace's own bookkeeping.
    job_ns: u64,
    span_ns: [u64; N_SPANS],
    sink_ns: u64,
    sink_chunks: u64,
    sink_samples: u64,
    /// Scalar-Newton calls: operating points and transients.
    op: Merged,
    tran: Merged,
    ac: Merged,
    yld: Merged,
}

impl Totals {
    fn add(&mut self, tr: &JobTrace, job_ns: u64) {
        self.jobs += 1;
        self.job_ns += job_ns;
        for (a, b) in self.span_ns.iter_mut().zip(tr.span_ns) {
            *a += b;
        }
        self.sink_ns += tr.sink_ns;
        self.sink_chunks += tr.sink_chunks;
        self.sink_samples += tr.sink_samples;
        for (span, report) in &tr.reports {
            let m = match span {
                Span::Op => &mut self.op,
                Span::Tran => &mut self.tran,
                Span::Ac => &mut self.ac,
                Span::Yield => &mut self.yld,
                Span::Build | Span::Check => continue,
            };
            m.c.merge(&report.counters);
            m.t.merge(&report.timings);
        }
    }

    fn span_ms(&self, span: Span) -> f64 {
        self.span_ns[span as usize] as f64 / 1e6
    }
}

/// One per-layer metric: name, unit, per-job value.
pub type Metric = (&'static str, &'static str, f64);

/// Runs the traced loop for `seconds` and returns the per-layer table.
pub fn run(
    w: &mut Workload,
    seconds: f64,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<Vec<Metric>, String> {
    let (ckt, mode) = w.probe_circuit();
    let unit = probe::unit_costs(&ckt, mode)?;

    let mut totals = Totals::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut index = 1;
    while index == 1 || start.elapsed().as_secs_f64() < seconds {
        let mut off = JobTrace::new(Mode::Off);
        let t = Instant::now();
        let plain = w.run_job(index, &mut off);
        plain_ms.push(elapsed_ns(t) as f64 / 1e6);

        let mut tr = JobTrace::new(Mode::Fine);
        let t = Instant::now();
        let traced = w.run_job(index, &mut tr);
        let wall = elapsed_ns(t);
        traced_ms.push(wall as f64 / 1e6);
        *attempted += 2;
        for res in [&plain, &traced] {
            if let Err(e) = res {
                *failed += 1;
                eprintln!("job {index} failed: {e}");
            }
        }
        if traced.is_ok() {
            totals.add(&tr, wall.saturating_sub(tr.bookkeeping_ns));
        }
        index += 1;
    }
    if totals.jobs == 0 {
        return Err("no traced job succeeded".to_string());
    }
    let overhead = crate::median(&mut traced_ms) / crate::median(&mut plain_ms) - 1.0;
    Ok(table(&totals, &unit, overhead))
}

/// The per-layer table from the traced totals.
fn table(t: &Totals, u: &UnitCosts, overhead: f64) -> Vec<Metric> {
    let jobs = t.jobs as f64;
    let per = |x: f64| x / jobs;
    let count = |x: u64| x as f64 / jobs;

    // Scalar Newton: operating points plus transients.
    let mut sc = Counters::default();
    sc.merge(&t.op.c);
    sc.merge(&t.tran.c);
    let mut all = sc.clone();
    all.merge(&t.ac.c);
    all.merge(&t.yld.c);
    let phase_sum = |p: Phase, ms: &[&Merged]| ms.iter().map(|m| m.ms(p)).sum::<f64>();
    let scalar = [&t.op, &t.tran];
    let everywhere = [&t.op, &t.tran, &t.ac, &t.yld];

    let solves = sc.sparse_solves + sc.dense_solves;
    // Every Newton iteration stamps the devices; every step either
    // restamps the linear elements or, reusing their cached matrix,
    // only their right-hand side.
    let stamp_ms = (sc.newton_iterations as f64 * u.stamp_nonlinear_us
        + sc.lin_stamp_builds as f64 * u.stamp_linear_us
        + sc.lin_stamp_hits as f64 * u.stamp_linear_rhs_us)
        / 1e3;
    let lu_ms = ((sc.full_factorizations + sc.pivot_fallbacks) as f64 * u.factor_us
        + sc.refactorizations as f64 * u.refactor_us
        + solves as f64 * u.solve_us)
        / 1e3;
    let lint_ms = phase_sum(Phase::LintPrecheck, &everywhere);
    let pattern_ms = phase_sum(Phase::PatternDiscovery, &[&t.op, &t.tran, &t.ac]);
    let newton_ms = phase_sum(Phase::NewtonSolve, &scalar);
    let newton_self = newton_ms - stamp_ms - lu_ms - phase_sum(Phase::PatternDiscovery, &scalar);
    let sink_ms = t.sink_ns as f64 / 1e6;
    let tran_self = t.span_ms(Span::Tran)
        - t.tran.ms(Phase::LintPrecheck)
        - t.tran.ms(Phase::NewtonSolve)
        - sink_ms;
    let op_self = t.span_ms(Span::Op) - t.op.ms(Phase::LintPrecheck) - t.op.ms(Phase::NewtonSolve);
    let ac_self =
        t.span_ms(Span::Ac) - t.ac.ms(Phase::LintPrecheck) - t.ac.ms(Phase::PatternDiscovery);
    let batch_ms = t.yld.ms(Phase::BatchSolve);
    let yield_self = t.span_ms(Span::Yield) - t.yld.ms(Phase::LintPrecheck) - batch_ms;
    let attributed = t.span_ms(Span::Build)
        + t.span_ms(Span::Check)
        + lint_ms
        + pattern_ms
        + stamp_ms
        + lu_ms
        + newton_self
        + tran_self
        + op_self
        + ac_self
        + batch_ms
        + yield_self
        + sink_ms;
    let job_ms = t.job_ns as f64 / 1e6;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let lte_decisions = sc.lte_accepts + sc.lte_rejects;

    vec![
        ("job.traced_ms", "ms/job", per(job_ms)),
        ("cells.build_ms", "ms/job", per(t.span_ms(Span::Build))),
        ("check.ms", "ms/job", per(t.span_ms(Span::Check))),
        ("lint.prechecks", "count/job", count(all.lint_prechecks)),
        ("lint.precheck_ms", "ms/job", per(lint_ms)),
        ("cache.hits", "count/job", count(all.cache_hits)),
        ("cache.misses", "count/job", count(all.cache_misses)),
        (
            "cache.hit_rate",
            "ratio",
            ratio(all.cache_hits, all.cache_hits + all.cache_misses),
        ),
        ("newton.solves", "count/job", count(sc.newton_solves)),
        (
            "newton.iterations",
            "count/job",
            count(sc.newton_iterations),
        ),
        (
            "newton.iters_per_solve",
            "ratio",
            ratio(sc.newton_iterations, sc.newton_solves),
        ),
        ("newton.retries", "count/job", count(sc.newton_retries)),
        ("newton.solve_ms", "ms/job", per(newton_ms)),
        ("newton.self_ms", "ms/job", per(newton_self)),
        ("op.self_ms", "ms/job", per(op_self)),
        ("tran.steps", "count/job", count(sc.tran_steps)),
        ("tran.lte_rejects", "count/job", count(sc.lte_rejects)),
        (
            "tran.lte_accept_ratio",
            "ratio",
            if lte_decisions == 0 {
                1.0
            } else {
                ratio(sc.lte_accepts, lte_decisions)
            },
        ),
        (
            "tran.breakpoint_restarts",
            "count/job",
            count(sc.breakpoint_restarts),
        ),
        ("tran.self_ms", "ms/job", per(tran_self)),
        ("stamp.pass_us", "us", u.stamp_full_us),
        ("stamp.nonlinear_pass_us", "us", u.stamp_nonlinear_us),
        ("stamp.linear_pass_us", "us", u.stamp_linear_us),
        ("stamp.linear_rhs_pass_us", "us", u.stamp_linear_rhs_us),
        ("stamp.lin_hits", "count/job", count(sc.lin_stamp_hits)),
        ("stamp.lin_builds", "count/job", count(sc.lin_stamp_builds)),
        (
            "stamp.pattern_builds",
            "count/job",
            count(sc.pattern_builds),
        ),
        ("stamp.pattern_ms", "ms/job", per(pattern_ms)),
        ("stamp.est_ms", "ms/job", per(stamp_ms)),
        ("lu.dim", "count", u.dim as f64),
        (
            "lu.full_factorizations",
            "count/job",
            count(sc.full_factorizations),
        ),
        (
            "lu.refactorizations",
            "count/job",
            count(sc.refactorizations),
        ),
        ("lu.reuse_hits", "count/job", count(sc.factor_reuse_hits)),
        ("lu.pivot_fallbacks", "count/job", count(sc.pivot_fallbacks)),
        ("lu.sparse_solves", "count/job", count(sc.sparse_solves)),
        ("lu.dense_solves", "count/job", count(sc.dense_solves)),
        (
            "lu.factor_ms",
            "ms/job",
            per(phase_sum(Phase::Factor, &scalar)),
        ),
        (
            "lu.refactor_ms",
            "ms/job",
            per(phase_sum(Phase::Refactor, &scalar)),
        ),
        (
            "lu.backsub_ms",
            "ms/job",
            per(phase_sum(Phase::BackSubstitute, &scalar)),
        ),
        ("lu.refactor_us", "us", u.refactor_us),
        ("lu.solve_us", "us", u.solve_us),
        ("lu.est_ms", "ms/job", per(lu_ms)),
        ("ac.points", "count/job", count(t.ac.c.ac_points)),
        (
            "ac.point_fallbacks",
            "count/job",
            count(t.ac.c.ac_point_fallbacks),
        ),
        ("ac.sweep_ms", "ms/job", per(t.span_ms(Span::Ac))),
        ("ac.self_ms", "ms/job", per(ac_self)),
        ("batch.solves", "count/job", count(t.yld.c.batch_solves)),
        (
            "batch.lane_occupancy",
            "ratio",
            ratio(t.yld.c.batch_lanes_active, t.yld.c.batch_lane_slots),
        ),
        (
            "batch.lane_fallbacks",
            "count/job",
            count(t.yld.c.lane_fallbacks),
        ),
        ("batch.solve_ms", "ms/job", per(batch_ms)),
        ("yield.trials", "count/job", count(t.yld.c.trials_total)),
        ("yield.sweep_ms", "ms/job", per(t.span_ms(Span::Yield))),
        ("yield.self_ms", "ms/job", per(yield_self)),
        ("sink.chunks", "count/job", count(t.sink_chunks)),
        ("sink.samples", "count/job", count(t.sink_samples)),
        ("sink.chunk_ms", "ms/job", per(sink_ms)),
        (
            "sink.ns_per_sample",
            "ns",
            if t.sink_samples == 0 {
                0.0
            } else {
                t.sink_ns as f64 / t.sink_samples as f64
            },
        ),
        ("trace.overhead_frac", "ratio", overhead),
        (
            "trace.unattributed_frac",
            "ratio",
            1.0 - attributed / job_ms,
        ),
    ]
}
