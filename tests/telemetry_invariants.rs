//! Invariants of the solver-telemetry layer.
//!
//! The telemetry contract has three load-bearing clauses, each pinned
//! here: counter totals are **deterministic** — bit-identical for any
//! worker-thread count, because only per-point events are counted and
//! per-thread buffers merge in input order; spans are **well-nested** —
//! every recorded span closes inside its parent, per thread; and the
//! disabled handle is **free** — it records nothing, flushes nothing and
//! allocates nothing on the hot paths (checked with a counting global
//! allocator). A property test drives random open/close scripts through
//! the span API and asserts the resulting forest always checks out.
//!
//! The allocation counter is per thread: the zero-allocation test reads
//! only what its own thread allocated, so the test harness and sibling
//! tests running on other threads cannot leak into its count. All tests
//! also serialize on one mutex.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::equalizer::{self, EqualizerConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_numeric::logspace;
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::analysis::{ac, op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::{Counters, Telemetry};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

/// Global allocator that counts allocations per thread, so the
/// disabled-telemetry path can be shown to cost zero allocations — not
/// just "few".
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// drop-free, so touching it from inside the allocator never
    /// allocates or registers a destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn thread_allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates to `System` unchanged; only a counter is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` cannot fail for a drop-free const thread-local, but
        // an allocator must never panic, so the result is ignored.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes every test in this binary (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's equalizer cell: big enough to exercise the sparse path
/// and the parallel AC fan-out, small enough for a debug-mode test.
fn equalizer_circuit() -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = EqualizerConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(&mut ckt, "VIN", input, cfg.input_common_mode(), None);
    equalizer::build(&mut ckt, &pdk, &cfg, "eq", input, output, vdd);
    ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, 20e-15));
    ckt
}

/// Step-driven RC ladder for transient-counter checks.
fn rc_ladder(n_stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add(Vsource::new(
        "V1",
        prev,
        Circuit::GROUND,
        Waveform::step(0.0, 1.0, 10e-12, 5e-12),
    ));
    for i in 0..n_stages {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(&format!("R{i}"), prev, node, 150.0));
        ckt.add(Capacitor::new(
            &format!("C{i}"),
            node,
            Circuit::GROUND,
            40e-15,
        ));
        prev = node;
    }
    ckt
}

fn sparse_opts() -> NewtonOptions {
    NewtonOptions {
        sparse_threshold: 1,
        // The topology cache is process-global, so back-to-back runs of
        // the same circuit legitimately shift counts from `cache_misses`
        // to `cache_hits` between calls. These tests compare *repeated
        // runs* against each other to pin thread-count invariance, so
        // they opt out; cache-counter invariance across thread counts is
        // pinned separately in tests/cache_equivalence.rs.
        cache: false,
        ..NewtonOptions::default()
    }
}

#[test]
fn ac_counters_identical_for_any_thread_count() {
    let _g = lock();
    let ckt = equalizer_circuit();
    let x_op = op::solve(&ckt).expect("operating point");
    let freqs = logspace(1e6, 60e9, 64);
    let counters_at = |threads: usize| -> Counters {
        let tel = Telemetry::enabled();
        ac::sweep_traced(&ckt, x_op.solution(), &freqs, &sparse_opts(), threads, &tel)
            .expect("ac sweep");
        tel.report().counters
    };
    let serial = counters_at(1);
    assert_eq!(serial.ac_points, 64, "every grid point must be counted");
    assert!(serial.ac_points_sparse > 0, "sparse path never engaged");
    for threads in [2, 8] {
        let parallel = counters_at(threads);
        assert_eq!(
            serial, parallel,
            "counter totals changed between 1 and {threads} threads"
        );
    }
}

#[test]
fn spans_are_well_nested_across_analyses() {
    let _g = lock();
    // Transient (fine mode: per-Newton spans included).
    let tel = Telemetry::enabled_fine();
    let ckt = rc_ladder(6);
    let cfg = {
        let mut c = TranConfig::new(2e-10, 1e-12).adaptive();
        c.newton.sparse_threshold = 1;
        c
    };
    tran::run_traced(&ckt, &cfg, &tel).expect("transient");
    // AC on the same handle, with worker forks merged back in.
    let ackt = equalizer_circuit();
    let x_op = op::solve(&ackt).expect("operating point");
    let freqs = logspace(1e6, 60e9, 32);
    ac::sweep_traced(&ackt, x_op.solution(), &freqs, &sparse_opts(), 4, &tel).expect("ac sweep");
    let report = tel.report();
    assert!(!report.spans.is_empty(), "fine mode must record spans");
    report
        .check_well_nested()
        .unwrap_or_else(|e| panic!("spans not well-nested: {e}"));
    assert!(
        report.open_spans == 0,
        "{} spans left open after both analyses returned",
        report.open_spans
    );
    // Transient counters hang together: every accepted step is an LTE
    // accept on the adaptive path, and the dt histogram covers them all.
    let c = &report.counters;
    assert_eq!(c.tran_steps, c.lte_accepts, "adaptive accepts == steps");
    let hist: u64 = c.dt_histogram.iter().sum();
    assert_eq!(hist, c.tran_steps, "dt histogram must cover every step");
    assert!(c.newton_solves > 0 && c.newton_iterations >= c.newton_solves);
}

#[test]
fn disabled_handle_records_and_flushes_nothing() {
    let _g = lock();
    let tel = Telemetry::disabled();
    let ckt = rc_ladder(4);
    tran::run_traced(&ckt, &TranConfig::new(5e-11, 1e-12), &tel).expect("transient");
    let report = tel.report();
    assert!(!report.enabled);
    assert_eq!(report.counters, Counters::default());
    assert!(report.spans.is_empty());
    assert!(
        tel.flush().expect("flush").is_empty(),
        "disabled flush must write no files"
    );
}

#[test]
fn disabled_hot_paths_do_not_allocate() {
    let _g = lock();
    let tel = Telemetry::disabled();
    // Warm up any lazily-initialized statics (monotonic epoch, …).
    {
        let _s = tel.span("warm", "up");
        let _t = tel.timer(cml_spice::telemetry::Phase::NewtonSolve);
        tel.count(|c| c.newton_iterations += 1);
    }
    let before = thread_allocations();
    for _ in 0..10_000 {
        let _span = tel.span("solver", "newton");
        let _fine = tel.span_fine("solver", "factor");
        let _timer = tel.timer(cml_spice::telemetry::Phase::Factor);
        let _ft = tel.timer_fine(cml_spice::telemetry::Phase::BackSubstitute);
        tel.count(|c| c.newton_iterations += 1);
        let probe = tel.probe();
        let fork = probe.fork(3);
        tel.absorb(fork.into_parts());
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated {} times in 10k hot-path rounds",
        after - before
    );
}

proptest! {
    /// Any script of span opens and closes — including unbalanced
    /// scripts, where the trailing guards close on drop — yields a
    /// well-nested forest with every opened span recorded exactly once.
    #[test]
    fn every_opened_span_is_closed(ops in prop::collection::vec(any::<bool>(), 0..64)) {
        let _g = lock();
        let tel = Telemetry::enabled();
        let mut opened = 0u64;
        let mut stack = Vec::new();
        for &open in &ops {
            if open {
                // Depth-varied names exercise sibling + child nesting.
                let name = ["a", "b", "c", "d"][stack.len() % 4];
                stack.push(tel.span("prop", name));
                opened += 1;
            } else {
                stack.pop();
            }
        }
        // Close the remaining guards innermost-first (a bare `drop(stack)`
        // would drop front-to-back — outermost first — which is exactly
        // the misuse the nesting checker exists to reject).
        while stack.pop().is_some() {}
        let report = tel.report();
        prop_assert_eq!(report.spans.len() as u64, opened);
        prop_assert_eq!(report.open_spans, 0);
        if let Err(e) = report.check_well_nested() {
            return Err(TestCaseError::fail(format!("not well-nested: {e}")));
        }
    }
}
