//! Equivalence and soundness tests for the content-hashed topology
//! artifact cache (`cml-cache`).
//!
//! The cache's contract is that it changes cost, never results. These
//! tests pin that contract from every direction: warm in-process runs
//! are bit-identical to cold ones across op/AC/transient on the paper's
//! builtin blocks; the three cache telemetry counters are invariant
//! under the AC worker-thread count; the batched multi-variant solver
//! derives its symbolic analysis once per *batch*, not once per
//! variant; the factored AC reference is held once per topology, so a
//! design-point sweep neither grows the interner per point nor loses
//! its hits; and a property test shows that topology-hash-equal
//! circuits (same structure, different element values) can interchange
//! symbolic analyses without perturbing a single bit of the solution.
//!
//! All tests serialize on one mutex: the interner, the enable flag and
//! the stats counters are process-global.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_numeric::logspace;
use cml_spice::analysis::tran::{self, TranConfig, TranResult};
use cml_spice::analysis::{ac, batch, op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test in this binary (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Puts the process-global cache into a known state: empty interner,
/// zeroed stats.
fn fresh_cache() {
    cml_cache::intern::clear_in_memory();
    cml_cache::reset_stats();
}

fn cached_opts() -> NewtonOptions {
    NewtonOptions {
        sparse_threshold: 1,
        cache: true,
        ..NewtonOptions::default()
    }
}

fn uncached_opts() -> NewtonOptions {
    NewtonOptions {
        cache: false,
        ..cached_opts()
    }
}

/// Step-driven CML buffer: exercises the transient pattern tier on a
/// transistor-level cell.
fn step_buffer() -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        1.2,
        Some(Waveform::step(1.15, 1.25, 20e-12, 10e-12)),
    );
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, output, vdd);
    ckt
}

/// RC ladder with caller-chosen element values: same `n` ⇒ same
/// topology hash, any values ⇒ (almost surely) different content hash.
fn valued_ladder(n_stages: usize, r: &[f64], c: &[f64]) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add(Vsource::new("V1", prev, Circuit::GROUND, Waveform::dc(1.0)));
    for i in 0..n_stages {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(&format!("R{i}"), prev, node, r[i]));
        ckt.add(Capacitor::new(
            &format!("C{i}"),
            node,
            Circuit::GROUND,
            c[i],
        ));
        prev = node;
    }
    ckt
}

/// The limiting amplifier at design point `k`: gain-stage load, tail
/// current and interstage feedback move with `k`, the topology does not.
fn la_design_point(k: usize) -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let mut cfg = LimitingAmpConfig::paper_default();
    cfg.stage.stage.r_load = 300.0 + 5.0 * k as f64;
    cfg.stage.stage.i_tail = 3.5e-3 + 0.05e-3 * k as f64;
    cfg.interstage_fb = 0.10 + 0.005 * k as f64;
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    let vcm = limiting_amp::common_mode(&cfg);
    add_diff_drive(&mut ckt, "VIN", input, vcm, None);
    limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, output, vdd);
    ckt
}

fn assert_op_bits_equal(name: &str, a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{name}: {what}: dimension changed");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name}: {what}: op unknown {i} differs ({x:e} vs {y:e})"
        );
    }
}

fn assert_ac_bits_equal(name: &str, ckt: &Circuit, a: &ac::AcResult, b: &ac::AcResult, n: usize) {
    for raw in 1..=ckt.num_unknown_nodes() {
        let node = NodeId::from_raw(raw as u32);
        for idx in 0..n {
            let va = a.voltage(node, idx);
            let vb = b.voltage(node, idx);
            assert!(
                va.re.to_bits() == vb.re.to_bits() && va.im.to_bits() == vb.im.to_bits(),
                "{name}: ac node {raw} point {idx} differs"
            );
        }
    }
}

fn assert_tran_bits_equal(name: &str, ckt: &Circuit, a: &TranResult, b: &TranResult) {
    assert_eq!(a.times(), b.times(), "{name}: time grids must match");
    for raw in 1..=ckt.num_unknown_nodes() {
        let node = NodeId::from_raw(raw as u32);
        for (i, (x, y)) in a.voltage(node).iter().zip(&b.voltage(node)).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: tran node {raw} step {i} differs"
            );
        }
    }
}

/// The blocks the warm/cold comparisons sweep; a representative subset
/// of `BUILTIN_NAMES` (debug-mode runtime budget).
const BLOCKS: [&str; 3] = ["buffer", "equalizer", "la"];

#[test]
fn warm_process_is_bit_identical_to_cold() {
    let _g = lock();
    let freqs = logspace(1e6, 60e9, 48);
    for name in BLOCKS {
        let ckt = cml_lint::builtin_circuit(name).expect("builtin block");
        fresh_cache();
        let cold_op = op::solve_with(&ckt, &cached_opts(), None).expect("cold op");
        let cold_ac =
            ac::sweep_with(&ckt, cold_op.solution(), &freqs, &cached_opts(), 2).expect("cold ac");
        assert!(
            cml_cache::stats().misses > 0,
            "{name}: cold run never consulted the cache"
        );
        // Same process, interner warm: every artifact tier should hit.
        let warm_op = op::solve_with(&ckt, &cached_opts(), None).expect("warm op");
        let warm_ac =
            ac::sweep_with(&ckt, warm_op.solution(), &freqs, &cached_opts(), 2).expect("warm ac");
        assert!(
            cml_cache::stats().hits > 0,
            "{name}: warm run never hit the cache"
        );
        assert_op_bits_equal(name, cold_op.solution(), warm_op.solution(), "warm-vs-cold");
        assert_ac_bits_equal(name, &ckt, &cold_ac, &warm_ac, freqs.len());
        assert_eq!(
            cml_cache::stats().validation_failures,
            0,
            "{name}: warm run rejected its own artifacts"
        );
        // And the cache must be invisible next to a cache-free run.
        let tel = Telemetry::enabled();
        let off_op = op::solve_traced(&ckt, &uncached_opts(), None, &tel).expect("uncached op");
        assert_eq!(
            tel.report().counters.cache_hits,
            0,
            "{name}: cache-off run hit the cache"
        );
        assert_op_bits_equal(name, cold_op.solution(), off_op.solution(), "off-vs-cold");
    }
    // Transient: cold, warm and cache-off trajectories all agree.
    let ckt = step_buffer();
    let mut cfg = TranConfig::new(0.3e-9, 2e-12);
    cfg.newton = cached_opts();
    fresh_cache();
    let cold = tran::run(&ckt, &cfg).expect("cold tran");
    let warm = tran::run(&ckt, &cfg).expect("warm tran");
    let mut off_cfg = cfg.clone();
    off_cfg.newton = uncached_opts();
    let off = tran::run(&ckt, &off_cfg).expect("uncached tran");
    assert_tran_bits_equal("buffer", &ckt, &cold, &warm);
    assert_tran_bits_equal("buffer", &ckt, &cold, &off);
}

#[test]
fn cache_counters_are_thread_count_invariant() {
    let _g = lock();
    let ckt = cml_lint::builtin_circuit("equalizer").expect("builtin block");
    let x_op = {
        fresh_cache();
        op::solve_with(&ckt, &cached_opts(), None).expect("operating point")
    };
    let freqs = logspace(1e6, 60e9, 64);
    let cache_counts = |threads: usize, warm: bool| -> [u64; 3] {
        if !warm {
            fresh_cache();
        }
        let tel = Telemetry::enabled();
        ac::sweep_traced(&ckt, x_op.solution(), &freqs, &cached_opts(), threads, &tel)
            .expect("ac sweep");
        let c = tel.report().counters;
        [c.cache_hits, c.cache_misses, c.cache_validation_failures]
    };
    // Cold sweeps: each starts from an empty interner.
    let cold = cache_counts(1, false);
    assert!(cold[1] > 0, "cold sweep recorded no cache misses");
    for threads in [2, 4, 8] {
        assert_eq!(
            cold,
            cache_counts(threads, false),
            "cold cache counters changed at {threads} threads"
        );
    }
    // Warm sweeps: each starts from the same fully-primed interner.
    fresh_cache();
    ac::sweep_with(&ckt, x_op.solution(), &freqs, &cached_opts(), 1).expect("prime");
    let warm = cache_counts(1, true);
    assert!(warm[0] > 0 && warm[1] == 0, "warm sweep was not all hits");
    for threads in [2, 4, 8] {
        assert_eq!(
            warm,
            cache_counts(threads, true),
            "warm cache counters changed at {threads} threads"
        );
    }
}

/// Design-point sweeps of one topology: every new point adds only its
/// content-keyed lint verdict to the interner (the factored AC
/// reference is replaced, not added), and sweeping the last point again
/// is all hits and bit-identical to a cache-off sweep.
#[test]
fn ac_factor_cache_is_bounded_across_design_points() {
    let _g = lock();
    const POINTS: usize = 24;
    let freqs = logspace(1e6, 60e9, 16);
    let sweep = |ckt: &Circuit, opts: &NewtonOptions, tel: &Telemetry| {
        let x = op::solve_traced(ckt, opts, None, tel).expect("operating point");
        ac::sweep_traced(ckt, x.solution(), &freqs, opts, 1, tel).expect("ac sweep")
    };
    let points: Vec<Circuit> = (0..POINTS).map(la_design_point).collect();
    assert!(points
        .iter()
        .all(|c| c.topology_hash() == points[0].topology_hash()));
    fresh_cache();
    sweep(&points[0], &cached_opts(), &Telemetry::disabled());
    for (k, ckt) in points.iter().enumerate().skip(1) {
        let before = cml_cache::intern::len();
        sweep(ckt, &cached_opts(), &Telemetry::disabled());
        let grown = cml_cache::intern::len() - before;
        assert!(
            grown <= 1,
            "design point {k} added {grown} interner entries"
        );
    }
    let last = &points[POINTS - 1];
    let tel = Telemetry::enabled();
    let warm = sweep(last, &cached_opts(), &tel);
    let c = tel.report().counters;
    assert_eq!(c.cache_misses, 0, "repeat sweep re-derived artifacts");
    assert!(c.cache_hits > 0, "repeat sweep never hit the cache");
    let off = sweep(last, &uncached_opts(), &Telemetry::disabled());
    assert_ac_bits_equal("la", last, &off, &warm, freqs.len());
}

#[test]
fn batch_derives_symbolic_analysis_once_per_batch() {
    let _g = lock();
    // One RC ladder loaded by an NMOS whose threshold each variant moves.
    let r: Vec<f64> = (0..16).map(|i| 140.0 + i as f64).collect();
    let c: Vec<f64> = (0..16).map(|i| (38.0 + i as f64) * 1e-15).collect();
    let mut ckt = valued_ladder(16, &r, &c);
    let (gate, last) = (ckt.node("in"), ckt.node("n15"));
    let card = MosParams {
        mos_type: MosType::Nmos,
        w: 10e-6,
        l: 0.18e-6,
        vth0: 0.45,
        kp: 170e-6,
        lambda: 0.1,
        cox: 8.4e-3,
        cov: 3.0e-10,
        cj: 1.0e-3,
        ldiff: 0.5e-6,
    };
    ckt.add(Mosfet::new(
        "M1",
        last,
        gate,
        Circuit::GROUND,
        Circuit::GROUND,
        card,
    ));
    let columns = |k: usize| {
        let vth0 = (0..k).map(|v| 0.40 + 0.01 * v as f64).collect();
        batch::ParamColumns::new(k).column("M1", batch::MosField::Vth0, vth0)
    };
    let cold_counts = |k: usize| -> (u64, Vec<Vec<f64>>) {
        fresh_cache();
        let tel = Telemetry::enabled();
        let res = batch::op_batch(&ckt, &columns(k), &cached_opts(), &[], &tel).expect("batch op");
        let sols = (0..k).map(|v| res.solution(v).to_vec()).collect();
        (tel.report().counters.cache_misses, sols)
    };
    // Cold cost is per-batch, not per-variant: the miss count must not
    // grow with the variant count.
    let (misses_2, _) = cold_counts(2);
    let (misses_8, sols_batch) = cold_counts(8);
    assert!(misses_2 > 0, "batch never consulted the cache");
    assert_eq!(
        misses_2, misses_8,
        "cache misses scaled with variant count — per-variant rediscovery is back"
    );
    // A second batch in the same process is all hits...
    let tel = Telemetry::enabled();
    let res = batch::op_batch(&ckt, &columns(8), &cached_opts(), &[], &tel).expect("warm batch");
    let c = tel.report().counters;
    assert_eq!(c.cache_misses, 0, "warm batch re-derived artifacts");
    assert!(c.cache_hits > 0, "warm batch never hit the cache");
    // ...and bit-identical to the cold one.
    for (v, cold) in sols_batch.iter().enumerate() {
        assert_op_bits_equal("ladder", cold, res.solution(v), "warm-batch");
    }
}

proptest! {
    /// Circuits with equal topology hashes interchange symbolic
    /// analyses: priming the cache with circuit A and then solving
    /// circuit B (same structure, different element values) warm gives
    /// exactly the bits B produces with the cache disabled.
    #[test]
    fn hash_equal_topologies_interchange_symbolic_analyses(
        n in 3usize..12,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let _g = lock();
        let values = |seed: u64| {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let r: Vec<f64> = (0..n).map(|_| 50.0 + 200.0 * next()).collect();
            let c: Vec<f64> = (0..n).map(|_| (10.0 + 80.0 * next()) * 1e-15).collect();
            (r, c)
        };
        let (ra, ca) = values(seed_a);
        let (rb, cb) = values(seed_b);
        let a = valued_ladder(n, &ra, &ca);
        let b = valued_ladder(n, &rb, &cb);
        prop_assert!(
            a.topology_hash() == b.topology_hash(),
            "same structure must hash equal"
        );
        // Prime with A, solve B warm off A's symbolic artifacts.
        fresh_cache();
        op::solve_with(&a, &cached_opts(), None).expect("prime with A");
        let warm = op::solve_with(&b, &cached_opts(), None).expect("warm B");
        let cold = op::solve_with(&b, &uncached_opts(), None).expect("uncached B");
        for (i, (x, y)) in cold.solution().iter().zip(warm.solution()).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "unknown {i} differs after artifact interchange"
            );
        }
    }
}
