//! PR benchmark: the content-hashed topology artifact cache on a
//! repeated-topology workload.
//!
//! Parameter sweeps, corner runs and Monte Carlo loops all re-solve the
//! same circuit *structure* over and over; before PR 9 every run paid
//! the full lint precheck, symbolic sparse analysis and AC pattern
//! discovery again. This benchmark measures that fixed cost two ways
//! on the paper's builtin blocks, running `reps` rounds of lint-checked
//! operating point plus a small AC sweep per block:
//!
//! 1. **cold** — cache disabled (`NewtonOptions::cache = false`): every
//!    round re-derives everything, the pre-PR baseline;
//! 2. **warm** — in-memory cache enabled: round one primes the interner,
//!    later rounds hit it (this leg *includes* the priming round, so the
//!    speedup below is end-to-end, not best-case).
//!
//! Asserts the warm leg is ≥ 1.3x faster than cold (≥ 1.05x in smoke
//! mode, where rounds are few and timing noise is proportionally
//! larger), that both legs produce bit-identical solutions, and
//! that the warm leg's telemetry shows hits with zero validation
//! failures. Writes `BENCH_pr9.json` in the current directory.
//!
//! Run with: `cargo run --release --bin bench_pr9 [--smoke]`

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_lint::builtin_circuit;
use cml_numeric::logspace;
use cml_spice::analysis::{ac, op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::{Counters, Telemetry};
use serde::Value;
use std::time::Instant;

/// The repeated-topology pool: every round re-solves these blocks.
const BLOCKS: [&str; 4] = ["buffer", "equalizer", "la", "gain"];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn opts(cache: bool) -> NewtonOptions {
    NewtonOptions {
        sparse_threshold: 1,
        cache,
        ..NewtonOptions::default()
    }
}

/// One round of the workload: lint-prechecked op plus an AC sweep per
/// block. Returns the solution bits, so legs can be compared exactly.
fn one_round(
    circuits: &[(String, Circuit)],
    freqs: &[f64],
    o: &NewtonOptions,
    tel: &Telemetry,
) -> Vec<u64> {
    let mut bits = Vec::new();
    for (_, ckt) in circuits {
        let op = op::solve_traced(ckt, o, None, tel).expect("op converges");
        bits.extend(op.solution().iter().map(|v| v.to_bits()));
        let ac = ac::sweep_traced(ckt, op.solution(), freqs, o, 1, tel).expect("ac sweep");
        for raw in 1..=ckt.num_unknown_nodes() {
            let node = NodeId::from_raw(raw as u32);
            for idx in 0..freqs.len() {
                let v = ac.voltage(node, idx);
                bits.push(v.re.to_bits());
                bits.push(v.im.to_bits());
            }
        }
    }
    bits
}

struct Leg {
    ms: f64,
    bits: Vec<u64>,
    counters: Counters,
}

/// Times `reps` rounds of the workload.
fn run_leg(circuits: &[(String, Circuit)], freqs: &[f64], reps: usize, o: &NewtonOptions) -> Leg {
    let tel = Telemetry::enabled();
    let mut bits = Vec::new();
    let t0 = Instant::now();
    for rep in 0..reps {
        let round = one_round(circuits, freqs, o, &tel);
        if rep == 0 {
            bits = round;
        } else {
            assert_eq!(bits, round, "a later round diverged from round one");
        }
    }
    Leg {
        ms: t0.elapsed().as_secs_f64() * 1e3 / reps as f64,
        bits,
        counters: tel.report().counters,
    }
}

fn counters_json(c: &Counters) -> Value {
    obj(vec![
        ("cache_hits", Value::Num(c.cache_hits as f64)),
        ("cache_misses", Value::Num(c.cache_misses as f64)),
        (
            "cache_validation_failures",
            Value::Num(c.cache_validation_failures as f64),
        ),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 6 } else { 40 };
    let n_freqs = if smoke { 8 } else { 16 };
    let min_speedup = if smoke { 1.05 } else { 1.3 };

    let circuits: Vec<(String, Circuit)> = BLOCKS
        .iter()
        .map(|n| ((*n).to_string(), builtin_circuit(n).expect("builtin")))
        .collect();
    let freqs = logspace(1e6, 60e9, n_freqs);

    // Untimed warmup so the cold leg doesn't also pay first-touch costs.
    cml_cache::set_enabled(true);
    one_round(&circuits, &freqs, &opts(false), &Telemetry::disabled());

    // --- 1. cold: cache off, every round re-derives everything ---------
    let cold = run_leg(&circuits, &freqs, reps, &opts(false));
    println!("  cold {:8.3} ms/round ({reps} rounds)", cold.ms);

    // --- 2. warm: in-memory tier, round one primes, the rest hit -------
    cml_cache::intern::clear_in_memory();
    cml_cache::reset_stats();
    let warm = run_leg(&circuits, &freqs, reps, &opts(true));
    let warm_stats = cml_cache::stats();
    println!(
        "  warm {:8.3} ms/round (hit rate {:.1} %)",
        warm.ms,
        warm_stats.hit_rate() * 1e2
    );

    // --- Soundness: both legs agree to the bit --------------------------
    assert_eq!(cold.bits, warm.bits, "warm leg diverged from cold");
    assert_eq!(cold.counters.cache_hits, 0, "cache-off leg hit the cache");
    assert!(warm.counters.cache_hits > 0, "warm leg never hit the cache");
    assert_eq!(
        warm.counters.cache_validation_failures, 0,
        "warm leg rejected its own artifacts"
    );

    let speedup = cold.ms / warm.ms;
    println!(
        "  speedup: warm {speedup:.2}x over cold \
         ({} solution words compared per round)",
        cold.bits.len()
    );
    assert!(
        speedup >= min_speedup,
        "warm speedup {speedup:.3}x below the {min_speedup}x floor"
    );

    let json_report = obj(vec![
        ("bench", Value::Str("bench_pr9".into())),
        ("smoke", Value::Bool(smoke)),
        (
            "workload",
            Value::Str(format!(
                "{} blocks x {reps} rounds of lint-prechecked op + {n_freqs}-point AC",
                BLOCKS.len()
            )),
        ),
        ("cold_ms_per_round", Value::Num(cold.ms)),
        ("warm_ms_per_round", Value::Num(warm.ms)),
        ("warm_speedup", Value::Num(speedup)),
        ("min_speedup", Value::Num(min_speedup)),
        ("bits_compared", Value::Num(cold.bits.len() as f64)),
        ("bit_identical", Value::Bool(true)),
        ("warm_hit_rate", Value::Num(warm_stats.hit_rate())),
        ("cold_counters", counters_json(&cold.counters)),
        ("warm_counters", counters_json(&warm.counters)),
    ]);
    let json = serde_json::to_string_pretty(&json_report).expect("render BENCH_pr9.json");
    std::fs::write("BENCH_pr9.json", format!("{json}\n")).expect("write BENCH_pr9.json");
    println!("wrote BENCH_pr9.json");
}
