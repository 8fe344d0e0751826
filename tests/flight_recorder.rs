//! Invariants of the PR 10 observability layer: the flight recorder's
//! dump-on-failure path and the structured event log.
//!
//! Four load-bearing clauses are pinned here:
//!
//! * **Dump determinism** — the same failing circuit produces bundles
//!   that are byte-identical *modulo timestamps*: equal content
//!   fingerprints (which exclude `t_ns` and the wall-clock report) and
//!   bit-identical residual trajectories. This is what makes a bundle
//!   from a user's machine comparable to one reproduced locally.
//! * **Replay closure** — `cml-lint`'s forensics replay re-runs the
//!   recorded failure and reproduces the trajectory bit-for-bit.
//! * **Bounded ring semantics** — on overflow the event ring keeps the
//!   newest N events and counts the evicted ones; event *counter*
//!   totals are thread-invariant under fork/absorb for any worker
//!   count, like every other counter.
//! * **Typed corruption** — a damaged bundle surfaces a specific
//!   `FlightError`, never a panic or a garbage decode; the reader is
//!   total over every truncation and every single-bit flip of a real
//!   bundle.
//!
//! Tests serialize on one mutex: the flight directory override is
//! process-global.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::equalizer::{self, EqualizerConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_lint::forensics;
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::flight::{self, FlightBundle, FlightError};
use cml_spice::prelude::*;
use cml_spice::telemetry::{EventKind, Telemetry};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test in this binary (see module docs).
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fresh, empty scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cml-flight-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cmlf_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "cmlf"))
        .collect();
    files.sort();
    files
}

/// The paper's equalizer cell: a MOSFET circuit whose operating point
/// genuinely needs Newton iterations, so a starved iteration budget
/// fails the whole homotopy ladder deterministically.
fn mosfet_circuit() -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = EqualizerConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(&mut ckt, "VIN", input, cfg.input_common_mode(), None);
    equalizer::build(&mut ckt, &pdk, &cfg, "eq", input, output, vdd);
    ckt
}

/// Options that force divergence: one Newton iteration per attempt can
/// never satisfy a nonlinear circuit's convergence + no-damping check.
fn diverging_opts() -> NewtonOptions {
    NewtonOptions {
        max_iter: 1,
        // The topology cache shifts *cost* counters between runs; keep
        // the two determinism runs on identical cold paths.
        cache: false,
        ..NewtonOptions::default()
    }
}

#[test]
fn dump_on_failure_is_deterministic_modulo_timestamps() {
    let _g = lock();
    let dir = scratch_dir("determinism");
    flight::set_dir(Some(dir.clone()));
    flight::set_seed(Some(7));
    let ckt = mosfet_circuit();
    let opts = diverging_opts();
    for _ in 0..2 {
        let tel = Telemetry::enabled();
        let err = op::solve_traced(&ckt, &opts, None, &tel);
        assert!(err.is_err(), "starved iteration budget must not converge");
    }
    flight::set_dir(None);
    flight::set_seed(None);

    let files = cmlf_files(&dir);
    assert_eq!(files.len(), 2, "each failing solve dumps one bundle");
    let a = FlightBundle::read(&files[0]).expect("first bundle validates");
    let b = FlightBundle::read(&files[1]).expect("second bundle validates");

    assert_eq!(a.analysis, "op");
    assert_eq!(a.content_hash, ckt.content_hash());
    assert_eq!(a.topology_hash, ckt.topology_hash());
    assert_eq!(a.seed, Some(7));
    assert_eq!(a.options, opts);
    let (tag, msg) = &a.error;
    assert_eq!(*tag, 0, "NoConvergence is tag 0");
    assert!(
        msg.contains("op"),
        "error message names the analysis: {msg}"
    );
    assert!(
        !a.trajectory.is_empty(),
        "the failing attempt's residuals must be recorded"
    );
    assert!(
        a.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::NewtonDiverged { .. })),
        "divergence must appear in the event log"
    );

    // Byte-identical modulo timestamps: same fingerprint (it excludes
    // t_ns / report wall-clock), same trajectory bit patterns.
    assert_eq!(
        a.content_fingerprint(),
        b.content_fingerprint(),
        "same failing circuit must fingerprint identically across runs"
    );
    assert!(a.trajectory_matches(&b.trajectory));

    // Replay closure: forensics re-runs the failure and the fresh
    // trajectory reproduces bit-for-bit.
    let replay = forensics::replay_check(&a).expect("embedded netlist re-parses");
    assert!(replay.supported && replay.error_reproduced);
    assert!(
        replay.trajectory_match,
        "replay trajectory diverged from the recorded one: {:?} vs {:?}",
        replay.replayed_trajectory, a.trajectory
    );
    assert!(replay.ok());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ring_overflow_keeps_newest_and_counts_drops() {
    let _g = lock();
    let tel = Telemetry::enabled().with_event_capacity(8);
    for i in 0..20 {
        tel.event(|| EventKind::LteReject {
            t: f64::from(i),
            dt: 1.0,
            node: 0,
        });
    }
    let held = tel.events_snapshot();
    assert_eq!(held.len(), 8, "ring must stay at capacity");
    assert_eq!(tel.events_dropped(), 12, "evictions must be counted");
    for (k, ev) in held.iter().enumerate() {
        let EventKind::LteReject { t, .. } = ev.kind else {
            panic!("unexpected event kind");
        };
        assert_eq!(t, (12 + k) as f64, "overflow must keep the newest events");
    }
    // The emitted *counter* still saw all 20 — the ring bounds memory,
    // not accounting.
    assert_eq!(tel.report().counters.events_emitted, 20);
}

#[test]
fn event_totals_thread_invariant_across_worker_counts() {
    let _g = lock();
    let ckt = mosfet_circuit();
    let opts = diverging_opts();
    // 8 failing solves, partitioned across W workers like par_map does:
    // fork a private handle per worker, absorb in input order.
    let totals_at = |workers: usize| {
        let tel = Telemetry::enabled();
        let probe = tel.probe();
        let parts: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let ckt = &ckt;
                    let opts = &opts;
                    s.spawn(move || {
                        let wtel = probe.fork(w as u32 + 1);
                        let per_worker = 8 / workers;
                        for _ in 0..per_worker {
                            let _ = op::solve_traced(ckt, opts, None, &wtel);
                        }
                        wtel.into_parts()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in parts {
            tel.absorb(p);
        }
        let report = tel.report();
        (
            report.counters.events_emitted,
            report.counters.degradation_warnings,
            report.events.len() as u64 + report.events_dropped,
        )
    };
    let serial = totals_at(1);
    assert!(serial.0 > 0, "failing solves must emit events");
    assert_eq!(
        serial.2, serial.0,
        "held + dropped must account for every emitted event"
    );
    for workers in [2, 8] {
        assert_eq!(
            totals_at(workers),
            serial,
            "event totals changed between 1 and {workers} workers"
        );
    }
}

#[test]
fn corrupt_bundles_surface_typed_errors() {
    let _g = lock();
    let dir = scratch_dir("corruption");
    flight::set_dir(Some(dir.clone()));
    let tel = Telemetry::enabled();
    let _ = op::solve_traced(&mosfet_circuit(), &diverging_opts(), None, &tel);
    flight::set_dir(None);

    let files = cmlf_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = std::fs::read(&files[0]).expect("read bundle");

    let check = |name: &str, mutated: Vec<u8>, expect: fn(&FlightError) -> bool| {
        let path = dir.join(name);
        std::fs::write(&path, mutated).expect("write corrupt copy");
        let err = FlightBundle::read(&path).expect_err("corrupt bundle must not validate");
        assert!(expect(&err), "{name}: unexpected error {err:?}");
    };
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    check("bad-magic.cmlf", bad_magic, |e| {
        matches!(e, FlightError::BadMagic)
    });
    let mut bad_version = bytes.clone();
    bad_version[4] = 0xEE;
    check("bad-version.cmlf", bad_version, |e| {
        matches!(e, FlightError::BadVersion(_))
    });
    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0x5A;
    check("flipped-payload.cmlf", flipped, |e| {
        matches!(e, FlightError::ChecksumMismatch)
    });
    check("truncated.cmlf", bytes[..bytes.len() - 16].to_vec(), |e| {
        matches!(e, FlightError::LengthMismatch { .. })
    });
    check("empty.cmlf", Vec::new(), |e| {
        matches!(e, FlightError::Truncated(_))
    });
    assert!(matches!(
        FlightBundle::read(&dir.join("does-not-exist.cmlf")),
        Err(FlightError::Io(_))
    ));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Decodes `bytes`, turning a panic inside the reader into a test
/// failure that names the mutation.
fn decode_or_fail(case: &str, bytes: &[u8]) -> Result<FlightBundle, FlightError> {
    std::panic::catch_unwind(|| FlightBundle::from_bytes(bytes))
        .unwrap_or_else(|_| panic!("{case}: the bundle reader panicked"))
}

#[test]
fn bundle_reader_is_total_over_truncations_and_bit_flips() {
    let _g = lock();
    let dir = scratch_dir("totality");
    flight::set_dir(Some(dir.clone()));
    let tel = Telemetry::enabled();
    let _ = op::solve_traced(&mosfet_circuit(), &diverging_opts(), None, &tel);
    flight::set_dir(None);
    let files = cmlf_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = std::fs::read(&files[0]).expect("read bundle");
    let _ = std::fs::remove_dir_all(&dir);
    let original = FlightBundle::from_bytes(&bytes).expect("fresh bundle validates");

    // Every strict prefix, including the empty one.
    for len in 0..bytes.len() {
        if let Ok(b) = decode_or_fail(&format!("truncated to {len} B"), &bytes[..len]) {
            assert_eq!(
                b, original,
                "truncated to {len} B: decoded a different bundle"
            );
        }
    }

    // One bit flipped in every byte, cycling through the bit positions.
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        if let Ok(b) = decode_or_fail(&format!("bit flip at byte {i}"), &flipped) {
            assert_eq!(
                b, original,
                "bit flip at byte {i}: decoded a different bundle"
            );
        }
    }

    // The checksum stops the flips above before field decoding, so
    // repeat the payload flips with the checksum recomputed: the field
    // decoder and the fingerprint check must then hold the line alone.
    // Flips in the fields the fingerprint excludes (timestamps, the
    // wall-clock report) may decode, but never as a different failure.
    // Header: magic, version, payload length, then the checksum.
    const HEADER_LEN: usize = 4 + 4 + 8 + 8;
    for i in HEADER_LEN..bytes.len() {
        let mut resealed = bytes.clone();
        resealed[i] ^= 1 << (i % 8);
        let checksum = cml_cache::fnv1a64(&resealed[HEADER_LEN..]);
        resealed[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        if let Ok(b) = decode_or_fail(&format!("resealed flip at byte {i}"), &resealed) {
            assert_eq!(
                b.content_fingerprint(),
                original.content_fingerprint(),
                "resealed flip at byte {i}: decoded a different failure"
            );
        }
    }
}
