//! Token-level property test for the `CMLF` flight-bundle reader.
//!
//! `flight_recorder.rs` flips bits and truncates one real bundle; most of
//! those cases stop at the header checksum. Here each case builds a
//! bundle from random fields, then corrupts one length-bearing token at
//! a time — a string length, the trajectory length, the event count or
//! an event tag — with a hostile value, and re-signs the header
//! checksum, so every decode reaches the field parser (`get_str`,
//! `get_event`) and the fingerprint check behind it.
//!
//! Every case must return `Ok` (only when the mutation happened to
//! rewrite the token with its own value) or a typed field-level
//! `FlightError`; it must never panic, and the decode must never
//! allocate more than a fixed multiple of the input. Allocation is
//! counted per thread by the global allocator below, so tests running
//! beside this one do not disturb the measurement.

// Test target: aborting on a malformed result with a message is the
// intended failure mode, so expect is fine here.
#![allow(clippy::expect_used)]

use cml_spice::analysis::NewtonOptions;
use cml_spice::flight::{FlightBundle, FlightError, FLIGHT_VERSION};
use cml_spice::telemetry::{Event, EventKind};
use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

/// Global allocator that tracks the calling thread's live heap bytes and
/// their high-water mark.
struct ThreadPeakAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: delegates to `System` unchanged; only counters are added.
unsafe impl GlobalAlloc for ThreadPeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as isize);
            track(-(layout.size() as isize));
        }
        new
    }
}

#[global_allocator]
static GLOBAL: ThreadPeakAlloc = ThreadPeakAlloc;

/// Runs `f` and returns its result with the peak heap growth, in bytes,
/// above the thread's live bytes at the call.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, usize::try_from(peak - base).unwrap_or(0))
}

/// The decoder may allocate at most this many bytes per input byte, plus
/// [`ALLOC_SLACK`]: the decoded bundle itself, the event vector and the
/// buffer the fingerprint is recomputed in.
const ALLOC_PER_INPUT_BYTE: usize = 8;
const ALLOC_SLACK: usize = 4096;

/// Header: magic, version, payload length, then the payload checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

fn draw<S: Strategy>(s: S, rng: &mut TestRng) -> S::Value {
    s.generate(rng)
}

/// A short string over ASCII, Latin-1 and a few multi-byte scalars, so
/// byte lengths and char counts differ.
fn text(rng: &mut TestRng, max: usize) -> String {
    draw(prop::collection::vec(0u32..0x800, 0..=max), rng)
        .into_iter()
        .filter_map(char::from_u32)
        .collect()
}

fn event(rng: &mut TestRng) -> Event {
    let f = |rng: &mut TestRng| draw(any::<f64>(), rng);
    let kind = match draw(0u8..8, rng) {
        0 => EventKind::NewtonIteration {
            analysis: Cow::Owned(text(rng, 6)),
            iteration: draw(any::<u32>(), rng),
            residual: f(rng),
            damped: draw(any::<bool>(), rng),
        },
        1 => EventKind::NewtonDiverged {
            analysis: Cow::Owned(text(rng, 6)),
            iterations: draw(any::<u32>(), rng),
            residual: f(rng),
        },
        2 => EventKind::LteReject {
            t: f(rng),
            dt: f(rng),
            node: draw(any::<u32>(), rng),
        },
        3 => EventKind::NewtonRetry {
            t: f(rng),
            dt: f(rng),
        },
        4 => EventKind::PivotFallback {
            column: draw(any::<u64>(), rng),
            pivot: f(rng),
        },
        5 => EventKind::CacheRejected {
            kind: Cow::Owned(text(rng, 12)),
        },
        6 => EventKind::LintRejected {
            errors: draw(any::<u32>(), rng),
        },
        _ => EventKind::Degradation {
            code: Cow::Owned(text(rng, 24)),
        },
    };
    Event {
        seq: draw(any::<u64>(), rng),
        t_ns: draw(any::<u64>(), rng),
        tid: draw(any::<u32>(), rng),
        kind,
    }
}

/// Bundles with every field drawn at random.
struct Bundles;

impl Strategy for Bundles {
    type Value = FlightBundle;

    fn generate(&self, rng: &mut TestRng) -> FlightBundle {
        let n_events = draw(0usize..6, rng);
        FlightBundle {
            version: FLIGHT_VERSION,
            content_hash: draw(any::<u64>(), rng),
            topology_hash: draw(any::<u64>(), rng),
            analysis: text(rng, 8),
            error: (draw(any::<u8>(), rng), text(rng, 40)),
            netlist: text(rng, 200),
            options: NewtonOptions {
                max_iter: draw(0usize..1000, rng),
                sparse_threshold: draw(any::<usize>(), rng),
                vntol: draw(any::<f64>(), rng),
                reltol: draw(any::<f64>(), rng),
                abstol: draw(any::<f64>(), rng),
                max_step: draw(any::<f64>(), rng),
                gmin: draw(any::<f64>(), rng),
                cache: draw(any::<bool>(), rng),
            },
            seed: draw(any::<bool>(), rng).then(|| draw(any::<u64>(), rng)),
            trajectory: draw(prop::collection::vec(any::<f64>(), 0..16), rng),
            events: (0..n_events).map(|_| event(rng)).collect(),
            events_dropped: draw(any::<u64>(), rng),
            fingerprint: 0,
            report_json: text(rng, 60),
        }
    }
}

/// A length-bearing token of an encoded bundle, by byte offset.
#[derive(Debug, Clone, Copy)]
enum Token {
    /// `u64` length prefix of a string.
    StrLen(usize),
    /// `u64` length prefix of the residual trajectory.
    TrajLen(usize),
    /// `u64` event count.
    EventCount(usize),
    /// `u8` variant tag of an event.
    EventTag(usize),
}

/// Walks the version-4 payload layout of `b` and returns every token
/// with its offset, plus the total encoded length the walk arrived at.
fn tokens(b: &FlightBundle) -> (Vec<Token>, usize) {
    let mut out = Vec::new();
    let mut at = HEADER_LEN + 16; // content and topology hashes
    let string = |at: &mut usize, s: &str, out: &mut Vec<Token>| {
        out.push(Token::StrLen(*at));
        *at += 8 + s.len();
    };
    string(&mut at, &b.analysis, &mut out);
    at += 1; // error tag
    string(&mut at, &b.error.1, &mut out);
    string(&mut at, &b.netlist, &mut out);
    at += 2 * 8 + 5 * 8 + 1; // max_iter, sparse_threshold, five f64s, cache
    at += 1 + if b.seed.is_some() { 8 } else { 0 };
    out.push(Token::TrajLen(at));
    at += 8 + 8 * b.trajectory.len();
    out.push(Token::EventCount(at));
    at += 8;
    for ev in &b.events {
        at += 8 + 4 + 8; // seq, tid, t_ns
        out.push(Token::EventTag(at));
        at += 1;
        match &ev.kind {
            EventKind::NewtonIteration { analysis, .. } => {
                string(&mut at, analysis, &mut out);
                at += 4 + 8 + 1;
            }
            EventKind::NewtonDiverged { analysis, .. } => {
                string(&mut at, analysis, &mut out);
                at += 4 + 8;
            }
            EventKind::LteReject { .. } => at += 16 + 4,
            EventKind::NewtonRetry { .. } | EventKind::PivotFallback { .. } => at += 16,
            EventKind::CacheRejected { kind: s } | EventKind::Degradation { code: s } => {
                string(&mut at, s, &mut out);
            }
            EventKind::LintRejected { .. } => at += 4,
        }
    }
    at += 8 + 8; // events_dropped, fingerprint
    string(&mut at, &b.report_json, &mut out);
    (out, at)
}

/// Replacement values for a `u64` length or count: off by one either
/// way, doubled, zero, exactly the bytes left (and an eighth of them),
/// past the address space, and one random word.
fn hostile_lengths(orig: u64, left: u64, raw: u64) -> [u64; 10] {
    [
        0,
        orig.saturating_sub(1),
        orig + 1,
        orig.saturating_mul(2).max(1),
        left,
        left / 8,
        1 << 32,
        1 << 62,
        u64::MAX,
        raw,
    ]
}

/// Rewrites the payload checksum so the reader gets past the header.
fn reseal(bytes: &mut [u8]) {
    let checksum = cml_cache::fnv1a64(&bytes[HEADER_LEN..]);
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
}

proptest! {
    #[test]
    fn token_mutations_decode_or_fail_typed(
        bundle in Bundles,
        raw in any::<u64>(),
        tag in any::<u8>(),
    ) {
        let bytes = bundle.to_bytes();
        let original = FlightBundle::from_bytes(&bytes).expect("fresh bundle validates");
        prop_assert_eq!(
            &original,
            &FlightBundle { fingerprint: bundle.content_fingerprint(), ..bundle.clone() }
        );
        let (toks, end) = tokens(&bundle);
        prop_assert!(end == bytes.len(), "token walk ends at {end}, encoder wrote {}", bytes.len());

        for tok in toks {
            let mut cases: Vec<Vec<u8>> = Vec::new();
            match tok {
                Token::StrLen(at) | Token::TrajLen(at) | Token::EventCount(at) => {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(&bytes[at..at + 8]);
                    let orig = u64::from_le_bytes(word);
                    let left = (bytes.len() - at - 8) as u64;
                    for v in hostile_lengths(orig, left, raw) {
                        let mut m = bytes.clone();
                        m[at..at + 8].copy_from_slice(&v.to_le_bytes());
                        cases.push(m);
                    }
                }
                Token::EventTag(at) => {
                    for v in [tag, bytes[at] ^ 1, 8, u8::MAX] {
                        let mut m = bytes.clone();
                        m[at] = v;
                        cases.push(m);
                    }
                }
            }
            for mut m in cases {
                reseal(&mut m);
                let decoded = std::panic::catch_unwind(|| peak_growth(|| FlightBundle::from_bytes(&m)));
                let Ok((decoded, grew)) = decoded else {
                    return Err(TestCaseError::fail(format!("{tok:?}: the reader panicked")));
                };
                let cap = ALLOC_PER_INPUT_BYTE * m.len() + ALLOC_SLACK;
                prop_assert!(grew <= cap, "{tok:?}: decode allocated {grew} B for a {} B input", m.len());
                match decoded {
                    Ok(b) => prop_assert!(b == original, "{tok:?}: decoded a different bundle"),
                    Err(FlightError::Truncated(_) | FlightError::FingerprintMismatch { .. }) => {}
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "{tok:?}: stopped before the field parser: {e}"
                        )));
                    }
                }
            }
        }
    }
}
