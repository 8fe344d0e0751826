//! Property tests for the netlist decoder over the builtin netlists.
//! Token level: shuffling, dropping, duplicating and mutating tokens.
//! Byte level: bit flips, truncations, inserted NULs and invalid UTF-8,
//! fed through lossy UTF-8 conversion as a reader of untrusted files
//! would. Every case must come back as `Ok` or a typed `ParseError`
//! naming a line of the input, never a panic.

// Test target: aborting on a malformed result with a message
// is the intended failure mode, so expect is fine here.
#![allow(clippy::expect_used)]

use cml_lint::{builtin_circuit, parse_netlist, BUILTIN_NAMES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Replacement tokens: hostile numbers (zero, negative, non-finite,
/// overflowing), malformed `KEY=value` pairs, keywords in the wrong
/// place, directives and bare card letters.
const HOSTILE: [&str; 28] = [
    "0",
    "-1",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "1e999",
    "1e-999",
    "-0",
    "W=0",
    "W=-1e-6",
    "W=nan",
    "L=0",
    "L=1e-9",
    "L=inf",
    "IS=0",
    "IS=-1e-14",
    "N=0",
    "N=nan",
    "=",
    "W=",
    "DC",
    "nmos",
    ".end",
    ".tran",
    "*",
    "M",
    "µ",
];

/// The builtin netlists, tokenized line by line.
fn corpus() -> &'static [Vec<Vec<String>>] {
    static CORPUS: OnceLock<Vec<Vec<Vec<String>>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        BUILTIN_NAMES
            .iter()
            .map(|which| {
                builtin_circuit(which)
                    .expect("builtin netlist")
                    .netlist()
                    .lines()
                    .map(|l| l.split_whitespace().map(str::to_string).collect())
                    .collect()
            })
            .collect()
    })
}

/// The builtin netlists as bytes.
fn byte_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        BUILTIN_NAMES
            .iter()
            .map(|which| {
                builtin_circuit(which)
                    .expect("builtin netlist")
                    .netlist()
                    .into_bytes()
            })
            .collect()
    })
}

/// Byte sequences that are not UTF-8: a lone continuation byte, bytes
/// UTF-8 never uses, a truncated two-, three- and four-byte sequence, an
/// overlong NUL and an encoded surrogate.
const INVALID_UTF8: [&[u8]; 8] = [
    &[0x80],
    &[0xff],
    &[0xfe, 0xfe],
    &[0xc3],
    &[0xe2, 0x82],
    &[0xf0, 0x9f, 0x98],
    &[0xc0, 0x80],
    &[0xed, 0xa0, 0x80],
];

/// Applies one byte edit: the low bits of `code` choose the edit, the
/// rest pick the position and the bit or sequence it writes.
fn byte_edit(bytes: &mut Vec<u8>, code: u64) {
    if bytes.is_empty() {
        return;
    }
    let (op, at, arg) = (code % 4, (code >> 2) as usize, (code >> 40) as usize);
    let at = at % bytes.len();
    match op {
        0 => bytes[at] ^= 1 << (arg % 8),
        1 => bytes.truncate(at),
        2 => bytes.insert(at, 0),
        _ => {
            let seq = INVALID_UTF8[arg % INVALID_UTF8.len()];
            bytes.splice(at..at, seq.iter().copied());
        }
    }
}

/// Applies one token edit: the low bits of `code` choose the edit, the
/// rest pick the lines and tokens it touches.
fn edit(lines: &mut [Vec<String>], code: u64) {
    let (op, at, to) = (code % 5, (code >> 4) as u32, (code >> 34) as u32);
    let li = at as usize % lines.len();
    let lj = to as usize % lines.len();
    let n = lines[li].len();
    if n == 0 {
        return;
    }
    let ti = (at as usize >> 8) % n;
    match op {
        // Swap two tokens, possibly across lines.
        0 => {
            if lines[lj].is_empty() {
                return;
            }
            let tj = (to as usize >> 8) % lines[lj].len();
            let other = lines[lj][tj].clone();
            lines[lj][tj] = std::mem::replace(&mut lines[li][ti], other);
        }
        1 => {
            lines[li].remove(ti);
        }
        2 => {
            let tok = lines[li][ti].clone();
            lines[li].insert(ti, tok);
        }
        3 => lines[li][ti] = HOSTILE[to as usize % HOSTILE.len()].to_string(),
        // Negate whatever the token is: flips signs of values and of the
        // numbers inside `KEY=value` pairs.
        _ => {
            let tok = &mut lines[li][ti];
            *tok = match tok.split_once('=') {
                Some((k, v)) => format!("{k}=-{v}"),
                None => format!("-{tok}"),
            };
        }
    }
}

proptest! {
    #[test]
    fn token_edits_never_panic_the_parser(
        which in 0usize..BUILTIN_NAMES.len(),
        edits in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let mut lines = corpus()[which].clone();
        for &code in &edits {
            edit(&mut lines, code);
        }
        let text: String = lines.iter().map(|l| l.join(" ") + "\n").collect();
        if let Err(e) = parse_netlist(&text) {
            prop_assert!(
                (1..=lines.len()).contains(&e.line) && !e.message.is_empty(),
                "error {e:?} names no line of a {}-line input",
                lines.len()
            );
        }
    }
}

proptest! {
    #[test]
    fn byte_edits_never_panic_the_parser(
        which in 0usize..BUILTIN_NAMES.len(),
        edits in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let mut bytes = byte_corpus()[which].clone();
        for &code in &edits {
            byte_edit(&mut bytes, code);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_netlist(&text) {
            let lines = text.lines().count();
            prop_assert!(
                (1..=lines).contains(&e.line) && !e.message.is_empty(),
                "error {e:?} names no line of a {lines}-line input"
            );
        }
    }
}

/// Cards whose tokens parse as numbers but whose values no element
/// accepts: each was a panic inside an element constructor.
#[test]
fn out_of_range_values_are_typed_errors() {
    for card in [
        "R1 a 0 0",
        "R1 a 0 -50",
        "C1 a 0 nan",
        "L1 a 0 inf",
        "V1 a 0 DC inf",
        "I1 a 0 DC nan",
        "M1 d g 0 0 nmos W=0 L=1.8e-7",
        "M1 d g 0 0 pmos W=1e-6 L=1e-9",
        "M1 d g 0 0 nmos W=nan L=1.8e-7",
        "D1 a 0 IS=0 N=1",
        "D1 a 0 IS=1e-14 N=-1",
    ] {
        let e = parse_netlist(card).expect_err(card);
        assert_eq!(e.line, 1, "{card}: {e}");
    }
}
