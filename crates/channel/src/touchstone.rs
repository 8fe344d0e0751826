//! Touchstone (`.s2p`) export of channel responses.
//!
//! The paper's channel was a physical backplane that the authors would
//! have characterized with a VNA into S-parameter files; this module
//! closes the loop in the other direction, exporting our RLGC model as a
//! standard 2-port Touchstone file so external tools (ADS, scikit-rf,
//! IBIS-AMI flows) can consume the same channel the Rust benches use.
//!
//! The matched-terminated line maps onto S-parameters as `S21 = S12 =
//! H(f)` (the transfer we compute) and `S11 = S22 = 0` (ideal match —
//! reflections are outside the model's scope, and the file says so in
//! its comment header).

use crate::segments::CompositeChannel;
use crate::Backplane;
use cml_numeric::Complex64;
use std::fmt::Write as _;

/// Anything exportable as a matched 2-port: returns `S21(f)`.
pub trait TwoPort {
    /// Forward transmission at `f` Hz.
    fn s21(&self, f: f64) -> Complex64;
    /// A short description for the file header.
    fn description(&self) -> String;
}

impl TwoPort for Backplane {
    fn s21(&self, f: f64) -> Complex64 {
        self.transfer(f)
    }

    fn description(&self) -> String {
        format!(
            "RLGC trace: {:.3} m, Z0 = {:.1} ohm, {:.2} dB @ 5 GHz",
            self.length,
            self.z0(),
            self.attenuation_db(5e9)
        )
    }
}

impl TwoPort for CompositeChannel {
    fn s21(&self, f: f64) -> Complex64 {
        self.transfer(f)
    }

    fn description(&self) -> String {
        format!(
            "composite path: {} segments, {:.2} dB @ 5 GHz, {:.2} ns delay",
            self.segments().len(),
            self.attenuation_db(5e9),
            self.total_delay() * 1e9
        )
    }
}

/// Renders a Touchstone v1 `.s2p` file body (RI format, Hz, 50 Ω
/// reference) over the given frequency grid.
///
/// # Panics
///
/// Panics if `freqs` is empty or not strictly increasing.
#[must_use]
pub fn to_s2p(port: &dyn TwoPort, freqs: &[f64]) -> String {
    assert!(!freqs.is_empty(), "need at least one frequency");
    assert!(
        freqs.windows(2).all(|w| w[1] > w[0]),
        "frequencies must be strictly increasing"
    );
    let mut out = String::new();
    let _ = writeln!(out, "! cml-channel export: {}", port.description());
    let _ = writeln!(out, "! S11 = S22 = 0 (model assumes matched terminations)");
    let _ = writeln!(out, "# Hz S RI R 50");
    for &f in freqs {
        let s21 = port.s21(f);
        // Column order per Touchstone 2-port: S11 S21 S12 S22.
        let _ = writeln!(
            out,
            "{:.6e} 0 0 {:.6e} {:.6e} {:.6e} {:.6e} 0 0",
            f, s21.re, s21.im, s21.re, s21.im
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::{CompositeChannel, Segment};

    /// Parses the `S21` column back out of an `.s2p` body produced by
    /// [`to_s2p`] as `(freq, s21)` pairs, skipping comment and option
    /// lines. Panics on any other line that is not nine numbers.
    fn parse_s2p_s21(body: &str) -> Vec<(f64, Complex64)> {
        body.lines()
            .filter(|l| !l.trim_start().starts_with(['!', '#']) && !l.trim().is_empty())
            .map(|l| {
                let cols: Vec<f64> = l
                    .split_whitespace()
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|e| panic!("malformed s2p line {l:?}: {e}"));
                assert_eq!(cols.len(), 9, "s2p line {l:?} is not nine columns");
                (cols[0], Complex64::new(cols[3], cols[4]))
            })
            .collect()
    }

    #[test]
    fn s2p_roundtrip_preserves_transfer() {
        let bp = Backplane::fr4_trace(0.4);
        let freqs: Vec<f64> = (1..=50).map(|k| k as f64 * 0.5e9).collect();
        let body = to_s2p(&bp, &freqs);
        let parsed = parse_s2p_s21(&body);
        assert_eq!(parsed.len(), freqs.len());
        for ((f, s21), &f_want) in parsed.iter().zip(&freqs) {
            assert!((f - f_want).abs() < 1.0);
            let want = bp.transfer(f_want);
            assert!((*s21 - want).abs() < 1e-5, "mismatch at {f:.3e}");
        }
    }

    #[test]
    fn header_declares_format_and_reference() {
        let bp = Backplane::fr4_trace(0.1);
        let body = to_s2p(&bp, &[1e9, 2e9]);
        assert!(body.contains("# Hz S RI R 50"));
        assert!(body.starts_with('!'));
    }

    #[test]
    fn composite_channel_exports() {
        let path = CompositeChannel::new(vec![
            Segment::Trace(Backplane::fr4_trace(0.2)),
            Segment::Connector {
                loss_db: 0.5,
                tilt_db: 1.0,
                delay: 30e-12,
            },
        ]);
        let body = to_s2p(&path, &[1e9, 5e9, 10e9]);
        let parsed = parse_s2p_s21(&body);
        assert_eq!(parsed.len(), 3);
        // Magnitude decreases with frequency.
        assert!(parsed[2].1.abs() < parsed[0].1.abs());
        assert!(body.contains("2 segments"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_freqs_rejected() {
        let bp = Backplane::fr4_trace(0.1);
        let _ = to_s2p(&bp, &[2e9, 1e9]);
    }
}
