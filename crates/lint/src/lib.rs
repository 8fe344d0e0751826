//! `cml-lint` — user-facing front end for the pre-simulation netlist
//! linter.
//!
//! The diagnostics engine itself lives in [`cml_spice::lint`] (it needs
//! the element introspection API and is run by every analysis entry
//! point as a mandatory precheck); this crate adds what a *tool* needs
//! on top of the engine:
//!
//! * a parser for the SPICE-card netlist format that
//!   [`cml_spice::Circuit::netlist`] emits (see [`parse_netlist`]), so
//!   exported netlists round-trip back into lintable circuits,
//! * machine-readable JSON rendering of a [`LintReport`]
//!   ([`report_to_json`]),
//! * builders for the paper's generated blocks ([`builtin_circuit`]),
//!   mirroring `examples/netlist_export.rs`,
//! * the `cml-lint` CLI binary (`src/bin/cml-lint.rs`).
//!
//! # Example
//!
//! ```
//! use cml_lint::{lint, parse_netlist, Severity};
//!
//! let ckt = parse_netlist(
//!     "V1 in 0 DC 1.0\n\
//!      R1 in out 1e3\n\
//!      R2 out 0 1e3\n\
//!      .end\n",
//! )
//! .unwrap();
//! assert!(!lint(&ckt).has_errors());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cml_spice::devices::diode::{Diode, DiodeParams};
use cml_spice::devices::mosfet::{MosParams, Mosfet};
use cml_spice::elements::sources::{Isource, Vsource};
use cml_spice::elements::two_terminal::{Capacitor, Inductor, Resistor};
use cml_spice::Circuit;
use serde::Value;
use std::fmt;

pub use cml_spice::lint::{
    duplicate_element_names, lint, precheck, Diagnostic, LintCode, LintReport, Severity,
};

pub mod forensics;
pub mod sarif;

/// Error from [`parse_netlist`]: the offending line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// A finite number: `nan`, `inf` and overflowing literals like `1e999`
/// parse as `f64` but describe no circuit.
fn parse_f64(tok: &str, line: usize, what: &str) -> Result<f64, ParseError> {
    tok.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| err(line, format!("invalid {what} '{tok}'")))
}

/// `v` itself when it is strictly positive, which element constructors
/// assert for resistance, capacitance, inductance, widths and diode
/// parameters.
fn positive(v: f64, line: usize, what: &str) -> Result<f64, ParseError> {
    if v > 0.0 {
        Ok(v)
    } else {
        Err(err(line, format!("{what} must be positive, got {v}")))
    }
}

/// Value of a `KEY=number` token, case-insensitive on the key.
fn keyed_f64(tok: &str, key: &str, line: usize) -> Result<Option<f64>, ParseError> {
    let Some((k, v)) = tok.split_once('=') else {
        return Ok(None);
    };
    if !k.eq_ignore_ascii_case(key) {
        return Ok(None);
    }
    parse_f64(v, line, key).map(Some)
}

/// Parses the netlist-card dialect emitted by
/// [`cml_spice::Circuit::netlist`]:
///
/// * `R<name> a b <ohms>` / `C<name> a b <farads>` / `L<name> a b <henries>`
/// * `V<name> a b DC <volts>` / `I<name> a b DC <amps>`
/// * `M<name> d g s b nmos|pmos W=<m> L=<m>`
/// * `D<name> a k IS=<amps> N=<n>`
/// * `*` comment lines, blank lines, and a terminating `.end`
///
/// Node `0` (or `gnd`, any case) is ground. MOSFET cards get the typical
/// 0.18 µm process parameters from [`cml_pdk::Pdk018`] at the card's
/// W/L. Unsupported cards are an error — better to refuse than to lint a
/// circuit that is not the one described.
///
/// # Errors
///
/// [`ParseError`] with the 1-based line number on the first malformed or
/// unsupported card.
pub fn parse_netlist(text: &str) -> Result<Circuit, ParseError> {
    let pdk = cml_pdk::Pdk018::typical();
    let mut ckt = Circuit::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lno = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if line.eq_ignore_ascii_case(".end") {
            break;
        }
        if line.starts_with('.') {
            return Err(err(lno, format!("unsupported directive '{line}'")));
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let head = toks[0];
        let Some(kind) = head.chars().next() else {
            continue;
        };
        // The full token is the element name, SPICE-style: `R1` and `V1`
        // are distinct elements even though both end in `1`.
        let name = head;
        if head.len() == kind.len_utf8() {
            return Err(err(lno, format!("element card '{head}' has no name")));
        }
        match kind.to_ascii_uppercase() {
            'R' | 'C' | 'L' => {
                if toks.len() != 4 {
                    return Err(err(lno, format!("expected '{head} a b value'")));
                }
                let a = ckt.node(toks[1]);
                let b = ckt.node(toks[2]);
                let v = positive(parse_f64(toks[3], lno, "value")?, lno, "value")?;
                match kind.to_ascii_uppercase() {
                    'R' => ckt.add(Resistor::new(name, a, b, v)),
                    'C' => ckt.add(Capacitor::new(name, a, b, v)),
                    _ => ckt.add(Inductor::new(name, a, b, v)),
                }
            }
            'V' | 'I' => {
                if toks.len() != 5 || !toks[3].eq_ignore_ascii_case("dc") {
                    return Err(err(lno, format!("expected '{head} a b DC value'")));
                }
                let a = ckt.node(toks[1]);
                let b = ckt.node(toks[2]);
                let v = parse_f64(toks[4], lno, "value")?;
                if kind.eq_ignore_ascii_case(&'V') {
                    ckt.add(Vsource::dc(name, a, b, v));
                } else {
                    ckt.add(Isource::dc(name, a, b, v));
                }
            }
            'M' => {
                if toks.len() != 8 {
                    return Err(err(
                        lno,
                        format!("expected '{head} d g s b nmos|pmos W=.. L=..'"),
                    ));
                }
                let d = ckt.node(toks[1]);
                let g = ckt.node(toks[2]);
                let s = ckt.node(toks[3]);
                let b = ckt.node(toks[4]);
                let w = keyed_f64(toks[6], "W", lno)?
                    .ok_or_else(|| err(lno, format!("expected W=.., got '{}'", toks[6])))?;
                let l = keyed_f64(toks[7], "L", lno)?
                    .ok_or_else(|| err(lno, format!("expected L=.., got '{}'", toks[7])))?;
                positive(w, lno, "W")?;
                // The process cards assert the same floor.
                if l < cml_pdk::L_MIN * 0.999 {
                    return Err(err(lno, format!("L={l} is below the process minimum")));
                }
                let params: MosParams = match toks[5].to_ascii_lowercase().as_str() {
                    "nmos" => pdk.nmos(w, l),
                    "pmos" => pdk.pmos(w, l),
                    other => return Err(err(lno, format!("unknown MOSFET type '{other}'"))),
                };
                ckt.add(Mosfet::new(name, d, g, s, b, params));
            }
            'D' => {
                if toks.len() != 5 {
                    return Err(err(lno, format!("expected '{head} a k IS=.. N=..'")));
                }
                let a = ckt.node(toks[1]);
                let k = ckt.node(toks[2]);
                let is = keyed_f64(toks[3], "IS", lno)?
                    .ok_or_else(|| err(lno, format!("expected IS=.., got '{}'", toks[3])))?;
                let n = keyed_f64(toks[4], "N", lno)?
                    .ok_or_else(|| err(lno, format!("expected N=.., got '{}'", toks[4])))?;
                let params = DiodeParams {
                    is: positive(is, lno, "IS")?,
                    n: positive(n, lno, "N")?,
                    ..DiodeParams::default()
                };
                ckt.add(Diode::new(name, a, k, params));
            }
            other => {
                return Err(err(lno, format!("unsupported element card '{other}'")));
            }
        }
    }
    Ok(ckt)
}

/// Builds one of the paper's generated blocks — the same circuits
/// `examples/netlist_export.rs` exports, plus the composed interface
/// blocks. `which` is one of `buffer`, `equalizer`, `bmvr`, `la`, `gain`,
/// `input` or `output`; returns `None` for anything else.
#[must_use]
pub fn builtin_circuit(which: &str) -> Option<Circuit> {
    use cml_core::cells::{
        add_diff_drive, add_supply, bmvr, cml_buffer, equalizer, gain_stage, input_interface,
        limiting_amp, output_stage, DiffPort,
    };
    let pdk = cml_pdk::Pdk018::typical();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    match which {
        "buffer" => {
            let cfg = cml_buffer::CmlBufferConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(
                &mut ckt,
                "VIN",
                input,
                cml_buffer::output_common_mode(&cfg),
                None,
            );
            cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, output, vdd);
        }
        "equalizer" => {
            let cfg = equalizer::EqualizerConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(&mut ckt, "VIN", input, cfg.input_common_mode(), None);
            equalizer::build(&mut ckt, &pdk, &cfg, "eq", input, output, vdd);
        }
        "bmvr" => {
            bmvr::build(
                &mut ckt,
                &pdk,
                &bmvr::BmvrConfig::paper_default(),
                "bmvr",
                vdd,
            );
        }
        "la" => {
            let cfg = limiting_amp::LimitingAmpConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(
                &mut ckt,
                "VIN",
                input,
                limiting_amp::common_mode(&cfg),
                None,
            );
            limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, output, vdd);
        }
        "gain" => {
            let cfg = gain_stage::GainStageConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(
                &mut ckt,
                "VIN",
                input,
                gain_stage::output_common_mode(&cfg),
                None,
            );
            gain_stage::build(&mut ckt, &pdk, &cfg, "gs", input, output, vdd);
        }
        "input" => {
            let cfg = input_interface::InputInterfaceConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(
                &mut ckt,
                "VIN",
                input,
                cfg.equalizer.input_common_mode(),
                None,
            );
            input_interface::build(&mut ckt, &pdk, &cfg, "ii", input, output, vdd);
        }
        "output" => {
            let cfg = output_stage::OutputInterfaceConfig::paper_default();
            let input = DiffPort::named(&mut ckt, "in");
            let output = DiffPort::named(&mut ckt, "out");
            add_diff_drive(&mut ckt, "VIN", input, 1.55, None);
            output_stage::build_output_interface(&mut ckt, &pdk, &cfg, "oi", input, output, vdd);
            ckt.add(Resistor::new("RTp", vdd, output.p, 50.0));
            ckt.add(Resistor::new("RTn", vdd, output.n, 50.0));
        }
        _ => return None,
    }
    Some(ckt)
}

/// Names of all builtin blocks, in the order the CLI lints them for
/// `--builtin all`.
pub const BUILTIN_NAMES: [&str; 7] = [
    "buffer",
    "equalizer",
    "bmvr",
    "la",
    "gain",
    "input",
    "output",
];

/// Converts one diagnostic to a JSON value.
#[must_use]
pub fn diagnostic_to_json(d: &Diagnostic) -> Value {
    Value::Obj(vec![
        ("code".into(), Value::Str(d.code.as_str().into())),
        ("severity".into(), Value::Str(d.severity().to_string())),
        ("title".into(), Value::Str(d.code.title().into())),
        (
            "element".into(),
            match &d.element {
                Some(e) => Value::Str(e.clone()),
                None => Value::Null,
            },
        ),
        (
            "nodes".into(),
            Value::Arr(d.nodes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
        ("message".into(), Value::Str(d.message.clone())),
        ("hint".into(), Value::Str(d.code.hint().into())),
    ])
}

/// Converts a report to a JSON value: a summary plus the diagnostics at
/// or above `min`.
#[must_use]
pub fn report_to_json(report: &LintReport, min: Severity) -> Value {
    let diags: Vec<Value> = report.at_least(min).map(diagnostic_to_json).collect();
    Value::Obj(vec![
        (
            "errors".into(),
            Value::Num(report.count(Severity::Error) as f64),
        ),
        (
            "warnings".into(),
            Value::Num(report.count(Severity::Warning) as f64),
        ),
        (
            "infos".into(),
            Value::Num(report.count(Severity::Info) as f64),
        ),
        ("diagnostics".into(), Value::Arr(diags)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_roundtrip_divider() {
        let text = "* comment\nV1 in 0 DC 1.8\nR1 in out 5e4\nR2 out gnd 5e4\n.end\n";
        let ckt = parse_netlist(text).expect("parse");
        assert_eq!(ckt.num_elements(), 3);
        let report = lint(&ckt);
        assert!(!report.has_errors(), "{}", report.render(Severity::Info));
    }

    #[test]
    fn exported_netlists_reparse() {
        use cml_spice::element::ElementKind;
        for which in BUILTIN_NAMES {
            let ckt = builtin_circuit(which).expect("builtin");
            let text = ckt.netlist();
            // Vcvs/Vccs render as comment cards (the output driver's
            // peaking Vccs, for instance); everything else must
            // round-trip through the exporter and parser.
            let concrete = ckt
                .elements()
                .filter(|e| !matches!(e.kind(), ElementKind::Vcvs | ElementKind::Vccs))
                .count();
            let reparsed =
                parse_netlist(&text).unwrap_or_else(|e| panic!("reparse of '{which}' failed: {e}"));
            assert_eq!(reparsed.num_elements(), concrete, "{which}");
            assert_eq!(reparsed.num_nodes(), ckt.num_nodes(), "{which}");
        }
    }

    #[test]
    fn parse_error_reports_line() {
        let e = parse_netlist("V1 in 0 DC 1.0\nQ1 a b c\n").expect_err("must fail");
        assert_eq!(e.line, 2);
        assert!(e.message.contains('Q'));
    }

    #[test]
    fn mosfet_card_parses_type_and_dims() {
        let text = "V1 d 0 DC 1.8\nVG g 0 DC 1.0\nM1 d g 0 0 nmos W=2.000e-5 L=1.800e-7\n.end\n";
        let ckt = parse_netlist(text).expect("parse");
        assert_eq!(ckt.num_elements(), 3);
        assert!(!lint(&ckt).has_errors());
    }

    #[test]
    fn json_report_shape() {
        let ckt = parse_netlist("I1 0 x DC 1e-3\nR1 x 0 1e3\n.end\n").expect("parse");
        let report = lint(&ckt);
        let json = report_to_json(&report, Severity::Info);
        let text = serde_json::to_string(&json).expect("json");
        let parsed = serde_json::parse(&text).expect("reparse");
        assert_eq!(parsed.get("errors"), Some(&Value::Num(0.0)));
        assert!(parsed.get("diagnostics").is_some());
    }
}
