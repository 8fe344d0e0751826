//! Format check of the telemetry JSON sink, made from outside the
//! writer: the file `CML_TELEMETRY=json:…` produces is parsed back with
//! the vendored JSON parser against literal key names. A silent format
//! drift fails here even when the writer still agrees with itself.
//!
//! The workloads are the two hottest solver paths: the transistor-level
//! receive chain under 8 bits of PRBS-7 with sparse LTE-adaptive
//! stepping, and a 120-point sparse AC sweep of the limiting amplifier
//! fanned over at least four workers. Neither may fall back from the
//! sparse to the dense solver.
//!
//! This is its own test binary because it sets `CML_TELEMETRY` for the
//! whole process.
//!
//! The same file keeps the inventory of environment knobs: the library
//! sources read exactly four, each through its `*_ENV` constant, and
//! README documents each.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_numeric::logspace;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::analysis::{ac, op};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use serde_json::Value;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// Transistor-level receive chain driven by `n_bits` of PRBS-7; returns
/// it with its stop time.
fn rx_chain(n_bits: usize) -> (Circuit, f64) {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cfg.equalizer.input_common_mode();
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, 0.2).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    (ckt, n_bits as f64 * UI)
}

/// Transistor-level limiting amplifier with a unit differential AC drive.
fn la_ac() -> Circuit {
    let pdk = cml_pdk::Pdk018::typical();
    let cfg = LimitingAmpConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        limiting_amp::common_mode(&cfg),
        None,
    );
    limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    ckt
}

/// The counter keys every JSON report carries.
const COUNTER_KEYS: [&str; 11] = [
    "newton_solves",
    "tran_steps",
    "ac_points",
    "dense_fallbacks",
    "dt_histogram",
    "cache_hits",
    "cache_misses",
    "cache_validation_failures",
    "events_emitted",
    "degradation_warnings",
    "flight_dumps",
];

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn num(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Value::Num(n) => *n,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

#[test]
fn json_sink_parses_outside_the_writer() {
    let dir = std::env::temp_dir().join(format!("cml-telemetry-sinks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create sink dir");
    let json_path = dir.join("t.json");
    std::env::set_var("CML_TELEMETRY", format!("json:{}", json_path.display()));
    let tel = Telemetry::from_env();

    let (rx, t_stop) = rx_chain(8);
    let mut cfg = TranConfig::new(t_stop, 1e-12).adaptive();
    cfg.newton.sparse_threshold = 1;
    tran::run_traced(&rx, &cfg, &tel).expect("sparse adaptive transient");
    let la = la_ac();
    let x_op = op::solve_traced(&la, &cfg.newton, None, &tel).expect("op");
    let freqs = logspace(1e2, 60e9, 120);
    let threads = cml_runner::threads(None).max(4);
    ac::sweep_traced(&la, x_op.solution(), &freqs, &cfg.newton, threads, &tel)
        .expect("sparse parallel ac sweep");
    let written = tel.flush().expect("flush sinks");
    assert_eq!(written, std::slice::from_ref(&json_path));

    let json = std::fs::read_to_string(&json_path).expect("read json sink");
    let t = serde_json::parse(&json).expect("json sink parses");
    assert_eq!(field(&t, "schema"), &Value::Str("cml-telemetry-v1".into()));
    assert_eq!(field(&t, "enabled"), &Value::Bool(true));
    for key in ["counters", "derived", "timings_ns", "worker_items"] {
        field(&t, key);
    }
    let c = field(&t, "counters");
    for key in COUNTER_KEYS {
        field(c, key);
    }
    assert_eq!(
        num(c, "dense_fallbacks"),
        0.0,
        "silent sparse→dense fallback"
    );
    assert_eq!(num(c, "cache_validation_failures"), 0.0);
    assert!(num(c, "tran_steps") > 0.0 && num(c, "ac_points") > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment knobs the library reads, by constant name and value.
const KNOBS: [(&str, &str); 4] = [
    ("THREADS_ENV", cml_runner::THREADS_ENV),
    ("TELEMETRY_ENV", cml_spice::telemetry::TELEMETRY_ENV),
    ("QUIET_ENV", cml_spice::telemetry::QUIET_ENV),
    ("FLIGHT_DIR_ENV", cml_spice::flight::FLIGHT_DIR_ENV),
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn library_reads_exactly_the_documented_env_knobs() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    // Each `env::var(..)` / `env::var_os(..)` call: file and argument.
    let mut calls: Vec<(String, String)> = Vec::new();
    let mut sources = String::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source");
        for (at, _) in text.match_indices("env::var") {
            let rest = &text[at + "env::var".len()..];
            let rest = rest.strip_prefix("_os").unwrap_or(rest);
            let Some(args) = rest.strip_prefix('(') else {
                continue;
            };
            let arg = args[..args.find(')').expect("closing paren")].trim();
            calls.push((file.display().to_string(), arg.to_string()));
        }
        sources.push_str(&text);
    }
    let mut named: Vec<&str> = calls.iter().map(|(_, arg)| arg.as_str()).collect();
    named.sort_unstable();
    let mut expected: Vec<&str> = KNOBS.iter().map(|(name, _)| *name).collect();
    expected.sort_unstable();
    assert_eq!(named, expected, "env reads under crates/*/src: {calls:#?}");

    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README");
    for (name, value) in KNOBS {
        assert!(
            sources.contains(&format!("const {name}: &str = \"{value}\";")),
            "{name} is not defined as \"{value}\""
        );
        assert!(readme.contains(value), "README does not document {value}");
    }
}
