//! `cml-lint` — lint SPICE netlists (or the paper's generated blocks)
//! without running any simulation.
//!
//! ```text
//! cml-lint [--format text|json|sarif] [--level error|warning|info]
//!          [--builtin buffer|equalizer|bmvr|la|all] [--codes]
//!          [FILES... | -]
//! cml-lint forensics BUNDLE... [--format text|json] [--replay]
//! ```
//!
//! The default mode runs the structural netlist linter (`L` codes). The
//! `forensics` subcommand
//! validates and inspects the `CMLF` flight bundles the solver dumps on
//! failure (`CML_FLIGHT_DIR`); with `--replay` it re-runs the recorded
//! failure and checks the residual trajectory reproduces bit-for-bit.
//!
//! Each positional argument is a netlist file in the dialect emitted by
//! `Circuit::netlist()` (`-` reads stdin). Exit status: 0 when every
//! input is free of error-level diagnostics, 1 when any input has
//! errors, 2 on usage or parse failure.

use cml_lint::{
    builtin_circuit, forensics, lint, parse_netlist, report_to_json, sarif, LintCode, LintReport,
    Severity, BUILTIN_NAMES,
};
use cml_spice::flight::FlightBundle;
use cml_spice::Circuit;
use serde::Value;
use std::io::Read;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    min: Severity,
    builtins: Vec<String>,
    files: Vec<String>,
    codes: bool,
}

fn usage() -> &'static str {
    "usage: cml-lint [--format text|json|sarif] [--level error|warning|info]\n\
     \x20               [--builtin buffer|equalizer|bmvr|la|all] [--codes] [FILES... | -]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        min: Severity::Info,
        builtins: Vec::new(),
        files: Vec::new(),
        codes: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.format = Format::Json,
                Some("text") => opts.format = Format::Text,
                Some("sarif") => opts.format = Format::Sarif,
                other => return Err(format!("--format expects text|json|sarif, got {other:?}")),
            },
            "--level" => match it.next().map(String::as_str) {
                Some("error") => opts.min = Severity::Error,
                Some("warning") => opts.min = Severity::Warning,
                Some("info") => opts.min = Severity::Info,
                other => return Err(format!("--level expects error|warning|info, got {other:?}")),
            },
            "--builtin" => match it.next().map(String::as_str) {
                Some("all") => opts
                    .builtins
                    .extend(BUILTIN_NAMES.iter().map(|s| (*s).to_string())),
                Some(name) if BUILTIN_NAMES.contains(&name) => {
                    opts.builtins.push(name.to_string());
                }
                other => {
                    return Err(format!(
                        "--builtin expects {}|all, got {other:?}",
                        BUILTIN_NAMES.join("|")
                    ))
                }
            },
            "--codes" => opts.codes = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if !opts.codes && opts.files.is_empty() && opts.builtins.is_empty() {
        return Err("no inputs: give netlist files, '-', or --builtin".to_string());
    }
    Ok(opts)
}

fn print_code_table() {
    for code in LintCode::ALL {
        println!(
            "{}  {:<7}  {}",
            code.as_str(),
            code.severity(),
            code.title()
        );
    }
}

/// Lints one named circuit; returns (had_errors, report).
fn lint_one(label: &str, ckt: &Circuit, opts: &Options) -> (bool, LintReport) {
    let report = lint(ckt);
    let had_errors = report.has_errors();
    if opts.format == Format::Text {
        let body = report.render(opts.min);
        let shown = report.at_least(opts.min).count();
        if shown == 0 {
            println!("{label}: clean");
        } else {
            println!(
                "{label}: {} error(s), {} warning(s), {} info(s)",
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Info)
            );
            print!("{body}");
        }
    }
    (had_errors, report)
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn print_json(v: &Value) -> Result<(), ExitCode> {
    match serde_json::to_string_pretty(v) {
        Ok(s) => {
            println!("{s}");
            Ok(())
        }
        Err(e) => {
            eprintln!("cml-lint: json: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// `cml-lint forensics BUNDLE... [--format text|json] [--replay]`.
///
/// Validates each `CMLF` flight bundle (magic, version, checksum,
/// content fingerprint) and prints its contents; with `--replay`, also
/// re-runs the recorded failure and checks the residual trajectory
/// reproduces bit-for-bit. Exit status: 0 when every bundle validates
/// (and, with `--replay`, reproduces), 1 when any check fails, 2 on
/// usage errors.
fn forensics_main(args: &[String]) -> ExitCode {
    const FORENSICS_USAGE: &str =
        "usage: cml-lint forensics BUNDLE... [--format text|json] [--replay]";
    let mut json = false;
    let mut replay = false;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "cml-lint: --format expects text|json, got {other:?}\n{FORENSICS_USAGE}"
                    );
                    return ExitCode::from(2);
                }
            },
            "--replay" => replay = true,
            "--help" | "-h" => {
                println!("{FORENSICS_USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => files.push(arg),
            other => {
                eprintln!("cml-lint: unknown forensics argument '{other}'\n{FORENSICS_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if files.is_empty() {
        eprintln!("cml-lint: forensics needs at least one bundle file\n{FORENSICS_USAGE}");
        return ExitCode::from(2);
    }
    let mut any_bad = false;
    let mut rendered = Vec::new();
    for path in files {
        let bundle = match FlightBundle::read(std::path::Path::new(path)) {
            Ok(b) => b,
            Err(e) => {
                any_bad = true;
                if json {
                    rendered.push(Value::Obj(vec![
                        ("file".to_string(), Value::Str(path.clone())),
                        ("valid".to_string(), Value::Bool(false)),
                        ("error".to_string(), Value::Str(e.to_string())),
                    ]));
                } else {
                    println!("{path}: INVALID — {e}");
                }
                continue;
            }
        };
        let replay_report = if replay {
            match forensics::replay_check(&bundle) {
                Ok(r) => {
                    any_bad |= !r.ok();
                    Some(r)
                }
                Err(msg) => {
                    any_bad = true;
                    if !json {
                        println!("{path}: replay failed — {msg}");
                    }
                    None
                }
            }
        } else {
            None
        };
        if json {
            let mut obj = vec![
                ("file".to_string(), Value::Str(path.clone())),
                ("valid".to_string(), Value::Bool(true)),
                ("bundle".to_string(), bundle.to_value()),
            ];
            if let Some(r) = &replay_report {
                obj.push(("replay".to_string(), r.to_value()));
            }
            rendered.push(Value::Obj(obj));
        } else {
            let error = &bundle.error.1;
            println!("{path}: VALID (cml-flight-v{})", bundle.version);
            println!("  analysis:    {}", bundle.analysis);
            println!("  content:     {:016x}", bundle.content_hash);
            println!("  topology:    {:016x}", bundle.topology_hash);
            println!("  error:       {error}");
            println!(
                "  trajectory:  {} iterations, {} events held ({} dropped)",
                bundle.trajectory.len(),
                bundle.events.len(),
                bundle.events_dropped
            );
            if let Some(r) = &replay_report {
                println!(
                    "  replay:      {}",
                    if !r.supported {
                        "not supported for this analysis".to_string()
                    } else if r.ok() {
                        "reproduced (trajectory bit-exact)".to_string()
                    } else {
                        format!(
                            "MISMATCH (error_reproduced={}, trajectory_match={})",
                            r.error_reproduced, r.trajectory_match
                        )
                    }
                );
            }
        }
    }
    if json {
        if let Err(code) = print_json(&Value::Arr(rendered)) {
            return code;
        }
    }
    if any_bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("forensics") {
        return forensics_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("cml-lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.codes {
        print_code_table();
        if opts.files.is_empty() && opts.builtins.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    let mut inputs: Vec<(String, Circuit)> = Vec::new();
    for name in &opts.builtins {
        let Some(ckt) = builtin_circuit(name) else {
            eprintln!("cml-lint: unknown builtin '{name}'");
            return ExitCode::from(2);
        };
        inputs.push((format!("builtin:{name}"), ckt));
    }
    for path in &opts.files {
        let text = match read_input(path) {
            Ok(t) => t,
            Err(msg) => {
                eprintln!("cml-lint: {msg}");
                return ExitCode::from(2);
            }
        };
        match parse_netlist(&text) {
            Ok(c) => inputs.push((path.clone(), c)),
            Err(e) => {
                eprintln!("cml-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut any_errors = false;
    let mut reports = Vec::new();
    for (label, ckt) in &inputs {
        let (errs, report) = lint_one(label, ckt, &opts);
        any_errors |= errs;
        reports.push((label.clone(), report));
    }
    let rendered = match opts.format {
        Format::Text => None,
        Format::Json => Some(Value::Arr(
            reports
                .iter()
                .map(|(label, r)| {
                    let mut obj = vec![("input".to_string(), Value::Str(label.clone()))];
                    if let Value::Obj(fields) = report_to_json(r, opts.min) {
                        obj.extend(fields);
                    }
                    Value::Obj(obj)
                })
                .collect(),
        )),
        Format::Sarif => Some(sarif::lint_to_sarif(&reports, opts.min)),
    };

    if let Some(v) = rendered {
        if let Err(code) = print_json(&v) {
            return code;
        }
    }
    if any_errors {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
