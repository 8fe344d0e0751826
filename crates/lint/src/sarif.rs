//! SARIF 2.1.0 rendering for lint reports.
//!
//! One run per invocation and one [rule] per stable diagnostic code
//! (`L001`…), so that SARIF viewers (GitHub code scanning, VS Code) can
//! group, filter, and suppress by code. Severities map `error → error`,
//! `warning → warning`, `info → note`. Circuits have no file/line
//! provenance, so diagnostics carry [logical locations] (element and node
//! names) instead of physical ones.
//!
//! [rule]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html#_Toc34317556
//! [logical locations]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html#_Toc34317670

use crate::{Diagnostic, LintCode, LintReport, Severity};
use serde::Value;

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

fn text(s: &str) -> Value {
    Value::Obj(vec![("text".into(), Value::Str(s.into()))])
}

fn rule(id: &str, title: &str, hint: &str, sev: Severity) -> Value {
    Value::Obj(vec![
        ("id".into(), Value::Str(id.into())),
        ("name".into(), Value::Str(title.into())),
        ("shortDescription".into(), text(title)),
        ("help".into(), text(hint)),
        (
            "defaultConfiguration".into(),
            Value::Obj(vec![("level".into(), Value::Str(level(sev).into()))]),
        ),
    ])
}

fn sarif_log(rules: Vec<Value>, results: Vec<Value>) -> Value {
    let driver = Value::Obj(vec![
        ("name".into(), Value::Str("cml-lint".into())),
        (
            "version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("rules".into(), Value::Arr(rules)),
    ]);
    Value::Obj(vec![
        (
            "$schema".into(),
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version".into(), Value::Str("2.1.0".into())),
        (
            "runs".into(),
            Value::Arr(vec![Value::Obj(vec![
                ("tool".into(), Value::Obj(vec![("driver".into(), driver)])),
                ("results".into(), Value::Arr(results)),
            ])]),
        ),
    ])
}

/// One SARIF `result` object. `input` labels which netlist/builtin the
/// diagnostic came from (SARIF has no native multi-input notion for
/// logical locations, so it rides in `properties`).
fn diag_result(input: &str, d: &Diagnostic) -> Value {
    let mut logical = Vec::new();
    if let Some(e) = &d.element {
        logical.push(Value::Obj(vec![
            ("name".into(), Value::Str(e.clone())),
            ("kind".into(), Value::Str("element".into())),
        ]));
    }
    for n in &d.nodes {
        logical.push(Value::Obj(vec![
            ("name".into(), Value::Str(n.clone())),
            ("kind".into(), Value::Str("node".into())),
        ]));
    }
    Value::Obj(vec![
        ("ruleId".into(), Value::Str(d.code.as_str().into())),
        ("level".into(), Value::Str(level(d.severity()).into())),
        ("message".into(), text(&d.message)),
        (
            "locations".into(),
            Value::Arr(vec![Value::Obj(vec![(
                "logicalLocations".into(),
                Value::Arr(logical),
            )])]),
        ),
        (
            "properties".into(),
            Value::Obj(vec![("input".into(), Value::Str(input.into()))]),
        ),
    ])
}

/// SARIF log for a batch of linted inputs, one rule per `L` code.
#[must_use]
pub fn lint_to_sarif(inputs: &[(String, LintReport)], min: Severity) -> Value {
    let rules = LintCode::ALL
        .iter()
        .map(|c| rule(c.as_str(), c.title(), c.hint(), c.severity()))
        .collect();
    let results = inputs
        .iter()
        .flat_map(|(label, report)| report.at_least(min).map(|d| diag_result(label, d)))
        .collect();
    sarif_log(rules, results)
}
