//! Runs every workload at smoke size, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: the same metric names in
//! the same order with the same units, a correct run, and no failed
//! operation.

use serde_json::Value;
use std::process::Command;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::parse(&text).expect("parse BENCHMARK.json")
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    entries(spec, section)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_cml-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("the last line is JSON")
}

#[test]
fn result_lines_match_benchmark_json() {
    let spec = spec();
    for workload in entries(&spec, "workloads") {
        let name = text(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name} trace {trace}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Value::Num(0.0)),
                "{name} trace {trace}"
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{name} trace {trace}: no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), text(v, "unit").to_string()))
                .collect();
            assert_eq!(printed, declared(&spec, section), "{name} trace {trace}");
        }
    }
}
