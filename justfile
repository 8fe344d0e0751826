# Development task runner. Same gates as .github/workflows/ci.yml.

# Run every CI gate locally.
ci: fmt-check clippy test lint-circuits analyze-circuits bench-smoke

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Reformat in place.
fmt:
    cargo fmt --all

# Lint gate (warnings are errors).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 verification: release build + full test suite.
test:
    cargo build --release
    cargo test -q

# Regenerate the PR performance benchmark artifact.
bench-pr1:
    cargo run --release -p cml-bench --bin bench_pr1

# Regenerate the sparse-solver / adaptive-stepping benchmark artifact.
bench-pr2:
    cargo run --release -p cml-bench --bin bench_pr2

# Regenerate the lint-overhead benchmark artifact.
bench-pr3:
    cargo run --release -p cml-bench --bin bench_pr3

# Regenerate the sparse complex AC / parallel sweep benchmark artifact.
bench-pr4:
    cargo run --release -p cml-bench --bin bench_pr4

# Regenerate the telemetry overhead/determinism benchmark artifact.
bench-pr5:
    cargo run --release -p cml-bench --bin bench_pr5

# Regenerate the streaming-sink benchmark artifact (million-bit PRBS-31
# transistor-level eye at flat memory; ~2 min).
bench-pr6:
    cargo run --release -p cml-bench --bin bench_pr6

# Regenerate the batched Monte-Carlo yield benchmark artifact
# (12k-trial transistor throughput + 10M-trial behavioral sweep).
bench-pr7:
    cargo run --release -p cml-bench --bin bench_pr7

# Static netlist DRC over every generated circuit block (fails on any
# error-level diagnostic; `cml-lint --codes` documents the code table).
lint-circuits:
    cargo run --release -p cml-lint --bin cml-lint -- --builtin all

# Abstract-interpretation static analysis over every generated circuit
# block: interval operating-point bounds, conditioning prediction and
# the stiffness spectrum (fails on any error-level finding;
# `cml-lint analyze --codes` documents the A-code table).
analyze-circuits:
    cargo run --release -p cml-lint --bin cml-lint -- analyze --builtin all

# Regenerate the static-analyzer benchmark artifact (analyzer cost vs a
# dense transient, warm-start Newton savings, closed-loop soundness).
bench-pr8:
    cargo run --release -p cml-bench --bin bench_pr8

# Regenerate the topology-artifact-cache benchmark artifact (cold vs
# warm repeated-topology workload; asserts >= 1.3x warm speedup with
# bit-identical results across both legs).
bench-pr9:
    cargo run --release -p cml-bench --bin bench_pr9

# Regenerate the observability benchmark artifact (event-log overhead
# on the PRBS-7 eye vs the < 2 % coarse budget, flight-dump cost on a
# forced divergence, bundle round-trip + bit-exact forensics replay).
bench-pr10:
    cargo run --release -p cml-bench --bin bench_pr10

# Quick benchmark sanity gate (tiny workloads; asserts the sparse and
# dense solvers agree to <= 1e-9, the adaptive eye stays honest, the
# parallel AC sweep is bit-identical to the serial one, telemetry
# counters are thread-invariant with a schema-valid json sink, the
# streaming eye matches the dense fold under a flat peak-memory budget,
# and the batched yield engine beats scalar >= 3x while agreeing with
# it to <= 1e-9 at fixed thread-count-independent estimates).
# The bench_pr8 leg closes the analyzer's soundness loop: every
# builtin's converged op must land inside its predicted interval bounds
# with zero prediction-violation findings. The bench_pr9 leg gates the
# topology artifact cache: warm must beat cold with bit-identical
# solutions and zero validation failures. The bench_pr10 leg dumps a
# flight bundle on a forced divergence, round-trips it, replays it
# bit-exactly, and renders the prometheus exposition; `cml-lint
# forensics` then re-validates the preserved bundle through the CLI.
# The perfbench leg builds the benchmark against the current crates and
# runs every workload at smoke size.
bench-smoke:
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    cargo run --release -p cml-bench --bin bench_pr2 -- --smoke
    cargo run --release -p cml-bench --bin bench_pr4 -- --smoke
    CML_TELEMETRY=json:/tmp/cml_telemetry_smoke.json cargo run --release -p cml-bench --bin bench_pr5 -- --smoke
    cargo run --release -p cml-bench --bin bench_pr6 -- --smoke
    cargo run --release -p cml-bench --bin bench_pr7 -- --smoke
    cargo run --release -p cml-bench --bin bench_pr8 -- --smoke
    cargo run --release -p cml-bench --bin bench_pr9 -- --smoke
    CML_TELEMETRY=prom:/tmp/cml_telemetry_smoke.prom cargo run --release -p cml-bench --bin bench_pr10 -- --smoke
    cargo run --release -p cml-lint --bin cml-lint -- forensics BENCH_pr10.cmlf --replay
