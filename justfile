# Development task runner. Same gates as .github/workflows/ci.yml.

# Run every CI gate locally.
ci: fmt-check clippy doc test perfbench-smoke lint-circuits analyze-circuits perf-budgets-smoke

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Reformat in place.
fmt:
    cargo fmt --all

# Lint gate (warnings are errors).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate (broken or private intra-doc links are errors).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Tier-1 verification: release build + full test suite.
test:
    cargo build --release
    cargo test -q

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

# Benchmark smoke test: builds the benchmark against the current
# crates and runs every workload at smoke size.
perfbench-smoke:
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Timing budgets at smoke size (lint and analyzer cost vs a dense
# transient, batched vs scalar yield, warm vs cold cache).
perf-budgets-smoke:
    cargo test --release -p cml-bench --test perf_budgets

# Every timing budget, the full-size ones included.
perf-budgets:
    cargo test --release -p cml-bench --test perf_budgets -- --include-ignored
