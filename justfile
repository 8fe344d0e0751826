# Development task runner. Same gates as .github/workflows/ci.yml.

# Run every CI gate locally.
ci: fmt-check loc clippy doc test test-release perfbench-smoke lint-circuits perf-budgets-smoke

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

# The full suite again in release, where `debug_assert!`s are off:
# tests gated on `debug_assertions` have release twins that run here.
test-release:
    cargo test --release -q --workspace

# Static netlist DRC over every generated circuit block (fails on any
# error-level diagnostic; `cml-lint --codes` documents the code table).
lint-circuits:
    cargo run --release -p cml-lint --bin cml-lint -- --builtin all

# Benchmark smoke test: builds the benchmark against the current
# crates and runs every workload at smoke size.
perfbench-smoke:
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Alternating A/B runs of the benchmark in BENCHMARK.json: the commit
# REV against the working tree, N pairs of full-length runs on WORKLOAD.
bench-pairs REV WORKLOAD N:
    sh scripts/bench_pairs.sh {{REV}} {{WORKLOAD}} {{N}}

# Every `cml-bench` binary at the commit REV against the working tree:
# byte-identical stdout (sweeps at `--threads 1`), one line per binary.
bins-identical REV:
    sh scripts/bins_identical.sh {{REV}}

# Non-test lines of crates/spice and crates/numeric (each `.rs` file up
# to its first `#[cfg(test)]` line), the size the roadmap tracks.
loc:
    sh scripts/loc.sh

# Timing budgets at smoke size (lint precheck cost vs a dense
# transient, batched vs scalar yield, warm vs cold cache).
perf-budgets-smoke:
    cargo test --release -p cml-bench --test perf_budgets

# Every timing budget, the full-size ones included.
perf-budgets:
    cargo test --release -p cml-bench --test perf_budgets -- --include-ignored
