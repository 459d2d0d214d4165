#!/usr/bin/env bash
# The benchmark's one command. Builds the simulator's CLI and the benchmark
# in release mode, then hands every argument to pptbench:
#
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one pass; the last stdout line is the result object
#   benchmarks/run.sh [--seed N] [--workload W] [--seconds S | --reps R] [--traced]
#       a set: each workload in its own child process, one at a time;
#       prints every metric by name with its unit, writes benchmarks/out/,
#       exits non-zero when an output check fails
#   benchmarks/run.sh --stability        two sets of the same code must agree
#   benchmarks/run.sh diff A.json B.json compare two sets against the bounds
#   benchmarks/run.sh --self-test        the benchmark's own tests (debug build)
#
# See benchmarks/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, inside the checkout, so pptbench
# finds pptlab next to itself. Build output goes to stderr: stdout carries
# only the benchmark's lines.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ "${1:-}" = "--self-test" ]; then
    cargo build --offline --quiet --manifest-path "$root/Cargo.toml" -p pptlab >&2
    exec cargo test --offline --quiet --manifest-path benchmarks/pptbench/Cargo.toml
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pptlab >&2
cargo build --release --offline --quiet --manifest-path benchmarks/pptbench/Cargo.toml >&2

PPTBENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
PPTBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export PPTBENCH_GIT_REV PPTBENCH_RUSTC

exec "$CARGO_TARGET_DIR/release/pptbench" "$@"
