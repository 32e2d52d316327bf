#!/usr/bin/env bash
# Builds the benchmark package and runs it from the repository root.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1] [--smoke] [--repeat N] [--check]
#
# Without --workload every workload runs, each in its own child process.
# Metrics print as `workload name value unit` lines; the last stdout
# line is one JSON result object. Results, traces and scratch state go
# to <target>/benchmark/, where <target> is $CARGO_TARGET_DIR or
# `target`. --check also runs the package's tests first.
set -euo pipefail

root="$(pwd)"
manifest="$root/benchmark/Cargo.toml"
target="${CARGO_TARGET_DIR:-target}"

check=0
args=()
for a in "$@"; do
    if [ "$a" = "--check" ]; then check=1; else args+=("$a"); fi
done

cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
if [ "$check" = 1 ]; then
    cargo test --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
fi
exec "$target/release/gscalar-benchmark" --root "$root" --out-dir "$target/benchmark" "${args[@]}"
