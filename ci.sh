#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, the full test suite,
# and a fast benchmark smoke run gated against a checked-in baseline.
# Everything runs offline — the workspace has no registry dependencies
# (proptest/criterion resolve to in-repo shims).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "== cargo build --release"
cargo build --release --workspace --offline

echo "== cargo test"
cargo test -q --workspace --offline

echo "== benchmark package (frozen lock file, smoke run, traced smoke run)"
# The benchmark is its own cargo package with its own Cargo.lock: a
# workspace edit that would rewrite that lock file fails here.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml > /dev/null
# run.sh exits 0 even when an output check fails: the verdict is the
# JSON object on its last stdout line. (Captured first: grep -q closing
# a pipe early would SIGPIPE run.sh under pipefail.)
bench=$(bash benchmark/run.sh --smoke)
verdict=$(tail -n 1 <<< "$bench")
grep -q '"correct":true' <<< "$verdict"
grep -Eq '"failed":0[,}]' <<< "$verdict"
# The traced run takes the benchmark's per-layer probes too.
bench=$(bash benchmark/run.sh --smoke --trace 1)
verdict=$(tail -n 1 <<< "$bench")
grep -q '"correct":true' <<< "$verdict"
grep -Eq '"failed":0[,}]' <<< "$verdict"

echo "== bench smoke + regression compare"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Two workers: exercises the parallel sweep path in CI; manifests are
# schedule-independent, so the baseline compare is unaffected.
./target/release/probe --scale test --threads 2 --json "$tmp/probe.json" > /dev/null

echo "== bottleneck smoke (CPI reconciliation, golden manifest)"
# The binary exits non-zero when any CPI stack fails exact
# reconciliation; its deterministic manifest is pinned byte-for-byte
# against the committed golden.
./target/release/bottleneck --scale test --deterministic \
    --json "$tmp/bottleneck.json" > /dev/null
cmp ci/baseline/bottleneck.json "$tmp/bottleneck.json"
# Full scale too: MV's long memory stalls only show there. The golden
# lives outside ci/baseline/, which `report compare` below globs.
./target/release/bottleneck --scale full --deterministic --threads 2 \
    --json "$tmp/bottleneck-full.json" > /dev/null
cmp ci/golden/bottleneck_full.json "$tmp/bottleneck-full.json"
rm "$tmp/bottleneck-full.json" "$tmp/bottleneck-full.host.json"

# Metric-level gate over both smoke manifests (probe + bottleneck).
./target/release/report compare ci/baseline "$tmp"

echo "== sweep smoke (parallel run, resume, deterministic manifests)"
./target/release/sweep probe --scale test --threads 2 --out "$tmp/sweep" 2> /dev/null
# Deterministic manifests: the parallel sweep writes the same bytes a
# serial standalone run does.
./target/release/probe --scale test --deterministic \
    --json "$tmp/serial-probe.json" > /dev/null
cmp "$tmp/sweep/probe.json" "$tmp/serial-probe.json"
# Rerun over the same results dir: everything must resume, not re-run.
# (Capture first: grep -q closing the pipe early would SIGPIPE the
# sweep under pipefail.)
rerun=$(./target/release/sweep probe --scale test --threads 2 --out "$tmp/sweep" 2>&1)
grep -q "0 executed" <<< "$rerun"

echo "== hostprof off-path (deterministic manifests unchanged)"
# Host-side profiling must never perturb simulated results: with
# --hostprof, deterministic manifests stay byte-identical to the plain
# run. Real timings land in the *.host.json side channel instead,
# which is never part of the gate.
./target/release/probe --scale test --deterministic --hostprof \
    --json "$tmp/hp.json" > /dev/null
cmp "$tmp/serial-probe.json" "$tmp/hp.json"
test -s "$tmp/hp.host.json"
rm "$tmp/hp.json" "$tmp/hp.host.json"

echo "== live telemetry (stream advisory, manifests byte-identical)"
# --live must never change simulated results: deterministic manifests
# stay byte-identical to the plain run. The stream itself must parse strictly
# line-by-line with at least one snapshot and a terminal record
# (`watch check`), and the dashboard must render from the file.
# Subdirectory: compare globs over $tmp/*.json must never see these.
mkdir -p "$tmp/live"
./target/release/probe --scale test --deterministic \
    --live "$tmp/live/probe.ndjson" --live-interval 256 \
    --json "$tmp/live/live-on.json" > /dev/null
cmp "$tmp/serial-probe.json" "$tmp/live/live-on.json"
./target/release/watch check "$tmp/live/probe.ndjson" > /dev/null
# Live also rides traced, observed runs: bottleneck's baseline carries
# the event tracer and a per-SM observer.
./target/release/bottleneck --scale test --deterministic \
    --live "$tmp/live/bottleneck.ndjson" --live-interval 256 \
    --json "$tmp/live/bottleneck.json" > /dev/null
cmp "$tmp/bottleneck.json" "$tmp/live/bottleneck.json"
./target/release/watch check "$tmp/live/bottleneck.ndjson" > /dev/null
# Capture first: grep -q closing the pipe early would SIGPIPE the
# renderer under pipefail.
frame=$(./target/release/watch "$tmp/live/probe.ndjson" --once)
grep -q "records" <<< "$frame"

echo "== serve smoke (job server: concurrent clients, cache, drain + resume)"
mkdir -p "$tmp/serve"
./target/release/serve --addr 127.0.0.1:0 --root "$tmp/serve/state" \
    --deterministic > "$tmp/serve/server.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  if grep -q "listening on" "$tmp/serve/server.log"; then break; fi
  sleep 0.1
done
addr=$(sed -n 's|serve: listening on http://||p' "$tmp/serve/server.log" | head -1)
test -n "$addr"
# Two concurrent clients submit the same grid; the digest dedupes their
# output, and both must be served byte-identical manifests.
./target/release/serve submit "$addr" probe --scale test --client a \
    --manifest-out "$tmp/serve/a.json" > "$tmp/serve/a.log" &
client_a=$!
./target/release/serve submit "$addr" probe --scale test --client b \
    --manifest-out "$tmp/serve/b.json" > "$tmp/serve/b.log" &
client_b=$!
wait "$client_a"
wait "$client_b"
cmp "$tmp/serve/a.json" "$tmp/serve/b.json"
# A fresh resubmission discards the grid dir, so completion must come
# entirely from the result cache: zero simulations, identical bytes.
fresh=$(./target/release/serve submit "$addr" probe --scale test --fresh \
    --manifest-out "$tmp/serve/c.json")
grep -q "executed 0" <<< "$fresh"
cmp "$tmp/serve/a.json" "$tmp/serve/c.json"
# The job manifests the server persists are byte-identical to what the
# standalone sweep (run above) wrote for the same grid.
for f in "$tmp/serve/state/grids"/*/jobs/probe/*.json; do
  case "$f" in *.host.json) continue ;; esac
  cmp "$f" "$tmp/sweep/jobs/probe/$(basename "$f")"
done
# Graceful drain: SIGTERM must exit cleanly with state persisted...
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "drained" "$tmp/serve/server.log"
# ...and a restarted server over the same root resumes the grid without
# re-running anything. This one binds the wildcard address, which its
# drain must wake through loopback: the drain fails CI past 10 s.
./target/release/serve --addr 0.0.0.0:0 --root "$tmp/serve/state" \
    --deterministic > "$tmp/serve/server2.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  if grep -q "listening on" "$tmp/serve/server2.log"; then break; fi
  sleep 0.1
done
port=$(sed -n 's|serve: listening on http://0\.0\.0\.0:||p' "$tmp/serve/server2.log" | head -1)
test -n "$port"
resume=$(./target/release/serve submit "127.0.0.1:$port" probe --scale test)
grep -q "executed 0" <<< "$resume"
drain_start=$(date +%s%N)
kill -TERM "$serve_pid"
wait "$serve_pid"
drain_ms=$(( ($(date +%s%N) - drain_start) / 1000000 ))
echo "serve: wildcard-bound drain took ${drain_ms} ms"
test "$drain_ms" -lt 10000

echo "== throughput smoke + regression floor (gated)"
# Wall-clock throughput is machine-dependent, so every host/* metric is
# informational except one same-run ratio: the engine's speed relative
# to the reference interpreter, timed kernel by kernel in the same
# process. A drop of more than 10% against the committed trend file
# fails CI, while improvements (and absolute or per-app numbers) only
# print. Regenerate the floor after an
# intentional change with:
#   cargo run --release -p gscalar-bench --bin throughput -- \
#       --scale test --json BENCH_throughput.json
./target/release/throughput --scale test \
    --json "$tmp/throughput/BENCH_throughput.json" > /dev/null
./target/release/report compare BENCH_throughput.json \
    "$tmp/throughput/BENCH_throughput.json" \
    --gate-min host/serial/speed_vs_reference=10

echo "== profile smoke"
# Separate subdirectory: the compare above globs $tmp/*.json and must
# not see the profile manifest. The binary itself exits non-zero when
# the per-PC attribution fails to reconcile with the aggregate stats.
./target/release/profile DIV --out "$tmp/profile" \
    --json "$tmp/profile/profile.json" > /dev/null
test -s "$tmp/profile/profile_divergent_annotated.txt"
test -s "$tmp/profile/profile_divergent_report.md"
# Manifest is schema-valid (report rejects unknown schemas) and carries
# a non-empty per-PC table.
./target/release/report aggregate "$tmp/profile" > /dev/null
grep -q '"profile/k00/pc' "$tmp/profile/profile.json"

echo "ci: all green"
