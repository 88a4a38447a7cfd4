#!/usr/bin/env sh
# Tier-1 verification, fully offline: build, test, lint.
#
#   sh scripts/verify.sh          # what CI runs
#   BFETCH_PROP_CASES=200 sh scripts/verify.sh   # heavier property sweeps
#
# The workspace has no external dependencies, so this needs no network
# and no pre-populated cargo registry.
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: release build (whole workspace: the root package does
#   not depend on bfetch-bench, so a bare 'cargo build' would leave the
#   harness binaries used below stale or missing)"
cargo build --release --workspace

echo "==> tier-1: root package tests"
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> benchmark package tests: committed digests, resume-equals-fresh"
# perfbench is a package of its own (its own [workspace]), so the
# workspace test run above does not reach it.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --workspace --doc -q

echo "==> timing benches compile (criterion-benches feature)"
cargo check -p bfetch-bench --benches --features criterion-benches -q

echo "==> simulator throughput smoke + mix8 regression gate (ext_simspeed --quick)"
# The gate compares the mix8/geomean *ratio* against the committed
# quick_baseline run, so it is immune to overall VM speed and only trips
# when the CMP stepping path itself regresses by more than 20%.
target/release/ext_simspeed --quick --label verify --out target/BENCH_simspeed.json \
  --gate BENCH_simspeed.json --gate-label quick_baseline --gate-pct 20

echo "==> CPI-stack smoke (ext_cpistack --quick) + timeline export"
target/release/ext_cpistack --quick --small --kernels mcf,libquantum \
  --timeline target/BENCH_cpistack_timeline.jsonl
test -s target/BENCH_cpistack_timeline.jsonl
grep -q '"event":"timeline_sample"' target/BENCH_cpistack_timeline.jsonl

echo "==> harness determinism: serial vs parallel vs cached stdout"
BIN=target/release/fig08_single
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT
ARGS="--small --instructions 20000 --warmup 5000 --cache-dir $CACHE"
$BIN $ARGS --threads 1 >"$CACHE/serial.txt" 2>/dev/null
$BIN $ARGS --threads 4 >"$CACHE/parallel.txt" 2>/dev/null
$BIN $ARGS --threads 4 >"$CACHE/cached.txt" 2>"$CACHE/cached.err"
cmp "$CACHE/serial.txt" "$CACHE/parallel.txt"
cmp "$CACHE/serial.txt" "$CACHE/cached.txt"
grep -q " 0 simulated" "$CACHE/cached.err"

echo "==> profiler: compile-out state + profiled run byte-identity + trace well-formedness"
# The prof crate's own suite runs with capture compiled *out* (its
# default feature set), and the bench stack must still build that way.
cargo test -q -p bfetch-prof
cargo check -q -p bfetch-bench --lib --no-default-features
# A profiled sweep must leave stdout byte-identical and produce a
# loadable Chrome trace plus the aggregate reports as sidecar files.
$BIN $ARGS --threads 1 --profile "$CACHE/prof" >"$CACHE/profiled.txt" 2>/dev/null
cmp "$CACHE/serial.txt" "$CACHE/profiled.txt"
test -s "$CACHE/prof/report.json"
test -s "$CACHE/prof/report.txt"
target/release/ext_profile --check-trace "$CACHE/prof/trace.json"

echo "==> measured phase breakdown: coverage gate (ext_profile --quick)"
# The instrumented coordinator-side phases must tile sim.run: falling
# coverage means a new engine phase went uninstrumented. 90% leaves
# noise headroom over the ~97% both engines measure.
target/release/ext_profile --quick --min-coverage 90 \
  --out target/PROF_phase_report.json >/dev/null

echo "==> parallel engine: cross-thread-count determinism + worker-panic typing"
cargo test -q -p bfetch-sim --test determinism

echo "==> CMP figures smoke: sim-threads 1 vs 4 byte-identical stdout"
FIG=target/release/fig16_cmp
$FIG --quick --small --no-cache -j 1 >"$CACHE/cmp_s1.txt"
$FIG --quick --small --no-cache -j 1 --sim-threads 4 >"$CACHE/cmp_s4.txt"
cmp "$CACHE/cmp_s1.txt" "$CACHE/cmp_s4.txt"
target/release/fig17_scale --quick --small --no-cache -j 1 --sim-threads 4 >/dev/null

echo "==> assembler gate: every bundled .s program assembles (asmcheck)"
target/release/asmcheck crates/workloads/asm/*.s

echo "==> real-program cross-validation smoke: thread-count byte-identity"
RP=target/release/fig_realprog
$RP --quick --small --no-cache -j 1 >"$CACHE/rp_j1.txt" 2>/dev/null
$RP --quick --small --no-cache -j 4 >"$CACHE/rp_j4.txt" 2>/dev/null
cmp "$CACHE/rp_j1.txt" "$CACHE/rp_j4.txt"
grep -q "pairs fully agree" "$CACHE/rp_j1.txt"

echo "==> fault injection: panic / livelock / runaway isolation end to end"
cargo test -q -p bfetch-bench --test faults

echo "==> cache GC: stranded tmp + stale schema swept, byte cap enforced"
printf 'half-written entry' >"$CACHE/deadbeefdeadbeef.json.tmp.99999"
printf '{"schema":1,"key":"v1|old","results":[]}' >"$CACHE/0123456789abcdef.json"
$BIN $ARGS --threads 4 --cache-gc --cache-cap 16K >/dev/null 2>"$CACHE/gc.err"
grep -q "cache-gc:" "$CACHE/gc.err"
grep -q "1 tmp" "$CACHE/gc.err"
grep -q "1 stale" "$CACHE/gc.err"
test ! -e "$CACHE/deadbeefdeadbeef.json.tmp.99999"
test ! -e "$CACHE/0123456789abcdef.json"
KEPT=$(sed -n 's/.*cache-gc: kept [0-9]* entries (\([0-9]*\) bytes).*/\1/p' "$CACHE/gc.err")
[ -n "$KEPT" ] && [ "$KEPT" -le 16384 ] || {
  echo "GC left $KEPT bytes, cap is 16384"; exit 1; }

echo "==> checkpoint/resume: interrupt exit path + resume byte-identity at sim-threads 1 and 4"
# BFETCH_HARNESS_INTERRUPT pre-arms the harness stop flag (the SIGINT
# mechanism minus signal-delivery races): every point checkpoints at its
# first poll boundary and the process exits 130 with stdout untouched.
# The rerun resumes each sidecar to completion; stdout must match a
# fresh uninterrupted run — at both engine thread counts, and across
# them (checkpoints are engine-agnostic).
CKARGS="--small --instructions 20000 --warmup 5000 --kernels mcf,libquantum --checkpoint-every 2000 --threads 1"
for ST in 1 4; do
  SNAP="$CACHE/snap$ST"; mkdir -p "$SNAP"
  rc=0
  BFETCH_HARNESS_INTERRUPT=1 $BIN $CKARGS --sim-threads $ST --cache-dir "$SNAP" \
    >"$SNAP/out.txt" 2>"$SNAP/err.txt" || rc=$?
  [ "$rc" -eq 130 ] || { echo "expected interrupt exit 130, got $rc"; exit 1; }
  grep -q "harness. interrupted" "$SNAP/err.txt"
  test ! -s "$SNAP/out.txt"
  ls "$SNAP"/*.snap >/dev/null
  $BIN $CKARGS --sim-threads $ST --cache-dir "$SNAP" >"$SNAP/resumed.txt" 2>/dev/null
  if ls "$SNAP"/*.snap >/dev/null 2>&1; then
    echo "sidecars not consumed after successful resume"; exit 1; fi
  $BIN $CKARGS --sim-threads $ST --no-cache >"$SNAP/fresh.txt" 2>/dev/null
  cmp "$SNAP/resumed.txt" "$SNAP/fresh.txt"
done
cmp "$CACHE/snap1/resumed.txt" "$CACHE/snap4/resumed.txt"

echo "==> simd feature matrix: explicit SSE2 probes, byte-identical results"
# Rebuilds the workspace with the opt-in `simd` feature (forwarded from
# every crate level), reruns the mem-crate suite (includes the
# scalar-vs-vectorized equivalence property test), and byte-compares a
# CMP figure's stdout against the default build's run from above.
cargo build --release --workspace --features bfetch-bench/simd
cargo test -q -p bfetch-mem --features simd
$FIG --quick --small --no-cache -j 1 >"$CACHE/cmp_simd.txt"
cmp "$CACHE/cmp_s1.txt" "$CACHE/cmp_simd.txt"

echo "verify: OK"
