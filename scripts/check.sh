#!/usr/bin/env bash
# Tier-1 verification line: configure, build, and run the full test suite.
# The suite includes fuzz_smoke, a 60-second soundness-fuzzing campaign
# (examples/charon_fuzz) that fails on any oracle violation; under
# --sanitize the same campaign runs with ASan + UBSan instrumentation AND
# with CHARON_KERNEL_THRESHOLD=1, which forces every linalg kernel onto the
# thread pool so the threaded paths are exercised under the sanitizers even
# on fuzz-scale networks.
# After the suite, two bench smokes run: one micro-domain case and one
# scalar-vs-batched PGD case, each checking that the emitted JSON document
# is valid (full parse when python3 is available, structural grep
# otherwise). The PGD smoke doubles as a live engine-equivalence check (the
# bench aborts if the engines' objectives differ) and runs on the sanitize
# leg with CHARON_KERNEL_THRESHOLD=1, driving the batched search through
# the threaded kernels under ASan + UBSan.
# A trace/checkpoint smoke exports the ACAS-like suite, verifies a
# property with --trace (validating the charon-trace/1 JSONL schema), and
# exercises the Timeout -> --checkpoint -> --resume path; the sanitize leg
# runs it with --parallel and forced-threaded kernels.
# Finally two CEGAR smokes run: one ACAS property verified with
# --cegar --trace (the trace must carry cegar_round events alongside node
# events, and the verdict must match a direct run) and one bench_cegar
# case checking the charon-bench-cegar/1 JSON document; on the sanitize
# leg both run with forced-threaded kernels (and --parallel for the CLI).
# A certificate smoke then decides an exported ACAS property with --cert,
# requires charon_check to accept the emitted certificate, and requires it
# to reject a tampered copy; the sanitize leg runs it forced-threaded.
# A fleet smoke then serves a hard ACAS batch three ways — in-process,
# through a 2-worker process fleet, and through a fleet whose first
# dispatched worker is chaos-killed mid-run — and requires all three
# response streams to be byte-identical after zeroing the timing field
# (the chaos run must also report a worker restart). A persistent-cache
# smoke follows: a --certify --cache-file server decides the batch, a
# relaunched server re-answers it under a different delta, and the second
# summary must show the answers came from disk-loaded certificates.
# (The fleet unit/identity suites themselves run inside ctest on both
# legs, including under the sanitizers.)
# A dispatch-matrix leg re-runs the kernel, zonotope-layout, and batched
# execution suites under every CHARON_SIMD level the host supports
# (scalar always; avx2 when /proc/cpuinfo advertises it), so the suites'
# bit-identity and containment oracles are exercised against each backend
# explicitly rather than only the auto-selected one. The sanitize leg
# pins CHARON_SIMD=scalar for the matrix (keeping the instrumented run
# deterministic and cheap) and adds a single CHARON_SIMD=avx2 kernel_tests
# smoke so the vector backend still sees ASan + UBSan coverage.
# An ONNX smoke then generates the deterministic mixed fixture (conv +
# batch-norm + avg-pool + sigmoid residual), imports it, and decides the
# same property from the .net, straight from the .onnx, and through
# charon_serve with and without a 2-worker process fleet — all verdicts
# must agree and the serve response streams must be byte-identical; the
# sanitize leg runs the importer and the smooth transformers instrumented
# with forced-threaded kernels.
# A malformed-input smoke closes the run: oversized .net, .prop and
# certificate files, a NaN request line, a NaN-weight ONNX model, and
# malformed numeric flags of charon_serve and charon_cli (negative or
# oversized counts, trailing bytes, non-finite numbers, delta <= 0) must
# each be rejected with a diagnostic and an exit code in 1..127 (never a
# signal); the sanitize leg runs them under ASan + UBSan.
# Before any of that, scripts/check_test_registration.sh asserts every
# tests/*/*Tests.cpp file is registered in the ctest suite.
# Usage: scripts/check.sh [--sanitize]
#   --sanitize   build with -DCHARON_SANITIZE=ON (ASan + UBSan)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
SANITIZE=0
if [[ "${1:-}" == "--sanitize" ]]; then
  BUILD_DIR=build-sanitize
  CMAKE_ARGS+=(-DCHARON_SANITIZE=ON)
  SANITIZE=1
fi

# Every tests/*/*Tests.cpp must be wired into ctest before anything builds.
scripts/check_test_registration.sh

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ "$SANITIZE" == 1 ]]; then
  (cd "$BUILD_DIR" &&
     CHARON_KERNEL_THRESHOLD=1 ctest --output-on-failure -j "$(nproc)")
else
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
fi

# Dispatch-matrix leg: the SIMD-sensitive suites must pass at every level
# the host can run, not just the auto-selected one. kernel_tests carries
# the cross-level bit-identity and float32 containment oracles,
# zonotope_layout_tests the abstract-transformer layout invariants, and
# batch_exec_tests the batched-vs-scalar execution equivalence.
SIMD_SUITES=(kernel_tests zonotope_layout_tests batch_exec_tests)
SIMD_LEVELS=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  SIMD_LEVELS+=(avx2)
fi
if [[ "$SANITIZE" == 1 ]]; then
  # Keep the instrumented matrix cheap and deterministic: pin scalar (with
  # forced-threaded kernels, as above), then one avx2 kernel_tests smoke so
  # the vector backend runs under ASan + UBSan at least once.
  for SUITE in "${SIMD_SUITES[@]}"; do
    env CHARON_SIMD=scalar CHARON_KERNEL_THRESHOLD=1 \
      "$BUILD_DIR/tests/$SUITE"
  done
  if [[ " ${SIMD_LEVELS[*]} " == *" avx2 "* ]]; then
    env CHARON_SIMD=avx2 CHARON_KERNEL_THRESHOLD=1 \
      "$BUILD_DIR/tests/kernel_tests"
  fi
  echo "dispatch matrix: scalar suites + avx2 smoke OK (sanitize)"
else
  for LEVEL in "${SIMD_LEVELS[@]}"; do
    for SUITE in "${SIMD_SUITES[@]}"; do
      env CHARON_SIMD="$LEVEL" "$BUILD_DIR/tests/$SUITE"
    done
  done
  echo "dispatch matrix: ${SIMD_LEVELS[*]} OK"
fi

# Bench smoke: one micro-domain case must run and emit valid JSON.
SMOKE_JSON="$BUILD_DIR/bench-smoke.json"
"$BUILD_DIR/bench/bench_micro_domains" \
  --micro-filter=zonotope_dense_relu_w64 --micro-repeats=1 \
  --micro-out="$SMOKE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "charon-bench-micro-domains/3", doc["schema"]
assert doc["simd"] in ("scalar", "avx2"), doc["simd"]
assert len(doc["cases"]) == 1, doc["cases"]
case = doc["cases"][0]
for field in ("name", "domain", "precision", "act", "width", "hidden_layers",
              "input_dim", "output_dim", "generators", "margin", "seconds",
              "repeats"):
    assert field in case, field
assert case["precision"] in ("double", "float32"), case["precision"]
assert case["act"] in ("relu", "sigmoid", "tanh"), case["act"]
assert case["seconds"] > 0, case["seconds"]
print("bench smoke: JSON OK")
EOF
else
  grep -q '"schema": "charon-bench-micro-domains/3"' "$SMOKE_JSON"
  grep -q '"name": "zonotope_dense_relu_w64"' "$SMOKE_JSON"
  echo "bench smoke: JSON OK (grep)"
fi

# Cex-search smoke: one scalar-vs-batched PGD case must run (aborting on
# any engine disagreement) and emit valid JSON. On the sanitize leg the
# forced kernel threshold pushes the batched search onto the thread pool.
CEX_SMOKE_JSON="$BUILD_DIR/bench-cex-smoke.json"
CEX_ENV=()
if [[ "$SANITIZE" == 1 ]]; then
  CEX_ENV+=(CHARON_KERNEL_THRESHOLD=1)
fi
env "${CEX_ENV[@]}" "$BUILD_DIR/bench/bench_ablation_cex_search" \
  --cex-only --cex-filter=pgd_w64 --cex-repeats=1 \
  --cex-out="$CEX_SMOKE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CEX_SMOKE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "charon-bench-cex-search/1", doc["schema"]
assert len(doc["cases"]) == 1, doc["cases"]
case = doc["cases"][0]
for field in ("name", "kind", "width", "hidden_layers", "restarts", "steps",
              "objective", "scalar_seconds", "batched_seconds", "speedup",
              "repeats", "falsified_scalar", "falsified_batched"):
    assert field in case, field
assert case["batched_seconds"] > 0, case["batched_seconds"]
print("cex smoke: JSON OK")
EOF
else
  grep -q '"schema": "charon-bench-cex-search/1"' "$CEX_SMOKE_JSON"
  grep -q '"name": "pgd_w64_multistart"' "$CEX_SMOKE_JSON"
  echo "cex smoke: JSON OK (grep)"
fi

# Trace/checkpoint smoke: export a small ACAS-like suite, run a traced
# verification, validate the charon-trace/1 JSONL schema, then force a
# Timeout with a tiny budget, save its checkpoint, and resume it to
# completion. On the sanitize leg this whole path runs under ASan + UBSan
# with CHARON_KERNEL_THRESHOLD=1 (threaded kernels) and --parallel.
TRACE_DIR="$BUILD_DIR/trace-smoke"
rm -rf "$TRACE_DIR"
TRACE_ENV=()
TRACE_FLAGS=()
if [[ "$SANITIZE" == 1 ]]; then
  TRACE_ENV+=(CHARON_KERNEL_THRESHOLD=1)
  TRACE_FLAGS+=(--parallel)
fi
# The export trains the seed-321 suite into its own cache dir (the
# networks/ cache may hold a differently-seeded ACAS net from the bench
# harness). charon_cli exits 1 on Timeout; the trace is valid either way.
"$BUILD_DIR/examples/acas_export" "$TRACE_DIR" --count 2 \
  --cache "$TRACE_DIR" >/dev/null
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" \
  --budget 10 --trace "$TRACE_DIR/trace.jsonl" "${TRACE_FLAGS[@]}"
TRACE_RC=$?
set -e
if [[ "$TRACE_RC" != 0 && "$TRACE_RC" != 1 ]]; then
  echo "trace smoke: charon_cli failed (rc=$TRACE_RC)" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_DIR/trace.jsonl" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty trace"
outcomes = {"falsified", "verified", "split", "aborted"}
for line in lines:
    event = json.loads(line)
    for field in ("path", "depth", "diameter", "pgd_objective", "outcome",
                  "seconds"):
        assert field in event, field
    assert event["outcome"] in outcomes, event["outcome"]
    assert event["depth"] >= 0 and event["diameter"] > 0
paths = [e["path"] for e in map(json.loads, lines)]
assert "-" in paths, "root never expanded"
print(f"trace smoke: {len(lines)} JSONL events OK")
EOF
else
  grep -q '"path":"-"' "$TRACE_DIR/trace.jsonl"
  grep -q '"outcome":' "$TRACE_DIR/trace.jsonl"
  echo "trace smoke: JSONL OK (grep)"
fi

# Interrupt acas-0 (refinement-heavy under the seed-321 suite) with a
# 20 ms budget, then resume the saved checkpoint.
# charon_cli exits 1 on Timeout, so tolerate both codes
# at every hop; the checkpoint file must exist after the interrupt and the
# resumed run must accept it.
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-0.prop" \
  --budget 0.02 --checkpoint "$TRACE_DIR/cp.txt" "${TRACE_FLAGS[@]}"
INTERRUPT_RC=$?
set -e
if [[ "$INTERRUPT_RC" == 1 ]]; then
  test -s "$TRACE_DIR/cp.txt"
  grep -q '^charon-checkpoint 1$' "$TRACE_DIR/cp.txt"
  set +e
  env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-0.prop" \
    --budget 2 --resume "$TRACE_DIR/cp.txt" \
    --checkpoint "$TRACE_DIR/cp.txt" "${TRACE_FLAGS[@]}"
  RESUME_RC=$?
  set -e
  if [[ "$RESUME_RC" != 0 && "$RESUME_RC" != 1 ]]; then
    echo "resume smoke: charon_cli failed (rc=$RESUME_RC)" >&2
    exit 1
  fi
  echo "checkpoint smoke: interrupt + resume OK"
else
  echo "checkpoint smoke: property decided within 20ms, resume not exercised"
fi

# CEGAR smoke: verify one exported ACAS property abstract-first with
# --cegar --trace, then directly. The trace must interleave cegar_round
# events with the plain node events, and both runs must decide the
# property the same way. The sanitize leg reuses TRACE_ENV/TRACE_FLAGS,
# so the abstract rounds run with forced-threaded kernels and --parallel
# under ASan + UBSan.
CEGAR_TRACE="$TRACE_DIR/cegar-trace.jsonl"
set +e
CEGAR_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" \
  --budget 10 --cegar --trace "$CEGAR_TRACE" "${TRACE_FLAGS[@]}")
CEGAR_RC=$?
DIRECT_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" \
  --budget 10 "${TRACE_FLAGS[@]}")
DIRECT_RC=$?
set -e
for RC in "$CEGAR_RC" "$DIRECT_RC"; do
  if [[ "$RC" != 0 && "$RC" != 1 ]]; then
    echo "cegar smoke: charon_cli failed (rc=$RC)" >&2
    exit 1
  fi
done
CEGAR_VERDICT=$(printf '%s\n' "$CEGAR_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
DIRECT_VERDICT=$(printf '%s\n' "$DIRECT_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
if [[ -z "$CEGAR_VERDICT" || "$CEGAR_VERDICT" != "$DIRECT_VERDICT" ]]; then
  echo "cegar smoke: verdict mismatch (cegar='$CEGAR_VERDICT'," \
       "direct='$DIRECT_VERDICT')" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CEGAR_TRACE" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty cegar trace"
rounds = nodes = 0
for line in lines:
    event = json.loads(line)
    if event.get("kind") == "cegar_round":
        rounds += 1
        for field in ("round", "abstract_neurons", "original_neurons",
                      "spurious", "outcome", "seconds"):
            assert field in event, field
        assert event["outcome"] in {"verified", "falsified", "spurious",
                                    "timeout"}, event["outcome"]
        assert 0 < event["abstract_neurons"] <= event["original_neurons"]
        assert event["round"] >= 0 and event["spurious"] >= 0
    else:
        nodes += 1
        for field in ("path", "depth", "diameter", "pgd_objective",
                      "outcome", "seconds"):
            assert field in event, field
assert rounds > 0, "no cegar_round events"
assert nodes > 0, "no node events from the abstract search"
print(f"cegar smoke: {rounds} round + {nodes} node events OK")
EOF
else
  grep -q '"kind":"cegar_round"' "$CEGAR_TRACE"
  grep -q '"path":"-"' "$CEGAR_TRACE"
  echo "cegar smoke: trace OK (grep)"
fi
echo "cegar smoke: verdict '$CEGAR_VERDICT' matches direct run"

# CEGAR bench smoke: one dense-MLP case must run both modes (the runner
# aborts on a verdict contradiction) and emit valid JSON.
CEGAR_SMOKE_JSON="$BUILD_DIR/bench-cegar-smoke.json"
env "${CEX_ENV[@]}" "$BUILD_DIR/bench/bench_cegar" \
  --cegar-filter=cegar_mlp_w256 --cegar-repeats=1 \
  --cegar-out="$CEGAR_SMOKE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CEGAR_SMOKE_JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "charon-bench-cegar/1", doc["schema"]
assert len(doc["cases"]) == 1, doc["cases"]
case = doc["cases"][0]
for field in ("name", "kind", "width", "hidden_layers", "radius",
              "budget_seconds", "merge_ratio", "direct_outcome",
              "cegar_outcome", "direct_seconds", "cegar_seconds", "speedup",
              "rounds", "spurious", "fallbacks", "abstract_neurons",
              "original_neurons", "agree", "repeats"):
    assert field in case, field
assert case["cegar_seconds"] > 0, case["cegar_seconds"]
assert case["agree"] is True, case
print("cegar bench smoke: JSON OK")
EOF
else
  grep -q '"schema": "charon-bench-cegar/1"' "$CEGAR_SMOKE_JSON"
  grep -q '"name": "cegar_mlp_w256"' "$CEGAR_SMOKE_JSON"
  echo "cegar bench smoke: JSON OK (grep)"
fi

# Certificate smoke: decide an exported ACAS property with --cert, check
# the certificate with the standalone charon_check (which re-runs the
# abstract analyses and counterexamples but no search), then corrupt the
# recorded network fingerprint and require rejection. The sanitize leg
# reuses TRACE_ENV/TRACE_FLAGS, so both the emitting run and the checker
# replay go through forced-threaded kernels under ASan + UBSan.
CERT_FILE=""
CERT_PROP=""
for PROP in 1 0; do
  set +e
  env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-$PROP.prop" \
    --budget 30 --cert "$TRACE_DIR/acas-$PROP.cert" "${TRACE_FLAGS[@]}"
  CERT_RC=$?
  set -e
  if [[ "$CERT_RC" == 0 && -s "$TRACE_DIR/acas-$PROP.cert" ]]; then
    CERT_FILE="$TRACE_DIR/acas-$PROP.cert"
    CERT_PROP="$TRACE_DIR/acas-$PROP.prop"
    break
  fi
  if [[ "$CERT_RC" != 1 ]]; then
    echo "cert smoke: charon_cli failed (rc=$CERT_RC)" >&2
    exit 1
  fi
done
if [[ -z "$CERT_FILE" ]]; then
  echo "cert smoke: no exported property decided within budget" >&2
  exit 1
fi
grep -q '^charon-cert 1$' "$CERT_FILE"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$CERT_PROP" "$CERT_FILE"
echo "cert smoke: genuine certificate accepted"
sed 's/^network [0-9]*/network 1/' "$CERT_FILE" \
  > "$TRACE_DIR/tampered.cert"
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$CERT_PROP" "$TRACE_DIR/tampered.cert"
TAMPER_RC=$?
set -e
if [[ "$TAMPER_RC" == 0 ]]; then
  echo "cert smoke: tampered certificate was ACCEPTED" >&2
  exit 1
fi
echo "cert smoke: tampered certificate rejected (rc=$TAMPER_RC)"

# Fleet smoke: the same request batch must produce identical responses
# from the in-process service, a 2-worker process fleet, and a fleet whose
# first-dispatched worker is killed mid-run (which must also restart a
# worker). The suite is exported into its own cache dir with enough
# properties to include a refinement-heavy verified one (p2, ~270 nodes)
# and a falsified one (p3, exercising counterexample bit-identity).
FLEET_DIR="$BUILD_DIR/fleet-smoke"
rm -rf "$FLEET_DIR"
"$BUILD_DIR/examples/acas_export" "$FLEET_DIR" --count 6 \
  --cache "$FLEET_DIR" >/dev/null
FLEET_REQ="$FLEET_DIR/requests.jsonl"
: > "$FLEET_REQ"
for PROP in 2 3; do
  awk -v net="$FLEET_DIR/acas.net" '
    /^name /  {name=$2}
    /^target /{label=$2}
    /^lower / {lo=""; for(i=2;i<=NF;i++) lo=lo (i>2?",":"") $i}
    /^upper / {up=""; for(i=2;i<=NF;i++) up=up (i>2?",":"") $i}
    END {printf "{\"network\":\"%s\",\"name\":\"%s\",\"label\":%s,\
\"lower\":[%s],\"upper\":[%s],\"budget\":30}\n", net, name, label, lo, up}
  ' "$FLEET_DIR/acas-$PROP.prop" >> "$FLEET_REQ"
done
WORKER_BIN="$BUILD_DIR/examples/charon_worker"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" "$FLEET_REQ" \
  --no-cache --workers 1 --quiet > "$FLEET_DIR/serial.out"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" "$FLEET_REQ" \
  --no-cache --workers 1 --fleet-workers 2 --worker-bin "$WORKER_BIN" \
  --quiet > "$FLEET_DIR/fleet.out"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" "$FLEET_REQ" \
  --no-cache --workers 1 --fleet-workers 2 --worker-bin "$WORKER_BIN" \
  --fleet-chaos-kill 0 > "$FLEET_DIR/chaos.out" 2> "$FLEET_DIR/chaos.err"
for OUT in serial fleet chaos; do
  sed 's/"seconds":[0-9.eE+-]*/"seconds":0/' "$FLEET_DIR/$OUT.out" \
    > "$FLEET_DIR/$OUT.norm"
done
cmp "$FLEET_DIR/serial.norm" "$FLEET_DIR/fleet.norm"
cmp "$FLEET_DIR/serial.norm" "$FLEET_DIR/chaos.norm"
RESTARTS=$(sed -n 's/.* \([0-9][0-9]*\) worker restarts.*/\1/p' \
  "$FLEET_DIR/chaos.err")
if [[ -z "$RESTARTS" || "$RESTARTS" == 0 ]]; then
  echo "fleet smoke: chaos kill did not restart a worker" >&2
  cat "$FLEET_DIR/chaos.err" >&2
  exit 1
fi
echo "fleet smoke: serial/fleet/chaos responses identical," \
     "$RESTARTS worker restart(s)"

# Persistent-cache smoke: a --certify server fills the on-disk cache, a
# restarted server re-answers the same queries under a different delta —
# exact lookups must miss, so the hits can only come from disk-loaded
# certificates re-checked against the new config.
CACHE_DB="$FLEET_DIR/serve-cache.db"
rm -f "$CACHE_DB"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" "$FLEET_REQ" \
  --certify --cache-file "$CACHE_DB" --workers 1 --quiet >/dev/null
sed 's/"budget":30/"budget":30,"delta":1e-7/' "$FLEET_REQ" \
  > "$FLEET_DIR/requests-redelta.jsonl"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$FLEET_DIR/requests-redelta.jsonl" \
  --certify --cache-file "$CACHE_DB" --workers 1 \
  >/dev/null 2> "$FLEET_DIR/cache-restart.err"
CERTIFIED=$(sed -n 's/.*, \([0-9][0-9]*\) certified).*/\1/p' \
  "$FLEET_DIR/cache-restart.err")
LOADED=$(sed -n 's/.* \([0-9][0-9]*\) loaded from disk.*/\1/p' \
  "$FLEET_DIR/cache-restart.err")
if [[ -z "$CERTIFIED" || "$CERTIFIED" == 0 || -z "$LOADED" \
      || "$LOADED" == 0 ]]; then
  echo "cache restart smoke: no certified hits from the reloaded cache" >&2
  cat "$FLEET_DIR/cache-restart.err" >&2
  exit 1
fi
echo "cache restart smoke: $CERTIFIED certified hit(s) from $LOADED" \
     "disk-loaded entries"

# ONNX smoke: generate the deterministic mixed fixture, import it, and
# decide the same robust property four ways — from the imported .net, from
# the .onnx directly (exercising registry ingestion in charon_cli), and
# through charon_serve serially and with a 2-worker process fleet. The two
# CLI verdicts must match, and the two serve response streams must be
# byte-identical after zeroing the timing field. The sanitize leg reuses
# TRACE_ENV/TRACE_FLAGS, so the wire parser, the lowering, and the smooth
# relaxation transformers all run under ASan + UBSan with forced-threaded
# kernels.
ONNX_DIR="$BUILD_DIR/onnx-smoke"
rm -rf "$ONNX_DIR"
mkdir -p "$ONNX_DIR"
"$BUILD_DIR/examples/onnx_fixture_gen" mixed "$ONNX_DIR/mixed.onnx" \
  >/dev/null
"$BUILD_DIR/examples/charon_cli" --import-onnx "$ONNX_DIR/mixed.onnx" \
  "$ONNX_DIR/mixed.net" > "$ONNX_DIR/import.out"
grep -q 'fingerprint' "$ONNX_DIR/import.out"
# A small box around the constant-0.1 input, targeting the class the
# fixture assigns there (class 1) — robust, so every leg must verify it.
{
  echo "charon-property 1"
  echo "name onnx-smoke"
  echo "target 1"
  echo "dim 72"
  printf 'lower'; for _ in $(seq 72); do printf ' 0.09'; done; echo
  printf 'upper'; for _ in $(seq 72); do printf ' 0.11'; done; echo
} > "$ONNX_DIR/mixed.prop"
set +e
NET_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$ONNX_DIR/mixed.net" "$ONNX_DIR/mixed.prop" --budget 60 \
  "${TRACE_FLAGS[@]}")
NET_RC=$?
ONNX_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$ONNX_DIR/mixed.onnx" "$ONNX_DIR/mixed.prop" --budget 60 \
  "${TRACE_FLAGS[@]}")
ONNX_RC=$?
set -e
for RC in "$NET_RC" "$ONNX_RC"; do
  if [[ "$RC" != 0 && "$RC" != 1 ]]; then
    echo "onnx smoke: charon_cli failed (rc=$RC)" >&2
    exit 1
  fi
done
NET_VERDICT=$(printf '%s\n' "$NET_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
ONNX_VERDICT=$(printf '%s\n' "$ONNX_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
if [[ "$NET_VERDICT" != "verified" || "$ONNX_VERDICT" != "verified" ]]; then
  echo "onnx smoke: verdict mismatch (net='$NET_VERDICT'," \
       "onnx='$ONNX_VERDICT', expected 'verified')" >&2
  exit 1
fi
awk -v net="$ONNX_DIR/mixed.onnx" '
  /^name /  {name=$2}
  /^target /{label=$2}
  /^lower / {lo=""; for(i=2;i<=NF;i++) lo=lo (i>2?",":"") $i}
  /^upper / {up=""; for(i=2;i<=NF;i++) up=up (i>2?",":"") $i}
  END {printf "{\"network\":\"%s\",\"name\":\"%s\",\"label\":%s,\
\"lower\":[%s],\"upper\":[%s],\"budget\":60}\n", net, name, label, lo, up}
' "$ONNX_DIR/mixed.prop" > "$ONNX_DIR/requests.jsonl"
WORKER_BIN="$BUILD_DIR/examples/charon_worker"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$ONNX_DIR/requests.jsonl" --no-cache --workers 1 --quiet \
  > "$ONNX_DIR/serial.out"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$ONNX_DIR/requests.jsonl" --no-cache --workers 1 --fleet-workers 2 \
  --worker-bin "$WORKER_BIN" --quiet > "$ONNX_DIR/fleet.out"
for OUT in serial fleet; do
  sed 's/"seconds":[0-9.eE+-]*/"seconds":0/' "$ONNX_DIR/$OUT.out" \
    > "$ONNX_DIR/$OUT.norm"
done
cmp "$ONNX_DIR/serial.norm" "$ONNX_DIR/fleet.norm"
grep -q '"outcome":"verified"' "$ONNX_DIR/serial.out"
echo "onnx smoke: import + verify OK, serial/fleet responses identical"

# Malformed-input smoke: each byte boundary must turn a malformed input
# into a diagnostic and an exit code in 1..127, never a signal (an abort
# in the allocator, a segfault on a NaN) and never a sanitizer report. The
# inputs: a .net and a .prop declaring sizes their bytes cannot hold, a
# certificate declaring 10^17 nodes, a request line with NaN bounds, and
# an ONNX model with a NaN weight. The sanitize leg runs every loader
# under ASan + UBSan.
BAD_DIR="$BUILD_DIR/malformed-smoke"
rm -rf "$BAD_DIR"
mkdir -p "$BAD_DIR"
printf 'charon-network 1 1\ndense 200000 200000\n0 0\n' > "$BAD_DIR/huge.net"
printf 'charon-property 1\nname huge\ntarget 0\ndim 100000000000\n' \
  > "$BAD_DIR/huge.prop"
printf 'lower 0\nupper 1\n' >> "$BAD_DIR/huge.prop"
{
  echo "charon-cert 1"
  echo "verdict verified"
  echo "network 1 property 2 config 3"
  echo "delta 9.9999999999999995e-07"
  echo "dim 5 class 0"
  echo "nodes 99999999999999999"
  echo "end"
} > "$BAD_DIR/huge.cert"
printf '{"network":"%s","label":0,"lower":[nan,0,0,0,0],%s}\n' \
  "$TRACE_DIR/acas.net" '"upper":[nan,1,1,1,1],"budget":1' \
  > "$BAD_DIR/nan.jsonl"
"$BUILD_DIR/examples/onnx_fixture_gen" nan-gemm "$BAD_DIR/nan.onnx" \
  >/dev/null
{
  echo "charon-property 1"
  echo "name nan-gemm"
  echo "target 0"
  echo "dim 2"
  echo "lower 0 0"
  echo "upper 1 1"
} > "$BAD_DIR/nan-gemm.prop"
expect_rejected() {
  local NAME=$1
  shift
  set +e
  env "${TRACE_ENV[@]}" "$@" > "$BAD_DIR/$NAME.out" 2> "$BAD_DIR/$NAME.err"
  local RC=$?
  set -e
  if [[ "$RC" -lt 1 || "$RC" -gt 127 ]] || [[ ! -s "$BAD_DIR/$NAME.err" ]] ||
     grep -qE 'Sanitizer|runtime error' "$BAD_DIR/$NAME.err"; then
    echo "malformed-input smoke: $NAME exited $RC" >&2
    cat "$BAD_DIR/$NAME.err" >&2
    exit 1
  fi
  echo "malformed-input smoke: $NAME rejected (rc=$RC):" \
       "$(head -n1 "$BAD_DIR/$NAME.err")"
}
expect_rejected huge-net "$BUILD_DIR/examples/charon_cli" \
  "$BAD_DIR/huge.net" "$TRACE_DIR/acas-1.prop"
expect_rejected huge-prop "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$BAD_DIR/huge.prop"
expect_rejected huge-cert "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" "$BAD_DIR/huge.cert"
expect_rejected nan-request "$BUILD_DIR/examples/charon_serve" \
  "$BAD_DIR/nan.jsonl" --no-cache --workers 1
expect_rejected nan-onnx "$BUILD_DIR/examples/charon_cli" \
  "$BAD_DIR/nan.onnx" "$BAD_DIR/nan-gemm.prop"
# Malformed flags: counts must be plain non-negative integers within their
# bound (a worker count is threads or processes), numbers finite with no
# trailing bytes, and delta positive (Theorem 5.2). Each is a usage error.
BAD_FLAGS=(
  "--workers -1" "--workers 1025" "--workers 99999999999" "--workers 2x"
  "--fleet-workers -1" "--fleet-workers 1025" "--cache -5" "--cache 1e3"
  "--fleet-chaos-kill -1"
)
for FLAGS in "${BAD_FLAGS[@]}"; do
  # shellcheck disable=SC2086  # each entry is a flag and its value
  expect_rejected "serve${FLAGS// /}" "$BUILD_DIR/examples/charon_serve" \
    "$BAD_DIR/nan.jsonl" --no-cache $FLAGS
done
BAD_FLAGS=(
  "--delta 0" "--delta -1e-6" "--delta nan" "--budget inf" "--budget 1x"
  "--cegar-ratio 0" "--cegar-rounds -1" "--cegar-rounds 3.5"
)
for FLAGS in "${BAD_FLAGS[@]}"; do
  # shellcheck disable=SC2086
  expect_rejected "cli${FLAGS// /}" "$BUILD_DIR/examples/charon_cli" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" $FLAGS
done
