#!/usr/bin/env bash
# CI-style gates beyond plain ctest:
#   1. Sanitizer stage: builds and runs the concurrency-sensitive tests under
#      ThreadSanitizer AND AddressSanitizer (+UBSan) — the obs + sim tests,
#      the batched-ops test that exercises the thread-local grad-mode switch,
#      the arena/tensor-pool test (cold-vs-warm tape parity, pooled-buffer
#      recycling — the ASan pass is what proves recycled buffers are never
#      used after free), the parallel-layer tests, and the batched-parity
#      test (batch-1 LST-GAT inference through the row-copy ops and the
#      in-place small-m GEMM kernel), and the eval/trace/core/env tests that
#      cover the one policy/sim loop, the one agent/env loop and the shared
#      perception chain, all pinned to HEAD_THREADS=4 so the pool actually
#      races even on a 1-core CI box. UBSan findings are fatal
#      (-fno-sanitize-recover=undefined), so a report fails the stage.
#   2. Perf smoke stage: optimized build of bench/training_throughput (a few
#      seconds at the fast profile), gated against the checked-in baseline —
#      fails if batched training or pooled-rollout throughput regresses more
#      than 30% — and against the zero-allocation invariant: a warmed-up
#      training step must perform 0 arena/pool heap events
#      (--require-zero-allocs). Emits BENCH_training_throughput.json and an
#      obs metrics snapshot (nn_alloc_* gauges) next to the build.
#   3. Scalar-fallback stage: configures a tree with -DHEAD_SIMD_DISABLE=ON
#      (no AVX2 TU — the portable scalar kernel backend only, as on a
#      non-x86 or pre-AVX2 host) and runs the *entire* ctest suite against
#      it. Proves the SIMD dispatch layer degrades to the seed-exact scalar
#      schedules without losing a single test.
#   4. Flight-recorder smoke stage: drives head_cli end-to-end — records a
#      forced-collision episode (crash policy) into a scratch dump dir, then
#      replays the dump and requires bitwise parity with the recording.
#   5. Profile stage: records a short op profile from the optimized tree
#      (training_throughput --profile-out at --threads=1, requiring ≥95%
#      of root wall time attributed to per-op rows) and diffs it against
#      the committed baseline with tools/profile_diff.py — fails when any
#      sizable op's per-call self time regressed ≥50%.
#   6. Serve stage: optimized build of bench/serve_throughput (single-request
#      vs cross-client-batched decision serving plus three open-loop Poisson
#      load points), gated against the checked-in baseline — fails if serving
#      throughput regresses more than 30%, if the 0.6x-load p99 blows past
#      its recorded noise envelope, or if a warmed-up served batch performs
#      any arena/pool heap event per request (--require-zero-allocs).
#
# Usage:
#   tools/check.sh                         # all stages (tsan + asan + perf)
#   HEAD_SANITIZE=address tools/check.sh   # only the ASan+UBSan stage
#   HEAD_SANITIZE=thread tools/check.sh    # only the TSan stage
#   HEAD_SKIP_PERF=1 tools/check.sh        # skip the perf gate
#   HEAD_SKIP_SCALAR=1 tools/check.sh      # skip the scalar-fallback suite
#   HEAD_SKIP_SMOKE=1 tools/check.sh       # skip the flight-recorder smoke
#   HEAD_SKIP_PROFILE=1 tools/check.sh     # skip the op-profile diff gate
#   HEAD_SKIP_SERVE=1 tools/check.sh       # skip the serve throughput gate
set -euo pipefail

cd "$(dirname "$0")/.."

# Default: run both sanitizers back to back. HEAD_SANITIZE picks just one.
SANITIZERS=(thread address)
if [[ -n "${HEAD_SANITIZE:-}" ]]; then
  SANITIZERS=("${HEAD_SANITIZE}")
fi

SAN_TESTS=(obs_test obs_trace_test obs_recorder_test obs_timeseries_test
           obs_profiler_test flight_replay_test sim_simulation_test
           sim_models_test nn_batched_ops_test nn_arena_test nn_simd_test
           parallel_test parallel_determinism_test serve_test
           batched_parity_test eval_test scenario_trace_test core_test
           rl_env_test)

for SANITIZER in "${SANITIZERS[@]}"; do
  BUILD_DIR="build-${SANITIZER}san"

  cmake -B "${BUILD_DIR}" -S . -DHEAD_SANITIZE="${SANITIZER}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j --target "${SAN_TESTS[@]}"

  echo "== running obs + sim + nn + parallel tests under ${SANITIZER} sanitizer =="
  for t in "${SAN_TESTS[@]}"; do
    echo "-- ${t} (HEAD_THREADS=4)"
    HEAD_THREADS=4 "${BUILD_DIR}/tests/${t}"
  done
  echo "== ${SANITIZER}-sanitized checks passed =="
done

if [[ "${HEAD_SKIP_PERF:-0}" != "1" ]]; then
  # Perf needs an optimized, unsanitized build — separate from the sanitizer
  # trees so switching stages never rebuilds the world.
  PERF_BUILD_DIR="build-perf"
  cmake -B "${PERF_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${PERF_BUILD_DIR}" -j --target training_throughput

  # HEAD_PERF_THREADS pins the measured thread count; the committed baseline
  # was recorded at --threads=1 on a 1-core container, so 1 is the default.
  PERF_THREADS="${HEAD_PERF_THREADS:-1}"
  echo "== perf smoke: training throughput (--threads=${PERF_THREADS}) vs checked-in baseline =="
  "${PERF_BUILD_DIR}/bench/training_throughput" \
    --skip-per-sample \
    --threads="${PERF_THREADS}" \
    --json-out="${PERF_BUILD_DIR}/BENCH_training_throughput.json" \
    --metrics-out="${PERF_BUILD_DIR}/BENCH_metrics.json" \
    --baseline=bench/baselines/training_throughput.json \
    --max-regress=0.30 \
    --require-zero-allocs
  echo "== perf smoke passed (JSON: ${PERF_BUILD_DIR}/BENCH_training_throughput.json) =="
fi

if [[ "${HEAD_SKIP_SCALAR:-0}" != "1" ]]; then
  # Scalar-fallback suite: the whole test battery against a binary with no
  # AVX2 TU at all — what a non-x86 / pre-AVX2 host would run. The SIMD
  # parity tests GTEST_SKIP their AVX2 legs; everything else must pass on
  # the portable scalar backend alone.
  SCALAR_BUILD_DIR="build-scalar"
  cmake -B "${SCALAR_BUILD_DIR}" -S . -DHEAD_SIMD_DISABLE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${SCALAR_BUILD_DIR}" -j
  echo "== scalar-fallback suite: full ctest with -DHEAD_SIMD_DISABLE=ON =="
  ctest --test-dir "${SCALAR_BUILD_DIR}" --output-on-failure
  echo "== scalar-fallback suite passed =="
fi

if [[ "${HEAD_SKIP_SMOKE:-0}" != "1" ]]; then
  # Shares the optimized tree with the perf stage (creates it when perf was
  # skipped); only head_cli needs to build.
  SMOKE_BUILD_DIR="build-perf"
  cmake -B "${SMOKE_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${SMOKE_BUILD_DIR}" -j --target head_cli

  DUMP_DIR="${SMOKE_BUILD_DIR}/flight_smoke"
  rm -rf "${DUMP_DIR}"
  echo "== flight-recorder smoke: record a forced collision, then replay =="
  "${SMOKE_BUILD_DIR}/tools/head_cli" --record-dir="${DUMP_DIR}" \
    run dense crash 1 1234
  MANIFEST="$(ls "${DUMP_DIR}"/*.manifest.json | head -1)"
  [[ -n "${MANIFEST}" ]] || { echo "no flight dump produced" >&2; exit 1; }
  "${SMOKE_BUILD_DIR}/tools/head_cli" replay "${MANIFEST}"
  echo "== flight-recorder smoke passed (${MANIFEST}) =="
fi

if [[ "${HEAD_SKIP_PROFILE:-0}" != "1" ]]; then
  # Shares the optimized tree with the perf/smoke stages. The profiled pass
  # is deliberately tiny (1 trial, no gemm sweep) — the gate is per-call
  # self time, which a short run measures as well as a long one. The
  # committed baseline records each op's *noise envelope* (per-op max
  # us/call over repeated runs on the reference container, whose scheduler
  # jitter swings sub-ms ops several-fold run to run), so the diff is a
  # backstop against step-change regressions, not a ±50% microbenchmark.
  PROFILE_BUILD_DIR="build-perf"
  cmake -B "${PROFILE_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${PROFILE_BUILD_DIR}" -j --target training_throughput

  echo "== op-profile: record (--threads=1, coverage >= 95%) and diff vs baseline =="
  "${PROFILE_BUILD_DIR}/bench/training_throughput" \
    --skip-per-sample --skip-gemm --trials=1 --threads=1 \
    --profile-out="${PROFILE_BUILD_DIR}/BENCH_profile.json" \
    --min-profile-coverage=0.95 > /dev/null
  python3 tools/profile_diff.py \
    bench/baselines/profile_training_throughput.json \
    "${PROFILE_BUILD_DIR}/BENCH_profile.json" \
    --threshold=0.5
  echo "== op-profile diff passed (${PROFILE_BUILD_DIR}/BENCH_profile.json) =="
fi

if [[ "${HEAD_SKIP_SERVE:-0}" != "1" ]]; then
  # Shares the optimized tree with the perf/smoke/profile stages. Like the
  # perf stage, the committed baseline was recorded at --threads=1 on the
  # 1-core reference container; HEAD_PERF_THREADS overrides.
  SERVE_BUILD_DIR="build-perf"
  cmake -B "${SERVE_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${SERVE_BUILD_DIR}" -j --target serve_throughput

  SERVE_THREADS="${HEAD_PERF_THREADS:-1}"
  echo "== serve smoke: decision-serving throughput (--threads=${SERVE_THREADS}) vs checked-in baseline =="
  "${SERVE_BUILD_DIR}/bench/serve_throughput" \
    --threads="${SERVE_THREADS}" \
    --json-out="${SERVE_BUILD_DIR}/BENCH_serve_throughput.json" \
    --metrics-out="${SERVE_BUILD_DIR}/BENCH_serve_metrics.json" \
    --baseline=bench/baselines/serve_throughput.json \
    --max-regress=0.30 \
    --require-zero-allocs
  echo "== serve smoke passed (JSON: ${SERVE_BUILD_DIR}/BENCH_serve_throughput.json) =="
fi
