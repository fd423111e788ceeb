#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency tests
# again under ThreadSanitizer (-DQPS_SANITIZE=THREAD). ASan and TSan cannot
# be combined, so the TSan pass uses its own build tree and only re-runs the
# tests that exercise the thread pool and the parallel MCTS/batched-forward
# hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: metric-name lint =="
./scripts/check_metric_names.sh

echo "== tier-1: release build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== tier-1: forced-scalar int8 kernel leg (QPS_FORCE_SCALAR=1) =="
# The int8 GEMM dispatches to SIMD kernels at runtime; this leg pins the
# portable scalar kernel and re-runs the tests that exercise quantized
# inference, so a host without AVX2 is covered from an AVX-512 CI box.
(cd build && QPS_FORCE_SCALAR=1 ctest --output-on-failure \
  -R "quant_test|nn_test|model_manager_test|checkpoint_test")

echo "== tier-1: TSan build (threadpool + hot-path + serving + metrics/obs + fuzz-replay + TabSketch tests) =="
cmake -B build-tsan -S . -DQPS_SANITIZE=THREAD >/dev/null
cmake --build build-tsan -j --target threadpool_test hotpath_test \
  planner_conformance_test plan_service_test model_manager_test \
  tenant_test resilience_test planner_fuzz_test metrics_test obs_test \
  tabert_test
(cd build-tsan && ctest --output-on-failure \
  -R "threadpool_test|hotpath_test|planner_conformance_test|plan_service_test|model_manager_test|tenant_test|resilience_test|planner_fuzz_test|metrics_test|obs_test|tabert_test")

echo "== tier-1: ASan checkpoint-loader fuzz (10k fixed-seed inputs) =="
cmake -B build-asan -S . -DQPS_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target serialize_fuzz_test
(cd build-asan && QPS_FUZZ_ITERS=10000 ctest --output-on-failure \
  -R "serialize_fuzz_test")

echo "== tier-1: ASan chaos smoke (serve tests with fault points armed) =="
# The resilience/serving tests arm util/fault points (injected errors,
# stalls, NaN corruption) on the serve path; this leg re-runs them under
# ASan so cancellation and retry paths leak nothing when attempts die
# mid-plan.
cmake --build build-asan -j --target resilience_test plan_service_test
(cd build-asan && ctest --output-on-failure \
  -R "resilience_test|plan_service_test")

echo "== tier-1: ASan planner fuzz smoke (fixed-seed differential campaign) =="
cmake --build build-asan -j --target qps_fuzz
./build-asan/src/fuzz/qps_fuzz --iters=2000 --seed=42 --log-every=1000

echo "tier-1 OK"
