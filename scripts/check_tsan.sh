#!/usr/bin/env bash
# ThreadSanitizer smoke: configure a -DDDNN_SANITIZE_THREAD=ON build in a
# nested build directory, build only the thread-pool and engine tests, and
# run them with four compute threads. Covers the pool's chunk hand-off and
# completion join, and the threaded XNOR/sign/GEMM kernels and planned
# arenas behind the engine parity grid and the ConvP geometry sweep.
#
# Usage: check_tsan.sh <source-dir> [build-dir]
set -euo pipefail

src="${1:?usage: check_tsan.sh <source-dir> [build-dir]}"
build="${2:-${src}/build-tsan}"

cmake -S "${src}" -B "${build}" -DDDNN_SANITIZE_THREAD=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build}" -j "$(nproc)" --target test_thread_pool test_engine >/dev/null

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export DDNN_THREADS=4

echo "== tsan: test_thread_pool"
"${build}/tests/test_thread_pool" --gtest_brief=1
echo "== tsan: test_engine (parity grid, geometry sweep, CC fuse)"
"${build}/tests/test_engine" --gtest_brief=1 \
  --gtest_filter='*EngineParityGrid*:ConvPKernels.*'
echo "tsan smoke passed (ThreadSanitizer clean)"
