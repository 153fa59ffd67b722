#!/usr/bin/env bash
# Bench smoke check: every bench binary must run to completion and exit 0,
# so no bench can rot unnoticed. Each runs once at minimal size — one
# training epoch per configuration (DDNN_EPOCHS=1) and a minimal
# google-benchmark time for bench_kernels — inside a scratch directory that
# holds its results, ledger and model cache, so the committed results/ are
# never touched. A failing bench's log tail is printed.
#
# Usage: check_bench_smoke.sh <workdir> <bench-binary>...
set -euo pipefail

work="${1:?usage: check_bench_smoke.sh <workdir> <bench-binary>...}"
shift
rm -rf "${work}"
mkdir -p "${work}"
work="$(cd "${work}" && pwd)"
export DDNN_RESULTS_DIR="${work}/results" DDNN_CACHE_DIR="${work}/cache"
export DDNN_EPOCHS=1

failed=0
for bin in "$@"; do
  name="$(basename "${bin}")"
  args=()
  if [ "${name}" = "bench_kernels" ]; then
    args=(--benchmark_min_time=0.01)
  fi
  echo "== ${name}"
  if ! (cd "${work}" && "${bin}" "${args[@]}" >"${work}/${name}.log" 2>&1); then
    echo "FAILED: ${name} (last lines of ${work}/${name}.log):"
    tail -n 20 "${work}/${name}.log"
    failed=1
  fi
done
if [ "${failed}" -ne 0 ]; then
  exit 1
fi
rm -rf "${work}"
echo "bench smoke passed: $# binaries exited 0"
