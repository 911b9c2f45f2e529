#!/usr/bin/env bash
# What compiled-in telemetry costs each benchmark workload (ablation A13:
# telemetry ON vs OFF).
#
#   tools/telemetry_cost.sh OUTDIR [PAIRS]
#
# Builds the suite's toma_bench twice from the current tree: build-bench/
# with telemetry on (the default build) and build-bench-notel/ with
# -DTOMA_TELEMETRY=OFF. Then runs PAIRS (default 10) pairs of
# bench/suite/run.sh, one run per build, alternating which build goes
# first, into OUTDIR/on/NN and OUTDIR/off/NN. Last it prints
# bench/suite/compare.py with ON as the parent and OFF as the change: a
# "better" row is a cost telemetry has, shown beyond noise.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 OUTDIR [PAIRS]" >&2
  exit 2
fi
out="$1"
pairs="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

build() {  # build dir, extra cmake args...
  local dir="$root/$1"
  shift
  cmake -S "$root/bench/suite" -B "$dir" -DCMAKE_BUILD_TYPE=Release "$@" \
    > /dev/null
  cmake --build "$dir" --target toma_bench -j "$jobs" > /dev/null
}
build build-bench -DTOMA_TELEMETRY=ON
build build-bench-notel -DTOMA_TELEMETRY=OFF

run() {  # on|off, pair index
  local bin="$root/build-bench/toma_bench"
  [[ "$1" == off ]] && bin="$root/build-bench-notel/toma_bench"
  "$root/bench/suite/run.sh" --bin="$bin" "$out/$1/$2" > /dev/null
}
for ((i = 0; i < pairs; ++i)); do
  n="$(printf %02d "$i")"
  if ((i % 2 == 0)); then
    run on "$n"
    run off "$n"
  else
    run off "$n"
    run on "$n"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 "$root/bench/suite/compare.py" "$out/on" "$out/off"
