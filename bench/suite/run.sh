#!/usr/bin/env bash
# Build the benchmark suite and run every workload of BENCHMARK.json once.
#
#   bench/suite/run.sh [--seed=S] [--smoke] [--trace] [--bin=PATH] OUTDIR
#
# Writes OUTDIR/<workload>.json (untraced: end-to-end metrics) and, with
# --trace, OUTDIR/<workload>.traced.json plus a Chrome trace per workload
# under the build directory. Prints every metric as
# `workload metric value unit`. --smoke shrinks each workload to a few
# seconds (the ctest registered by bench/suite/CMakeLists.txt). bench.py
# checks that every metric named in BENCHMARK.json is emitted; any
# missing metric or correctness violation makes the exit status nonzero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
seed=1
extra=()
trace=0
out=""
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#--seed=}" ;;
    --smoke) extra+=(--smoke) ;;
    --trace) trace=1 ;;
    --bin=*) extra+=(--bin "${arg#--bin=}") ;;
    -*) echo "usage: $0 [--seed=S] [--smoke] [--trace] [--bin=PATH] OUTDIR" >&2
        exit 2 ;;
    *) out="$arg" ;;
  esac
done
if [[ -z "$out" ]]; then
  echo "usage: $0 [--seed=S] [--smoke] [--trace] [--bin=PATH] OUTDIR" >&2
  exit 2
fi
mkdir -p "$out"

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")

status=0
run_one() {  # workload trace outfile
  local log
  log="$(mktemp "$out/.run.XXXXXX")"
  if python3 "$here/bench.py" --workload "$1" --seed "$seed" --trace "$2" \
       --out "$3" ${extra[@]+"${extra[@]}"} > "$log"; then
    grep -v '^{' "$log" || true
  else
    cat "$log"
    echo "FAILED: $1 (trace=$2)" >&2
    status=1
  fi
  rm -f "$log"
}

for w in $workloads; do
  run_one "$w" 0 "$out/$w.json"
  if [[ "$trace" == 1 ]]; then
    run_one "$w" 1 "$out/$w.traced.json"
  fi
done
exit "$status"
