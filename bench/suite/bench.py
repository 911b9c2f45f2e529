#!/usr/bin/env python3
"""Build the benchmark suite and run one workload.

    python3 bench/suite/bench.py --workload NAME --seed N --seconds N --trace 0|1
                                 [--out PATH] [--smoke] [--bin PATH]

Run from anywhere inside a checkout. The first run configures and builds
the suite (bench/suite/CMakeLists.txt, Release) into $CARGO_TARGET_DIR if
set, else build-bench/, both relative to the repository root; later runs
only rebuild what changed. The run itself is one toma_bench process.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and toma_bench also writes a
Chrome trace under <build dir>/traces/. --out keeps toma_bench's full
result file (every metric, sample counts, per-rep series).

Exit status: 0 when the run was correct; 1 on a build failure, a missing
metric, a timeout, or a correctness violation (the result line is still
printed for a violation).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or "build-bench")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure (once) and build toma_bench; returns the binary path."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # A failed configure leaves a cache but no build system behind.
        if not any((bdir / f).exists() for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target", "toma_bench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log("bench.py: build step failed: " + " ".join(cmd))
                return None
    return bdir / "toma_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="copy the full result JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this toma_bench instead of building")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"bench.py: unknown workload {args.workload!r}")
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    bdir = build_dir()
    binary = Path(args.bin) if args.bin else build(bdir)
    if binary is None or not binary.exists():
        log("bench.py: no toma_bench binary")
        return 1

    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-traced" if args.trace else "")
    result_path = results / f"{stem}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / (stem + '.json')}")
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(r.stdout)
    if r.returncode not in (0, 1) or not result_path.exists():
        log(f"bench.py: toma_bench exited with {r.returncode}")
        return 1

    result = json.loads(result_path.read_text())
    if args.out:
        shutil.copyfile(result_path, args.out)
    section, wanted = (("per_layer", spec["per_layer"]) if args.trace
                       else ("e2e", spec["end_to_end"]))
    metrics = {}
    for m in wanted:
        got = result[section].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"bench.py: {args.workload} did not emit {m['name']} "
                f"in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"] and r.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if r.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
