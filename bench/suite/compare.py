#!/usr/bin/env python3
"""Compare two sets of suite results: the parent commit and a change.

    python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR

Each directory holds toma_bench result files (run.sh OUTDIR/*.json or
bench.py --out), searched recursively. Runs of the same workload are
paired in file-name order, so name them so the i-th parent run and the
i-th change run were taken back to back, alternating which went first.

For every (workload, end-to-end metric) pair it prints both sides'
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

  better        the change won at least 9/10 of at least 10 pairs and the
                medians differ by more than the parent's quartile spread
  worse         the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
  unresolved    the parent's own quartile spread exceeds the bound, and
                not every change run beats every parent run
  within bound  otherwise

The same rows follow for the ungated timings (throughput and median
latency, per-layer in BENCHMARK.json because they do not repeat within a
bound on a shared host). They have no bound, so "worse" mirrors
"better": the change lost at least 9/10 of at least 10 pairs and the
medians differ by more than the parent's quartile spread. Anything else
reads "no change shown".

Then comes one summary row per workload (its worst verdict). Per-layer work
counts marked exact are compared for equality on kernel_small_churn and
kernel_fill, within each side and across the two. Exit status 1 when any
row is worse. Standard library only.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT_WORKLOADS = ("kernel_small_churn", "kernel_fill")
UNGATED_TIMINGS = ("ops_per_s", "malloc_p50_ns", "free_p50_ns")
MIN_PAIRS_FOR_GAIN = 10


def load(directory):
    """workload -> [result], in file-name order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            r = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(r, dict) or "workload" not in r or "e2e" not in r:
            continue
        runs[r["workload"]].append(r)
    return runs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """(verdict, wins, pairs) for one metric; `better` is lower|higher and
    `bound` is None for an ungated timing."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value: higher wins
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c > sign * p)
    losses = sum(1 for p, c in pairs if sign * c < sign * p)
    spread = (pq3 - pq1) / abs(pm) if pm else 0.0
    worse_by = (sign * (pm - cm)) / abs(pm) if pm else 0.0
    decisive = len(pairs) >= MIN_PAIRS_FOR_GAIN and abs(cm - pm) > pq3 - pq1
    if decisive and wins >= 0.9 * len(pairs) and sign * (cm - pm) > 0:
        return "better", wins, len(pairs)
    if bound is None:
        if decisive and losses >= 0.9 * len(pairs) and sign * (cm - pm) < 0:
            return "worse", wins, len(pairs)
        return "no change shown", wins, len(pairs)
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "within bound", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def exact_counts(results):
    """(seed, seconds, smoke) -> {metric: set of values} over the exact
    per-layer counts; the same inputs must give the same counts."""
    by_input = defaultdict(lambda: defaultdict(set))
    for r in results:
        key = (r["seed"], r["seconds"], r["meta"]["smoke"])
        for name, m in r["per_layer"].items():
            if m.get("exact"):
                by_input[key][name].add(m["value"])
    return by_input


def report_exact(workload, parent, change):
    p, c = exact_counts(parent), exact_counts(change)
    for side, counts in (("parent", p), ("change", c)):
        unstable = sorted({n for s in counts.values()
                           for n, vals in s.items() if len(vals) > 1})
        state = ("identical" if not unstable
                 else "DIFFER: " + ", ".join(unstable))
        print(f"  {workload} exact counts ({side}, same seed): {state}")
    moved = sorted({n for seed in set(p) & set(c) for n in p[seed]
                    if p[seed][n] != c[seed].get(n)})
    print(f"  {workload} exact counts moved by the change: "
          + (", ".join(moved) if moved else "none"))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    order = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + [
        dict(m, bound=None) for m in spec["per_layer"]
        if m["name"] in UNGATED_TIMINGS]
    rank = {"worse": 3, "unresolved": 2, "better": 1, "within bound": 0,
            "no change shown": 0}
    summary = {}
    print(f"{'workload':20s} {'metric':16s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'delta':>8s} {'won':>7s}  verdict")
    for w in order:
        # End-to-end numbers come from untraced runs only.
        p_runs = [r for r in parent.get(w, []) if not r["meta"]["traced"]]
        c_runs = [r for r in change.get(w, []) if not r["meta"]["traced"]]
        if not p_runs or not c_runs:
            continue
        rows = []
        for m in metrics:
            section = "e2e" if m["bound"] is not None else "per_layer"
            pv = [r[section][m["name"]]["value"] for r in p_runs
                  if m["name"] in r[section]]
            cv = [r[section][m["name"]]["value"] for r in c_runs
                  if m["name"] in r[section]]
            if not pv or not cv:
                continue
            v, wins, pairs = verdict(pv, cv, m["better"], m["bound"])
            pm, cm = statistics.median(pv), statistics.median(cv)
            (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{w:20s} {m['name']:16s} "
                  f"{pm:12.5g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.5g} [{c1:9.4g}, {c3:9.4g}] "
                  f"{delta:+8.3f} {wins:3d}/{pairs:<3d}  {v}")
            rows.append(v)
        summary[w] = max(rows, key=rank.get) if rows else "no data"
    print()
    for w in order:
        if w in summary:
            print(f"{w:20s} {summary[w]}")
    for w in EXACT_WORKLOADS:
        if parent.get(w) and change.get(w):
            report_exact(w, parent[w], change[w])
    return 1 if "worse" in summary.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
