#!/usr/bin/env python3
"""Lint a Prometheus text-exposition file (the toma metrics export).

Fails (exit 1) on:
  * unnamed or illegally named series (metric names must match
    [a-zA-Z_:][a-zA-Z0-9_:]*; label names [a-zA-Z_][a-zA-Z0-9_]*)
  * duplicate series (same metric name + identical label set twice)
  * a sample line that cannot be parsed at all
  * a # TYPE line for a metric that then never appears (and vice versa:
    samples with no preceding # TYPE)
  * non-numeric sample values

With --require=PREFIX (repeatable), additionally fails unless at least one
sampled metric starts with each PREFIX — CI uses this to prove a subsystem
(e.g. the magazine counters, toma_ualloc_magazine_*) actually exported.

With --catalog=DOC (e.g. docs/OBSERVABILITY.md), checks that the metric
catalog table in DOC names exactly the metrics the library registers: every
name literal under src/ passed to TOMA_CTR_INC/ADD, TOMA_CTRV_INC,
TOMA_HIST/HISTV, TOMA_OP_HIST/OP_HISTV or registry().counter/histogram
(directly or through pool_series). Fails on a name missing from either
side. In the table's first column, `a.b.c` / `d` is shorthand for a.b.c
and a.b.d (a bare name inherits the first name's prefix); `[i]` and
`{...}` suffixes are dropped.

Usage: lint_prometheus.py [--require=PREFIX ...] [--catalog=DOC] [FILE...]
"""

import pathlib
import re
import sys

METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[^\s{]+)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>\S+))?$"
)
LABEL_PAIR_RE = re.compile(r'([^=,]+)="((?:[^"\\]|\\.)*)"')


def is_number(s: str) -> bool:
    if s in ("+Inf", "-Inf", "NaN"):
        return True
    try:
        float(s)
        return True
    except ValueError:
        return False


def lint(path: str, require=()) -> int:
    errors = 0

    def err(lineno, msg):
        nonlocal errors
        errors += 1
        print(f"{path}:{lineno}: {msg}", file=sys.stderr)

    typed = {}  # metric name -> (lineno, type)
    sampled = set()  # metric names that had at least one sample
    seen_series = {}  # (name, frozen labels) -> first lineno

    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 2 and parts[1] == "TYPE":
                    if len(parts) < 4:
                        err(lineno, f"malformed TYPE line: {line!r}")
                        continue
                    name, mtype = parts[2], parts[3]
                    if not METRIC_RE.match(name):
                        err(lineno, f"illegal metric name in TYPE: {name!r}")
                    if mtype not in ("counter", "gauge", "histogram",
                                     "summary", "untyped"):
                        err(lineno, f"unknown metric type {mtype!r}")
                    if name in typed:
                        err(lineno,
                            f"duplicate TYPE for {name} "
                            f"(first at line {typed[name][0]})")
                    typed[name] = (lineno, mtype)
                continue

            m = SAMPLE_RE.match(line)
            if not m:
                err(lineno, f"unparseable sample line: {line!r}")
                continue
            name = m.group("name")
            if not name:
                err(lineno, "unnamed series")
                continue
            if not METRIC_RE.match(name):
                err(lineno, f"illegal metric name: {name!r}")
                continue
            labels = []
            if m.group("labels"):
                body = m.group("labels")
                consumed = 0
                for pm in LABEL_PAIR_RE.finditer(body):
                    lname = pm.group(1).strip().lstrip(",").strip()
                    if not LABEL_RE.match(lname):
                        err(lineno, f"illegal label name: {lname!r}")
                    labels.append((lname, pm.group(2)))
                    consumed += len(pm.group(0))
                if not labels and body.strip():
                    err(lineno, f"unparseable label block: {body!r}")
                lnames = [k for k, _ in labels]
                if len(set(lnames)) != len(lnames):
                    err(lineno, f"repeated label name in: {body!r}")
            if not is_number(m.group("value")):
                err(lineno, f"non-numeric value: {m.group('value')!r}")

            # Histogram/summary family samples hang off the TYPE'd base
            # name (name, name_bucket, name_sum, name_count).
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in typed:
                    base = name[: -len(suffix)]
                    break
            if base not in typed:
                err(lineno, f"sample for {name} has no preceding # TYPE")
            sampled.add(base)

            key = (name, frozenset(labels))
            if key in seen_series:
                err(lineno,
                    f"duplicate series {name}{{{dict(labels)}}} "
                    f"(first at line {seen_series[key]})")
            else:
                seen_series[key] = lineno

    for name, (lineno, _) in typed.items():
        if name not in sampled:
            err(lineno, f"# TYPE {name} declared but no samples follow")

    all_names = {name for name, _ in seen_series}
    for prefix in require:
        if not any(n.startswith(prefix) for n in all_names):
            err(0, f"no sampled metric starts with required prefix "
                   f"{prefix!r}")

    if errors == 0:
        print(f"{path}: OK ({len(seen_series)} series, "
              f"{len(typed)} metrics)")
    return errors


SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
SRC_METRIC_RE = re.compile(
    r"(?:TOMA_(?:CTR_INC|CTR_ADD|CTRV_INC|HIST|HISTV|OP_HIST|OP_HISTV)"
    r"|registry\(\)\.(?:counter|histogram))"
    r'\(\s*(?:pool_series\(\s*)?"([^"]+)"')
CATALOG_NAME_RE = re.compile(r"`([^`]+)`")


def source_metrics(src_dir: pathlib.Path) -> set:
    names = set()
    for path in sorted(src_dir.rglob("*")):
        if path.suffix in (".cpp", ".hpp", ".h"):
            names.update(SRC_METRIC_RE.findall(path.read_text("utf-8")))
    return names


def catalog_metrics(doc: str) -> set:
    names = set()
    in_catalog = False
    with open(doc, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                in_catalog = line.strip() == "## Metric catalog"
                continue
            if not in_catalog or not line.startswith("|"):
                continue
            first = line.split("|")[1]
            prefix = ""
            for i, raw in enumerate(CATALOG_NAME_RE.findall(first)):
                name = re.sub(r"\[[^]]*\]|\{[^}]*\}", "", raw).strip()
                if i == 0:
                    prefix = name[: name.rfind(".") + 1]
                elif "." not in name:
                    name = prefix + name
                names.add(name)
    return names


def lint_catalog(doc: str) -> int:
    code = source_metrics(SRC_DIR)
    documented = catalog_metrics(doc)
    errors = 0
    for name in sorted(code - documented):
        print(f"{doc}: {name} is registered in src/ but not in the catalog",
              file=sys.stderr)
        errors += 1
    for name in sorted(documented - code):
        print(f"{doc}: {name} is in the catalog but never registered in src/",
              file=sys.stderr)
        errors += 1
    if errors == 0:
        print(f"{doc}: catalog OK ({len(code)} metrics)")
    return errors


def main() -> int:
    require = []
    files = []
    catalogs = []
    for arg in sys.argv[1:]:
        if arg.startswith("--require="):
            require.append(arg[len("--require="):])
        elif arg.startswith("--catalog="):
            catalogs.append(arg[len("--catalog="):])
        else:
            files.append(arg)
    if not files and not catalogs:
        print(__doc__, file=sys.stderr)
        return 2
    total = sum(lint(p, require) for p in files)
    total += sum(lint_catalog(d) for d in catalogs)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
