"""One workload in one fresh, single-threaded process.

Modes:
  setup   set up (imports, fixtures, warm-up) and report when ready;
  timed   set up, then the closed timed loop with tracing off, timing
          the workload's speed reference (speed.py) before every query;
  traced  set up, then a fixed list of queries run untraced and again
          traced, giving the per-layer metrics and the tracing overhead.

The result is one JSON object on the last line of standard output.
Run from the root of a checkout through run.py, which sets the
environment (PYTHONPATH=src, fixed hash seed, one BLAS thread).
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import beliefprop
from tracing import NULL, Tracer, installed, median_where_present
from workloads import WARMUP_STREAM, WORKLOADS

ROOT = Path.cwd()

WARMUP_QUERIES = {"pedigree": 3, "chain": 1, "wide": 1, "cli": 2}
# traced-run queries per second of --seconds; fixed so counts repeat exactly
TRACED_RATE = {"pedigree": 10.0, "chain": 1.0, "wide": 1.5, "cli": 1.2}
MIN_TRACED = 6  # the cli workload cycles through six subcommands
MIN_TIMED = 100  # at least ten samples beyond the 90th percentile
LOOP_CAP_S = 140.0  # the whole run must end within 180 s
PROBES = 5
READY_REFS = 3  # references timed after set-up


def _fail(errors: list[str], k: int, exc: BaseException) -> None:
    if len(errors) < 5:
        errors.append(f"query {k}: {type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_loop(w, seconds: float, min_queries: int) -> dict:
    wall: list[float] = []
    slow: list[float] = []
    correct = 0
    errors: list[str] = []
    start = perf_counter()
    k = 0
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and k >= min_queries) or elapsed >= LOOP_CAP_S:
            break
        inp = w.make_input(k)
        slow.append(w.slowdown())
        t0 = perf_counter()
        try:
            out = w.query(inp, k, NULL)
        except Exception as exc:  # counted as failed; the loop keeps running
            wall.append((perf_counter() - t0) * 1e3)
            _fail(errors, k, exc)
            k += 1
            continue
        wall.append((perf_counter() - t0) * 1e3)
        try:
            w.check(inp, out)
            correct += 1
        except Exception as exc:
            _fail(errors, k, exc)
        k += 1
    lat = [q / s for q, s in zip(wall, slow)]
    return {
        "attempted": k,
        "failed": k - correct,
        "errors": errors,
        "latencies_ms": lat,
        "wall_ms": wall,
        "slowdown": slow,
        "busy_s": sum(lat) / 1e3,
        "peak_rss_mb": peak_rss_mb(w.name),
    }


def _cli_probes(count: int) -> dict[str, float]:
    """Bare interpreter start, and cumulative import of beliefprop.cli."""
    bare, imports = [], []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import beliefprop.cli"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \| beliefprop\.cli$",
                      proc.stderr, re.MULTILINE)
        if m is None:
            raise RuntimeError("no beliefprop.cli line in -X importtime output")
        imports.append(int(m.group(1)) / 1e3)
    return {
        "cli.interpreter.ms": statistics.median(bare),
        "cli.import.ms": statistics.median(imports),
    }


def traced_run(w, n: int, probes: int) -> dict:
    errors: list[str] = []
    failed = 0
    untraced: list[float] = []
    for k in range(n):
        inp = w.make_input(k)
        t0 = perf_counter()
        try:
            out = w.query(inp, k, NULL)
            untraced.append((perf_counter() - t0) * 1e3)
            w.check(inp, out)
        except Exception as exc:
            failed += 1
            _fail(errors, k, exc)

    tr = Tracer()
    structure: dict[int, dict[str, float]] = {}
    for k in range(n):
        inp = w.make_input(k)
        tr.begin_query(k)
        try:
            with installed(tr), tr.span("query"):
                out = w.query(inp, k, tr)
            structure[k] = w.counts(inp, out)
            w.check(inp, out)
        except Exception as exc:
            failed += 1
            _fail(errors, k, exc)

    spans_path = ROOT / "perfbench" / "out" / f"spans-{w.name}-seed{w.seed}.tsv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(spans_path)

    rows = []
    for k, row in sorted(tr.per_query().items()):
        row.update(tr.counts.get(k, {}))
        row.update(structure.get(k, {}))
        marginals = row.pop("readout.cluster_marginals", 0)
        if marginals:
            row["propagation.marginal_useful_ratio"] = len(tr.home_clusters[k]) / marginals
        fb = row.get("hmm.forward_backward.ms", 0.0)
        if fb > 0:
            engine = sum(row.get(f"propagation.{p}.ms", 0.0)
                         for p in ("compile", "inward", "outward", "posteriors"))
            row["propagation.over_fb_ratio"] = engine / fb
        rows.append(row)

    keys = sorted({key for row in rows for key in row})
    metrics = {key: median_where_present(rows, key) for key in keys}
    if "propagation.logz.ms" in metrics:
        metrics["propagation.impossible_queries"] = sum(
            row.get("propagation.impossible_queries", 0) for row in rows
        )
    query_ms = [row["query_ms"] for row in rows if "query_ms" in row]
    top_ms = sum(row["query_ms"] * row["span_coverage"] for row in rows if "query_ms" in row)
    metrics["bench.span_coverage"] = top_ms / sum(query_ms) if query_ms else 0.0
    if untraced and query_ms:
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(query_ms) / statistics.median(untraced)
        )
    if w.name == "cli":
        metrics.update(_cli_probes(probes))
    return {
        "attempted": 2 * n,
        "failed": failed,
        "errors": errors,
        "layer_metrics": metrics,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(beliefprop.__file__).resolve().parents:
        print(f"beliefprop was imported from {beliefprop.__file__}, not {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    try:
        for k in range(WARMUP_QUERIES[args.workload]):
            try:
                w.query(w.make_input(k, WARMUP_STREAM), k, NULL)
            except Exception as exc:  # the measured queries will count it as failed
                traceback.print_exception(exc, file=sys.stderr)
        result = {
            "ready_monotonic": time.monotonic(),
            "ready_slowdown": statistics.median(w.slowdown() for _ in range(READY_REFS)),
        }
        if args.mode == "timed":
            min_queries = 10 if args.tiny else getattr(w, "min_queries", MIN_TIMED)
            result.update(timed_loop(w, args.seconds, min_queries))
        elif args.mode == "traced":
            n = max(MIN_TRACED, round(TRACED_RATE[args.workload] * args.seconds))
            result.update(traced_run(w, n, 2 if args.tiny else PROBES))
            result["layer_metrics"]["bench.slowdown"] = result["ready_slowdown"]
    finally:
        if hasattr(w, "close"):
            w.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
