"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload pedigree --seed 1 --seconds 10 --trace 0

Run from the root of a beliefprop checkout; the program is imported
from the checkout's ``src``.  Each run happens in fresh worker
processes (perfbench/worker.py) with PYTHONHASHSEED=0 and one BLAS
thread, one process at a time.

--trace 0 sets up SETUP_SAMPLES times in fresh processes (the median
is ``setup_s``) and runs the closed timed loop with tracing off in the
last of them.  Its times are wall times divided by the slowdown of a
reference timed next to them (speed.py), because the machine's own
speed drifts.  --trace 1 runs the traced queries instead and reports
the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the JSON result with the metrics that
BENCHMARK.json names for the mode.  Exits 2 when the directory is not
a beliefprop checkout, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pedigree", "chain", "wide", "cli")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 175.0
REQUIRED = ("BENCHMARK.json", "src/beliefprop/__init__.py", "fixtures/pedigree.json",
            "fixtures/ped_ev.json")


class WorkerError(RuntimeError):
    pass


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(root: Path, args, mode: str, deadline: float) -> dict:
    """One worker process; its result plus ``setup_s``: the time from
    just before the process was started to the moment it was ready, at
    nominal speed by the reference timed right after (speed.py)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded the run budget") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready_monotonic"] - started
    result["setup_s"] = result["setup_wall_s"] / result["ready_slowdown"]
    return result


def timed_metrics(root: Path, args, deadline: float) -> tuple[dict, dict]:
    workers = [run_worker(root, args, "setup", deadline)
               for _ in range(1 if args.tiny else SETUP_SAMPLES - 1)]
    main = run_worker(root, args, "timed", deadline)
    workers.append(main)
    setups = [r["setup_s"] for r in workers]
    setups_wall = [r["setup_wall_s"] for r in workers]
    lat = main["latencies_ms"]
    completed = main["attempted"] - main["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "query_ms.p50": statistics.median(lat),
        "query_ms.p90": statistics.quantiles(lat, n=10)[8],
        "queries_per_s": completed / main["busy_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "fail_frac": main["failed"] / main["attempted"],
    }
    main["wall"] = {
        "setup_s": statistics.median(setups_wall),
        "query_ms.p50": statistics.median(main["wall_ms"]),
        "slowdown": statistics.median(main["slowdown"]),
    }
    return main, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the inputs and sample counts (self-check only)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"run.py: {root} is not a beliefprop checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            result = run_worker(root, args, "traced", deadline)
            metrics = result["layer_metrics"]
        else:
            result, metrics = timed_metrics(root, args, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent and not args.trace:
        print(f"run.py: no value measured for {', '.join(absent)}", file=sys.stderr)
        return 1
    # a layer this workload never calls reads 0 (see perfbench/README.md)
    metrics.update(dict.fromkeys(absent, 0.0))
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if "wall" in result:
        wall = result["wall"]
        print(f"  as measured: setup {wall['setup_s']:.4g} s, query p50 {wall['query_ms.p50']:.4g} ms;"
              f" median slowdown {wall['slowdown']:.4g}")
    if "spans_file" in result:
        print(f"  spans written to {result['spans_file']}")
    for err in result["errors"]:
        print(f"  failure: {err}")
    for name in sorted(metrics):
        if name in units or (not args.trace and name == "fail_frac"):
            note = "  (not reached)" if name in absent else ""
            print(f"  {name} = {metrics[name]:.6g} {units.get(name, 'ratio')}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
