"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py                   # tiny sizes, about a minute
    python3 perfbench/selfcheck.py --recorded        # also compare full-size counts
    python3 perfbench/selfcheck.py --write-recorded  # re-record them

Run from the root of a checkout.  At tiny sizes, for every workload:
the timed run and two traced runs pass every referee check; every
metric BENCHMARK.json names is emitted with its unit; end-to-end
metrics are positive; every count repeats exactly across the two
traced runs; top-level spans cover at least 95% of traced query time.
Every per-layer metric must be non-zero on at least one workload.

With --recorded, the full-size traced run at seed 0 (run_seconds long)
must reproduce the counts in perfbench/expected_counts.json, so a change
to the inputs, to min-fill's tie-breaking or to the message schedule
shows up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "expected_counts.json"


def run(workload: str, seed: int, seconds: int, trace: int, tiny: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_names(spec: dict) -> list[str]:
    """Per-layer metrics that are counts of work, not times."""
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] in ("count", "B") or m["name"] == "propagation.marginal_useful_ratio"]


def check_shape(result: dict, wanted: list[dict], what: str, problems: list[str]) -> None:
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: {result['failed']} of {result['attempted']} queries failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        problems.append(f"{what}: metrics/units {got} differ from BENCHMARK.json {want}")


def counts_of(result: dict, names: list[str]) -> dict[str, float]:
    return {n: result["metrics"][n]["value"] for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--recorded", action="store_true")
    ap.add_argument("--write-recorded", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    exact = exact_names(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []
    reached: set[str] = set()
    for w in workloads:
        timed = run(w, 0, 1, 0, tiny=True)
        check_shape(timed, spec["end_to_end"], f"{w} timed", problems)
        for name, m in timed["metrics"].items():
            if not m["value"] > 0:
                problems.append(f"{w}: end-to-end {name} is {m['value']}")
        first, second = run(w, 0, 1, 1, tiny=True), run(w, 0, 1, 1, tiny=True)
        for label, res in (("traced", first), ("traced again", second)):
            check_shape(res, spec["per_layer"], f"{w} {label}", problems)
        a, b = counts_of(first, exact), counts_of(second, exact)
        for name in exact:
            if a[name] != b[name]:
                problems.append(f"{w}: {name} reads {a[name]} then {b[name]}")
        coverage = first["metrics"]["bench.span_coverage"]["value"]
        if coverage < 0.95:
            problems.append(f"{w}: top-level spans cover only {coverage:.3f} of query time")
        reached.update(n for n, m in first["metrics"].items() if m["value"] != 0)
        print(f"{w}: tiny runs done", flush=True)
    for m in spec["per_layer"]:
        if m["name"] not in reached | {"propagation.impossible_queries"}:
            problems.append(f"per-layer {m['name']} is 0 on every workload")

    if args.recorded or args.write_recorded:
        seconds = spec["run_seconds"]
        full = {w: counts_of(run(w, 0, seconds, 1, tiny=False), exact) for w in workloads}
        if args.write_recorded:
            RECORD.write_text(json.dumps({"seed": 0, "seconds": seconds, "counts": full},
                                         indent=2) + "\n")
            print(f"wrote {RECORD}")
        else:
            record = json.loads(RECORD.read_text())
            if record["seconds"] != seconds:
                problems.append(f"record was made at {record['seconds']} s, run_seconds is {seconds}")
            for w in workloads:
                for name, want in record["counts"][w].items():
                    if full[w].get(name) != want:
                        problems.append(f"{w}: {name} is {full[w].get(name)}, recorded {want}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
