#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--trace] [--workloads a,b] [--out FILE]

For each workload it runs ``run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), one run at a time, each for ``run_seconds`` of
BENCHMARK.json.  Untraced, it reports each end-to-end metric's median and the
distance between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread over a third of the bound is flagged, one over the
bound fails, ``setup_s`` included.  Traced, it asserts that every call and
work count (``*.calls``, ``qsim.kraus_ops``, ``estimators.shots_drawn`` and
the per-point ratios derived from them) is identical in every run.

With ``--out`` the untraced summary is appended to the file's
``end_to_end_sets`` as one more set, so that every set run stays on record;
each metric's median is compared with the previous set of the same workload
in the file, and a median worse by more than the metric's bound fails.  A
traced summary replaces the file's ``traced`` entry for its workloads.  The
machine and source-size context is rewritten; other keys of an existing file
(such as ``predictions``) are kept.  Exits nonzero if any run failed its
output check, a spread exceeded its bound, a median moved by more than its
bound, or a count varied.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", "qsim.kraus_ops", "estimators.shots_drawn",
                  "qsim.kraus_ops_per_point", "sweep.evolutions_per_point")


def context() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import edrsim
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout that is not a git repository
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_py_lines": src_lines, "edrsim_all_names": len(edrsim.__all__)}


def run_once(workload: str, seed: int, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def previous_set(doc: dict, workload: str) -> dict | None:
    """The most recent recorded set that holds ``workload``."""
    for entry in reversed(doc.get("end_to_end_sets", [])):
        if workload in entry["workloads"]:
            return entry["workloads"][workload]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + k, args.trace) for k in range(args.runs)]
        failed = [k for k, r in enumerate(runs) if r["exit_code"] != 0 or not r["correct"]]
        if failed:
            ok = False
            print(f"{workload}: runs {failed} failed their output check")
        names = list(runs[0]["metrics"])
        per_metric = {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names}
        before = None if args.trace else previous_set(doc, workload)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{seconds:g} s each, trace {int(args.trace)}")
        for name, s in per_metric.items():
            unit = runs[0]["metrics"][name]["unit"]
            flag = ""
            if args.trace and name.endswith(COUNT_SUFFIXES):
                if len(set(s["values"])) != 1:
                    ok = False
                    flag = "COUNT VARIES"
                else:
                    flag = "count repeats exactly"
            elif not args.trace and name in bounds:
                bound = bounds[name]["bound"]
                if s["spread"] > bound:
                    ok, flag = False, f"SPREAD OVER BOUND {bound}"
                elif s["spread"] > bound / 3.0:
                    flag = f"spread over a third of bound {bound}"
                else:
                    flag = f"bound {bound}"
                if before is not None and name in before["metrics"]:
                    change = s["median"] / before["metrics"][name]["median"] - 1.0
                    worse = change if bounds[name]["better"] == "lower" else -change
                    flag += f"; median {change:+.3f} vs previous set"
                    if worse > bound:
                        ok, flag = False, flag + " WORSE BY MORE THAN BOUND"
            print(f"  {name:<48} median {s['median']:<12.6g} {unit:<6} "
                  f"iqr/median {s['spread']:.4f}  {flag}")
        summary[workload] = {"runs": args.runs, "first_seed": args.first_seed, "seconds": seconds,
                             "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs],
                             "metrics": {n: {"unit": runs[0]["metrics"][n]["unit"], **per_metric[n]}
                                         for n in names}}
    if args.out is not None:
        doc["context"] = context()
        if args.trace:
            doc.setdefault("traced", {}).update(summary)
        else:
            doc.setdefault("end_to_end_sets", []).append({"started": started, "workloads": summary})
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT STEADY, moved past a bound, or output check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
