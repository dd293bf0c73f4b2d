#!/usr/bin/env python3
"""edrsim benchmark: one workload, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sampled_ideal --seed 1 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced

Each run builds its inputs from ``--seed`` (see workloads.py), runs sweeps
back to back for ``run_seconds`` of BENCHMARK.json, checks every sweep's
output outside the timed region, prints every metric with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` gives the end-to-end metrics of BENCHMARK.json; ``--trace 1``
gives its per-layer metrics from a traced run (tracing.py).  The run length
is not a setting: ``--seconds`` is accepted only with the value
``run_seconds``, because callers of the benchmark pass it.  The exit code is
0 only when every output check passed.  The program is imported from
``src/`` of the checkout this file sits in; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 9
CLOSED_FORM_TOL = 1e-10  # the tolerance `edrsim check` uses
REFERENCE_TOL = 1e-12  # |eps^2 - eps_ref^2| for exact rows against the per-point reference
BAND_SIGMAS = 6.0
SUBPROCESS_TIMEOUT_S = 150.0

# Metric names and units come from BENCHMARK.json; per-layer names of the form
# "<span>.calls|s|self_s|share" are read off the trace, the rest are computed.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
RUN_SECONDS = BENCH["run_seconds"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("EDRSIM_OUTPUT_DIR", None)
    return env


def _probe(argv: list[str]) -> dict:
    """Run a helper script to completion and parse the JSON on its last line."""
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_child(argv: list[str]) -> tuple[int, float, int]:
    """Run a child to completion; (exit code, wall s, peak RSS kB of its tree).

    ``wait4`` returns the child's rusage, whose ru_maxrss is the largest
    resident set among the child and the descendants it waited for (its
    pool workers).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL)
    timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _setup_argv(workload: str, seed: int) -> list[str]:
    """A set-up probe: import plus input building in a fresh interpreter."""
    return [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]


# ---------------------------------------------------------------------------
# output checks


class Reference:
    """Per-point exact reference, computed once per run through the program's
    own ``outcome_distribution`` plus the correlator arithmetic."""

    def __init__(self, sp: dict) -> None:
        import numpy as np
        from edrsim.circuit import angle_for_strength
        from edrsim.estimators import outcome_distribution
        from edrsim.noise import compile_noise, representative_profile

        self.sp = sp
        self.strengths = workloads.strengths(sp)
        self.theta_w = angle_for_strength(workloads.THETA_W_STRENGTH)
        self.cw = math.cos(self.theta_w)
        self.noisy = sp["noise"] is not None
        model = compile_noise(representative_profile()) if self.noisy else None
        idx = np.arange(16)
        bit = lambda k: 1 - 2 * ((idx >> (3 - k)) & 1)  # noqa: E731  bits (z_i, x_i, z_f, x_f)
        sign_z, sign_x = bit(0) * bit(2), bit(1) * bit(3)
        self.points = []
        for s in self.strengths:
            probs = outcome_distribution(self.theta_w, angle_for_strength(s), model)
            e_z, e_x = float(sign_z @ probs), float(sign_x @ probs)
            self.points.append({
                "e_z": e_z, "e_x": e_x,
                "eps_sq": 2.0 * (1.0 - e_z / self.cw), "eta_sq": 2.0 * (1.0 - e_x / self.cw),
            })

    def band(self, ref: float, corr: float) -> float:
        """Allowed |sampled mean - exact| for an estimate whose exact value is ``ref``.

        Delta method: one repeat's squared estimate has standard deviation
        sigma1 = 2 sqrt(1 - E^2) / (cos theta_w sqrt(shots)).  Far from zero
        (ref >= 3 sqrt(sigma1)) the repeat mean of sqrt is within
        BAND_SIGMAS * sigma1 / (2 ref sqrt(repeats)); near zero each repeat is
        within sqrt(BAND_SIGMAS * sigma1) since |a - b| <= sqrt(|a^2 - b^2|).
        """
        sigma1 = 2.0 * math.sqrt(max(1.0 - corr * corr, 0.0)) / (self.cw * math.sqrt(self.sp["shots"]))
        if ref >= 3.0 * math.sqrt(sigma1):
            return BAND_SIGMAS * sigma1 / (2.0 * ref * math.sqrt(self.sp["repeats"]))
        return math.sqrt(BAND_SIGMAS * sigma1)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return f"{value:.17g}"
    return str(value)


def check_output(ref: Reference, js: str, csv: str | None) -> list[str]:
    """Every problem found in one sweep's emitted output; empty when correct."""
    problems: list[str] = []
    try:
        rows = json.loads(js)["rows"]
    except (ValueError, KeyError) as exc:
        return [f"JSON does not parse: {exc}"]
    sp = ref.sp
    methods = {"exact": ["exact"], "sampled": ["sampled"], "both": ["exact", "sampled"]}[sp["mode"]]
    want = [(m, s) for m in methods for s in ref.strengths]
    got = [(r.get("method"), r.get("strength")) for r in rows]
    if got != want:
        return [f"rows (method, strength) {got[:3]}... differ from expected {want[:3]}..."]
    if csv is not None:
        lines = csv.split("\n")
        header = lines[0].split(",")
        if lines[-1] != "" or len(lines) != len(rows) + 2:
            problems.append("CSV line count differs from JSON rows")
        else:
            for row, line in zip(rows, lines[1:]):
                if line.split(",") != [_cell(row[c]) for c in header]:
                    problems.append(f"CSV row at strength {row['strength']} differs from JSON")
                    break
    budget = 2.0 * (1.0 - math.sin(ref.theta_w)) + 1e-9
    for row in rows:
        s = row["strength"]
        point = ref.points[ref.strengths.index(s)]
        tag = f"{row['method']} s={s!r}"
        want_eps = math.sqrt(2.0 * (1.0 - s))
        want_eta = math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - s * s)))
        if abs(row["epsilon_exact"] - want_eps) > CLOSED_FORM_TOL:
            problems.append(f"{tag}: epsilon_exact off closed form by {abs(row['epsilon_exact'] - want_eps):.3g}")
        if abs(row["eta_exact"] - want_eta) > CLOSED_FORM_TOL:
            problems.append(f"{tag}: eta_exact off closed form by {abs(row['eta_exact'] - want_eta):.3g}")
        for est, key in (("epsilon", "eps_sq"), ("eta", "eta_sq")):
            mean = row[f"{est}_mean"]
            ref_sq = point[key]
            if row["method"] == "exact":
                diff = abs(mean * mean - max(ref_sq, 0.0))
                if diff > REFERENCE_TOL:
                    problems.append(f"{tag}: {est}^2 off reference by {diff:.3g}")
                if not ref.noisy:
                    bias = abs(mean * mean - row[f"{est}_exact"] ** 2)
                    if bias > budget:
                        problems.append(f"{tag}: {est}^2 bias {bias:.3g} over budget {budget:.3g}")
            else:
                corr = point["e_z" if est == "epsilon" else "e_x"]
                ref_val = math.sqrt(max(ref_sq, 0.0))
                allowed = ref.band(ref_val, corr)
                if abs(mean - ref_val) > allowed:
                    problems.append(f"{tag}: {est}_mean {mean:.6g} outside shot-noise band "
                                    f"{ref_val:.6g} +/- {allowed:.3g}")
        if row["method"] == "sampled" and (row["shots"], row["repeats"]) != (sp["shots"], sp["repeats"]):
            problems.append(f"{tag}: shots/repeats {row['shots']}/{row['repeats']} not as configured")
    return problems


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sweeps


class Runner:
    """Runs one workload's sweeps and checks each one."""

    def __init__(self, sp: dict, tmp: Path) -> None:
        self.sp = sp
        self.tmp = tmp
        self.ref = Reference(sp)
        self.points = len(self.ref.strengths)
        self.cli = sp["workload"] == "cli_noisy_both"
        self.first_json: str | None = None
        self.expect_json: str | None = None
        if self.cli:
            import edrsim.sweep as sweep_mod

            # gate 8: the CLI's --jobs 2 JSON must equal the in-process --jobs 1 JSON
            cfg = workloads.build_config(sp, jobs=1)
            self.expect_json = sweep_mod.emit_json(sweep_mod.run_sweep(cfg), cfg)
        else:
            self.cfg = workloads.build_config(sp)
        self.times: list[float] = []
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[tuple[str, str]] = set()

    def sweep(self, tracer=None, spans_dir: Path | None = None) -> float:
        """One timed sweep plus its check; returns the sweep's wall time."""
        self.attempted += 1
        csv = None
        try:
            if self.cli:
                out = self.tmp / "sweep.json"
                out.unlink(missing_ok=True)
                entry = ["-m", "edrsim"] if spans_dir is None else [str(HERE / "tracing.py"), str(spans_dir)]
                rc, wall, rss_kb = _timed_child(
                    [sys.executable, *entry, *workloads.cli_argv(self.sp, str(out))])
                self.rss_kb.append(rss_kb)
                if rc != 0:
                    raise RuntimeError(f"edrsim sweep exited {rc}")
                js = out.read_text(encoding="utf-8")
            else:
                import edrsim.sweep as sweep_mod

                def body():
                    rows = sweep_mod.run_sweep(self.cfg)
                    return sweep_mod.emit_csv(rows), sweep_mod.emit_json(rows, self.cfg)

                t0 = time.perf_counter()
                csv, js = body() if tracer is None else tracer.call("sweep", body)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a sweep that raises counts as failed; the run goes on
            self.failed += 1
            self.problems.append(f"sweep {self.attempted} raised: {exc!r}")
            return math.nan
        self.times.append(wall)
        problems = check_output(self.ref, js, csv)
        if self.first_json is None:
            self.first_json = js
        elif js != self.first_json:
            problems.append("output bytes differ from the first sweep of this run")
        if self.expect_json is not None and js != self.expect_json:
            problems.append("CLI --jobs 2 JSON differs from in-process --jobs 1 JSON")
        self.digests.add((_digest(js), _digest(csv) if csv is not None else "-"))
        if problems:
            self.failed += 1
            self.problems.extend(f"sweep {self.attempted}: {p}" for p in problems[:5])
        return wall

    def loop(self, min_sweeps: int = 1, setup_argv: list[str] | None = None,
             step=None) -> tuple[list, list[dict]]:
        """Closed loop: the next sweep starts when the previous one is checked.

        ``step`` (default: one ``sweep``) is called repeatedly and its results
        are returned.  With ``setup_argv``, SETUP_PROBES set-up probes run
        between steps, spread evenly over the run, so that their median sees
        the same host conditions as the sweeps do rather than those of one
        burst.
        """
        step = step or self.sweep
        results: list = []
        setup: list[dict] = []
        if setup_argv is not None:
            _probe(setup_argv)  # warm-up that may compile bytecode; dropped
        start = time.perf_counter()
        t_end = start + RUN_SECONDS
        while len(results) < min_sweeps or time.perf_counter() < t_end:
            if (setup_argv is not None and len(setup) < SETUP_PROBES
                    and time.perf_counter() >= start + len(setup) * RUN_SECONDS / SETUP_PROBES):
                setup.append(_probe(setup_argv))
            results.append(step())
        while setup_argv is not None and len(setup) < SETUP_PROBES:
            setup.append(_probe(setup_argv))
        return results, setup


def end_to_end(runner: Runner, setup: list[dict]) -> tuple[dict, list[str]]:
    times = sorted(runner.times)
    n = len(times)
    if n == 0:
        raise RuntimeError("no sweep completed: " + "; ".join(runner.problems[:3]))
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if n >= 2 else times[0]
    if runner.cli:
        rss_mb = statistics.median(runner.rss_kb) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "sweep_s_p50": statistics.median(times),
        "sweep_s_p90": p90,
        "points_per_s": runner.points * n / sum(times),
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(1 for t in times if t > p90)
    notes = [
        f"sweeps timed: {n}; sweep_s_p90 has {beyond} sample(s) beyond it",
        "sweep times (s, in order): " + " ".join(f"{t:.3f}" for t in runner.times),
        f"setup probes: {len(setup)} fresh interpreters, median import "
        f"{statistics.median(p['import_s'] for p in setup):.4f} s + inputs "
        f"{statistics.median(p['inputs_s'] for p in setup):.4f} s",
        f"peak_rss_mb: {'median over sweeps of the largest process in the CLI tree' if runner.cli else 'this process'}",
    ]
    return values, notes


def per_layer(runner: Runner, untraced: list[float], traced: list[float],
              sweep_spans: list[list], import_probes: list[dict]) -> tuple[dict, list[str]]:
    none = (0, 0.0, 0.0, 0)  # (calls, inclusive s, self s, work) of a span never entered
    sums = [tr.summarise(rows) for rows in sweep_spans]
    problems = []
    for k in sorted({k for s in sums for k in s}):
        for i, s in enumerate(sums[1:], 2):
            if s.get(k, none)[::3] != sums[0].get(k, none)[::3]:
                problems.append(f"traced sweep {i}: calls or work of {k} differ from the first traced sweep")
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = sums[0].get(span, none)[0]
        elif kind == "self_s":
            values[name] = statistics.median(s.get(span, none)[2] for s in sums)
        elif kind == "s" and "." in span:
            values[name] = statistics.median(s.get(span, none)[1] for s in sums)
        elif kind == "share":
            values[name] = statistics.median(s.get(span, none)[1] / w for s, w in zip(sums, traced))
    for span, (count, _) in tr.WORK.items():
        values[count] = sums[0].get(span, none)[3]
    values["qsim.kraus_ops_per_point"] = values["qsim.kraus_ops"] / runner.points
    values["sweep.evolutions_per_point"] = values["estimators.run_circuit.calls"] / runner.points
    values["cli.import_s"] = statistics.median(p["import_s"] for p in import_probes)
    values["trace.sweep_s_p50"] = statistics.median(traced)
    values["trace_overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    return values, problems


def write_spans(path: Path, sweep: int, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sweep\tname\tstart_s\tend_s\tparent\twork\n")
        for name, start, end, parent, work in rows:
            fh.write(f"{sweep}\t{name}\t{start!r}\t{end!r}\t{parent}\t{work}\n")


def run_traced(runner: Runner, tmp: Path) -> tuple[dict, list[str], list[str]]:
    """Untraced and traced sweeps alternate for the whole run; per-layer metrics per sweep.

    Alternating lets both kinds of sweep see the same host speed, so the
    tracing overhead is taken pair by pair.
    """
    sweep_spans: list[list] = []
    procs: list[int] = []
    if runner.cli:
        def traced_sweep() -> float:
            spans_dir = tmp / f"spans-{len(sweep_spans)}"
            spans_dir.mkdir()
            wall = runner.sweep(spans_dir=spans_dir)
            rows: list = []
            files = sorted(spans_dir.glob("*.tsv"))
            for f in files:  # processes are independent span trees; concatenate with offsets
                off = len(rows)
                rows.extend((n, a, b, p + off if p >= 0 else -1, w) for n, a, b, p, w in tr.read_spans(f))
            procs.append(len(files))
            sweep_spans.append(rows)
            return wall
    else:
        tracer = tr.Tracer()

        def traced_sweep() -> float:
            uninstall = tr.install(tracer)
            mark = len(tracer)
            try:
                wall = runner.sweep(tracer=tracer)
            finally:
                uninstall()
            sweep_spans.append(list(tracer.rows(mark)))
            return wall

    pairs, import_probes = runner.loop(min_sweeps=2,
                                       setup_argv=_setup_argv("cli_noisy_both", 0),
                                       step=lambda: (runner.sweep(), traced_sweep()))
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    values, problems = per_layer(runner, untraced, traced, sweep_spans, import_probes)
    notes = []
    if runner.cli:
        notes.append(f"span files per traced sweep (CLI parent + forked pool workers): "
                     f"{sorted(set(procs))}; worker-side spans are "
                     f"{'collected' if max(procs) > 1 else 'NOT collected (parent only)'}")
    # the spans of the median traced sweep; every traced sweep has the same counts
    median_sweep = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    path = WORK / f"spans-{runner.sp['workload']}-seed{runner.sp['seed']}.tsv"
    write_spans(path, median_sweep, sweep_spans[median_sweep])
    notes.append(f"sweeps: {len(pairs)} untraced and {len(pairs)} traced, alternating; counts and times "
                 f"are per sweep; spans of the median traced sweep written to {path.relative_to(ROOT)}")
    return values, notes, problems


def run_workload(workload: str, seed: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import edrsim

    if Path(edrsim.__file__).resolve().parent != (SRC / "edrsim").resolve():
        print(f"error: edrsim imported from {edrsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sp = workloads.spec(workload, seed)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(sp, tmp)
        if trace:
            values, notes, trace_problems = run_traced(runner, tmp)
            units = PER_LAYER
            runner.problems.extend(trace_problems)
        else:
            _, setup = runner.loop(setup_argv=_setup_argv(workload, seed))
            values, notes = end_to_end(runner, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = runner.failed == 0 and not runner.problems
    print(f"workload {workload}  seed {seed}  sweep seed {sp['sweep_seed']}  points {runner.points}  "
          f"trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    for digest in sorted(runner.digests):
        print(f"  output digest json {digest[0]} csv {digest[1]}")
    for problem in runner.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    print(f"  ops_failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} sweeps)")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int) -> int:
    """Every workload, untraced then traced, each in its own interpreter.

    The last line merges the children's result lines; each metric is named
    ``<workload>/<metric>``.
    """
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            correct = correct and proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(f"all workloads: {'every output check passed' if correct else 'OUTPUT CHECK FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them untraced and traced (default)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                             f"held-out seed {workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                        help="run length; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "edrsim" / "__init__.py").is_file():
        print(f"error: no edrsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed)
    return run_workload(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
