"""Tracing of edrsim from outside the program.

Each public function the benchmark reports on is wrapped by rebinding its
name where callers look it up: module-level functions in every ``edrsim.*``
module that holds them (``edrsim.sweep.outcome_distribution``,
``edrsim.qsim.embed``, ...), methods on their class
(``DensityMatrix.apply_channel``).  A wrapper records one span (name, start,
end, parent span, work count) in flat in-memory arrays; nothing is written
until the run ends.  A span's self time is its duration minus the durations
of its direct children.  Two work counts are recorded at the boundary where
the work happens: Kraus operators per ``apply_channel`` call
(``qsim.kraus_ops``) and shots per ``sample_counts`` call
(``estimators.shots_drawn``).

Run as a script, this module is the traced stand-in for
``python -m edrsim``::

    python tracing.py SPANS_DIR sweep --grid 11 ...

It installs the wrappers, runs the CLI and writes its spans to ``SPANS_DIR/<pid>.tsv``.  The sweep's process pool forks
its workers from the traced parent, so the workers inherit the wrappers; the
rebound ``edrsim.sweep._point_task`` appends each task's spans to the
worker's own ``SPANS_DIR/<pid>.tsv``.  Worker-side spans are therefore
collected whenever the pool uses the ``fork`` start method (the Linux
default); under ``spawn`` only the parent's spans would be seen, and
``run.py`` reports how many processes contributed spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

# (module under edrsim, attribute path); the span is named "<module>.<leaf>"
TARGETS = (
    ("qsim", "embed"),
    ("qsim", "DensityMatrix.apply_unitary"),
    ("qsim", "DensityMatrix.apply_channel"),
    ("qsim", "DensityMatrix.partial_trace"),
    ("circuit", "build_edr_circuit"),
    ("noise", "compile_noise"),
    ("noise", "NoiseModel.channels_after"),
    ("noise", "apply_readout_confusion"),
    ("estimators", "run_circuit"),
    ("estimators", "outcome_distribution"),
    ("estimators", "exact_joint_distributions"),
    ("estimators", "sample_counts"),
    ("estimators", "estimate_from_distribution"),
    ("measurement", "exact_error"),
    ("measurement", "exact_disturbance"),
    ("measurement", "standard_deviation"),
    ("bounds", "classify"),
    ("sweep", "run_sweep"),
    ("sweep", "post_probe_system_state"),
    ("sweep", "emit_csv"),
    ("sweep", "emit_json"),
    ("cli", "main"),
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (work count name, work of one call)
WORK = {
    "qsim.apply_channel": ("qsim.kraus_ops",
                           lambda a, k: len(_arg(a, k, 1, "channel").operators)),
    "estimators.sample_counts": ("estimators.shots_drawn",
                                 lambda a, k: int(_arg(a, k, 1, "shots"))),
}


class Tracer:
    """Flat span arrays for one process; single-threaded use."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("q")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_idx)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, work_of=None):
        nid = self._name_id(name)
        stack = self.stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.name_idx)
            self.name_idx.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.work.append(work_of(args, kwargs) if work_of is not None else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn):
        """Call ``fn()`` inside a span that is not a program function."""
        return self.wrap(name, fn)()

    def rows(self, lo: int = 0, hi: int | None = None):
        """Spans lo..hi as (name, start, end, parent relative to lo, work)."""
        hi = len(self) if hi is None else hi
        for i in range(lo, hi):
            p = self.parent[i]
            yield (self.names[self.name_idx[i]], self.start[i], self.end[i],
                   p - lo if p >= lo else -1, self.work[i])


def install(tracer: Tracer):
    """Wrap every target that exists; returns a function that restores the originals."""
    rebound = []  # (owner, attribute, original)
    for mod_name, attr in TARGETS:
        try:
            module = importlib.import_module(f"edrsim.{mod_name}")
        except ImportError:
            continue
        *path, leaf = attr.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            continue
        name = f"{mod_name}.{leaf}"
        work = WORK.get(name)
        wrapper = tracer.wrap(name, original, work[1] if work else None)
        if owner is module:
            for mod in [m for n, m in sys.modules.items()
                        if m is not None and (n == "edrsim" or n.startswith("edrsim."))]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        rebound.append((mod, key, original))
                        setattr(mod, key, wrapper)
        else:
            rebound.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)

    def uninstall() -> None:
        for owner, key, original in reversed(rebound):
            setattr(owner, key, original)

    return uninstall


def summarise(rows) -> dict[str, list]:
    """Per span name: [calls, inclusive s, self s, work] over the given spans.

    ``rows`` is a list of (name, start, end, parent, work) with parent an
    index into the same list or -1.
    """
    child = [0.0] * len(rows)
    for name, start, end, parent, work in rows:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, work) in enumerate(rows):
        rec = out.setdefault(name, [0, 0.0, 0.0, 0])
        dur = end - start
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[i]
        rec[3] += work
    return out


def read_spans(path: Path) -> list:
    """The span rows of one process's span file (after its JSON header line)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = []
        for line in fh:
            name, start, end, parent, work = line.rstrip("\n").split("\t")
            rows.append((name, float(start), float(end), int(parent), int(work)))
    return rows


def _write_rows(fh, rows, offset: int) -> int:
    n = 0
    for name, start, end, parent, work in rows:
        fh.write(f"{name}\t{start!r}\t{end!r}\t{parent + offset if parent >= 0 else -1}\t{work}\n")
        n += 1
    return n


def _install_worker_dump(tracer: Tracer, spans_dir: Path) -> None:
    """Make each forked pool worker append its task spans to its own file."""
    import edrsim.sweep as sweep_mod

    original = getattr(sweep_mod, "_point_task", None)
    if original is None:
        return
    parent_pid = os.getpid()
    written = {"n": 0}

    def point_task(payload):
        if os.getpid() == parent_pid:
            return original(payload)
        saved = tracer.stack[:]
        tracer.stack.clear()
        mark = len(tracer)
        try:
            return original(payload)
        finally:
            path = spans_dir / f"{os.getpid()}.tsv"
            with open(path, "a", encoding="utf-8") as fh:
                if written["n"] == 0:
                    fh.write(json.dumps({"pid": os.getpid(), "role": "worker"}) + "\n")
                written["n"] += _write_rows(fh, tracer.rows(mark), written["n"])
            tracer.stack[:] = saved

    point_task.__name__ = original.__name__
    point_task.__qualname__ = original.__qualname__
    point_task.__module__ = original.__module__
    sweep_mod._point_task = point_task


def _main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    import edrsim.cli

    tracer = Tracer()
    install(tracer)
    _install_worker_dump(tracer, spans_dir)
    rc = edrsim.cli.main(argv[1:])
    with open(spans_dir / f"{os.getpid()}.tsv", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"pid": os.getpid(), "role": "main"}) + "\n")
        _write_rows(fh, tracer.rows(), 0)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
