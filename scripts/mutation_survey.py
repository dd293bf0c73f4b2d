"""Mutation survey: does the test suite notice single-line faults in the program?

Each mutant below replaces one exact text in one file of ``src/`` with
another, changing a single line.  For every mutant the script copies
``src/``, ``tests/`` and what the tests read (``scripts/``, ``README.md``,
``pyproject.toml``) into a fresh temporary directory, applies the mutant
there (the checkout is never touched), and runs ``python -m pytest -x -q
-p no:cacheprovider`` in that directory, so each run starts with an empty
hypothesis database.  A mutant is killed when
the run fails.  An unmutated copy runs first and must pass, or nothing can
be told; the mutants then run two at a time.  An old text that is not found
exactly once is an error, not a pass.

    python scripts/mutation_survey.py

Exit status: 0 when every mutant was killed, 1 when any survived, 2 when a
mutant does not apply or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2  # suites run at once, each in its own subprocess

# (id, file under src/edrsim, exact old text, new text, what the fault means)
MUTANTS = (
    ("0", "bounds.py", "SATISFIED_TOL = 1e-9", "SATISFIED_TOL = 1e-7",
     "relation flags' tolerance loosened"),
    ("1", "estimators.py", "if np.any(probs < -1e-12):", "if np.any(probs < -1e-6):",
     "negative-probability guard loosened"),
    ("2", "measurement.py", "if variance < -ATOL:", "if variance < -1e-6:",
     "negative-variance guard loosened"),
    ("6", "noise.py", '"cnot": depolarizing_channel(profile.cnot_error, 2),',
     '"cnot": depolarizing_channel(profile.single_qubit_gate_error, 2),',
     "CNOT depolarizing built from the single-qubit error"),
    ("7", "noise.py", '"cnot": profile.cnot_duration_ns,',
     '"cnot": profile.single_qubit_gate_duration_ns,',
     "CNOT relaxation over the single-qubit duration"),
    ("9", "estimators.py", "if cw < 1e-12:", "if cw < 1e-3:",
     "1/cos(theta_w) guard moved to 1e-3"),
    ("12", "sweep.py", '"include_idle": cfg.include_idle,', '"include_idle": True,',
     "envelope's include_idle hard-coded"),
    ("13", "qsim.py", "if abs(tr - 1.0) > ATOL:", "if abs(tr - 1.0) > 1e-6:",
     "density-matrix trace guard loosened"),
    ("15", "bounds.py", "if self.sigma_a * self.sigma_b < self.c - 1e-12:",
     "if self.sigma_a * self.sigma_b < self.c - 1e-6:",
     "sigma_A sigma_B >= c guard loosened"),
    ("16", "qsim.py", "dev = np.max(np.abs(m - m.conj().T))\n    if dev > ATOL:",
     'dev = np.max(np.abs(m - m.conj().T))\n    if dev > (1e-6 if what == "observable" else ATOL):',
     "observable Hermiticity guard loosened"),
    ("18", "noise.py", "if duration_ns < 0.0:", "if duration_ns < -1e-9:",
     "negative-duration guard loosened"),
    ("19", "sweep.py", "if self.repeats < 1:", "if self.repeats < 0:",
     "SweepConfig accepts repeats = 0"),
    ("depol-cap", "noise.py", "p = min(error * dim / (dim - 1.0), 1.0)",
     "p = min(error * dim / (dim - 1.0), 0.5)", "depolarizing p capped at 0.5"),
    ("confusion-transposed", "noise.py",
     "return np.array([[1.0 - e01, e10], [e01, 1.0 - e10]])",
     "return np.array([[1.0 - e01, e01], [e10, 1.0 - e10]])", "confusion matrix transposed"),
    ("idle-skips-q0", "noise.py",
     "affected = range(num_qubits) if self.include_idle else op.qubits",
     "affected = range(1, num_qubits) if self.include_idle else op.qubits",
     "idle relaxation skips qubit 0"),
    ("t2-bound", "noise.py", "if self.t2_us > 2.0 * self.t1_us:",
     "if self.t2_us > 3.0 * self.t1_us:", "T2 <= 2 T1 loosened"),
    ("cache-bound", "estimators.py", "_CACHED_CIRCUITS = 16", "_CACHED_CIRCUITS = 1",
     "compile cache bound set to 1"),
    ("clamp", "sweep.py", "v = np.clip(values, 0.0, 2.0)", "v = np.clip(values, 0.0, 1.9)",
     "classification clamp moved to 1.9"),
    ("no-qubit-state", "qsim.py", "if n < 1 or rho.shape != (2**n, 2**n):",
     "if rho.shape != (2**n, 2**n):", "state shape check admits a 1x1 register of no qubits"),
    ("exit-code", "cli.py", 'print(f"error: {exc}", file=sys.stderr)\n        return 2',
     'print(f"error: {exc}", file=sys.stderr)\n        return 1', "runtime exit code 2 -> 1"),
    ("seq-mean", "sweep.py", "return np.cumsum(values, axis=1)[:, -1] / values.shape[1]",
     "return values.mean(axis=1)", "repeat mean by numpy's pairwise sum"),
    ("sqrt-form", "estimators.py", "np.sqrt((1.0 - s) * (1.0 + s))", "np.sqrt(1.0 - s * s)",
     "sin(theta) as sqrt(1 - s s), which rounds differently"),
    ("imag-resid", "qsim.py", "if abs(val.imag) > 1e-10:", "if abs(val.imag) > 1e-6:",
     "expectation's imaginary-residue guard loosened"),
    ("hermitian-state", "qsim.py", "dev = np.max(np.abs(m - m.conj().T))\n    if dev > ATOL:",
     'dev = np.max(np.abs(m - m.conj().T))\n    if dev > (1e-6 if what == "density matrix" else ATOL):',
     "state Hermiticity guard loosened"),
    ("branciard-radicand", "bounds.py", "if radicand < -1e-12:", "if radicand < -1e-6:",
     "Branciard radicand guard loosened"),
    ("eff-bound-guard", "bounds.py", "theta_w <= math.pi / 2.0 + 1e-12:",
     "theta_w <= math.pi / 2.0 + 1e-3:", "effective_bound's angle guard loosened"),
)


def run_suite(mutant: tuple | None) -> tuple[bool, float]:
    """Whether the suite passes on a fresh copy with ``mutant`` applied, and its wall time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("README.md", "pyproject.toml"):
            shutil.copy2(ROOT / name, work / name)
        if mutant is not None:
            _, filename, old, new, _ = mutant
            path = work / "src" / "edrsim" / filename
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return result.returncode == 0, time.perf_counter() - start


def main() -> int:
    for ident, filename, old, _, _ in MUTANTS:
        found = (ROOT / "src" / "edrsim" / filename).read_text(encoding="utf-8").count(old)
        if found != 1:
            print(f"mutant {ident}: old text found {found} times in {filename}, not once",
                  file=sys.stderr)
            return 2
    start = time.perf_counter()
    passed, seconds = run_suite(None)
    print(f"unmutated copy: {'passes' if passed else 'FAILS'} ({seconds:.1f} s)", flush=True)
    if not passed:
        return 2
    survived = []
    with ThreadPoolExecutor(WORKERS) as pool:
        # map yields in table order, each result as soon as it and those before it are done
        for mutant, (passed, seconds) in zip(MUTANTS, pool.map(run_suite, MUTANTS)):
            print(f"{'SURVIVED' if passed else 'killed  '} {mutant[0]:>20}  {mutant[4]} ({seconds:.1f} s)",
                  flush=True)
            if passed:
                survived.append(mutant[0])
    killed = len(MUTANTS) - len(survived)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    if survived:
        print(f"survived: {', '.join(survived)}")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
