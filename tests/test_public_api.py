"""The package's outside surface: the names ``import edrsim`` exports, and the scripts."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import edrsim
from edrsim.sweep import CSV_COLUMNS

PKG_ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_and_is_documented():
    readme = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
    for name in edrsim.__all__:
        assert hasattr(edrsim, name), name
        assert re.search(rf"\b{re.escape(name)}\b", readme), f"{name} is not in README.md"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(PKG_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=PKG_ROOT,
    )


def read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_tradeoff_sweep_script_writes_both_files(tmp_path):
    result = run_script(
        "run_tradeoff_sweep.py", "--points", "3", "--shots", "1000", "--repeats", "2",
        "--out", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "tradeoff.json").is_file()
    table = read_csv(tmp_path / "tradeoff.csv")
    assert tuple(table[0]) == CSV_COLUMNS
    assert len(table) == 1 + 2 * 3  # one exact and one sampled row per strength


def test_compare_bounds_script_writes_both_pipelines(tmp_path):
    result = run_script("compare_bounds.py", "--points", "3", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    table = read_csv(tmp_path / "bounds_comparison.csv")
    assert table[0][:2] == ["pipeline", "strength"]
    assert [row[0] for row in table[1:]] == ["ideal"] * 3 + ["noisy"] * 3
