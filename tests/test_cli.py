import json
import os
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("EDRSIM_OUTPUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "edrsim", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=PKG_ROOT,
    )


def test_no_arguments_is_usage_error():
    result = run_cli()
    assert result.returncode == 1
    assert "usage" in result.stderr.lower()


def test_unknown_flag_is_usage_error():
    result = run_cli("sweep", "--frobnicate")
    assert result.returncode == 1
    assert "usage" in result.stderr.lower()


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "sweep" in result.stdout and "bounds" in result.stdout


def test_bounds_subcommand_reports_midpoint():
    result = run_cli("bounds", "--epsilon", "0.7654", "--eta", "0.7654")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("heisenberg") and "VIOLATED" in lines[0]
    for line in lines[1:]:
        assert "satisfied" in line
    assert lines[3].startswith("strong_branciard")


def test_bounds_invalid_inputs_are_runtime_errors():
    result = run_cli("bounds", "--epsilon", "-1", "--eta", "0.5")
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_sweep_exact_grid_to_stdout():
    result = run_cli("sweep", "--grid", "3", "--mode", "exact")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "strength"
    strengths = [line.split(",")[0] for line in lines[1:]]
    assert strengths == ["0", "0.5", "1"]


def test_sweep_rejects_bad_strengths():
    assert run_cli("sweep", "--strengths", "0.2,1.4").returncode == 1
    assert run_cli("sweep", "--grid", "1").returncode == 1
    assert run_cli("sweep", "--grid", "3", "--strengths", "0.5").returncode == 1
    assert run_cli("sweep", "--mode", "warp").returncode == 1


def test_sweep_missing_noise_file_is_runtime_error():
    result = run_cli("sweep", "--grid", "2", "--noise", "no-such-file.yaml")
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_sweep_malformed_noise_file_names_the_line(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text("schema_version: 1\nq0_t1_us: 50.0\nq0_t2_us: 0x1f\n", encoding="utf-8")
    result = run_cli("sweep", "--grid", "2", "--mode", "exact", "--noise", str(path))
    assert result.returncode == 2
    assert "line 3: q0_t2_us: expected a number, got '0x1f'" in result.stderr


def test_noisy_sweep_never_imports_yaml(tmp_path):
    code = (
        "import sys\n"
        "import edrsim.cli\n"
        "assert 'yaml' not in sys.modules, 'import edrsim.cli'\n"
        "argv = ['sweep', '--noise', 'representative', '--mode', 'exact', '--grid', '2',\n"
        "        '--out', sys.argv[1]]\n"
        "assert edrsim.cli.main(argv) == 0\n"
        "assert 'yaml' not in sys.modules, 'noisy sweep'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out.csv")],
        capture_output=True, text=True, cwd=PKG_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").count("\n") == 3


def test_sweep_output_dir_env(tmp_path):
    result = run_cli(
        "sweep", "--grid", "2", "--mode", "exact", "--out", "runs/out.csv",
        env_extra={"EDRSIM_OUTPUT_DIR": str(tmp_path)},
    )
    assert result.returncode == 0
    written = tmp_path / "runs" / "out.csv"
    assert written.is_file()
    assert written.read_text(encoding="utf-8").splitlines()[0].startswith("strength,")


def test_sweep_json_deterministic_across_jobs(tmp_path):
    args = (
        "sweep", "--grid", "3", "--shots", "2000", "--repeats", "2",
        "--seed", "5", "--mode", "both", "--format", "json",
    )
    first = run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "a.json"))
    second = run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "b.json"))
    assert first.returncode == 0 and second.returncode == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 6


def test_sweep_with_packaged_noise_profile():
    result = run_cli(
        "sweep", "--strengths", "0,1", "--mode", "exact", "--noise", "representative"
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    header = lines[0].split(",")
    eta_col = header.index("eta_mean")
    eps_col = header.index("epsilon_mean")
    eta_at_zero = float(lines[1].split(",")[eta_col])
    eps_at_one = float(lines[2].split(",")[eps_col])
    assert 0.3 < eta_at_zero < 0.9
    assert 0.2 < eps_at_one < 0.7


def test_export_qasm_roundtrip(tmp_path):
    out = tmp_path / "circ.qasm"
    result = run_cli("export-qasm", "--strength", "0.5", "--out", str(out))
    assert result.returncode == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("OPENQASM 2.0;\n")
    assert 'include "qelib1.inc";' in text
    assert text.count("measure") == 4
    assert run_cli("export-qasm", "--strength", "1.7").returncode == 1


def test_check_subcommand_passes():
    result = run_cli("check")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[-1].startswith("all ")
    assert all(line.startswith("ok") for line in lines[:-1])
    # every check reports the residual it asserts on
    assert all(line.endswith(")") for line in lines[:-1])
    for name in ("closed-form error and disturbance", "sweep basis matches per-point"):
        (line,) = [line for line in lines if name in line]
        assert line.endswith(")") and "(max |d" in line


def test_sweep_zero_probe_strength_is_usage_error():
    result = run_cli("sweep", "--grid", "2", "--mode", "exact", "--theta-w-strength", "0")
    assert result.returncode == 1
    assert "usage" in result.stderr.lower()
    assert "probe strength must be positive" in result.stderr


def test_sweep_negative_seed_is_usage_error():
    args = ("sweep", "--grid", "2", "--shots", "10", "--repeats", "1", "--seed")
    result = run_cli(*args, "-1")
    assert result.returncode == 1
    assert "usage" in result.stderr.lower()
    assert "--seed: -1 must be at least 0" in result.stderr
    assert run_cli(*args, "0").returncode == 0


def test_sweep_jobs_has_no_effect(tmp_path):
    from edrsim.cli import main

    args = ["sweep", "--strengths", "0.2,0.8", "--mode", "both", "--shots", "1000",
            "--repeats", "2", "--format", "json"]
    assert main([*args, "--jobs", "64", "--out", str(tmp_path / "many.json")]) == 0
    assert main([*args, "--jobs", "1", "--out", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "many.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    assert main([*args, "--jobs", "0"]) == 1
    # a fresh interpreter, listing every module it imports on stderr
    fresh = run_cli("sweep", "--grid", "3", "--mode", "exact", "--jobs", "2",
                    env_extra={"PYTHONPROFILEIMPORTTIME": "1"})
    assert fresh.returncode == 0
    assert "edrsim.sweep" in fresh.stderr
    assert "concurrent.futures" not in fresh.stderr
