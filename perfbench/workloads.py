"""The three benchmark workloads: inputs derived from a workload seed.

Everything the program receives is generated here from the workload seed:
the sweep seed and, for ``exact_noisy``, the strength list.  This module
imports nothing from edrsim at import time, so ``setup_probe.py`` can time
``import edrsim`` from a fresh interpreter.

Why each workload exists (see README.md for the longer version):

* ``sampled_ideal``  the paper's and the CLI's default sweep; the finite-shot
  sampler dominates, so a sampler or estimator change shows here and an
  evolution-only change should not.
* ``exact_noisy``    exact mode with the representative noise profile on a
  seeded random grid; density-matrix evolution dominates and nothing is
  sampled, so evolution, noise-compilation and caching changes show here.
* ``cli_noisy_both`` the command users run, as a subprocess with two worker
  processes; the only workload that pays interpreter start-up, import,
  argparse, the process pool and file output, and it mixes sampling with
  noisy evolution.
"""

from __future__ import annotations

import random

WORKLOADS = ("sampled_ideal", "exact_noisy", "cli_noisy_both")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001  # outside steady.py's default seeds 1..10

THETA_W_STRENGTH = 0.05
SAMPLED_IDEAL_POINTS = 21
EXACT_NOISY_POINTS = 41
CLI_POINTS = 11
CLI_SHOTS = 1_000_000
CLI_REPEATS = 4
CLI_JOBS = 2


def spec(workload: str, seed: int) -> dict:
    """Plain-data description of one workload's inputs for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"edrsim-perfbench:{workload}:{seed}")
    sweep_seed = rng.randrange(2**31)
    if workload == "sampled_ideal":
        return {"workload": workload, "seed": seed, "sweep_seed": sweep_seed,
                "grid": SAMPLED_IDEAL_POINTS, "strengths": None, "shots": 100_000,
                "repeats": 10, "mode": "both", "noise": None, "sigma_source": "ideal", "jobs": 1}
    if workload == "exact_noisy":
        # uniform on [0, 1] with both endpoints; small strengths are kept on purpose
        inner = [rng.random() for _ in range(EXACT_NOISY_POINTS - 2)]
        return {"workload": workload, "seed": seed, "sweep_seed": sweep_seed, "grid": None,
                "strengths": sorted([0.0, 1.0, *inner]), "shots": 100_000, "repeats": 10,
                "mode": "exact", "noise": "representative", "sigma_source": "ideal", "jobs": 1}
    return {"workload": workload, "seed": seed, "sweep_seed": sweep_seed, "grid": CLI_POINTS,
            "strengths": None, "shots": CLI_SHOTS, "repeats": CLI_REPEATS, "mode": "both",
            "noise": "representative", "sigma_source": "simulated", "jobs": CLI_JOBS}


def strengths(sp: dict) -> tuple[float, ...]:
    """The strength list the program sweeps, as the program itself builds it."""
    from edrsim.sweep import default_strength_grid

    if sp["strengths"] is not None:
        return tuple(sp["strengths"])
    return default_strength_grid(sp["grid"])


def build_config(sp: dict, *, jobs: int | None = None):
    """The ``SweepConfig`` an in-process caller builds.

    A noisy workload loads the representative profile and compiles it once,
    so that set-up time covers getting a noise model ready.

    With ``jobs`` given, the config mirrors the CLI invocation at that job
    count (``noise_path`` set as the CLI sets it), so its JSON must match the
    CLI's byte for byte.
    """
    from edrsim.noise import compile_noise, representative_profile
    from edrsim.sweep import SweepConfig

    profile = None
    if sp["noise"] == "representative":
        profile = representative_profile()
        compile_noise(profile)
    return SweepConfig(
        theta_w_strength=THETA_W_STRENGTH,
        strengths=strengths(sp),
        shots=sp["shots"],
        repeats=sp["repeats"],
        seed=sp["sweep_seed"],
        mode=sp["mode"],
        noise_profile=profile,
        noise_path=sp["noise"],
        sigma_source=sp["sigma_source"],
        jobs=sp["jobs"] if jobs is None else jobs,
    )


def cli_argv(sp: dict, out_path: str) -> list[str]:
    """Arguments after ``python -m edrsim`` for the CLI workload."""
    return [
        "sweep", "--grid", str(sp["grid"]), "--shots", str(sp["shots"]),
        "--repeats", str(sp["repeats"]), "--mode", sp["mode"], "--noise", sp["noise"],
        "--sigma-source", sp["sigma_source"], "--jobs", str(sp["jobs"]),
        "--seed", str(sp["sweep_seed"]), "--format", "json", "--out", out_path,
    ]
