"""Fast internal consistency battery behind ``edrsim check``.

Each check is independent, takes well under a second, and raises on
failure; on success it returns the residual it asserts on as a short
detail string.  ``run_checks`` collects pass/fail results so the CLI can
print one line per check and exit nonzero if anything broke.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bounds import EdrInputs, classify, effective_bound
from .circuit import angle_for_strength, build_edr_circuit
from .estimators import (
    basis_probabilities,
    outcome_distribution,
    readout_basis,
    sample_counts,
    weak_valued_squares,
)
from .measurement import commutator_bound, exact_disturbance, exact_error, reference_input_state
from .noise import compile_noise, confusion_matrix, representative_profile
from .qsim import ATOL, CNOT, X, Z, density_matrix, evolve_stack, probabilities, ry, superoperator


def _random_state(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    mat = g @ g.conj().T
    return density_matrix(mat / np.trace(mat).real)


def _check_unitaries() -> str:
    gates = [ry(angle) for angle in np.linspace(0.0, math.pi, 7)]
    worst = max(float(np.abs(g.conj().T @ g - np.eye(2)).max()) for g in gates)
    assert worst < ATOL, f"ry not unitary: {worst}"
    assert np.array_equal(CNOT @ CNOT, np.eye(4))
    return f"max |U^dag U - 1| {worst:.2g}"


def _check_closed_forms() -> str:
    state, s = reference_input_state(), np.linspace(0.0, 1.0, 21)
    d_eps = np.abs(exact_error(state, s) - np.sqrt(2.0 * (1.0 - s)))
    d_eta = np.abs(exact_disturbance(state, s) - np.sqrt(2.0 * (1.0 - np.sqrt(1.0 - s * s))))
    assert d_eps.max() < 1e-10, f"error at s={s[d_eps.argmax()]}"
    assert d_eta.max() < 1e-10, f"disturbance at s={s[d_eta.argmax()]}"
    return f"max |d| {max(d_eps.max(), d_eta.max()):.2g}"


def _check_ideal_estimator() -> str:
    # ideal circuit: eps^2 = 2 (1 - s sin theta_w), eta^2 = 2 s^2 / (1 + sqrt(1 - s^2))
    s, worst = np.linspace(0.0, 1.0, 11), 0.0
    for theta_w in map(angle_for_strength, (0.05, 0.3, 0.7, 1.0)):
        basis, _ = readout_basis(theta_w)
        got = weak_valued_squares(basis_probabilities(basis, s), theta_w)
        want = [2.0 * (1.0 - s * math.sin(theta_w)), 2.0 * s * s / (1.0 + np.sqrt(1.0 - s * s))]
        worst = max(worst, float(np.abs(got - np.transpose(want)).max()))
    assert worst <= 1e-12, f"max |d| {worst:.3g} on the squares"
    return f"max |d| on the squares {worst:.2g}"


def _check_sweep_basis() -> str:
    theta_w = angle_for_strength(0.05)
    model = compile_noise(representative_profile())
    basis, _ = readout_basis(theta_w, model)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 11):
        per_point = outcome_distribution(theta_w, angle_for_strength(s), model)
        worst = max(worst, float(np.abs(basis_probabilities(basis, s) - per_point).max()))
    assert worst <= 1e-12, f"max |dp| {worst:.3g}"
    return f"max |dp| {worst:.2g}"


def _check_meter_statistics() -> str:
    rng = np.random.default_rng(7)
    cnot = superoperator((CNOT,))
    worst = 0.0
    for s in (0.0, 0.3, 1.0):
        meter = ry(angle_for_strength(s))[:, :1]
        for _ in range(5):
            rho = _random_state(rng)
            joint = density_matrix(np.kron(rho, meter @ meter.conj().T))
            probs = probabilities(evolve_stack(joint[None], cnot, (0, 1))[0], [1])
            # the induced two-outcome POVM (I +/- s Z)/2
            z = float((rho[0, 0] - rho[1, 1]).real)
            dev = float(np.abs(probs - [(1.0 + s * z) / 2.0, (1.0 - s * z) / 2.0]).max())
            assert dev < 1e-10, f"max |dp| {dev:.3g} at s={s}"
            worst = max(worst, dev)
    return f"max |dp| {worst:.2g}"


def _check_weak_value_bias() -> str:
    theta_w = angle_for_strength(0.05)
    budget = 2.0 * (1.0 - math.sin(theta_w)) + 1e-9
    state = reference_input_state()
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 11):
        eps_sq, eta_sq = weak_valued_squares(
            outcome_distribution(theta_w, angle_for_strength(s)), theta_w
        )
        eps, eta = exact_error(state, s), exact_disturbance(state, s)
        worst = max(worst, abs(eps_sq - eps * eps), abs(eta_sq - eta * eta))
        assert worst <= budget, f"max |d| {worst:.3g} over budget {budget:.3g} at s={s}"
    return f"max |d| {worst:.6g}, budget {budget:.6g}"


def _check_ideal_saturation() -> str:
    state, s = reference_input_state(), np.linspace(0.0, 1.0, 9)
    inputs = EdrInputs(exact_error(state, s), exact_disturbance(state, s), 1.0, 1.0, 1.0)
    lhs, satisfied = classify(inputs)
    dev = np.abs(lhs["strong_branciard"] - 1.0)
    assert dev.max() < 1e-9, f"saturation at s={s[dev.argmax()]}: |lhs - 1| {dev.max():.3g}"
    assert np.all(satisfied["ozawa"] & satisfied["branciard"])
    return f"max |lhs - 1| {dev.max():.2g}"


def _check_effective_bound() -> str:
    at_zero = abs(effective_bound(0.0))
    at_right = abs(effective_bound(math.pi / 2) - 1.0)
    assert at_zero < 1e-12, at_zero
    assert at_right < 1e-12, at_right
    weak = effective_bound(angle_for_strength(0.05))
    assert abs(weak - 0.99501246882793) < 5e-12, weak
    state = reference_input_state()
    assert commutator_bound(state, Z, X) == 1.0
    return f"|d| at 0 {at_zero:.2g}, at pi/2 {at_right:.2g}"


def _check_sampling_determinism() -> str:
    probs = outcome_distribution(angle_for_strength(0.05), angle_for_strength(0.5))
    # the sweep's own entropy: (seed, point index)
    first = sample_counts(probs, 2000, [12345, 3], 2)
    assert np.array_equal(first, sample_counts(probs, 2000, [12345, 3], 2))
    assert not np.array_equal(first, sample_counts(probs, 2000, [12345, 4], 2))
    assert not np.array_equal(first[0], first[1])
    assert np.all(first.sum(axis=1) == 2000)
    assert np.all(first[:, np.asarray(probs) <= 0.0] == 0)
    return "identical; repeats differ"


def _check_representative_profile() -> str:
    profile = representative_profile()
    model = compile_noise(profile)
    assert model.profile.num_qubits == 4
    circuit = build_edr_circuit(angle_for_strength(0.05), angle_for_strength(0.5))
    for op in circuit.ops:
        assert model.channels_after(op, circuit.num_qubits)
    sums = [confusion_matrix(profile.qubits[qubit]).sum(axis=0) for qubit in range(4)]
    worst = float(np.abs(np.array(sums) - 1.0).max())
    assert worst < 1e-12, f"confusion column sums off by {worst:.3g}"
    return f"max |column sum - 1| {worst:.2g}"


CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("gate matrices are unitary", _check_unitaries),
    ("closed-form error and disturbance curves", _check_closed_forms),
    ("sweep basis matches per-point evolution", _check_sweep_basis),
    ("meter statistics match the induced two-outcome model", _check_meter_statistics),
    ("weak-valued estimates track operator values", _check_weak_value_bias),
    ("ideal estimator matches its closed form", _check_ideal_estimator),
    ("strengthened relation saturates on the ideal curve", _check_ideal_saturation),
    ("probe-adjusted bound and commutator endpoints", _check_effective_bound),
    ("sampling is deterministic in the seed", _check_sampling_determinism),
    ("packaged calibration profile compiles", _check_representative_profile),
)


def run_checks() -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every check; on success, detail is the residual."""
    results = []
    for name, check in CHECKS:
        try:
            detail = check()
        except Exception as exc:  # report, never crash the battery
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, detail))
    return results
