import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from edrsim import measurement
from edrsim.circuit import angle_for_strength
from edrsim.measurement import (
    commutator_bound,
    exact_disturbance,
    exact_error,
    reference_input_state,
    standard_deviation,
)
from edrsim.qsim import (
    ATOL,
    CNOT,
    X,
    Y,
    Z,
    density_matrix,
    expectation,
    probabilities,
    ry,
    superoperator,
)


def test_reference_state_is_minus_y_eigenstate():
    state = reference_input_state()
    assert expectation(state, Y) == -1.0
    assert expectation(state, Z) == 0.0
    assert expectation(state, X) == 0.0
    assert abs(helpers.purity(state) - 1.0) < 1e-15


def test_commutator_bound_is_exactly_one():
    state = reference_input_state()
    assert commutator_bound(state, Z, X) == 1.0


def test_commutator_bound_general():
    ground = helpers.ground_density(1)
    assert commutator_bound(ground, Z, X) == 0.0
    plus = density_matrix(helpers.pure_density(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    assert abs(commutator_bound(plus, Y, Z) - 1.0) < 1e-12


def test_standard_deviations_on_reference_state():
    state = reference_input_state()
    assert standard_deviation(state, Z) == 1.0
    assert standard_deviation(state, X) == 1.0
    assert standard_deviation(state, Y) < 1e-7


def test_negative_variance_guard_sits_at_atol():
    # Z on the Hermitian, unit-trace, non-PSD diag(1 + d, -d) has variance -4 d (1 + d):
    # twice ATOL below zero raises, half of it reads as zero spread
    for delta, variance in ((ATOL / 2.0, -2.0 * ATOL), (ATOL / 8.0, -ATOL / 2.0)):
        state = density_matrix(np.diag([1.0 + delta, -delta]))
        assert abs(expectation(state, Z @ Z) - expectation(state, Z) ** 2 - variance) < 1e-15
    with pytest.raises(ValueError, match="negative squared quantity"):
        standard_deviation(density_matrix(np.diag([1.0 + ATOL / 2.0, -ATOL / 2.0])), Z)
    assert standard_deviation(density_matrix(np.diag([1.0 + ATOL / 8.0, -ATOL / 8.0])), Z) == 0.0


def test_meter_statistics_reproduce_povm():
    # the simulated meter against literal ry/CX algebra and the induced POVM (I +/- s Z)/2
    rng = np.random.default_rng(5)
    for s in (0.0, 0.4, 1.0):
        meter = ry(angle_for_strength(s))[:, :1]
        literal = helpers.ry_mat(math.acos(s))[:, 0]
        for _ in range(4):
            rho = helpers.rand_density(rng)
            joint = density_matrix(np.kron(rho, meter @ meter.conj().T))
            probs = probabilities(helpers.evolve(joint, [(superoperator((CNOT,)), (0, 1))]), [1])
            joint_literal = np.kron(rho, np.outer(literal, literal.conj()))
            after = helpers.CX @ joint_literal @ helpers.CX.conj().T
            assert np.abs(probs - np.diag(after).real.reshape(2, 2).sum(axis=0)).max() < 1e-12
            z = (rho[0, 0] - rho[1, 1]).real
            assert np.abs(probs - [(1.0 + s * z) / 2.0, (1.0 - s * z) / 2.0]).max() < 1e-12


def test_error_against_independent_oracle():
    rng = np.random.default_rng(2024)
    strengths = np.linspace(0.0, 1.0, 21)
    for _ in range(20):
        rho = helpers.rand_density(rng)
        state = density_matrix(rho)
        for s in strengths:
            assert abs(exact_error(state, s) - helpers.oracle_error(rho, s)) < 1e-12
            assert (
                abs(exact_disturbance(state, s) - helpers.oracle_disturbance(rho, s))
                < 1e-12
            )


def test_closed_form_curves():
    state = reference_input_state()
    for s in np.linspace(0.0, 1.0, 21):
        assert abs(exact_error(state, s) - math.sqrt(2.0 * (1.0 - s))) < 1e-12
        want = math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - s * s)))
        assert abs(exact_disturbance(state, s) - want) < 1e-12


def test_strength_arrays_match_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    strengths = np.concatenate([np.linspace(0.0, 1.0, 51), [1e-300, 1e-9, 2**-23, 1.0 - 1e-12]])
    for rho in (reference_input_state(), helpers.rand_density(rng), helpers.rand_density(rng)):
        state = density_matrix(rho)
        for fn in (exact_error, exact_disturbance):
            values = fn(state, strengths)
            assert values.shape == strengths.shape
            assert values.tolist() == [fn(state, float(s)) for s in strengths]
        eps = np.sqrt(2.0 * (1.0 - strengths))
        eta = strengths * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 - strengths**2)))
        assert np.abs(exact_error(state, strengths) - eps).max() <= 1e-12
        assert np.abs(exact_disturbance(state, strengths) - eta).max() <= 1e-12
    with pytest.raises(ValueError):
        exact_error(reference_input_state(), np.array([0.5, 1.5]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(seed=0, strength=2**-23)
def test_error_and_disturbance_are_state_independent(seed, strength):
    rng = np.random.default_rng(seed)
    state = density_matrix(helpers.rand_density(rng))
    reference = reference_input_state()
    assert abs(exact_error(state, strength) - exact_error(reference, strength)) < 1e-10
    assert (
        abs(exact_disturbance(state, strength) - exact_disturbance(reference, strength))
        < 1e-10
    )


def test_error_disturbance_crossing_point():
    # curves cross where s = sqrt(1 - s^2), at strength 2**-0.5
    state = reference_input_state()
    s = 1.0 / math.sqrt(2.0)
    eps = exact_error(state, s)
    eta = exact_disturbance(state, s)
    assert abs(eps - eta) < 1e-12
    assert abs(eps - 2.0 * math.sin(math.pi / 8.0)) < 1e-12


def test_measuring_z_does_not_disturb_z():
    # CX^ (Z x I) CX = Z x I: the disturbance operator of Z vanishes, that of X does not
    z_before = np.kron(helpers.SZ, helpers.ID2)
    assert np.array_equal(helpers.CX.conj().T @ z_before @ helpers.CX, z_before)
    assert np.abs(measurement._X_DISTURBANCE_OP).max() > 0.5


def test_fixed_operators_are_the_indirect_measurement_ones():
    cx, i2 = helpers.CX, helpers.ID2
    noise = cx.conj().T @ np.kron(i2, helpers.SZ) @ cx - np.kron(helpers.SZ, i2)
    x_before = np.kron(helpers.SX, i2)
    assert np.array_equal(measurement._Z_NOISE_OP, noise)
    assert np.array_equal(measurement._X_DISTURBANCE_OP, cx.conj().T @ x_before @ cx - x_before)


def test_projective_limit():
    state = reference_input_state()
    assert exact_error(state, 1.0) < 1e-12
    assert abs(exact_disturbance(state, 1.0) - math.sqrt(2.0)) < 1e-12
    assert abs(exact_error(state, 0.0) - math.sqrt(2.0)) < 1e-12
    assert exact_disturbance(state, 0.0) < 1e-12
