import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from edrsim import measurement
from edrsim.measurement import (
    IndirectMeasurement,
    PovmPair,
    build_povm,
    commutator_bound,
    exact_disturbance,
    exact_error,
    reference_input_state,
    standard_deviation,
)
from edrsim.qsim import DensityMatrix, I2, X, Y, Z


def test_reference_state_is_minus_y_eigenstate():
    state = reference_input_state()
    assert state.expectation(Y) == -1.0
    assert state.expectation(Z) == 0.0
    assert state.expectation(X) == 0.0
    assert abs(helpers.purity(state.mat) - 1.0) < 1e-15


def test_commutator_bound_is_exactly_one():
    state = reference_input_state()
    assert commutator_bound(state, Z, X) == 1.0


def test_commutator_bound_general():
    ground = DensityMatrix.ground(1)
    assert commutator_bound(ground, Z, X) == 0.0
    plus = DensityMatrix.from_ket(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert abs(commutator_bound(plus, Y, Z) - 1.0) < 1e-12


def test_standard_deviations_on_reference_state():
    state = reference_input_state()
    assert standard_deviation(state, Z) == 1.0
    assert standard_deviation(state, X) == 1.0
    assert standard_deviation(state, Y) < 1e-7


def test_povm_diagonals_at_half_strength():
    povm = build_povm(0.5)
    assert np.allclose(np.diag(povm.plus).real, [0.75, 0.25])
    assert np.allclose(np.diag(povm.minus).real, [0.25, 0.75])


def test_povm_endpoints():
    weak = build_povm(0.0)
    assert np.allclose(weak.plus, I2 / 2.0)
    strong = build_povm(1.0)
    assert np.allclose(strong.plus, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        build_povm(1.2)


def test_povm_probabilities_match_expectations():
    rng = np.random.default_rng(11)
    for s in (0.0, 0.25, 0.8, 1.0):
        povm = build_povm(s)
        for _ in range(5):
            state = DensityMatrix(1, helpers.rand_density(rng))
            p_plus, p_minus = povm.probabilities(state)
            assert abs(p_plus + p_minus - 1.0) < 1e-12
            assert abs(p_plus - (1.0 + s * state.expectation(Z)) / 2.0) < 1e-12


def test_povm_pair_validation():
    with pytest.raises(ValueError):
        PovmPair(np.diag([0.8, 0.8]), np.diag([0.3, 0.3]), 0.5)
    with pytest.raises(ValueError):
        PovmPair(np.diag([1.5, 0.0]), np.diag([-0.5, 1.0]), 0.5)


def test_meter_statistics_reproduce_povm():
    rng = np.random.default_rng(5)
    for s in (0.0, 0.4, 1.0):
        meas = IndirectMeasurement.z_through_meter(s)
        povm = build_povm(s)
        for _ in range(4):
            state = DensityMatrix(1, helpers.rand_density(rng))
            joint = meas.composite(state).apply_unitary(meas.interaction, (0, 1))
            assert np.abs(
                joint.probabilities([1]) - np.asarray(povm.probabilities(state))
            ).max() < 1e-12


def test_error_against_independent_oracle():
    rng = np.random.default_rng(2024)
    strengths = np.linspace(0.0, 1.0, 21)
    for _ in range(20):
        rho = helpers.rand_density(rng)
        state = DensityMatrix(1, rho)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(seed=0, strength=2**-23)
def test_error_and_disturbance_are_state_independent(seed, strength):
    rng = np.random.default_rng(seed)
    state = DensityMatrix(1, helpers.rand_density(rng))
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
    # the disturbance operator of Z vanishes, so <D^2> is 0 on every state and strength
    for s in (0.1, 0.6, 1.0):
        meas = IndirectMeasurement.z_through_meter(s)
        assert np.abs(meas.disturbance_operator(Z)).max() < 1e-12
        assert np.abs(meas.disturbance_operator(X)).max() > 0.5


def test_fixed_operators_are_the_indirect_measurement_ones():
    meas = IndirectMeasurement.z_through_meter(1.0)
    assert np.array_equal(measurement._Z_NOISE_OP, meas.noise_operator())
    assert np.array_equal(measurement._X_DISTURBANCE_OP, meas.disturbance_operator(X))


def test_projective_limit():
    state = reference_input_state()
    assert exact_error(state, 1.0) < 1e-12
    assert abs(exact_disturbance(state, 1.0) - math.sqrt(2.0)) < 1e-12
    assert abs(exact_error(state, 0.0) - math.sqrt(2.0)) < 1e-12
    assert exact_disturbance(state, 0.0) < 1e-12


def test_indirect_measurement_validation():
    with pytest.raises(ValueError):
        IndirectMeasurement(
            system_observable=np.array([[1.0, 0.0], [0.0, 0.5]]),
            meter_observable=Z,
            interaction=np.eye(4),
            meter_init_angle=0.3,
        )
