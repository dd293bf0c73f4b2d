import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrsim.bounds import (
    BOUND_NAMES,
    EdrInputs,
    branciard_lhs,
    classify,
    effective_bound,
    heisenberg_lhs,
    ozawa_lhs,
    strong_branciard_lhs,
    tilde,
)
from edrsim.circuit import angle_for_strength
from edrsim.measurement import exact_disturbance, exact_error, reference_input_state

MIDPOINT = 2.0 * math.sin(math.pi / 8.0)  # error = disturbance at theta = pi/4


def unit(epsilon: float, eta: float) -> EdrInputs:
    return EdrInputs(epsilon, eta, 1.0, 1.0, 1.0)


def test_inputs_validation():
    with pytest.raises(ValueError):
        EdrInputs(-0.1, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        EdrInputs(0.5, 0.5, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        EdrInputs(0.5, 0.5, 0.5, 0.5, 1.0)  # sigma product below c
    with pytest.raises(ValueError):
        EdrInputs(0.5, 0.5, 1.0, 1.0, -0.2)
    with pytest.raises(ValueError):  # one bad entry of an array
        EdrInputs(np.array([0.1, 0.2]), np.array([0.5, -0.5]), 1.0, 1.0, 1.0)


def test_sigma_product_guard_sits_at_1e_12_below_c():
    # twice the tolerance below c raises; half of it below passes
    with pytest.raises(ValueError, match="below c"):
        EdrInputs(0.5, 0.5, 1.0, 1.0 - 2e-12, 1.0)
    EdrInputs(0.5, 0.5, 1.0, 1.0 - 5e-13, 1.0)


def test_heisenberg_point_values():
    assert abs(heisenberg_lhs(unit(math.sqrt(2.0), math.sqrt(2.0))) - 2.0) < 1e-15
    assert heisenberg_lhs(unit(0.0, 1.3)) == 0.0
    mid = heisenberg_lhs(unit(MIDPOINT, MIDPOINT))
    assert abs(mid - 0.585786437626905) < 1e-12
    assert mid < 1.0


def test_ozawa_point_values():
    got = ozawa_lhs(unit(MIDPOINT, MIDPOINT))
    assert abs(got - 2.116520167087264) < 1e-12
    assert abs(ozawa_lhs(unit(math.sqrt(2.0), 0.0)) - math.sqrt(2.0)) < 1e-15
    assert ozawa_lhs(unit(0.0, 0.0)) == 0.0


def test_branciard_point_values():
    # sigma_a = sigma_b = 1, c = 1 kills the cross term: lhs = hypot(eps, eta)
    got = branciard_lhs(unit(MIDPOINT, MIDPOINT))
    assert abs(got - 1.082392200292394) < 1e-12
    assert abs(branciard_lhs(unit(math.sqrt(2.0), 0.0)) - math.sqrt(2.0)) < 1e-15
    loose = branciard_lhs(EdrInputs(1.0, 1.0, 1.5, 1.0, 1.0))
    want = math.sqrt(1.0 + 2.25 + 2.0 * math.sqrt(2.25 - 1.0))
    assert abs(loose - want) < 1e-12


def test_tilde_map():
    assert tilde(0.0) == 0.0
    assert tilde(2.0) == 0.0
    assert abs(tilde(math.sqrt(2.0)) - 1.0) < 1e-15
    theta = 0.7
    assert abs(tilde(2.0 * math.sin(theta / 2.0)) - math.sin(theta)) < 1e-12
    with pytest.raises(ValueError):
        tilde(2.1)
    with pytest.raises(ValueError):
        tilde(-0.1)
    with pytest.raises(ValueError):
        tilde(np.array([0.5, 2.0 + 1e-12, 1.0]))


def test_strong_branciard_point_values():
    assert abs(strong_branciard_lhs(unit(math.sqrt(2.0), math.sqrt(2.0))) - math.sqrt(2.0)) < 1e-12
    # epsilon = 2 maps to zero; only the disturbance arm remains
    inputs = unit(2.0, 1.2)
    assert abs(strong_branciard_lhs(inputs) - tilde(1.2)) < 1e-12
    assert abs(strong_branciard_lhs(unit(MIDPOINT, MIDPOINT)) - 1.0) < 1e-12


def test_strong_branciard_saturates_on_ideal_curve():
    state = reference_input_state()
    for s in np.linspace(0.0, 1.0, 21):
        inputs = unit(exact_error(state, s), exact_disturbance(state, s))
        assert abs(strong_branciard_lhs(inputs) - 1.0) < 1e-9


def test_effective_bound_curve():
    assert effective_bound(0.0) == 0.0
    assert abs(effective_bound(math.pi / 2.0) - 1.0) < 1e-15
    weak = effective_bound(angle_for_strength(0.05))
    assert abs(weak - 0.9950124688279303) < 1e-15
    assert abs(weak - 0.995) < 5e-4
    with pytest.raises(ValueError):
        effective_bound(-0.1)
    with pytest.raises(ValueError):
        effective_bound(2.0)


def test_effective_bound_angle_guard_sits_at_1e_12_past_pi_over_2():
    with pytest.raises(ValueError, match="outside"):
        effective_bound(math.pi / 2.0 + 2e-12)
    assert abs(effective_bound(math.pi / 2.0 + 5e-13) - 1.0) < 1e-15


def test_effective_bound_monotone_in_probe_angle():
    grid = np.linspace(0.0, math.pi / 2.0, 50)
    values = [effective_bound(t) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_classification_tolerance():
    _, satisfied = classify(unit(1.0, 1.0 - 5e-10))
    assert satisfied["heisenberg"]  # within 1e-9 of the bound
    _, satisfied = classify(unit(1.0, 1.0 - 1e-6))
    assert not satisfied["heisenberg"]


@pytest.mark.parametrize("c", (1.0, 0.5))
def test_relation_flags_are_pinned_at_their_tolerance(c):
    # lhs = epsilon * eta for Heisenberg; the flag's tolerance is 1e-9 below c
    for below, satisfied in ((2e-9, False), (5e-10, True)):
        _, flags = classify(EdrInputs(c - below, 1.0, 1.0, 1.0, c))
        assert flags["heisenberg"] is satisfied, (c, below)


def test_classify_report_shape():
    lhs, satisfied = classify(unit(MIDPOINT, MIDPOINT))
    assert list(lhs) == list(satisfied) == list(BOUND_NAMES)
    assert not satisfied["heisenberg"]
    assert satisfied["ozawa"]
    assert satisfied["branciard"]
    assert satisfied["strong_branciard"]
    assert lhs["ozawa"] == ozawa_lhs(unit(MIDPOINT, MIDPOINT))


def test_region_ordering_on_grid():
    # (eps, eta) in [0, 2]^2, 101 points per axis, sigma_a = sigma_b = c = 1:
    # strong-Branciard-satisfied implies Branciard-satisfied implies Ozawa-satisfied
    grid = np.linspace(0.0, 2.0, 101)
    for eps in grid:
        for eta in grid:
            lhs, satisfied = classify(unit(float(eps), float(eta)))
            if satisfied["strong_branciard"]:
                assert satisfied["branciard"], (eps, eta)
            if satisfied["branciard"]:
                assert satisfied["ozawa"], (eps, eta)
            assert lhs["strong_branciard"] <= lhs["branciard"] + 1e-9, (eps, eta)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
)
def test_stronger_bounds_never_exceed_weaker(epsilon, eta, c):
    inputs = EdrInputs(epsilon, eta, 1.0, 1.0, c)
    assert strong_branciard_lhs(inputs) <= branciard_lhs(inputs) + 1e-9
    assert branciard_lhs(inputs) <= ozawa_lhs(inputs) + 1e-9


def test_branciard_radicand_guard_sits_at_1e_12():
    # c = 1 and sigma_a sigma_b = 1 - d give the radicand -2d (1 - d / 2); the
    # constructor's own guard admits d up to 1e-12, so twice the tolerance is reachable
    outside = EdrInputs(0.5, 0.5, 1.0, 1.0 - 1e-12, 1.0)
    inside = EdrInputs(0.5, 0.5, 1.0, 1.0 - 2.5e-13, 1.0)
    for inputs, radicand in ((outside, -2e-12), (inside, -5e-13)):
        assert abs((inputs.sigma_a * inputs.sigma_b) ** 2 - inputs.c**2 - radicand) < 1e-15
    with pytest.raises(ValueError, match="is negative"):
        branciard_lhs(outside)
    e = 0.5 * inside.sigma_b
    assert branciard_lhs(inside) == math.sqrt(e * e + 0.5 * 0.5)


def test_branciard_radicand_rounds_up_to_zero():
    # sigma product a hair under c is legal input; the tiny negative radicand clamps
    inputs = EdrInputs(1.0, 1.0, 1.0, 1.0 - 2e-13, 1.0)
    assert abs(branciard_lhs(inputs) - math.sqrt(2.0)) < 1e-6


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), min_size=1, max_size=12),
    st.floats(1.0, 1.5),
    st.floats(1.0, 1.5),
    st.floats(0.0, 1.0),
)
def test_classify_on_arrays_matches_scalar_classify(pairs, sigma_a, sigma_b, c):
    epsilon = np.array([e for e, _ in pairs])
    eta = np.array([n for _, n in pairs])
    lhs, satisfied = classify(EdrInputs(epsilon, eta, sigma_a, sigma_b, c))
    for i, (e, n) in enumerate(pairs):
        one_lhs, one_satisfied = classify(EdrInputs(e, n, sigma_a, sigma_b, c))
        for name in BOUND_NAMES:
            assert lhs[name][i] == one_lhs[name], (name, e, n)
            assert satisfied[name][i] == one_satisfied[name], (name, e, n)
