import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from edrsim.circuit import angle_for_strength, build_edr_circuit
from edrsim.estimators import (
    CORRELATOR_SIGNS,
    basis_probabilities,
    outcome_distribution,
    readout_basis,
    run_circuit,
    sample_counts,
    weak_valued_squares,
)
from edrsim.noise import compile_noise, representative_profile

THETA_W = angle_for_strength(0.05)

NOISE_MODELS = {
    "ideal": None,
    "representative": compile_noise(representative_profile()),
    "no_idle": compile_noise(representative_profile(), include_idle=False),
}
PROBE_STRENGTHS = (0.05, 0.7)


@pytest.fixture(scope="module")
def bases():
    out = {}
    for name, model in NOISE_MODELS.items():
        for probe in PROBE_STRENGTHS:
            out[name, probe], _ = readout_basis(angle_for_strength(probe), model)
    return out


@pytest.mark.parametrize("probe", PROBE_STRENGTHS)
@pytest.mark.parametrize("model_name", sorted(NOISE_MODELS))
@settings(max_examples=8, deadline=None)
@given(strength=st.floats(0.0, 1.0))
@example(strength=0.0)
@example(strength=2**-23)
@example(strength=0.5)
@example(strength=1.0)
def test_readout_basis_matches_per_point_evolution(bases, model_name, probe, strength):
    got = basis_probabilities(bases[model_name, probe], strength)
    want = outcome_distribution(
        angle_for_strength(probe), angle_for_strength(strength), NOISE_MODELS[model_name]
    )
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("probe", PROBE_STRENGTHS)
@pytest.mark.parametrize("model_name", ("representative", "no_idle"))
@settings(max_examples=8, deadline=None)
@given(strength=st.floats(0.0, 1.0))
@example(strength=0.0)
@example(strength=2**-23)
@example(strength=0.5)
@example(strength=1.0)
def test_readout_basis_matches_literal_noisy_oracle(bases, model_name, probe, strength):
    # outcome_distribution shares compile_steps with readout_basis; this oracle shares nothing
    circuit = build_edr_circuit(angle_for_strength(probe), angle_for_strength(strength))
    want = helpers.oracle_noisy_outcome_distribution(circuit, NOISE_MODELS[model_name])
    got = basis_probabilities(bases[model_name, probe], strength)
    assert np.abs(got - want).max() <= 1e-12


def test_outcome_distribution_matches_independent_simulation():
    for s in (0.0, 0.3, 0.75, 1.0):
        theta = angle_for_strength(s)
        got = outcome_distribution(THETA_W, theta)
        want = helpers.oracle_outcome_distribution(THETA_W, theta)
        assert np.abs(got - want).max() < 1e-12
        assert abs(got.sum() - 1.0) < 1e-12
        assert np.all(got >= -1e-15)


@pytest.mark.parametrize("strength", (0.0, 0.3, 1.0))
@pytest.mark.parametrize("model_name", ("representative", "no_idle"))
def test_noisy_outcome_distribution_matches_literal_oracle(model_name, strength):
    model = NOISE_MODELS[model_name]
    theta = angle_for_strength(strength)
    circuit = build_edr_circuit(THETA_W, theta)
    got = outcome_distribution(THETA_W, theta, model)
    want = helpers.oracle_noisy_outcome_distribution(circuit, model)
    assert np.abs(got - want).max() <= 1e-12
    # evolution skips the construction checks; the final state must still pass them all
    state = run_circuit(circuit, model).validate()
    assert np.abs(state.mat - state.mat.conj().T).max() <= 1e-12
    assert abs(np.trace(state.mat) - 1.0) <= 1e-12


def test_correlator_closed_forms():
    # <z_i z_f> = cos(theta_w) sin(theta_w) cos(theta); <x_i x_f> = cos(theta_w) sin(theta)
    for s in np.linspace(0.0, 1.0, 11):
        theta = angle_for_strength(s)
        probs = outcome_distribution(THETA_W, theta)
        want = [
            math.cos(THETA_W) * math.sin(THETA_W) * math.cos(theta),
            math.cos(THETA_W) * math.sin(theta),
        ]
        assert np.abs(probs @ CORRELATOR_SIGNS - want).max() < 1e-12
        assert np.abs(helpers.oracle_correlators(probs) - want).max() < 1e-12


def test_estimator_closed_forms():
    for s in np.linspace(0.0, 1.0, 11):
        theta = angle_for_strength(s)
        eps_sq, eta_sq = weak_valued_squares(outcome_distribution(THETA_W, theta), THETA_W)
        assert abs(eps_sq - 2.0 * (1.0 - math.sin(THETA_W) * math.cos(theta))) < 1e-12
        assert abs(eta_sq - 2.0 * (1.0 - math.sin(theta))) < 1e-12


def test_frozen_point_values():
    theta = angle_for_strength(1.0)
    probs = outcome_distribution(THETA_W, theta)
    assert abs(probs @ CORRELATOR_SIGNS[:, 0] - 0.04993746088859545) < 1e-14
    eps_sq, eta_sq = weak_valued_squares(probs, THETA_W)
    assert abs(eps_sq - 0.0025015644561822) < 1e-12
    assert abs(math.sqrt(max(eta_sq, 0.0)) - math.sqrt(2.0)) < 1e-12


def test_run_circuit_noiseless_is_pure():
    circ = build_edr_circuit(THETA_W, angle_for_strength(0.4))
    state = run_circuit(circ)
    assert abs(helpers.purity(state.mat) - 1.0) < 1e-12


def test_estimate_rejects_zero_probe_strength():
    probs = outcome_distribution(THETA_W, 0.3)
    with pytest.raises(ValueError):
        weak_valued_squares(probs, math.pi / 2.0)
    with pytest.raises(ValueError):
        weak_valued_squares(sample_counts(probs, 100, 1, 1), math.pi / 2.0, 100)


def test_sample_counts_is_stable_and_distinct_per_seed_and_point():
    probs = outcome_distribution(THETA_W, angle_for_strength(0.6))
    # the sweep's entropy: (seed, point index) gives one stream per point
    draws = {
        (seed, index): sample_counts(probs, 5000, [seed, index], 3)
        for seed in (1, 2, 12345) for index in range(21)
    }
    assert len({counts.tobytes() for counts in draws.values()}) == len(draws)
    assert np.array_equal(sample_counts(probs, 5000, [12345, 3], 3), draws[12345, 3])
    assert not np.array_equal(draws[12345, 3], sample_counts(probs, 5000, [3, 12345], 3))


def test_sample_counts_deterministic_and_conserving():
    probs = outcome_distribution(THETA_W, angle_for_strength(0.6))
    a = sample_counts(probs, 5000, 99, 4)
    b = sample_counts(probs, 5000, 99, 4)
    assert np.array_equal(a, b)
    assert a.shape == (4, 16)
    assert np.all(a.sum(axis=1) == 5000)
    assert a.dtype == np.int64
    # the repeats are independent batches, not copies of one
    assert len({row.tobytes() for row in a}) == 4
    c = sample_counts(probs, 5000, 100, 4)
    assert not np.array_equal(a, c)
    assert sample_counts(probs, 5000, 99, 1).shape == (1, 16)


def test_sample_counts_never_draws_zero_probability_outcomes():
    probs = np.zeros(16)
    probs[[0, 5, 10]] = (0.25, 0.5, 0.25)
    for seed in range(20):
        counts = sample_counts(probs, 1000, seed, 5)
        assert np.all(counts.sum(axis=1) == 1000)
        drawn = set(np.nonzero(counts)[1])
        assert drawn <= {0, 5, 10}


def test_sample_counts_huge_shot_count_allocates_nothing_per_shot():
    probs = np.zeros(16)
    probs[[1, 6, 12]] = (0.2, 0.5, 0.3)
    tracemalloc.start()
    try:
        counts = sample_counts(probs, 10**12, 5, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(counts.sum(axis=1) == 10**12)
    assert set(np.nonzero(counts)[1]) == {1, 6, 12}
    assert peak < 64 * 1024  # one 8-byte float per shot would be 80 TB
    assert np.abs(counts[:, 6] / 10**12 - 0.5).max() < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampled_frequencies_form_valid_record(seed):
    (counts,) = sample_counts(outcome_distribution(THETA_W, angle_for_strength(0.5)), 2000, seed, 1)
    assert counts.shape == (16,) and np.all(counts >= 0)
    assert counts.sum() == 2000
    freq = counts / 2000
    assert abs(freq.sum() - 1.0) < 1e-12
    # the pair-marginal oracle on the frequencies agrees with the
    # vectorised estimator on the counts
    ref = helpers.oracle_weak_valued_squares(freq, THETA_W)
    got = weak_valued_squares(counts, THETA_W, 2000)
    assert abs(got[0] - ref[0]) < 1e-12
    assert abs(got[1] - ref[1]) < 1e-12


def test_sample_counts_validation():
    probs = outcome_distribution(THETA_W, angle_for_strength(0.5))
    with pytest.raises(ValueError):
        sample_counts(probs, 0, 1, 1)
    with pytest.raises(ValueError):
        sample_counts(probs, 100, 1, 0)
    bad = probs.copy()
    bad[0] -= 0.2
    bad[1] += 0.2
    with pytest.raises(ValueError):
        sample_counts(bad, 100, 1, 1)


def test_sampled_squares_converge():
    probs = outcome_distribution(THETA_W, angle_for_strength(0.5))
    (counts,) = sample_counts(probs, 4_000_000, [77, 0], 1)
    got = weak_valued_squares(counts, THETA_W, 4_000_000)
    want = helpers.oracle_weak_valued_squares(probs, THETA_W)
    # weak-value amplification leaves ~20x sampling noise on the squares
    assert abs(got[0] - want[0]) < 0.1
    assert abs(got[1] - want[1]) < 0.1


def test_weak_valued_squares_matches_reference_and_broadcasts():
    for s in (0.0, 0.35, 1.0):
        probs = outcome_distribution(THETA_W, angle_for_strength(s))
        want = helpers.oracle_weak_valued_squares(probs, THETA_W)
        got = weak_valued_squares(probs, THETA_W)
        assert got.shape == (2,)
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12
        stacked = weak_valued_squares(np.stack([probs, probs]), THETA_W)
        assert stacked.shape == (2, 2) and np.abs(stacked - got).max() < 1e-14

