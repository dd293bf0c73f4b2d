import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import edrsim.estimators
import edrsim.qsim
from edrsim.circuit import Circuit, GateOp, _fixed_channel, angle_for_strength, build_edr_circuit
from edrsim.estimators import (
    CORRELATOR_SIGNS,
    basis_probabilities,
    compile_steps,
    outcome_distribution,
    readout_basis,
    sample_counts,
    weak_valued_squares,
)
from edrsim.noise import CalibrationProfile, QubitCalibration, compile_noise, representative_profile
from edrsim.qsim import CNOT, superoperator

THETA_W = angle_for_strength(0.05)

NOISE_MODELS = {
    "ideal": None,
    "representative": compile_noise(representative_profile()),
    "no_idle": compile_noise(representative_profile(), include_idle=False),
}
INCLUDE_IDLE = {"representative": True, "no_idle": False}  # the oracle's reading of each model
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
    want = helpers.oracle_noisy_outcome_distribution(
        circuit, representative_profile(), INCLUDE_IDLE[model_name]
    )
    got = basis_probabilities(bases[model_name, probe], strength)
    assert np.abs(got - want).max() <= 1e-12


@st.composite
def calibration_profiles(draw):
    """Four-qubit profiles whose qubits may be noiseless (their channels None), as may the gates."""
    qubits = []
    for _ in range(4):
        t1 = draw(st.just(math.inf) | st.floats(2.0, 500.0))
        if math.isinf(t1):
            t2 = draw(st.just(math.inf) | st.floats(2.0, 500.0))
        else:
            t2 = draw(st.floats(0.05, 2.0)) * t1
        readout = st.just(0.0) | st.floats(0.0, 0.2)
        qubits.append(QubitCalibration(t1, t2, draw(readout), draw(readout)))
    return CalibrationProfile(
        tuple(qubits),
        single_qubit_gate_error=draw(st.just(0.0) | st.floats(1e-5, 0.05)),
        cnot_error=draw(st.just(0.0) | st.floats(1e-4, 0.1)),
        single_qubit_gate_duration_ns=draw(st.floats(10.0, 500.0)),
        cnot_duration_ns=draw(st.floats(50.0, 2000.0)),
    )


def unfused_run(circuit, model):
    """The circuit evolved one gate and one channel at a time, in ``channels_after`` order."""
    steps = []
    for op in circuit.ops:
        steps.append((op.superop(), op.qubits))
        steps.extend(model.channels_after(op, circuit.num_qubits))
    return helpers.evolve(helpers.ground_density(circuit.num_qubits), steps)


@settings(max_examples=40, deadline=None)
@given(
    profile=calibration_profiles(),
    include_idle=st.booleans(),
    probe=st.floats(0.05, 1.0),
    strength=st.floats(0.0, 1.0),
)
def test_fused_steps_match_unfused_loop_and_literal_oracle(profile, include_idle, probe, strength):
    model = compile_noise(profile, include_idle=include_idle)
    theta_w, theta = angle_for_strength(probe), angle_for_strength(strength)
    circuit = build_edr_circuit(theta_w, theta)
    fused = helpers.compiled_state(circuit, model)
    assert np.abs(fused - unfused_run(circuit, model)).max() <= 1e-12
    want = helpers.oracle_noisy_state(circuit, profile, include_idle)
    assert np.abs(fused - want).max() <= 1e-12
    want = helpers.oracle_noisy_outcome_distribution(circuit, profile, include_idle)
    assert np.abs(outcome_distribution(theta_w, theta, model) - want).max() <= 1e-12
    basis, _ = readout_basis(theta_w, model)
    assert np.abs(basis_probabilities(basis, strength) - want).max() <= 1e-12


def test_fusion_keeps_noise_between_gates_on_the_same_qubit():
    # strong relaxation between two non-commuting gates on qubit 0, a reversed
    # cnot whose step takes lifted one-qubit channels, and an untouched qubit 2
    profile = CalibrationProfile(
        (QubitCalibration(1.0, 1.5), QubitCalibration(2.0, 1.0), QubitCalibration(3.0, 0.5)),
        single_qubit_gate_error=0.02,
        cnot_error=0.05,
        single_qubit_gate_duration_ns=400.0,
        cnot_duration_ns=700.0,
    )
    ops = (GateOp("h", (0,)), GateOp("rx", (0,), 0.7), GateOp("cnot", (1, 0)),
           GateOp("ry", (1,), 0.4), GateOp("h", (0,)), GateOp("cnot", (0, 2)))
    circuit = Circuit(3, ops)
    for include_idle, fused_steps in ((True, 8), (False, 6)):
        model = compile_noise(profile, include_idle=include_idle)
        want = helpers.oracle_noisy_state(circuit, profile, include_idle)
        assert np.abs(helpers.compiled_state(circuit, model) - want).max() <= 1e-12
        # one step per gate, plus one each for the idle relaxation of qubits 1 and 2
        assert len(compile_steps(circuit, model)) == fused_steps
    # gates never merge: one step per gate without noise
    assert len(compile_steps(circuit)) == len(ops)
    # the relaxation after the first h does not commute with the rx that follows it,
    # so applying it after the rx instead would be visibly wrong
    relax = helpers.oracle_relaxation_kraus(1.0, 1.5, 400.0)
    h, rx = ([helpers.oracle_gate_unitary(op)] for op in ops[:2])

    def apply(rho, kraus):
        return helpers.oracle_apply_kraus(rho, kraus, [0], 1)

    plus = apply(helpers.pure_density([1.0, 0.0]), h)
    assert np.abs(apply(apply(plus, relax), rx) - apply(apply(plus, rx), relax)).max() > 1e-2


def test_fusion_starts_a_step_for_a_channel_wider_than_the_latest_step():
    class WideNoise:  # an asymmetric, complex two-qubit channel on (1, 0) after every gate
        phased = CNOT @ np.diag([1.0, 1.0j, 1.0, 1.0j])
        kraus = [math.sqrt(0.7) * np.eye(4), math.sqrt(0.3) * phased]
        channel = superoperator(kraus)

        def channels_after(self, op, num_qubits):
            return [(self.channel, (1, 0))]

    ops = (GateOp("h", (0,)), GateOp("ry", (1,), 0.3), GateOp("cnot", (0, 1)),
           GateOp("rx", (0,), 1.1))
    circuit = Circuit(2, ops)
    # only the cnot's step covers both qubits; its channel joins it with the targets swapped
    steps = compile_steps(circuit, WideNoise())
    assert [targets for _, targets in steps] == [(0,), (1, 0), (1,), (1, 0), (0, 1), (0,), (1, 0)]
    want = helpers.oracle_kraus_state(circuit, lambda op: [(WideNoise.kraus, (1, 0))])
    assert np.abs(helpers.compiled_state(circuit, WideNoise()) - want).max() <= 1e-12


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
    want = helpers.oracle_noisy_outcome_distribution(
        circuit, representative_profile(), INCLUDE_IDLE[model_name]
    )
    assert np.abs(got - want).max() <= 1e-12
    # evolution skips density_matrix's checks; the final state must still pass them all
    state = helpers.compiled_state(circuit, model)
    helpers.validate_state(state)
    assert np.abs(state - state.conj().T).max() <= 1e-12
    assert abs(np.trace(state) - 1.0) <= 1e-12


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


@pytest.mark.parametrize("model_name", sorted(NOISE_MODELS))
def test_memoised_arrays_are_read_only(model_name):
    # every sweep in a process reads these arrays; one in-place write would
    # corrupt all later sweeps, so each must refuse it
    model = NOISE_MODELS[model_name]
    _, prefix = edrsim.estimators._compiled(THETA_W, model)
    arrays = [_fixed_channel(kind) for kind in ("h", "x", "cnot")]
    arrays += [edrsim.qsim.I2, edrsim.qsim.X, edrsim.qsim.Y, edrsim.qsim.Z, edrsim.qsim.H,
               edrsim.qsim.CNOT]
    arrays += edrsim.estimators._meter_terms()
    arrays += [superop for superop, _ in prefix]
    arrays.append(edrsim.estimators._readout_map(THETA_W, model))
    arrays.append(superoperator((np.eye(2),)))
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 1.0


def test_compiled_noiseless_state_is_pure():
    circ = build_edr_circuit(THETA_W, angle_for_strength(0.4))
    state = helpers.compiled_state(circ)
    assert abs(helpers.purity(state) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    profile=calibration_profiles(),
    include_idle=st.booleans(),
    probe=st.floats(0.05, 1.0),
    strengths=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_readout_map_matches_per_point_evolution(profile, include_idle, probe, strengths):
    # the compiled tail, read off in one product, against the whole circuit evolved per point
    model = compile_noise(profile, include_idle=include_idle)
    theta_w = angle_for_strength(probe)
    basis, state = readout_basis(theta_w, model)
    readout = edrsim.estimators._readout_map(theta_w, model)
    assert readout.shape == (3 * 16, 2 * 4**4)
    assert np.array_equal(basis.ravel(), readout @ state.ravel().view(float))
    got = basis_probabilities(basis, np.array(strengths))
    for row, strength in zip(got, strengths):
        want = outcome_distribution(theta_w, angle_for_strength(strength), model)
        assert np.abs(row - want).max() <= 1e-12


@pytest.mark.parametrize("model_name", ["ideal", "representative"])
def test_basis_probabilities_are_bit_exact(model_name):
    # b0 + s b1 + sqrt((1 - s)(1 + s)) b2 is all correctly rounded IEEE operations,
    # so numpy must give the bits of the same expression in Python floats
    basis, _ = readout_basis(THETA_W, NOISE_MODELS[model_name])
    b0, b1, b2 = basis.tolist()
    edges = [0.0, 1e-9, 1e-300, 0.5, 1.0 - 1e-12, 1.0]
    grid = np.linspace(0.0, 1.0, 21).tolist()
    got = basis_probabilities(basis, np.array(edges + grid)).tolist()
    got += [basis_probabilities(basis, s).tolist() for s in edges]
    for s, row in zip(edges + grid + edges, got):
        root = math.sqrt((1.0 - s) * (1.0 + s))
        want = [x + s * y + root * z for x, y, z in zip(b0, b1, b2)]
        assert row == want, s


def test_inverse_probe_strength_guard_sits_at_1e_12():
    probs = outcome_distribution(THETA_W, 0.3)
    theta_w = math.acos(1e-12)
    # step theta_w by ulps until cos lands just outside, then just inside, 1e-12
    outside = inside = theta_w
    while math.cos(outside) >= 1e-12:
        outside = math.nextafter(outside, math.pi)
    while math.cos(inside) < 1e-12:
        inside = math.nextafter(inside, 0.0)
    assert 1e-12 - 1e-15 < math.cos(outside) < 1e-12 <= math.cos(inside) < 1e-12 + 1e-15
    with pytest.raises(ValueError, match="too small to invert"):
        weak_valued_squares(probs, outside)
    assert np.all(np.isfinite(weak_valued_squares(probs, inside)))


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


def test_negative_probability_guard_sits_at_1e_12():
    # twice the tolerance below zero raises; half of it is clipped to zero and never drawn
    probs = np.full(16, 1.0 / 15.0)
    probs[0] = -2e-12
    with pytest.raises(ValueError, match="negative probability"):
        sample_counts(probs, 100, 1, 1)
    probs[0] = -5e-13
    counts = sample_counts(probs, 100, 1, 1)
    assert counts[0, 0] == 0 and counts.sum() == 100


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

