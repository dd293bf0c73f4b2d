import math

import numpy as np
import pytest

import helpers
from edrsim.circuit import GateOp, angle_for_strength
from edrsim.estimators import outcome_distribution
from edrsim.noise import (
    CalibrationProfile,
    QubitCalibration,
    apply_readout_confusion,
    compile_noise,
    confusion_matrix,
    depolarizing_channel,
    dump_profile,
    load_profile,
    parse_profile,
    representative_profile,
    thermal_relaxation_channel,
)
from edrsim.qsim import DensityMatrix, I2, X, Z

MINIMAL_YAML = """\
schema_version: 1
q0_t1_us: 50.0
q0_t2_us: 60.0
q1_t1_us: 40.0
q1_t2_us: 40.0
cnot_error: 0.01
"""


def test_parse_minimal_profile_fills_defaults():
    profile = parse_profile(MINIMAL_YAML)
    assert profile.num_qubits == 2
    assert profile.qubits[0].t1_us == 50.0
    assert profile.qubits[1].t2_us == 40.0
    assert profile.qubits[0].readout_error_01 == 0.0
    assert profile.single_qubit_gate_error == 0.0
    assert profile.cnot_error == 0.01
    assert profile.cnot_duration_ns == 300.0


def test_parse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        parse_profile("schema_version: 2\nq0_t1_us: 50.0\n")
    with pytest.raises(ValueError):
        parse_profile("schema_version: 1\nq0_t1_us: 50.0\nbanana: 3\n")
    with pytest.raises(ValueError):
        parse_profile("schema_version: 1\nq0_t1_us: 50.0\nq2_t1_us: 50.0\n")
    with pytest.raises(ValueError):
        parse_profile("schema_version: 1\nq0_t1_us: 10.0\nq0_t2_us: 30.0\n")
    with pytest.raises(ValueError):
        parse_profile("schema_version: 1\nq0_readout_error_01: 1.5\n")
    with pytest.raises(ValueError):
        parse_profile("schema_version: 1\nq0_t1_us: true\n")
    # a document with no per-qubit keys degrades to one noiseless qubit
    assert parse_profile("schema_version: 1\n").num_qubits == 1


def test_dump_parse_roundtrip():
    profile = representative_profile()
    text = dump_profile(profile)
    again = parse_profile(text)
    assert again == profile
    assert text.splitlines()[0] == "schema_version: 1"


def test_qubit_calibration_validation():
    QubitCalibration(t1_us=50.0, t2_us=100.0)  # t2 = 2 t1 boundary is legal
    with pytest.raises(ValueError):
        QubitCalibration(t1_us=50.0, t2_us=100.1)
    with pytest.raises(ValueError):
        QubitCalibration(t1_us=-1.0, t2_us=1.0)
    with pytest.raises(ValueError):
        QubitCalibration(t1_us=50.0, t2_us=50.0, readout_error_10=-0.2)


def test_representative_profile_shape():
    profile = representative_profile()
    assert profile.num_qubits == 4
    for qubit in profile.qubits:
        assert 10.0 <= qubit.t1_us <= 200.0
        assert qubit.t2_us <= 2.0 * qubit.t1_us
        assert 0.0 < qubit.readout_error_01 < 0.05
        assert 0.0 < qubit.readout_error_10 < 0.05
    assert 0.0 < profile.cnot_error < 0.05
    assert 0.0 < profile.single_qubit_gate_error < 0.01


def test_depolarizing_channel_structure():
    assert depolarizing_channel(0.0, 1) is None
    one = depolarizing_channel(0.01, 1)
    assert len(one.operators) == 4
    two = depolarizing_channel(0.01, 2)
    assert len(two.operators) == 16
    with pytest.raises(ValueError):
        depolarizing_channel(-0.1, 1)
    with pytest.raises(ValueError):
        depolarizing_channel(0.01, 3)
    # the mixing probability saturates at 1: error 0.9 and 0.5 coincide for one qubit
    saturated = DensityMatrix.ground(1).apply_channel(depolarizing_channel(0.9, 1), [0])
    assert np.abs(saturated.mat - I2 / 2.0).max() < 1e-12


def test_depolarizing_channel_action():
    # full-strength single-qubit depolarizing sends everything to I/2
    full = depolarizing_channel(0.75, 1)
    state = DensityMatrix.ground(1).apply_channel(full, [0])
    assert np.abs(state.mat - I2 / 2.0).max() < 1e-12
    # maximally mixed state is a fixed point at any error rate
    mixed = DensityMatrix(1, I2 / 2.0)
    out = mixed.apply_channel(depolarizing_channel(0.3, 1), [0])
    assert np.abs(out.mat - I2 / 2.0).max() < 1e-12
    # contraction factor on traceless components is 1 - error*d/(d-1)
    plus = DensityMatrix.from_ket(np.array([1.0, 1.0]) / math.sqrt(2.0))
    shrunk = plus.apply_channel(depolarizing_channel(0.03, 1), [0])
    assert abs(shrunk.expectation(X) - (1.0 - 0.03 * 2.0)) < 1e-12


def test_thermal_relaxation_limits():
    assert thermal_relaxation_channel(math.inf, math.inf, 100.0) is None
    assert thermal_relaxation_channel(50.0, 50.0, 0.0) is None
    channel = thermal_relaxation_channel(50.0, 70.0, 1000.0)
    excited = DensityMatrix.from_ket(np.array([0.0, 1.0]))
    decayed = excited.apply_channel(channel, [0])
    want_pop = math.exp(-1.0 / 50.0)  # 1000 ns against T1 = 50 us
    assert abs((1.0 - decayed.expectation(Z)) / 2.0 - want_pop) < 1e-12
    # ground state is a fixed point
    ground = DensityMatrix.ground(1).apply_channel(channel, [0])
    assert np.abs(ground.mat - DensityMatrix.ground(1).mat).max() < 1e-12


def test_thermal_relaxation_coherence_decay():
    t1, t2, dt = 80.0, 60.0, 500.0
    channel = thermal_relaxation_channel(t1, t2, dt)
    plus = DensityMatrix.from_ket(np.array([1.0, 1.0]) / math.sqrt(2.0))
    out = plus.apply_channel(channel, [0])
    assert abs(out.expectation(X) - math.exp(-(dt / 1000.0) / t2)) < 1e-12


def test_confusion_matrix_properties():
    qubit = QubitCalibration(50.0, 50.0, readout_error_01=0.02, readout_error_10=0.05)
    m = confusion_matrix(qubit)
    assert np.allclose(m.sum(axis=0), 1.0)
    assert m[1, 0] == 0.02 and m[0, 1] == 0.05
    clean = confusion_matrix(QubitCalibration(50.0, 50.0))
    assert np.array_equal(clean, np.eye(2))


def test_apply_readout_confusion():
    profile = parse_profile(
        "schema_version: 1\n"
        "q0_readout_error_01: 0.1\n"
        "q0_readout_error_10: 0.2\n"
        "q1_readout_error_01: 0.0\n"
    )
    model = compile_noise(profile)
    probs = np.array([1.0, 0.0, 0.0, 0.0])  # both qubits read 0
    mixed = apply_readout_confusion(probs, model, (0, 1))
    assert abs(mixed.sum() - 1.0) < 1e-12
    # qubit 0 flips 0->1 with 0.1; qubit 1 has no confusion
    assert np.allclose(mixed, [0.9, 0.0, 0.1, 0.0])
    # order of the readout tuple follows the measured qubits
    mixed_swapped = apply_readout_confusion(probs, model, (1, 0))
    assert np.allclose(mixed_swapped, [0.9, 0.1, 0.0, 0.0])


def test_noise_model_channel_placement():
    profile = representative_profile()
    with_idle = compile_noise(profile)
    gate_only = compile_noise(profile, include_idle=False)
    op = GateOp("h", (2,))
    channels = with_idle.channels_after(op, 4)
    # first the gate's depolarizing noise, then relaxation on every qubit
    assert len(channels) == 5
    assert channels[0][1] == (2,)
    assert [targets for _, targets in channels[1:]] == [(0,), (1,), (2,), (3,)]
    busy = gate_only.channels_after(op, 4)
    assert [targets for _, targets in busy] == [(2,), (2,)]
    cnot = GateOp("cnot", (0, 3))
    kinds = with_idle.channels_after(cnot, 4)
    assert len(kinds) == 5
    assert kinds[0][1] == (0, 3)
    assert kinds[0][0].num_qubits == 2
    with pytest.raises(ValueError):
        compile_noise(parse_profile(MINIMAL_YAML)).channels_after(op, 4)


def test_noisy_distribution_is_still_a_distribution():
    model = compile_noise(representative_profile())
    probs = outcome_distribution(
        angle_for_strength(0.05), angle_for_strength(0.5), model
    )
    assert abs(probs.sum() - 1.0) < 1e-10
    assert np.all(probs >= 0.0)


def test_noise_strictly_raises_floors():
    theta_w = angle_for_strength(0.05)
    model = compile_noise(representative_profile())

    def estimates(strength, noise=None):
        probs = outcome_distribution(theta_w, angle_for_strength(strength), noise)
        return np.sqrt(np.maximum(helpers.oracle_weak_valued_squares(probs, theta_w), 0.0))

    # disturbance floor at zero strength
    assert estimates(0.0, model)[1] > estimates(0.0)[1] + 0.1
    # error floor at full strength
    assert estimates(1.0, model)[0] > estimates(1.0)[0] + 0.1


def test_load_profile_from_disk(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text(MINIMAL_YAML, encoding="utf-8")
    profile = load_profile(path)
    assert profile.num_qubits == 2
    with pytest.raises(FileNotFoundError):
        load_profile(tmp_path / "missing.yaml")
