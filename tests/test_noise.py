import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import yaml  # the test extra: PyYAML is the reference reading of a calibration document
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import edrsim.noise
from edrsim.circuit import GateOp, angle_for_strength
from edrsim.estimators import outcome_distribution
from edrsim.noise import (
    CalibrationProfile,
    QubitCalibration,
    apply_readout_confusion,
    compile_noise,
    confusion_matrix,
    depolarizing_channel,
    load_profile,
    parse_profile,
    representative_profile,
    thermal_relaxation_channel,
)
from edrsim.qsim import I2, X, Z, density_matrix, expectation, superoperator

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


# The packaged profile written as flat lines, one repr per value.
PACKAGED_AS_FLAT_LINES = """\
schema_version: 1
q0_t1_us: 82.0
q0_t2_us: 58.0
q0_readout_error_01: 0.029
q0_readout_error_10: 0.032
q1_t1_us: 95.0
q1_t2_us: 74.0
q1_readout_error_01: 0.016
q1_readout_error_10: 0.018
q2_t1_us: 86.0
q2_t2_us: 63.0
q2_readout_error_01: 0.027
q2_readout_error_10: 0.03
q3_t1_us: 90.0
q3_t2_us: 68.0
q3_readout_error_01: 0.016
q3_readout_error_10: 0.017
single_qubit_gate_error: 0.0004
cnot_error: 0.008
single_qubit_gate_duration_ns: 35.0
cnot_duration_ns: 300.0
readout_duration_ns: 700.0
"""


def test_flat_lines_of_packaged_profile_parse_back_equal():
    profile = representative_profile()
    assert parse_profile(PACKAGED_AS_FLAT_LINES) == profile
    infinite = PACKAGED_AS_FLAT_LINES.replace("q3_t1_us: 90.0", "q3_t1_us: .inf").replace(
        "q3_t2_us: 68.0", "q3_t2_us: .inf"
    )
    qubits = profile.qubits[:3] + (QubitCalibration(math.inf, math.inf, 0.016, 0.017),)
    assert parse_profile(infinite) == replace(profile, qubits=qubits)


def pyyaml_profile(text):
    """The profile PyYAML's reading of a flat document gives, or None where it is rejected."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError:
        return None
    if not isinstance(doc, dict) or doc.pop("schema_version", None) != 1:
        return None
    per_qubit, gate_values = {}, {}
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        head, _, name = key.partition("_")
        if head[0] == "q" and head[1:].isdigit():
            per_qubit.setdefault(int(head[1:]), {})[name] = float(value)
        else:
            gate_values[key] = float(value)
    try:
        qubits = tuple(QubitCalibration(**per_qubit[i]) for i in range(len(per_qubit)))
        return CalibrationProfile(qubits, **gate_values)
    except ValueError:
        return None


def reader_profile(text):
    try:
        return parse_profile(text)
    except ValueError:
        return None


INF_SPELLINGS = (".inf", ".Inf", ".INF", "+.inf", "+.Inf", "+.INF")
PRINTABLE_COMMENT_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.sampled_from("\tµéΩ−…")
)


@st.composite
def spelled(draw, values):
    """A value and one of the ways a flat document may spell it."""
    value = draw(values)
    if isinstance(value, int):
        return draw(st.sampled_from((str(value), f"+{value}")))
    if math.isinf(value):
        return draw(st.sampled_from(INF_SPELLINGS))
    # repr gives '1e-05' for small values: a string to YAML and to the reader alike
    return draw(st.sampled_from((repr(value), f"+{value!r}", f"{value:.17e}")))


def probabilities():
    return spelled(st.floats(0.0, 1.0) | st.integers(0, 1))


def durations():
    return spelled(st.floats(1e-3, 1e6) | st.integers(1, 10**6))


@st.composite
def flat_documents(draw, comment_text):
    """Valid flat calibration documents with varied layout, comments and number forms."""
    entries = [("schema_version", draw(st.sampled_from(("1", "+1", "1.0"))))]
    for q in range(draw(st.integers(1, 2))):
        t1_inf = draw(st.booleans())
        t1 = st.just(math.inf) if t1_inf else st.floats(50.0, 1e6) | st.integers(50, 10**6)
        t2 = st.floats(1e-3, 100.0) | st.integers(1, 100)  # <= 2 t1 always
        entries += [
            (f"q{q}_t1_us", draw(spelled(t1))),
            (f"q{q}_t2_us", draw(spelled(t2 | st.just(math.inf) if t1_inf else t2))),
            (f"q{q}_readout_error_01", draw(probabilities())),
            (f"q{q}_readout_error_10", draw(probabilities())),
        ]
    for name in ("single_qubit_gate_error", "cnot_error"):
        if draw(st.booleans()):
            entries.append((name, draw(probabilities())))
    for name in ("single_qubit_gate_duration_ns", "cnot_duration_ns", "readout_duration_ns"):
        if draw(st.booleans()):
            entries.append((name, draw(durations())))
    spaces = st.integers(0, 3).map(" ".__mul__)
    comment = st.builds("{}#{}".format, spaces, comment_text)
    lines = []
    for key, value in draw(st.permutations(entries)):
        lines += draw(st.lists(st.one_of(spaces, comment), max_size=2))
        tail = draw(st.sampled_from(("", " ", "  ")))
        if tail and draw(st.booleans()):
            tail += "#" + draw(comment_text)
        lines.append(f"{key}:{' ' * draw(st.integers(1, 3))}{value}{tail}")
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


@settings(max_examples=100, deadline=None)
@given(flat_documents(PRINTABLE_COMMENT_TEXT))
def test_reader_agrees_with_pyyaml_on_flat_documents(text):
    assert reader_profile(text) == pyyaml_profile(text)


@settings(max_examples=50, deadline=None)
@given(flat_documents(st.text()))
def test_reader_accepts_only_what_pyyaml_reads_the_same(text):
    # comments may hold any character, line breaks YAML knows included
    profile = reader_profile(text)
    if profile is not None:
        assert profile == pyyaml_profile(text)


@pytest.mark.parametrize(
    "text, line, yaml_reads",
    [
        ("schema_version: 1\nq0_t1_us: 017\n", 2, 15),
        ("schema_version: 1\nq0_t1_us: 0x1f\n", 2, 31),
        ("schema_version: 1\nq0_t1_us: 1_000.0\n", 2, 1000.0),
        ("schema_version: 1\nq0_t1_us: 1:30\n", 2, 90),
        ("schema_version: 1\nq0_t1_us: 50.0\nq0_t1_us: 60.0\n", 3, 60.0),
        ("schema_version: 1\nq0_t1_us: 50.0\nq00_t1_us: 60.0\n", 3, None),
        ("schema_version: 1\nq0:\n  t1_us: 50.0\n", 2, None),
        ("schema_version: 1\n{q0_t1_us: 50.0}\n", 2, None),
        ("---\nschema_version: 1\nq0_t1_us: 50.0\n", 1, 50.0),
        ("schema_version: 1\n  q0_t1_us: 50.0\n", 2, None),
        ("schema_version: 1\nq0_t1_us : 50.0\n", 2, 50.0),
        ("schema_version: 1\nq0_t1_us: 50.0 # note\rq0_t2_us: 40.0\n", 2, 50.0),
    ],
)
def test_reader_rejects_narrowed_forms_naming_the_line(text, line, yaml_reads):
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        parse_profile(text)
    if yaml_reads is not None:
        assert yaml.safe_load(text)["q0_t1_us"] == yaml_reads


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
    assert one.shape == (4, 4)
    two = depolarizing_channel(0.01, 2)
    assert two.shape == (16, 16)
    # sqrt(weight) times the Pauli products, identity first, first qubit most significant
    for error, num_qubits in ((0.01, 1), (0.01, 2), (0.9, 1), (0.9, 2)):
        want = superoperator(helpers.oracle_depolarizing_kraus(error, num_qubits))
        assert np.array_equal(depolarizing_channel(error, num_qubits), want)
    with pytest.raises(ValueError):
        depolarizing_channel(-0.1, 1)
    with pytest.raises(ValueError):
        depolarizing_channel(0.01, 3)
    # the mixing probability saturates at 1: error 0.9 and 0.5 coincide for one qubit
    saturated = helpers.evolve(helpers.ground_density(1), [(depolarizing_channel(0.9, 1), [0])])
    assert np.abs(saturated - I2 / 2.0).max() < 1e-12


def test_depolarizing_channel_action():
    # full-strength single-qubit depolarizing sends everything to I/2
    full = depolarizing_channel(0.75, 1)
    state = helpers.evolve(helpers.ground_density(1), [(full, [0])])
    assert np.abs(state - I2 / 2.0).max() < 1e-12
    # maximally mixed state is a fixed point at any error rate
    mixed = density_matrix(I2 / 2.0)
    out = helpers.evolve(mixed, [(depolarizing_channel(0.3, 1), [0])])
    assert np.abs(out - I2 / 2.0).max() < 1e-12
    # contraction factor on traceless components is 1 - error*d/(d-1)
    plus = density_matrix(helpers.pure_density(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    shrunk = helpers.evolve(plus, [(depolarizing_channel(0.03, 1), [0])])
    assert abs(expectation(shrunk, X) - (1.0 - 0.03 * 2.0)) < 1e-12


def test_thermal_relaxation_limits():
    assert thermal_relaxation_channel(math.inf, math.inf, 100.0) is None
    assert thermal_relaxation_channel(50.0, 50.0, 0.0) is None
    channel = thermal_relaxation_channel(50.0, 70.0, 1000.0)
    excited = density_matrix(helpers.pure_density([0.0, 1.0]))
    decayed = helpers.evolve(excited, [(channel, [0])])
    want_pop = math.exp(-1.0 / 50.0)  # 1000 ns against T1 = 50 us
    assert abs((1.0 - expectation(decayed, Z)) / 2.0 - want_pop) < 1e-12
    # ground state is a fixed point
    ground = helpers.evolve(helpers.ground_density(1), [(channel, [0])])
    assert np.abs(ground - helpers.ground_density(1)).max() < 1e-12


def test_relaxation_duration_guard_sits_at_zero():
    # the least negative double raises; zero is the identity
    with pytest.raises(ValueError, match="negative"):
        thermal_relaxation_channel(50.0, 60.0, -5e-324)
    assert thermal_relaxation_channel(50.0, 60.0, 0.0) is None


def test_thermal_relaxation_coherence_decay():
    t1, t2, dt = 80.0, 60.0, 500.0
    channel = thermal_relaxation_channel(t1, t2, dt)
    plus = density_matrix(helpers.pure_density(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    out = helpers.evolve(plus, [(channel, [0])])
    assert abs(expectation(out, X) - math.exp(-(dt / 1000.0) / t2)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    t1=st.floats(0.5, 1e4) | st.just(math.inf),
    t2_share=st.floats(0.01, 2.0),
    duration=st.sampled_from((0.0, 35.0, 300.0, 700.0)) | st.floats(0.0, 1e6),
)
def test_thermal_relaxation_operators_are_the_literal_products_bit_for_bit(t1, t2_share, duration):
    # the four Kraus operators are written out entry by entry; the channel must be
    # the one of the products d @ a of dephasing (d) and amplitude-damping (a) operators
    t2 = math.inf if math.isinf(t1) else min(t2_share * t1, 2.0 * t1)
    channel = thermal_relaxation_channel(t1, t2, duration)
    t_us = duration / 1000.0
    gamma = -math.expm1(-t_us / t1) if math.isfinite(t1) else 0.0
    rate = 1.0 / t2 if math.isfinite(t2) else 0.0
    rate -= 1.0 / (2.0 * t1) if math.isfinite(t1) else 0.0
    coherence = math.exp(-t_us * rate)
    if channel is None:
        assert gamma == 0.0 and coherence == 1.0
        return
    damping = (
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    )
    dephasing = (math.sqrt((1.0 + coherence) / 2.0) * I2, math.sqrt((1.0 - coherence) / 2.0) * Z)
    products = [d @ a for d in dephasing for a in damping]
    assert np.array_equal(channel, superoperator(products))


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
    # leading axes hold separate distributions, each mixed exactly as on its own
    four = compile_noise(representative_profile())
    stack = np.random.default_rng(5).dirichlet(np.ones(16), size=(2, 3))
    batched = apply_readout_confusion(stack, four, (1, 2, 3, 0))
    for index in np.ndindex(2, 3):
        assert np.array_equal(batched[index], apply_readout_confusion(stack[index], four, (1, 2, 3, 0)))
    with pytest.raises(ValueError):
        apply_readout_confusion(stack[..., :8], four, (1, 2, 3, 0))


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
    assert kinds[0][0].shape == (16, 16)  # a two-qubit channel
    with pytest.raises(ValueError):
        compile_noise(parse_profile(MINIMAL_YAML)).channels_after(op, 4)


def test_compile_noise_is_memoised_read_only_and_bounded():
    model = compile_noise(representative_profile())
    # an equal profile read again and the spelled-out default keyword hit one entry
    assert compile_noise(representative_profile(), include_idle=True) is model
    assert compile_noise(representative_profile(), include_idle=False) is not model
    # one model is shared by every caller, so none may change it
    with pytest.raises(TypeError):
        model.relaxation[0, "single"] = None
    with pytest.raises(TypeError):
        model.gate_depolarizing["cnot"] = None
    with pytest.raises(FrozenInstanceError):
        model.include_idle = False
    channels = [*model.gate_depolarizing.values(), *model.relaxation.values()]
    for array in [*model.confusion, *channels]:
        with pytest.raises(ValueError):
            array[0, 0] = 0.5
    bound = edrsim.noise._compile_noise.cache_parameters()["maxsize"]
    for k in range(bound + 3):
        compile_noise(CalibrationProfile((QubitCalibration(),), cnot_error=0.001 * (k + 1)))
    assert edrsim.noise._compile_noise.cache_info().currsize == bound


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
