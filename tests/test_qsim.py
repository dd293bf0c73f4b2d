import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from edrsim.qsim import (
    ATOL,
    CNOT,
    H,
    I2,
    X,
    Y,
    Z,
    density_matrix,
    evolve_stack,
    expectation,
    partial_trace,
    probabilities,
    rx,
    ry,
    superoperator,
)

KINDS = ("unitary", "dilation", "depolarizing", "relaxation")


def test_rotation_matrices_literal():
    got = rx(math.pi / 2.0)
    want = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
    assert np.abs(got - want).max() < 1e-15
    got = ry(math.pi / 3.0)
    want = np.array([[math.cos(math.pi / 6), -math.sin(math.pi / 6)],
                     [math.sin(math.pi / 6), math.cos(math.pi / 6)]])
    assert np.abs(got - want).max() < 1e-15


def test_apply_unitary_matches_literal_kron():
    rng = np.random.default_rng(7)
    for n, u, targets, full in (
        (2, X, [0], np.kron(X, I2)),
        (2, X, [1], np.kron(I2, X)),
        (3, Z, [1], np.kron(np.kron(I2, Z), I2)),
        (2, CNOT, [0, 1], CNOT),
    ):
        rho = helpers.rand_density(rng, 2**n)
        got = helpers.evolve(rho, [(superoperator((u,)), targets)])
        assert np.abs(got - full @ rho @ full.conj().T).max() < 1e-15


def test_apply_unitary_respects_target_order():
    # control on qubit 2, target on qubit 0, checked against bit arithmetic
    for basis in range(8):
        ket = np.zeros(8)
        ket[basis] = 1.0
        got = helpers.evolve(helpers.pure_density(ket), [(superoperator((CNOT,)), [2, 0])])
        bits = [(basis >> (2 - q)) & 1 for q in range(3)]
        out = bits.copy()
        if bits[2] == 1:
            out[0] ^= 1
        want_index = (out[0] << 2) | (out[1] << 1) | out[2]
        assert got[want_index, want_index] == 1.0
        assert np.count_nonzero(got) == 1


def test_evolution_rejects_bad_targets():
    stack = helpers.ground_density(2)[None]
    flip = superoperator((X,))
    cnot = superoperator((CNOT,))
    with pytest.raises(ValueError, match="outside register"):
        evolve_stack(stack, flip, [2])
    with pytest.raises(ValueError, match="duplicate"):
        evolve_stack(stack, cnot, [0, 0])
    with pytest.raises(ValueError, match="does not act on 1 target"):
        evolve_stack(stack, cnot, [0])
    with pytest.raises(ValueError, match="does not act on 2 target"):
        evolve_stack(stack, flip, [0, 1])
    with pytest.raises(ValueError, match="no target"):
        evolve_stack(stack, flip, [])


def test_ground_state():
    state = density_matrix(helpers.ground_density(2))
    assert state.shape == (4, 4)
    assert np.array_equal(probabilities(state, [0, 1]), [1.0, 0.0, 0.0, 0.0])
    plus = density_matrix(helpers.pure_density(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    assert abs(expectation(plus, X) - 1.0) < 1e-12


def test_constructor_rejects_unphysical():
    with pytest.raises(ValueError):
        density_matrix(np.array([[0.9, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    # hermitian, unit trace, but not PSD: only the oracle's state check digs that deep
    sneaky = density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        helpers.validate_state(sneaky)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4)])
def test_state_functions_reject_a_shape_that_is_no_register(shape):
    # Hermitian with unit trace where square, so only the shape check can reject it:
    # a 1x1 array is 2**0 x 2**0, a register of no qubits
    mat = np.eye(*shape) / min(shape)
    for reject in (density_matrix, lambda m: partial_trace(m, [0]),
                   lambda m: probabilities(m, [0])):
        with pytest.raises(ValueError, match="shape"):
            reject(mat)


def test_trace_guard_sits_at_atol():
    # twice ATOL off unit trace raises; half of it passes
    with pytest.raises(ValueError, match="trace"):
        density_matrix(np.diag([1.0 + 2.0 * ATOL, 0.0]))
    density_matrix(np.diag([1.0 + ATOL / 2.0, 0.0]))


def test_observable_hermiticity_guard_sits_at_atol():
    state = helpers.ground_density(1)
    with pytest.raises(ValueError, match="observable is not Hermitian"):
        expectation(state, Z + np.array([[0.0, 2.0 * ATOL], [0.0, 0.0]]))
    assert expectation(state, Z + np.array([[0.0, ATOL / 2.0], [0.0, 0.0]])) == 1.0


def test_state_hermiticity_guard_sits_at_atol():
    with pytest.raises(ValueError, match="density matrix is not Hermitian"):
        density_matrix(np.array([[1.0, 2.0 * ATOL], [0.0, 0.0]]))
    density_matrix(np.array([[1.0, ATOL / 2.0], [0.0, 0.0]]))


def test_imaginary_residue_guard_sits_at_1e_10():
    # tr(rho X) = rho01 + rho10 takes rho01's imaginary part exactly
    def residue(imag):
        return np.array([[0.5, complex(0.5, imag)], [0.5, 0.5]])

    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(residue(2e-10), X)
    assert expectation(residue(5e-11), X) == 1.0


def test_product_ordering():
    # the first kron factor is qubit 0, the most significant bit
    state = helpers.pure_density([1.0, 0.0], [0.0, 1.0])
    assert np.array_equal(probabilities(state, [0, 1]), [0.0, 1.0, 0.0, 0.0])


def test_apply_unitary_requires_unitary():
    with pytest.raises(ValueError):
        helpers.evolve(helpers.ground_density(1),
                       [(superoperator((np.array([[1.0, 0.0], [0.0, 2.0]]),)), [0])])


def test_partial_trace_of_product_state():
    a = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    b = np.array([math.cos(0.3), math.sin(0.3)])
    joint = helpers.pure_density(a, b)
    assert np.abs(partial_trace(joint, [0]) - helpers.pure_density(a)).max() < 1e-13
    assert np.abs(partial_trace(joint, [1]) - helpers.pure_density(b)).max() < 1e-13
    swapped = partial_trace(joint, [1, 0])
    assert np.abs(swapped - helpers.pure_density(b, a)).max() < 1e-13


def test_partial_trace_of_entangled_state():
    hadamard, cnot = superoperator((H,)), superoperator((CNOT,))
    bell = helpers.evolve(helpers.ground_density(2), [(hadamard, [0]), (cnot, [0, 1])])
    for q in (0, 1):
        reduced = partial_trace(bell, [q])
        assert np.abs(reduced - I2 / 2.0).max() < 1e-13
    assert helpers.purity(bell) > 1.0 - 1e-12
    assert helpers.purity(partial_trace(bell, [0])) < 0.5 + 1e-12


def test_probabilities_bit_order():
    state = helpers.pure_density([1.0, 0.0], [0.0, 1.0])  # |01>
    assert np.array_equal(probabilities(state, [0]), [1.0, 0.0])
    assert np.array_equal(probabilities(state, [1]), [0.0, 1.0])
    assert np.array_equal(probabilities(state, [1, 0]), [0.0, 0.0, 1.0, 0.0])


def test_expectation_validation():
    state = helpers.ground_density(1)
    assert expectation(state, Z) == 1.0
    with pytest.raises(ValueError):
        expectation(state, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expectation(state, np.eye(4))


def test_kraus_channel_validation():
    with pytest.raises(ValueError, match="not complete"):
        superoperator((0.5 * I2,))
    with pytest.raises(ValueError, match="at least one"):
        superoperator(())
    with pytest.raises(ValueError, match="square and equally sized"):
        superoperator((I2, np.eye(4)))
    with pytest.raises(ValueError, match="square and equally sized"):
        superoperator((np.ones((2, 3)),))
    # completeness: twice ATOL off the identity raises, half of it passes
    with pytest.raises(ValueError, match="not complete"):
        superoperator((math.sqrt(1.0 + 2.0 * ATOL) * I2,))
    superoperator((math.sqrt(1.0 + ATOL / 2.0) * I2,))
    flip = superoperator((math.sqrt(0.75) * I2, math.sqrt(0.25) * X))
    assert flip.shape == (4, 4)  # a one-qubit channel
    state = helpers.evolve(helpers.ground_density(1), [(flip, [0])])
    assert abs(expectation(state, Z) - 0.5) < 1e-12


def test_apply_channel_on_one_of_two_qubits():
    # depolarize the first qubit completely; the second must be untouched
    ops = tuple(m / 2.0 for m in (I2, X, Y, Z))
    depol = superoperator(ops)
    rho = helpers.pure_density(np.array([1.0, -1.0j]) / math.sqrt(2.0), [0.0, 1.0])
    state = helpers.evolve(rho, [(depol, [0])])
    assert np.abs(partial_trace(state, [0]) - I2 / 2.0).max() < 1e-12
    assert abs(expectation(partial_trace(state, [1]), Z) + 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unitary_evolution_preserves_state_axioms(seed):
    rng = np.random.default_rng(seed)
    state = density_matrix(helpers.rand_density(rng, 4))
    u = helpers.rand_unitary(rng, 2)
    target = int(rng.integers(0, 2))
    evolved = helpers.evolve(state, [(superoperator((u,)), [target])])
    helpers.validate_state(evolved)
    assert abs(np.trace(evolved).real - 1.0) < 1e-10
    assert abs(helpers.purity(evolved) - helpers.purity(state)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_channel_evolution_preserves_state_axioms(seed):
    rng = np.random.default_rng(seed)
    state = density_matrix(helpers.rand_density(rng, 4))
    # random channel from a 2-qubit unitary dilation on (target, environment)
    big = helpers.rand_unitary(rng, 4)
    ops = tuple(big[i * 2:(i + 1) * 2, 0:2] for i in range(2))
    target = int(rng.integers(0, 2))
    evolved = helpers.evolve(state, [(superoperator(ops), [target])])
    helpers.validate_state(evolved)
    assert abs(np.trace(evolved).real - 1.0) < 1e-10
    assert helpers.purity(evolved) <= 1.0 + 1e-10
    probs = probabilities(evolved, [0, 1])
    assert np.all(probs >= -1e-12)
    assert abs(probs.sum() - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_matches_embedded_expectation(seed):
    rng = np.random.default_rng(seed)
    state = density_matrix(helpers.rand_density(rng, 8))
    qubit = int(rng.integers(0, 3))
    factors = [I2, I2, I2]
    factors[qubit] = Z
    direct = expectation(state, np.kron(np.kron(factors[0], factors[1]), factors[2]))
    reduced = expectation(partial_trace(state, [qubit]), Z)
    assert abs(direct - reduced) < 1e-10


def _kraus_operators(kind, k, rng):
    if kind == "unitary":
        return [helpers.rand_unitary(rng, 2**k)]
    if kind == "dilation":
        # random channel from a unitary on (targets, one environment qubit)
        big = helpers.rand_unitary(rng, 2 ** (k + 1))
        return [big[i * 2**k:(i + 1) * 2**k, 0:2**k] for i in range(2)]
    if kind == "depolarizing":
        return helpers.oracle_depolarizing_kraus(float(rng.uniform(1e-4, 0.7)), k)
    # thermal relaxation on each target, over a CNOT-length gate
    t1 = float(rng.uniform(5.0, 100.0))
    ops = [np.eye(1)]
    for _ in range(k):
        relax = helpers.oracle_relaxation_kraus(t1, float(rng.uniform(0.1, 2.0)) * t1, 300.0)
        ops = [np.kron(a, b) for a in ops for b in relax]
    return ops


def _check_evolution_against_oracle(n, targets, kind, seed):
    rng = np.random.default_rng(seed)
    rho = helpers.rand_density(rng, 2**n)
    ops = _kraus_operators(kind, len(targets), rng)
    got = helpers.evolve(density_matrix(rho), [(superoperator(ops), targets)])
    want = helpers.oracle_apply_kraus(rho, ops, list(targets), n)
    assert np.abs(got - want).max() <= 1e-12
    helpers.validate_state(got)  # evolution skips density_matrix's checks; these still hold


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_evolution_matches_literal_kraus_oracle(data):
    n = data.draw(st.integers(1, 4), label="num_qubits")
    k = data.draw(st.integers(1, min(2, n)), label="num_targets")
    targets = data.draw(st.permutations(range(n)), label="order")[:k]
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    _check_evolution_against_oracle(n, targets, kind, data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, targets", [(3, [2, 0]), (4, [3, 1]), (4, [0, 3]), (4, [2]), (1, [0])])
def test_evolution_matches_oracle_on_reversed_and_gapped_targets(n, targets, kind):
    _check_evolution_against_oracle(n, targets, kind, seed=n * 31 + targets[0])
