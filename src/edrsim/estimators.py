"""Weak-valued error and disturbance estimation from joint outcome statistics.

A probe of strength cos(theta_w) attenuates the correlation between its
record a_i and the later readout a_f.  Inverting that attenuation on the
measured joint distribution yields the weak-valued joint probabilities

    P_wv(a_i, a_f) = (1 + a_i a_f E / cos(theta_w)) / 4,

with E the measured correlator; the weak-valued root-mean-square spread

    sum (a_i - a_f)^2 P_wv(a_i, a_f) = 2 (1 - E / cos(theta_w))

then estimates the squared error (z records) or squared disturbance
(x records) of the main measurement.  ``weak_valued_squares`` evaluates it
with the fixed sign vectors ``CORRELATOR_SIGNS`` on the 16-outcome
probabilities or on sampled counts; it is the package's one estimator.
Squared estimates can go slightly negative under sampling noise; they are
reported raw alongside estimates clamped at zero before the square root.

Every evolution runs ``compile_steps``' fused (superoperator, targets) steps,
a gate and the noise after it as one, through ``evolve_stack``.  A sweep
evolves only the prefix before the meter's rotation (``readout_basis``), not
the circuit once per strength (``outcome_distribution``, the per-point
reference): the rest, readout confusion included, is one linear map onto
the rows [A; B; C] of a distribution affine in (1, cos theta, sin theta).
``basis_probabilities`` and ``weak_valued_squares`` are elementwise in the
strength, so no row depends on the others in its sweep.  ``sample_counts``
draws all of a point's shot batches in one multinomial call.

Compilation is memoised per process and evolution never is; the README's
"Compilation is memoised per process" paragraph describes the caches.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .circuit import METER, Circuit, build_edr_circuit
from .noise import NoiseModel, apply_readout_confusion
from .qsim import evolve_stack, probabilities, ry, superoperator

_CACHED_CIRCUITS = 16  # compiled (theta_w, noise) pairs kept; a noisy sweep uses two


def compile_steps(circuit: Circuit, noise: NoiseModel | None = None) -> tuple[tuple, ...]:
    """The circuit and its noise as fused (superoperator, targets) steps.

    Every gate starts a step, as its one-operator channel; gates never merge,
    so a noiseless circuit's steps are its gates' superoperators bit for bit.
    Each noise channel joins the latest step that touches any of its qubits
    when its targets are among that step's, and starts a step of its own
    otherwise.  It joins through ``evolve_stack``: the step's columns, each a
    matrix on the step's qubits, are evolved by the channel.  No later step
    touches the qubits of a channel that joins an earlier step, so the move
    changes only rounding.  Every channel was checked when it was built; the
    fused steps are not checked again.  Every superoperator returned is
    read-only.
    """
    steps: list[tuple] = []
    latest: dict[int, int] = {}  # qubit -> index of the last step that touches it
    for op in circuit.ops:
        latest.update(dict.fromkeys(op.qubits, len(steps)))
        steps.append((op.superop(), op.qubits))
        if noise is None:
            continue
        for channel, targets in noise.channels_after(op, circuit.num_qubits):
            last = max((latest[q] for q in targets if q in latest), default=None)
            if last is None or not set(targets) <= set(steps[last][1]):
                latest.update(dict.fromkeys(targets, len(steps)))
                steps.append((channel, targets))
            else:
                superop, onto = steps[last]
                k = len(onto)
                columns = evolve_stack(superop.T.reshape(4**k, 2**k, 2**k), channel,
                                       [onto.index(q) for q in targets])
                # C order, so a step's layout, and the rounding of its products, does not
                # depend on how many channels joined it
                steps[last] = (np.ascontiguousarray(columns.reshape(4**k, 4**k).T), onto)
    for superop, _ in steps:
        superop.flags.writeable = False
    return tuple(steps)


def _evolved(steps: Sequence[tuple], num_qubits: int) -> np.ndarray:
    """|0...0> evolved through ``steps`` as a stack of one matrix; a fresh array."""
    mats = np.zeros((1, 2**num_qubits, 2**num_qubits), dtype=complex)
    mats[0, 0, 0] = 1.0
    for superop, targets in steps:
        mats = evolve_stack(mats, superop, targets)
    return mats[0]


def outcome_distribution(
    theta_w: float, theta: float, noise: NoiseModel | None = None
) -> np.ndarray:
    """The 16 readout probabilities, bits ordered (z_i, x_i, z_f, x_f).

    Includes readout confusion when a noise model is given, so this is
    exactly the distribution the sampler draws from.
    """
    circuit = build_edr_circuit(theta_w, theta)
    state = _evolved(compile_steps(circuit, noise), circuit.num_qubits)
    probs = probabilities(state, circuit.measured_qubits)
    if noise is not None:
        probs = apply_readout_confusion(probs, noise, circuit.measured_qubits)
    return probs


def split_at_meter(circuit: Circuit) -> tuple[Circuit, Circuit]:
    """The ops before the meter's preparation rotation, and the rest with the readouts."""
    start = next(i for i, op in enumerate(circuit.ops) if METER in op.qubits)
    n = circuit.num_qubits
    return Circuit(n, circuit.ops[:start]), Circuit(n, circuit.ops[start:], circuit.measurements)


@cache
def _meter_terms() -> tuple[np.ndarray, ...]:
    """The superoperators [A, B, C] of the meter's rotation by theta, A + B cos(theta) +
    C sin(theta), read off its checked rotations at 0, pi/2 and pi once.  Read-only."""
    plus, mid, minus = (superoperator((ry(t),)) for t in (0.0, math.pi / 2.0, math.pi))
    a = (plus + minus) / 2.0
    terms = (a, (plus - minus) / 2.0, mid - a)
    for term in terms:
        term.flags.writeable = False
    return terms


@lru_cache(maxsize=_CACHED_CIRCUITS)
def _compiled(theta_w: float, noise: NoiseModel | None) -> tuple:
    """The register size and the steps of the experiment at probe angle theta_w before
    the meter's rotation."""
    prefix, _ = split_at_meter(build_edr_circuit(theta_w, 0.0))
    return prefix.num_qubits, compile_steps(prefix, noise)


@lru_cache(maxsize=_CACHED_CIRCUITS)
def _readout_map(theta_w: float, noise: NoiseModel | None) -> np.ndarray:
    """The read-only real (3 * 16, 2 * 4**n) map with basis = map @ rho.ravel().view(float),
    rho the state before the meter, built in the Heisenberg picture.

    Row j of ``read`` is the distribution read, confusion included, when the
    measured qubits hold outcome j, so outcome k's effect is diagonal with
    ``read[outcome, k]`` on it.  The effects are pulled back through the tail
    compiled at theta = 0, whose fused first step is then the noise after the
    meter's rotation; that step is pulled back last, once per rotation term.
    Each pulled-back effect F is stored as (Re F, -Im F) pairs, so that the
    product with rho's (real, imaginary) pairs is Re(F . rho).
    """
    _, tail = split_at_meter(build_edr_circuit(theta_w, 0.0))
    (after_meter, meter), *rest = compile_steps(tail, noise)
    n, measured = tail.num_qubits, tail.measured_qubits
    index = np.arange(2**n)
    outcome = sum(((index >> (n - 1 - q)) & 1) << (len(measured) - 1 - b)
                  for b, q in enumerate(measured))
    read = np.eye(2 ** len(measured))
    if noise is not None:
        read = apply_readout_confusion(read, noise, measured)
    effects = np.zeros((len(read), 2**n, 2**n), dtype=complex)
    effects[:, index, index] = read[outcome].T
    for superop, targets in reversed(rest):  # a step's transpose pulls an effect back
        effects = evolve_stack(effects, superop.T, targets)
    pulled = np.concatenate([evolve_stack(effects, (after_meter @ term).T, meter)
                             for term in _meter_terms()])
    readout = np.conjugate(pulled, out=pulled).reshape(3 * len(read), -1).view(float)
    readout.flags.writeable = False
    return readout


def prefix_state(theta_w: float, noise: NoiseModel | None = None) -> np.ndarray:
    """The register after both weak probes, before the meter's rotation."""
    num_qubits, steps = _compiled(theta_w, noise)
    return _evolved(steps, num_qubits)


def readout_basis(
    theta_w: float, noise: NoiseModel | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The 3x16 basis [A; B; C] of the readout distribution, and the state before the meter.

    At meter angle theta the distribution, readout confusion included, is
    A + B cos(theta) + C sin(theta): no op before the meter's rotation and no
    noise channel depends on theta, and the rest is linear in the meter state.
    So only the prefix is evolved; ``_readout_map`` reads the basis off it in
    one real product.
    """
    state = prefix_state(theta_w, noise)
    basis = _readout_map(theta_w, noise) @ state.ravel().view(float)
    return basis.reshape(3, -1), state


def basis_probabilities(basis: np.ndarray, strength: float | np.ndarray) -> np.ndarray:
    """The 16 readout probabilities at meter strength s = cos(theta) from a ``readout_basis``;
    an array of strengths gives one row per strength.

    Elementwise in s, so a strength's row does not depend on the others.
    """
    s = np.asarray(strength, dtype=float)[..., None]
    if not np.all(np.abs(s) <= 1.0):
        raise ValueError(f"strength {strength} outside [-1, 1]")
    return basis[0] + s * basis[1] + np.sqrt((1.0 - s) * (1.0 + s)) * basis[2]


def sample_counts(
    probs: np.ndarray, shots: int, entropy: int | Sequence[int], repeats: int
) -> np.ndarray:
    """Counts of ``repeats`` batches of ``shots`` i.i.d. outcomes, shape (repeats, 16).

    One generator seeded by ``SeedSequence(entropy)`` draws all batches in one
    multinomial call: time and memory are O(repeats) whatever ``shots`` is.
    Outcomes with exactly zero probability are never produced: they are left
    out of the draw, so none can receive the rounding remainder.
    """
    probs = np.asarray(probs, dtype=float)
    if shots < 1 or repeats < 1:
        raise ValueError(f"shots {shots} and repeats {repeats} must be positive")
    if np.any(probs < -1e-12):
        raise ValueError("negative probability in outcome distribution")
    probs = np.clip(probs, 0.0, None)
    drawn = np.flatnonzero(probs)
    counts = np.zeros((repeats, probs.size), dtype=np.int64)
    rng = np.random.default_rng(entropy)
    counts[:, drawn] = rng.multinomial(int(shots), probs[drawn] / probs[drawn].sum(), size=repeats)
    return counts


# CORRELATOR_SIGNS[k] = (z_i z_f, x_i x_f) for outcome index k, bits (z_i, x_i, z_f, x_f)
_BITS = 1 - 2 * ((np.arange(16)[:, None] >> np.array([3, 2, 1, 0])) & 1)
CORRELATOR_SIGNS = np.stack([_BITS[:, 0] * _BITS[:, 2], _BITS[:, 1] * _BITS[:, 3]], axis=1)


def weak_valued_squares(
    weights: np.ndarray, theta_w: float, total: float = 1.0
) -> np.ndarray:
    """Squared error and disturbance estimates, ``[..., (epsilon^2, eta^2)]``.

    ``weights`` holds 16-outcome probabilities or counts on its last axis,
    ``total`` their sum.  The correlators E = weights @ CORRELATOR_SIGNS /
    total enter 2 (1 - E / cos(theta_w)).  Each E is summed in outcome order,
    so its bits depend on its own weights alone, not on the leading shape;
    integer counts are summed exactly before the one division.
    """
    cw = math.cos(theta_w)
    if cw < 1e-12:  # the 1/cos normalisation is meaningless at zero strength
        raise ValueError(f"probe strength cos(theta_w) = {cw} is too small to invert")
    signed = np.asarray(weights)[..., None] * CORRELATOR_SIGNS
    return 2.0 * (1.0 - np.cumsum(signed, axis=-2)[..., -1, :] / total / cw)
