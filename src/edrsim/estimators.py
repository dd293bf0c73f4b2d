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

Every evolution runs ``compile_steps``' fused (superoperator, targets) steps
through ``DensityMatrix.evolve``: a gate and the noise that follows it are
one step.  A sweep evolves the circuit once (``readout_basis``), not once
per strength (``outcome_distribution``, kept as the per-point reference):
the readout distribution is affine in (1, cos theta, sin theta) of the
meter angle.  ``sample_counts`` then draws all of a point's shot batches
from one seeded stream in one multinomial call.

The steps ``readout_basis`` and ``prefix_state`` evolve are compiled once
per (theta_w, noise model) and memoised for the last ``_CACHED_CIRCUITS``
pairs a process used; noise models are themselves memoised per calibration
(``compile_noise``), so a repeat sweep compiles nothing and only evolves.
Every compiled step is read-only, so no caller can change what a later one
evolves.  States and distributions are never cached.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .circuit import METER, Circuit, build_edr_circuit
from .noise import NoiseModel, apply_readout_confusion
from .qsim import DensityMatrix, KrausChannel, ry

_CACHED_CIRCUITS = 16  # compiled (theta_w, noise) pairs kept; a noisy sweep uses two


@cache
def _lift_map(targets: tuple[int, ...], onto: tuple[int, ...]) -> np.ndarray:
    """Where a superoperator on ``targets`` lands in one on ``onto``, a superset, that acts
    as the identity on the other qubits: each entry of the result is 1 + the flat index of
    the entry it copies, or 0 where it is zero.  Memoised per (targets, onto)."""
    rest = tuple(q for q in onto if q not in targets)
    k, r, m = len(targets), len(rest), len(onto)
    source = np.arange(1, 16**k + 1).reshape(4**k, 4**k)
    # each half of kron's axes: target rows, target columns, rest rows, rest columns
    wide = np.kron(source, np.eye(4**r, dtype=int)).reshape((2,) * (4 * m))
    rows = [targets.index(q) if q in targets else 2 * k + rest.index(q) for q in onto]
    cols = [k + targets.index(q) if q in targets else 2 * k + r + rest.index(q) for q in onto]
    half = rows + cols
    lifted = wide.transpose(half + [2 * m + a for a in half]).reshape(4**m, 4**m)
    lifted.flags.writeable = False  # shared by every call with these qubits
    return lifted


def _lift(superop: np.ndarray, targets: tuple[int, ...], onto: tuple[int, ...]) -> np.ndarray:
    """A superoperator on ``targets`` as one on ``onto``; its entries are copied, bit for bit."""
    if targets == onto:
        return superop
    return np.concatenate(([0.0], superop.ravel()))[_lift_map(targets, onto)]


def compile_steps(circuit: Circuit, noise: NoiseModel | None = None) -> tuple[tuple, ...]:
    """The circuit and its noise as fused (superoperator, targets) steps.

    Every gate starts a step, as its one-operator channel; gates never merge,
    so a noiseless circuit's steps are its gates' superoperators bit for bit.
    Each noise channel joins the latest step that touches any of its qubits
    when its targets are among that step's, lifted to the step's qubits, and
    starts a step of its own otherwise.  No later step touches the qubits of
    a channel that joins an earlier step, so the move changes only rounding.
    Every channel was checked when it was built; the fused steps are not
    checked again.  Every superoperator returned is read-only.
    """
    steps: list[tuple] = []
    latest: dict[int, int] = {}  # qubit -> index of the last step that touches it
    for op in circuit.ops:
        latest.update(dict.fromkeys(op.qubits, len(steps)))
        steps.append((op.channel().superop, op.qubits))
        if noise is None:
            continue
        for channel, targets in noise.channels_after(op, circuit.num_qubits):
            last = max((latest[q] for q in targets if q in latest), default=None)
            if last is None or not set(targets) <= set(steps[last][1]):
                latest.update(dict.fromkeys(targets, len(steps)))
                steps.append((channel.superop, targets))
            else:
                superop, onto = steps[last]
                steps[last] = (_lift(channel.superop, targets, onto) @ superop, onto)
    for superop, _ in steps:
        superop.flags.writeable = False
    return tuple(steps)


def _run(steps: Sequence[tuple], state: DensityMatrix) -> DensityMatrix:
    for superop, targets in steps:
        state = state.evolve(superop, targets)
    return state


def run_circuit(circuit: Circuit, noise: NoiseModel | None = None) -> DensityMatrix:
    """|0...0> evolved through the circuit's compiled steps."""
    return _run(compile_steps(circuit, noise), DensityMatrix.ground(circuit.num_qubits))


def outcome_distribution(
    theta_w: float, theta: float, noise: NoiseModel | None = None
) -> np.ndarray:
    """The 16 readout probabilities, bits ordered (z_i, x_i, z_f, x_f).

    Includes readout confusion when a noise model is given, so this is
    exactly the distribution the sampler draws from.
    """
    circuit = build_edr_circuit(theta_w, theta)
    probs = run_circuit(circuit, noise).probabilities(circuit.measured_qubits)
    if noise is not None:
        probs = apply_readout_confusion(probs, noise, circuit.measured_qubits)
    return probs


def split_at_meter(circuit: Circuit) -> tuple[Circuit, Circuit]:
    """The ops before the meter's preparation rotation, and the rest with the readouts."""
    start = next(i for i, op in enumerate(circuit.ops) if METER in op.qubits)
    n = circuit.num_qubits
    return Circuit(n, circuit.ops[:start]), Circuit(n, circuit.ops[start:], circuit.measurements)


@cache
def _meter_rotations() -> tuple[np.ndarray, ...]:
    """The meter's rotation at the three angles ``readout_basis`` evolves, built and checked
    once, on first use."""
    return tuple(KrausChannel((ry(angle),)).superop for angle in (0.0, math.pi / 2.0, math.pi))


@lru_cache(maxsize=_CACHED_CIRCUITS)
def _compiled(theta_w: float, noise: NoiseModel | None) -> tuple:
    """The experiment at probe angle theta_w as ``readout_basis`` evolves it: (register
    size, prefix steps, tail steps every meter angle shares, each angle's own tail steps,
    measured qubits).

    The tail is compiled at theta = 0, where the meter's rotation is the
    identity: its fused first step is then the noise after the rotation, and
    each angle's steps start with its own rotation composed into that step.
    The steps between it and the next step on the meter act on other qubits,
    so they commute with the rotation and are shared.
    """
    prefix, tail = split_at_meter(build_edr_circuit(theta_w, 0.0))
    (after_meter, meter), *rest = compile_steps(tail, noise)
    split = next((i for i, (_, targets) in enumerate(rest) if METER in targets), len(rest))
    angles = []
    for rotation in _meter_rotations():
        first = after_meter @ rotation
        first.flags.writeable = False
        angles.append(((first, meter), *rest[split:]))
    return (prefix.num_qubits, compile_steps(prefix, noise), tuple(rest[:split]), tuple(angles),
            tail.measured_qubits)


def prefix_state(theta_w: float, noise: NoiseModel | None = None) -> DensityMatrix:
    """The register after both weak probes, before the meter's rotation."""
    num_qubits, prefix, *_ = _compiled(theta_w, noise)
    return _run(prefix, DensityMatrix.ground(num_qubits))


def readout_basis(
    theta_w: float, noise: NoiseModel | None = None
) -> tuple[np.ndarray, DensityMatrix]:
    """The 3x16 basis [A; B; C] of the readout distribution, and the state before the meter.

    At meter angle theta the distribution, readout confusion included, is
    A + B cos(theta) + C sin(theta): no op before the meter's rotation and no
    noise channel depends on theta, and the rest is linear in the meter state.
    So the prefix is evolved once and the tail three times, at theta = 0,
    pi/2 and pi, which give A + B, A + C and A - B, through the steps
    ``_compiled`` memoises; the tail's shared steps are evolved once.
    """
    _, _, common, angles, measured = _compiled(theta_w, noise)
    state = prefix_state(theta_w, noise)
    shared = _run(common, state)
    probs = np.stack([_run(steps, shared).probabilities(measured) for steps in angles])
    if noise is not None:  # one confusion pass over the three tail distributions
        probs = apply_readout_confusion(probs, noise, measured)
    plus, mid, minus = probs
    a = (plus + minus) / 2.0
    return np.stack([a, (plus - minus) / 2.0, mid - a]), state


def basis_probabilities(basis: np.ndarray, strength: float) -> np.ndarray:
    """The 16 readout probabilities at meter strength s = cos(theta) from a ``readout_basis``."""
    return np.array([1.0, strength, math.sqrt((1.0 - strength) * (1.0 + strength))]) @ basis


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
    total enter 2 (1 - E / cos(theta_w)); integer counts are summed exactly
    before the one division.
    """
    cw = math.cos(theta_w)
    if cw < 1e-12:  # the 1/cos normalisation is meaningless at zero strength
        raise ValueError(f"probe strength cos(theta_w) = {cw} is too small to invert")
    return 2.0 * (1.0 - np.asarray(weights) @ CORRELATOR_SIGNS / total / cw)
