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

Every evolution runs ``compile_steps``' checked (channel, targets) steps
through ``DensityMatrix.apply_channel``.  A sweep evolves the circuit once
(``readout_basis``), not once per strength (``outcome_distribution``, kept as
the per-point reference): the readout distribution is affine in (1, cos theta,
sin theta) of the meter angle.  ``sample_counts`` then draws all of a point's
shot batches from one seeded stream in one multinomial call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuit import METER, Circuit, build_edr_circuit
from .noise import NoiseModel, apply_readout_confusion
from .qsim import DensityMatrix, KrausChannel, ry


def compile_steps(circuit: Circuit, noise: NoiseModel | None = None) -> tuple[tuple, ...]:
    """The circuit as (channel, targets) steps: each gate as its one-operator channel,
    checked here, once, then the noise channels that follow it."""
    steps = []
    for op in circuit.ops:
        steps.append((KrausChannel((op.matrix(),)), op.qubits))
        if noise is not None:
            steps.extend(noise.channels_after(op, circuit.num_qubits))
    return tuple(steps)


def _run(steps: Sequence[tuple], state: DensityMatrix) -> DensityMatrix:
    for channel, targets in steps:
        state = state.apply_channel(channel, targets)
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


def readout_basis(
    theta_w: float, noise: NoiseModel | None = None
) -> tuple[np.ndarray, DensityMatrix]:
    """The 3x16 basis [A; B; C] of the readout distribution, and the state before the meter.

    At meter angle theta the distribution, readout confusion included, is
    A + B cos(theta) + C sin(theta): no op before the meter's rotation and no
    noise channel depends on theta, and the rest is linear in the meter state.
    So the prefix is evolved once and the tail three times, at theta = 0,
    pi/2 and pi, which give A + B, A + C and A - B.  Both are compiled once;
    only the meter's rotation is rebuilt per angle.
    """
    prefix, tail = split_at_meter(build_edr_circuit(theta_w, 0.0))
    state = run_circuit(prefix, noise)
    (_, meter), *rest = compile_steps(tail, noise)
    ends = [_run(((KrausChannel((ry(angle),)), meter), *rest), state)
            for angle in (0.0, math.pi / 2.0, math.pi)]
    probs = np.stack([end.probabilities(tail.measured_qubits) for end in ends])
    if noise is not None:  # one confusion pass over the three tail distributions
        probs = apply_readout_confusion(probs, noise, tail.measured_qubits)
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
