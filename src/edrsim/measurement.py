"""Operator definitions of error and disturbance for the main measurement.

The main measurement couples the system to a fresh meter qubit through a
CNOT and reads the meter in the computational basis.  Preparing the
meter with a y-rotation of angle a gives the meter's outcomes the
statistics of the two-outcome POVM

    E(+/-) = (I +/- s Z) / 2,        s = cos(a),

on the system, which interpolates between no measurement (s = 0) and a
projective Z measurement (s = 1); ``edrsim check`` compares the
simulated meter with these probabilities.

``exact_error`` and ``exact_disturbance`` evaluate the root-mean-square
error and disturbance of that apparatus from Ozawa's operator
definitions (PRA 67, 042105, 2003)

    error^2       = < (U^ (I x M) U - A x I)^2 >
    disturbance^2 = < (U^ (B x I) U - B x I)^2 >

on the system-meter composite, with A = Z measured, B = X disturbed,
U the CNOT and M the meter's Z readout.  Only the meter's initial state
depends on s, so both operators are fixed 4x4 matrices.  For this
apparatus both quantities reduce to closed forms independent of the
system state:

    error        = sqrt(2 (1 - s))
    disturbance  = sqrt(2 (1 - sqrt(1 - s^2)))

Both are evaluated in norm form, <D^2> = ||D (sqrt(rho) x |m>)||^2 =
tr(rho W^ W) with W = D (I x |m>), so small values keep their relative
precision; a trace of D^2 on the composite state subtracts O(1) terms and
loses them near s = 0 (disturbance) and s = 1 (error).
"""

from __future__ import annotations

import math

import numpy as np

from .qsim import ATOL, CNOT, I2, X, Z, expectation

# Standard input state: the -1 eigenstate of Y, written with exact dyadic
# entries so that expectation values on it stay exact in floating point.
_RHO_R = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)


def reference_input_state() -> np.ndarray:
    """|R><R| with R = (|0> - i|1>)/sqrt(2), a fresh array; maximises the commutator bound."""
    return _RHO_R.copy()


# D of the error (A = M = Z) and of the disturbance of B = X, U the CNOT
_Z_NOISE_OP = CNOT.conj().T @ np.kron(I2, Z) @ CNOT - np.kron(Z, I2)
_X_DISTURBANCE_OP = CNOT.conj().T @ np.kron(X, I2) @ CNOT - np.kron(X, I2)


def _rms(op: np.ndarray, system_state: np.ndarray, strength: float | np.ndarray):
    """sqrt(<op^2>) on rho x |m><m|, as sqrt(tr(rho W^ W)) with W = op (I x |m>).

    The strength-s meter ket m = ry(acos s)|0> is built from s directly, and
    W is m0 times the even columns of op plus m1 times its odd columns; an
    array of strengths gives a stack of W and an array of values.
    """
    s = np.asarray(strength, dtype=float)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ValueError(f"strength {strength} outside [0, 1]")
    if system_state.shape != (2, 2):
        raise ValueError("system state must be a single qubit")
    m0, m1 = np.sqrt((1.0 + s) / 2.0)[..., None, None], np.sqrt((1.0 - s) / 2.0)[..., None, None]
    w = m0 * op[:, 0::2] + m1 * op[:, 1::2]
    prod = system_state @ (w.conj().swapaxes(-1, -2) @ w)
    out = np.sqrt(np.maximum((prod[..., 0, 0] + prod[..., 1, 1]).real, 0.0))
    return float(out) if out.ndim == 0 else out


def exact_error(system_state: np.ndarray, strength: float | np.ndarray):
    """Operator-definition error of the strength-s Z measurement, per strength for an array."""
    return _rms(_Z_NOISE_OP, system_state, strength)


def exact_disturbance(system_state: np.ndarray, strength: float | np.ndarray):
    """Operator-definition disturbance of X under the strength-s Z measurement, per strength."""
    return _rms(_X_DISTURBANCE_OP, system_state, strength)


def standard_deviation(state: np.ndarray, obs: np.ndarray) -> float:
    """sqrt(<obs^2> - <obs>^2) on the given state."""
    obs = np.asarray(obs, dtype=complex)
    mean = expectation(state, obs)
    second = expectation(state, obs @ obs)
    variance = second - mean * mean
    if variance < -ATOL:
        raise ValueError(f"negative squared quantity {variance} beyond tolerance")
    return math.sqrt(max(variance, 0.0))


def commutator_bound(state: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """|<[A, B]>| / 2, the right-hand side shared by the uncertainty relations."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, obs in (("a", a), ("b", b)):
        if np.max(np.abs(obs - obs.conj().T)) > ATOL:
            raise ValueError(f"observable {name} is not Hermitian")
    value = np.trace(state @ (a @ b - b @ a))
    return abs(value) / 2.0
