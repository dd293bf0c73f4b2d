"""Operator-level model of the variable-strength indirect measurement.

The main measurement couples the system to a fresh meter qubit through a
CNOT and reads the meter in the computational basis.  Preparing the
meter with a y-rotation of angle a induces the two-outcome POVM

    E(+/-) = (I +/- s Z) / 2,        s = cos(a),

on the system, which interpolates between no measurement (s = 0) and a
projective Z measurement (s = 1).

``exact_error`` and ``exact_disturbance`` evaluate the root-mean-square
error and disturbance of that apparatus from the operator definitions

    error^2       = < (U^ (I x M) U - A x I)^2 >
    disturbance^2 = < (U^ (B x I) U - B x I)^2 >

on the system-meter composite, with A = Z measured, B = X disturbed,
U the CNOT and M the meter's Z readout.  For this apparatus both reduce
to closed forms independent of the system state:

    error        = sqrt(2 (1 - s))
    disturbance  = sqrt(2 (1 - sqrt(1 - s^2)))

Both are evaluated in norm form, <D^2> = ||D (sqrt(rho) x |m>)||^2 =
tr(rho W^ W) with W = D (I x |m>), so small values keep their relative
precision; a trace of D^2 on the composite state subtracts O(1) terms and
loses them near s = 0 (disturbance) and s = 1 (error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .circuit import angle_for_strength
from .qsim import ATOL, CNOT, I2, X, Z, DensityMatrix

# Standard input state: the -1 eigenstate of Y, written with exact dyadic
# entries so that expectation values on it stay exact in floating point.
_RHO_R = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)


def reference_input_state() -> DensityMatrix:
    """|R><R| with R = (|0> - i|1>)/sqrt(2); maximises the commutator bound."""
    return DensityMatrix(1, _RHO_R.copy())


def _clamped_sqrt(value: float, tol: float = ATOL) -> float:
    if value < -tol:
        raise ValueError(f"negative squared quantity {value} beyond tolerance")
    return math.sqrt(max(value, 0.0))


@dataclass(frozen=True)
class PovmPair:
    """The two POVM elements of the strength-s meter readout."""

    plus: np.ndarray
    minus: np.ndarray
    strength: float

    def __post_init__(self) -> None:
        for name, el in (("plus", self.plus), ("minus", self.minus)):
            el = np.asarray(el, dtype=complex)
            object.__setattr__(self, name, el)
            if np.max(np.abs(el - el.conj().T)) > ATOL:
                raise ValueError(f"POVM element {name} is not Hermitian")
            if float(np.linalg.eigvalsh(el)[0]) < -ATOL:
                raise ValueError(f"POVM element {name} is not positive semidefinite")
        if np.max(np.abs(self.plus + self.minus - np.eye(self.plus.shape[0]))) > ATOL:
            raise ValueError("POVM elements do not sum to the identity")

    def probabilities(self, state: DensityMatrix) -> tuple[float, float]:
        p_plus = float(np.trace(state.mat @ self.plus).real)
        p_minus = float(np.trace(state.mat @ self.minus).real)
        return p_plus, p_minus


def build_povm(strength: float) -> PovmPair:
    """POVM pair (I +/- s Z)/2 for measurement strength s in [0, 1]."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength {strength} outside [0, 1]")
    return PovmPair((I2 + strength * Z) / 2.0, (I2 - strength * Z) / 2.0, strength)


@dataclass(frozen=True)
class IndirectMeasurement:
    """System observable measured through a meter via a fixed interaction.

    The composite register is (system, meter), system most significant.
    ``meter_init_angle`` is the y-rotation preparing the meter from |0>.
    """

    system_observable: np.ndarray
    meter_observable: np.ndarray
    interaction: np.ndarray
    meter_init_angle: float

    def __post_init__(self) -> None:
        for name in ("system_observable", "meter_observable", "interaction"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        for name, obs in (
            ("system_observable", self.system_observable),
            ("meter_observable", self.meter_observable),
        ):
            if np.max(np.abs(obs - obs.conj().T)) > ATOL:
                raise ValueError(f"{name} is not Hermitian")
            eig = np.linalg.eigvalsh(obs)
            if abs(eig[0] + 1.0) > 1e-10 or abs(eig[-1] - 1.0) > 1e-10:
                raise ValueError(f"{name} must have eigenvalues -1 and +1")
        dev = np.max(np.abs(self.interaction.conj().T @ self.interaction - np.eye(4)))
        if dev > ATOL:
            raise ValueError(f"interaction is not unitary (deviation {dev:.3e})")

    @classmethod
    def z_through_meter(cls, strength: float) -> "IndirectMeasurement":
        """The CNOT-coupled Z measurement at the given strength."""
        return cls(Z, Z, CNOT, angle_for_strength(strength))

    def composite(self, system_state: DensityMatrix) -> DensityMatrix:
        if system_state.num_qubits != 1:
            raise ValueError("system state must be a single qubit")
        meter_ket = qsim.ry(self.meter_init_angle) @ np.array([1.0, 0.0], dtype=complex)
        return DensityMatrix.product(system_state, DensityMatrix.from_ket(meter_ket))

    def noise_operator(self) -> np.ndarray:
        """U^ (I x M) U - A x I; its second moment on the composite is the squared error."""
        u = self.interaction
        heis = u.conj().T @ np.kron(I2, self.meter_observable) @ u
        return heis - np.kron(self.system_observable, I2)

    def disturbance_operator(self, observable: np.ndarray) -> np.ndarray:
        """U^ (B x I) U - B x I; its second moment is the squared disturbance of B."""
        observable = np.asarray(observable, dtype=complex)
        if np.max(np.abs(observable - observable.conj().T)) > ATOL:
            raise ValueError("observable is not Hermitian")
        u = self.interaction
        before = np.kron(observable, I2)
        return u.conj().T @ before @ u - before


# Only the meter ket depends on the strength, so the operators are fixed: these are
# IndirectMeasurement.z_through_meter's noise_operator() and disturbance_operator(X).
_Z_NOISE_OP = CNOT.conj().T @ np.kron(I2, Z) @ CNOT - np.kron(Z, I2)
_X_DISTURBANCE_OP = CNOT.conj().T @ np.kron(X, I2) @ CNOT - np.kron(X, I2)


def _rms(op: np.ndarray, system_state: DensityMatrix, strength: float) -> float:
    """sqrt(<op^2>) on rho x |m><m|, as sqrt(tr(rho W^ W)) with W = op (I x |m>).

    The strength-s meter ket m = ry(acos s)|0> is built from s directly, and
    W is m0 times the even columns of op plus m1 times its odd columns.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength {strength} outside [0, 1]")
    if system_state.num_qubits != 1:
        raise ValueError("system state must be a single qubit")
    m0, m1 = math.sqrt((1.0 + strength) / 2.0), math.sqrt((1.0 - strength) / 2.0)
    w = m0 * op[:, 0::2] + m1 * op[:, 1::2]
    return math.sqrt(max(float(np.trace(system_state.mat @ (w.conj().T @ w)).real), 0.0))


def exact_error(system_state: DensityMatrix, strength: float) -> float:
    """Operator-definition error of the strength-s Z measurement."""
    return _rms(_Z_NOISE_OP, system_state, strength)


def exact_disturbance(system_state: DensityMatrix, strength: float) -> float:
    """Operator-definition disturbance of X under the strength-s Z measurement."""
    return _rms(_X_DISTURBANCE_OP, system_state, strength)


def standard_deviation(state: DensityMatrix, obs: np.ndarray) -> float:
    """sqrt(<obs^2> - <obs>^2) on the given state."""
    obs = np.asarray(obs, dtype=complex)
    mean = state.expectation(obs)
    second = state.expectation(obs @ obs)
    return _clamped_sqrt(second - mean * mean)


def commutator_bound(state: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    """|<[A, B]>| / 2, the right-hand side shared by the uncertainty relations."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, obs in (("a", a), ("b", b)):
        if np.max(np.abs(obs - obs.conj().T)) > ATOL:
            raise ValueError(f"observable {name} is not Hermitian")
    value = np.trace(state.mat @ (a @ b - b @ a))
    return abs(value) / 2.0
