"""The four error-disturbance trade-off relations and their classification.

All left-hand sides are compared against the commutator bound c with a
fixed tolerance: a relation counts as satisfied when lhs >= c - 1e-9.
epsilon and eta may be numpy arrays of one shape; each entry of the result
then equals, bit for bit, the result for that entry as a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SATISFIED_TOL = 1e-9

BOUND_NAMES = ("heisenberg", "ozawa", "branciard", "strong_branciard")


@dataclass(frozen=True)
class EdrInputs:
    """Error, disturbance, the two standard deviations, and the commutator bound."""

    epsilon: float | np.ndarray
    eta: float | np.ndarray
    sigma_a: float = 1.0
    sigma_b: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("epsilon", "eta", "sigma_a", "sigma_b"):
            v = getattr(self, name)
            if not np.all(v >= 0.0):
                raise ValueError(f"{name} = {v} must be nonnegative")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c = {self.c} outside [0, 1]")
        if self.sigma_a * self.sigma_b < self.c - 1e-12:
            raise ValueError(
                f"sigma_a * sigma_b = {self.sigma_a * self.sigma_b} below c = {self.c}"
            )


def heisenberg_lhs(inputs: EdrInputs) -> float:
    """epsilon * eta, the naive error-disturbance product."""
    return inputs.epsilon * inputs.eta


def ozawa_lhs(inputs: EdrInputs) -> float:
    """epsilon sigma_b + sigma_a eta + epsilon eta."""
    return (
        inputs.epsilon * inputs.sigma_b
        + inputs.sigma_a * inputs.eta
        + inputs.epsilon * inputs.eta
    )


def branciard_lhs(inputs: EdrInputs) -> float:
    """sqrt(e^2 sb^2 + sa^2 n^2 + 2 e n sqrt(sa^2 sb^2 - c^2))."""
    radicand = (inputs.sigma_a * inputs.sigma_b) ** 2 - inputs.c**2
    if radicand < -1e-12:
        raise ValueError(f"sigma_a^2 sigma_b^2 - c^2 = {radicand} is negative")
    cross = 2.0 * inputs.epsilon * inputs.eta * math.sqrt(max(radicand, 0.0))
    # x * x, not x ** 2: a Python float's ** 2 is libm pow, at times an ulp
    # off the correctly rounded product that numpy forms for arrays
    e, n = inputs.epsilon * inputs.sigma_b, inputs.sigma_a * inputs.eta
    return np.sqrt(e * e + n * n + cross)


def tilde(value: float | np.ndarray) -> float | np.ndarray:
    """The strengthened-bound map v -> v sqrt(1 - v^2/4) for v in [0, 2]."""
    if not np.all((0.0 <= value) & (value <= 2.0)):
        raise ValueError(f"value {value} outside [0, 2]")
    return value * np.sqrt(1.0 - value * value / 4.0)


def strong_branciard_lhs(inputs: EdrInputs) -> float:
    """The tightened relation for +/-1-valued observables, via the tilde map."""
    te, tn = tilde(inputs.epsilon), tilde(inputs.eta)
    cross = 2.0 * te * tn * math.sqrt(max(1.0 - inputs.c**2, 0.0))
    return np.sqrt(te * te + tn * tn + cross)


def effective_bound(theta_w: float) -> float:
    """Commutator bound left after two weak probes of angle theta_w: 4/(3 + cos 2 theta_w) - 1."""
    if not 0.0 <= theta_w <= math.pi / 2.0 + 1e-12:
        raise ValueError(f"theta_w = {theta_w} outside [0, pi/2]")
    return 4.0 / (3.0 + math.cos(2.0 * theta_w)) - 1.0


def classify(inputs: EdrInputs) -> tuple[dict, dict]:
    """Each relation's left-hand side and its satisfied flag against c - 1e-9, as two dicts
    keyed by ``BOUND_NAMES``; arrays for array inputs."""
    formulas = (heisenberg_lhs, ozawa_lhs, branciard_lhs, strong_branciard_lhs)
    lhs = {name: formula(inputs) for name, formula in zip(BOUND_NAMES, formulas)}
    return lhs, {name: v >= inputs.c - SATISFIED_TOL for name, v in lhs.items()}
