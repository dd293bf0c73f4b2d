"""Parametric hardware-style noise: calibration profiles and compiled channels.

Three effects are modelled, composed after every gate of a circuit:

* depolarizing noise on the gate's qubits, with probability derived from
  the calibrated average gate error as p = error * d / (d - 1) for gate
  dimension d (so a single-qubit error e gives p = 2e, a CNOT error e
  gives p = 4e/3);
* thermal relaxation over the gate duration: amplitude damping with
  gamma = 1 - exp(-t/T1) composed with enough pure dephasing that the
  total coherence decay matches exp(-t/T2);
* by default the same relaxation acts on every idle qubit while a gate
  runs elsewhere (disable with ``compile_noise(..., include_idle=False)``).

Readout is modelled as a per-qubit confusion matrix applied to outcome
probabilities before sampling:

    [[1 - e01, e10], [e01, 1 - e10]]

with e01 = P(read 1 | prepared 0) and e10 = P(read 0 | prepared 1).

Calibration file schema, version 1: a strict flat ``key: number`` subset
of YAML, one entry per line::

    schema_version: 1
    q0_t1_us: 90.0             # relaxation time, microseconds
    q0_t2_us: 70.0             # dephasing time, microseconds; t2 <= 2*t1
    q0_readout_error_01: 0.02
    q0_readout_error_10: 0.03
    ... further qubits q1_, q2_, ... (contiguous from q0) ...
    single_qubit_gate_error: 0.0004
    cnot_error: 0.012
    single_qubit_gate_duration_ns: 35.0
    cnot_duration_ns: 300.0
    readout_duration_ns: 700.0

Blank lines and ``#`` comments (after at least one space when they follow a
value) are skipped.  An entry starts in the first column, its key is ASCII
letters, digits and ``_``, and spaces (not tabs) follow the colon.  A value
is a decimal int with no leading zero, a decimal float with a ``.`` and an
optional signed exponent (``1.5e-3``, not ``1.5e3``), or ``.inf``, ``+.inf``,
``-.inf`` (also ``.Inf`` and ``.INF``).  Any other value is rejected as not
a number.  Every accepted document reads as YAML would read it.  Some
documents YAML reads are rejected instead, naming the line: duplicate keys
(also ``q00_t1_us`` beside ``q0_t1_us``), any line that is not ``key: value``
(nested or flow mappings, ``---``, indented entries), and ``017``,
``0x1f``, ``1_000.0`` or ``1:30``, which YAML takes for octal,
hexadecimal, underscored or base-60 numbers.

Any omitted field takes its noiseless default (t1 = t2 = .inf, zero
errors) or the duration defaults above.  ``readout_duration_ns`` is
recorded for completeness but does not enter the compiled channels;
confusion matrices as calibrated already include decay during readout.
Unknown keys are rejected.

``compile_noise`` is memoised per process; the README's "Compilation is
memoised per process" paragraph describes the caches.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import GateOp
from .qsim import I2, X, Y, Z, superoperator

SCHEMA_VERSION = 1
_CACHED_MODELS = 8  # compiled models kept per process; each holds a few kB of channels

_QUBIT_FIELDS = ("t1_us", "t2_us", "readout_error_01", "readout_error_10")
_GATE_FIELD_DEFAULTS = {
    "single_qubit_gate_error": 0.0,
    "cnot_error": 0.0,
    "single_qubit_gate_duration_ns": 35.0,
    "cnot_duration_ns": 300.0,
    "readout_duration_ns": 700.0,
}


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float = math.inf
    t2_us: float = math.inf
    readout_error_01: float = 0.0
    readout_error_10: float = 0.0

    def __post_init__(self) -> None:
        if not self.t1_us > 0.0 or not self.t2_us > 0.0:
            raise ValueError(f"t1_us/t2_us must be positive, got {self.t1_us}/{self.t2_us}")
        if self.t2_us > 2.0 * self.t1_us:
            raise ValueError(
                f"t2_us may not exceed 2*t1_us (got {self.t2_us} > 2*{self.t1_us})"
            )
        for name in ("readout_error_01", "readout_error_10"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} outside [0, 1]")


@dataclass(frozen=True)
class CalibrationProfile:
    qubits: tuple[QubitCalibration, ...]
    single_qubit_gate_error: float = 0.0
    cnot_error: float = 0.0
    single_qubit_gate_duration_ns: float = 35.0
    cnot_duration_ns: float = 300.0
    readout_duration_ns: float = 700.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.qubits:
            raise ValueError("profile needs at least one qubit")
        for name in ("single_qubit_gate_error", "cnot_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} = {p} outside [0, 1]")
        for name in (
            "single_qubit_gate_duration_ns",
            "cnot_duration_ns",
            "readout_duration_ns",
        ):
            d = getattr(self, name)
            if not d > 0.0 or not math.isfinite(d):
                raise ValueError(f"{name} = {d} must be positive and finite")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)


# Line patterns, compiled by re's cache on first use, so runs without a calibration
# file never pay for them.  A comment holds YAML's printable characters other than
# line breaks (the class is their complement, which compiles faster); lines may end
# in \r.
_COMMENT = r"(?:#[^\x00-\x08\n-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]*)?\r?"
_BLANK = " *" + _COMMENT
_ENTRY = r"([A-Za-z0-9_]+): +(\S+)(?: +" + _COMMENT + r"|\r?)"
_QUBIT_KEY = r"q(0|[1-9][0-9]*)_(.+)"  # one spelling per qubit: q0_, never q00_
_NUMBER = (
    r"[-+]?(?:0|[1-9][0-9]*)"
    r"|[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)"
)


def _scalar(text: str) -> int | float | str:
    """The int or float a value spells, as YAML reads it, or the text itself."""
    if not re.fullmatch(_NUMBER, text):
        return text
    if "." not in text:
        return int(text)
    return float(text.lower().replace(".inf", "inf"))


def _read_flat(text: str) -> dict[str, tuple[int, int | float | str]]:
    """Map each key of a flat ``key: value`` document to (line number, value)."""
    entries: dict[str, tuple[int, int | float | str]] = {}
    for number, line in enumerate(text.split("\n"), 1):
        if re.fullmatch(_BLANK, line):
            continue
        match = re.fullmatch(_ENTRY, line)
        if match is None:
            raise ValueError(f"line {number}: expected 'key: number', got {line!r}")
        key, value = match.groups()
        if key in entries:
            raise ValueError(f"line {number}: duplicate key {key!r} (first on line {entries[key][0]})")
        entries[key] = (number, _scalar(value))
    return entries


def _parse_float(key: str, value: int | float | str, line: int) -> float:
    if isinstance(value, str):
        raise ValueError(f"line {line}: {key}: expected a number, got {value!r}")
    return float(value)


def parse_profile(text: str) -> CalibrationProfile:
    """Parse a schema-version-1 calibration document; see the module docstring."""
    doc = _read_flat(text)
    version = doc.pop("schema_version", (0, None))[1]
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    per_qubit: dict[int, dict[str, float]] = {}
    gate_values: dict[str, float] = {}
    for key, (line, value) in doc.items():
        qubit = re.fullmatch(_QUBIT_KEY, key)
        if qubit and qubit[2] in _QUBIT_FIELDS:
            per_qubit.setdefault(int(qubit[1]), {})[qubit[2]] = _parse_float(key, value, line)
        elif key in _GATE_FIELD_DEFAULTS:
            gate_values[key] = _parse_float(key, value, line)
        else:
            raise ValueError(f"line {line}: unknown calibration key {key!r}")

    if per_qubit:
        count = max(per_qubit) + 1
        if sorted(per_qubit) != list(range(count)):
            raise ValueError(f"qubit keys must be contiguous from q0, got q{sorted(per_qubit)}")
    else:
        count = 1
    qubits = tuple(QubitCalibration(**per_qubit.get(i, {})) for i in range(count))
    return CalibrationProfile(qubits, **gate_values)


def load_profile(path: str | os.PathLike) -> CalibrationProfile:
    with open(path, encoding="utf-8") as fh:
        return parse_profile(fh.read())


def representative_profile() -> CalibrationProfile:
    """The packaged illustrative four-qubit profile (see data/representative_profile.yaml)."""
    here = os.path.dirname(__file__)
    return load_profile(os.path.join(here, "data", "representative_profile.yaml"))


# the Pauli basis of one and of two qubits, the identity first; [4a + b] = kron(P_a, P_b)
_P = np.array([I2, X, Y, Z])
_PAULIS = {1: _P, 2: (_P[:, None, :, None, :, None] * _P[None, :, None, :, None, :]).reshape(16, 4, 4)}


def depolarizing_channel(error: float, num_qubits: int) -> np.ndarray | None:
    """Depolarizing channel's superoperator for an average gate error; None when exactly
    noiseless."""
    if error < 0.0:
        raise ValueError(f"gate error {error} negative")
    if error == 0.0:
        return None
    if num_qubits not in _PAULIS:
        raise ValueError("depolarizing channel supports one or two qubits")
    dim = 2**num_qubits
    p = min(error * dim / (dim - 1.0), 1.0)
    weights = np.full(dim**2, p / dim**2)
    weights[0] = 1.0 - p + p / dim**2
    return superoperator(np.sqrt(weights)[:, None, None] * _PAULIS[num_qubits])


def thermal_relaxation_channel(
    t1_us: float, t2_us: float, duration_ns: float
) -> np.ndarray | None:
    """Amplitude damping plus pure dephasing over a gate duration, as a superoperator;
    None if identity.

    The damping parameter is gamma = 1 - exp(-t/T1); the extra dephasing is
    chosen so the combined off-diagonal decay equals exp(-t/T2).
    """
    if duration_ns < 0.0:
        raise ValueError(f"duration {duration_ns} negative")
    t_us = duration_ns / 1000.0
    gamma = -math.expm1(-t_us / t1_us) if math.isfinite(t1_us) else 0.0
    # residual coherence after removing the sqrt(1-gamma) damping contribution
    rate = (1.0 / t2_us if math.isfinite(t2_us) else 0.0) - (
        1.0 / (2.0 * t1_us) if math.isfinite(t1_us) else 0.0
    )
    coherence = math.exp(-t_us * rate)
    if gamma == 0.0 and coherence == 1.0:
        return None
    # the products d @ a of the dephasing operators (p I, m Z) with the damping
    # operators ([[1, 0], [0, r]], [[0, g], [0, 0]]), written out entry by entry
    r, g = math.sqrt(1.0 - gamma), math.sqrt(gamma)
    p, m = math.sqrt((1.0 + coherence) / 2.0), math.sqrt((1.0 - coherence) / 2.0)
    ops = np.array(
        [
            [[p, 0.0], [0.0, p * r]],
            [[0.0, p * g], [0.0, 0.0]],
            [[m, 0.0], [0.0, -m * r]],
            [[0.0, m * g], [0.0, 0.0]],
        ],
        dtype=complex,
    )
    return superoperator(ops)


def confusion_matrix(qubit: QubitCalibration) -> np.ndarray:
    """Column-stochastic map from true to read bit probabilities."""
    e01, e10 = qubit.readout_error_01, qubit.readout_error_10
    return np.array([[1.0 - e01, e10], [e01, 1.0 - e10]])


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Channels compiled from a profile, keyed by gate class and qubit.

    Read-only throughout, since ``compile_noise`` shares one model among its
    callers; models hash and compare by identity.
    """

    profile: CalibrationProfile
    include_idle: bool
    gate_depolarizing: Mapping[str, np.ndarray | None]
    relaxation: Mapping[tuple[int, str], np.ndarray | None]
    confusion: tuple[np.ndarray, ...]

    def channels_after(
        self, op: GateOp, num_qubits: int
    ) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        """Noise channels to apply after ``op``, as (superoperator, targets) pairs."""
        if num_qubits > self.profile.num_qubits:
            raise ValueError(
                f"profile covers {self.profile.num_qubits} qubit(s), circuit has {num_qubits}"
            )
        gate_class = "cnot" if op.kind == "cnot" else "single"
        out: list[tuple[np.ndarray, tuple[int, ...]]] = []
        depol = self.gate_depolarizing[gate_class]
        if depol is not None:
            out.append((depol, op.qubits))
        affected = range(num_qubits) if self.include_idle else op.qubits
        for q in affected:
            relax = self.relaxation[(q, gate_class)]
            if relax is not None:
                out.append((relax, (q,)))
        return out


def compile_noise(profile: CalibrationProfile, *, include_idle: bool = True) -> NoiseModel:
    """Every channel the model can emit for the given profile, built once per process.

    Memoised on (profile, include_idle), so repeat calls return the same model.
    """
    return _compile_noise(profile, include_idle)


@lru_cache(maxsize=_CACHED_MODELS)
def _compile_noise(profile: CalibrationProfile, include_idle: bool) -> NoiseModel:
    gate_depolarizing = {
        "single": depolarizing_channel(profile.single_qubit_gate_error, 1),
        "cnot": depolarizing_channel(profile.cnot_error, 2),
    }
    durations = {
        "single": profile.single_qubit_gate_duration_ns,
        "cnot": profile.cnot_duration_ns,
    }
    relaxation = {
        (q, gate_class): thermal_relaxation_channel(qubit.t1_us, qubit.t2_us, duration)
        for q, qubit in enumerate(profile.qubits)
        for gate_class, duration in durations.items()
    }
    confusion = tuple(confusion_matrix(qubit) for qubit in profile.qubits)
    for matrix in confusion:
        matrix.flags.writeable = False
    return NoiseModel(profile, include_idle, MappingProxyType(gate_depolarizing),
                      MappingProxyType(relaxation), confusion)


def apply_readout_confusion(
    probs: np.ndarray, model: NoiseModel, qubits: Sequence[int]
) -> np.ndarray:
    """Push outcome distributions through each measured qubit's confusion matrix.

    ``probs`` is indexed by bit pattern on its last axis, most significant bit
    first, with ``qubits`` naming the physical qubit behind each bit position;
    leading axes index separate distributions.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1:] != (2**k,):
        raise ValueError(f"expected {2**k} outcome probabilities, got shape {probs.shape}")
    table = probs.reshape(probs.shape[:-1] + (2,) * k)
    for axis, q in enumerate(qubits, probs.ndim - 1):
        table = np.moveaxis(np.tensordot(model.confusion[q], table, axes=([1], [axis])), 0, axis)
    return table.reshape(probs.shape)
