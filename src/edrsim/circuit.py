"""Gate-level circuit description, the weak-probe experiment builder, and QASM export.

The experiment couples one system qubit to three ancillas: two weak
probes that pre-measure Z and X without appreciably collapsing the
state, and a meter implementing the variable-strength main measurement.
The register order is fixed:

    0  system        prepared in the -1 eigenstate of Y
    1  z probe       weak pre-measurement of Z, outcome label z_i
    2  x probe       weak pre-measurement of X, outcome label x_i
    3  meter         main measurement of Z, outcome label z_f

The system itself is read out in the X basis at the end (label x_f).
Measurement strengths are parameterised as s = cos(angle) of the probe
or meter preparation rotation, so angle pi/2 means "no measurement" and
angle 0 a projective one.  ``angle_for_strength`` is the only place that
conversion lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import qsim

SYSTEM, PROBE_Z, PROBE_X, METER = 0, 1, 2, 3

SINGLE_QUBIT_KINDS = ("rx", "ry", "h", "x")
GATE_KINDS = SINGLE_QUBIT_KINDS + ("cnot",)

_FIXED_MATRICES = {"h": qsim.H, "x": qsim.X, "cnot": qsim.CNOT}


@cache
def _fixed_channel(kind: str) -> np.ndarray:
    """A fixed gate's superoperator, built and checked once, on first use; building the
    three at import would add to every start-up, also of runs that evolve nothing."""
    return qsim.superoperator((_FIXED_MATRICES[kind],))


def angle_for_strength(strength: float) -> float:
    """Rotation angle realising measurement strength s = cos(angle), s in [0, 1]."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"measurement strength {strength} outside [0, 1]")
    return math.acos(strength)


@dataclass(frozen=True)
class GateOp:
    """One gate: kind in {rx, ry, h, x, cnot}; cnot qubits are (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "cnot" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if self.kind in ("rx", "ry"):
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def superop(self) -> np.ndarray:
        """The gate's superoperator, as a one-operator channel: its completeness check is
        the unitarity check."""
        if self.kind == "rx":
            return qsim.superoperator((qsim.rx(self.angle),))
        if self.kind == "ry":
            return qsim.superoperator((qsim.ry(self.angle),))
        return _fixed_channel(self.kind)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list plus terminal computational-basis measurements."""

    num_qubits: int
    ops: tuple[GateOp, ...]
    measurements: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(
            self, "measurements", tuple((int(q), str(lbl)) for q, lbl in self.measurements)
        )
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate {op} outside register of {self.num_qubits}")
        seen_q: set[int] = set()
        seen_lbl: set[str] = set()
        for q, lbl in self.measurements:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"measured qubit {q} outside register")
            if q in seen_q or lbl in seen_lbl:
                raise ValueError(f"duplicate measurement of qubit {q} / label {lbl!r}")
            seen_q.add(q)
            seen_lbl.add(lbl)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.measurements)


def build_edr_circuit(theta_w: float, theta: float) -> Circuit:
    """The four-qubit weak-probe error-disturbance circuit.

    ``theta_w`` sets both probe strengths (cos theta_w), ``theta`` the main
    measurement strength (cos theta); both must lie in [0, pi/2].
    """
    for name, value in (("theta_w", theta_w), ("theta", theta)):
        if not 0.0 <= value <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"{name} = {value} outside [0, pi/2]")
    ops = (
        GateOp("rx", (SYSTEM,), math.pi / 2.0),
        # weak probe of Z: rotate the probe, then copy interaction
        GateOp("ry", (PROBE_Z,), theta_w),
        GateOp("cnot", (SYSTEM, PROBE_Z)),
        # weak probe of X: same block inside a basis change on the system
        GateOp("h", (SYSTEM,)),
        GateOp("ry", (PROBE_X,), theta_w),
        GateOp("cnot", (SYSTEM, PROBE_X)),
        GateOp("h", (SYSTEM,)),
        # main measurement of Z at variable strength
        GateOp("ry", (METER,), theta),
        GateOp("cnot", (SYSTEM, METER)),
        # X-basis readout of the system
        GateOp("h", (SYSTEM,)),
    )
    measurements = (
        (PROBE_Z, "z_i"),
        (PROBE_X, "x_i"),
        (METER, "z_f"),
        (SYSTEM, "x_f"),
    )
    return Circuit(4, ops, measurements)


def export_qasm(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0 text (UTF-8, LF endings, deterministic)."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    if circuit.measurements:
        lines.append(f"creg c[{len(circuit.measurements)}];")
    for op in circuit.ops:
        if op.kind in ("rx", "ry"):
            lines.append(f"{op.kind}({op.angle!r}) q[{op.qubits[0]}];")
        elif op.kind == "cnot":
            lines.append(f"cx q[{op.qubits[0]}],q[{op.qubits[1]}];")
        else:
            lines.append(f"{op.kind} q[{op.qubits[0]}];")
    for slot, (q, _) in enumerate(circuit.measurements):
        lines.append(f"measure q[{q}] -> c[{slot}];")
    return "\n".join(lines) + "\n"
