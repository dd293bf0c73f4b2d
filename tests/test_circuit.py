import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edrsim.circuit import (
    METER,
    PROBE_X,
    PROBE_Z,
    SYSTEM,
    Circuit,
    GateOp,
    angle_for_strength,
    build_edr_circuit,
    export_qasm,
)


def test_angle_strength_endpoints():
    assert angle_for_strength(1.0) == 0.0
    assert angle_for_strength(0.0) == math.pi / 2.0
    assert abs(angle_for_strength(0.5) - math.pi / 3.0) < 1e-15
    with pytest.raises(ValueError):
        angle_for_strength(1.2)
    with pytest.raises(ValueError):
        angle_for_strength(-0.1)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0))
def test_angle_strength_roundtrip(strength):
    assert abs(math.cos(angle_for_strength(strength)) - strength) < 1e-12


def test_gate_op_validation():
    with pytest.raises(ValueError):
        GateOp("swap", (0, 1))
    with pytest.raises(ValueError):
        GateOp("cnot", (1, 1))
    with pytest.raises(ValueError):
        GateOp("cnot", (1,))
    with pytest.raises(ValueError):
        GateOp("ry", (0,))
    with pytest.raises(ValueError):
        GateOp("ry", (0,), math.inf)
    with pytest.raises(ValueError):
        GateOp("h", (0,), 0.5)


def test_circuit_validation():
    ops = (GateOp("h", (0,)),)
    with pytest.raises(ValueError):
        Circuit(1, (GateOp("h", (1,)),))
    with pytest.raises(ValueError):
        Circuit(1, ops, ((0, "a"), (0, "b")))
    with pytest.raises(ValueError):
        Circuit(2, ops, ((0, "a"), (1, "a")))


def test_edr_circuit_structure():
    theta_w = angle_for_strength(0.05)
    theta = angle_for_strength(0.5)
    circ = build_edr_circuit(theta_w, theta)
    assert circ.num_qubits == 4
    kinds = [op.kind for op in circ.ops]
    assert kinds == ["rx", "ry", "cnot", "h", "ry", "cnot", "h", "ry", "cnot", "h"]
    assert kinds.count("cnot") == 3 and kinds.count("ry") == 3
    assert kinds.count("h") == 3 and kinds.count("rx") == 1
    assert len(circ.measurements) == 4

    assert circ.ops[0].qubits == (SYSTEM,) and circ.ops[0].angle == math.pi / 2.0
    assert circ.ops[1] == GateOp("ry", (PROBE_Z,), theta_w)
    assert circ.ops[2] == GateOp("cnot", (SYSTEM, PROBE_Z))
    assert circ.ops[4] == GateOp("ry", (PROBE_X,), theta_w)
    assert circ.ops[5] == GateOp("cnot", (SYSTEM, PROBE_X))
    assert circ.ops[7] == GateOp("ry", (METER,), theta)
    assert circ.ops[8] == GateOp("cnot", (SYSTEM, METER))
    # probe of X is wrapped in the basis change; the last h reads out in X
    assert [op.qubits for op in circ.ops if op.kind == "h"] == [(SYSTEM,)] * 3

    assert circ.measurements == (
        (PROBE_Z, "z_i"),
        (PROBE_X, "x_i"),
        (METER, "z_f"),
        (SYSTEM, "x_f"),
    )


def test_edr_circuit_rejects_bad_angles():
    with pytest.raises(ValueError):
        build_edr_circuit(-0.1, 0.5)
    with pytest.raises(ValueError):
        build_edr_circuit(1.5, 3.0)


def test_edr_circuit_fits_star_device_through_layout():
    # a star device with hub 1 and leaves 0, 2, 3, as undirected edges
    star = {frozenset(edge) for edge in ((0, 1), (1, 2), (1, 3))}
    layout = {SYSTEM: 1, PROBE_Z: 0, PROBE_X: 2, METER: 3}
    circ = build_edr_circuit(angle_for_strength(0.05), angle_for_strength(0.3))
    pairs = [op.qubits for op in circ.ops if op.kind == "cnot"]
    # every CNOT touches the system, so with the system on the hub all of them fit
    assert all(SYSTEM in pair for pair in pairs)
    assert {frozenset(layout[q] for q in pair) for pair in pairs} <= star
    # identity placement cannot fit: the system talks to all three others
    assert {pair for pair in pairs if frozenset(pair) not in star} == {
        (SYSTEM, PROBE_X),
        (SYSTEM, METER),
    }
    chain = {frozenset(edge) for edge in ((0, 1), (1, 2), (2, 3))}
    assert sum(frozenset(pair) not in chain for pair in pairs) == 2


def test_export_qasm_golden():
    circ = build_edr_circuit(angle_for_strength(0.05), angle_for_strength(0.5))
    text = export_qasm(circ)
    assert text == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\n"
        "creg c[4];\n"
        "rx(1.5707963267948966) q[0];\n"
        "ry(1.5207754699891265) q[1];\n"
        "cx q[0],q[1];\n"
        "h q[0];\n"
        "ry(1.5207754699891265) q[2];\n"
        "cx q[0],q[2];\n"
        "h q[0];\n"
        "ry(1.0471975511965979) q[3];\n"
        "cx q[0],q[3];\n"
        "h q[0];\n"
        "measure q[1] -> c[0];\n"
        "measure q[2] -> c[1];\n"
        "measure q[3] -> c[2];\n"
        "measure q[0] -> c[3];\n"
    )


def test_export_qasm_angles_roundtrip():
    circ = build_edr_circuit(angle_for_strength(0.05), angle_for_strength(0.7))
    text = export_qasm(circ)
    angles = [
        float(line.split("(")[1].split(")")[0])
        for line in text.splitlines()
        if line.startswith(("rx(", "ry("))
    ]
    assert angles[0] == math.pi / 2.0
    assert angles[1] == angles[2] == angle_for_strength(0.05)
    assert angles[3] == angle_for_strength(0.7)
