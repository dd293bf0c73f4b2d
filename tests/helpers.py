"""Independent reference implementations used as test oracles.

Everything here is literal numpy on explicit matrices, written without
the package's own linear-algebra helpers, so agreement between the two
paths is evidence rather than tautology.  The noisy oracles build every
gate from its kind and angle and every channel from a calibration
profile's fields alone, never from the package's noise model.  The
sweep-output oracles format each cell by dispatching on its value's type,
one cell at a time, where the package writes a whole row through one
precompiled template.  ``evolve`` and ``compiled_state`` are the exception:
they run the package's own step kernel, for tests that check what it
evolves rather than how.
"""

from __future__ import annotations

import json
import math

import numpy as np

from edrsim.estimators import compile_steps
from edrsim.qsim import evolve_stack

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
CX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
PSD_FLOOR = -1e-10  # the lowest eigenvalue ``validate_state`` admits


def ry_mat(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx_mat(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    return float(np.trace(rho @ rho).real)


def pure_density(*kets) -> np.ndarray:
    """|k1><k1| x |k2><k2| x ..., the first ket most significant."""
    out = np.ones((1, 1), dtype=complex)
    for ket in kets:
        ket = np.asarray(ket, dtype=complex)
        out = np.kron(out, np.outer(ket, ket.conj()))
    return out


def rand_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def rand_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1.0j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def oracle_apply_kraus(
    rho: np.ndarray, ops: list[np.ndarray], targets: list[int], num_qubits: int
) -> np.ndarray:
    """sum K_full rho K_full^dagger, each K widened to the register by literal kron.

    K_full = P^T (K x I) P, where the permutation matrix P sends register basis
    state i to the state whose bits, most significant first, are i's bits on
    ``targets`` (in that order) followed by its bits on the remaining qubits.
    """
    n = num_qubits
    order = list(targets) + [q for q in range(n) if q not in targets]
    dim = 2**n
    perm = np.zeros((dim, dim))
    for i in range(dim):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        j = 0
        for q in order:
            j = (j << 1) | bits[q]
        perm[j, i] = 1.0
    rest = np.eye(2 ** (n - len(targets)), dtype=complex)
    out = np.zeros((dim, dim), dtype=complex)
    for k in ops:
        full = perm.T @ np.kron(k, rest) @ perm
        out += full @ rho @ full.conj().T
    return out


def validate_state(rho: np.ndarray) -> None:
    """Raise ValueError unless ``rho`` is Hermitian and of unit trace within 1e-12 and has
    no eigenvalue below ``PSD_FLOOR``."""
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError(f"state trace {np.trace(rho)} is not 1")
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if lowest < PSD_FLOOR:
        raise ValueError(f"state has eigenvalue {lowest:.3e} below {PSD_FLOOR}")


def evolve(rho: np.ndarray, steps) -> np.ndarray:
    """``rho`` evolved through (superoperator, targets) ``steps`` in order, each step one
    ``evolve_stack`` call on a stack of one state: the package's path, not an oracle."""
    mats = np.asarray(rho, dtype=complex)[None]
    for superop, targets in steps:
        mats = evolve_stack(mats, superop, targets)
    return mats[0]


def ground_density(num_qubits: int) -> np.ndarray:
    """|0...0><0...0| on ``num_qubits`` qubits."""
    return pure_density(*[[1.0, 0.0]] * num_qubits)


def compiled_state(circuit, noise=None) -> np.ndarray:
    """|0...0> evolved through ``compile_steps(circuit, noise)`` by ``evolve``."""
    return evolve(ground_density(circuit.num_qubits), compile_steps(circuit, noise))


def oracle_gate_unitary(op) -> np.ndarray:
    """A ``GateOp``'s unitary from its kind and angle, by the literal matrices above."""
    if op.kind == "rx":
        return rx_mat(op.angle)
    if op.kind == "ry":
        return ry_mat(op.angle)
    return {"h": HADAMARD, "x": SX, "cnot": CX}[op.kind]


def oracle_depolarizing_kraus(error: float, num_qubits: int) -> list[np.ndarray]:
    """Depolarizing with p = min(e d / (d - 1), 1) over the literal Pauli products, first
    qubit most significant: weight 1 - p + p / d^2 on the identity, p / d^2 on the rest."""
    d = 2**num_qubits
    p = min(error * d / (d - 1.0), 1.0)
    products = [ID2, SX, SY, SZ]
    if num_qubits == 2:
        products = [np.kron(a, b) for a in products for b in products]
    weights = [1.0 - p + p / d**2] + [p / d**2] * (d**2 - 1)
    return [math.sqrt(w) * m for w, m in zip(weights, products)]


def oracle_relaxation_kraus(t1_us: float, t2_us: float, duration_ns: float) -> list[np.ndarray]:
    """Amplitude damping with gamma = 1 - exp(-t/T1), then dephasing to the coherence
    exp(-t/T2) / sqrt(1 - gamma) that the damping leaves to reach, as the products."""
    t_us = duration_ns / 1000.0
    gamma = 1.0 - math.exp(-t_us / t1_us)
    coherence = min(math.exp(-t_us / t2_us) / math.sqrt(1.0 - gamma), 1.0)  # rounds past 1 at T2 = 2 T1
    damping = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    dephasing = [math.sqrt((1.0 + coherence) / 2.0) * ID2, math.sqrt((1.0 - coherence) / 2.0) * SZ]
    return [d @ a for d in dephasing for a in damping]


def oracle_noise_after(op, profile, include_idle: bool, num_qubits: int) -> list:
    """(Kraus operators, targets) after ``op``, from the profile's fields alone: the gate
    class's depolarizing on its qubits, then relaxation over the gate class's own duration
    on every qubit in order, or only on the gate's qubits without idle relaxation."""
    cnot = op.kind == "cnot"
    error = profile.cnot_error if cnot else profile.single_qubit_gate_error
    duration = profile.cnot_duration_ns if cnot else profile.single_qubit_gate_duration_ns
    out = [(oracle_depolarizing_kraus(error, len(op.qubits)), op.qubits)]
    for q in range(num_qubits) if include_idle else op.qubits:
        qubit = profile.qubits[q]
        out.append((oracle_relaxation_kraus(qubit.t1_us, qubit.t2_us, duration), (q,)))
    return out


def oracle_kraus_state(circuit, kraus_after) -> np.ndarray:
    """|0...0> evolved through ``circuit`` by literal 2**n x 2**n algebra: each gate's
    ``oracle_gate_unitary``, then the (Kraus operators, targets) pairs ``kraus_after(op)``
    lists, in order, each through ``oracle_apply_kraus``."""
    n = circuit.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for op in circuit.ops:
        rho = oracle_apply_kraus(rho, [oracle_gate_unitary(op)], list(op.qubits), n)
        for kraus, targets in kraus_after(op):
            rho = oracle_apply_kraus(rho, kraus, list(targets), n)
    return rho


def oracle_noisy_state(circuit, profile, include_idle: bool) -> np.ndarray:
    """``oracle_kraus_state`` under the channels ``oracle_noise_after`` builds from ``profile``."""
    n = circuit.num_qubits
    return oracle_kraus_state(circuit, lambda op: oracle_noise_after(op, profile, include_idle, n))


def oracle_noisy_outcome_distribution(circuit, profile, include_idle: bool) -> np.ndarray:
    """Readout probabilities of ``circuit`` under ``profile`` from ``oracle_noisy_state``.

    Readout confusion is the kron of the measured qubits' confusion matrices
    [[1 - e01, e10], [e01, 1 - e10]], built from the profile's readout errors,
    acting on the measured-bit distribution.
    """
    n = circuit.num_qubits
    rho = oracle_noisy_state(circuit, profile, include_idle)
    measured = list(circuit.measured_qubits)
    probs = np.zeros(2 ** len(measured))
    for index in range(2**n):
        packed = 0
        for q in measured:
            packed = (packed << 1) | ((index >> (n - 1 - q)) & 1)
        probs[packed] += rho[index, index].real
    confusion = np.ones((1, 1))
    for q in measured:
        e01, e10 = profile.qubits[q].readout_error_01, profile.qubits[q].readout_error_10
        confusion = np.kron(confusion, np.array([[1.0 - e01, e10], [e01, 1.0 - e10]]))
    return confusion @ probs


def _meter_extension(rho: np.ndarray, strength: float) -> np.ndarray:
    meter = ry_mat(math.acos(strength)) @ np.array([1.0, 0.0], dtype=complex)
    return np.kron(rho, np.outer(meter, meter.conj()))


def oracle_error(rho: np.ndarray, strength: float) -> float:
    """Root-mean-square discrepancy between meter reading and Z, by definition."""
    joint = _meter_extension(rho, strength)
    heisenberg_meter = CX.conj().T @ np.kron(ID2, SZ) @ CX
    noise_op = heisenberg_meter - np.kron(SZ, ID2)
    value = np.trace(joint @ noise_op @ noise_op).real
    return math.sqrt(max(value, 0.0))


def oracle_disturbance(rho: np.ndarray, strength: float) -> float:
    """Root-mean-square change of X across the interaction, by definition."""
    joint = _meter_extension(rho, strength)
    x_before = np.kron(SX, ID2)
    x_after = CX.conj().T @ x_before @ CX
    diff = x_after - x_before
    value = np.trace(joint @ diff @ diff).real
    return math.sqrt(max(value, 0.0))


def oracle_outcome_distribution(theta_w: float, theta: float) -> np.ndarray:
    """16 noiseless readout probabilities via one literal 16x16 simulation.

    Qubit order (system, probe_z, probe_x, meter), most significant first;
    readout bits packed as (z_i, x_i, z_f, x_f) = qubits (1, 2, 3, 0).
    """

    def chain(mats: list[np.ndarray]) -> np.ndarray:
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        return full

    def on1(op: np.ndarray, qubit: int) -> np.ndarray:
        mats = [ID2] * 4
        mats[qubit] = op
        return chain(mats)

    def cnot_on(control: int, target: int) -> np.ndarray:
        p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        a = [ID2] * 4
        a[control] = p0
        b = [ID2] * 4
        b[control] = p1
        b[target] = SX
        return chain(a) + chain(b)

    ket = np.zeros(16, dtype=complex)
    ket[0] = 1.0
    for mat in (
        on1(rx_mat(math.pi / 2.0), 0),
        on1(ry_mat(theta_w), 1),
        cnot_on(0, 1),
        on1(HADAMARD, 0),
        on1(ry_mat(theta_w), 2),
        cnot_on(0, 2),
        on1(HADAMARD, 0),
        on1(ry_mat(theta), 3),
        cnot_on(0, 3),
        on1(HADAMARD, 0),
    ):
        ket = mat @ ket
    amp2 = np.abs(ket) ** 2
    probs = np.zeros(16)
    for index in range(16):
        bits = [(index >> (3 - q)) & 1 for q in range(4)]
        packed = (bits[1] << 3) | (bits[2] << 2) | (bits[3] << 1) | bits[0]
        probs[packed] += amp2[index]
    return probs


def oracle_ideal_weak_valued_squares(theta_w: float, strength: float) -> tuple[float, float]:
    """Closed-form weak-valued (epsilon^2, eta^2) of the noiseless circuit.

    epsilon^2 = 2 (1 - s sin(theta_w)): the X probe dephases Z by sin(theta_w).
    eta^2 = 2 (1 - sqrt(1 - s^2)), written as 2 s^2 / (1 + sqrt(1 - s^2)) so that
    it does not cancel near s = 0: no probe acts on X after the X probe.
    """
    s = strength
    return 2.0 * (1.0 - s * math.sin(theta_w)), 2.0 * s * s / (1.0 + math.sqrt(1.0 - s * s))


def oracle_correlators(probs: np.ndarray) -> np.ndarray:
    """(E_z, E_x) = p++ + p-- - p+- - p-+ of the (z_i, z_f) and (x_i, x_f) pair marginals.

    ``probs`` holds the 16 readout probabilities, bits (z_i, x_i, z_f, x_f);
    bit value 0 reads +1 and bit value 1 reads -1.
    """
    table = np.asarray(probs, dtype=float).reshape((2, 2, 2, 2))
    out = []
    for pair in (table.sum(axis=(1, 3)), table.sum(axis=(0, 2))):
        out.append(pair[0, 0] + pair[1, 1] - pair[0, 1] - pair[1, 0])
    return np.array(out)


def oracle_weak_valued_squares(probs: np.ndarray, theta_w: float) -> np.ndarray:
    """Weak-valued (epsilon^2, eta^2) = 2 (1 - E / cos(theta_w)) from the pair marginals."""
    return 2.0 * (1.0 - oracle_correlators(probs) / math.cos(theta_w))


def oracle_row_stats(squares, sigma_a: float, sigma_b: float, c: float) -> dict:
    """Every statistic of one sweep row from its (repeats, 2) squared estimates.

    Plain Python ``math`` on the literal formulas: roots of the squares
    clamped at zero, means summed in repeat order, the four relations at the
    means and at each repeat with epsilon and eta clamped to [0, 2], and each
    scatter taken about the value at the means.
    """
    eps = [math.sqrt(max(float(square), 0.0)) for square, _ in squares]
    eta = [math.sqrt(max(float(square), 0.0)) for _, square in squares]

    def mean(values):
        total = 0.0
        for value in values:
            total += value
        return total / len(values)

    def rms(values, center):
        return math.sqrt(mean([(value - center) ** 2 for value in values]))

    def relations(e, n):
        e, n = min(max(e, 0.0), 2.0), min(max(n, 0.0), 2.0)
        te, tn = e * math.sqrt(1.0 - e**2 / 4.0), n * math.sqrt(1.0 - n**2 / 4.0)
        root = math.sqrt(max((sigma_a * sigma_b) ** 2 - c**2, 0.0))
        return {
            "heisenberg": e * n,
            "ozawa": e * sigma_b + sigma_a * n + e * n,
            "branciard": math.sqrt((e * sigma_b) ** 2 + (sigma_a * n) ** 2 + 2.0 * e * n * root),
            "strong_branciard": math.sqrt(
                te**2 + tn**2 + 2.0 * te * tn * math.sqrt(max(1.0 - c**2, 0.0))
            ),
        }

    eps_mean, eta_mean = mean(eps), mean(eta)
    stats = {
        "epsilon_mean": eps_mean,
        "epsilon_rms": rms(eps, eps_mean),
        "eta_mean": eta_mean,
        "eta_rms": rms(eta, eta_mean),
        "sigma_a": sigma_a,
        "sigma_b": sigma_b,
        "c": c,
    }
    per_repeat = [relations(e, n) for e, n in zip(eps, eta)]
    for name, lhs in relations(eps_mean, eta_mean).items():
        stats[f"{name}_lhs"] = lhs
        stats[f"{name}_rms"] = rms([values[name] for values in per_repeat], lhs)
        stats[f"{name}_satisfied"] = lhs >= c - 1e-9
    return stats


# The sweep's 25 output columns, in order, written out literally.
SWEEP_COLUMNS = (
    "strength", "method", "epsilon_mean", "epsilon_rms", "eta_mean", "eta_rms",
    "epsilon_exact", "eta_exact", "sigma_a", "sigma_b", "c",
    "heisenberg_lhs", "heisenberg_rms", "heisenberg_satisfied",
    "ozawa_lhs", "ozawa_rms", "ozawa_satisfied",
    "branciard_lhs", "branciard_rms", "branciard_satisfied",
    "strong_branciard_lhs", "strong_branciard_rms", "strong_branciard_satisfied",
    "shots", "repeats",
)


def oracle_csv_cell(value: object) -> str:
    """One CSV cell, chosen by the value's own type."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def oracle_json_value(value: object) -> str:
    """One JSON value, chosen by the value's own type, recursing into lists and dicts."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(oracle_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {oracle_json_value(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def oracle_emit_csv(rows) -> str:
    """Sweep CSV text: the header, then one line of cells per row, LF endings."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(oracle_csv_cell(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def oracle_emit_json(rows, summary: dict | None) -> str:
    """Sweep JSON text: the schema-1 envelope around ``summary`` and one object per row."""
    lines = ["{", '  "schema_version": 1,']
    lines.append(f'  "config": {oracle_json_value(summary)},')
    lines.append('  "rows": [')
    for pos, row in enumerate(rows):
        cells = ", ".join(
            f"{json.dumps(col)}: {oracle_json_value(getattr(row, col))}" for col in SWEEP_COLUMNS
        )
        comma = "," if pos + 1 < len(rows) else ""
        lines.append("    {" + cells + "}" + comma)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"
