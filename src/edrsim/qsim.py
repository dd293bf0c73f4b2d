"""Dense density-matrix simulation for small qubit registers.

A state is a plain complex 2**n x 2**n array, n read from its shape, with
qubit 0 as the most significant tensor factor, i.e. the basis index of
|b0 b1 ... b(n-1)> is the integer with bit b0 in the highest position.
No function mutates its inputs, and no state is memoised: an evolution
builds a fresh array on every call, so states can be shared freely.

Numerical contracts, assuming double precision and registers of at most
about ten qubits: equality-type checks use an absolute tolerance of
``ATOL`` (1e-12).  ``density_matrix`` enforces Hermiticity and unit trace;
an evolution's output, which a trace-preserving map keeps valid, is not
checked again.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

ATOL = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)
for _gate in (I2, X, Y, Z, H, CNOT):  # shared by every caller, and the fixed gates' channels
    _gate.flags.writeable = False


def rx(angle: float) -> np.ndarray:
    """Rotation about the x axis: [[cos a/2, -i sin a/2], [-i sin a/2, cos a/2]]."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def ry(angle: float) -> np.ndarray:
    """Rotation about the y axis: [[cos a/2, -sin a/2], [sin a/2, cos a/2]]."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@cache
def _check_targets(targets: tuple[int, ...], num_qubits: int) -> tuple[tuple[int, ...], ...]:
    """Validate targets; return the axes of a stack of (2,)*2n states in the order that puts
    the targets' rows and columns first and the stack axis after them, and the inverse
    order.  Memoised; invalid targets raise on every call."""
    if not targets:
        raise ValueError("no target qubits given")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    for q in targets:
        if not 0 <= q < num_qubits:
            raise ValueError(f"target qubit {q} outside register of {num_qubits}")
    front = tuple(1 + q for q in targets) + tuple(1 + num_qubits + q for q in targets)
    order = front + (0,) + tuple(a for a in range(1, 2 * num_qubits + 1) if a not in front)
    return order, tuple(sorted(range(2 * num_qubits + 1), key=order.__getitem__))


def evolve_stack(mats: np.ndarray, superop: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """S(m) for every matrix m of a (count, 2**n, 2**n) stack, S a superoperator on ``targets``.

    S multiplies the target (row, column) axes of each m, moved to the front,
    in one product over the whole stack; ``superoperator`` builds one such S,
    and its transpose is the map's adjoint on observables.  The
    targets and S's shape are checked on every call.
    """
    targets = tuple(targets)
    n = mats.shape[-1].bit_length() - 1
    order, back = _check_targets(targets, n)
    k = len(targets)
    if superop.shape != (4**k, 4**k):
        raise ValueError(f"superoperator {superop.shape} does not act on {k} target qubit(s)")
    t = mats.reshape((-1,) + (2,) * (2 * n)).transpose(order)
    out = (superop @ t.reshape(4**k, -1)).reshape(t.shape).transpose(back)
    return out.reshape(mats.shape)


def _require_hermitian(m: np.ndarray, what: str) -> None:
    dev = np.max(np.abs(m - m.conj().T))
    if dev > ATOL:
        raise ValueError(f"{what} is not Hermitian (deviation {dev:.3e})")


def superoperator(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """The read-only superoperator sum K x conj(K) of a channel's Kraus operators.

    The operators must be square, equally sized and complete: the sum of
    K^dagger K equals the identity within ``ATOL``.
    """
    if len(kraus) == 0:
        raise ValueError("channel needs at least one Kraus operator")
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    dim = ops[0].shape[0]
    for k in ops:
        if k.shape != (dim, dim):
            raise ValueError("Kraus operators must be square and equally sized")
    stack = np.array(ops)
    total = np.einsum("kia,kib->ab", stack.conj(), stack)  # sum K^dagger K
    total.flat[:: dim + 1] -= 1.0
    dev = np.abs(total).max()
    if dev > ATOL:
        raise ValueError(f"Kraus operators are not complete (deviation {dev:.3e})")
    superop = np.einsum("kia,kjb->ijab", stack, stack.conj())  # S[(i, j), (a, b)]
    superop = superop.reshape(dim * dim, dim * dim)
    superop.flags.writeable = False  # memoised channels and compiled steps share it
    return superop


def _num_qubits(rho: np.ndarray) -> int:
    """n for a (2**n, 2**n) array with n >= 1; raises ValueError for any other shape."""
    n = rho.shape[-1].bit_length() - 1
    if n < 1 or rho.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {rho.shape} is not (2**n, 2**n) for n >= 1 qubits")
    return n


def density_matrix(mat: np.ndarray) -> np.ndarray:
    """``mat`` as a complex state, checked: (2**n, 2**n) with n >= 1, Hermitian and of unit
    trace within ``ATOL``."""
    mat = np.asarray(mat, dtype=complex)
    _num_qubits(mat)
    _require_hermitian(mat, "density matrix")
    tr = np.trace(mat)
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    return mat


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced state over ``keep``, ordered as listed, checked by ``density_matrix``."""
    keep = tuple(keep)
    n = _num_qubits(rho)
    _check_targets(keep, n)
    keepset = set(keep)
    t = rho.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [n + q if q in keepset else q for q in range(n)]
    out = [row[q] for q in keep] + [col[q] for q in keep]
    reduced = np.einsum(t, row + col, out)
    k = len(keep)
    return density_matrix(reduced.reshape(2**k, 2**k))


def expectation(rho: np.ndarray, obs: np.ndarray) -> float:
    """Real expectation value of a Hermitian observable on the state's whole register."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != rho.shape:
        raise ValueError(f"observable shape {obs.shape} does not match state")
    _require_hermitian(obs, "observable")
    val = np.trace(rho @ obs)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def probabilities(rho: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Measurement probabilities over ``targets`` in the computational basis.

    The returned vector has length 2**len(targets); entry ``j`` is the
    probability of the outcome whose bits, most significant first,
    follow the order of ``targets``.
    """
    targets = tuple(targets)
    n = _num_qubits(rho)
    _check_targets(targets, n)
    diag = np.real(np.diag(rho))
    idx = np.arange(2**n)
    out_index = np.zeros(2**n, dtype=np.int64)
    for q in targets:
        out_index = (out_index << 1) | ((idx >> (n - 1 - q)) & 1)
    return np.bincount(out_index, weights=diag, minlength=2 ** len(targets))
