"""Dense density-matrix simulation for small qubit registers.

States are 2**n x 2**n complex density matrices with qubit 0 as the most
significant tensor factor, i.e. the basis index of |b0 b1 ... b(n-1)> is
the integer with bit b0 in the highest position.  Every operation returns
a new state; nothing is mutated in place, so states can be shared freely
across threads and processes.

Numerical contracts, assuming double precision and registers of at most
about ten qubits: equality-type checks use an absolute tolerance of
``ATOL`` (1e-12).  Hermiticity and unit trace are enforced on
construction, but not on an evolution's output (``check=False``), which
a trace-preserving map keeps valid.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
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


@dataclass(frozen=True)
class DensityMatrix:
    """Immutable density matrix over ``num_qubits`` qubits."""

    num_qubits: int
    mat: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        dim = 2**self.num_qubits
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {self.num_qubits} qubit(s)")
        if check:
            _require_hermitian(mat, "density matrix")
            tr = np.trace(mat)
            if abs(tr - 1.0) > ATOL:
                raise ValueError(f"density matrix trace {tr} is not 1")

    @classmethod
    def ground(cls, num_qubits: int) -> "DensityMatrix":
        """The all-zeros computational basis state."""
        dim = 2**num_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        return cls(num_qubits, mat)

    def evolve(self, superop: np.ndarray, targets: Sequence[int]) -> "DensityMatrix":
        """rho -> S(rho) for a superoperator S on ``targets`` (their order defines the wiring):
        ``evolve_stack`` on a stack of one.  The trace is preserved when S is trace preserving."""
        out = evolve_stack(self.mat[None], superop, targets)[0]
        return DensityMatrix(self.num_qubits, out, check=False)

    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Reduced state over ``keep``, ordered as listed."""
        keep = tuple(keep)
        _check_targets(keep, self.num_qubits)
        n = self.num_qubits
        keepset = set(keep)
        t = self.mat.reshape((2,) * (2 * n))
        row = list(range(n))
        col = [n + q if q in keepset else q for q in range(n)]
        out = [row[q] for q in keep] + [col[q] for q in keep]
        reduced = np.einsum(t, row + col, out)
        k = len(keep)
        return DensityMatrix(k, reduced.reshape(2**k, 2**k))

    def expectation(self, obs: np.ndarray) -> float:
        """Real expectation value of a Hermitian observable on the full register."""
        obs = np.asarray(obs, dtype=complex)
        if obs.shape != self.mat.shape:
            raise ValueError(f"observable shape {obs.shape} does not match state")
        _require_hermitian(obs, "observable")
        val = np.trace(self.mat @ obs)
        if abs(val.imag) > 1e-10:
            raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
        return float(val.real)

    def probabilities(self, targets: Sequence[int] | None = None) -> np.ndarray:
        """Measurement probabilities over ``targets`` in the computational basis.

        The returned vector has length 2**len(targets); entry ``j`` is the
        probability of the outcome whose bits, most significant first,
        follow the order of ``targets``.
        """
        if targets is None:
            targets = tuple(range(self.num_qubits))
        targets = tuple(targets)
        _check_targets(targets, self.num_qubits)
        n = self.num_qubits
        diag = np.real(np.diag(self.mat))
        idx = np.arange(2**n)
        out_index = np.zeros(2**n, dtype=np.int64)
        for q in targets:
            out_index = (out_index << 1) | ((idx >> (n - 1 - q)) & 1)
        return np.bincount(out_index, weights=diag, minlength=2 ** len(targets))
