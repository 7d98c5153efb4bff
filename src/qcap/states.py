"""Density matrices and pure states on labeled tensor spaces.

Matrices are stored in the row-major Kronecker convention matching the
subsystem order of their :class:`~qcap.spaces.TensorSpace`.  Construction
validates hermiticity, unit trace, and positivity; roundoff-scale negative
eigenvalues down to -1e-10 are tolerated and clamped inside entropy and
fidelity computations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    SUPPORT_CUTOFF,
    entropy_from_probs,
    hermitize,
    sqrt_psd,
)
from .spaces import TensorSpace, _as_label_set

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
BLOCK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix on a labeled tensor space."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.space.dim
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match space dimension {d}")
        if not np.isfinite(m).all():
            raise ValidationError("matrix has NaN or infinite entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValidationError("matrix trace differs from 1 by more than 1e-10")
        low = float(np.min(np.linalg.eigvalsh(hermitize(m))))
        if low < EIGENVALUE_FLOOR:
            raise ValidationError(f"matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, clamped to [0, 1] and renormalized."""
        w = np.clip(np.linalg.eigvalsh(hermitize(self.matrix)), 0.0, None)
        return w / w.sum()


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector on a labeled tensor space."""

    space: TensorSpace
    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=np.complex128).reshape(-1)
        if v.shape != (self.space.dim,):
            raise DimensionMismatchError(
                f"vector length {v.shape[0]} does not match space dimension {self.space.dim}")
        if not np.isfinite(v).all():
            raise ValidationError("vector has NaN or infinite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"vector norm {norm:.6f} differs from 1")
        object.__setattr__(self, "vector", v / norm)

    def density(self) -> DensityMatrix:
        v = self.vector
        return DensityMatrix(self.space, np.outer(v, v.conj()))


def basis_state(space: TensorSpace, index: int) -> PureState:
    """Computational basis vector ``index`` of the full space."""
    if not 0 <= index < space.dim:
        raise ValidationError(f"basis index {index} out of range for dimension {space.dim}")
    v = np.zeros(space.dim, dtype=np.complex128)
    v[index] = 1.0
    return PureState(space, v)


def maximally_mixed(space: TensorSpace) -> DensityMatrix:
    d = space.dim
    return DensityMatrix(space, np.eye(d, dtype=np.complex128) / d)


def maximally_entangled(space: TensorSpace) -> PureState:
    """Maximally entangled vector across a two-subsystem space of equal dims."""
    dims = space.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise DimensionMismatchError("maximally entangled state needs two equal subsystems")
    d = dims[0]
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(space, v)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; label sets must be disjoint."""
    return DensityMatrix(a.space.tensor(b.space), np.kron(a.matrix, b.matrix))


def _as_tensor(rho: DensityMatrix) -> np.ndarray:
    dims = rho.space.dims
    return rho.matrix.reshape(dims + dims)


def partial_trace(rho: DensityMatrix, keep: str | Iterable[str]) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep``.

    The result keeps the retained subsystems in their original order.
    """
    keep_set = set(_as_label_set(keep))
    rho.space.positions(keep_set)  # validates labels
    sub = rho.space.restrict(keep_set)
    n = len(rho.space.subsystems)
    order = sorted(range(n), key=lambda i: rho.space.labels[i] not in keep_set)
    t = _as_tensor(rho).transpose(order + [n + i for i in order])
    d = sub.dim
    m = t.reshape(d, rho.space.dim // d, d, -1).trace(axis1=1, axis2=3)
    return DensityMatrix(sub, m)


def permute_subsystems(rho: DensityMatrix, order: Iterable[str]) -> DensityMatrix:
    """Relabel-preserving reorder of subsystems to the given label order."""
    new_space = rho.space.reorder(order)
    perm = list(rho.space.positions(new_space.labels))
    n = len(perm)
    t = _as_tensor(rho).transpose(perm + [n + p for p in perm])
    d = rho.space.dim
    return DensityMatrix(new_space, t.reshape(d, d))


def block_form(state: DensityMatrix, labels: Iterable[str]
               ) -> tuple[DensityMatrix, np.ndarray, list[np.ndarray]]:
    """Parse a source  sum_c p_c |c><c| tensor omega_c^{QR}  over labels (C, Q, R).

    Returns the state reordered to (C, Q, R), the block weights p_c, and the
    normalized QR branches omega_c.  The state must be block diagonal in the C
    basis within 1e-10.  A zero-weight branch is the placeholder |0><0|.
    """
    wanted = tuple(labels)
    if set(state.space.labels) != set(wanted) or len(state.space.labels) != 3:
        raise ValidationError(
            f"source must carry exactly the labels {wanted}, got {state.space.labels}")
    work = state if state.space.labels == wanted else permute_subsystems(state, wanted)
    d_c, d_q, d_r = work.space.dims
    d = d_q * d_r
    t4 = work.matrix.reshape(d_c, d, d_c, d)
    off = np.abs(t4.transpose(0, 2, 1, 3)[~np.eye(d_c, dtype=bool)]).max(initial=0.0)
    if off > BLOCK_TOL:
        raise ValidationError(
            f"state is not block diagonal over {wanted[0]!r}: off-block weight {off:.2e}")
    probs = np.array([float(np.trace(t4[c, :, c, :]).real) for c in range(d_c)])
    if np.any(probs < -BLOCK_TOL):
        raise ValidationError("negative block weight")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    placeholder = np.zeros((d, d), dtype=complex)
    placeholder[0, 0] = 1.0
    branches = [hermitize(t4[c, :, c, :]) / probs[c] if probs[c] > 1e-14
                else placeholder.copy() for c in range(d_c)]
    return work, probs, branches


def purify(rho: DensityMatrix, ref_label: str = "R") -> PureState:
    """A purification of ``rho`` with reference dimension equal to its rank."""
    if ref_label in rho.space.labels:
        raise ValidationError(f"reference label {ref_label!r} already used in the space")
    w, v = np.linalg.eigh(hermitize(rho.matrix))
    keep = w > SUPPORT_CUTOFF
    w = w[keep]
    v = v[:, keep]
    r = int(w.size)
    if r == 0:
        raise ValidationError("cannot purify a zero matrix")
    vec = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)  # index (a, i) row-major
    space = rho.space.tensor(TensorSpace.single(ref_label, r))
    vec = vec / np.linalg.norm(vec)
    return PureState(space, vec)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_from_probs(rho.eigenvalues())


def conditional_entropy(rho: DensityMatrix, a: str | Iterable[str],
                        b: str | Iterable[str]) -> float:
    """S(A|B) = S(AB) - S(B) for disjoint label sets A and B of ``rho``."""
    a_set, b_set = set(_as_label_set(a)), set(_as_label_set(b))
    if a_set & b_set:
        raise ValidationError(f"label sets overlap: {sorted(a_set & b_set)!r}")
    s_ab = entropy(partial_trace(rho, a_set | b_set))
    s_b = entropy(partial_trace(rho, b_set))
    return s_ab - s_b


def mutual_information(rho: DensityMatrix, a: str | Iterable[str],
                       b: str | Iterable[str],
                       c: str | Iterable[str] | None = None) -> float:
    """I(A:B) or, with ``c`` given, the conditional I(A:B|C)."""
    a_set, b_set = set(_as_label_set(a)), set(_as_label_set(b))
    c_set = set(_as_label_set(c)) if c is not None else set()
    for x, y in ((a_set, b_set), (a_set, c_set), (b_set, c_set)):
        if x & y:
            raise ValidationError(f"label sets overlap: {sorted(x & y)!r}")
    if c_set:
        return (conditional_entropy(rho, a_set, c_set)
                - conditional_entropy(rho, a_set, b_set | c_set))
    s_a = entropy(partial_trace(rho, a_set))
    s_b = entropy(partial_trace(rho, b_set))
    s_ab = entropy(partial_trace(rho, a_set | b_set))
    return s_a + s_b - s_ab


def _check_same_dim(rho: DensityMatrix, xi: DensityMatrix) -> None:
    if rho.space.dims != xi.space.dims:
        raise DimensionMismatchError(
            f"state dimensions differ: {rho.space.dims} vs {xi.space.dims}")


def fidelity(rho: DensityMatrix, xi: DensityMatrix) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) xi sqrt(rho)), in [0, 1]."""
    _check_same_dim(rho, xi)
    s = sqrt_psd(rho.matrix)
    w = np.linalg.eigvalsh(hermitize(s @ xi.matrix @ s))
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(f, 1.0)


def trace_distance(rho: DensityMatrix, xi: DensityMatrix) -> float:
    """Half the trace norm of the difference, in [0, 1]."""
    _check_same_dim(rho, xi)
    w = np.linalg.eigvalsh(hermitize(rho.matrix - xi.matrix))
    return float(0.5 * np.abs(w).sum())
