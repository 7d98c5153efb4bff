"""Coherent, Holevo, and generalized information of channels and ensembles.

A :class:`CQEnsemble` holds classically indexed pure states on an input
system A together with a reference R.  For a channel N acting on A, the
generalized information of the ensemble splits as

    i_g = r_c + r_q,
    r_c = S(avg_x N(rho_x))       - sum_x p_x S(N(rho_x)),
    r_q = sum_x p_x [ S(N(rho_x)) - S((N tensor id_R)(psi_x)) ],

where rho_x is the A-marginal of the branch psi_x.  With a trivial reference
this reduces to the Holevo quantity of the induced classical-quantum ensemble,
and a single-entry ensemble reduces to coherent information of its branch.
The classical index never enters as an explicit tensor factor, and neither
does R: every rate depends on psi_x only through rho_x.  Each branch psi_x is
pure, so S((N tensor id_R)(psi_x)) equals the entropy of the complementary
output N^c(rho_x)_jk = Tr[K_j rho_x K_k^dagger] (Devetak & Shor, CMP 256,
2005).  One fixed matrix per channel takes a batch of vec(rho_x) to both
N(rho_x) and N^c(rho_x).  With a trivial reference (d_R = 1) S(BR) is S(B)
itself, so the Holevo reduction r_q = 0 holds exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import QuantumChannel, apply_channel, compose
from .errors import DimensionMismatchError, ValidationError, _positive_int
from .linalg import batched_entropy, entropy_of_matrix
from .spaces import TensorSpace
from .states import DensityMatrix, PureState, partial_trace

PROB_TOL = 1e-9
MAX_ENSEMBLE_ENTRIES = 4096


def _probabilities(probs) -> np.ndarray:
    """Finite weights, nonnegative within 1e-9 and summing to 1 within 1e-8, renormalized."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if not np.isfinite(p).all():
        raise ValidationError("ensemble probabilities have NaN or infinite entries")
    if np.any(p < -PROB_TOL):
        raise ValidationError("ensemble probabilities must be nonnegative")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"ensemble probabilities sum to {total:.8f}, expected 1")
    return p / total


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """Pure-state ensemble {p_x, |psi_x> on A tensor R} with classical index x."""

    dim_a: int
    dim_r: int
    probs: np.ndarray
    vectors: np.ndarray  # shape (n, dim_a * dim_r)

    def __post_init__(self) -> None:
        message = f"ensemble dimensions {self.dim_a!r}, {self.dim_r!r} must be positive integers"
        object.__setattr__(self, "dim_a", _positive_int(self.dim_a, message))
        object.__setattr__(self, "dim_r", _positive_int(self.dim_r, message))
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.shape != (p.size, self.dim_a * self.dim_r):
            raise DimensionMismatchError(
                f"vectors shape {v.shape} does not match ({p.size}, {self.dim_a * self.dim_r})")
        if p.size == 0:
            raise ValidationError("ensemble needs at least one entry")
        if p.size > MAX_ENSEMBLE_ENTRIES:
            raise ValidationError(f"ensemble has {p.size} entries, limit {MAX_ENSEMBLE_ENTRIES}")
        if not np.isfinite(v).all():
            raise ValidationError("ensemble vectors have NaN or infinite entries")
        p = _probabilities(p)
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValidationError("every ensemble vector must have unit norm")
        v = v / norms[:, None]
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def branch(self, x: int) -> PureState:
        space = TensorSpace.of(("A", self.dim_a), ("R", self.dim_r))
        return PureState(space, self.vectors[x])

    def average_input(self) -> DensityMatrix:
        """The A-marginal sum_x p_x Tr_R |psi_x><psi_x|."""
        psi = self.vectors.reshape(self.size, self.dim_a, self.dim_r)
        m = np.einsum("x,xar,xbr->ab", self.probs, psi, psi.conj())
        return DensityMatrix(TensorSpace.single("A", self.dim_a), m)

    @staticmethod
    def from_states(entries: Sequence[tuple[float, PureState]]) -> "CQEnsemble":
        if not entries:
            raise ValidationError("ensemble needs at least one entry")
        dims = entries[0][1].space.dims
        if len(dims) != 2:
            raise ValidationError("ensemble branches must live on a two-subsystem space")
        for _, state in entries:
            if state.space.dims != dims:
                raise DimensionMismatchError("all branches must share one space")
        return CQEnsemble(dims[0], dims[1],
                          np.array([p for p, _ in entries], dtype=float),
                          np.stack([s.vector for _, s in entries]))


class GeneralizedInfo(NamedTuple):
    i_g: float
    r_c: float
    r_q: float


def _output_map(kraus: np.ndarray) -> np.ndarray:
    """Matrix taking row-major vec(rho) to [vec N(rho), vec N^c(rho)].

    ``kraus`` has shape (K, d_B, d_A); the result has shape
    (d_A^2, d_B^2 + K^2), with N^c(rho)_jk = Tr[K_j rho K_k^dagger].
    """
    n_k, d_b, d_a = kraus.shape
    direct = np.einsum("kba,kcd->adbc", kraus, kraus.conj()).reshape(d_a * d_a, d_b * d_b)
    comp = np.einsum("jba,kbd->adjk", kraus, kraus.conj()).reshape(d_a * d_a, n_k * n_k)
    return np.concatenate([direct, comp], axis=1)


def _branch_outputs(out_map: np.ndarray, d_b: int, rho: np.ndarray):
    """(N(rho), N^c(rho)) for a batch rho (..., d_A, d_A) and ``_output_map``."""
    lead, d_a = rho.shape[:-2], rho.shape[-1]
    n_k = math.isqrt(out_map.shape[1] - d_b * d_b)
    out = rho.reshape(-1, d_a * d_a) @ out_map
    return (out[:, :d_b * d_b].reshape(*lead, d_b, d_b),
            out[:, d_b * d_b:].reshape(*lead, n_k, n_k))


def generalized_information(ensemble: CQEnsemble, channel: QuantumChannel) -> GeneralizedInfo:
    """Classical and quantum information components of an ensemble over a channel.

    ``r_q`` is returned with its sign; callers interested in achievable rate
    regions should clamp it at zero.
    """
    if channel.dim_in != ensemble.dim_a:
        raise DimensionMismatchError(
            f"channel input dimension {channel.dim_in} differs from "
            f"ensemble A dimension {ensemble.dim_a}")
    psi = ensemble.vectors.reshape(ensemble.size, ensemble.dim_a, ensemble.dim_r)
    p = ensemble.probs
    sigma_b, env = _branch_outputs(_output_map(np.stack(channel.kraus)), channel.dim_out,
                                   psi @ psi.conj().swapaxes(-1, -2))
    s_b = batched_entropy(sigma_b)
    s_br = s_b if ensemble.dim_r == 1 else batched_entropy(env)
    s_avg = entropy_of_matrix((p[:, None, None] * sigma_b).sum(axis=0))
    r_c = float(s_avg - np.dot(p, s_b))
    r_q = float(np.dot(p, s_b - s_br))
    return GeneralizedInfo(r_c + r_q, r_c, r_q)


def holevo_information(ensemble, channel: QuantumChannel) -> float:
    """Holevo quantity of the output ensemble {p_x, N(rho_x)}.

    ``ensemble`` may be a :class:`CQEnsemble` (branch A-marginals are used)
    or a sequence of ``(prob, DensityMatrix)`` pairs whose whole states, of
    any subsystem structure, are the channel input.  That form applies the
    Kraus operators through :func:`qcap.channels.apply_channel`, a path
    independent of the output map that the ensemble form shares with
    :mod:`qcap.tradeoff`.
    """
    if isinstance(ensemble, CQEnsemble):
        # with branch R-marginals traced out, only the classical part remains
        return generalized_information(ensemble, channel).r_c
    probs = _probabilities([p for p, _ in ensemble])
    outputs = []
    for _, rho in ensemble:
        if not isinstance(rho, DensityMatrix):
            raise ValidationError("ensemble entries must be (prob, DensityMatrix) pairs")
        if rho.dim != channel.dim_in:
            raise DimensionMismatchError(
                f"ensemble state dimension {rho.dim} differs from channel input "
                f"{channel.dim_in}")
        whole = DensityMatrix(TensorSpace.single("A", rho.dim), rho.matrix)
        outputs.append(apply_channel(channel, whole).matrix)
    stack = np.stack(outputs)
    avg = np.einsum("x,xab->ab", probs, stack)
    return float(entropy_of_matrix(avg) - np.dot(probs, batched_entropy(stack)))


def coherent_information(state: DensityMatrix | PureState, channel: QuantumChannel,
                         target: str | None = None) -> float:
    """Coherent information S(B) - S(BR) = S(N(rho)) - S(N^c(rho)) of a channel.

    For a :class:`DensityMatrix` input the whole state is rho, the channel
    input.  A :class:`PureState` input must live on an input-plus-reference
    space; rho is its marginal on ``target`` (default: the first subsystem)
    and everything else is the reference.
    """
    if isinstance(state, PureState):
        if len(state.space.labels) < 2:
            raise ValidationError("pure input must include a reference subsystem")
        label = target if target is not None else state.space.labels[0]
        state = partial_trace(state.density(), label)
    if state.dim != channel.dim_in:
        raise DimensionMismatchError(
            f"state dimension {state.dim} differs from channel input {channel.dim_in}")
    sigma_b, env = _branch_outputs(_output_map(np.stack(channel.kraus)), channel.dim_out,
                                   state.matrix)
    return entropy_of_matrix(sigma_b) - entropy_of_matrix(env)


def data_processing_gap(ensemble: CQEnsemble, channel: QuantumChannel,
                        post: QuantumChannel) -> float:
    """i_g(channel) - i_g(post . channel); nonnegative up to roundoff."""
    before = generalized_information(ensemble, channel).i_g
    after = generalized_information(ensemble, compose(post, channel)).i_g
    return before - after
