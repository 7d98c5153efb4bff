"""Quantum channels in Kraus form, with a small registry of named channels.

A channel maps ``dim_in`` to ``dim_out``; completeness ``sum K^dag K = I`` is
validated to 1e-10 at construction.  ``channel_power`` is guarded, before
any Kraus product is formed, so that the l-fold power's output map (the
d_in^(2l) x (d_out^(2l) + K^(2l)) matrix :mod:`qcap.information` builds from
it) has at most 2^25 entries: every named qubit family and a d_out = 3, K = 4
channel pass through l = 4, and depolarizing noise is refused from l = 5.
``apply_channel`` and ``stinespring`` work on the stacked Kraus operators;
the first stays Kraus-based as the reference for :mod:`qcap.information`.
The named families are covariant under diagonal phases and say so with
``phase_covariant``; tensor products keep the flag when both factors have it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError, ValidationError, _positive_int
from .spaces import TensorSpace
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-10
POWER_LOG2_LIMIT = 25.0


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    ``phase_covariant`` declares, without a numerical check, that for every
    diagonal unitary U on the input there is a unitary V on the output with
    N(U rho U^dagger) = V N(rho) V^dagger.  On a tensor product the claim
    covers the products of diagonal unitaries on its factors, which include
    Z_D = diag(exp(2 pi i j / D)) in the product basis.  :mod:`qcap.tradeoff`
    then searches smaller ensembles; a wrong flag can cost optimality, never
    the witnessed rates.  The field belongs to the constructors that can
    prove the claim; it is not a tuning option.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    phase_covariant: bool = False

    def __post_init__(self) -> None:
        message = f"channel dimensions {self.dim_in!r}, {self.dim_out!r} must be positive integers"
        object.__setattr__(self, "dim_in", _positive_int(self.dim_in, message))
        object.__setattr__(self, "dim_out", _positive_int(self.dim_out, message))
        if not self.kraus:
            raise ValidationError("a channel needs at least one Kraus operator")
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatchError(
                    f"Kraus operator shape {k.shape} differs from "
                    f"({self.dim_out}, {self.dim_in})")
            if not np.isfinite(k).all():
                raise ValidationError("Kraus operator has NaN or infinite entries")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(self.dim_in))) > COMPLETENESS_TOL:
            raise ValidationError("Kraus operators do not satisfy completeness within 1e-10")
        object.__setattr__(self, "kraus", ops)


def identity_channel(dim: int) -> QuantumChannel:
    dim = _positive_int(dim, f"identity dimension must be a positive integer, got {dim!r}")
    return QuantumChannel(dim, dim, (np.eye(dim, dtype=np.complex128),), phase_covariant=True)


def dephasing_channel(p: float) -> QuantumChannel:
    """Qubit phase noise: applies Z with probability ``p``; p = 0.5 is fully dephasing."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"dephasing probability {p} outside [0, 1]")
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    return QuantumChannel(2, 2, (np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
                                 np.sqrt(p) * z), phase_covariant=True)


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing noise with Pauli error weight ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing probability {p} outside [0, 1]")
    eye = np.eye(2, dtype=np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    return QuantumChannel(2, 2, (np.sqrt(1.0 - 0.75 * p) * eye,
                                 np.sqrt(p / 4.0) * x,
                                 np.sqrt(p / 4.0) * y,
                                 np.sqrt(p / 4.0) * z), phase_covariant=True)


def erasure_channel(p: float) -> QuantumChannel:
    """Qubit erasure: with probability ``p`` the input is replaced by a flag state."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"erasure probability {p} outside [0, 1]")
    embed = np.zeros((3, 2), dtype=np.complex128)
    embed[0, 0] = embed[1, 1] = 1.0
    k1 = np.zeros((3, 2), dtype=np.complex128)
    k1[2, 0] = 1.0
    k2 = np.zeros((3, 2), dtype=np.complex128)
    k2[2, 1] = 1.0
    return QuantumChannel(2, 3, (np.sqrt(1.0 - p) * embed, np.sqrt(p) * k1, np.sqrt(p) * k2),
                          phase_covariant=True)


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Qubit energy relaxation toward |0> with decay probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"damping probability {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return QuantumChannel(2, 2, (k0, k1), phase_covariant=True)


_NAMED_SPEC = re.compile(r"^\s*([a-z_]+)\s*\(\s*([^()]*)\s*\)\s*$")

_NAMED_CHANNELS = {
    "identity": (identity_channel, int),
    "dephasing": (dephasing_channel, float),
    "depolarizing": (depolarizing_channel, float),
    "erasure": (erasure_channel, float),
    "amplitude_damping": (amplitude_damping_channel, float),
}


def channel_from_name(text: str) -> QuantumChannel:
    """Parse a named channel such as ``"dephasing(0.1)"`` or ``"identity(2)"``."""
    match = _NAMED_SPEC.match(text)
    if not match:
        raise ValidationError(
            f"cannot parse channel {text!r}; expected name(argument), "
            f"names: {sorted(_NAMED_CHANNELS)}")
    name, arg = match.group(1), match.group(2)
    if name not in _NAMED_CHANNELS:
        raise ValidationError(f"unknown channel name {name!r}; names: {sorted(_NAMED_CHANNELS)}")
    factory, cast = _NAMED_CHANNELS[name]
    try:
        value = cast(arg)
    except ValueError:
        raise ValidationError(f"channel argument {arg!r} is not a valid {cast.__name__}")
    return factory(value)


def apply_channel(channel: QuantumChannel, rho: DensityMatrix,
                  target: str | None = None) -> DensityMatrix:
    """Apply a channel to one subsystem of ``rho`` (default: the first)."""
    label = target if target is not None else rho.space.labels[0]
    (pos,) = rho.space.positions(label)
    dims = rho.space.dims
    if dims[pos] != channel.dim_in:
        raise DimensionMismatchError(
            f"subsystem {label!r} has dimension {dims[pos]}, channel expects {channel.dim_in}")
    n = len(dims)
    legs = np.moveaxis(rho.matrix.reshape(dims + dims), (pos, n + pos), (0, 1))
    kraus = np.stack(channel.kraus)
    out = np.einsum("kia,ab...,kjb->ij...", kraus, legs, kraus.conj(), optimize=True)
    new_space = TensorSpace(tuple(
        (lab, channel.dim_out if i == pos else d)
        for i, (lab, d) in enumerate(rho.space.subsystems)))
    d = new_space.dim
    return DensityMatrix(new_space, np.moveaxis(out, (0, 1), (pos, n + pos)).reshape(d, d))


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """The channel ``second . first`` (apply ``first``, then ``second``)."""
    if first.dim_out != second.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: first outputs dimension {first.dim_out}, "
            f"second expects {second.dim_in}")
    kraus = tuple(b @ a for b in second.kraus for a in first.kraus)
    return QuantumChannel(first.dim_in, second.dim_out, kraus)


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """The channel a tensor b; phase covariant when both factors are."""
    kraus = tuple(np.kron(x, y) for x in a.kraus for y in b.kraus)
    return QuantumChannel(a.dim_in * b.dim_in, a.dim_out * b.dim_out, kraus,
                          phase_covariant=a.phase_covariant and b.phase_covariant)


def channel_power(channel: QuantumChannel, l: int) -> QuantumChannel:
    """The ``l``-fold tensor power of a channel, refused when its output map is too large."""
    l = _positive_int(l, f"power must be a positive integer, got {l!r}")
    cost = 2 * l * math.log2(channel.dim_in) + float(np.logaddexp2(
        2 * l * math.log2(channel.dim_out), 2 * l * math.log2(len(channel.kraus))))
    if cost > POWER_LOG2_LIMIT:
        raise ResourceLimitError(
            f"the {l}-fold channel power's output map needs 2^{cost:.1f} entries, "
            f"limit is 2^{POWER_LOG2_LIMIT:g}")
    return reduce(tensor_channels, [channel] * l)


def stinespring(channel: QuantumChannel) -> np.ndarray:
    """An isometry V with N(rho) = Tr_env[V rho V^dag]; env dim = Kraus count.

    Output index order is (system, environment), row-major.
    """
    return np.stack(channel.kraus, axis=1).reshape(-1, channel.dim_in)
