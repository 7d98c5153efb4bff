"""Seeded random generation of states, unitaries, isometries, and channels.

All randomness flows through :func:`seed_rng`, which builds a PCG64 generator
from an integer seed plus an optional path of subcomponent names.  Distinct
paths from the same root seed give independent, reproducible streams.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError, _nonnegative_int
from .linalg import phase_fixed_qr
from .spaces import TensorSpace
from .states import DensityMatrix, PureState


def _path_word(part: object) -> int:
    digest = hashlib.sha256(str(part).encode("utf8")).digest()
    return int.from_bytes(digest[:4], "big")


def seed_rng(seed: int, *path: object) -> np.random.Generator:
    """Generator for a non-negative integer ``seed``, specialized by a path of names."""
    seed = _nonnegative_int(seed, f"seed must be a non-negative integer, got {seed!r}")
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=tuple(_path_word(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return seed_rng(seed)


def _as_space(dims: int | TensorSpace | tuple) -> TensorSpace:
    if isinstance(dims, TensorSpace):
        return dims
    if isinstance(dims, int):
        return TensorSpace.single("S", dims)
    return TensorSpace(tuple(dims))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_state(dims: int | TensorSpace | tuple, seed: int | np.random.Generator,
                 rank: int | None = None) -> DensityMatrix:
    """Full-rank (or fixed-rank) state from the Ginibre ensemble."""
    space = _as_space(dims)
    rng = _as_generator(seed)
    d = space.dim
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ValidationError(f"rank {r} outside [1, {d}]")
    g = _ginibre(rng, d, r)
    m = g @ g.conj().T
    return DensityMatrix(space, m / np.trace(m).real)


def random_pure(dims: int | TensorSpace | tuple, seed: int | np.random.Generator) -> PureState:
    space = _as_space(dims)
    rng = _as_generator(seed)
    v = _ginibre(rng, space.dim, 1).reshape(-1)
    return PureState(space, v / np.linalg.norm(v))


def random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix."""
    rng = _as_generator(seed)
    return phase_fixed_qr(_ginibre(rng, dim, dim))


def random_isometry(dim_out: int, dim_in: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry with ``dim_out >= dim_in``."""
    if dim_out < dim_in:
        raise ValidationError(f"isometry needs dim_out >= dim_in, got {dim_out} < {dim_in}")
    rng = _as_generator(seed)
    return phase_fixed_qr(_ginibre(rng, dim_out, dim_in))


def random_channel(dim_in: int, dim_out: int, kraus_count: int,
                   seed: int | np.random.Generator):
    """Random channel from a Haar isometry into output x environment."""
    from .channels import QuantumChannel

    if kraus_count < 1:
        raise ValidationError("kraus_count must be at least 1")
    if dim_out * kraus_count < dim_in:
        raise ValidationError(
            f"dim_out * kraus_count = {dim_out * kraus_count} must be >= dim_in = {dim_in}")
    v = random_isometry(dim_out * kraus_count, dim_in, seed)
    blocks = v.reshape(dim_out, kraus_count, dim_in)
    kraus = tuple(blocks[:, j, :] for j in range(kraus_count))
    return QuantumChannel(dim_in, dim_out, kraus)
