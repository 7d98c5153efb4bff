"""Entropy and entropy gradient from a full LAPACK eigendecomposition, for any size.

These are the formulas ``qcap.linalg`` uses for matrices larger than 2x2;
the tests hold its closed-form 2x2 path against them.
"""
import numpy as np

from qcap.linalg import ENTROPY_CUTOFF, hermitize


def _normalized(w: np.ndarray):
    w = np.clip(w, 0.0, None)
    tot = np.clip(w.sum(axis=-1, keepdims=True), ENTROPY_CUTOFF, None)
    w = w / tot
    safe = np.where(w > ENTROPY_CUTOFF, w, 1.0)
    return -(safe * np.log2(safe)).sum(axis=-1) + 0.0, w, tot


def eigh_entropy(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a batch (..., d, d) from ``eigvalsh``."""
    return _normalized(np.linalg.eigvalsh(hermitize(np.asarray(mats))))[0]


def eigh_entropy_and_gradient(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and G = -(log2 M^ + S I) / Tr M over the eigenvectors from ``eigh``."""
    w, v = np.linalg.eigh(hermitize(np.asarray(mats)))
    s, w, tot = _normalized(w)
    coef = -(np.log2(np.maximum(w, ENTROPY_CUTOFF)) + s[..., None]) / tot
    return s, (v * coef[..., None, :]) @ v.conj().swapaxes(-1, -2)
