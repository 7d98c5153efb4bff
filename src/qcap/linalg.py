"""Shared dense linear-algebra helpers.

All entropies in the package are base-2.  Eigenvalues below
``ENTROPY_CUTOFF`` are treated as zero when computing entropies, and small
negative eigenvalues produced by roundoff are clamped before use.
"""
from __future__ import annotations

import numpy as np

ENTROPY_CUTOFF = 1e-12
SUPPORT_CUTOFF = 1e-12


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average a matrix (or batch of matrices) with its conjugate transpose."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def entropy_from_probs(p: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative vector summing to ~1."""
    return float(_spectral_entropy(np.asarray(p, dtype=float))[0])


def entropy_of_matrix(m: np.ndarray) -> float:
    """Von Neumann entropy in bits of a single density matrix."""
    return float(batched_entropy(m))


def _spectral_entropy(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy of raw eigenvalues (..., d): clipped at 0, normalized, cut off.

    Returns (S, the normalized eigenvalues, the clipped trace (..., 1)).
    """
    w = np.clip(w, 0.0, None)
    tot = np.clip(w.sum(axis=-1, keepdims=True), ENTROPY_CUTOFF, None)
    w = w / tot
    safe = np.where(w > ENTROPY_CUTOFF, w, 1.0)
    return -(safe * np.log2(safe)).sum(axis=-1) + 0.0, w, tot


def batched_entropy(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropies of a batch of matrices, shape (..., d, d) -> (...)."""
    return _spectral_entropy(np.linalg.eigvalsh(hermitize(np.asarray(mats))))[0]


def entropy_and_gradient(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies S(M) of a batch (..., d, d) and their gradients dS/dM.

    With M^ = M / Tr M, dS = Tr[G dM] for G = -(log2 M^ + S I) / Tr M
    (Daleckii-Krein).  Eigenvalues are floored at ``ENTROPY_CUTOFF`` inside
    the log, so G stays finite on rank-deficient M.
    """
    w, v = np.linalg.eigh(hermitize(np.asarray(mats)))
    s, w, tot = _spectral_entropy(w)
    coef = -(np.log2(np.maximum(w, ENTROPY_CUTOFF)) + s[..., None]) / tot
    return s, (v * coef[..., None, :]) @ v.conj().swapaxes(-1, -2)


def binary_entropy(p: float) -> float:
    return entropy_from_probs(np.array([p, 1.0 - p]))


def fidelity_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """min(Tr sqrt M, 1) from the eigenvalues (..., d) of M = sqrt(rho) xi sqrt(rho); those
    at or below ``SUPPORT_CUTOFF`` are rounding (sqrt(1e-17) = 3e-9) and count as zero."""
    return np.minimum(np.sqrt(np.where(w <= SUPPORT_CUTOFF, 0.0, w)).sum(axis=-1), 1.0)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    w, v = np.linalg.eigh(hermitize(np.asarray(m)))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the columns of ``a`` (batched).

    The reduced QR factor is rescaled so the R diagonal is real positive,
    which makes the map a -> Q smooth and reproduces ``a`` exactly whenever
    its columns are already orthonormal.
    """
    q, r = np.linalg.qr(np.asarray(a))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mag = np.abs(d)
    phase = np.where(mag > 1e-300, d / np.where(mag > 1e-300, mag, 1.0), 1.0)
    return q * phase[..., None, :]


def phase_fixed_qr_adjoint(a: np.ndarray, q: np.ndarray, q_bar: np.ndarray) -> np.ndarray:
    """Pull a gradient in Q = phase_fixed_qr(a) back to ``a`` (batched, full column rank).

    Gradients of a real function f of a complex matrix Z are read as
    df = Re Tr[Z_bar^dagger dZ].  With R = Q^dagger a, K = Q^dagger q_bar and
    N = tril(K - K^dagger, -1) + diag(K - K^dagger) / 2, the gradient in ``a``
    is [q_bar - Q K + Q N] R^{-dagger} (Walter & Lehmann, arXiv:1001.1654).
    """
    q_h = q.conj().swapaxes(-1, -2)
    k = q_h @ q_bar
    skew = k - k.conj().swapaxes(-1, -2)
    n = np.tril(skew, -1) + 0.5 * np.eye(k.shape[-1]) * skew
    y = q_bar - q @ (k - n)
    # y R^{-dagger} = (R^{-1} y^dagger)^dagger
    return np.linalg.solve(q_h @ a, y.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
