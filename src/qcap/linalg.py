"""Shared dense linear-algebra helpers.

All entropies in the package are base-2.  Eigenvalues below
``ENTROPY_CUTOFF`` are treated as zero when computing entropies, and small
negative eigenvalues produced by roundoff are clamped before use.

The entropy kernels read a 2x2 batch's spectrum in closed form and send
every larger size to LAPACK; both paths share the clip, normalization and
cutoff.  :func:`per_size` runs a kernel once per distinct matrix size over
several batches, so a caller with outputs of one size makes one call.
"""
from __future__ import annotations

import math

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


def _eig2(m: np.ndarray):
    """Closed-form spectrum of the Hermitian parts H of a batch (..., 2, 2).

    Returns the eigenvalues (..., 2), smaller first, and the map from
    per-eigenvalue coefficients c (..., 2) to c_- P_- + c_+ P_+ over H's
    eigenprojectors, which is mean(c) I + (c_+ - c_-) / (2 r) (H - mid I)
    and needs no eigenvectors.  With H = [[a, b], [b*, d]], mid = (a + d) / 2
    and r = sqrt(((a - d) / 2)^2 + |b|^2), the eigenvalues are mid -+ r.  The
    smaller one is det H / (mid + r) when mid + r > 0, as in LAPACK's 2x2
    routines, so a tiny diagonal entry comes out to full relative accuracy;
    at r = 0, H = mid I and both are mid.
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = 0.5 * (m[..., 0, 1] + np.conj(m[..., 1, 0]))
    half, mid = 0.5 * (a - d), 0.5 * (a + d)
    bb = b.real ** 2 + b.imag ** 2
    r = np.sqrt(half * half + bb)
    w = np.empty(m.shape[:-1])
    np.subtract(mid, r, out=w[..., 0])
    np.add(mid, r, out=w[..., 1])
    np.divide(a * d - bb, w[..., 1], out=w[..., 0], where=(w[..., 1] > 0) & (r > 0))

    def combine(c: np.ndarray) -> np.ndarray:
        # r = 0 means H = mid I, so the slope term vanishes
        slope = np.divide(c[..., 1] - c[..., 0], 2.0 * r, out=np.zeros_like(r), where=r > 0)
        mean = 0.5 * (c[..., 0] + c[..., 1])
        g = np.empty(m.shape, dtype=np.result_type(b, slope))
        g[..., 0, 0] = mean + slope * half
        g[..., 1, 1] = mean - slope * half
        g[..., 0, 1] = slope * b
        g[..., 1, 0] = np.conj(g[..., 0, 1])
        return g

    return w, combine


def batched_entropy(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropies of a batch of matrices, shape (..., d, d) -> (...)."""
    mats = np.asarray(mats)
    if mats.shape[-1] == 2:
        return _spectral_entropy(_eig2(mats)[0])[0]
    return _spectral_entropy(np.linalg.eigvalsh(hermitize(mats)))[0]


def entropy_and_gradient(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies S(M) of a batch (..., d, d) and their gradients dS/dM.

    With M^ = M / Tr M, dS = Tr[G dM] for G = -(log2 M^ + S I) / Tr M
    (Daleckii-Krein).  Eigenvalues are floored at ``ENTROPY_CUTOFF`` inside
    the log, so G stays finite on rank-deficient M.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] == 2:
        w, combine = _eig2(mats)
    else:
        w, v = np.linalg.eigh(hermitize(mats))

        def combine(c: np.ndarray) -> np.ndarray:
            return (v * c[..., None, :]) @ v.conj().swapaxes(-1, -2)
    s, w, tot = _spectral_entropy(w)
    coef = -(np.log2(np.maximum(w, ENTROPY_CUTOFF)) + s[..., None]) / tot
    return s, combine(coef)


def per_size(kernel, *batches: np.ndarray) -> list:
    """``kernel`` on each batch (..., d, d), called once per distinct size d.

    Batches of one size are flattened to (-1, d, d) and concatenated; each
    output of the kernel (an array, or a tuple of arrays, indexed by matrix
    first) is split back to every batch's leading shape.  The kernel must act
    on each matrix alone, so no result depends on the other batches.
    """
    results: list = [None] * len(batches)
    for d in dict.fromkeys(m.shape[-1] for m in batches):
        group = [i for i, m in enumerate(batches) if m.shape[-1] == d]
        out = kernel(np.concatenate([batches[i].reshape(-1, d, d) for i in group]))
        parts = out if isinstance(out, tuple) else (out,)
        start = 0
        for i in group:
            lead = batches[i].shape[:-2]
            stop = start + math.prod(lead)
            split = tuple(p[start:stop].reshape(lead + p.shape[1:]) for p in parts)
            results[i] = split if isinstance(out, tuple) else split[0]
            start = stop
    return results


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
