"""The span of every masked modular component, the oracle the per-class span is tested against."""
import numpy as np

from qcap.ki import ALGEBRA_TOL, _group_by_gaps
from qcap.linalg import SUPPORT_CUTOFF, hermitize


def _orthonormalize(ops: np.ndarray) -> np.ndarray:
    flat = ops.reshape(len(ops), -1)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return ops[:0]
    keep = s > ALGEBRA_TOL * s[0]
    return vh[keep].reshape(-1, *ops.shape[1:])


def component_span(ops: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (k, s, s) of the identity, the support-normalized ``ops``
    and one masked copy of each per modular ratio class, from one SVD."""
    w, v = np.linalg.eigh(hermitize(rho_a))
    keep = w > SUPPORT_CUTOFF
    eigs = w[keep]
    support = v[:, keep]
    s = int(eigs.size)
    compressed = np.einsum("ia,xij,jb->xab", support.conj(), ops, support)
    scale = 1.0 / np.sqrt(eigs)
    normalized = compressed * scale[None, :, None] * scale[None, None, :]

    generators = [np.eye(s, dtype=complex)]
    generators.extend(normalized)
    logs = np.log(eigs)
    classes = _group_by_gaps((logs[:, None] - logs[None, :]).reshape(-1), ALGEBRA_TOL)
    components = []
    for g in generators:
        flat = g.reshape(-1)
        for idx in classes:
            if np.max(np.abs(flat[idx])) > ALGEBRA_TOL:
                part = np.zeros(s * s, dtype=complex)
                part[idx] = flat[idx]
                components.append(part.reshape(s, s))
    return _orthonormalize(np.stack(generators + components))
