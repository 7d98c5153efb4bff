"""Central differences, the oracle the exact gradients are tested against."""
import numpy as np

from qcap.optimize import _chunked_eval

STEP = 1e-5  # half-width of each difference


def central_differences(objective, thetas: np.ndarray, chunk: int) -> np.ndarray:
    """Gradients d/dRe + i d/dIm (S, P) of a batched objective over complex rows.

    Each row takes 4P probes, along every real and every imaginary coordinate,
    ``chunk`` rows a call.
    """
    s, p = thetas.shape
    axes = np.concatenate([np.eye(p), 1j * np.eye(p)])
    batch = np.concatenate([thetas[:, None, :] + STEP * axes, thetas[:, None, :] - STEP * axes],
                           axis=1)
    vals = _chunked_eval(objective, batch.reshape(s * 4 * p, p), chunk).reshape(s, 2, 2, p)
    diff = (vals[:, 0] - vals[:, 1]) / (2.0 * STEP)
    return diff[:, 0] + 1j * diff[:, 1]
