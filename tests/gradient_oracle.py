"""Central differences, the oracle the exact gradients are tested against."""
import numpy as np

from qcap.optimize import _chunked_eval

STEP = 1e-5  # half-width of each difference


def central_differences(objective, thetas: np.ndarray, chunk: int) -> np.ndarray:
    """Gradients (S, P) of a batched objective from 2P probes per row, ``chunk`` rows a call."""
    s, p = thetas.shape
    eye = np.eye(p)
    batch = np.concatenate([thetas[:, None, :] + STEP * eye, thetas[:, None, :] - STEP * eye],
                           axis=1)
    vals = _chunked_eval(objective, batch.reshape(s * 2 * p, p), chunk).reshape(s, 2 * p)
    return (vals[:, :p] - vals[:, p:]) / (2.0 * STEP)
