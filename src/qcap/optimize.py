"""Deterministic batched gradient ascent used by the variational modules.

The objective is a callable mapping a parameter batch of shape (B, P) to a
value batch of shape (B,).  A caller with an exact gradient passes it as a
callable of the same batch, returning (B, P); both the trade-off and the
converse searches do.  Without one, gradients are central finite
differences, all 2P perturbations of every start evaluated in one (chunked)
batched call; they serve as the tests' oracle for the exact gradients.
Step-size control is a geometric ladder line search per start.  All starts
ascend together, but no row's path depends on the others, and the whole
procedure is deterministic for a deterministic objective whose rows do not
depend on the batch they are evaluated in.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]
Gradient = Callable[[np.ndarray], np.ndarray]

GRAD_STEP = 1e-5    # finite-difference half-width
MIN_STEP = 1e-9     # give up once the step ladder shrinks below this
FTOL = 1e-10        # gains below this count as a stall; four stalls in a row stop


def _chunked_eval(objective: Objective, batch: np.ndarray, chunk: int) -> np.ndarray:
    if len(batch) <= chunk:
        return np.asarray(objective(batch), dtype=float)
    parts = [objective(batch[i:i + chunk]) for i in range(0, len(batch), chunk)]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def _gradient(objective: Objective, thetas: np.ndarray, h: float, chunk: int,
              gradient: Gradient | None = None) -> np.ndarray:
    """Gradients at a batch (S, P): ``gradient(thetas)`` if given, else central differences."""
    if gradient is not None:
        return np.asarray(gradient(thetas), dtype=float)
    s, p = thetas.shape
    eye = np.eye(p)
    batch = np.concatenate([thetas[:, None, :] + h * eye, thetas[:, None, :] - h * eye], axis=1)
    vals = _chunked_eval(objective, batch.reshape(s * 2 * p, p), chunk).reshape(s, 2 * p)
    return (vals[:, :p] - vals[:, p:]) / (2.0 * h)


def maximize(objective: Objective, theta0: np.ndarray, *, max_iters: int = 80,
             init_step: float = 0.25, chunk: int = 1024,
             gradient: Gradient | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascend ``objective`` from every row of ``theta0`` (S, P); returns (thetas, values).

    The starts move in lock step, one gradient call and one line-search call
    per iteration, but each keeps its own step, stall count and stopping
    rule, so every row ends where an ascent from that row alone would.
    """
    theta = np.array(theta0, dtype=float)
    best = _chunked_eval(objective, theta, chunk)
    step = np.full(len(theta), float(init_step))
    stall = np.zeros(len(theta), dtype=int)
    active = np.arange(len(theta))
    rungs = 0.35 ** np.arange(6)
    for _ in range(max_iters):
        grad = _gradient(objective, theta[active], GRAD_STEP, chunk, gradient)
        norm = np.sqrt([g @ g for g in grad])  # rounds as np.linalg.norm of one row
        moving = norm >= 1e-9
        active, grad, norm = active[moving], grad[moving], norm[moving]
        if active.size == 0:
            break
        direction = grad / norm[:, None]
        ladder = step[active, None] * rungs
        cands = theta[active, None, :] + ladder[:, :, None] * direction[:, None, :]
        vals = _chunked_eval(objective, cands.reshape(-1, theta.shape[1]), chunk)
        vals = vals.reshape(len(active), len(rungs))
        idx = np.argmax(vals, axis=1)
        top = vals[np.arange(len(active)), idx]
        up = top > best[active] + 1e-15

        rows = active[up]
        gain = top[up] - best[rows]
        theta[rows] = cands[up, idx[up]]
        best[rows] = top[up]
        step[rows] = np.minimum(ladder[up, idx[up]] * 2.0, 4.0)
        stall[rows] = np.where(gain < FTOL, stall[rows] + 1, 0)
        step[active[~up]] *= 0.35 ** 6
        active = active[~np.where(up, stall[active] >= 4, step[active] < MIN_STEP)]
        if active.size == 0:
            break
    return theta, best
