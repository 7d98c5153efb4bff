"""Deterministic batched gradient ascent used by the variational modules.

The objective is a callable mapping a parameter batch of shape (B, P) to a
value batch of shape (B,), and the gradient a callable of the same batch
returning (B, P); the trade-off and the converse searches both pass their
exact gradients.  Step-size control is a geometric ladder line search per
start.  All starts ascend together, but no row's path depends on the others,
and the whole procedure is deterministic for a deterministic objective whose
rows do not depend on the batch they are evaluated in.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]
Gradient = Callable[[np.ndarray], np.ndarray]

MIN_STEP = 1e-9     # give up once the step ladder shrinks below this
FTOL = 1e-10        # gains below this count as a stall; four stalls in a row stop


def _chunked_eval(objective: Objective, batch: np.ndarray, chunk: int) -> np.ndarray:
    if len(batch) <= chunk:
        return np.asarray(objective(batch), dtype=float)
    parts = [objective(batch[i:i + chunk]) for i in range(0, len(batch), chunk)]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def _gradient(gradient: Gradient, thetas: np.ndarray) -> np.ndarray:
    """Gradients (S, P) at a batch of rows; one call per iteration, so a wrapper counts them."""
    return np.asarray(gradient(thetas), dtype=float)


def maximize(objective: Objective, theta0: np.ndarray, *, gradient: Gradient, max_iters: int,
             init_step: float, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascend ``objective`` from every row of ``theta0`` (S, P); returns (thetas, values).

    The starts move in lock step, one gradient call and one line-search call
    per iteration, but each keeps its own step, stall count and stopping
    rule, so every row ends where an ascent from that row alone would.
    Objective calls take at most ``chunk`` rows at a time.  Level-1 and
    level-2 batches stay below the callers' chunks, but level-3 line searches
    do not: one level-3 depolarizing solve with 8 restarts peaks at 266 MB
    with its chunk of 13 rows and at 565 MB without it.
    """
    theta = np.array(theta0, dtype=float)
    best = _chunked_eval(objective, theta, chunk)
    step = np.full(len(theta), float(init_step))
    stall = np.zeros(len(theta), dtype=int)
    active = np.arange(len(theta))
    rungs = 0.35 ** np.arange(6)
    for _ in range(max_iters):
        grad = _gradient(gradient, theta[active])
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
