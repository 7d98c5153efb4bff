"""Deterministic batched gradient ascent used by the variational modules.

The objective is a callable mapping a parameter batch of shape (B, P) to a
value batch of shape (B,).  Gradients are central finite differences, all 2P
perturbations evaluated in one (chunked) batched call.  Step-size control is
a geometric ladder line search; the whole procedure is deterministic for a
deterministic objective.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], np.ndarray]

GRAD_STEP = 1e-5    # finite-difference half-width
MIN_STEP = 1e-9     # give up once the step ladder shrinks below this
FTOL = 1e-10        # gains below this count as a stall; four stalls in a row stop


def _chunked_eval(objective: Objective, batch: np.ndarray, chunk: int) -> np.ndarray:
    if len(batch) <= chunk:
        return np.asarray(objective(batch), dtype=float)
    parts = [objective(batch[i:i + chunk]) for i in range(0, len(batch), chunk)]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def _gradient(objective: Objective, theta: np.ndarray, h: float, chunk: int) -> np.ndarray:
    p = theta.size
    eye = np.eye(p)
    batch = np.concatenate([theta[None, :] + h * eye, theta[None, :] - h * eye])
    vals = _chunked_eval(objective, batch, chunk)
    return (vals[:p] - vals[p:]) / (2.0 * h)


def maximize(objective: Objective, theta0: np.ndarray, *, max_iters: int = 80,
             init_step: float = 0.25, chunk: int = 1024) -> tuple[np.ndarray, float]:
    """Ascend ``objective`` from ``theta0``; returns (theta, value)."""
    theta = np.array(theta0, dtype=float)
    best = float(_chunked_eval(objective, theta[None, :], chunk)[0])
    step = float(init_step)
    stall = 0
    for _ in range(max_iters):
        grad = _gradient(objective, theta, GRAD_STEP, chunk)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-9:
            break
        direction = grad / norm
        ladder = step * (0.35 ** np.arange(6))
        cands = theta[None, :] + ladder[:, None] * direction[None, :]
        vals = _chunked_eval(objective, cands, chunk)
        idx = int(np.argmax(vals))
        if vals[idx] > best + 1e-15:
            gain = vals[idx] - best
            theta = cands[idx]
            best = float(vals[idx])
            step = min(ladder[idx] * 2.0, 4.0)
            stall = stall + 1 if gain < FTOL else 0
            if stall >= 4:
                break
        else:
            step *= 0.35 ** 6
            if step < MIN_STEP:
                break
    return theta, best

