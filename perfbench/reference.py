"""Closed-form references the benchmark checks qcap's outputs against.

All rates are in bits per channel use.

* Dephasing channel (a Hadamard channel, so its trade-off is single-letter;
  Devetak & Shor, CMP 256, 2005): for nu in [0, 1/2]

      r_c(nu) = 1 - h(nu),
      r_q(nu) = h(nu) - h(1/2 + 1/2 sqrt((1-2p)^2 + 4p(1-p)(1-2nu)^2)),

  running from (r_q, r_c) = (0, 1) at nu = 0 to (1 - h(p), 0) at nu = 1/2.
* Endpoints: dephasing c_q = 1 - h(p), c_c = 1; erasure c_q = 1 - 2p,
  c_c = 1 - p.
* The slope-1 generalized capacity of dephasing: the ray r_c = r_q meets the
  curve where r_c(nu) = r_q(nu), and c_g = r_q + r_c there.
"""
from __future__ import annotations

import numpy as np


def h2(x):
    """Binary entropy in bits, elementwise, with h(0) = h(1) = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    safe = np.where((x > 0.0) & (x < 1.0), x, 0.5)
    val = -(safe * np.log2(safe) + (1.0 - safe) * np.log2(1.0 - safe))
    return np.where((x > 0.0) & (x < 1.0), val, 0.0)


def dephasing_curve(p: float, nu):
    """Closed-form (r_q, r_c) of the dephasing(p) frontier at parameter nu."""
    nu = np.asarray(nu, dtype=float)
    root = np.sqrt((1.0 - 2.0 * p) ** 2 + 4.0 * p * (1.0 - p) * (1.0 - 2.0 * nu) ** 2)
    r_c = 1.0 - h2(nu)
    r_q = h2(nu) - h2(0.5 + 0.5 * root)
    return r_q, r_c


def dephasing_endpoints(p: float) -> tuple[float, float]:
    """(c_q, c_c) of dephasing(p)."""
    return 1.0 - float(h2(p)), 1.0


def erasure_endpoints(p: float) -> tuple[float, float]:
    """(c_q, c_c) of erasure(p)."""
    return max(0.0, 1.0 - 2.0 * p), 1.0 - p


def dephasing_slope_one_cg(p: float) -> float:
    """c_g of dephasing(p) for a source with S_C = S_{Q|C} (slope 1).

    r_c - r_q falls monotonically from 1 to -(1 - h(p)) along nu, so the
    crossing is found by bisection to machine precision.
    """
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_q, r_c = dephasing_curve(p, mid)
        if r_c - r_q > 0.0:
            lo = mid
        else:
            hi = mid
    r_q, r_c = dephasing_curve(p, 0.5 * (lo + hi))
    return float(r_q + r_c)


def frontier_gap(p: float, points, c_q: float, c_c: float, samples: int = 4001) -> float:
    """Largest distance from the closed-form dephasing(p) curve down to an envelope.

    ``points`` are the envelope vertices as (r_q, r_c) pairs, ascending r_q.
    Inside [0, c_q] the distance is vertical; a computed endpoint short of
    the exact one counts by its own shortfall.
    """
    xs = np.array([q for q, _ in points], dtype=float)
    ys = np.array([c for _, c in points], dtype=float)
    r_q, r_c = dephasing_curve(p, np.linspace(0.0, 0.5, samples))
    inside = r_q <= c_q
    vertical = r_c[inside] - np.interp(r_q[inside], xs, ys)
    exact_q, exact_c = dephasing_endpoints(p)
    worst = max(float(np.max(vertical, initial=0.0)), exact_q - c_q, exact_c - c_c)
    return max(worst, 0.0)

