"""Closed-form level-1 endpoints of the named channel families, in bits per use.

``ENDPOINTS[name] = (c_q, c_c)``: the largest coherent information and the
Holevo capacity of one use of the channel.

* identity(2): one qubit, C = Q = 1.
* dephasing(p): C = 1 and Q = 1 - h(p).
* erasure(p): C = 1 - p and Q = 1 - 2p (p <= 1/2).
* depolarizing(p), Pauli weight p: C = 1 - h(p/2) (King, IEEE TIT 49, 221,
  2003), and Q is the hashing value 1 - H(1 - 3p/4, p/4, p/4, p/4) (Bennett,
  DiVincenzo, Smolin & Wootters, PRA 54, 3824, 1996).
* amplitude_damping(g), eta = 1 - g: both are maximizations over the excited
  population x of the input (Giovannetti & Fazio, PRA 71, 032314, 2005),
  C = max_x h(eta x) - h(1/2 + 1/2 sqrt((1 - 2 eta x)^2 + 4 eta x (1 - x)))
  and, for g <= 1/2, Q = max_x h(eta x) - h(g x).  Both are unimodal in x,
  so a golden-section search finds them.

The dephasing(p) trade-off curve is single-letter (a Hadamard channel;
Devetak & Shor, CMP 256, 2005): for nu in [0, 1/2]
r_c = 1 - h(nu) and r_q = h(nu) - h(1/2 + 1/2 sqrt((1-2p)^2 + 4p(1-p)(1-2nu)^2)).
Along nu, r_q rises from 0 to 1 - h(p) and r_c falls from 1 to 0, so a point
of the curve with a given r_q, or on a given ray r_c = s r_q, is found by
bisection on nu.  For p = 0.1 the slope-1 ray crosses it at
c_g = r_q + r_c = 0.702493359.
"""
from __future__ import annotations

import numpy as np


def h2(x):
    """Binary entropy in bits, elementwise, with h(0) = h(1) = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    safe = np.where((x > 0.0) & (x < 1.0), x, 0.5)
    val = -(safe * np.log2(safe) + (1.0 - safe) * np.log2(1.0 - safe))
    return np.where((x > 0.0) & (x < 1.0), val, 0.0)


def shannon(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def golden_max(f, lo: float = 0.0, hi: float = 1.0, iters: int = 100) -> float:
    """Maximum of a unimodal f on [lo, hi]."""
    r = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - r) * (hi - lo), lo + r * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(iters):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - r) * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + r * (hi - lo)
            fb = f(b)
    return float(max(fa, fb))


def amplitude_damping_endpoints(gamma: float) -> tuple[float, float]:
    eta = 1.0 - gamma

    def holevo(x):
        root = np.sqrt((1.0 - 2.0 * eta * x) ** 2 + 4.0 * eta * x * (1.0 - x))
        return h2(eta * x) - h2(0.5 + 0.5 * root)

    def coherent(x):
        return h2(eta * x) - h2(gamma * x)

    return golden_max(coherent), golden_max(holevo)


def dephasing_curve(p: float, nu):
    """Closed-form (r_q, r_c) of the dephasing(p) frontier at parameter nu."""
    nu = np.asarray(nu, dtype=float)
    root = np.sqrt((1.0 - 2.0 * p) ** 2 + 4.0 * p * (1.0 - p) * (1.0 - 2.0 * nu) ** 2)
    return h2(nu) - h2(0.5 + 0.5 * root), 1.0 - h2(nu)


def _decreasing_root(f) -> float:
    """The nu in [0, 1/2] where a decreasing f changes sign, to machine precision."""
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def dephasing_slope_one_cg(p: float) -> float:
    """c_g = r_q + r_c where the ray r_c = r_q meets the dephasing(p) curve."""
    def above(nu):
        r_q, r_c = dephasing_curve(p, nu)
        return r_c - r_q

    r_q, r_c = dephasing_curve(p, _decreasing_root(above))
    return float(r_q + r_c)


def dephasing_r_c(p: float, r_q: float) -> float:
    """r_c of the dephasing(p) curve at quantum rate r_q; 0 past 1 - h(p)."""
    nu = _decreasing_root(lambda nu: r_q - dephasing_curve(p, nu)[0])
    return float(dephasing_curve(p, nu)[1])


def frontier_gap(p: float, points, c_q: float, c_c: float, samples: int = 4001) -> float:
    """Largest distance from the dephasing(p) curve down to an envelope.

    ``points`` are the envelope vertices as (r_q, r_c) pairs, ascending r_q.
    Inside [0, c_q] the distance is vertical; a computed endpoint short of
    the exact one counts by its own shortfall.
    """
    xs, ys = np.array(points, dtype=float).T
    r_q, r_c = dephasing_curve(p, np.linspace(0.0, 0.5, samples))
    inside = r_q <= c_q
    vertical = r_c[inside] - np.interp(r_q[inside], xs, ys)
    worst = max(float(np.max(vertical, initial=0.0)), 1.0 - float(h2(p)) - c_q, 1.0 - c_c)
    return max(worst, 0.0)


ENDPOINTS = {
    "identity(2)": (1.0, 1.0),
    "dephasing(0.1)": (1.0 - float(h2(0.1)), 1.0),
    "erasure(0.2)": (1.0 - 2.0 * 0.2, 1.0 - 0.2),
    "depolarizing(0.1)": (1.0 - shannon([1.0 - 0.75 * 0.1, 0.025, 0.025, 0.025]),
                          1.0 - float(h2(0.05))),
    "amplitude_damping(0.3)": amplitude_damping_endpoints(0.3),
}
