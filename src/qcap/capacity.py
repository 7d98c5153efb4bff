"""Generalized capacity of a channel for a structured source.

The Koashi-Imoto decomposition of a source state fixes the ratio in which
classical and quantum rate must be delivered per source copy: S_C bits of
classical rate and S_{Q|C} qubits of quantum rate.  The generalized capacity
at level l is read off the trade-off curve at the point where the ray
r_c = (S_C / S_{Q|C}) r_q crosses the frontier; the capacity itself is
c_g = r_q^* + r_c^*, and c_g / S_CQ source copies fit per channel use.

Infinite slope (purely classical source) pins the intersection to the
classical endpoint, zero slope (purely quantum) to the quantum endpoint, and
a degenerate source (both entropies zero) has capacity zero by convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel
from .errors import ValidationError, _positive_float, _positive_int
from .ki import KIDecomposition, ki_decompose
from .states import DensityMatrix
from .tradeoff import OptimizerOptions, TradeoffCurve, compute_curve

_ENTROPY_ZERO = 1e-9


@dataclass(frozen=True)
class Slope:
    """The ratio S_C / S_{Q|C}; infinite and degenerate cases are flagged."""

    value: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not self.value >= 0:
            raise ValidationError(f"slope must be non-negative, got {self.value!r}")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)


def slope_of(kid: KIDecomposition) -> Slope:
    """Trade-off slope demanded by a source's KI entropies."""
    s_c, s_q = kid.s_c, kid.s_q_given_c
    if s_c <= _ENTROPY_ZERO and s_q <= _ENTROPY_ZERO:
        return Slope(0.0, degenerate=True)
    if s_q <= _ENTROPY_ZERO:
        return Slope(math.inf)
    if s_c <= _ENTROPY_ZERO:
        return Slope(0.0)
    return Slope(s_c / s_q)


def intersect(curve: TradeoffCurve, slope: Slope) -> tuple[float, float]:
    """Where the ray r_c = slope * r_q meets the trade-off frontier.

    Along the ray both coordinates grow together, so the crossing maximizes
    r_q + r_c subject to the source's rate ratio.  A ray that is still below
    the frontier at the quantum endpoint exits through the vertical edge of
    the region instead, at (c_q, slope * c_q).
    """
    if not curve.points:
        raise ValidationError("cannot intersect an empty curve")
    if slope.degenerate:
        return 0.0, 0.0
    if slope.infinite:
        return 0.0, curve.c_c_endpoint
    if slope.value == 0.0:
        return curve.c_q_endpoint, 0.0
    s = slope.value
    c_q = curve.c_q_endpoint
    # the envelope is linear between these knots, so the gap to the ray is too
    knots = np.unique(np.clip([0.0, c_q] + [p.r_q for p in curve.points], 0.0, c_q))
    gaps = np.array([curve.value_at(r) for r in knots]) - s * knots
    if gaps[-1] >= 0.0:
        return c_q, s * c_q
    if gaps[0] < 0.0:
        return 0.0, 0.0
    k = int(np.argmax(gaps < 0.0))
    lo, hi = knots[k - 1], knots[k]
    r_q = float(lo + (hi - lo) * gaps[k - 1] / (gaps[k - 1] - gaps[k]))
    return r_q, s * r_q


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Generalized capacity of a channel for one source."""

    slope: Slope
    level_l: int
    r_q_star: float
    r_c_star: float
    c_g: float
    copies_per_use: float | None
    s_c: float
    s_q_given_c: float
    s_cq: float
    curve: TradeoffCurve


def capacity_from_curve(curve: TradeoffCurve, kid: KIDecomposition) -> CapacityReport:
    """Combine a precomputed trade-off curve with a source's KI entropies."""
    slope = slope_of(kid)
    r_q_star, r_c_star = intersect(curve, slope)
    c_g = r_q_star + r_c_star
    copies = c_g / kid.s_cq if kid.s_cq > _ENTROPY_ZERO else None
    return CapacityReport(slope=slope, level_l=curve.level_l,
                          r_q_star=r_q_star, r_c_star=r_c_star, c_g=c_g,
                          copies_per_use=copies, s_c=kid.s_c,
                          s_q_given_c=kid.s_q_given_c, s_cq=kid.s_cq, curve=curve)


def generalized_capacity(source: DensityMatrix, channel: QuantumChannel, l: int = 1,
                         opts: OptimizerOptions | None = None,
                         system=None, seed: int = 0) -> CapacityReport:
    """Level-``l`` generalized capacity of ``channel`` for ``source``.

    ``source`` is a bipartite state; ``system`` selects its encoded part as
    in :func:`qcap.ki.ki_decompose` (default: the first subsystem), with the
    rest held by the receiver-side reference.
    """
    kid = ki_decompose(source, system=system, seed=seed)
    curve = compute_curve(channel, l=l, opts=opts)
    return capacity_from_curve(curve, kid)


@dataclass(frozen=True)
class BlockPlan:
    """How many source copies fit in ``n`` channel uses at margin ``delta``."""

    m: int
    rate_check: float
    undefined: bool = False


def plan_block(report: CapacityReport, n: int, delta: float) -> BlockPlan:
    """Copies of the source deliverable over ``n`` uses with rate margin ``delta``.

    S_C, S_{Q|C} and S_CQ are the source entropies stored in ``report``.
    With finite nonzero slope both rate constraints bind:
    m = floor(min(n r_q^* / (S_{Q|C} + delta), n r_c^* / (S_C + delta))).
    With an infinite or zero slope only the corresponding single constraint
    applies.  A degenerate source has no defined plan.
    """
    n = _positive_int(n, f"block length must be a positive integer, got {n!r}")
    delta = _positive_float(delta, f"margin delta must be positive, got {delta}")
    if report.s_cq <= _ENTROPY_ZERO or report.slope.degenerate:
        return BlockPlan(m=0, rate_check=0.0, undefined=True)
    terms = []
    if not report.slope.infinite:
        terms.append(n * report.r_q_star / (report.s_q_given_c + delta))
    if report.slope.value != 0.0:
        terms.append(n * report.r_c_star / (report.s_c + delta))
    m = int(math.floor(min(terms) + 1e-12))
    return BlockPlan(m=m, rate_check=m * report.s_cq / n)
