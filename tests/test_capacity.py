"""Slope-intersection capacity, block planning, and report assembly."""
import math

import numpy as np
import pytest

from qcap.capacity import (BlockPlan, Slope, capacity_from_curve, generalized_capacity,
                           intersect, plan_block, slope_of)
from qcap.channels import dephasing_channel, identity_channel
from qcap.errors import ValidationError
from qcap.ki import ki_decompose
from qcap.linalg import binary_entropy
from qcap.spaces import TensorSpace
from qcap.states import DensityMatrix, maximally_entangled, tensor
from qcap.tradeoff import CurvePoint, OptimizerOptions, TradeoffCurve

SMALL = OptimizerOptions(restarts=3, max_iters=40, seed=0)


def classical_pair() -> DensityMatrix:
    space = TensorSpace.of(("A", 2), ("R", 2))
    return DensityMatrix(space, np.diag([0.5, 0.0, 0.0, 0.5]))


def bell_pair() -> DensityMatrix:
    return maximally_entangled(TensorSpace.of(("A", 2), ("R", 2))).density()


def line_curve() -> TradeoffCurve:
    """Exact unit trade-off line r_c = 1 - r_q, for hand-checked intersections."""
    pts = (CurvePoint(0.0, 1.0, None, None, True),
           CurvePoint(1.0, 0.0, 1.0, None, False))
    return TradeoffCurve(level_l=1, points=pts, achieved=pts,
                         c_q_endpoint=1.0, c_c_endpoint=1.0)


def test_slope_cases():
    s = slope_of(ki_decompose(classical_pair()))
    assert s.infinite and not s.degenerate
    s = slope_of(ki_decompose(bell_pair()))
    assert s.value == 0.0 and not s.infinite and not s.degenerate
    product = tensor(DensityMatrix(TensorSpace.single("A", 2), np.diag([1.0, 0.0])),
                     DensityMatrix(TensorSpace.single("R", 2), np.eye(2) / 2.0))
    s = slope_of(ki_decompose(product))
    assert s.degenerate
    # a bit alongside an entangled pair demands one classical per one quantum
    both = tensor(classical_pair(), bell_pair_relabel())
    kid = ki_decompose(both, system=("A", "B"))
    s = slope_of(kid)
    assert s.value == pytest.approx(1.0, abs=1e-9)


def bell_pair_relabel() -> DensityMatrix:
    return maximally_entangled(TensorSpace.of(("B", 2), ("S", 2))).density()


def test_intersect_on_exact_line():
    curve = line_curve()
    r_q, r_c = intersect(curve, slope_of(ki_decompose(bell_pair())))
    assert (r_q, r_c) == (1.0, 0.0)
    r_q, r_c = intersect(curve, slope_of(ki_decompose(classical_pair())))
    assert (r_q, r_c) == (0.0, 1.0)
    both = tensor(classical_pair(), bell_pair_relabel())
    slope = slope_of(ki_decompose(both, system=("A", "B")))
    r_q, r_c = intersect(curve, slope)
    # unit slope crosses the unit line at its midpoint
    assert r_q == pytest.approx(0.5, abs=1e-9)
    assert r_c == pytest.approx(0.5, abs=1e-9)


def test_intersect_vertical_edge_exit():
    # a shallow ray is still under the frontier at the quantum endpoint, so
    # the crossing happens on the vertical edge at c_q
    pts = (CurvePoint(0.0, 1.0, None, None, True),
           CurvePoint(1.0, 0.5, 1.0, None, False))
    curve = TradeoffCurve(level_l=1, points=pts, achieved=pts,
                          c_q_endpoint=1.0, c_c_endpoint=1.0)
    from qcap.capacity import Slope
    r_q, r_c = intersect(curve, Slope(0.25))
    assert r_q == pytest.approx(1.0, abs=1e-12)
    assert r_c == pytest.approx(0.25, abs=1e-12)


def test_intersect_interior_crossing():
    pts = (CurvePoint(0.0, 1.0, None, None, True),
           CurvePoint(1.0, 0.0, 1.0, None, False))
    curve = TradeoffCurve(level_l=1, points=pts, achieved=pts,
                          c_q_endpoint=1.0, c_c_endpoint=1.0)
    from qcap.capacity import Slope
    r_q, r_c = intersect(curve, Slope(3.0))
    assert r_q == pytest.approx(0.25, abs=1e-9)
    assert r_c == pytest.approx(0.75, abs=1e-9)
    assert r_c == pytest.approx(curve.value_at(r_q), abs=1e-9)
    # three vertices: the unit ray crosses the second segment, r_c = 1.6 - 1.6 r_q
    pts = (CurvePoint(0.0, 1.0, None, None, True),
           CurvePoint(0.5, 0.8, 0.5, None, False),
           CurvePoint(1.0, 0.0, 1.0, None, False))
    curve = TradeoffCurve(level_l=1, points=pts, achieved=pts,
                          c_q_endpoint=1.0, c_c_endpoint=1.0)
    r_q, r_c = intersect(curve, Slope(1.0))
    assert r_q == pytest.approx(8.0 / 13.0, abs=1e-12)
    assert r_c == pytest.approx(8.0 / 13.0, abs=1e-12)


def test_slope_rejects_nan_and_negative_values():
    # Slope(-1.0) used to meet a dephasing curve at a negative classical rate
    for bad in (-1.0, -math.inf, math.nan, -1e-300):
        with pytest.raises(ValidationError, match="slope must be non-negative"):
            Slope(bad)
    assert Slope(0.0).value == 0.0 and Slope(math.inf).infinite


def test_capacity_report_fields():
    report = capacity_from_curve(line_curve(), ki_decompose(bell_pair()))
    assert report.c_g == 1.0
    assert report.r_q_star == 1.0 and report.r_c_star == 0.0
    assert report.copies_per_use == pytest.approx(1.0, abs=1e-9)
    assert report.s_q_given_c == pytest.approx(1.0, abs=1e-9)
    report = capacity_from_curve(line_curve(), ki_decompose(classical_pair()))
    # infinite slope: both generalized and classical capacity sit at c_c
    assert report.c_g == 1.0
    assert report.copies_per_use == pytest.approx(1.0, abs=1e-9)


def test_degenerate_source_has_zero_demand():
    product = tensor(DensityMatrix(TensorSpace.single("A", 2), np.diag([1.0, 0.0])),
                     DensityMatrix(TensorSpace.single("R", 2), np.eye(2) / 2.0))
    kid = ki_decompose(product)
    report = capacity_from_curve(line_curve(), kid)
    assert report.c_g == 0.0
    assert report.copies_per_use is None
    plan = plan_block(report, n=10, delta=0.1)
    assert plan.undefined and plan.m == 0


def test_plan_block_hand_checked():
    curve = line_curve()
    kid = ki_decompose(bell_pair())
    report = capacity_from_curve(curve, kid)
    # zero slope: only the quantum rate constrains, m = floor(n / (1 + delta))
    plan = plan_block(report, n=100, delta=0.02)
    assert plan.m == math.floor(100.0 * 1.0 / (kid.s_q_given_c + 0.02) + 1e-12)
    assert plan.m == 98
    assert plan.rate_check == pytest.approx(98 * kid.s_cq / 100.0, abs=1e-12)

    kid = ki_decompose(classical_pair())
    report = capacity_from_curve(curve, kid)
    plan = plan_block(report, n=100, delta=1.0)
    assert plan.m == 50
    assert not plan.undefined


def test_plan_block_both_constraints_bind():
    curve = line_curve()
    both = tensor(classical_pair(), bell_pair_relabel())
    kid = ki_decompose(both, system=("A", "B"))
    report = capacity_from_curve(curve, kid)
    # unit slope: r* = (0.5, 0.5), both entropies 1, so both terms agree
    plan = plan_block(report, n=40, delta=0.25)
    assert plan.m == math.floor(40 * 0.5 / 1.25 + 1e-12)
    assert plan.m == 16


def test_plan_block_validation():
    kid = ki_decompose(bell_pair())
    report = capacity_from_curve(line_curve(), kid)
    with pytest.raises(ValidationError):
        plan_block(report, n=0, delta=0.1)
    # a bool is not a margin, and an infinite one plans nothing
    for delta in (0.0, float("nan"), True, np.True_, float("inf"), "0.1", None, 1j):
        with pytest.raises(ValidationError, match="margin delta must be positive"):
            plan_block(report, n=10, delta=delta)
    assert plan_block(report, n=10, delta=np.array(0.1)) == plan_block(report, n=10, delta=0.1)


def test_plan_block_integer_types():
    kid = ki_decompose(bell_pair())
    report = capacity_from_curve(line_curve(), kid)
    plan = plan_block(report, n=np.int64(100), delta=0.02)
    assert plan == plan_block(report, n=100, delta=0.02)
    for bad in (True, 100.0):
        with pytest.raises(ValidationError, match="block length"):
            plan_block(report, n=bad, delta=0.02)


def test_generalized_capacity_end_to_end():
    report = generalized_capacity(bell_pair(), identity_channel(2),
                                  l=1, opts=SMALL)
    assert report.c_g == pytest.approx(1.0, abs=0.02)
    assert report.c_g == report.curve.c_q_endpoint
    report = generalized_capacity(classical_pair(), identity_channel(2),
                                  l=1, opts=SMALL)
    assert report.c_g == pytest.approx(1.0, abs=0.02)
    # the infinite-slope intersection inherits c_c exactly
    assert report.c_g == report.curve.c_c_endpoint


def test_noisier_channel_never_raises_capacity():
    mild = generalized_capacity(bell_pair(), dephasing_channel(0.05),
                                l=1, opts=SMALL)
    harsh = generalized_capacity(bell_pair(), dephasing_channel(0.25),
                                 l=1, opts=SMALL)
    assert harsh.c_g <= mild.c_g + 1e-6
    assert mild.c_g <= 1.0 - binary_entropy(0.05) + 0.02
