"""Classical/quantum trade-off curves and the scalarized optimizer."""
import numpy as np
import pytest

from qcap import tradeoff
from qcap.capacity import Slope, intersect
from qcap.channels import (QuantumChannel, channel_from_name, channel_power, compose,
                           dephasing_channel, identity_channel, tensor_channels)
from qcap.errors import NumericalFailureError, ValidationError
from qcap.information import CQEnsemble, generalized_information
from qcap.io import channel_from_json, channel_to_json
from qcap.linalg import batched_entropy, binary_entropy, entropy_and_gradient
from qcap.sampling import random_channel, random_state, seed_rng
from qcap.states import maximally_entangled
from qcap.spaces import TensorSpace
from qcap.tradeoff import (CurvePoint, OptimizerOptions, _EnsembleProblem, compute_curve,
                           default_t_grid, evaluate_point, optimize_scalarized,
                           validate_envelope)

from closed_forms import (ENDPOINTS, dephasing_curve, dephasing_r_c,
                          dephasing_slope_one_cg, frontier_gap, golden_max)
from gradient_oracle import central_differences

SMALL = OptimizerOptions(restarts=3, max_iters=40, seed=0)


def bell_ensemble() -> CQEnsemble:
    psi = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2)))
    return CQEnsemble(2, 2, np.array([1.0]), psi.vector[None, :])


def classical_ensemble() -> CQEnsemble:
    vecs = np.zeros((2, 4), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[1, 3] = 1.0
    return CQEnsemble(2, 2, np.array([0.5, 0.5]), vecs)


def test_evaluate_point_examples():
    r_q, r_c = evaluate_point(bell_ensemble(), identity_channel(2))
    assert r_q == pytest.approx(1.0, abs=1e-12)
    assert r_c == pytest.approx(0.0, abs=1e-12)
    r_q, r_c = evaluate_point(bell_ensemble(), dephasing_channel(0.1))
    assert r_q == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)
    assert r_q == pytest.approx(0.531004, abs=1e-6)
    r_q, r_c = evaluate_point(classical_ensemble(), dephasing_channel(0.5))
    assert r_q == pytest.approx(0.0, abs=1e-12)
    assert r_c == pytest.approx(1.0, abs=1e-12)


def test_evaluate_point_clamps_negative_quantum_rate():
    # a fully dephased Bell input has negative signed quantum rate
    r_q, r_c = evaluate_point(bell_ensemble(), dephasing_channel(0.5))
    assert r_q == 0.0
    assert r_c == pytest.approx(0.0, abs=1e-12)


def test_evaluate_point_entry_bound():
    vecs = np.eye(8, dtype=complex)[:, :4].reshape(8, 4)
    vecs = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (7, 1))
    ens = CQEnsemble(2, 2, np.full(7, 1.0 / 7.0), vecs)
    with pytest.raises(ValidationError):
        evaluate_point(ens, identity_channel(2))  # bound is dim^2 + 2 = 6


def test_evaluate_point_level_scaling():
    # two uses of the identity carry one Bell pair per use
    psi = maximally_entangled(TensorSpace.of(("A", 4), ("R", 4)))
    ens = CQEnsemble(4, 4, np.array([1.0]), psi.vector[None, :])
    r_q, r_c = evaluate_point(ens, identity_channel(2), l=2)
    assert r_q == pytest.approx(1.0, abs=1e-12)
    assert r_c == pytest.approx(0.0, abs=1e-12)


def test_default_t_grid():
    grid = default_t_grid(21)
    assert grid.size == 21
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(grid) > 0)
    # Chebyshev spacing clusters near both endpoints
    assert grid[1] < 1.0 / 40.0
    for count in (1, 0, -3):
        with pytest.raises(ValidationError, match="at least 2 points"):
            default_t_grid(count)


def test_default_t_grid_rejects_non_integer_counts():
    # 2.5 used to give [0, 0.75, 0.75]: no weight 1 and a repeated weight
    for count in (2.5, 3.0, True):
        with pytest.raises(ValidationError, match="at least 2 points"):
            default_t_grid(count)


def test_optimize_scalarized_identity_endpoints():
    res = optimize_scalarized(identity_channel(2), 1, 1.0, SMALL)
    assert res.r_q == pytest.approx(1.0, abs=1e-6)
    res = optimize_scalarized(identity_channel(2), 1, 0.0, SMALL)
    assert res.r_c == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValidationError):
        optimize_scalarized(identity_channel(2), 1, 1.5, SMALL)


def test_dephasing_holevo_endpoint_reaches_one_bit():
    # the t = 0 solve reaches the closed form C = 1 bit of any dephasing channel
    res = optimize_scalarized(dephasing_channel(0.1), 1, 0.0,
                              OptimizerOptions(restarts=4, max_iters=50, seed=2))
    assert res.value >= 1 - 1e-9


def test_curve_identity_matches_line():
    curve = compute_curve(identity_channel(2), l=1,
                          t_grid=default_t_grid(9), opts=SMALL)
    assert curve.c_q_endpoint == pytest.approx(1.0, abs=1e-4)
    assert curve.c_c_endpoint == pytest.approx(1.0, abs=1e-4)
    # the identity frontier is the line r_c = 1 - r_q
    for r_q in np.linspace(0.0, curve.c_q_endpoint, 11):
        assert curve.value_at(r_q) == pytest.approx(1.0 - r_q, abs=0.02)


def test_curve_envelope_is_valid_and_deterministic():
    curve = compute_curve(dephasing_channel(0.1), l=1,
                          t_grid=default_t_grid(7), opts=SMALL)
    validate_envelope(curve.points)
    xs = [p.r_q for p in curve.points]
    assert xs == sorted(xs)
    again = compute_curve(dephasing_channel(0.1), l=1,
                          t_grid=default_t_grid(7), opts=SMALL)
    assert [(p.r_q, p.r_c) for p in again.points] == [
        (p.r_q, p.r_c) for p in curve.points]


def test_curve_witnesses_reproduce_rates():
    curve = compute_curve(dephasing_channel(0.2), l=1,
                          t_grid=default_t_grid(5), opts=SMALL)
    for point in curve.achieved:
        assert point.witness is not None
        r_q, r_c = evaluate_point(point.witness, dephasing_channel(0.2), l=1)
        assert r_q == pytest.approx(point.r_q, abs=1e-9)
        assert r_c == pytest.approx(point.r_c, abs=1e-9)


def test_curve_value_at_interpolates():
    pts = (CurvePoint(0.0, 1.0, None, None, True),
           CurvePoint(0.5, 0.8, 0.5, None, False),
           CurvePoint(1.0, 0.0, 1.0, None, False))
    validate_envelope(pts)
    from qcap.tradeoff import TradeoffCurve
    curve = TradeoffCurve(level_l=1, points=pts, achieved=(),
                          c_q_endpoint=1.0, c_c_endpoint=1.0)
    assert curve.value_at(0.25) == pytest.approx(0.9, abs=1e-12)
    assert curve.value_at(0.75) == pytest.approx(0.4, abs=1e-12)
    assert curve.value_at(1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        curve.value_at(2.0)
    with pytest.raises(ValidationError):
        curve.value_at(-1.0)


def test_validate_envelope_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        validate_envelope(())
    rising = (CurvePoint(0.0, 0.5, None, None, True),
              CurvePoint(0.5, 0.8, None, None, True))
    with pytest.raises(NumericalFailureError):
        validate_envelope(rising)
    convex = (CurvePoint(0.0, 1.0, None, None, True),
              CurvePoint(0.5, 0.2, None, None, True),
              CurvePoint(1.0, 0.0, None, None, True))
    with pytest.raises(NumericalFailureError):
        validate_envelope(convex)


def test_curve_grid_validation():
    with pytest.raises(ValidationError):
        compute_curve(identity_channel(2), t_grid=[0.2, 1.0], opts=SMALL)
    with pytest.raises(ValidationError):
        compute_curve(identity_channel(2), t_grid=[0.0, 0.5], opts=SMALL)


@pytest.mark.parametrize("grid", [[0.0, float("nan"), 1.0], [0.0, float("inf"), 1.0],
                                  [0.0, -0.5, 1.0], [1.0], [0.0, 0.5]])
def test_curve_grid_is_checked_before_any_solve(grid, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the grid was checked")

    monkeypatch.setattr(tradeoff, "_solve", no_solve)
    with pytest.raises(ValidationError, match="weight grid"):
        compute_curve(identity_channel(2), t_grid=grid, opts=SMALL)


def assert_same_witness(a: CQEnsemble, b: CQEnsemble):
    assert np.array_equal(a.probs, b.probs) and np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("name, level, opts", [
    ("dephasing(0.1)", 1, SMALL),
    ("erasure(0.2)", 1, SMALL),
    ("dephasing(0.1)", 2, OptimizerOptions(restarts=1, max_iters=8, seed=0)),
])
def test_curve_points_are_the_scalarized_solves(name, level, opts):
    # every weight ascends in one lock-step run, yet each point is, to the
    # byte, the solve at that weight alone
    channel = channel_from_name(name)
    curve = compute_curve(channel, level, default_t_grid(5), opts)
    for p in curve.achieved:
        res = optimize_scalarized(channel, level, p.weight_t, opts)
        assert_same_witness(p.witness, res.ensemble)
        assert (p.r_q, p.r_c) == (res.r_q, res.r_c), p.weight_t


def test_curve_point_does_not_depend_on_the_rest_of_the_grid():
    channel = dephasing_channel(0.1)
    three = compute_curve(channel, 1, [0.0, 0.5, 1.0], SMALL)
    five = compute_curve(channel, 1, [0.0, 0.25, 0.5, 0.75, 1.0], SMALL)
    assert three.achieved[1].weight_t == five.achieved[2].weight_t == 0.5
    assert_same_witness(three.achieved[1].witness, five.achieved[2].witness)


def test_curve_calls_stay_within_the_problem_slices(monkeypatch):
    # 5 weights x 5 starts: the baseline's 10 rows, the ascent's 25 and its
    # 150 line-search rows all exceed a chunk of 4 rows, and gradient slices of 2
    channel, grid = dephasing_channel(0.1), default_t_grid(5)
    whole = compute_curve(channel, 1, grid, SMALL)
    init, objective, gradient = (_EnsembleProblem.__init__, _EnsembleProblem.objective,
                                 _EnsembleProblem.gradient)
    seen = {"objective": [], "gradient": []}

    def small_slices(self, *args):
        init(self, *args)
        self.chunk = 4

    def recorded(name, fn):
        return lambda self, rows: seen[name].append(len(rows)) or fn(self, rows)

    monkeypatch.setattr(_EnsembleProblem, "__init__", small_slices)
    monkeypatch.setattr(_EnsembleProblem, "objective", recorded("objective", objective))
    monkeypatch.setattr(_EnsembleProblem, "gradient", recorded("gradient", gradient))
    sliced = compute_curve(channel, 1, grid, SMALL)
    assert max(seen["objective"]) == 4 and max(seen["gradient"]) == 2
    for a, b in zip(whole.achieved, sliced.achieved):
        assert_same_witness(a.witness, b.witness)


def test_fell_back_is_judged_per_weight():
    # one step from the canonical starts: only at t = 0.5, where both canonical
    # starts already reach the identity's optimum, does the ascent gain nothing
    opts = OptimizerOptions(restarts=0, max_iters=1, seed=0)
    grid = [0.0, 0.5, 1.0]
    solved = tradeoff._solve(identity_channel(2), 1, grid, opts)
    assert [r.fell_back for r in solved] == [False, True, False]
    assert [optimize_scalarized(identity_channel(2), 1, t, opts).fell_back
            for t in grid] == [False, True, False]


def test_fully_dephasing_has_no_quantum_rate():
    curve = compute_curve(dephasing_channel(0.5), l=1,
                          t_grid=default_t_grid(5), opts=SMALL)
    assert curve.c_q_endpoint <= 1e-6
    assert curve.c_c_endpoint == pytest.approx(1.0, abs=1e-4)


def test_level_two_identity_keeps_per_use_rates():
    # the canonical starts already achieve both endpoints, so a tiny budget
    # is enough here; the point is the per-use normalization at l = 2
    curve = compute_curve(identity_channel(2), l=2,
                          t_grid=(0.0, 1.0),
                          opts=OptimizerOptions(restarts=0, max_iters=4, seed=1))
    assert curve.c_q_endpoint == pytest.approx(1.0, abs=0.02)
    assert curve.c_c_endpoint == pytest.approx(1.0, abs=0.02)


def test_entropy_gradient_matches_differences():
    rng = seed_rng(0, "entropy-gradient")
    for d, rank, scale in ((2, 2, 1.0), (3, 2, 0.7), (4, 4, 2.5)):
        m = scale * random_state(d, rng, rank=rank).matrix
        s, g = entropy_and_gradient(m)
        assert s == pytest.approx(batched_entropy(m), abs=1e-12)
        assert np.allclose(g, g.conj().T, atol=1e-12) and np.isfinite(g).all()
        if rank < d:
            continue
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 1e-6 * (a + a.conj().T)
        diff = (batched_entropy(m + h) - batched_entropy(m - h)) / 2.0
        assert np.trace(g @ h).real == pytest.approx(diff, rel=1e-6)


FAMILIES = ("identity(2)", "dephasing(0.1)", "depolarizing(0.1)", "erasure(0.2)",
            "amplitude_damping(0.3)")


@pytest.mark.parametrize("level", [1, 2])
def test_exact_gradient_matches_central_differences(level):
    named = [channel_from_name(name) for name in FAMILIES]
    # the same Kraus operators unflagged run the d_A^2 + 2 branch gradient
    raw = [QuantumChannel(c.dim_in, c.dim_out, c.kraus) for c in named]
    for name, channel in zip(FAMILIES * 2, named + raw):
        problem = _EnsembleProblem(channel, level)
        rng = seed_rng(level, "gradient-oracle", name)
        case = (name, channel.phase_covariant)
        thetas = np.stack([problem.random_start(rng) for _ in range(2)])
        canonical = np.stack(problem.canonical_starts(rng))
        # the objective is linear in t, so two difference gradients serve every t
        r_q, r_c = (central_differences(lambda th, k=k: problem.rates(th)[k], thetas[:1],
                                        problem.chunk)[0] for k in (0, 1))
        for t in (0.0, 0.3, 0.5, 1.0):
            weighted = problem.weighted(thetas, [t])
            exact = problem.gradient(weighted)
            assert not exact[:, -1].any(), (case, t)  # the weight is not a parameter
            oracle = t * r_q + (1.0 - t) * r_c
            assert np.abs(exact[0, :-1] - oracle).max() <= 1e-6 * np.abs(oracle).max(), (case, t)
            rows = np.concatenate([problem.gradient(row[None]) for row in weighted])
            assert np.array_equal(exact, rows), (case, t)
            assert np.isfinite(problem.gradient(problem.weighted(canonical, [t]))).all(), (case, t)
        # rows of different weights in one call get their own weight's gradient
        mixed = problem.weighted(thetas, [0.3, 1.0])
        assert np.array_equal(problem.gradient(mixed), np.concatenate(
            [problem.gradient(problem.weighted(thetas, [t])) for t in (0.3, 1.0)])), case


def dephrasure(p: float, q: float) -> QuantumChannel:
    """(1-q)[(1-p) rho + p Z rho Z] on the first two levels, plus q |e><e|."""
    embed = np.eye(3, 2)
    erase = np.zeros((2, 3, 2))
    erase[0, 2, 0] = erase[1, 2, 1] = 1.0
    return QuantumChannel(2, 3, (np.sqrt((1 - q) * (1 - p)) * embed,
                                 np.sqrt((1 - q) * p) * embed @ np.diag([1.0, -1.0]),
                                 np.sqrt(q) * erase[0], np.sqrt(q) * erase[1]))


def test_dephrasure_two_copies_beat_one():
    """Two uses of dephrasure(0.175, 0.25) carry more coherent information per use
    than the level-1 maximum 0.004259 (Leditzky, Leung & Smith, PRL 121, 160501).

    Only the level-2 side is witnessed here: the level-1 value is an optimizer
    figure, not a certified upper bound, until a dual bound backs it.
    """
    channel = dephrasure(0.175, 0.25)
    res = optimize_scalarized(channel, 2, 1.0, OptimizerOptions(restarts=2, max_iters=40, seed=0))
    info = generalized_information(res.ensemble, channel_power(channel, 2))
    assert info.r_q / 2 >= 0.006


def test_optimizer_options_are_validated():
    for kwargs in (dict(restarts=-3), dict(max_iters=0), dict(restarts=-3, max_iters=0),
                   dict(max_iters=2.5), dict(restarts=True)):
        with pytest.raises(ValidationError):
            OptimizerOptions(**kwargs)
    assert OptimizerOptions(restarts=0, max_iters=1).restarts == 0


@pytest.mark.parametrize("name", sorted(ENDPOINTS))
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_level_one_endpoints_match_closed_forms(name, t):
    c_q, c_c = ENDPOINTS[name]
    for seed in range(5):
        res = optimize_scalarized(channel_from_name(name), 1, t,
                                  OptimizerOptions(restarts=4, max_iters=50, seed=seed))
        assert res.value == pytest.approx(c_q if t == 1.0 else c_c, abs=1e-8), seed


def test_dephasing_interior_weight_matches_closed_form_curve():
    # t = 0.64 supports the dephasing(0.1) frontier at an interior point
    t = 0.64
    exact = golden_max(lambda nu: (1 - t) * dephasing_curve(0.1, nu)[1]
                       + t * dephasing_curve(0.1, nu)[0], 0.0, 0.5)
    for seed in range(5):
        res = optimize_scalarized(dephasing_channel(0.1), 1, t,
                                  OptimizerOptions(restarts=4, max_iters=50, seed=seed))
        assert exact - 1e-8 <= res.value <= exact + 1e-12, seed


def test_dephasing_curve_stays_inside_closed_form_frontier():
    """The 11-weight level-1 dephasing(0.1) curve: every vertex inside the exact
    region, the grid's frontier gap, and the slope-1 c_g from below."""
    exact_cg = dephasing_slope_one_cg(0.1)
    assert exact_cg == pytest.approx(0.702493359, abs=1e-9)
    c_q = ENDPOINTS["dephasing(0.1)"][0]
    for seed in range(5):
        curve = compute_curve(channel_from_name("dephasing(0.1)"), 1, default_t_grid(11),
                              OptimizerOptions(restarts=4, max_iters=50, seed=seed))
        for p in curve.points:
            assert p.r_q <= c_q + 1e-9 and p.r_c <= dephasing_r_c(0.1, p.r_q) + 1e-9, seed
        gap = frontier_gap(0.1, [(p.r_q, p.r_c) for p in curve.points],
                           curve.c_q_endpoint, curve.c_c_endpoint)
        assert gap <= 6e-3, seed
        c_g = sum(intersect(curve, Slope(1.0)))
        assert exact_cg - 2e-3 <= c_g <= exact_cg + 1e-9, seed


def test_phase_covariant_flag_follows_construction():
    for name in FAMILIES:
        channel = channel_from_name(name)
        assert channel.phase_covariant and channel_power(channel, 3).phase_covariant
        assert not QuantumChannel(channel.dim_in, channel.dim_out, channel.kraus).phase_covariant
        assert not compose(channel, identity_channel(channel.dim_in)).phase_covariant
        assert not channel_from_json(channel_to_json(channel)).phase_covariant
        assert not tensor_channels(channel, random_channel(2, 2, 2, 0)).phase_covariant
    assert _EnsembleProblem(dephasing_channel(0.1), 2).n == 5
    assert _EnsembleProblem(dephrasure(0.1, 0.2), 2).n == 18


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", FAMILIES)
def test_phase_covariant_search_is_no_worse_and_witnessed(name, level):
    """d_A + 1 branches against the dephased average lose nothing against
    d_A^2 + 2 branches against the full one, and the twirled witness of
    d_A (d_A + 1) branches re-evaluates to the rates the search read."""
    channel = channel_from_name(name)
    raw = QuantumChannel(channel.dim_in, channel.dim_out, channel.kraus)
    problem = _EnsembleProblem(channel, level)
    raw_problem = _EnsembleProblem(raw, level)
    d = problem.d_a
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        for seed in range(5):
            opts = OptimizerOptions(restarts=4, max_iters=60, seed=seed)
            res = optimize_scalarized(channel, level, t, opts)
            raw_res = optimize_scalarized(raw, level, t, opts)
            assert res.value >= raw_res.value - 1e-9, (t, seed)
            assert res.ensemble.size == d * (d + 1)
            # res.r_q and res.r_c are evaluate_point's re-evaluation of the witness
            r_q, r_c = problem.rates(res.params[None])
            assert (res.r_q, res.r_c) == pytest.approx(
                (max(r_q[0], 0.0) / level, r_c[0] / level), abs=1e-9), (t, seed)
            # the unflagged witness is its d^2 + 2 branches, untwirled
            assert raw_res.ensemble.size == d * d + 2
            r_q, r_c = raw_problem.rates(raw_res.params[None])
            assert (raw_res.r_q, raw_res.r_c) == pytest.approx(
                (max(r_q[0], 0.0) / level, r_c[0] / level), abs=1e-9), (t, seed)


def test_level_three_phase_covariant_solve_is_witnessed():
    channel = channel_from_name("amplitude_damping(0.3)")
    opts = OptimizerOptions(restarts=0, max_iters=20)
    res = optimize_scalarized(channel, 3, 0.5, opts)
    problem = _EnsembleProblem(channel, 3)
    assert problem.n == 9 and res.ensemble.size == 72
    r_q, r_c = problem.rates(res.params[None])
    assert (res.r_q, res.r_c) == pytest.approx((max(r_q[0], 0.0) / 3, r_c[0] / 3), abs=1e-9)
    # 66 branches against the full average, at the same budget, reach no more
    raw = QuantumChannel(channel.dim_in, channel.dim_out, channel.kraus)
    assert res.value >= optimize_scalarized(raw, 3, 0.5, opts).value - 1e-9
