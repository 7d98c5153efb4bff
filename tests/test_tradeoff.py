"""Classical/quantum trade-off curves and the scalarized optimizer."""
import numpy as np
import pytest

from qcap.channels import (QuantumChannel, channel_from_name, channel_power,
                           dephasing_channel, identity_channel)
from qcap.errors import NumericalFailureError, ValidationError
from qcap.information import CQEnsemble, generalized_information
from qcap.linalg import batched_entropy, binary_entropy, entropy_and_gradient
from qcap.sampling import random_state, seed_rng
from qcap.states import maximally_entangled
from qcap.spaces import TensorSpace
from qcap.tradeoff import (CurvePoint, OptimizerOptions, _EnsembleProblem, compute_curve,
                           default_t_grid, evaluate_point, optimize_scalarized,
                           validate_envelope)

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


def test_warm_start_validation():
    n_params = _EnsembleProblem(identity_channel(2), 1).n_params
    with pytest.raises(ValidationError, match="wrong parameter shape"):
        optimize_scalarized(identity_channel(2), 1, 0.5, SMALL,
                            extra_starts=[np.ones(n_params + 1)])
    # every branch matrix zero leaves the weighted branch states 0 / 0
    with pytest.raises(ValidationError, match="all branch matrices zero"):
        optimize_scalarized(identity_channel(2), 1, 0.5, SMALL,
                            extra_starts=[np.zeros(n_params)])


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
    for name in FAMILIES:
        problem = _EnsembleProblem(channel_from_name(name), level)
        rng = seed_rng(level, "gradient-oracle", name)
        thetas = np.stack([problem.random_start(rng) for _ in range(2)])
        canonical = np.stack(problem.canonical_starts(rng))
        # the objective is linear in t, so two difference gradients serve every t
        r_q, r_c = (central_differences(lambda th, k=k: problem.rates(th)[k], thetas[:1],
                                        problem.chunk)[0] for k in (0, 1))
        for t in (0.0, 0.3, 0.5, 1.0):
            exact = problem.gradient(thetas, t)
            oracle = t * r_q + (1.0 - t) * r_c
            assert np.abs(exact[0] - oracle).max() <= 1e-6 * np.abs(oracle).max(), (name, t)
            rows = np.concatenate([problem.gradient(th[None], t) for th in thetas])
            assert np.array_equal(exact, rows), (name, t)
            assert np.isfinite(problem.gradient(canonical, t)).all(), (name, t)


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
