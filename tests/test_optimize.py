"""Lock-step multi-start ascent: every row follows its own lone path."""
import numpy as np
import pytest

from qcap import optimize
from qcap.channels import identity_channel
from qcap.converse import _GadgetProblem, extend_source
from qcap.tradeoff import INIT_STEP, _EnsembleProblem

from test_converse import two_block_mixed


def assert_rows_match_lone_runs(objective, starts, **kwargs):
    thetas, values = optimize.maximize(objective, starts, **kwargs)
    for start, theta, value in zip(starts, thetas, values):
        lone_theta, lone_value = optimize.maximize(objective, start[None], **kwargs)
        assert np.array_equal(lone_theta[0], theta)
        assert np.array_equal(lone_value[0], value)


def test_lock_step_matches_lone_ascents_with_exact_gradient():
    problem = _EnsembleProblem(identity_channel(2), 1)
    rng = np.random.default_rng(0)
    starts = np.stack(problem.canonical_starts(rng)
                      + [problem.random_start(rng) for _ in range(3)])
    # every start at three weights, so rows of different weights share each call
    rows = problem.weighted(starts, [0.0, 0.6, 1.0])
    active = []

    def gradient(batch):
        active.append(len(batch))
        return problem.gradient(batch)

    kwargs = dict(max_iters=200, init_step=INIT_STEP, chunk=problem.chunk, gradient=gradient)
    thetas, _ = optimize.maximize(problem.objective, rows, **kwargs)
    # the starts stop at different iterations, so the active set shrinks in steps
    assert active[0] == len(rows) and len(set(active)) >= 4
    assert np.array_equal(thetas[:, -1], rows[:, -1])  # no row's weight moves
    assert_rows_match_lone_runs(problem.objective, rows, **kwargs)


def test_objective_and_gradient_calls_stay_within_their_slices():
    problem = _EnsembleProblem(identity_channel(2), 1)
    rng = np.random.default_rng(1)
    rows = np.stack([problem.random_start(rng) for _ in range(7)])
    chunk = 5
    seen = {"objective": [], "gradient": []}

    def objective(batch):
        seen["objective"].append(len(batch))
        return problem.objective(batch)

    def gradient(batch):
        seen["gradient"].append(len(batch))
        return problem.gradient(batch)

    thetas, values = optimize.maximize(objective, problem.weighted(rows, [0.5]), gradient=gradient,
                                       max_iters=6, init_step=INIT_STEP, chunk=chunk)
    # a gradient call takes at most half the objective's slice
    assert max(seen["objective"]) == chunk and max(seen["gradient"]) == chunk // 2
    # slicing changes no row: the same ascent in one call per step
    whole, whole_values = optimize.maximize(
        problem.objective, problem.weighted(rows, [0.5]), gradient=problem.gradient,
        max_iters=6, init_step=INIT_STEP, chunk=len(rows) * 6)
    assert np.array_equal(thetas, whole) and np.array_equal(values, whole_values)


@pytest.mark.parametrize("kind, chunk", [("W", None), ("Y", 7)], ids=["W", "Y"])
def test_lock_step_matches_lone_ascents_with_converse_gradient(kind, chunk):
    # with a chunk of 7 the stacked 24-row line search is split where no lone one is
    problem = _GadgetProblem(extend_source(two_block_mixed()), kind)
    floor, kappa = 0.9, 100.0

    def objective(thetas):
        value, fid = problem.evaluate(thetas)
        return value - kappa * np.clip(floor - fid, 0.0, None) ** 2

    x = np.random.default_rng(2).normal(size=(3, 2, problem.n_params))
    starts = np.concatenate([problem.identity_params()[None], x[:, 0] + 1j * x[:, 1]])
    assert_rows_match_lone_runs(objective, starts, max_iters=25, init_step=0.2,
                                chunk=chunk or problem.chunk,
                                gradient=lambda thetas: problem.gradient(thetas, floor, kappa))
