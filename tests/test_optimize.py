"""Lock-step multi-start ascent: every row follows its own lone path."""
import numpy as np

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

    def objective(thetas):
        return problem.rates(thetas)[0]

    active = []

    def gradient(thetas):
        active.append(len(thetas))
        return problem.gradient(thetas, 1.0)

    kwargs = dict(max_iters=200, init_step=INIT_STEP, chunk=problem.chunk, gradient=gradient)
    optimize.maximize(objective, starts, **kwargs)
    # the starts stop at different iterations, so the active set shrinks in steps
    assert active[0] == len(starts) and len(set(active)) >= 4
    assert_rows_match_lone_runs(objective, starts, **kwargs)


def test_lock_step_matches_lone_ascents_with_differences():
    # 3 x 1024 difference rows overrun the problem's chunk, so the stacked
    # batch is split where no lone batch is
    problem = _GadgetProblem(extend_source(two_block_mixed()), "Y")
    assert 2 * problem.n_params < problem.chunk < 6 * problem.n_params

    def objective(thetas):
        value, fid = problem.evaluate(thetas)
        return value - 100.0 * np.clip(0.9 - fid, 0.0, None) ** 2

    rng = np.random.default_rng(1)
    starts = np.stack([problem.identity_params()]
                      + [rng.normal(size=problem.n_params) for _ in range(2)])
    assert_rows_match_lone_runs(objective, starts, max_iters=3, init_step=0.2,
                                chunk=problem.chunk)


def test_lock_step_matches_lone_ascents_with_converse_gradient():
    problem = _GadgetProblem(extend_source(two_block_mixed()), "W")
    floor, kappa = 0.9, 100.0

    def objective(thetas):
        value, fid = problem.evaluate(thetas)
        return value - kappa * np.clip(floor - fid, 0.0, None) ** 2

    rng = np.random.default_rng(2)
    starts = np.stack([problem.identity_params()]
                      + [rng.normal(size=problem.n_params) for _ in range(3)])
    assert_rows_match_lone_runs(objective, starts, max_iters=25, init_step=0.2,
                                chunk=problem.chunk,
                                gradient=lambda thetas: problem.gradient(thetas, floor, kappa))
