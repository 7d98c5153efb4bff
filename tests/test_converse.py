"""Variational converse gadgets on block-form sources."""
import numpy as np
import pytest

from qcap import converse
from qcap.converse import (ConverseOptions, GadgetEstimate, _GadgetProblem, estimate_W,
                           estimate_Y, evaluate_isometry, extend_source, gadget_grid)
from qcap.errors import DimensionMismatchError, ValidationError
from qcap.linalg import SUPPORT_CUTOFF, batched_entropy, hermitize
from qcap.sampling import seed_rng
from qcap.spaces import TensorSpace
from qcap.states import DensityMatrix, permute_subsystems

from gradient_oracle import central_differences

FAST = ConverseOptions(restarts=1, iters_per_stage=8, stages=3, seed=0)


def cqr_state(dims, matrix) -> DensityMatrix:
    space = TensorSpace.of(("C", dims[0]), ("Q", dims[1]), ("R", dims[2]))
    return DensityMatrix(space, matrix)


def classical_bit(p0: float = 0.5) -> DensityMatrix:
    """A classical bit with its copy held by the reference."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = p0
    m[3, 3] = 1.0 - p0
    return cqr_state((2, 1, 2), m)


def pure_ebit() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return cqr_state((1, 2, 2), np.outer(v, v.conj()))


def two_block_mixed(seed: int = 0) -> DensityMatrix:
    """Two classical sectors, each holding a mixed correlated qubit pair."""
    rng = seed_rng(seed, "two-block")
    m = np.zeros((2, 4, 2, 4), dtype=complex)
    for c, p in enumerate((0.6, 0.4)):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        blk = a @ a.conj().T
        m[c, :, c, :] = p * blk / np.trace(blk).real
    return cqr_state((2, 2, 2), m.reshape(8, 8))


def mixed_rank_blocks(seed: int = 0) -> DensityMatrix:
    """A pure ebit branch of weight 0.3 beside a full-rank branch of weight 0.7."""
    rng = seed_rng(seed, "mixed-rank")
    ebit = np.zeros(4, dtype=complex)
    ebit[0] = ebit[3] = 1.0 / np.sqrt(2.0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = a @ a.conj().T
    m = np.zeros((2, 4, 2, 4), dtype=complex)
    m[0, :, 0, :] = 0.3 * np.outer(ebit, ebit.conj())
    m[1, :, 1, :] = 0.7 * full / np.trace(full).real
    return cqr_state((2, 2, 2), m.reshape(8, 8))


def test_extend_source_classical_bit():
    src = extend_source(classical_bit(0.65))
    assert (src.dim_c, src.dim_q, src.dim_r) == (2, 1, 2)
    assert src.dim_rp == 1  # pure branches need no purifying reference
    assert src.probs == pytest.approx([0.65, 0.35], abs=1e-12)
    for c in range(2):
        marg = src.branch_marginal(c)
        assert np.trace(marg).real == pytest.approx(1.0, abs=1e-12)
        # branch c holds the copy state |c><c| on R
        assert marg[c, c].real == pytest.approx(1.0, abs=1e-12)


def test_extend_source_purifies_mixed_branches():
    src = extend_source(two_block_mixed())
    assert src.dim_rp == 4  # full-rank 4x4 branches
    state = two_block_mixed()
    t4 = state.matrix.reshape(2, 4, 2, 4)
    for c in range(2):
        expect = np.asarray(t4[c, :, c, :]) / src.probs[c]
        assert src.branch_marginal(c) == pytest.approx(expect, abs=1e-10)
    # the stored target is the block-diagonal source itself
    assert src.target == pytest.approx(state.matrix, abs=1e-10)

    # branches of different ranks share R', sized by the full-rank branch
    state = mixed_rank_blocks()
    src = extend_source(state)
    assert src.dim_rp == 4
    assert src.probs == pytest.approx([0.3, 0.7], abs=1e-12)
    t4 = state.matrix.reshape(2, 4, 2, 4)
    for c in range(2):
        expect = np.asarray(t4[c, :, c, :]) / src.probs[c]
        assert src.branch_marginal(c) == pytest.approx(expect, abs=1e-10)
    # the rank-one branch fills its first R' column; the other three are zero up to
    # the square root of a rounding-level eigenvalue
    cols = src.branches[0].reshape(4, 4)
    assert np.linalg.norm(cols[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(cols[:, 1:]) <= 1e-7
    assert src.target == pytest.approx(state.matrix, abs=1e-10)


def test_extend_source_label_handling():
    state = classical_bit()
    flipped = permute_subsystems(state, ("R", "Q", "C"))
    src = extend_source(flipped)
    assert src.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    with pytest.raises(ValidationError):
        extend_source(DensityMatrix(TensorSpace.of(("C", 2), ("Q", 2)),
                                    np.eye(4) / 4.0))


def test_extend_source_rejects_off_block_weight():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = 0.25  # coherence between classical sectors
    with pytest.raises(ValidationError):
        extend_source(cqr_state((2, 1, 2), m))


def test_extend_source_size_cap():
    big = DensityMatrix(TensorSpace.of(("C", 2), ("Q", 4), ("R", 2)),
                        np.eye(16) / 16.0)
    with pytest.raises(ValidationError):
        extend_source(big)


def test_extend_source_rejects_negative_block_weight():
    # each diagonal entry of block 1 is -0.9e-10: the state is valid within
    # 1e-10 but the block weight -3.6e-10 is not
    m = np.zeros((2, 4, 2, 4), dtype=complex)
    m[0, :, 0, :] = (1.0 + 3.6e-10) * np.eye(4) / 4
    m[1, :, 1, :] = -0.9e-10 * np.eye(4)
    with pytest.raises(ValidationError, match="negative block weight"):
        extend_source(cqr_state((2, 2, 2), m.reshape(8, 8)))

def test_zero_epsilon_anchors():
    # the anchor holds at any search budget: the identity embedding stays in
    # the candidate pool and nothing feasible at fidelity 1 can beat it
    tiny = ConverseOptions(restarts=0, iters_per_stage=4, stages=2, seed=0)
    for state in (classical_bit(0.65), pure_ebit(), two_block_mixed()):
        src = extend_source(state)
        for fn in (estimate_Y, estimate_W):
            est = fn(src, 0.0, tiny)
            assert est.value == pytest.approx(0.0, abs=1e-9)
            assert est.achieved_fidelity >= 1.0 - 1e-9


def test_epsilon_range_enforced():
    src = extend_source(classical_bit())
    with pytest.raises(ValidationError):
        estimate_Y(src, 0.6, FAST)
    with pytest.raises(ValidationError):
        estimate_Y(src, -0.1, FAST)


def test_witness_reevaluation_is_exact():
    src = extend_source(classical_bit(0.65))
    for kind, fn in (("Y", estimate_Y), ("W", estimate_W)):
        est = fn(src, 0.3, FAST)
        value, fid = evaluate_isometry(src, kind, est.witness_isometry)
        assert value == pytest.approx(est.value, abs=1e-12)
        assert fid == pytest.approx(est.achieved_fidelity, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        evaluate_isometry(src, "Y", np.eye(4))


def test_witness_isometry_shape():
    src = extend_source(classical_bit())
    est = estimate_Y(src, 0.2, FAST)
    cq = src.dim_cq
    assert est.witness_isometry.shape == (cq ** 3, cq)
    gram = est.witness_isometry.conj().T @ est.witness_isometry
    assert gram == pytest.approx(np.eye(cq), abs=1e-10)


def test_grid_is_monotone_and_feasible():
    src = extend_source(classical_bit(0.5))
    grid = (0.0, 0.1, 0.3, 0.5)
    for kind in ("Y", "W"):
        ests = gadget_grid(src, grid, kind, FAST)
        values = [e.value for e in ests]
        assert values == sorted(values)
        for eps, est in zip(grid, ests):
            assert est.epsilon == eps
            assert est.achieved_fidelity >= 1.0 - eps - 1e-6


def test_grid_level_that_does_not_improve_inherits_its_predecessor(monkeypatch):
    src = extend_source(two_block_mixed())
    lone = converse._estimate
    warms = []

    def lower_at_second(source, kind, epsilon, opts, warm_isometries):
        warms.append(warm_isometries)
        est = lone(source, kind, epsilon, opts, warm_isometries)
        if epsilon != 0.2:
            return est
        return GadgetEstimate(kind=kind, epsilon=epsilon, value=est.value - 1.0,
                              achieved_fidelity=est.achieved_fidelity,
                              witness_isometry=est.witness_isometry)

    monkeypatch.setattr(converse, "_estimate", lower_at_second)
    tiny = ConverseOptions(restarts=0, iters_per_stage=2, stages=1, seed=0)
    first, second, third = gadget_grid(src, (0.1, 0.2, 0.3), "Y", tiny)
    assert (second.kind, second.epsilon) == ("Y", 0.2)
    assert second.value == first.value
    assert second.achieved_fidelity == first.achieved_fidelity
    assert second.witness_isometry is first.witness_isometry
    # the inherited witness seeds the next level
    assert warms[2][0] is first.witness_isometry and third.epsilon == 0.3


def test_smeared_classical_bit_reaches_log_c():
    # at epsilon = 1/2 a uniform bit can be smeared completely, which drives
    # the classical leakage entropy to its cap log|C| = 1
    src = extend_source(classical_bit(0.5))
    ests = gadget_grid(src, (0.0, 0.5), "W",
                       ConverseOptions(restarts=2, iters_per_stage=12, stages=3, seed=0))
    assert ests[-1].value == pytest.approx(1.0, abs=0.05)
    assert ests[-1].value <= 1.0 + 1e-9


def test_estimates_are_deterministic():
    tiny = ConverseOptions(restarts=1, iters_per_stage=4, stages=2, seed=0)
    src = extend_source(two_block_mixed())
    a = estimate_Y(src, 0.2, tiny)
    b = estimate_Y(src, 0.2, tiny)
    assert a.value == b.value
    assert np.array_equal(a.witness_isometry, b.witness_isometry)


def reference_evaluate(problem: _GadgetProblem, thetas: np.ndarray):
    """(objective, fidelity) by direct index contraction over each branch."""
    src = problem.src
    iso = problem.isometries(thetas)
    b = iso.shape[0]
    c, qd, r, rp = src.dim_c, src.dim_q, src.dim_r, src.dim_rp
    cq, e = src.dim_cq, problem.dim_e
    cols = iso.reshape(b, problem.dim_out, c, qd)
    branch = src.branches.reshape(c, qd, r * rp)
    phi = np.einsum("boxq,xqw->bxow", cols, branch)

    phi_y = phi.reshape(b, c, cq, e, r * rp)
    rho_y = np.einsum("x,bxaew,bxcev->bawcv", src.probs, phi_y, phi_y.conj())
    d_y = cq * r * rp
    s_y = batched_entropy(rho_y.reshape(b, d_y, d_y))

    phi_c = phi.reshape(b, c, c, qd * e * r * rp)
    if problem.kind == "Y":
        rho_c = np.einsum("x,bxcw,bxdw->bcd", src.probs, phi_c, phi_c.conj())
        value = s_y - batched_entropy(rho_c)
    else:
        rho_xc = np.einsum("bxcw,bxdw->bxcd", phi_c, phi_c.conj())
        value = np.einsum("x,bx->b", src.probs, batched_entropy(rho_xc))

    phi_f = phi.reshape(b, c, cq, e, r, rp)
    rho_f = np.einsum("x,bxaerw,bxcesw->barcs", src.probs, phi_f, phi_f.conj())
    d_f = cq * r
    m = problem.target_sqrt[None] @ rho_f.reshape(b, d_f, d_f) @ problem.target_sqrt[None]
    eigs = np.clip(np.linalg.eigvalsh(hermitize(m)), 0.0, None)
    return value, np.minimum(np.sqrt(eigs).sum(axis=1), 1.0)


def mixed_ebit(seed: int = 0) -> DensityMatrix:
    """One classical sector holding a full-rank qubit pair: d_R' = 4."""
    rng = seed_rng(seed, "mixed-ebit")
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    blk = a @ a.conj().T
    return cqr_state((1, 2, 2), blk / np.trace(blk).real)


def test_gadget_evaluate_matches_direct_contraction():
    sources = {"uniform bit": classical_bit(0.5),
               "pure ebit": pure_ebit(),
               "mixed ebit": mixed_ebit(),
               "two mixed blocks": two_block_mixed(),
               "mixed ranks": mixed_rank_blocks(),
               "zero-weight block": classical_bit(1.0)}
    for name, state in sources.items():
        src = extend_source(state)
        for kind in ("Y", "W"):
            problem = _GadgetProblem(src, kind)
            x = seed_rng(4, "gadget-oracle", name, kind).normal(size=(64, 2, problem.n_params))
            thetas = x[:, 0] + 1j * x[:, 1]
            value, fid = problem.evaluate(thetas)
            ref_value, ref_fid = reference_evaluate(problem, thetas)
            assert value == pytest.approx(ref_value, abs=1e-12), (name, kind)
            # a fidelity sums square roots of eigenvalues near zero
            assert fid == pytest.approx(ref_fid, abs=1e-7), (name, kind)
    assert extend_source(classical_bit(1.0)).probs[1] == 0.0
    assert extend_source(mixed_ebit()).dim_rp == 4


def bit_times_ebit() -> DensityMatrix:
    """R holds a copy of the bit and an ebit partner: a rank-deficient target."""
    m = np.zeros((2, 8, 2, 8), dtype=complex)
    for c in range(2):
        v = np.zeros(8, dtype=complex)
        for i in range(2):
            v[i * 4 + c * 2 + i] = 1.0 / np.sqrt(2.0)
        m[c, :, c, :] = 0.5 * np.outer(v, v.conj())
    return cqr_state((2, 2, 4), m.reshape(16, 16))


def penalized(problem: _GadgetProblem, floor: float, kappa: float):
    def objective(thetas):
        value, fid = problem.evaluate(thetas)
        return value - kappa * np.clip(floor - fid, 0.0, None) ** 2
    return objective


def penalized_without_null_space(problem: _GadgetProblem, floor: float, kappa: float):
    """The penalized objective by direct contraction, with the fidelity summing
    square roots of the eigenvalues above SUPPORT_CUTOFF only."""
    src = problem.src

    def objective(thetas):
        value, _ = reference_evaluate(problem, thetas)
        iso = problem.isometries(thetas)
        b = len(iso)
        c, qd, r, rp = src.dim_c, src.dim_q, src.dim_r, src.dim_rp
        phi = np.einsum("boxq,xqw->bxow", iso.reshape(b, problem.dim_out, c, qd),
                        src.branches.reshape(c, qd, r * rp))
        phi = phi.reshape(b, c, src.dim_cq, problem.dim_e, r, rp)
        rho_f = np.einsum("x,bxaerw,bxcesw->barcs", src.probs, phi, phi.conj())
        rho_f = rho_f.reshape(b, src.dim_cq * r, src.dim_cq * r)
        eigs = np.linalg.eigvalsh(hermitize(problem.target_sqrt @ rho_f @ problem.target_sqrt))
        roots = np.where(eigs > SUPPORT_CUTOFF, np.sqrt(np.clip(eigs, 0.0, None)), 0.0)
        fid = np.minimum(roots.sum(axis=1), 1.0)
        return value - kappa * np.clip(floor - fid, 0.0, None) ** 2
    return objective


def rank_deficient_targets() -> dict:
    """Sources whose fidelity operator has rounding-level eigenvalues."""
    return {"lopsided bit": classical_bit(0.65), "pure ebit": pure_ebit(),
            "bit x ebit": bit_times_ebit(), "zero-weight block": classical_bit(1.0)}


def test_converse_gradient_matches_central_differences():
    # On rank-deficient targets a fidelity that took square roots of rounding-level
    # eigenvalues (~1e-17) would put 0.2-2% noise into its differences; with the
    # penalty on, those targets are compared against an independent contraction
    # whose fidelity drops them, as evaluate and the exact gradient do.
    full_rank = {"mixed ebit": mixed_ebit(), "two mixed blocks": two_block_mixed()}
    deficient = rank_deficient_targets()
    for name, state in {**full_rank, **deficient}.items():
        src = extend_source(state)
        for kind in ("Y", "W"):
            problem = _GadgetProblem(src, kind)
            rng = seed_rng(5, "converse-gradient", name, kind)
            x = rng.normal(size=(3, 2, problem.n_params))
            thetas = x[:, 0] + 1j * x[:, 1]
            for floor, kappa in ((0.0, 10.0), (0.999, 100.0)):
                if floor > 0 and name in deficient:
                    objective = penalized_without_null_space(problem, floor, kappa)
                else:
                    objective = penalized(problem, floor, kappa)
                exact = problem.gradient(thetas, floor, kappa)
                diff = central_differences(objective, thetas, problem.chunk)
                err = np.linalg.norm(exact - diff, axis=1)
                # W on the pure ebit has a zero gradient, so the bound has an absolute part
                bound = 1e-6 * np.linalg.norm(diff, axis=1) + 1e-9
                assert np.all(err <= bound), (name, kind, floor, err / bound)
                if floor > 0:
                    assert np.linalg.norm(diff, axis=1).min() > 0.1  # the penalty is active


def test_penalized_evaluate_is_differentiable_on_rank_deficient_targets():
    # evaluate and gradient share one fidelity, so differences of the value match
    floor, kappa = 0.999, 100.0
    for name, state in rank_deficient_targets().items():
        src = extend_source(state)
        for kind in ("Y", "W"):
            problem = _GadgetProblem(src, kind)
            x = seed_rng(5, "converse-gradient", name, kind).normal(size=(3, 2, problem.n_params))
            thetas = x[:, 0] + 1j * x[:, 1]
            exact = problem.gradient(thetas, floor, kappa)
            diff = central_differences(penalized(problem, floor, kappa), thetas, problem.chunk)
            err = np.linalg.norm(exact - diff, axis=1)
            assert np.all(err <= 1e-6 * np.linalg.norm(diff, axis=1)), (name, kind, err)


def test_estimate_runs_one_maximize_per_stage(monkeypatch):
    src = extend_source(two_block_mixed())
    opts = ConverseOptions(restarts=2, iters_per_stage=3, stages=3, seed=0)
    warm = estimate_W(src, 0.1, opts).witness_isometry
    calls = []
    lone = converse.maximize

    def counted(objective, theta0, **kwargs):
        calls.append((len(theta0), kwargs.get("gradient") is not None))
        return lone(objective, theta0, **kwargs)

    monkeypatch.setattr(converse, "maximize", counted)
    estimate_W(src, 0.2, opts, warm_isometries=(warm,))
    # identity, the warm start and two restarts, all in one call per stage
    assert calls == [(4, True)] * opts.stages


def test_isometry_inputs_are_validated():
    src = extend_source(pure_ebit())
    good = estimate_Y(src, 0.1, FAST).witness_isometry
    with_nan = good.copy()
    with_nan[0, 0] = np.nan
    bad = [(np.ones((2, 2)), DimensionMismatchError),
           (with_nan, ValidationError),
           (np.ones((8, 2)), ValidationError),
           (2.0 * good, ValidationError)]
    for iso, error in bad:
        with pytest.raises(error):
            evaluate_isometry(src, "Y", iso)
        for fn in (estimate_Y, estimate_W):
            with pytest.raises(error):
                fn(src, 0.1, FAST, warm_isometries=(iso,))
    # a witness that is orthonormal within 1e-8 is accepted as it is
    nearly = good + 1e-11
    assert evaluate_isometry(src, "Y", nearly)[0] == pytest.approx(
        evaluate_isometry(src, "Y", good)[0], abs=1e-9)


def test_empty_epsilon_grid_is_rejected():
    src = extend_source(classical_bit())
    for kind in ("Y", "W"):
        with pytest.raises(ValidationError):
            gadget_grid(src, [], kind, FAST)


def test_converse_options_are_validated():
    for kwargs in (dict(restarts=-1), dict(restarts=1.5), dict(stages=0),
                   dict(iters_per_stage=0), dict(iters_per_stage=-2), dict(stages=True)):
        with pytest.raises(ValidationError):
            ConverseOptions(**kwargs)
    assert ConverseOptions(restarts=0, stages=np.int64(1)).restarts == 0
