"""Strong-typicality sets, projectors, and block-source projection."""
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from count_oracle import typical_count_by_vectors
from dense_oracle import dense_projection
from qcap import typicality
from qcap.errors import ResourceLimitError, ValidationError
from qcap.sampling import random_state, seed_rng
from qcap.spaces import TensorSpace
from qcap.states import DensityMatrix, permute_subsystems
from qcap.typicality import (TypicalSpec, conditional_dimension_bound,
                             conditional_typical_count, conditional_typical_mass,
                             conditional_typical_projector,
                             enumerate_conditionally_typical, enumerate_typical,
                             is_conditionally_typical, is_typical,
                             project_and_renormalize, sample_typical_fraction,
                             typical_count, typical_dimension_bound, typical_mass,
                             typical_projector)


def cqr_state(dim_c, dim_q, dim_r, blocks) -> DensityMatrix:
    """Block-diagonal source over C with QR branch states."""
    space = TensorSpace.of(("C", dim_c), ("Q", dim_q), ("R", dim_r))
    mss = np.zeros((dim_c * dim_q * dim_r,) * 2, dtype=complex)
    view = mss.reshape(dim_c, dim_q * dim_r, dim_c, dim_q * dim_r)
    for c, (p, omega) in enumerate(blocks):
        view[c, :, c, :] = p * omega
    return DensityMatrix(space, mss)


def pure(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def classical_bit() -> DensityMatrix:
    return cqr_state(2, 1, 2, [(0.5, pure([1, 0])), (0.5, pure([0, 1]))])


def regroup_power(block: np.ndarray, d_q: int, d_r: int, m: int) -> np.ndarray:
    """m-fold kron of a QR block with legs regrouped to (Q^m, R^m)."""
    big = np.array([[1.0 + 0.0j]])
    for _ in range(m):
        big = np.kron(big, block)
    perm = [2 * t for t in range(m)] + [2 * t + 1 for t in range(m)]
    legs = big.reshape((d_q, d_r) * (2 * m))
    legs = legs.transpose(perm + [2 * m + i for i in perm])
    return legs.reshape((d_q * d_r) ** m, (d_q * d_r) ** m)


def test_uniform_bit_everything_typical_at_half_slack():
    spec = TypicalSpec([0.5, 0.5], 2, 0.5)
    assert sum(1 for _ in enumerate_typical(spec)) == 4
    assert typical_mass(spec) == pytest.approx(1.0, abs=0)


def test_point_mass_with_tight_slack_keeps_one_string():
    # n * delta = 0.4 < 1 forbids even a single off-symbol
    spec = TypicalSpec([1.0, 0.0], 4, 0.1)
    assert list(enumerate_typical(spec)) == [(0, 0, 0, 0)]
    assert typical_count(spec) == 1
    assert typical_mass(spec) == pytest.approx(1.0, abs=0)


def test_uniform_bit_count_mass_and_order():
    spec = TypicalSpec([0.5, 0.5], 4, 0.1)
    seqs = list(enumerate_typical(spec))
    assert len(seqs) == 6
    assert typical_count(spec) == 6
    assert seqs == sorted(seqs)
    assert all(s.count(0) == 2 and s.count(1) == 2 for s in seqs)
    assert typical_mass(spec) == pytest.approx(6 / 16, abs=0)
    assert is_typical([0, 1, 0, 1], spec)
    assert not is_typical([0, 0, 0, 1], spec)


def test_zero_probability_symbol_enters_once_slack_allows():
    # n * delta = 1.2 admits one occurrence of the zero-probability symbol
    spec = TypicalSpec([1.0, 0.0], 12, 0.1)
    assert typical_count(spec) == 13
    assert typical_mass(spec) == pytest.approx(1.0, abs=0)


def test_mass_trend_frozen_values():
    for p, expected in [((0.5, 0.5), (0.875, 0.9296875, 0.96142578125)),
                        ((0.3, 0.7), (0.9162999999999998,
                                      0.9420323499999995,
                                      0.9905106288699993))]:
        masses = [typical_mass(TypicalSpec(p, n, 0.3)) for n in (4, 8, 12)]
        assert masses[0] < masses[1] < masses[2]
        for got, want in zip(masses, expected):
            assert got == pytest.approx(want, abs=1e-12)


def test_dimension_bound_over_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(k) * 2)
        n = int(rng.integers(1, 13))
        delta = float(rng.uniform(0.02, 0.5))
        spec = TypicalSpec(p, n, delta)
        cnt = typical_count(spec)
        lhs = math.log2(cnt) if cnt > 0 else -np.inf
        assert lhs <= typical_dimension_bound(spec) + 1e-9


def test_spec_validation():
    with pytest.raises(ValidationError):
        TypicalSpec([0.6, 0.6], 4, 0.1)
    with pytest.raises(ValidationError):
        TypicalSpec([[0.5, 0.5]], 4, 0.1)
    with pytest.raises(ValidationError):
        TypicalSpec([0.5, 0.5], 0, 0.1)
    with pytest.raises(ValidationError):
        TypicalSpec([0.5, 0.5], 4, 0.0)


def test_conditional_count_and_mass_match_brute_force():
    cond = np.array([[0.8, 0.2], [0.3, 0.7]])
    xn = [0, 1, 0, 1, 0, 0]
    cnt = conditional_typical_count(cond, xn, 0.2)
    seqs = list(enumerate_conditionally_typical(cond, xn, 0.2))
    assert cnt == 33
    assert len(seqs) == cnt
    assert seqs == sorted(seqs)
    mass = conditional_typical_mass(cond, xn, 0.2)
    assert mass == pytest.approx(0.8852480000000001, abs=1e-12)
    brute = 0.0
    for idx in range(2 ** 6):
        yn = [(idx >> (5 - t)) & 1 for t in range(6)]
        pr = float(np.prod([cond[xn[t], yn[t]] for t in range(6)]))
        if is_conditionally_typical(yn, xn, cond, 0.2):
            brute += pr
            assert tuple(yn) in seqs
    assert mass == pytest.approx(brute, abs=1e-12)


def test_conditional_dimension_bound_on_typical_bases():
    cond = np.array([[0.8, 0.2], [0.3, 0.7]])
    marg = np.array([0.5, 0.5])
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 11))
        delta = float(rng.uniform(0.05, 0.4))
        xs = rng.integers(0, 2, size=n)
        if not is_typical(xs, TypicalSpec(marg, n, delta)):
            continue
        cnt = conditional_typical_count(cond, xs, delta)
        lhs = math.log2(cnt) if cnt else -np.inf
        assert lhs <= conditional_dimension_bound(marg, cond, n, delta) + 1e-9
        checked += 1
    assert checked >= 10


def test_typical_projector_pure_state_is_rank_one():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    P = typical_projector(np.outer(psi, psi), 3, 0.1)
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)
    vec = np.array([1.0])
    for _ in range(3):
        vec = np.kron(vec, psi)
    assert np.max(np.abs(P - np.outer(vec, vec))) < 1e-12


def test_typical_projector_counts_and_mass():
    P = typical_projector(np.eye(2) / 2, 4, 0.1)
    assert np.trace(P).real == pytest.approx(6.0, abs=1e-12)
    rho = np.diag([0.9, 0.1])
    P = typical_projector(rho, 8, 0.05)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    big = np.array([[1.0]])
    for _ in range(8):
        big = np.kron(big, rho)
    got = float(np.trace(big @ P).real)
    assert got == pytest.approx(0.38263752, abs=1e-9)
    assert got == pytest.approx(typical_mass(TypicalSpec([0.9, 0.1], 8, 0.05)),
                                abs=1e-12)


def test_conditional_projector_matches_counting_oracle():
    sx = np.array([[0.7, 0.2], [0.2, 0.3]])
    sy = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    xn = [0, 1, 0]
    P = conditional_typical_projector([sx, sy], xn, 0.15)
    assert np.max(np.abs(P - P.conj().T)) < 1e-12
    assert np.max(np.abs(P @ P - P)) < 1e-12
    joint = np.kron(np.kron(sx, sy), sx)
    got = float(np.trace(joint @ P).real)
    assert got == pytest.approx(0.3677056274847713, abs=1e-12)
    eigx = np.sort(np.linalg.eigvalsh(sx))[::-1]
    eigy = np.sort(np.linalg.eigvalsh(sy))[::-1]
    want = conditional_typical_mass(np.stack([eigx, eigy]), xn, 0.15)
    assert got == pytest.approx(want, abs=1e-12)


def test_resource_guardrails():
    with pytest.raises(ResourceLimitError):
        list(enumerate_typical(TypicalSpec([0.5, 0.5], 21, 0.1)))
    with pytest.raises(ResourceLimitError):
        typical_projector(np.eye(4) / 4, 7, 0.1)
    mixed = cqr_state(2, 2, 2, [(0.5, pure([1, 0, 0, 1])),
                                (0.5, pure([0, 1, 1, 0]))])
    # m * log2(|C||Q||R|) = 15 exceeds the projector budget
    with pytest.raises(ResourceLimitError):
        project_and_renormalize(mixed, 5, 0.2)


def test_projection_classical_bit():
    res = project_and_renormalize(classical_bit(), 4, 0.1)
    assert len(res.kept_strings) == 6
    assert res.classical_mass == pytest.approx(0.375, abs=1e-12)
    assert res.joint_mass == pytest.approx(0.375, abs=1e-12)
    assert all(b == pytest.approx(1.0, abs=1e-12) for b in res.branch_masses)
    assert np.trace(res.state.matrix).real == pytest.approx(1.0, abs=1e-10)
    evals = np.linalg.eigvalsh(res.state.matrix)
    nz = evals[evals > 1e-12]
    assert len(nz) == 6
    assert np.allclose(nz, 1 / 6, atol=1e-12)


def test_projection_diagonalizes_each_branch_once(monkeypatch):
    calls = []
    original = typicality._descending_eigensystem

    def counted(matrix, clip):
        calls.append(clip)
        return original(matrix, clip)

    monkeypatch.setattr(typicality, "_descending_eigensystem", counted)
    res = project_and_renormalize(classical_bit(), 4, 0.1)
    assert len(res.kept_strings) == 6
    # one eigensystem per branch, both on the clipping path
    assert calls == [True, True]


def test_projection_accepts_permuted_labels():
    permuted = permute_subsystems(classical_bit(), ("R", "C", "Q"))
    res = project_and_renormalize(permuted, 4, 0.1)
    assert res.classical_mass == pytest.approx(0.375, abs=1e-12)
    assert res.state.space.labels == ("C", "Q", "R")


def test_projection_pure_q_block_is_unchanged():
    block = np.kron(pure([1, 1]), np.diag([0.6, 0.4]))
    res = project_and_renormalize(cqr_state(1, 2, 2, [(1.0, block)]), 3, 0.2)
    assert res.classical_mass == pytest.approx(1.0, abs=0)
    assert res.joint_mass == pytest.approx(1.0, abs=1e-12)
    ref = regroup_power(block, 2, 2, 3)
    assert np.max(np.abs(res.state.matrix - ref)) < 1e-10


def test_projection_entangled_block_trims_q_register():
    # maximally mixed Q marginal at n=3, delta=0.2 keeps 6 of 8 strings
    bell = cqr_state(1, 2, 2, [(1.0, pure([1, 0, 0, 1]))])
    res = project_and_renormalize(bell, 3, 0.2)
    assert res.classical_mass == pytest.approx(1.0, abs=0)
    assert res.joint_mass == pytest.approx(0.75, abs=1e-12)
    assert res.branch_masses == pytest.approx((0.75,), abs=1e-12)
    evals = np.linalg.eigvalsh(res.state.matrix)
    assert np.sum(evals > 1e-10) == 1


def test_projection_large_slack_keeps_everything():
    mixed = cqr_state(2, 2, 2,
                      [(0.5, np.kron(np.diag([0.6, 0.4]), pure([1, 0]))),
                       (0.5, np.kron(np.diag([0.3, 0.7]), pure([0, 1])))])
    res = project_and_renormalize(mixed, 2, 1.5)
    assert res.classical_mass == pytest.approx(1.0, abs=0)
    assert res.joint_mass == pytest.approx(1.0, abs=1e-10)
    assert len(res.kept_strings) == 4


def test_projection_empty_typical_set_raises():
    with pytest.raises(ValidationError):
        project_and_renormalize(classical_bit(), 3, 0.01)


def test_projection_validation():
    space = TensorSpace.of(("A", 2), ("Q", 1), ("R", 2))
    wrong = DensityMatrix(space, classical_bit().matrix)
    with pytest.raises(ValidationError):
        project_and_renormalize(wrong, 2, 0.3)
    with pytest.raises(ValidationError):
        project_and_renormalize(classical_bit(), 0, 0.3)
    coherent = np.zeros((4, 4), dtype=complex)
    coherent[0, 0] = coherent[3, 3] = 0.5
    coherent[0, 3] = coherent[3, 0] = 0.5
    leaky = DensityMatrix(TensorSpace.of(("C", 2), ("Q", 1), ("R", 2)), coherent)
    with pytest.raises(ValidationError):
        project_and_renormalize(leaky, 2, 0.3)


def test_sample_typical_fraction_concentrates_and_is_deterministic():
    frac = sample_typical_fraction([0.3, 0.7], 2000, 0.05, 2000, seed=0)
    assert frac >= 0.95
    a = sample_typical_fraction([0.3, 0.7], 2000, 0.05, 200, seed=1)
    assert a == sample_typical_fraction([0.3, 0.7], 2000, 0.05, 200, seed=1)
    with pytest.raises(ValidationError):
        sample_typical_fraction([0.3, 0.7], 2000, 0.05, 0)


def test_integer_arguments_reject_bool_and_float():
    p = [0.3, 0.7]
    with pytest.raises(ValidationError, match="sample count"):
        sample_typical_fraction(p, 10, 0.1, 2.5)
    with pytest.raises(ValidationError, match="sample count"):
        sample_typical_fraction(p, 10, 0.1, True)
    assert sample_typical_fraction(p, 10, 0.1, np.int64(50)) == \
        sample_typical_fraction(p, 10, 0.1, 50)
    with pytest.raises(ValidationError, match="block length"):
        TypicalSpec(p, True, 0.1)
    with pytest.raises(ValidationError, match="block length"):
        typical_projector(np.diag(p), True, 0.1)
    with pytest.raises(ValidationError, match="need n >= 1"):
        conditional_dimension_bound(p, np.eye(2), 2.0, 0.1)
    with pytest.raises(ValidationError, match="power"):
        project_and_renormalize(classical_bit(), True, 0.3)


def test_enumerate_typical_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(k))
        if k > 1 and rng.random() < 0.4:
            p[int(rng.integers(k))] = 0.0
            p = p / p.sum()
        spec = TypicalSpec(p, int(rng.integers(1, 7)), float(rng.uniform(0.02, 0.5)))
        brute = [s for s in itertools.product(range(k), repeat=spec.n)
                 if is_typical(s, spec)]
        assert list(enumerate_typical(spec)) == brute


def test_projection_zero_weight_block():
    # strings using the empty block occur at most m * delta = 1.2 times and
    # carry no weight, but they are kept and their branch mass is 1
    res = project_and_renormalize(cqr_state(2, 2, 2, [(1.0, np.eye(4) / 4),
                                                      (0.0, np.eye(4) / 4)]), 3, 0.4)
    assert res.kept_strings == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert res.branch_masses == pytest.approx((0.75, 1.0, 1.0, 1.0), abs=1e-12)
    assert res.classical_mass == pytest.approx(1.0, abs=1e-12)
    assert res.joint_mass == pytest.approx(0.75, abs=1e-12)


def test_projection_rejects_negative_block_weight():
    # each diagonal entry of block 1 is -0.9e-10: the state is valid within
    # 1e-10 but the block weight -3.6e-10 is not
    m = np.zeros((2, 4, 2, 4), dtype=complex)
    m[0, :, 0, :] = (1.0 + 3.6e-10) * np.eye(4) / 4
    m[1, :, 1, :] = -0.9e-10 * np.eye(4)
    with pytest.raises(ValidationError, match="negative block weight"):
        project_and_renormalize(DensityMatrix(
            TensorSpace.of(("C", 2), ("Q", 2), ("R", 2)), m.reshape(8, 8)), 2, 0.4)


def test_conditional_functions_reject_bad_base_or_slack():
    cond = np.array([[0.8, 0.2], [0.3, 0.7]])
    rho = np.diag([0.8, 0.2])
    calls = [lambda xn, d: conditional_typical_count(cond, xn, d),
             lambda xn, d: conditional_typical_mass(cond, xn, d),
             lambda xn, d: list(enumerate_conditionally_typical(cond, xn, d)),
             lambda xn, d: conditional_typical_projector([rho, rho], xn, d),
             lambda xn, d: is_conditionally_typical(np.zeros_like(xn), xn, cond, d)]
    for call in calls:
        assert call([0, 1], 0.1) is not None
        for xn, d in (([], 0.1), ([[0, 1]], 0.1), ([0, 2], 0.1),
                      ([0, 1], 0.0), ([0, 1], -0.1)):
            with pytest.raises(ValidationError):
                call(xn, d)
    marg = [0.5, 0.5]
    assert conditional_dimension_bound(marg, cond, 4, 0.1) > 0
    for n, d in ((4, 0.0), (4, -0.5), (0, 0.1), (-4, 0.1)):
        with pytest.raises(ValidationError):
            conditional_dimension_bound(marg, cond, n, d)


@pytest.mark.parametrize("marg, message", [
    ([2.0, -1.0], "nonnegative and sum to 1"), ([0.6, 0.6], "nonnegative and sum to 1"),
    ([np.nan, 1.0], "NaN or infinite"), ([np.inf, 0.0], "NaN or infinite"),
    ([[0.5, 0.5]], "1-dimensional"), ([], "1-dimensional")])
def test_conditional_dimension_bound_rejects_bad_marginal(marg, message):
    cond = np.array([[0.8, 0.2], [0.3, 0.7]])
    with pytest.raises(ValidationError, match=message):
        conditional_dimension_bound(marg, cond, 4, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        TypicalSpec([bad, 1.0], 3, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conditional_functions_reject_non_finite(bad):
    cond = [[bad, 1.0]]
    with pytest.raises(ValidationError, match="NaN or infinite"):
        conditional_typical_count(cond, [0, 0], 0.1)
    with pytest.raises(ValidationError, match="NaN or infinite"):
        is_conditionally_typical([1, 1], [0, 0], cond, 0.1)


def test_typical_projector_rejects_bad_block_length():
    rho = np.diag([0.8, 0.2])
    for n in (0, -2, 2.5):
        with pytest.raises(ValidationError):
            typical_projector(rho, n, 0.1)


@pytest.mark.parametrize("branch, message", [
    (np.zeros((2, 2)), "positive eigenvalue"),
    (-np.eye(2), "positive eigenvalue"),
    (np.diag([1.0, np.nan]), "finite, square and Hermitian"),
    (np.diag([np.inf, 1.0]), "finite, square and Hermitian")])
def test_projector_rejects_branch_without_a_spectrum(branch, message):
    with pytest.raises(ValidationError, match=message):
        typical_projector(branch, 1, 0.3)
    with pytest.raises(ValidationError, match=message):
        conditional_typical_projector([np.diag([0.8, 0.2]), branch], [1, 0], 0.3)


def test_projector_rejects_an_indefinite_branch_state():
    # clipping diag(1, -0.5) would project it as the pure state |0><0|
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        typical_projector(np.diag([1.0, -0.5]), 2, 0.3)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        conditional_typical_projector([np.diag([0.8, 0.2]), np.diag([1.0, -0.5])], [1, 0], 0.3)
    assert typical_projector(np.diag([1.0, -1e-12]), 2, 0.3).shape == (4, 4)


def test_spec_with_roundoff_negatives():
    # a spec that validates also passes the conditional functions it delegates to
    spec = TypicalSpec([0.5 + 0.5e-12, 0.5, -0.4e-12, -0.4e-12], 4, 0.3)
    assert typical_count(spec) == 86
    assert typical_mass(spec) == pytest.approx(0.875, abs=1e-11)
    assert is_typical([0, 2, 0, 1], spec)
    # clipping the negatives would push the sum past 1 + 1e-12
    with pytest.raises(ValidationError):
        TypicalSpec([0.5 + 1.5e-12, 0.5, -0.9e-12, -0.9e-12], 4, 0.3)


def _random_spec(rng, max_k: int, max_n: int, zero_share: float) -> TypicalSpec:
    """A spec over 2..max_k symbols; with probability zero_share one symbol gets p = 0."""
    k = int(rng.integers(2, max_k + 1))
    p = rng.dirichlet(np.ones(k))
    if rng.random() < zero_share:
        p[int(rng.integers(k))] = 0.0
        p = p / p.sum()
    return TypicalSpec(p, int(rng.integers(1, max_n + 1)), float(rng.uniform(0.02, 0.5)))


def test_typical_mass_is_correctly_rounded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        spec = _random_spec(rng, 3, 8, 0.25)
        probs = [Fraction(float(q)) for q in spec.probs]
        # membership depends on the symbol counts alone, so ask once per count vector
        accepted = {}
        exact = Fraction(0)
        for seq in itertools.product(range(spec.alphabet_size), repeat=spec.n):
            counts = tuple(sorted(Counter(seq).items()))
            if counts not in accepted:
                accepted[counts] = is_typical(seq, spec)
            if accepted[counts]:
                exact += math.prod(probs[y] ** c for y, c in counts)
        assert typical_mass(spec) == min(float(exact), 1.0)


def test_conditional_mass_is_the_exact_product_rounded_once():
    rng = np.random.default_rng(6)
    for _ in range(30):
        ky = int(rng.integers(2, 4))
        cond = rng.dirichlet(np.ones(ky), size=2)
        n = int(rng.integers(2, 7))
        xn = rng.integers(0, 2, size=n)
        delta = float(rng.uniform(0.05, 0.5))
        rows = [[Fraction(float(q)) for q in row] for row in cond]
        exact = Fraction(0)
        for yn in itertools.product(range(ky), repeat=n):
            if is_conditionally_typical(yn, xn, cond, delta):
                exact += math.prod(rows[x][y] for x, y in zip(xn.tolist(), yn))
        assert conditional_typical_mass(cond, xn, delta) == min(float(exact), 1.0)


def test_typical_count_matches_count_vector_oracle():
    rng = np.random.default_rng(8)
    for _ in range(150):
        spec = _random_spec(rng, 4, 40, 0.3)
        assert typical_count(spec) == typical_count_by_vectors(spec)
    for p, n in (([0.2, 0.3, 0.5], 300), ([0.3, 0.7], 2000), ([1.0, 0.0], 2000)):
        spec = TypicalSpec(p, n, 0.02)
        assert typical_count(spec) == typical_count_by_vectors(spec)


def test_empty_windows_give_zero_count_and_mass():
    # centers 1.5 with slack 0.3: no integer count lies within [1.2, 1.8]
    spec = TypicalSpec([0.5, 0.5], 3, 0.1)
    assert spec.count_windows()[0].tolist() == [2, 2]
    assert typical_count(spec) == 0
    assert typical_mass(spec) == 0.0
    cond = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert conditional_typical_count(cond, [0, 0, 0, 1], 0.05) == 0
    assert conditional_typical_mass(cond, [0, 0, 0, 1], 0.05) == 0.0


_COND = np.array([[0.8, 0.2], [0.3, 0.7]])


@pytest.mark.parametrize("call, message", [
    (lambda d: TypicalSpec([0.5, 0.5], 4, d), "slack must be positive"),
    (lambda d: conditional_typical_count(_COND, [0, 1], d), "slack must be positive"),
    (lambda d: conditional_typical_mass(_COND, [0, 1], d), "slack must be positive"),
    (lambda d: list(enumerate_conditionally_typical(_COND, [0, 1], d)),
     "slack must be positive"),
    (lambda d: conditional_dimension_bound([0.5, 0.5], _COND, 4, d),
     "need n >= 1 and positive slack")],
    ids=["spec", "count", "mass", "enumerate", "dimension_bound"])
def test_slack_must_be_finite(call, message):
    assert call(0.1) is not None
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError, match=message):
            call(bad)


def test_slack_rejects_bool():
    for flag in (True, np.True_):
        with pytest.raises(ValidationError, match="slack must be positive"):
            TypicalSpec([0.5, 0.5], 4, flag)
        with pytest.raises(ValidationError, match="slack must be positive"):
            project_and_renormalize(classical_bit(), 2, flag)
        with pytest.raises(ValidationError, match="slack must be positive"):
            is_conditionally_typical([0, 1], [0, 1], _COND, flag)


def test_slack_rejects_values_that_are_not_real_numbers():
    # none of these compares with 0, so each used to escape as a raw TypeError
    for bad in ("0.1", None, 1j, np.complex128(0.1)):
        with pytest.raises(ValidationError, match="slack must be positive"):
            TypicalSpec([0.5, 0.5], 4, bad)
    assert TypicalSpec([0.5, 0.5], 4, np.array(0.1)).delta == 0.1


def test_window_past_the_block_length_is_empty():
    # a clipped entry just above 1 puts the lower count edge at n + 1, so the rule
    # |N - n p| <= n delta + COUNT_EPS admits no sequence: |3000 - 3000 p| = 1.5e-9
    spec = TypicalSpec([1 + 5e-13, -5e-13], 3000, 1e-13)
    lo, hi = spec.count_windows()
    assert lo.tolist() == [3001, 0] and hi.tolist() == [3000, 0]
    assert typical_count(spec) == 0
    assert typical_mass(spec) == 0.0
    assert not is_typical([0] * 3000, spec)


def _count_offsets(yn, xn, cond) -> np.ndarray:
    """|N(x,y) - p(y|x) N(x)| for every pair (x, y), the membership oracle's terms."""
    joint = np.zeros(cond.shape, dtype=int)
    np.add.at(joint, (xn, yn), 1)
    return np.abs(joint - cond * joint.sum(axis=1, keepdims=True))


def test_membership_agrees_with_the_joint_count_formula():
    rng = np.random.default_rng(22)
    outcomes, on_edge = Counter(), 0
    for case in range(3000):
        kx, ky, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 13))
        if case % 5 < 2:
            # eighths and dyadic slacks put counts exactly on window edges
            cond = rng.multinomial(8, np.ones(ky) / ky, size=kx) / 8
            delta = float(rng.choice([0.125, 0.25, 0.5]))
        else:
            cond = rng.dirichlet(np.ones(ky), size=kx)
            delta = float(rng.uniform(0.02, 0.6))
        xn = rng.integers(0, kx, size=n)
        yn = np.array([rng.choice(ky, p=cond[x]) for x in xn]) if case % 2 else \
            rng.integers(0, ky, size=n)
        offsets = _count_offsets(yn, xn, cond)
        expected = bool(np.all(offsets <= n * delta + typicality.COUNT_EPS))
        assert is_conditionally_typical(yn, xn, cond, delta) == expected
        outcomes[expected] += 1
        on_edge += bool(np.any(offsets == n * delta))
    assert min(outcomes[True], outcomes[False]) > 300 and on_edge > 50


@pytest.mark.parametrize("call", [
    lambda seq: is_typical(seq, TypicalSpec([0.5, 0.5], 2, 0.5)),
    lambda seq: is_conditionally_typical(seq, [0, 1], _COND, 0.3),
    lambda seq: is_conditionally_typical([0, 1], seq, _COND, 0.3),
    lambda seq: conditional_typical_count(_COND, seq, 0.3),
    lambda seq: conditional_typical_mass(_COND, seq, 0.3),
    lambda seq: list(enumerate_conditionally_typical(_COND, seq, 0.3)),
    lambda seq: conditional_typical_projector([np.diag([0.8, 0.2])] * 2, seq, 0.3)],
    ids=["is_typical", "is_cond_typical_y", "is_cond_typical_x", "count", "mass",
         "enumerate", "projector"])
def test_symbols_must_be_integers(call):
    assert call([0, 1]) is not None
    assert call(np.array([0, 1], dtype=np.uint8)) is not None
    for bad in ([0.7, 1.2], [0.0, 1.0], ["0", "1"], [False, True]):
        with pytest.raises(ValidationError, match="sequence symbols must be integers"):
            call(bad)


def test_projector_rejects_array_branch_states_that_are_not_hermitian_matrices():
    with pytest.raises(ValidationError, match="square and Hermitian"):
        conditional_typical_projector([np.full((2, 3), 0.5)], [0, 0], 0.3)
    with pytest.raises(ValidationError, match="square and Hermitian"):
        conditional_typical_projector([np.array([[0.8, 0.1], [0.0, 0.2]])], [0, 0], 0.3)
    near = np.array([[0.8, 0.1], [0.1 + 1e-12, 0.2]])
    assert conditional_typical_projector([near], [0, 0], 0.3).shape == (4, 4)


@pytest.mark.parametrize("delta", [0.3, 0.45])
def test_projection_bytes_match_the_dense_assembly(delta):
    rng = seed_rng(0, "projection-bytes")
    space = TensorSpace.of(("Q", 2), ("R", 1))
    source = cqr_state(2, 2, 1, [(0.4, random_state(space, rng).matrix),
                                 (0.6, random_state(space, rng).matrix)])
    res = project_and_renormalize(source, 3, delta)
    assert res.state.matrix.tobytes() == dense_projection(source, 3, delta).tobytes()


@pytest.mark.parametrize("delta,kept,joint_mass", [(0.3, 1, 0.72), (0.45, 4, 0.936)])
def test_projection_keeps_a_source_whose_tiny_branch_is_indefinite_after_scaling(
        delta, kept, joint_mass):
    # the weight-1e-13 block diag(1e-13 + 1e-11, -1e-11) becomes the branch
    # diag(101, -100) once block_form divides it by its weight; the source is
    # a valid state, so its projection must not be rejected
    space = TensorSpace.of(("C", 2), ("Q", 2), ("R", 1))
    source = DensityMatrix(space, np.diag([0.6, 0.4 - 1e-13, 1e-13 + 1e-11, -1e-11]))
    res = project_and_renormalize(source, 3, delta)
    assert len(res.kept_strings) == kept
    assert res.joint_mass == pytest.approx(joint_mass, abs=1e-9)
    assert res.state.matrix.tobytes() == dense_projection(source, 3, delta).tobytes()
