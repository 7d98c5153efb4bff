"""Koashi-Imoto block decomposition and the reverse channel."""
import dataclasses

import numpy as np
import pytest
from algebra_oracle import component_span

from qcap import ki
from qcap.channels import apply_channel
from qcap.errors import ValidationError
from qcap.ki import (AlgebraBasis, decompose_algebra, generate_algebra,
                     ki_decompose, ki_state, reverse_ki_channel,
                     steered_operators)
from qcap.linalg import binary_entropy, entropy_from_probs, entropy_of_matrix
from qcap.sampling import random_state, random_unitary, seed_rng
from qcap.spaces import TensorSpace
from qcap.states import (DensityMatrix, maximally_entangled, partial_trace,
                         permute_subsystems, trace_distance)
from qcap.typicality import project_and_renormalize

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def build_planted(seed: int):
    """A state assembled from known blocks, scrambled by a random unitary.

    Returns the state, the expected (dim_q, dim_n, prob) triples, the planted
    dead dimension, and the planted (s_c, s_q_given_c) entropy pair.
    """
    rng = seed_rng(seed, "planted")
    n_blocks = int(rng.integers(1, 4))
    dims = []
    total = 0
    for _ in range(n_blocks):
        dq = int(rng.integers(1, 4))
        dn = int(rng.integers(1, 3))
        if total + dq * dn > 8:
            break
        dims.append((dq, dn))
        total += dq * dn
    if not dims:
        dims = [(1, 1)]
    dead = int(rng.integers(0, 2))
    d_r = max(max(d for d, _ in dims) + int(rng.integers(0, 2)), 2)
    return plant(rng, dims, dead, d_r)


def plant(rng, dims, dead: int, d_r: int):
    """Blocks of the given (dim_q, dim_n) shapes plus ``dead`` slack dimensions.

    Returns the same tuple as :func:`build_planted`.
    """
    d_a = sum(dq * dn for dq, dn in dims) + dead
    p = rng.dirichlet(np.ones(len(dims)) * 3.0)
    m = np.zeros((d_a, d_r, d_a, d_r), dtype=complex)
    off = 0
    s_q_given_c = 0.0
    for (dq, dn), pc in zip(dims, p):
        omega = random_state(TensorSpace.of(("Q", dq), ("R", d_r)), rng).matrix
        mu = random_state(TensorSpace.single("N", dn), rng).matrix
        omega4 = omega.reshape(dq, d_r, dq, d_r)
        s_q_given_c += pc * entropy_of_matrix(omega4.trace(axis1=1, axis2=3))
        t6 = pc * np.einsum("qrps,nm->qnrpms", omega4, mu)
        d_block = dq * dn
        m[off:off + d_block, :, off:off + d_block, :] = t6.reshape(
            d_block, d_r, d_block, d_r)
        off += d_block
    u = random_unitary(d_a, rng)
    v = u.conj().T
    m = np.einsum("pa,arbs,qb->prqs", v, m, v.conj())
    space = TensorSpace.of(("A", d_a), ("R", d_r))
    rho = DensityMatrix(space, m.reshape(d_a * d_r, d_a * d_r))
    expected = [(dq, dn, pc) for (dq, dn), pc in zip(dims, p)]
    entropies = (entropy_from_probs(np.asarray(p)), s_q_given_c)
    return rho, expected, dead, entropies


def block_multiset(kid):
    return sorted((b.dim_q, b.dim_n, round(b.prob, 8)) for b in kid.blocks)


def test_classical_pair_two_singleton_blocks():
    space = TensorSpace.of(("A", 2), ("R", 2))
    rho = DensityMatrix(space, np.diag([0.5, 0.0, 0.0, 0.5]))
    kid = ki_decompose(rho)
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(1, 1), (1, 1)]
    assert kid.probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert kid.s_c == pytest.approx(1.0, abs=1e-12)
    assert kid.s_q_given_c == pytest.approx(0.0, abs=1e-12)
    assert kid.s_cq == pytest.approx(1.0, abs=1e-12)
    assert kid.dead_dim == 0


def test_bell_single_quantum_block():
    rho = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2))).density()
    kid = ki_decompose(rho)
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(2, 1)]
    assert kid.s_c == pytest.approx(0.0, abs=1e-12)
    assert kid.s_q_given_c == pytest.approx(1.0, abs=1e-9)
    assert kid.reconstruction_error <= 1e-8


def test_biased_classical_bit_entropies():
    space = TensorSpace.of(("A", 2), ("R", 2))
    rho = DensityMatrix(space, np.diag([0.8, 0.0, 0.0, 0.2]))
    kid = ki_decompose(rho)
    assert kid.s_c == pytest.approx(binary_entropy(0.2), abs=1e-12)
    assert kid.s_q_given_c == pytest.approx(0.0, abs=1e-12)


def test_product_state_is_fully_redundant():
    # no correlation with R: everything lands in one block with dim_q = 1
    a = random_state([("A", 3)], seed_rng(0, "prod-a"))
    r = random_state([("R", 2)], seed_rng(0, "prod-r"))
    m = np.kron(a.matrix, r.matrix)
    rho = DensityMatrix(TensorSpace.of(("A", 3), ("R", 2)), m)
    kid = ki_decompose(rho)
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(1, 3)]
    assert kid.s_c == pytest.approx(0.0, abs=1e-12)
    assert kid.s_q_given_c == pytest.approx(0.0, abs=1e-12)


def test_mixed_coupling_stays_one_block():
    # a non-commuting perturbation couples the two diagonal sectors, so no
    # classical split survives even though the unperturbed part is diagonal
    m = 0.5 * np.kron(np.diag([0.7, 0.3]), np.eye(2)) + 0.2 * np.kron(SX, SZ)
    rho = DensityMatrix(TensorSpace.of(("A", 2), ("R", 2)), m.astype(complex))
    kid = ki_decompose(rho)
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(2, 1)]
    assert kid.s_c == pytest.approx(0.0, abs=1e-12)


def test_identical_blocks_merge_into_redundancy():
    # two copies of one correlated part differ only by weight, which the
    # minimal decomposition absorbs into a two-dimensional redundant factor
    rng = seed_rng(99, "merge")
    omega = random_state(TensorSpace.of(("Q", 2), ("R", 2)), rng).matrix
    m = np.zeros((4, 2, 4, 2), dtype=complex)
    o4 = omega.reshape(2, 2, 2, 2)
    m[0:2, :, 0:2, :] = 0.6 * o4
    m[2:4, :, 2:4, :] = 0.4 * o4
    rho = DensityMatrix(TensorSpace.of(("A", 4), ("R", 2)), m.reshape(8, 8))
    kid = ki_decompose(rho)
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(2, 2)]
    assert kid.blocks[0].prob == pytest.approx(1.0, abs=1e-10)
    assert kid.blocks[0].mu.eigenvalues() == pytest.approx([0.4, 0.6], abs=1e-9)


def test_planted_blocks_recovered():
    ok = 0
    for seed in range(30):
        rho, expected, dead, planted = build_planted(seed)
        kid = ki_decompose(rho, seed=seed)
        got = block_multiset(kid)
        exp = sorted((dq, dn, round(p, 8)) for dq, dn, p in expected)
        assert len(got) == len(exp), f"seed {seed}: {got} vs {exp}"
        for g, e in zip(got, exp):
            assert g[0] == e[0] and g[1] == e[1], f"seed {seed}: {got} vs {exp}"
            assert g[2] == pytest.approx(e[2], abs=1e-8)
        assert kid.dead_dim == dead
        assert kid.reconstruction_error <= 1e-8
        assert kid.s_c == pytest.approx(planted[0], abs=1e-8)
        assert kid.s_q_given_c == pytest.approx(planted[1], abs=1e-8)
        assert kid.s_cq == pytest.approx(kid.s_c + kid.s_q_given_c, abs=1e-9)
        ok += 1
    assert ok == 30


def test_reconstruction_matches_state():
    for seed in (3, 11, 17):
        rho, _, _, _ = build_planted(seed)
        kid = ki_decompose(rho, seed=seed)
        rebuilt = ki_state(kid)
        # rotate the original state into the block frame and compare
        d_a, d_r = kid.dim_a, kid.dim_r
        t4 = rho.matrix.reshape(d_a, d_r, d_a, d_r)
        rotated = np.einsum("pa,arbs,qb->prqs", kid.u_ki, t4, kid.u_ki.conj())
        framed = DensityMatrix(rebuilt.space, rotated.reshape(rho.dim, rho.dim))
        assert trace_distance(framed, rebuilt) <= 1e-8


def test_reverse_channel_fixed_point():
    for seed in (0, 5, 23):
        rho, _, _, _ = build_planted(seed)
        kid = ki_decompose(rho, seed=seed)
        rev = reverse_ki_channel(kid)
        closure = sum(k.conj().T @ k for k in rev.kraus)
        assert closure == pytest.approx(np.eye(kid.dim_a), abs=1e-9)
        out = apply_channel(rev, rho, target="A")
        assert trace_distance(out, rho) <= 1e-8


def test_reverse_channel_erases_fresh_noise_on_redundant_part():
    # perturbing only the redundant factor must be undone by the channel
    rng = seed_rng(99, "merge")
    omega = random_state(TensorSpace.of(("Q", 2), ("R", 2)), rng).matrix
    m = np.zeros((4, 2, 4, 2), dtype=complex)
    o4 = omega.reshape(2, 2, 2, 2)
    m[0:2, :, 0:2, :] = 0.6 * o4
    m[2:4, :, 2:4, :] = 0.4 * o4
    rho = DensityMatrix(TensorSpace.of(("A", 4), ("R", 2)), m.reshape(8, 8))
    kid = ki_decompose(rho)
    rev = reverse_ki_channel(kid)
    # same correlated part, redundant weights disturbed
    m2 = np.zeros((4, 2, 4, 2), dtype=complex)
    m2[0:2, :, 0:2, :] = 0.5 * o4
    m2[2:4, :, 2:4, :] = 0.5 * o4
    disturbed = DensityMatrix(rho.space, m2.reshape(8, 8))
    out = apply_channel(rev, disturbed, target="A")
    assert trace_distance(out, rho) <= 1e-8


def test_reverse_channel_with_slack_and_a_rank_deficient_mu():
    for seed in range(6):
        rho, _, dead, _ = plant(seed_rng(seed, "slack"), [(2, 2), (1, 2)], 1, 2)
        kid = ki_decompose(rho, seed=seed)
        assert kid.dead_dim == dead == 1
        rev = reverse_ki_channel(kid)
        assert len(rev.kraus) == 9  # 2 x 2 per block, 1 for the slack direction
        assert trace_distance(apply_channel(rev, rho, target="A"), rho) <= 1e-12
    # a redundant factor of rank 1 contributes no Kraus operator for its zero eigenvalue
    small = next(i for i, b in enumerate(kid.blocks) if b.dim_q == 1)
    blocks = list(kid.blocks)
    blocks[small] = dataclasses.replace(
        blocks[small], mu=DensityMatrix(TensorSpace.single("N", 2), np.diag([0.0, 1.0])))
    kid = dataclasses.replace(kid, blocks=tuple(blocks))
    rev = reverse_ki_channel(kid)
    assert len(rev.kraus) == 7
    assert sum(k.conj().T @ k for k in rev.kraus) == pytest.approx(np.eye(kid.dim_a), abs=1e-12)
    d_a, d_r = kid.dim_a, kid.dim_r
    framed = ki_state(kid).matrix.reshape(d_a, d_r, d_a, d_r)
    fixed = DensityMatrix(rho.space, np.einsum("pa,prqs,qb->arbs", kid.u_ki.conj(), framed,
                                               kid.u_ki).reshape(rho.dim, rho.dim))
    assert trace_distance(apply_channel(rev, fixed, target="A"), fixed) <= 1e-12


def test_steered_operators_follow_the_system_label():
    rho = random_state([("R", 3), ("A", 2)], seed_rng(4, "steer"))
    ops = steered_operators(rho, system="A")
    assert ops.shape == (9, 2, 2)
    assert np.array_equal(ops, steered_operators(permute_subsystems(rho, ("A", "R"))))


def test_multi_label_system_selection():
    rho, expected, _, _ = build_planted(7)
    d_a, d_r = rho.space.dim_of("A"), rho.space.dim_of("R")
    # same state with the reference listed first and system given explicitly
    flipped = permute_subsystems(rho, ("R", "A"))
    kid = ki_decompose(flipped, system=("A",), seed=7)
    exp = sorted((dq, dn, round(p, 8)) for dq, dn, p in expected)
    assert block_multiset(kid) == pytest.approx(exp)
    assert kid.dim_a == d_a and kid.dim_r == d_r


def test_trivial_reference_is_all_redundancy():
    rho = random_state([("A", 4)], seed_rng(1, "noref"))
    kid = ki_decompose(rho, system=("A",))
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(1, 4)]
    assert kid.s_c == 0.0 and kid.s_q_given_c == 0.0
    with pytest.raises(ValidationError):
        ki_decompose(rho, system=("missing",))


def test_steered_operators_and_algebra_dims():
    rho = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2))).density()
    ops = steered_operators(rho)
    assert ops.shape[1:] == (2, 2)
    alg = generate_algebra(ops, partial_trace(rho, "A"))
    assert isinstance(alg, AlgebraBasis)
    # steering a maximally entangled state spans the full matrix algebra
    assert alg.dim == 4
    factors = decompose_algebra(alg)
    assert [(f.dim_q, f.dim_n) for f in factors] == [(2, 1)]


def test_larger_dimensions():
    # planted structures at d_A = 16 and 24, and a generic state at d_A = 16
    rng = seed_rng(2, "planted-large")
    cases = [plant(rng, [(3, 2), (2, 3), (4, 1)], 0, 4),
             plant(rng, [(4, 2), (3, 3), (2, 2), (1, 2)], 1, 4)]
    generic = random_state([("A", 16), ("R", 2)], rng)
    s_a = entropy_of_matrix(partial_trace(generic, "A").matrix)
    cases.append((generic, [(16, 1, 1.0)], 0, (0.0, s_a)))
    for rho, expected, dead, planted in cases:
        kid = ki_decompose(rho, seed=2)
        got = sorted((b.dim_q, b.dim_n, b.prob) for b in kid.blocks)
        exp = sorted(expected)
        assert [g[:2] for g in got] == [e[:2] for e in exp]
        assert [g[2] for g in got] == pytest.approx([e[2] for e in exp], abs=1e-8)
        assert kid.dead_dim == dead
        assert kid.reconstruction_error <= 1e-8
        assert kid.s_c == pytest.approx(planted[0], abs=1e-8)
        assert kid.s_q_given_c == pytest.approx(planted[1], abs=1e-8)


def test_projected_two_copy_source():
    # the typical projection of omega^(x2) keeps one KI block per kept string
    for seed in range(4):
        rng = seed_rng(seed, "ki-projected")
        m = np.zeros((2, 4, 2, 4), dtype=complex)
        for c, pc in enumerate((0.35, 0.65)):
            m[c, :, c, :] = pc * random_state([("Q", 2), ("R", 2)], rng).matrix
        source = DensityMatrix(TensorSpace.of(("C", 2), ("Q", 2), ("R", 2)),
                               m.reshape(8, 8))
        for delta in (0.3, 0.45):
            proj = project_and_renormalize(source, 2, delta)
            kid = ki_decompose(proj.state, system=("C", "Q"), seed=seed)
            weights = np.array([np.prod([(0.35, 0.65)[x] for x in s])
                                for s in proj.kept_strings])
            assert len(kid.blocks) == len(proj.kept_strings)
            assert kid.s_c == pytest.approx(entropy_from_probs(weights / weights.sum()),
                                            abs=1e-12)
            assert kid.reconstruction_error <= 1e-8


def schmidt_state(spectrum, rng) -> DensityMatrix:
    """A pure state on A tensor R with the given Schmidt spectrum, rotated on A."""
    d = len(spectrum)
    psi = random_unitary(d, rng) @ np.diag(np.sqrt(spectrum))
    space = TensorSpace.of(("A", d), ("R", d))
    return DensityMatrix(space, np.outer(psi.reshape(-1), psi.reshape(-1).conj()))


def uniform_cq_state(k: int, d_r: int, rng) -> DensityMatrix:
    """(1/k) sum_x |x><x| tensor sigma_x on A tensor R, rotated on A: rho_A = 1/k."""
    m = sum(np.kron(np.diag(np.eye(k)[x]), random_state([("R", d_r)], rng).matrix)
            for x in range(k)) / k
    u = np.kron(random_unitary(k, rng), np.eye(d_r))
    return DensityMatrix(TensorSpace.of(("A", k), ("R", d_r)), u @ m @ u.conj().T)


SPAN_CASES = {
    "planted": lambda rng: [build_planted(seed)[0] for seed in range(12)],
    "generic": lambda rng: [random_state([("A", d), ("R", 2)], rng) for d in (3, 5, 8)],
    "schmidt": lambda rng: [schmidt_state(spec, rng)
                            for spec in ((.4, .2, .2, .1, .1), (.25, .25, .25, .25))],
    "uniform cq": lambda rng: [uniform_cq_state(k, d_r, rng)
                               for k, d_r in ((2, 2), (3, 2), (4, 3))],
}


@pytest.mark.parametrize("kind", sorted(SPAN_CASES))
def test_per_class_span_matches_component_oracle(kind, monkeypatch):
    # the span handed to the first commutant equals that of every masked component
    spans = []
    commutant = ki._commutant

    def spy(ops):
        spans.append(ops)
        return commutant(ops)

    monkeypatch.setattr(ki, "_commutant", spy)
    for rho in SPAN_CASES[kind](seed_rng(4, "span-oracle", kind)):
        spans.clear()
        ops = steered_operators(rho)
        rho_a = partial_trace(rho, "A")
        generate_algebra(ops, rho_a)
        want = component_span(ops, rho_a.matrix)
        got = spans[0]
        assert got.shape == want.shape
        flat_got, flat_want = got.reshape(len(got), -1), want.reshape(len(want), -1)
        assert flat_got.T @ flat_got.conj() == pytest.approx(
            flat_want.T @ flat_want.conj(), abs=1e-10)


def test_generate_algebra_requires_a_density_matrix():
    rho = maximally_entangled(TensorSpace.of(("A", 2), ("R", 2))).density()
    ops = steered_operators(rho)
    rho_a = partial_trace(rho, "A")
    assert generate_algebra(ops, rho_a).dim == 4
    for raw in (rho_a.matrix, np.diag([1.0, np.nan])):
        with pytest.raises(ValidationError, match="rho_a must be a DensityMatrix"):
            generate_algebra(ops, raw)
